#!/usr/bin/env python3
"""gentrieval benchmark: batch retrieval through `evaluation.run_experiment`.

    python3 perfbench/run.py --workload standard-trie-2k --seed 1 \
        --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --workload all --smoke --seconds 0

Run from the repository root. Each workload runs in a child process of its
own (`harness.py`), single-threaded, so peak memory and warm state do not
carry over. The metric names and units come from BENCHMARK.json; every one
must be reported. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def _environment() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def run_workload(name: str, args, spec: dict, work: pathlib.Path):
    """Run one workload in a child process; return (result, summary) or
    raise RuntimeError."""
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / name)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name}: exited {proc.returncode} without a result")
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(result["metrics"])
    if mismatch:
        raise RuntimeError(f"{name}: metrics missing or unnamed in "
                           f"BENCHMARK.json: {sorted(mismatch)}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    return result, summary


def describe(name: str, result: dict, summary: dict) -> list[str]:
    props = " ".join(f"{k}={v}" for k, v in summary["inputs"].items())
    out = [f"== {name} seed={summary['seed']} {props}"]
    for metric, m in result["metrics"].items():
        out.append(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    un = summary["untraced"]
    out.append(f"  quality: hits_at_1={un['hits_at_1']:.4f} "
               f"mrr_at_10={un['mrr_at_10']:.4f} "
               f"failed_frac={un['failed_frac']:.4f}; "
               f"{un['query_samples']} query samples over {un['passes']} "
               f"untraced passes")
    raw = " ".join(f"{k}={v:.6g}" for k, v in un["raw"].items())
    out.append(f"  unscaled (host speed as it came): {raw}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy-sized inputs: checks schema and correctness "
                         "in seconds; its timings mean nothing")
    args = ap.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "gentrieval",
              ROOT / "scripts" / "make_toy_data.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: not a gentrieval checkout, missing {absent}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)

    work = HERE / "_work" / f"run-{os.getpid()}"
    results = {}
    try:
        print(_environment())
        for name in names:
            try:
                result, summary = run_workload(name, args, spec, work)
            except (RuntimeError, ValueError, KeyError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print("\n".join(describe(name, result, summary)))
            results[name] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": m
                             for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
