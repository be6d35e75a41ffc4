"""Run one workload in this process and print its result as a JSON line.

`run.py` starts this file once per workload in a child process of its own.
A run is a sequence of passes. Each pass is one build-index step
(`build_index` + `DocIdIndex.save`) followed by one `run_experiment` call
over a chunk of the query file, with `jobs=1`: a closed loop with a single
client. A cycle runs every chunk once. Cycles repeat while another one of
average length still fits in `--seconds` (the first always runs), so every
query weighs the same. Set-up time is taken once per pass.

Untraced (`--trace 0`), only a timer around the pipeline call is installed.
It runs the host speed probe (`hostspeed.py`) before each query, outside the
query's time, and the end-to-end timings are scaled to reference host speed.
Traced (`--trace 1`), each chunk runs untraced and then traced, the traced
pass records spans at every layer boundary, and the ratio of the two passes'
throughput is the tracing overhead. The spans are written to
`_spans/<workload>.jsonl` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from gentrieval import evaluation  # noqa: E402
from gentrieval.corpus import load_corpus, load_queries  # noqa: E402
from gentrieval.decode import RankedList  # noqa: E402
from gentrieval.docid import build_index  # noqa: E402
from gentrieval.lm import sequence_logprob  # noqa: E402
from gentrieval.reasoning import DEFAULT_PROMPTS, PromptRegistry  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import (BRANCHING, K, LEVELS, ROUND_BUDGET, SMOKE_SIZE,  # noqa: E402
                       WORKLOADS, Workload, input_properties, make_inputs)

PIPELINES = ("run_standard", "run_r4r")
SPANS_DIR = pathlib.Path(__file__).resolve().parent / "_spans"


class Pass:
    """Timings and captured outputs of one pass.

    `probes` holds the probe times: one before set-up, one before each
    query and one after `run_experiment` returns, so every timed interval
    has a probe on either side of it.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.probes = [hostspeed.probe()]
        self.start = perf_counter()
        self.setup_s: float | None = None
        self.first_query: float | None = None
        self.last_end: float | None = None
        self.query_s: list[float] = []
        self.gap_s: list[float] = []  # runner's own time between queries
        self.outputs: list[tuple] = []   # (query, args, result)
        self.report: dict | None = None
        self.index = None
        self.quality: list[tuple[int, float]] = []
        self.rounds: list[tuple[int, str]] = []   # r4r (rounds used, reason)

    def release(self) -> None:
        """Keep what the metrics need; drop the index, models and outputs
        so that peak memory does not grow with the number of passes."""
        self.quality = per_query_quality(self)
        self.rounds = [(r.rounds_used, r.reason) for _, _, r in self.outputs
                       if not isinstance(r, RankedList)]
        self.outputs, self.index, self.report = [], None, None

    def timer(self, fn, rec: tracing.Recorder | None):
        """The per-query timer around a pipeline function."""
        span = rec.span if rec is not None else (lambda name: nullcontext())

        def pipeline(q, *args, **kwargs):
            if self.last_end is None:
                self.setup_s = perf_counter() - self.start
            else:
                self.gap_s.append(perf_counter() - self.last_end)
            with span("host.probe"):
                self.probes.append(hostspeed.probe())
            start = perf_counter()
            if self.first_query is None:
                self.first_query = start
            if rec is not None:
                rec.query = q.query_id
            try:
                result = fn(q, *args, **kwargs)
            finally:
                self.last_end = perf_counter()
                if rec is not None:
                    rec.query = None
            self.query_s.append(self.last_end - start)
            self.outputs.append((q, args, result))
            return result
        return pipeline

    def scaled_setup_s(self) -> float:
        return hostspeed.scaled(self.setup_s, *self.probes[:2])

    def scaled_query_s(self) -> list[float]:
        return [hostspeed.scaled(s, *self.probes[i + 1:i + 3])
                for i, s in enumerate(self.query_s)]

    def scaled_window_s(self) -> float:
        """From the first query's start to the last one's end, without the
        probes: each query and the runner's time after it, scaled."""
        work = [s + g for s, g in zip(self.query_s, self.gap_s + [0.0])]
        return sum(hostspeed.scaled(w, *self.probes[i + 1:i + 3])
                   for i, w in enumerate(work))


def run_pass(wl: Workload, inputs: dict, chunk: int, seed: int,
             rec: tracing.Recorder | None) -> Pass:
    p = Pass(traced=rec is not None)
    span = rec.span if rec is not None else (lambda name: nullcontext())
    originals = {name: getattr(evaluation, name) for name in PIPELINES}
    for name, fn in originals.items():
        traced = (rec.wrap(fn, "orchestrator." + name) if rec is not None
                  else fn)
        setattr(evaluation, name, p.timer(traced, rec))
    if rec is not None:
        tracing.instrument(rec)
    index_path = inputs["work"] / "index.json"
    try:
        with span("docid.build"):
            p.index = index = build_index(
                load_corpus(inputs["corpus"]), levels=LEVELS,
                branching=BRANCHING, seed=seed,
                extra_vocab_texts=list(DEFAULT_PROMPTS.values()))
        with span("docid.save"):
            index.save(index_path)
        cfg = evaluation.ExperimentConfig(
            corpus_path=str(inputs["corpus"]),
            queries_path=str(inputs["chunks"][chunk]),
            index_path=str(index_path), strategy=wl.strategy,
            pipeline=wl.pipeline, k=K, round_budget=ROUND_BUDGET,
            hits_ks=(1,), mrr_ks=(10,),
            ngram_train_queries_path=str(inputs["queries"]),
            reason_model_path=(str(inputs["reasoner"])
                               if inputs["reasoner"] else None),
            seed=seed, jobs=1)
        with span("evaluation.run_experiment"):
            p.report = evaluation.run_experiment(cfg)
        p.probes.append(hostspeed.probe())
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        if rec is not None:
            rec.unpatch()
        for name, fn in originals.items():
            setattr(evaluation, name, fn)
    return p


def ranked_of(result) -> RankedList:
    return result if isinstance(result, RankedList) else result.ranked


def check_pass(wl: Workload, p: Pass, chunk_size: int) -> list[str]:
    """Correctness checks on one pass's outputs; returns failure messages."""
    errors: list[str] = []
    if p.report is None:
        return errors  # a failed pass is counted in `failed`, not here
    records = set(p.index.records)
    prompt = PromptRegistry.default().render("P_r") + "\nQuery: "
    for q, args, result in p.outputs:
        ranked = ranked_of(result)
        keys = ranked.doc_keys()
        scores = [c.score for c in ranked]
        if any(c.record not in records for c in ranked):
            errors.append(f"{q.query_id}: candidate is not a record of the index")
        if len(set(keys)) != len(keys):
            errors.append(f"{q.query_id}: doc_key repeated in ranked list")
        if len(ranked) > K or scores != sorted(scores, reverse=True):
            errors.append(f"{q.query_id}: list longer than k or not sorted")
        if wl.exact_check and len(ranked):
            # run_standard decodes from the retrieval prompt and the query,
            # the same prompt the n-gram retriever is trained on.
            model, index = args[0], args[2]
            top = ranked[0]
            expect = sequence_logprob(
                model, index.vocab.encode(prompt + q.text, on_unknown="skip"),
                list(top.record.tokens))
            if expect != top.score:
                errors.append(f"{q.query_id}: top score {top.score!r} != "
                              f"sequence_logprob {expect!r}")
    quality = per_query_quality(p)
    hits = sum(h for h, _ in quality)
    rr = sum(r for _, r in quality)
    n = len(p.outputs)
    row = p.report["rows"][0]
    if n != chunk_size:
        errors.append(f"report covers {n} queries, chunk has {chunk_size}")
    elif hits / n != row["hits"]["1"] or rr / n != row["mrr"]["10"]:
        errors.append(f"recomputed hits@1={hits / n} mrr@10={rr / n} differ "
                      f"from the report's {row['hits']['1']} / {row['mrr']['10']}")
    return errors


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, so never beyond the data)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_query_quality(p: Pass) -> list[tuple[int, float]]:
    """(hit@1, reciprocal rank within the top 10) per query, recomputed
    from the captured ranked lists."""
    out = []
    for q, _, result in p.outputs:
        keys = ranked_of(result).doc_keys()
        rank = next((i for i, key in enumerate(keys[:10], start=1)
                     if key in q.relevant_keys), None)
        out.append((int(rank == 1), 1.0 / rank if rank else 0.0))
    return out


def layer_metrics(rec: tracing.Recorder, traced: list[Pass],
                  setups: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics from the traced passes' spans and counters; see
    README.md for each definition."""
    calls, total, self_s = tracing.summarize(rec.spans)
    c = rec.counts
    nq = sum(len(p.query_s) for p in traced) or 1

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "docid.build_s": statistics.median(setups["docid.build"]),
        "docid.load_s": statistics.median(setups["docid.load"]),
        "constraint.build_s": statistics.median(setups["constraint.build"]),
        "lm.train_s": statistics.median(setups["lm.train"]),
    }
    for layer in ("constraint.allowed", "constraint.complete",
                  "constraint.step", "fm_index.followers", "decode.search",
                  "lm.dist", "lm.generate", "reasoning.think",
                  "reasoning.verify", "reasoning.reflect"):
        m[layer + ".calls"] = calls[layer] / nq
        m[layer + ".ms"] = 1000 * total[layer] / nq
    m["constraint.allowed.mean_size"] = ratio(c["allowed.size"],
                                              c["allowed.in_search"])
    m["decode.self_ms"] = 1000 * self_s["decode.search"] / nq
    m["decode.step_survival"] = ratio(c["step.survived"], c["step.in_search"])
    m["decode.finished_mean"] = ratio(c["complete.in_search"],
                                      calls["decode.search"])
    m["decode.rank_ms"] = 1000 * total["decode.rank"] / nq
    m["lm.dist.useful_ratio"] = ratio(c["allowed.size"] + c["allowed.in_search"],
                                      c["dist.entries"])
    m["lm.dist.ctx_tokens"] = ratio(c["dist.ctx_tokens"], c["dist.in_search"])
    ops = sum(calls[f"reasoning.{op}"] for op in ("think", "verify", "reflect"))
    m["reasoning.retry_ratio"] = ratio(
        tracing.generations_in(rec.spans, "reasoning.") - ops, ops)
    m["orchestrator.self_ms"] = 1000 * sum(
        self_s["orchestrator." + name] for name in PIPELINES) / nq
    m["evaluation.self_ms"] = 1000 * self_s["evaluation.run_experiment"] / nq
    return m


def r4r_outcomes(passes: list[Pass]) -> dict:
    """Histogram of rounds per query and the share of each termination."""
    rounds: dict[int, int] = {}
    reasons: dict[str, int] = dict.fromkeys(
        ("all_relevant", "budget_exhausted", "parse_failure"), 0)
    for p in passes:
        for used, reason in p.rounds:
            rounds[used] = rounds.get(used, 0) + 1
            reasons[reason] += 1
    n = sum(rounds.values())
    return {"rounds_hist": {str(k): rounds[k] for k in sorted(rounds)},
            "rounds_mean": (sum(k * v for k, v in rounds.items()) / n
                            if n else 0.0),
            "termination": {k: (v / n if n else 0.0)
                            for k, v in reasons.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--work", required=True, help="scratch directory")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = Workload(**{**wl.__dict__, **SMOKE_SIZE})
    work = pathlib.Path(args.work)
    inputs = make_inputs(ROOT, work, wl, args.seed)
    inputs["work"] = work
    chunk_sizes = [len(load_queries(path)) for path in inputs["chunks"]]
    traced_mode = bool(args.trace)
    rec = tracing.Recorder() if traced_mode else None

    query_texts = [q.text for q in load_queries(inputs["queries"])]
    props = None
    passes: list[Pass] = []
    first_cycle: list[Pass] = []
    errors: list[str] = []
    failed = planned = 0
    setups: dict[str, list[float]] = {k: [] for k in (
        "docid.build", "docid.load", "constraint.build", "lm.train")}
    started = perf_counter()
    cycles = 0
    # Whole cycles only, so that every query weighs the same in a run; stop
    # before a cycle of average length would overrun --seconds.
    while cycles == 0 or (perf_counter() - started) * (cycles + 1) / cycles \
            <= args.seconds:
        for chunk, size in enumerate(chunk_sizes):
            for traced in ((False, True) if traced_mode else (False,)):
                first = len(rec.spans) if traced else 0
                p = run_pass(wl, inputs, chunk, args.seed,
                             rec if traced else None)
                passes.append(p)
                errors += check_pass(wl, p, size)
                planned += size
                failed += size - len(p.outputs)
                if props is None and p.index is not None:
                    props = input_properties(p.index, wl.docs, query_texts)
                p.release()
                if cycles == 0 and traced == traced_mode:
                    first_cycle.append(p)
                if traced:
                    _, total, _ = tracing.summarize(rec.spans, first)
                    for name in setups:
                        setups[name].append(total[name])
        cycles += 1

    ran = [p for p in passes if p.first_query is not None]
    timed = [p for p in ran if not p.traced]
    query_ms = [1000 * s for p in timed for s in p.scaled_query_s()]
    if not query_ms:
        print("no query completed", file=sys.stderr)
        return 1
    qps = len(query_ms) / sum(p.scaled_window_s() for p in timed)
    quality = [x for p in first_cycle for x in p.quality]
    e2e = {
        "setup_s": statistics.median(p.scaled_setup_s() for p in timed),
        "qps": qps,
        "query_ms.p50": statistics.median(query_ms),
        "query_ms.p90": quantile(query_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_ms = [1000 * s for p in timed for s in p.query_s]
    extra = {
        "raw": {"setup_s": statistics.median(p.setup_s for p in timed),
                "qps": len(raw_ms) / sum(sum(p.query_s) + sum(p.gap_s)
                                         for p in timed),
                "query_ms.p50": statistics.median(raw_ms),
                "query_ms.p90": quantile(raw_ms, 90),
                "probe_ms.p50": 1000 * statistics.median(
                    x for p in timed for x in p.probes)},
        "hits_at_1": sum(h for h, _ in quality) / max(len(quality), 1),
        "mrr_at_10": sum(r for _, r in quality) / max(len(quality), 1),
        "failed_frac": failed / planned,
        "query_samples": len(query_ms),
        "passes": len(timed),
    }
    if wl.pipeline == "r4r":
        props["reasoner_classes"] = inputs["reasoner_classes"]
        props.update(r4r_outcomes(first_cycle))

    if traced_mode:
        traced_passes = [p for p in ran if p.traced]
        layer = layer_metrics(rec, traced_passes, setups)
        tq = sum(len(p.query_s) for p in traced_passes)
        tw = sum(p.scaled_window_s() for p in traced_passes)
        layer["trace.qps_ratio"] = (tq / tw) / qps
        layer["evaluation.hits_at_1"] = extra["hits_at_1"]
        layer["evaluation.mrr_at_10"] = extra["mrr_at_10"]
        layer["evaluation.failed_frac"] = extra["failed_frac"]
        layer["orchestrator.rounds_mean"] = props.get("rounds_mean", 0.0)
        for reason in ("all_relevant", "budget_exhausted", "parse_failure"):
            layer[f"orchestrator.term.{reason}"] = props.get(
                "termination", {}).get(reason, 0.0)
        metrics = layer
        SPANS_DIR.mkdir(exist_ok=True)
        rec.write(SPANS_DIR / f"{wl.name}.jsonl")
    else:
        metrics = e2e
    result = {"correct": not errors, "attempted": planned, "failed": failed,
              "metrics": metrics}
    for msg in errors[:20]:
        print("check failed: " + msg, file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "inputs": props, "untraced": {**e2e, **extra}}))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
