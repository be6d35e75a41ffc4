"""The benchmark's own tests: smoke-mode schema and correctness, the span
recorder's self time, the host speed scaling and the reasoner's termination
mix.

    python3 -m pytest -q perfbench/test_perfbench.py

No timing bounds: the smoke sizes say nothing about performance.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import REASONER_CLASSES, WORKLOADS, reasoner_rules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_smoke_reports_every_metric_with_its_unit(trace, kind):
    proc = _run("--workload", "all", "--smoke", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}/{m['name']}": m["unit"]
                for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if kind == "end_to_end":
            assert m["value"] > 0, name
    if kind == "per_layer":
        # The reasoner must make every termination reason occur.
        for reason in ("all_relevant", "budget_exhausted", "parse_failure"):
            key = f"r4r-termset-400/orchestrator.term.{reason}"
            assert result["metrics"][key]["value"] > 0, key


def test_single_workload_prints_its_result_line():
    proc = _run("--workload", "standard-trie-2k", "--smoke", "--seconds",
                "0", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])


def test_spec_names_the_workloads_in_workloads_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_self_time_subtracts_children():
    rec = tracing.Recorder()
    rec.spans = [["outer", 0.0, 10.0, -1, "q"],
                 ["inner", 1.0, 4.0, 0, "q"],
                 ["inner", 5.0, 6.0, 0, "q"],
                 ["leaf", 2.0, 3.0, 1, "q"]]
    calls, total, self_s = tracing.summarize(rec.spans)
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert total["inner"] == 4.0
    assert self_s["outer"] == 6.0
    assert self_s["inner"] == 3.0
    _, total, self_s = tracing.summarize(rec.spans, first=1)
    assert "outer" not in total and self_s["inner"] == 3.0


def test_wrap_records_parent_and_query_and_restores_on_unpatch():
    class Thing:
        def work(self, x):
            return x + 1

    rec = tracing.Recorder()
    rec.patch(Thing, "work", "thing.work")
    rec.query = "q7"
    with rec.span("outer"):
        assert Thing().work(1) == 2
    rec.unpatch()
    assert Thing().work(1) == 2 and len(rec.spans) == 2
    name, start, end, parent, query = rec.spans[1]
    assert (name, parent, query) == ("thing.work", 0, "q7")
    assert start <= end


def test_timings_are_scaled_by_the_probes_on_either_side():
    import harness
    import hostspeed

    ref = hostspeed.REFERENCE_S
    p = harness.Pass(traced=False)
    # Probes before set-up, before each of two queries, after the last.
    p.probes = [ref, 3 * ref, ref, 2 * ref]
    p.setup_s, p.query_s, p.gap_s = 1.0, [0.4, 0.3], [0.1]
    assert p.scaled_setup_s() == pytest.approx(0.5)
    assert p.scaled_query_s() == pytest.approx([0.2, 0.2])
    # The runner's time after query 0 is scaled with query 0.
    assert p.scaled_window_s() == pytest.approx((0.4 + 0.1) / 2 + 0.3 / 1.5)


def test_reasoner_classes_have_exact_shares():
    texts = [f"topic{i:03d} memo" for i in range(100)]
    rules, counts = reasoner_rules(texts, seed=5)
    assert counts == {name: round(share * 100)
                      for name, share in REASONER_CLASSES}
    assert rules == reasoner_rules(texts, seed=5)[0]
    assert rules != reasoner_rules(texts, seed=6)[0]


def test_traced_smoke_writes_its_spans():
    proc = _run("--workload", "r4r-termset-400", "--smoke", "--seconds", "0",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = (HERE / "_spans" / "r4r-termset-400.jsonl").read_text(
        encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    assert {"name", "start", "end", "parent", "query"} == set(spans[0])
    names = {s["name"] for s in spans}
    assert {"decode.search", "constraint.step", "lm.dist", "reasoning.think",
            "orchestrator.run_r4r", "evaluation.run_experiment"} <= names
    queried = [s for s in spans if s["name"] == "decode.search"]
    assert all(s["query"] is not None for s in queried)


def test_checks_flag_broken_outputs(tmp_path):
    import dataclasses

    import harness
    from workloads import SMOKE_SIZE, Workload, make_inputs

    wl = Workload(**{**WORKLOADS["standard-trie-2k"].__dict__, **SMOKE_SIZE})
    inputs = make_inputs(ROOT, tmp_path, wl, seed=1)
    inputs["work"] = tmp_path
    p = harness.run_pass(wl, inputs, 0, 1, None)
    assert len(p.outputs) == SMOKE_SIZE["chunk"]
    assert harness.check_pass(wl, p, SMOKE_SIZE["chunk"]) == []

    ranked = p.outputs[0][2]
    top = ranked.candidates[0]
    ranked.candidates[0] = dataclasses.replace(top, score=top.score - 1e-9)
    errors = harness.check_pass(wl, p, SMOKE_SIZE["chunk"])
    assert any("sequence_logprob" in e for e in errors)

    ranked.candidates[0] = top
    ranked.candidates.append(ranked.candidates[-1])
    errors = harness.check_pass(wl, p, SMOKE_SIZE["chunk"])
    assert any("repeated" in e for e in errors)
