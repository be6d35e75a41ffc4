import json
import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from gentrieval.corpus import (END, Corpus, Document, Query, load_corpus,
                               load_queries)
from gentrieval.decode import Candidate, RankedList
from gentrieval.docid import DocIdRecord, build_index
from gentrieval import evaluation
from gentrieval.errors import ConfigError, EmptyRuns, NotSupported
from gentrieval.evaluation import (ExperimentConfig, hits_at_k,
                                   make_retrieve_model, mrr_at_k,
                                   nll_losses, run_experiment,
                                   termination_stats)
from gentrieval.lm import NgramModel, ScriptedModel
from gentrieval.orchestrator import REASONS
from gentrieval.reasoning import DEFAULT_PROMPTS, PromptRegistry

from conftest import (TOY_DIST_RULES, TOY_EXTRA_WORDS, TOY_SURFACES,
                      assert_same_model, make_index, ref_train_pair)


def ranked(*keys):
    return RankedList([
        Candidate(DocIdRecord(k, (END,), k, "path"), -float(i))
        for i, k in enumerate(keys)])


THREE_RUNS = [
    (ranked("a", "b", "c"), frozenset({"a"})),   # relevant at rank 1
    (ranked("x", "gold", "y"), frozenset({"gold"})),  # rank 2
    (ranked("p", "q", "r"), frozenset({"missing"})),  # never retrieved
]


class TestMetrics:
    def test_hits_by_hand(self):
        assert hits_at_k(THREE_RUNS, 1) == pytest.approx(1 / 3)
        assert hits_at_k(THREE_RUNS, 2) == pytest.approx(2 / 3)
        assert hits_at_k(THREE_RUNS, 3) == pytest.approx(2 / 3)

    def test_mrr_by_hand(self):
        assert mrr_at_k(THREE_RUNS, 1) == pytest.approx(1 / 3)
        assert mrr_at_k(THREE_RUNS, 2) == pytest.approx((1 + 0.5) / 3)
        assert mrr_at_k(THREE_RUNS, 10) == pytest.approx((1 + 0.5) / 3)

    def test_perfect_and_zero(self):
        perfect = [(ranked("a"), frozenset({"a"}))]
        assert hits_at_k(perfect, 1) == 1.0
        assert mrr_at_k(perfect, 1) == 1.0
        zero = [(ranked("a"), frozenset({"b"}))]
        assert hits_at_k(zero, 5) == 0.0
        assert mrr_at_k(zero, 5) == 0.0

    def test_empty_runs(self):
        with pytest.raises(EmptyRuns):
            hits_at_k([], 1)
        with pytest.raises(EmptyRuns):
            mrr_at_k([], 1)

    def test_bad_k(self):
        with pytest.raises(ConfigError, match=r"^hits@k needs k >= 1, got 0$"):
            hits_at_k(THREE_RUNS, 0)
        with pytest.raises(ConfigError, match=r"^mrr@k needs k >= 1, got -1$"):
            mrr_at_k(THREE_RUNS, -1)

    @st.composite
    def runs(draw):
        n = draw(st.integers(min_value=1, max_value=8))
        out = []
        for _ in range(n):
            keys = draw(st.permutations([f"d{i}" for i in range(6)]))
            rel = draw(st.sets(st.sampled_from([f"d{i}" for i in range(8)]),
                               max_size=3))
            out.append((ranked(*keys), frozenset(rel)))
        return out

    @given(runs(), st.integers(min_value=1, max_value=6))
    def test_hits_monotone_in_k(self, rs, k):
        assert hits_at_k(rs, k) <= hits_at_k(rs, k + 1) + 1e-12

    @given(runs(), st.integers(min_value=1, max_value=7))
    def test_mrr_bounded_by_hits(self, rs, k):
        assert mrr_at_k(rs, k) <= hits_at_k(rs, k) + 1e-12
        assert 0.0 <= mrr_at_k(rs, k) <= 1.0


def toy_nll_setup():
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
    model = ScriptedModel(index.vocab, dist_rules=TOY_DIST_RULES)
    return index, model


class TestNll:
    def test_retrieval_loss_by_hand(self):
        # P(food-apple) under the fallback branch = 0.7 * 0.6 * 1.0 = 0.42.
        index, model = toy_nll_setup()
        q = Query("q1", "which fruit", frozenset({"d1"}))
        report = nll_losses(model, Corpus([]), [(q, "d1")], index)
        assert report.indexing_loss == 0.0
        assert report.retrieval_loss == pytest.approx(-math.log(0.42))
        assert report.total == pytest.approx(0.8675, abs=1e-4)
        assert report.mode == "standard"

    def test_deterministic_model_zero_loss(self):
        index = make_index({"d1": "food-apple"})
        rules = [
            {"context": ["food"], "probs": {"apple": 1.0}},
            {"context": ["apple"], "probs": {"<end>": 1.0}},
            {"context": [], "probs": {"food": 1.0}},
        ]
        model = ScriptedModel(index.vocab, dist_rules=rules)
        # Document and query text sit outside the docid vocabulary, so the
        # skip-encoded prompt is empty and decoding starts at the [] rule.
        corpus = Corpus([Document("d1", "plain body text")])
        q = Query("q1", "anything", frozenset({"d1"}))
        report = nll_losses(model, corpus, [(q, "d1")], index)
        assert report.indexing_loss == pytest.approx(0.0, abs=1e-12)
        assert report.retrieval_loss == pytest.approx(0.0, abs=1e-12)

    def test_instruction_mode_changes_conditioning(self):
        # A rule keyed on ("query", <word>) only fires when the instruction
        # text (whose sole in-vocabulary word is "query") is prepended.
        index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
        rules = [{"context": ["query", "fruit"],
                  "probs": {"food": 0.9, "tech": 0.1}}] + TOY_DIST_RULES
        model = ScriptedModel(index.vocab, dist_rules=rules)
        q = Query("q1", "fruit", frozenset({"d1"}))
        std = nll_losses(model, Corpus([]), [(q, "d1")], index, mode="standard")
        ins = nll_losses(model, Corpus([]), [(q, "d1")], index,
                         mode="instruction")
        assert std.retrieval_loss == pytest.approx(-math.log(0.7 * 0.6))
        assert ins.retrieval_loss == pytest.approx(-math.log(0.9 * 0.6))
        assert ins.mode == "instruction"

    def test_training_reduces_loss(self):
        index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
        q = Query("q1", "which fruit calories", frozenset({"d1"}))
        untrained = NgramModel(index.vocab)
        before = nll_losses(untrained, Corpus([]), [(q, "d1")], index)
        trained = NgramModel(index.vocab)
        prompt = index.vocab.encode(
            DEFAULT_PROMPTS["P_r"] + "\nQuery: " + q.text, on_unknown="skip")
        target = list(index.by_doc["d1"][0].tokens)
        for _ in range(5):
            trained.train_pair(prompt, target)
        after = nll_losses(trained, Corpus([]), [(q, "d1")], index)
        assert after.retrieval_loss < before.retrieval_loss

    def test_requires_local_model(self):
        index, _ = toy_nll_setup()
        q = Query("q1", "which fruit", frozenset({"d1"}))

        class GenOnly:
            def generate(self, prompt, max_tokens):
                return ""

        with pytest.raises(NotSupported):
            nll_losses(GenOnly(), Corpus([]), [(q, "d1")], index)

    def test_unknown_mode(self):
        index, model = toy_nll_setup()
        with pytest.raises(ConfigError):
            nll_losses(model, Corpus([]), [], index, mode="weird")

    def test_missing_path_record(self):
        index, model = toy_nll_setup()
        q = Query("q1", "x", frozenset())
        with pytest.raises(ConfigError):
            nll_losses(model, Corpus([]), [(q, "nope")], index)


class TestTerminationStats:
    def test_fractions(self):
        traces = [{"reason": "all_relevant"}, {"reason": "all_relevant"},
                  {"reason": "budget_exhausted"}, {"reason": "parse_failure"}]
        stats = termination_stats(traces)
        assert stats == {"all_relevant": 0.5, "budget_exhausted": 0.25,
                         "parse_failure": 0.25}
        assert sum(stats.values()) == pytest.approx(1.0)

    def test_two_records(self):
        stats = termination_stats([{"reason": "all_relevant"},
                                   {"reason": "parse_failure"}])
        assert stats["all_relevant"] == 0.5

    @pytest.mark.parametrize("trace", ["all_relevant", ["all_relevant"], 5])
    def test_non_record_refused(self, trace):
        with pytest.raises(ConfigError, match="trace record is not an object"):
            termination_stats([{"reason": "all_relevant"}, trace])

    def test_unknown_reason(self):
        with pytest.raises(ConfigError):
            termination_stats([{"reason": "gave_up"}])

    def test_empty(self):
        with pytest.raises(EmptyRuns):
            termination_stats([])

    def test_keys_are_the_reasons_in_order(self):
        assert tuple(termination_stats([{"reason": "parse_failure"}])) == \
            REASONS


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture
def experiment_files(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, [
        {"id": "d1", "text": "food apple calories fruit"},
        {"id": "d2", "text": "tech apple company details"},
        {"id": "d3", "text": "food banana fruit"},
    ])
    queries_path = tmp_path / "queries.jsonl"
    write_jsonl(queries_path, [
        {"qid": "q1", "text": "which fruit calories", "relevant": ["d1"]},
        {"qid": "q2", "text": "company details", "relevant": ["d2"]},
    ])
    index_path = tmp_path / "index.json"
    make_index(TOY_SURFACES, TOY_EXTRA_WORDS).save(index_path)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"distributions": TOY_DIST_RULES}))
    reason_path = tmp_path / "reason.json"
    reason_path.write_text(json.dumps([
        {"match": "Candidate identifier: ", "response": "relevant"},
    ]))
    return {"corpus_path": str(corpus_path),
            "queries_path": str(queries_path),
            "index_path": str(index_path),
            "scripted_model_path": str(model_path),
            "reason_model_path": str(reason_path)}


class TestMakeRetrieveModel:
    @pytest.mark.parametrize("p_r", [None, "Rank the documen"])
    def test_matches_pair_by_pair_on_toy_data(self, tmp_path, p_r):
        # The toy queries, plus one with two relevant documents and one
        # whose document is not in the corpus; under a P_r override that
        # ends mid-word, or the default.
        script = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
                  / "make_toy_data.py")
        subprocess.run([sys.executable, str(script), "--out", str(tmp_path),
                        "--docs", "40", "--queries", "30", "--seed", "0"],
                       check=True, capture_output=True)
        queries_path = tmp_path / "queries.jsonl"
        with open(queries_path, "a", encoding="utf-8") as fh:
            for row in ({"qid": "two", "text": "topic001 topic002 plugh",
                         "relevant": ["d002", "d001"]},
                        {"qid": "gone", "text": "topic003",
                         "relevant": ["d999"]}):
                fh.write(json.dumps(row) + "\n")
        index = build_index(load_corpus(tmp_path / "corpus.jsonl"),
                            levels=1, branching=8,
                            extra_vocab_texts=list(DEFAULT_PROMPTS.values()))
        reg = PromptRegistry.default()
        if p_r is not None:
            prompts = tmp_path / "prompts.json"
            prompts.write_text(json.dumps({"P_r": p_r}))
            reg = PromptRegistry.load(str(prompts))
        model = make_retrieve_model(index, reg, None, str(queries_path))
        ref = NgramModel(index.vocab)
        for q in load_queries(queries_path):
            prompt = index.vocab.encode(
                reg.render("P_r") + "\nQuery: " + q.text, on_unknown="skip")
            for doc_key in sorted(q.relevant_keys):
                recs = [r for r in index.by_doc.get(doc_key, [])
                        if r.view == "path"]
                if recs:
                    ref_train_pair(ref, prompt, list(recs[0].tokens))
        assert ref.counts
        assert_same_model(model, ref)


class TestRunExperiment:
    def test_standard_metrics(self, experiment_files, tmp_path):
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            scripted_model_path=experiment_files["scripted_model_path"],
            pipeline="standard", k=3, hits_ks=(1, 3), mrr_ks=(3,),
            report_path=str(tmp_path / "report.json"))
        report = run_experiment(cfg)
        row = report["rows"][0]
        # q1 ends in "calories" -> food-apple first; q2 ends in "details"
        # -> tech-apple first. Both gold docs at rank 1.
        assert row["hits"]["1"] == 1.0
        assert row["mrr"]["3"] == 1.0
        assert row["n_queries"] == 2
        assert row["mean_latency_ms"] == 0.0

    def test_r4r_sweep_rows(self, experiment_files, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            scripted_model_path=experiment_files["scripted_model_path"],
            reason_model_path=experiment_files["reason_model_path"],
            pipeline="r4r", k=3, hits_ks=(1,), mrr_ks=(3,),
            t_sweep=(1, 2), T_sweep=(1, 3),
            trace_path=str(trace_path))
        report = run_experiment(cfg)
        assert [(r["t"], r["T"]) for r in report["rows"]] == [
            (1, 1), (1, 3), (2, 1), (2, 3)]
        for row in report["rows"]:
            assert row["termination"]["all_relevant"] == 1.0
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 4 * 2  # one trace per query per sweep cell
        first = json.loads(lines[0])
        assert first["qid"] == "q1"
        assert first["rounds"] == 1
        assert all(rt["ms"] == 0.0 for rt in first["rounds_detail"])

    @pytest.mark.parametrize("separate", [False, True])
    def test_trace_line_format(self, experiment_files, tmp_path, separate):
        # Without a reason model the retrieval model reasons too.
        trace_path = tmp_path / "trace.jsonl"
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            scripted_model_path=experiment_files["scripted_model_path"],
            reason_model_path=(experiment_files["reason_model_path"]
                               if separate else None),
            pipeline="r4r", k=3, trace_path=str(trace_path))
        run_experiment(cfg)
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        assert [r["qid"] for r in records] == ["q1", "q2"]
        for rec in records:
            assert list(rec) == ["qid", "reason", "rounds", "shared_model",
                                 "rounds_detail"]
            assert rec["shared_model"] is not separate
            assert len(rec["rounds_detail"]) == rec["rounds"] >= 1
            for rnd in rec["rounds_detail"]:
                assert list(rnd) == ["c", "e", "topk", "judgments", "j_hat",
                                     "ms"]

    @pytest.mark.parametrize("pipeline", ["standard", "direct_cot"])
    @pytest.mark.parametrize("field, value", [
        ("ablation", frozenset({"no_context"})), ("t_sweep", (1, 2)),
        ("T_sweep", (3,))])
    def test_r4r_settings_refused_on_other_pipelines(self, tmp_path,
                                                     pipeline, field, value):
        missing = str(tmp_path / "missing")
        cfg = ExperimentConfig(
            corpus_path=missing, queries_path=missing, index_path=missing,
            ngram_train_queries_path=missing, pipeline=pipeline,
            report_path=str(tmp_path / "report.json"), **{field: value})
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == (f"{field} applies only to the r4r "
                                  f"pipeline, not {pipeline!r}")
        assert list(tmp_path.iterdir()) == []

    def test_rerun_byte_identical(self, experiment_files, tmp_path):
        def go(tag):
            cfg = ExperimentConfig(
                corpus_path=experiment_files["corpus_path"],
                queries_path=experiment_files["queries_path"],
                index_path=experiment_files["index_path"],
                scripted_model_path=experiment_files["scripted_model_path"],
                reason_model_path=experiment_files["reason_model_path"],
                pipeline="r4r", k=3, hits_ks=(1,), mrr_ks=(3,),
                report_path=str(tmp_path / f"report-{tag}.json"),
                trace_path=str(tmp_path / f"trace-{tag}.jsonl"))
            run_experiment(cfg)
            return ((tmp_path / f"report-{tag}.json").read_bytes(),
                    (tmp_path / f"trace-{tag}.jsonl").read_bytes())

        assert go("a") == go("b")

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_refused(self, experiment_files, jobs,
                                         monkeypatch):
        decoded = []
        monkeypatch.setattr(evaluation, "run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            scripted_model_path=experiment_files["scripted_model_path"],
            jobs=jobs)
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(cfg)
        assert decoded == []

    def test_no_model_configured(self, experiment_files):
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"])
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_unknown_ablation_fails_before_any_file_is_read(self, tmp_path):
        missing = str(tmp_path / "missing")
        cfg = ExperimentConfig(
            corpus_path=missing, queries_path=missing, index_path=missing,
            ngram_train_queries_path=missing, pipeline="r4r",
            t_sweep=(1, 2), ablation=frozenset({"no_contxt"}),
            report_path=str(tmp_path / "report.json"))
        with pytest.raises(ConfigError,
                           match="^unknown ablation flags: no_contxt$"):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_pipeline(self, experiment_files):
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            scripted_model_path=experiment_files["scripted_model_path"],
            pipeline="mystery")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("pipeline", "mystery", "unknown pipeline 'mystery'"),
        ("strategy", "tri", "unknown strategy 'tri'"),
        ("k", 0, "k must be >= 1, got 0"),
        ("k", -3, "k must be >= 1, got -3"),
        ("hits_ks", (0,), "hits_ks must be >= 1, got 0"),
        ("hits_ks", (1, 5, -1), "hits_ks must be >= 1, got -1"),
        ("mrr_ks", (0,), "mrr_ks must be >= 1, got 0"),
        ("mrr_ks", (10, 0), "mrr_ks must be >= 1, got 0")])
    def test_unknown_name_fails_before_any_load(self, experiment_files,
                                                monkeypatch, field, value,
                                                message):
        calls = []

        def never(name):
            def called(*args, **kwargs):
                calls.append(name)
            return called

        for name in ("load_corpus", "load_queries", "make_retrieve_model",
                     "build_automaton", "run_pipeline"):
            monkeypatch.setattr(evaluation, name, never(name))
        monkeypatch.setattr(evaluation.DocIdIndex, "load", never("load"))
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            ngram_train_queries_path=experiment_files["queries_path"],
            **{field: value})
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == message
        assert calls == []

    def test_ngram_pipeline_learns_training_queries(self, experiment_files,
                                                    tmp_path):
        cfg = ExperimentConfig(
            corpus_path=experiment_files["corpus_path"],
            queries_path=experiment_files["queries_path"],
            index_path=experiment_files["index_path"],
            ngram_train_queries_path=experiment_files["queries_path"],
            pipeline="standard", k=3, hits_ks=(1,), mrr_ks=(3,))
        report = run_experiment(cfg)
        assert report["rows"][0]["hits"]["1"] == 1.0
