import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import shlex
import socket
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gentrieval import cli, evaluation, lm
from gentrieval.cli import build_parser, main
from gentrieval.docid import DocIdIndex
from gentrieval.errors import ConfigError
from gentrieval.evaluation import ExperimentConfig
from gentrieval.lm import ScriptedModel
from gentrieval.orchestrator import PIPELINES

from conftest import (PARSER_LIMITS, TOY_DIST_RULES, TOY_EXTRA_WORDS,
                      TOY_SURFACES, GenerateHandler, make_index)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _refuse(*args, **kw):
    raise ConfigError("decoding refused")


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [
        {"id": "d1", "text": "food apple calories fruit"},
        {"id": "d2", "text": "tech apple company details"},
        {"id": "d3", "text": "food banana fruit"},
    ])
    queries = tmp_path / "queries.jsonl"
    write_jsonl(queries, [
        {"qid": "q1", "text": "which fruit calories", "relevant": ["d1"]},
        {"qid": "q2", "text": "company details", "relevant": ["d2"]},
    ])
    index = tmp_path / "index.json"
    make_index(TOY_SURFACES, TOY_EXTRA_WORDS).save(index)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "generate": [{"match": "Candidate identifier: ",
                      "response": "relevant"}],
        "distributions": TOY_DIST_RULES,
    }))
    return {"dir": tmp_path, "corpus": str(corpus), "queries": str(queries),
            "index": str(index), "model": str(model)}


class TestBuildIndex:
    def test_builds_and_reports(self, workspace, capsys):
        out = workspace["dir"] / "built.json"
        rc = main(["build-index", "--corpus", workspace["corpus"],
                   "--out", str(out), "--levels", "1", "--branching", "3"])
        assert rc == 0
        assert "3 path docids" in capsys.readouterr().out
        index = DocIdIndex.load(out)
        assert set(index.by_doc) == {"d1", "d2", "d3"}

    def test_deterministic_output(self, workspace, capsys):
        outs = []
        for tag in ("a", "b"):
            out = workspace["dir"] / f"built-{tag}.json"
            main(["build-index", "--corpus", workspace["corpus"],
                  "--out", str(out), "--levels", "2", "--branching", "2"])
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_unknown_view_rejected(self, workspace, capsys, monkeypatch):
        # Refused before the corpus is read.
        loaded = []
        monkeypatch.setattr(cli, "load_corpus", loaded.append)
        out = workspace["dir"] / "x.json"
        rc = main(["build-index", "--corpus", workspace["corpus"],
                   "--out", str(out), "--views", "title,titel,hologram"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown views: hologram, titel"]
        assert loaded == []
        assert not out.exists()

    @pytest.mark.parametrize("out, error", [
        ("missing/index.json", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory")], ids=["missing-dir", "directory"])
    def test_unwritable_out_refused_before_corpus_is_read(
            self, workspace, capsys, monkeypatch, out, error):
        loaded = []
        monkeypatch.setattr(cli, "load_corpus", loaded.append)
        before = sorted(workspace["dir"].rglob("*"))
        out = str(workspace["dir"] / out)
        rc = main(["build-index", "--corpus", workspace["corpus"],
                   "--out", out])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {error}: {out!r}"]
        assert loaded == []
        assert sorted(workspace["dir"].rglob("*")) == before

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_out_naming_the_corpus_refused(self, workspace, capsys,
                                           monkeypatch, spelling):
        loaded = []
        monkeypatch.setattr(cli, "load_corpus", loaded.append)
        corpus = pathlib.Path(workspace["corpus"])
        before = corpus.read_bytes()
        out = {"same": corpus,
               "dot": workspace["dir"] / "." / corpus.name,
               "symlink": workspace["dir"] / "link.jsonl"}[spelling]
        if spelling == "symlink":
            out.symlink_to(corpus)
        rc = main(["build-index", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: corpus and index are one file: {out}"]
        assert loaded == []
        assert corpus.read_bytes() == before

    @pytest.mark.parametrize("rows, error", [
        ([{"id": "d1", "text": "apple"}, {"id": "a", "text": "!!!"}],
         "error: document 'a' has no words to embed"),
        ([], "error: cannot build an index over an empty corpus")])
    def test_unusable_corpus_is_1(self, tmp_path, capsys, rows, error):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out.json"
        write_jsonl(corpus, rows)
        rc = main(["build-index", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not out.exists()


def unknown_word_rules(workspace) -> str:
    """A rule file whose first distribution rule matches every context and
    whose second names a word the toy index lacks."""
    rules = workspace["dir"] / "unknown-word.json"
    rules.write_text(json.dumps({"distributions": [
        {"context": [], "probs": {"food": 1.0}},
        {"context": ["food"], "probs": {"plugh": 1.0}}]}))
    return str(rules)


class TestRetrieve:
    def test_output_format_and_ranking(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"],
                   "--query", "which fruit calories", "--k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        surface, score, doc = lines[0].split("\t")
        assert (surface, doc) == ("food-apple", "d1")
        assert float(score) == pytest.approx(math.log(0.9 * 0.6), abs=1e-5)

    @pytest.mark.parametrize("pipeline", ["standard", "r4r"])
    def test_blank_query(self, workspace, capsys, pipeline):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"], "--pipeline", pipeline,
                   "--query", "  "])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: query 'cli' has no text"]

    def test_strategies_agree(self, workspace, capsys):
        outputs = []
        for strategy in ("trie", "fm_index", "term_set"):
            main(["retrieve", "--index", workspace["index"],
                  "--model", workspace["model"],
                  "--query", "which fruit calories", "--k", "3",
                  "--strategy", strategy])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_r4r_pipeline(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"],
                   "--query", "which fruit calories", "--k", "3",
                   "--pipeline", "r4r", "--t", "2", "--T", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[2] == "d1"

    def test_slot_text_in_query(self, workspace, capsys):
        # Think, verify and reflect all render the query: its slot text
        # must stay literal, not end in an unfilled-slot ValueError.
        rules = workspace["dir"] / "reject.json"
        rules.write_text(json.dumps({
            "generate": [{"match": "Candidate identifier: ",
                          "response": "irrelevant"},
                         {"match": "Irrelevant identifier: ",
                          "response": "<context>fruit {docid}</context>"
                                      "<explanation>e</explanation>"}],
            "distributions": TOY_DIST_RULES}))
        queries = workspace["dir"] / "slots.jsonl"
        write_jsonl(queries, [
            {"qid": "q1", "text": "fruit {context}", "relevant": ["d1"]},
            {"qid": "q2", "text": "{docid} {query} apple",
             "relevant": ["d2"]}])
        rc = main(["run", "--corpus", workspace["corpus"],
                   "--queries", str(queries), "--index", workspace["index"],
                   "--model", workspace["model"], "--reason-model", str(rules),
                   "--pipeline", "r4r", "--T", "2",
                   "--report", str(workspace["dir"] / "r.json")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", str(rules), "--pipeline", "r4r",
                   "--query", "which {explanation} {context}"])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_unprintable_doc_key_is_1(self, workspace, capsys):
        # A lone surrogate is valid JSON in an index's doc_key, but no
        # output encoding can print it. build-index refuses such an id, so
        # the index is written by hand.
        index = workspace["dir"] / "lone-index.json"
        make_index({"d\ud800": "which-fruit"}).save(index)
        rc = main(["retrieve", "--index", str(index), "--model", "ngram",
                   "--train-queries", workspace["queries"],
                   "--query", "which fruit"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_ngram_requires_training_queries(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", "ngram", "--query", "which fruit"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_rule_word_fails_before_decoding(self, workspace, capsys,
                                                     monkeypatch):
        decoded = []
        monkeypatch.setattr("gentrieval.cli.run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        rules = unknown_word_rules(workspace)
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", rules, "--query", "which fruit calories"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {rules}: distributions rule 1: 'plugh' is not in the "
            "vocabulary"]
        assert decoded == []

    @pytest.mark.parametrize("pipeline", ["standard", "direct_cot"])
    @pytest.mark.parametrize("flags, field", [
        (("--ablation", "no_context"), "ablation"),
        (("--t", "2"), "verify_depth"), (("--T", "2"), "round_budget")])
    def test_r4r_settings_refused_before_index_loads(
            self, workspace, capsys, monkeypatch, pipeline, flags, field):
        loaded = []
        monkeypatch.setattr(DocIdIndex, "load", loaded.append)
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"], "--pipeline", pipeline,
                   *flags, "--query", "which fruit"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field} applies only to the r4r pipeline, "
            f"not {pipeline!r}"]
        assert loaded == []

    @pytest.mark.parametrize("flags, error", [
        (("--train-queries", "missing.jsonl"),
         "training queries apply only to the n-gram model, not to scripted "
         "rules"),
        (("--reason-model", "missing.json"),
         "a reasoning model applies only to the direct_cot and r4r "
         "pipelines, not 'standard'")])
    def test_unread_model_flag_refused_before_index_loads(
            self, workspace, capsys, monkeypatch, flags, error):
        loaded = []
        monkeypatch.setattr(DocIdIndex, "load", loaded.append)
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"], *flags,
                   "--query", "which fruit"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert loaded == []

    def test_ngram_model(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", "ngram", "--train-queries",
                   workspace["queries"], "--query", "which fruit calories",
                   "--k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[2] == "d1"


class TestRun:
    def args(self, workspace, tag, extra=()):
        report = workspace["dir"] / f"report-{tag}.json"
        trace = workspace["dir"] / f"trace-{tag}.jsonl"
        return report, trace, [
            "run", "--corpus", workspace["corpus"],
            "--queries", workspace["queries"],
            "--index", workspace["index"],
            "--model", workspace["model"],
            "--reason-model", workspace["model"],
            "--pipeline", "r4r", "--k", "3",
            "--report", str(report), "--trace", str(trace), *extra]

    def test_metrics_line(self, workspace, capsys):
        report, _, argv = self.args(workspace, "m")
        rc = main(argv)
        assert rc == 0
        out = capsys.readouterr().out
        assert "t=3 T=3" in out
        assert "hits@1=1.0000" in out
        obj = json.loads(report.read_text())
        assert obj["rows"][0]["hits"]["1"] == 1.0

    def test_rerun_byte_identical(self, workspace, capsys):
        artifacts = []
        for tag in ("a", "b"):
            report, trace, argv = self.args(workspace, tag)
            assert main(argv) == 0
            artifacts.append((report.read_bytes(), trace.read_bytes()))
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    def test_timing_populates_latency(self, workspace, capsys):
        report, _, argv = self.args(workspace, "t", ("--timing",))
        assert main(argv) == 0
        capsys.readouterr()
        obj = json.loads(report.read_text())
        assert obj["rows"][0]["mean_latency_ms"] > 0.0

    @pytest.mark.parametrize("pipeline", ["standard", "direct_cot"])
    def test_timing_is_per_query_for_every_pipeline(self, workspace, capsys,
                                                    pipeline):
        report, _, argv = self.args(workspace, pipeline, ("--timing",))
        argv[argv.index("--pipeline") + 1] = pipeline
        if pipeline == "standard":  # which takes no reasoning model
            i = argv.index("--reason-model")
            del argv[i:i + 2]
        assert main(argv) == 0
        capsys.readouterr()
        rows = json.loads(report.read_text())["rows"]
        assert len(rows) == 1
        assert rows[0]["mean_latency_ms"] > 0.0

    @pytest.mark.parametrize("pipeline", ["standard", "direct_cot"])
    @pytest.mark.parametrize("flags, field", [
        (("--ablation", "no_context,no_verification"), "ablation"),
        (("--sweep-t", "1,2"), "t_sweep"),
        (("--sweep-T", "1,2,3"), "T_sweep"),
        (("--t", "1"), "verify_depth"), (("--T", "1"), "round_budget")])
    def test_r4r_settings_refused_on_other_pipelines(self, workspace, capsys,
                                                     monkeypatch, pipeline,
                                                     flags, field):
        loaded = []
        for name in ("load_corpus", "load_queries"):
            monkeypatch.setattr(evaluation, name, loaded.append)
        monkeypatch.setattr(DocIdIndex, "load", loaded.append)
        report, trace, argv = self.args(workspace, "x", flags)
        argv[argv.index("--pipeline") + 1] = pipeline
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field} applies only to the r4r pipeline, "
            f"not {pipeline!r}"]
        assert loaded == []
        assert not report.exists() and not trace.exists()

    @pytest.mark.parametrize("flags, error", [
        (("--train-queries", "missing.jsonl"),
         "training queries apply only to the n-gram model, not to scripted "
         "rules"),
        (("--pipeline", "standard"),
         "a reasoning model applies only to the direct_cot and r4r "
         "pipelines, not 'standard'"),
        (("--t", "2", "--sweep-t", "1,3"),
         "--t is not run when --sweep-t is given; pass one of them"),
        (("--T", "2", "--sweep-T", "1,3"),
         "--T is not run when --sweep-T is given; pass one of them")],
        ids=["train-queries", "reason-model", "t", "T"])
    def test_unread_flag_refused(self, workspace, capsys, monkeypatch, flags,
                                 error):
        # Each flag here would be accepted and never read: refused before
        # the index loads, leaving no report.
        loaded = []
        monkeypatch.setattr(DocIdIndex, "load", loaded.append)
        report, trace, argv = self.args(workspace, "u", flags)
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert loaded == []
        assert not report.exists() and not trace.exists()

    def test_unknown_ablation_fails_before_loading(self, workspace, capsys,
                                                   monkeypatch):
        loaded = []
        monkeypatch.setattr(evaluation, "load_corpus", loaded.append)
        monkeypatch.setattr(evaluation, "make_retrieve_model",
                            lambda *args: loaded.append(args))
        report, trace, argv = self.args(workspace, "a",
                                        ("--ablation", "no_context,no_contxt"))
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown ablation flags: no_contxt"]
        assert loaded == []
        assert not report.exists() and not trace.exists()

    @pytest.mark.parametrize("flag", ["--report", "--trace"])
    def test_bad_output_path_fails_before_decoding(self, workspace, capsys,
                                                   monkeypatch, flag):
        decoded = []
        monkeypatch.setattr(evaluation, "run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        _, _, argv = self.args(workspace, "o")
        argv[argv.index(flag) + 1] = str(
            workspace["dir"] / "missing" / "out.json")
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert decoded == []

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    def test_report_and_trace_one_file(self, workspace, capsys, monkeypatch,
                                       spelling):
        decoded = []
        monkeypatch.setattr(evaluation, "run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        report, _, argv = self.args(workspace, "same")
        trace = {"same": report,
                 "dot": workspace["dir"] / "." / report.name,
                 "symlink": workspace["dir"] / "link.json"}[spelling]
        if spelling == "symlink":
            trace.symlink_to(report)
        argv[argv.index("--trace") + 1] = str(trace)
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: report and trace are one file: {trace}"]
        assert decoded == []
        assert not report.exists()

    INPUT_ROLES = {"--corpus": "corpus", "--queries": "queries",
                   "--index": "index", "--model": "model",
                   "--reason-model": "reasoning model",
                   "--train-queries": "training queries",
                   "--prompts": "prompts"}

    @pytest.mark.parametrize("output", ["--report", "--trace"])
    @pytest.mark.parametrize("source", list(INPUT_ROLES))
    def test_output_naming_an_input_refused(self, workspace, capsys,
                                            monkeypatch, output, source):
        decoded = []
        monkeypatch.setattr(evaluation, "run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        _, _, argv = self.args(workspace, "in")
        if source == "--train-queries":
            argv[argv.index("--model") + 1] = "ngram"
            argv += [source, workspace["queries"]]
        if source == "--prompts":
            prompts = workspace["dir"] / "prompts.json"
            prompts.write_text(json.dumps({"P_r": "Rank the documents"}))
            argv += [source, str(prompts)]
        # A file of its own, so that no other flag names it.
        i = argv.index(source) + 1
        path = workspace["dir"] / f"input{source}"
        path.write_bytes(pathlib.Path(argv[i]).read_bytes())
        before = path.read_bytes()
        argv[i] = argv[argv.index(output) + 1] = str(path)
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {self.INPUT_ROLES[source]} and {output[2:]} are one "
            f"file: {path}"]
        assert decoded == []
        assert path.read_bytes() == before

    def test_unknown_rule_word_fails_before_decoding(self, workspace, capsys,
                                                     monkeypatch):
        decoded = []
        monkeypatch.setattr(evaluation, "run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        rules = unknown_word_rules(workspace)
        for flag in ("--model", "--reason-model"):
            report, trace, argv = self.args(workspace, "w")
            argv[argv.index(flag) + 1] = rules
            assert main(argv) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {rules}: distributions rule 1: 'plugh' is not in "
                "the vocabulary"]
            assert decoded == []
            assert not report.exists() and not trace.exists()

    def test_blank_query_fails_before_decoding(self, workspace, capsys,
                                               monkeypatch):
        decoded = []
        monkeypatch.setattr(evaluation, "run_pipeline",
                            lambda *args, **kw: decoded.append(args))
        write_jsonl(workspace["queries"], [
            {"qid": "q1", "text": "which fruit calories", "relevant": ["d1"]},
            {"qid": "blank", "text": "   ", "relevant": ["d2"]}])
        _, _, argv = self.args(workspace, "b")
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: malformed record at line 2: 'text' must be "
                       "a non-blank string"]
        assert decoded == []

    @pytest.mark.parametrize("old", [("report", "trace"), ("report",),
                                     ("trace",)], ids="+".join)
    def test_failed_run_leaves_outputs_as_they_were(self, workspace, capsys,
                                                    monkeypatch, old):
        # A run that fails while decoding keeps an existing output file's
        # bytes, and leaves no file at an output path that did not exist.
        report, trace, argv = self.args(workspace, "k")
        outputs = {"report": report, "trace": trace}
        for name in old:
            outputs[name].write_text(f"old {name}")
        monkeypatch.setattr(evaluation, "run_pipeline", _refuse)
        assert main(argv) == 1
        capsys.readouterr()
        for name, path in outputs.items():
            if name in old:
                assert path.read_text() == f"old {name}"
            else:
                assert not path.exists()

    def test_sweep(self, workspace, capsys):
        report, _, argv = self.args(workspace, "s",
                                    ("--sweep-t", "1,2", "--sweep-T", "1,3"))
        assert main(argv) == 0
        capsys.readouterr()
        obj = json.loads(report.read_text())
        assert [(r["t"], r["T"]) for r in obj["rows"]] == [
            (1, 1), (1, 3), (2, 1), (2, 3)]


class TestRemoteReasoner:
    """--reason-model as the URL of a /generate endpoint, on both
    commands."""

    REJECT = [{"match": "Candidate identifier: ", "response": "irrelevant"},
              {"match": "Irrelevant identifier: ",
               "response": "<context>fruit calories</context>"
                           "<explanation>e</explanation>"}]

    def run_args(self, workspace, reasoner, tag):
        report = workspace["dir"] / f"report-{tag}.json"
        trace = workspace["dir"] / f"trace-{tag}.jsonl"
        return report, trace, [
            "run", "--corpus", workspace["corpus"],
            "--queries", workspace["queries"], "--index", workspace["index"],
            "--model", workspace["model"], "--reason-model", reasoner,
            "--pipeline", "r4r", "--k", "3", "--T", "2",
            "--report", str(report), "--trace", str(trace)]

    def test_endpoint_reasons_as_its_rules_do(self, workspace, capsys,
                                              http_endpoint):
        # The endpoint answers with the rules a scripted reasoner reads, so
        # run writes the same artifacts either way, and retrieve prints the
        # last round of run's trace.
        rules = workspace["dir"] / "reject.json"
        rules.write_text(json.dumps(self.REJECT))
        scripted = ScriptedModel.from_file(
            str(rules), DocIdIndex.load(workspace["index"]).vocab)
        prompts = []

        def respond(prompt, max_tokens):
            prompts.append(prompt)
            return scripted.generate(prompt, max_tokens)
        GenerateHandler.respond = respond
        artifacts = []
        for tag, reasoner in (("rules", str(rules)),
                              ("remote", http_endpoint)):
            report, trace, argv = self.run_args(workspace, reasoner, tag)
            assert main(argv) == 0
            artifacts.append((report.read_bytes(), trace.read_bytes()))
        assert artifacts[0] == artifacts[1]
        assert prompts
        capsys.readouterr()
        assert main(["retrieve", "--index", workspace["index"],
                     "--model", workspace["model"],
                     "--reason-model", http_endpoint + "/", "--pipeline",
                     "r4r", "--k", "3", "--T", "2",
                     "--query", "which fruit calories"]) == 0
        topk = json.loads(artifacts[1][1].splitlines()[0])[
            "rounds_detail"][-1]["topk"]
        assert capsys.readouterr().out.splitlines() == [
            f"{c['surface']}\t{c['score']:.6f}\t{c['doc']}" for c in topk]

    @pytest.mark.parametrize("command", ["run", "retrieve"])
    def test_closed_port_is_1(self, workspace, capsys, monkeypatch, command):
        monkeypatch.setattr(lm.time, "sleep", lambda s: None)
        with socket.socket() as sock:  # a port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{sock.getsockname()[1]}"
        report, trace, argv = self.run_args(workspace, url, "closed")
        if command == "retrieve":
            argv = ["retrieve", "--index", workspace["index"],
                    "--model", workspace["model"], "--reason-model", url,
                    "--pipeline", "r4r", "--query", "which fruit"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not report.exists() and not trace.exists()


def commands(block: str) -> list[str]:
    """The shell commands in *block*, continuation lines joined and
    whitespace collapsed."""
    return [" ".join(line.split())
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


class TestToyScripts:
    ROOT = pathlib.Path(__file__).resolve().parents[1]

    def readme_toy_commands(self) -> list[str]:
        text = (self.ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("## Toy experiment", 1)[1]
        return commands(block.split("```sh\n", 1)[1].split("```", 1)[0])

    def test_readme_toy_sequence(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for command in self.readme_toy_commands():
            argv = shlex.split(command)
            if argv[0] == "python":
                subprocess.run([sys.executable, str(self.ROOT / argv[1]),
                                *argv[2:]], check=True, capture_output=True)
            else:
                assert argv[0] == "gentrieval"
                assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
        # standard once, then r4r over t, T in {1, 3}
        assert len([ln for ln in out.splitlines() if "hits@1=" in ln]) == 5
        assert "all_relevant\t1.0000" in out
        for name in ("report-standard.json", "report-r4r.json"):
            assert json.loads((tmp_path / "data" / name).read_text())["rows"]

    def test_toy_sequence_is_documented_and_checked_once(self):
        readme = self.readme_toy_commands()
        script = (self.ROOT / "scripts" / "make_toy_data.py").read_text(
            encoding="utf-8")
        assert commands(script.split('"""', 2)[1].split("::\n", 1)[1]) == \
            readme
        workflow = self.ROOT / ".github" / "workflows" / "tests.yml"
        assert set(readme) <= set(commands(
            workflow.read_text(encoding="utf-8")))

    def test_artifact_matrix_reproducible(self, matrix_trees):
        assert matrix_trees[0] == matrix_trees[1]
        files = matrix_trees[0]
        # 2 indexes x 3 strategies x 9 pipelines x 2 merge settings, plus
        # the deep index's 3 strategies x 2 pipelines.
        assert sum(name.endswith("report.json") for name in files) == 114
        # retrieve runs in every cell, for the first two queries.
        assert sum("/retrieve-" in name for name in files) == 228
        for name, content in files.items():
            if name.endswith(".txt"):
                assert content.startswith(b"exit 0\n"), name
        reject = files["path/trie/r4r-reject/trace.jsonl"]
        first = json.loads(reject.splitlines()[0])
        assert (first["reason"], first["rounds"]) == ("budget_exhausted", 3)
        for ablation in ("no_context", "no_explanation", "no_verification",
                         "ablate_all"):
            assert files[f"path/trie/r4r-{ablation}/trace.jsonl"] != reject
        # Each match mode fires: exact think for q000, prefix think and
        # verdict, contains cut mid-word for q001's verdict and for reflect.
        modes = [json.loads(line) for line in
                 files["path/trie/r4r-modes/trace.jsonl"].splitlines()]
        assert [[r["c"] for r in q["rounds_detail"]] for q in modes[:3]] == [
            ["report summary", "report digest", "report digest"],
            ["overview digest"],
            ["overview digest", "report digest", "report digest"]]
        assert modes[1]["reason"] == "all_relevant"

    def test_retrieve_prints_runs_last_round(self, matrix_trees):
        # One set-up path: in every r4r cell, retrieve with the cell's
        # reasoner prints what run's trace holds as the last round's
        # ranking for that query.
        files = matrix_trees[0]
        cells = {name.rsplit("/", 1)[0] for name in files
                 if "/r4r-" in name and name.endswith("trace.jsonl")}
        assert len(cells) == 2 * 3 * 7 * 2 + 3
        for cell in sorted(cells):
            traces = files[f"{cell}/trace.jsonl"].splitlines()
            for i in range(2):
                topk = json.loads(traces[i])["rounds_detail"][-1]["topk"]
                out = files[f"{cell}/retrieve-{i}.txt"].decode("utf-8")
                assert out.split("--- stdout\n")[1].split("--- stderr")[0] \
                    .splitlines() == [
                        f"{c['surface']}\t{c['score']:.6f}\t{c['doc']}"
                        for c in topk], (cell, i)


@pytest.fixture(scope="module")
def matrix_trees(tmp_path_factory):
    """Two runs of scripts/artifact_matrix.py over 40 documents, each as a
    {relative path: bytes} map."""
    script = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
              / "artifact_matrix.py")
    trees = []
    for name in ("a", "b"):
        root = tmp_path_factory.mktemp(f"matrix-{name}")
        subprocess.run([sys.executable, str(script), "--out", str(root),
                        "--docs", "40"], check=True, capture_output=True)
        trees.append({str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    return trees


class TestOptionInventory:
    """Every knob, listed: adding or removing one changes this test."""

    FLAGS = {
        "build-index": {"--corpus", "--out", "--levels", "--branching",
                        "--dim", "--views", "--seed"},
        "retrieve": {"--index", "--strategy", "--pipeline", "--model",
                     "--train-queries", "--reason-model", "--k", "--t",
                     "--T", "--ablation", "--merge-views", "--prompts",
                     "--query"},
        "run": {"--index", "--strategy", "--pipeline", "--model",
                "--train-queries", "--reason-model", "--k", "--t", "--T",
                "--ablation", "--merge-views", "--prompts", "--corpus",
                "--queries", "--sweep-t", "--sweep-T", "--report",
                "--trace", "--timing", "--seed"},
        "stats": {"--trace"},
    }

    def test_cli_flags(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        flags = {command: {opt for action in parser._actions
                           for opt in action.option_strings
                           if opt.startswith("--") and opt != "--help"}
                 for command, parser in subparsers.items()}
        assert flags == self.FLAGS

    def test_every_flag_has_help(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        silent = sorted(f"{command} {action.option_strings[-1]}"
                        for command, parser in subparsers.items()
                        for action in parser._actions
                        if action.option_strings and not action.help)
        assert silent == []

    def test_strategy_choices(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command in ("retrieve", "run"):
            [action] = [a for a in subparsers[command]._actions
                        if a.dest == "strategy"]
            assert tuple(action.choices) == ("trie", "fm_index", "term_set")

    def test_pipeline_choices(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for command in ("retrieve", "run"):
            [action] = [a for a in subparsers[command]._actions
                        if a.dest == "pipeline"]
            assert tuple(action.choices) == PIPELINES

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "corpus_path", "queries_path", "index_path", "strategy",
            "pipeline", "k", "verify_depth", "round_budget", "t_sweep",
            "T_sweep", "ablation", "merge", "hits_ks", "mrr_ks",
            "scripted_model_path", "reason_model_path",
            "ngram_train_queries_path", "prompts_path", "report_path",
            "trace_path", "seed", "jobs", "timing"]


class TestStats:
    def test_reads_trace(self, workspace, capsys):
        _, trace, argv = self.trace_args(workspace)
        assert main(argv) == 0
        capsys.readouterr()
        rc = main(["stats", "--trace", str(trace)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["all_relevant\t1.0000",
                         "budget_exhausted\t0.0000",
                         "parse_failure\t0.0000"]

    def trace_args(self, workspace):
        report = workspace["dir"] / "report-stats.json"
        trace = workspace["dir"] / "trace-stats.jsonl"
        return report, trace, [
            "run", "--corpus", workspace["corpus"],
            "--queries", workspace["queries"],
            "--index", workspace["index"],
            "--model", workspace["model"],
            "--reason-model", workspace["model"],
            "--pipeline", "r4r", "--k", "3",
            "--report", str(report), "--trace", str(trace)]

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["stats", "--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["retrieve", "--query", "x"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, workspace, capsys):
        rc = main(["retrieve", "--index", str(workspace["dir"] / "missing.json"),
                   "--model", workspace["model"], "--query", "x"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag,value",
                             [("--k", "0"), ("--t", "0"), ("--T", "-1")])
    @pytest.mark.parametrize("command", ["retrieve", "run"])
    def test_non_positive_budget_is_2(self, workspace, capsys, command, flag,
                                      value):
        extra = (["--query", "which fruit"] if command == "retrieve" else
                 ["--corpus", workspace["corpus"],
                  "--queries", workspace["queries"],
                  "--report", str(workspace["dir"] / "r.json")])
        with pytest.raises(SystemExit) as exc:
            main([command, "--index", workspace["index"],
                  "--model", workspace["model"], *extra, flag, value])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("run", "--sweep-t", "0"), ("run", "--sweep-T", "a"),
        ("build-index", "--levels", "0"), ("build-index", "--levels", "65"),
        ("build-index", "--levels", "1200"),
        ("build-index", "--branching", "0"),
        ("build-index", "--dim", "1"),
        ("build-index", "--dim", "100000000000"),
        ("build-index", "--seed", "-1"),
        ("build-index", "--seed", str(2 ** 64)), ("run", "--jobs", "1")])
    def test_bad_size_flag_is_2(self, workspace, capsys, command, flag, value):
        extra = (["--index", workspace["index"], "--model", workspace["model"],
                  "--queries", workspace["queries"],
                  "--report", str(workspace["dir"] / "r.json")]
                 if command == "run" else
                 ["--out", str(workspace["dir"] / "i.json")])
        with pytest.raises(SystemExit) as exc:
            main([command, "--corpus", workspace["corpus"], *extra,
                  flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("usage:") == 1
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0]

    @pytest.mark.parametrize("command,flag,value", [
        ("build-index", "--ngram-m", "0"), ("build-index", "--ngram-n", "0"),
        ("retrieve", "--remote-url", "http://127.0.0.1:9")])
    def test_deleted_flag_is_2(self, workspace, capsys, command, flag,
                               value):
        # The n-gram view's sizes are constants, and the reasoning endpoint
        # is a --reason-model URL: the old flags are usage errors.
        extra = (["--corpus", workspace["corpus"],
                  "--out", str(workspace["dir"] / "i.json")]
                 if command == "build-index" else
                 ["--index", workspace["index"], "--model", workspace["model"],
                  "--query", "which fruit"])
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, flag, value])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and flag in errors[0]

    @pytest.mark.parametrize("content", [
        "[1]", json.dumps({"P_r": "x {query}"})])
    def test_bad_prompts_file_is_1(self, workspace, capsys, content):
        prompts = workspace["dir"] / "prompts.json"
        prompts.write_text(content)
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"], "--query", "which fruit",
                   "--prompts", str(prompts)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_non_utf8_input_is_1(self, workspace, capsys):
        train = workspace["dir"] / "train.jsonl"
        train.write_bytes(b"\xff\xfe")
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", "ngram", "--train-queries", str(train),
                   "--query", "which fruit"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_bad_ablation_flag_is_1(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"], "--query", "which fruit",
                   "--pipeline", "r4r", "--ablation", "no_coffee"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown ablation flags: no_coffee"]


class TestMalformedInputs:
    """Malformed trace lines, scripted rule files and index records end in
    one error line and exit 1."""

    @staticmethod
    def assert_one_error(capsys, rc):
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        return err[0]

    @pytest.mark.parametrize("tokens", [[138, 0], [2, 3]])
    @pytest.mark.parametrize("strategy", ["trie", "fm_index", "term_set"])
    def test_bad_record_tokens(self, workspace, capsys, strategy, tokens):
        # An id outside the vocabulary, or a record without END, is refused
        # when the index loads, whatever the strategy.
        index = json.loads(pathlib.Path(workspace["index"]).read_text())
        index["records"][2]["tokens"] = tokens
        bad = workspace["dir"] / "bad-index.json"
        bad.write_text(json.dumps(index))
        err = self.assert_one_error(capsys, main([
            "retrieve", "--index", str(bad), "--model", workspace["model"],
            "--strategy", strategy, "--query", "which fruit calories"]))
        assert "record 2 ('d3')" in err

    @pytest.mark.parametrize("field", ["doc_key", "surface", "view"])
    def test_non_string_record_field(self, tmp_path, capsys, field):
        # Two records tie on every query; a number among their surfaces or
        # doc keys would reach the ranking's sort.
        records = [{"doc_key": f"d{i}", "view": "path", "surface": "which",
                    "tokens": [2, 0]} for i in (1, 2)]
        records[1][field] = 5
        index = tmp_path / "index.json"
        index.write_text(json.dumps({
            "vocab": {"0": "<end>", "1": "<sep>", "2": "which"},
            "records": records}))
        queries = tmp_path / "queries.jsonl"
        write_jsonl(queries, [{"qid": "q1", "text": "which"}])
        err = self.assert_one_error(capsys, main([
            "retrieve", "--index", str(index), "--model", "ngram",
            "--train-queries", str(queries), "--query", "which"]))
        key = 5 if field == "doc_key" else "d2"
        assert err.endswith(f"record 1 ({key!r}): {field} is not a string")

    @pytest.mark.parametrize("key", ["99", "05"])
    def test_bad_vocab_ids(self, workspace, capsys, key):
        # A vocabulary id with a gap, or one written "05", would shift every
        # later token; the index is refused when it loads.
        index = json.loads(pathlib.Path(workspace["index"]).read_text())
        vocab = index["vocab"]
        vocab[key] = vocab.pop(str(len(vocab) - 1 if key == "99" else 5))
        bad = workspace["dir"] / "bad-index.json"
        bad.write_text(json.dumps(index))
        err = self.assert_one_error(capsys, main([
            "retrieve", "--index", str(bad), "--model", workspace["model"],
            "--query", "which fruit calories"]))
        assert f"malformed index: vocab key {key!r}" in err

    @pytest.mark.parametrize("line", [
        "not json", "[1]", '{"reason": ["x"]}', '{"rounds": 1}',
        '"no_such_reason"', '"all_relevant"'])
    def test_bad_trace_line(self, tmp_path, capsys, line):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"reason": "all_relevant"}) + "\n"
                         + line + "\n")
        self.assert_one_error(capsys, main(["stats", "--trace", str(trace)]))

    @pytest.mark.parametrize("content", [
        "{not json", "5", '"rules"', json.dumps({"generate": 5}),
        json.dumps({"distributions": {"context": []}}),
        json.dumps([1]),
        json.dumps([{"match": 5, "response": "x"}]),
        json.dumps({"generate": [{"match": "x", "response": None}]}),
        json.dumps({"generate": [{"match": "x", "response": "y",
                                  "match_type": "exaxt"}]}),
        json.dumps({"distributions": [{"context": 5,
                                       "probs": {"food": 1.0}}]}),
        json.dumps({"distributions": [{"context": [1],
                                       "probs": {"food": 1.0}}]}),
        json.dumps({"distributions": [{"probs": {"food": 1.0}}]}),
        json.dumps({"distributions": [{"context": [], "probs": ["food"]}]}),
        json.dumps({"distributions": [{"context": [], "probs": {"food": 0}}]}),
        json.dumps({"distributions": [{"context": [],
                                       "probs": {"food": 1.5}}]}),
        json.dumps({"distributions": [{"context": [],
                                       "probs": {"food": True}}]}),
        json.dumps({"distributions": [{"context": [],
                                       "probs": {"food": "0.5"}}]})])
    @pytest.mark.parametrize("role", ["--model", "--reason-model"])
    def test_bad_rule_file(self, workspace, capsys, role, content):
        rules = workspace["dir"] / "rules.json"
        rules.write_text(content)
        if role == "--model":
            argv = ["retrieve", "--index", workspace["index"],
                    "--model", str(rules), "--query", "which fruit"]
        else:
            argv = ["run", "--corpus", workspace["corpus"],
                    "--queries", workspace["queries"],
                    "--index", workspace["index"],
                    "--model", workspace["model"],
                    "--reason-model", str(rules), "--pipeline", "r4r",
                    "--report", str(workspace["dir"] / "r.json")]
        self.assert_one_error(capsys, main(argv))

    @pytest.mark.parametrize("content, error", PARSER_LIMITS)
    @pytest.mark.parametrize("flag", ["--index", "--corpus", "--train-queries",
                                      "--model", "--prompts", "--trace",
                                      "--queries"])
    def test_past_parser_limit(self, workspace, capsys, flag, content, error):
        # JSON nested past the interpreter's recursion limit, or holding an
        # integer too long to convert, as any JSON input, ends in one line
        # that names the parser's reason.
        bad = workspace["dir"] / "bad.json"
        bad.write_text(content + "\n")
        retrieve = {"--index": workspace["index"], "--model": workspace["model"],
                    "--query": "which fruit calories"}
        out = str(workspace["dir"] / "out.json")
        if flag == "--corpus":
            argv = ["build-index", "--corpus", str(bad), "--out", out]
        elif flag == "--trace":
            argv = ["stats", "--trace", str(bad)]
        elif flag == "--queries":
            argv = ["run", "--corpus", workspace["corpus"], "--queries",
                    str(bad), "--index", workspace["index"],
                    "--model", workspace["model"], "--report", out]
        else:
            if flag == "--train-queries":
                retrieve["--model"] = "ngram"
            retrieve[flag] = str(bad)
            argv = ["retrieve", *(x for kv in retrieve.items() for x in kv)]
        assert error in self.assert_one_error(capsys, main(argv))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--corpus", "--queries",
                                      "--train-queries", "--trace",
                                      "--index"])
    def test_non_utf8_line(self, workspace, capsys, flag):
        # Bytes that are not UTF-8 are a malformed line of a JSONL input,
        # named by its number, or a malformed index.
        first = {"--corpus": {"id": "d1", "text": "food apple"},
                 "--queries": {"qid": "q1", "text": "which fruit"},
                 "--train-queries": {"qid": "q1", "text": "which fruit"},
                 "--trace": {"reason": "all_relevant"}}.get(flag)
        error = ("malformed index: UnicodeDecodeError" if flag == "--index"
                 else "malformed record at line 2: 'utf-8' codec can't "
                      "decode byte 0xff")
        bad = workspace["dir"] / "bad.jsonl"
        head = json.dumps(first).encode("utf-8") + b"\n" if first else b""
        bad.write_bytes(head + b"\xff\xfe\n")
        out = str(workspace["dir"] / "out.json")
        if flag == "--corpus":
            argv = ["build-index", "--corpus", str(bad), "--out", out]
        elif flag == "--trace":
            argv = ["stats", "--trace", str(bad)]
        elif flag == "--queries":
            argv = ["run", "--corpus", workspace["corpus"], "--queries",
                    str(bad), "--index", workspace["index"],
                    "--model", workspace["model"], "--report", out]
        elif flag == "--train-queries":
            argv = ["retrieve", "--index", workspace["index"], "--model",
                    "ngram", "--train-queries", str(bad),
                    "--query", "which fruit"]
        else:
            argv = ["retrieve", "--index", str(bad), "--model",
                    workspace["model"], "--query", "which fruit"]
        assert error in self.assert_one_error(capsys, main(argv))
        assert not os.path.exists(out)

    def test_unencodable_corpus_id(self, tmp_path, capsys):
        # A lone surrogate is valid JSON in an id, but no output can write
        # it: build-index refuses the line rather than save the index.
        corpus, out = tmp_path / "lone.jsonl", tmp_path / "out.json"
        write_jsonl(corpus, [{"id": "d1", "text": "food apple"},
                             {"id": "d\ud800", "text": "which fruit"}])
        err = self.assert_one_error(capsys, main([
            "build-index", "--corpus", str(corpus), "--out", str(out)]))
        assert err.startswith("error: malformed record at line 2: 'id' is "
                              "not UTF-8")
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Inputs for the CLI fuzz: a valid file per input flag, malformed files
    and paths that do not exist, plus output paths that never overwrite an
    input."""
    root = tmp_path_factory.mktemp("fuzz")

    def put(name, content):
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return str(path)

    index = root / "index.json"
    make_index(TOY_SURFACES, TOY_EXTRA_WORDS).save(index)
    queries = put("queries.jsonl", "".join(json.dumps(r) + "\n" for r in [
        {"qid": "q1", "text": "which fruit calories", "relevant": ["d1"]},
        {"qid": "q2", "text": "company details", "relevant": ["d2"]}]))
    model = put("model.json", json.dumps({
        "generate": [{"match": "Candidate identifier: ",
                      "response": "irrelevant"},
                     {"match": "Irrelevant identifier:",
                      "response": "<context>fruit</context>"
                                  "<explanation>e</explanation>"}],
        "distributions": TOY_DIST_RULES}))
    valid = {
        "--corpus": put("corpus.jsonl", "".join(
            json.dumps(r) + "\n" for r in [
                {"id": "d1", "text": "food apple calories fruit"},
                {"id": "d2", "text": "tech apple company details",
                 "title": "tech apple"},
                {"id": "d3", "text": "food banana fruit"}])),
        "--queries": queries, "--train-queries": queries,
        # --reason-model takes files only, so the reasoner stays local.
        "--index": str(index), "--model": model, "--reason-model": model,
        "--prompts": put("prompts.json", json.dumps({"P_r": "Find documents."})),
        "--trace": put("trace.jsonl",
                       json.dumps({"reason": "all_relevant"}) + "\n")}
    malformed = [put("not_json.json", "{not json"), put("list.json", "[1]"),
                 put("number.json", "5"), put("empty.json", ""),
                 put("binary.json", b"\xff\xfe\x00"),
                 put("bad_line.jsonl", '{"reason": ["x"]}\n'),
                 str(root / "missing.json"), str(root)]
    outputs = [str(root / "out.json"), str(root / "out2.json"),
               str(root / "missing_dir" / "x.json"), str(root)]
    return valid, malformed, outputs


def argv_strategy(fuzz_files):
    """argv for one subcommand: each of its flags present or not, each
    value mostly valid, else malformed or a missing file."""
    valid, malformed, outputs = fuzz_files
    inputs = sorted(set(valid.values())) + malformed

    def mostly(good, bad):
        """A good value four times in five."""
        return st.tuples(st.integers(0, 4), st.sampled_from(good),
                         st.sampled_from(bad)).map(
            lambda t: t[1] if t[0] else t[2])

    files = {flag: mostly([path], inputs) for flag, path in valid.items()}
    files["--model"] = mostly([valid["--model"], "ngram"], inputs)
    ints = mostly(["1", "2", "3"], ["0", "-1", "x", ""])
    pools = {
        **files, "--out": st.sampled_from(outputs),
        "--report": st.sampled_from(outputs),
        "--levels": ints, "--branching": ints,
        "--dim": mostly(["2", "3"], ["1", "-1", "x", "", "100000000000"]),
        "--k": ints, "--t": ints, "--T": ints,
        "--seed": mostly(["0", "7"], ["-3", str(2 ** 64), "x"]),
        "--sweep-t": mostly(["", "1,2", "2"], ["0", "a"]),
        "--sweep-T": mostly(["", "1,2", "3"], ["-1", "a"]),
        "--views": mostly(["", "title", "title,ngram", "pseudo_query"],
                          ["hologram"]),
        "--ablation": mostly(["", "no_context",
                              "no_explanation,no_verification"],
                             ["no_coffee"]),
        "--strategy": mostly(["trie", "fm_index", "term_set"],
                             ["bogus", "fm", "termset"]),
        "--pipeline": mostly(["standard", "direct_cot", "r4r"], ["bogus"]),
        "--query": st.sampled_from(["which fruit calories", "", "zzz qqq"]),
    }
    subparsers = build_parser()._subparsers._group_actions[0].choices

    @st.composite
    def draw(draw_):
        command = draw_(st.sampled_from(sorted(subparsers)))
        argv = [command]
        for action in subparsers[command]._actions:
            if not action.option_strings or action.dest == "help":
                continue
            flag = action.option_strings[0]
            if draw_(st.integers(0, 19)) >= (19 if action.required else 6):
                continue
            if action.nargs == 0:
                argv.append(flag)
            elif flag == "--trace" and command == "run":  # an output
                argv += [flag, draw_(st.sampled_from(outputs))]
            else:
                argv += [flag, draw_(pools[flag])]
        return argv

    return draw()


class TestCliContract:
    """Any argv drawn from the subcommands' flags ends in exit 0, in exit 1
    with exactly one `error:` line, or in argparse's exit 2; never in an
    uncaught exception."""

    def test_fuzz_main(self, fuzz_files):
        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(argv_strategy(fuzz_files))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    assert exc.code == 2, argv
                    return
            lines = err.getvalue().splitlines()
            if rc == 0:
                assert not any(line.startswith("error:") for line in lines)
            else:
                assert rc == 1, argv
                assert len(lines) == 1 and lines[0].startswith("error:"), argv

        check()
