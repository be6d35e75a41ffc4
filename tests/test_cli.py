import json
import math
import socket

import pytest

from gentrieval.cli import main
from gentrieval.docid import DocIdIndex

from conftest import TOY_DIST_RULES, TOY_EXTRA_WORDS, TOY_SURFACES, make_index


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


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

    def test_unknown_view_rejected(self, workspace, capsys):
        rc = main(["build-index", "--corpus", workspace["corpus"],
                   "--out", str(workspace["dir"] / "x.json"),
                   "--views", "hologram"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_strategy_aliases_agree(self, workspace, capsys):
        outputs = []
        for strategy in ("trie", "fm", "term_set"):
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

    def test_remote_url_from_environment(self, workspace, capsys,
                                         monkeypatch):
        with socket.socket() as sock:  # a local port with no listener
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setenv("GENTRIEVAL_REMOTE_URL", f"http://127.0.0.1:{port}")
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"],
                   "--query", "which fruit calories", "--pipeline",
                   "direct_cot"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_ngram_requires_training_queries(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", "ngram", "--query", "which fruit"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

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

    def test_rerun_and_jobs_byte_identical(self, workspace, capsys):
        artifacts = []
        for tag, extra in (("a", ()), ("b", ()), ("c", ("--jobs", "4"))):
            report, trace, argv = self.args(workspace, tag, extra)
            assert main(argv) == 0
            artifacts.append((report.read_bytes(), trace.read_bytes()))
        capsys.readouterr()
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_timing_populates_latency(self, workspace, capsys):
        report, _, argv = self.args(workspace, "t", ("--timing",))
        assert main(argv) == 0
        capsys.readouterr()
        obj = json.loads(report.read_text())
        assert obj["rows"][0]["mean_latency_ms"] > 0.0

    def test_sweep(self, workspace, capsys):
        report, _, argv = self.args(workspace, "s",
                                    ("--sweep-t", "1,2", "--sweep-T", "1,3"))
        assert main(argv) == 0
        capsys.readouterr()
        obj = json.loads(report.read_text())
        assert [(r["t"], r["T"]) for r in obj["rows"]] == [
            (1, 1), (1, 3), (2, 1), (2, 3)]


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

    def test_bad_ablation_flag_is_1(self, workspace, capsys):
        rc = main(["retrieve", "--index", workspace["index"],
                   "--model", workspace["model"], "--query", "which fruit",
                   "--pipeline", "r4r", "--ablation", "no_coffee"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
