"""Local runs never load the HTTP or OpenSSL stacks: only RemoteModel needs
requests, and the embedding hash comes from _blake2 rather than hashlib."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import requests

import gentrieval
from gentrieval import docid
from gentrieval.lm import RemoteModel

NETWORK_MODULES = ("requests", "urllib3", "ssl", "_ssl", "_hashlib")

LOCAL_RUN = """
import json, sys
import gentrieval, gentrieval.cli, gentrieval.evaluation
from gentrieval.corpus import load_corpus
from gentrieval.docid import build_index
from gentrieval.evaluation import ExperimentConfig, run_experiment

work = sys.argv[1]
build_index(load_corpus(work + "/corpus.jsonl"), levels=1,
            branching=3).save(work + "/index.json")
report = run_experiment(ExperimentConfig(
    corpus_path=work + "/corpus.jsonl", queries_path=work + "/queries.jsonl",
    index_path=work + "/index.json", pipeline="r4r", k=3,
    ngram_train_queries_path=work + "/queries.jsonl",
    reason_model_path=work + "/reasoner.json",
    report_path=work + "/report.json", trace_path=work + "/trace.jsonl"))
print(json.dumps({"rows": len(report["rows"]),
                  "loaded": sorted(set(sys.argv[2:]) & set(sys.modules))}))
"""


def write_toy_data(work: pathlib.Path) -> None:
    topics = ["apple", "banana", "cherry", "grape", "lemon", "mango"]
    with open(work / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, t in enumerate(topics):
            fh.write(json.dumps({"id": f"d{i}",
                                 "text": f"{t} {t} fruit notes"}) + "\n")
    with open(work / "queries.jsonl", "w", encoding="utf-8") as fh:
        for i, t in enumerate(topics[:3]):
            fh.write(json.dumps({"qid": f"q{i}", "text": f"{t} fruit",
                                 "relevant": [f"d{i}"]}) + "\n")
    (work / "reasoner.json").write_text(json.dumps(
        [{"match": "Candidate identifier: ", "response": "relevant"}]))


def test_local_run_loads_no_network_stack(tmp_path):
    write_toy_data(tmp_path)
    src = str(pathlib.Path(gentrieval.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LOCAL_RUN, str(tmp_path), *NETWORK_MODULES],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["rows"] == 1
    assert (tmp_path / "trace.jsonl").read_text()
    assert out["loaded"] == []


def test_embedding_hash_is_hashlib_blake2b():
    assert docid.blake2b is hashlib.blake2b


def test_remote_model_makes_its_own_session():
    assert isinstance(RemoteModel("http://x").session, requests.Session)
