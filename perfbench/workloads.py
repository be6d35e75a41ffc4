"""Workload definitions and the seeded input generator.

Every workload is a `make_toy_data.py` corpus and query file generated from
the run's seed, indexed with path docids (levels=2, branching=8) and decoded
with k=10. The n-gram retriever is trained on the query file, as in the toy
experiment. The r4r workload also gets a scripted reasoner whose rule table
is drawn from the same seed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import random
import sys
from dataclasses import dataclass

LEVELS = 2
BRANCHING = 8
K = 10
ROUND_BUDGET = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int
    queries: int
    chunk: int        # queries per run_experiment call; each call sets up anew
    strategy: str
    pipeline: str
    exact_check: bool = False   # top score == sequence_logprob (trie only)


WORKLOADS = {w.name: w for w in (
    Workload(
        "standard-trie-2k",
        "LM scoring dominates decode (full-vocabulary dict per call) and the "
        "trie is cheap, so LM and beam changes show here and automaton "
        "rewrites should not",
        docs=2000, queries=200, chunk=100, strategy="trie",
        pipeline="standard", exact_check=True),
    Workload(
        "standard-fm-1k",
        "FM-index allowed/complete dominate query time and the dense occ "
        "table dominates set-up and memory, so FM rebuilds show here",
        docs=1000, queries=120, chunk=40, strategy="fm_index",
        pipeline="standard"),
    Workload(
        "r4r-termset-400",
        "term-set step dominates, prompts repeat across refine rounds, and "
        "it is the only workload that runs the reasoning and orchestrator "
        "layers",
        docs=400, queries=120, chunk=30, strategy="term_set",
        pipeline="r4r"),
)}

# Smoke mode keeps each workload's strategy and pipeline at a toy size.
SMOKE_SIZE = {"docs": 40, "queries": 12, "chunk": 6}

# Reasoner behaviour per distinct query text, with its share of the texts.
# The rounds and termination reason each class yields at T=3 are noted.
REASONER_CLASSES = (
    ("accept", 0.40),        # 1 round, all_relevant
    ("think_retry", 0.10),   # 1 round, all_relevant; think needs the reminder
    ("reject_parse", 0.15),  # 1 round, parse_failure
    ("reject_once", 0.15),   # 2 rounds, parse_failure
    ("reject_all", 0.20),    # 3 rounds, budget_exhausted
)


def _make_toy_data(root: pathlib.Path, out: pathlib.Path, docs: int,
                   queries: int, seed: int) -> None:
    """Call scripts/make_toy_data.py's main() in-process."""
    path = root / "scripts" / "make_toy_data.py"
    spec = importlib.util.spec_from_file_location("make_toy_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv = sys.argv
    sys.argv = [str(path), "--out", str(out), "--docs", str(docs),
                "--queries", str(queries), "--seed", str(seed)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = module.main()
    finally:
        sys.argv = argv
    if status != 0:
        raise RuntimeError(f"make_toy_data.py exited with {status}")


def _structured(context: str, explanation: str) -> str:
    return (f"<context>{context}</context> "
            f"<explanation>{explanation}</explanation>")


def reasoner_rules(texts: list[str], seed: int) -> tuple[list[dict], dict]:
    """Generate rules for the reason role from the seed.

    Rules are "contains" matches anchored on text the prompts put around
    the query (`Query: <text>` followed by a newline or the end of the
    think prompt) and on the current context in reflect prompts. Every
    context starts with the query text, so anchors of different queries
    never collide. Returns the rules and each class's count of texts.
    """
    rng = random.Random(f"reasoner:{seed}")
    distinct = sorted(set(texts))
    rng.shuffle(distinct)
    # Exact shares, so that the mix of rounds per query (and with it the
    # cost of a query) does not vary from seed to seed.
    classes: list[str] = []
    for name, share in REASONER_CLASSES:
        classes += [name] * round(share * len(distinct))
    classes = (classes + ["accept"] * len(distinct))[:len(distinct)]
    # Later contexts append words the queries already use, so they stay in
    # the vocabulary and change what the retriever is conditioned on.
    fillers = sorted({word for text in distinct for word in text.split()[1:]})
    rules: list[dict] = []
    counts = {name: classes.count(name) for name, _ in REASONER_CLASSES}
    for text, cls in zip(distinct, classes):
        keyword = text.split()[0]
        contexts = [text] + [f"{text} {rng.choice(fillers)}" for _ in range(2)]
        accepts = cls in ("accept", "think_retry")
        rules.append({"match": f"Query: {text}\nCandidate identifier: ",
                      "response": "relevant" if accepts else "irrelevant"})
        for i, ctx in enumerate([] if accepts else contexts[:-1]):
            parses = cls == "reject_all" or (cls == "reject_once" and i == 0)
            rules.append({
                "match": f"Current context: {ctx}\n",
                "response": (_structured(contexts[i + 1], f"not {keyword}")
                             if parses else f"unsure about {keyword}")})
        if cls == "think_retry":
            rules.append({"match": f"Query: {text}\nReminder: ",
                          "response": _structured(text, f"about {keyword}")})
        rules.append({"match": f"Query: {text}",
                      "response": (f"maybe {keyword}" if cls == "think_retry"
                                   else _structured(text, f"about {keyword}"))})
    return rules, counts


def make_inputs(root: pathlib.Path, work: pathlib.Path, wl: Workload,
                seed: int) -> dict:
    """Write the corpus, query file, query chunks and (for r4r) reasoner
    under *work*; return their paths and the reasoner class counts."""
    work.mkdir(parents=True, exist_ok=True)
    _make_toy_data(root, work, wl.docs, wl.queries, seed)
    lines = (work / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    chunks = []
    for i in range(0, len(lines), wl.chunk):
        path = work / f"queries-{len(chunks)}.jsonl"
        path.write_text("\n".join(lines[i:i + wl.chunk]) + "\n",
                        encoding="utf-8")
        chunks.append(path)
    inputs = {"corpus": work / "corpus.jsonl",
              "queries": work / "queries.jsonl", "chunks": chunks,
              "reasoner": None, "reasoner_classes": None}
    if wl.pipeline == "r4r":
        texts = [json.loads(line)["text"] for line in lines]
        rules, counts = reasoner_rules(texts, seed)
        inputs["reasoner"] = work / "reasoner-r4r.json"
        inputs["reasoner"].write_text(json.dumps(rules, indent=1) + "\n",
                                      encoding="utf-8")
        inputs["reasoner_classes"] = counts
    return inputs


def input_properties(index, n_docs: int, query_texts: list[str]) -> dict:
    """Properties of the generated inputs that the decode cost depends on."""
    bodies = [len(r.tokens) - 1 for r in index.records]  # tokens end with END
    return {
        "docs": n_docs,
        "records": len(index.records),
        "vocab_sigma": len(index.vocab),
        # SEP || body_1 || SEP || ... || SEP, plus the FM sentinel.
        "fm_sequence_n": 1 + sum(b + 1 for b in bodies) + 1,
        "mean_docid_tokens": round(sum(bodies) / len(bodies), 4),
        "queries": len(query_texts),
        "duplicate_query_share": round(
            1 - len(set(query_texts)) / len(query_texts), 4),
    }
