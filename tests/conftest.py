"""Shared fixtures: the three-record toy index, the generated toy corpora,
scripted rule tables, a local /generate endpoint, and random-corpus helpers
used by the oracle tests."""

from __future__ import annotations

import json
import math
import pathlib
import random
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import strategies as st

from gentrieval.corpus import (END, SEP, Corpus, Document, Query, Vocabulary,
                               load_corpus)
from gentrieval.errors import MalformedRecord
from gentrieval.docid import DocIdIndex, DocIdRecord, RQHierarchy
from gentrieval.lm import FLOOR_LOGPROB


def ref_render(template: str, name: str, **slots: str) -> str:
    """PromptRegistry.render in its straightforward form: one re.sub pass
    whose callback fills each slot, so slot text inside a value stays
    literal; an unfilled slot raises ValueError."""
    def fill(m: re.Match) -> str:
        if m[1] not in slots:
            raise ValueError(f"unfilled slot {m[0]} in template {name}")
        return slots[m[1]]
    return re.sub(r"\{(query|docid|context|explanation)\}", fill, template)


def make_index(surfaces: dict[str, str],
               extra_words: list[str] | None = None) -> DocIdIndex:
    """Hand-built single-view index: doc_key -> path surface."""
    vocab = Vocabulary()
    records = []
    for key, surface in surfaces.items():
        toks = tuple(vocab.encode(surface, on_unknown="grow")) + (END,)
        records.append(DocIdRecord(key, toks, surface, "path"))
    for w in extra_words or []:
        vocab.add(w)
    vocab.freeze()
    return DocIdIndex(records, vocab)


# Any JSON document: the input space of the loaders' malformed-input tests.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)


# JSON nested past the interpreter's recursion limit.
DEEP_JSON = "[" * 100000 + "]" * 100000
# JSON holding an integer longer than the interpreter converts (4300 digits
# by default), which the parser refuses with a plain ValueError.
LONG_INT_JSON = '{"n": ' + "1" * 5000 + "}"
# Each JSON document past a parser limit, with the start of its error.
PARSER_LIMITS = [
    pytest.param(DEEP_JSON, "maximum recursion", id="nested-too-deep"),
    pytest.param(LONG_INT_JSON, "Exceeds the limit", id="long-int")]

# The JSONL readers in their straightforward form: every line re-checked as
# UTF-8, every id encoded, every list field type-checked. The readers must
# return what these return, or raise what these raise.

def ref_read_jsonl(path):
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                    yield line_no, json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise MalformedRecord(line_no, str(exc)) from exc


def _ref_is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def ref_load_corpus(path) -> Corpus:
    corpus = Corpus()
    for line_no, obj in ref_read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise MalformedRecord(line_no, "missing required field 'id' or 'text'")
        if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
            raise MalformedRecord(line_no, "'id' and 'text' must be strings")
        if not obj["id"] or not obj["text"]:
            raise MalformedRecord(line_no, "'id' and 'text' must be nonempty")
        try:
            obj["id"].encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedRecord(line_no, f"'id' is not UTF-8: {exc}") from exc
        title = obj.get("title")
        if title is not None and not isinstance(title, str):
            raise MalformedRecord(line_no, "'title' must be a string")
        pseudo_queries = obj.get("pseudo_queries", [])
        if not _ref_is_str_list(pseudo_queries):
            raise MalformedRecord(line_no, "'pseudo_queries' must be a list of strings")
        corpus.append(Document(doc_key=obj["id"], text=obj["text"],
                               title=title,
                               pseudo_queries=tuple(pseudo_queries)))
    return corpus


def ref_load_queries(path) -> list[Query]:
    queries: list[Query] = []
    for line_no, obj in ref_read_jsonl(path):
        if not isinstance(obj, dict) or "qid" not in obj or "text" not in obj:
            raise MalformedRecord(line_no, "missing required field 'qid' or 'text'")
        if not isinstance(obj["text"], str) or not obj["text"].strip():
            raise MalformedRecord(line_no, "'text' must be a non-blank string")
        relevant = obj.get("relevant", [])
        if not _ref_is_str_list(relevant):
            raise MalformedRecord(line_no, "'relevant' must be a list of strings")
        queries.append(Query(query_id=str(obj["qid"]), text=obj["text"],
                             relevant_keys=frozenset(relevant)))
    return queries


TOY_SURFACES = {"d1": "food-apple", "d2": "tech-apple", "d3": "food-banana"}

# Extra vocabulary for scripted reasoning scenarios.
TOY_EXTRA_WORDS = ["company", "details", "fruit", "calories", "which",
                   "query", "context"]

TOY_DIST_RULES = [
    {"context": ["details"], "probs": {"tech": 0.7, "food": 0.3}},
    {"context": ["calories"], "probs": {"food": 0.9, "tech": 0.1}},
    {"context": ["food"], "probs": {"apple": 0.6, "banana": 0.4}},
    {"context": ["tech"], "probs": {"apple": 1.0}},
    {"context": ["apple"], "probs": {"<end>": 1.0}},
    {"context": ["banana"], "probs": {"<end>": 1.0}},
    {"context": [], "probs": {"food": 0.7, "tech": 0.3}},
]


@pytest.fixture
def toy_index() -> DocIdIndex:
    return make_index(TOY_SURFACES, TOY_EXTRA_WORDS)


class GenerateHandler(BaseHTTPRequestHandler):
    """A /generate endpoint on 127.0.0.1. It answers `respond(prompt,
    max_tokens)`, by default "echo: <prompt>"; *fail_5xx* and *reply* (a
    fixed status and body) override that."""
    fail_5xx = False
    reply: tuple[int, bytes] | None = None
    respond = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        if self.fail_5xx:
            self.send_response(503)
            self.end_headers()
            return
        if self.reply is not None:
            self.send_response(self.reply[0])
            self.end_headers()
            self.wfile.write(self.reply[1])
            return
        if self.path == "/generate":
            prompt = payload.get("prompt", "")
            respond = type(self).respond  # a plain function, not bound
            text = (respond(prompt, payload.get("max_tokens")) if respond
                    else "echo: " + prompt)
            body = json.dumps({"text": text})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(body.encode())
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), GenerateHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    GenerateHandler.fail_5xx = False
    GenerateHandler.reply = None
    GenerateHandler.respond = None
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """The `make_toy_data.py --docs N --seed 0` corpus, generated once per
    N."""
    script = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
              / "make_toy_data.py")
    made: dict[int, Corpus] = {}

    def get(docs: int) -> Corpus:
        if docs not in made:
            out = tmp_path_factory.mktemp(f"toy{docs}")
            subprocess.run([sys.executable, str(script), "--out", str(out),
                            "--docs", str(docs), "--seed", "0"],
                           check=True, capture_output=True)
            made[docs] = load_corpus(out / "corpus.jsonl")
        return made[docs]
    return get


def ref_train_pair(m, prompt, target):
    """Count every position of prompt||target with its own context: the
    pair-by-pair loop that batched training must match. Writes m.counts
    and nothing else."""
    seq = list(prompt) + list(target)
    for i in range(len(seq)):
        ctx = tuple(seq[max(0, i - (m.order - 1)):i])
        bucket = m.counts.setdefault(ctx, {})
        bucket[seq[i]] = bucket.get(seq[i], 0) + 1


def add_one_pair(m, ctx):
    """The (default, overrides) pair of the add-one n-gram model *m* after
    the trained context *ctx*, from m.counts alone, by the formula
    ref_logprob uses."""
    bucket = m.counts[ctx]
    total = sum(bucket.values()) + len(m.vocab)
    return math.log(1 / total), {t: math.log((c + 1) / total)
                                 for t, c in bucket.items()}


def assert_same_model(batched, ref):
    """Equal counts, in the same insertion order, and for every trained
    context the batched model's distribution equal to the add-one pair of
    the reference's counts."""
    assert batched.counts == ref.counts
    assert list(batched.counts) == list(ref.counts)
    for ctx, bucket in ref.counts.items():
        assert list(batched.counts[ctx]) == list(bucket)
        assert dist_after(batched, ctx) == add_one_pair(ref, ctx)


def dist_after(model, ctx):
    """The model's (default, overrides) after the context *ctx*, read from
    the state that start() gives for it."""
    return model.next_token_distribution(model.start(ctx))


def ref_logprob(m, prompt, target):
    """Log-probability of *target* after *prompt* under the add-one n-gram
    model *m*, from m.counts alone: each token is scored against the slice
    of prompt||target that ends before it, order - 1 tokens long or all of
    it. Never reads m's states, so it checks sequence_logprob and the beam
    from outside."""
    seq = list(prompt) + list(target)
    v = len(m.vocab)
    total = 0.0
    for i in range(len(prompt), len(seq)):
        bucket = m.counts.get(tuple(seq[max(0, i - (m.order - 1)):i]), {})
        total += math.log((bucket.get(seq[i], 0) + 1)
                          / (sum(bucket.values()) + v))
    return total


class WholeContext:
    """start and step for a test double whose state is its whole context,
    prompt included."""

    def start(self, prompt_ids):
        return tuple(prompt_ids)

    def step(self, state, token):
        return state + (token,)


class TableModel(WholeContext):
    """Deterministic pseudo-random full-vocabulary distribution per context.

    A stand-in for arbitrary scripted distributions in the oracle trials:
    the distribution over the vocabulary is a fixed function of (seed, ctx),
    and every token is an override, so no score rests on the default.
    """

    def __init__(self, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_token_distribution(self, ctx: tuple[int, ...]
                                ) -> tuple[float, dict[int, float]]:
        rng = random.Random((self.seed, ctx).__hash__())
        weights = [rng.random() + 1e-3 for _ in range(self.vocab_size)]
        total = sum(weights)
        return FLOOR_LOGPROB, {t: math.log(w / total)
                               for t, w in enumerate(weights)}


class SparseTableModel(WholeContext):
    """Deterministic pseudo-random sparse distribution per context.

    Per (seed, ctx), a random few tokens are overrides and the rest share
    the default. Scores come from a small grid, so overrides land above,
    below and on the default, and siblings and cousins tie. Nothing is
    normalised: the beam never relies on it.
    """

    GRID = tuple(math.log(k / 8) for k in range(1, 9))

    def __init__(self, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_token_distribution(self, ctx: tuple[int, ...]
                                ) -> tuple[float, dict[int, float]]:
        rng = random.Random((self.seed, ctx).__hash__())
        default = rng.choice(self.GRID)
        n = rng.randint(0, self.vocab_size // 2)
        return default, {t: rng.choice(self.GRID)
                         for t in rng.sample(range(self.vocab_size), n)}


def sorted_rows(vectors: dict[str, np.ndarray]
                ) -> tuple[list[str], np.ndarray]:
    """*vectors* as `build_rq_hierarchy` takes them, in sorted-key order as
    `build_index` hands them over: the keys, and the vectors as the rows of
    one matrix."""
    keys = sorted(vectors)
    return keys, np.stack([np.asarray(vectors[k], dtype=np.float64)
                           for k in keys])


def reconstruction_error(h: RQHierarchy, keys: list[str],
                         points: np.ndarray) -> float:
    """Mean squared residual after quantizing each row of *points* (row i
    being keys[i]'s vector) by its path centroids."""
    total = 0.0
    for key, vec in zip(keys, np.asarray(points, dtype=np.float64)):
        approx = np.zeros_like(vec)
        for node in h.path_to(key):
            approx += node.centroid
        total += float(np.sum((vec - approx) ** 2))
    return total / len(keys)


def random_record_index(rng: random.Random, n_records: int, vocab_words: int,
                        min_len: int = 1, max_len: int = 4) -> DocIdIndex:
    """Random docid corpus: surfaces drawn from a small word pool."""
    pool = [f"w{i}" for i in range(vocab_words)]
    vocab = Vocabulary()
    records = []
    seen = set()
    for i in range(n_records):
        for _ in range(50):
            length = rng.randint(min_len, max_len)
            words = [rng.choice(pool) for _ in range(length)]
            surface = "-".join(words)
            if surface not in seen:
                break
        seen.add(surface)
        toks = tuple(vocab.encode(surface, on_unknown="grow")) + (END,)
        records.append(DocIdRecord(f"d{i:03d}", toks, surface, "path"))
    vocab.freeze()
    return DocIdIndex(records, vocab)


def sep_joined(index: DocIdIndex) -> list[int]:
    """SEP || body_1 || SEP || ... || body_n || SEP, the sequence an FM
    index over the record bodies reads."""
    joined = [SEP]
    for rec in index.records:
        joined.extend(rec.tokens[:-1])
        joined.append(SEP)
    return joined


def random_dist_rules(rng, vocab):
    """Scripted distribution rules whose contexts are 0 to 3 tokens long,
    most specific first, so rules of every length fire."""
    words = [vocab.word_of(t) for t in range(2, len(vocab))] + ["<end>"]
    rules = []
    for length in (3, 2, 1, 1, 0):
        for _ in range(4 if length else 1):
            rules.append({
                "context": [rng.choice(words[:-1]) for _ in range(length)],
                "probs": {w: rng.choice((0.1, 0.25, 0.5, 1.0))
                          for w in rng.sample(words, 3)}})
    return rules


def random_text_corpus(rng: random.Random, n_docs: int,
                       vocab_words: int = 60, words_per_doc: int = 12) -> Corpus:
    pool = [f"t{i}" for i in range(vocab_words)]
    docs = []
    for i in range(n_docs):
        text = " ".join(rng.choice(pool) for _ in range(words_per_doc))
        docs.append(Document(doc_key=f"d{i:03d}", text=text))
    return Corpus(docs)


def enumerate_accepted(automaton, max_len: int):
    """DFS over the automaton: every accepted token sequence (END included)
    paired with its completing records. Independent of beam search."""
    out = []

    def walk(state, prefix):
        if len(prefix) > max_len:
            return
        allowed, end_ok = automaton.allowed(state)
        if end_ok:
            out.append((prefix + (END,), tuple(automaton.complete(state))))
        for tok in sorted(allowed):
            walk(automaton.step(state, tok), prefix + (tok,))

    walk(automaton.start(), ())
    return out
