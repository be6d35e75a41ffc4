"""Shared fixtures: the three-record toy index, scripted rule tables, and
random-corpus helpers used by the oracle tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import strategies as st

from gentrieval.corpus import END, Corpus, Document, Vocabulary
from gentrieval.docid import DocIdIndex, DocIdRecord


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


class TableModel:
    """Deterministic pseudo-random full-vocabulary distribution per context.

    A stand-in for arbitrary scripted distributions in the oracle trials:
    the distribution over the vocabulary is a fixed function of (seed, ctx).
    """

    def __init__(self, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_token_distribution(self, ctx: list[int]) -> dict[int, float]:
        rng = random.Random((self.seed, tuple(ctx)).__hash__())
        weights = [rng.random() + 1e-3 for _ in range(self.vocab_size)]
        total = sum(weights)
        return {t: math.log(w / total) for t, w in enumerate(weights)}


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
