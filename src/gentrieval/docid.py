"""Textual docid construction.

Default docids are keyword paths through a residual-quantization hierarchy:
documents are embedded (hashed bag-of-words), clustered level by level on the
residual left by ancestor centroids, one walk labels every node with its most
TF-IDF-distinctive unused term, and a document's identifier is the hyphen-join
of its labels from root to leaf. Title, distinctive-ngram, and pseudo-query
views are available for multi-view retrieval; `build_index` takes the
n-grams from the word lists the embeddings and labels read.

The tree, each node a centroid, its documents and its children, is built in
memory only, to hand each document its labels. An index file holds the
vocabulary and the docid records; older files that also carry a "hierarchy"
key still load, as the key is not read.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .corpus import END, SEP, Corpus, Vocabulary, normalize, words_of
from .errors import ConfigError, EmptyDocument, EmptyIndex, MalformedIndex

try:  # hashlib would also load _hashlib and libcrypto for the same function
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

STOPWORDS = frozenset("""
a an and are as at be but by for from has have in is it its of on or that the
this to was were will with not no you your they them their we our i he she
""".split())

VIEW_PATH = "path"
VIEW_TITLE = "title"
VIEW_NGRAM = "ngram"
VIEW_PSEUDO_QUERY = "pseudo_query"
# The views `build_index` can add to the path docids.
VIEWS = (VIEW_TITLE, VIEW_NGRAM, VIEW_PSEUDO_QUERY)
NGRAM_N, NGRAM_M = 3, 3  # the ngram view: top NGRAM_M word NGRAM_N-grams


@dataclass(frozen=True)
class DocIdRecord:
    doc_key: str
    tokens: tuple[int, ...]  # terminated by END
    surface: str
    view: str


def _embeddings(docs: list[list[str]], dim: int, seed: int) -> np.ndarray:
    """Row i is the hashed bag-of-words embedding of the words docs[i],
    L2-normalized; a row whose signs cancel to zero becomes (1, 0, ..., 0).
    Each distinct word is hashed once. Every cell is a sum of +-1.0, so the
    cells, their squares and every partial sum of those are exact integers,
    and the norms do not depend on the order they are summed in."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    salt = seed.to_bytes(8, "little")

    def code(w: str) -> int:  # 2 * bucket, plus 1 for a + sign
        val = int.from_bytes(blake2b(w.encode("utf-8"), digest_size=8,
                                     salt=salt).digest(), "little")
        return 2 * (val % dim) + ((val >> 32) & 1)
    codes = {w: code(w) for w in set(chain.from_iterable(docs))}
    lengths = np.fromiter(map(len, docs), np.intp, len(docs))
    occurrences = np.fromiter(map(codes.__getitem__, chain.from_iterable(docs)),
                              np.intp, int(lengths.sum()))
    cells = np.repeat(np.arange(0, len(docs) * dim, dim), lengths)
    cells += occurrences >> 1
    signs = 2.0 * (occurrences & 1) - 1.0
    vecs = np.bincount(cells, weights=signs,
                       minlength=len(docs) * dim).reshape(len(docs), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
    empty = norms == 0.0
    vecs[empty, 0] = 1.0
    norms[empty] = 1.0
    vecs /= norms[:, None]
    return vecs


@dataclass
class RQNode:
    centroid: np.ndarray
    doc_keys: list[str]
    children: list["RQNode"] = field(default_factory=list)


# Lloyd iterations before k-means stops without converging.
KMEANS_MAX_ITERATIONS = 25


def _exact_nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each point's nearest centroid by the exact form: the sum of the d
    squared differences, lowest index on ties. One centroid at a time, so
    no (n, k, d) temporary; each row still sums the same d contiguous
    squares, so distances match the broadcast form."""
    d2 = np.empty((len(centroids), len(points)))
    for j, c in enumerate(centroids):
        d2[j] = ((points - c) ** 2).sum(axis=1)
    return np.argmin(d2, axis=0)


def _expanded_distances(points: np.ndarray, sq_norms: np.ndarray,
                        centroids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (k, n) with |p|^2 - 2 p.c + |c|^2 from one matrix product,
    given each point's computed |p|^2, and return per point i a bound B
    with |out[j, i] - x[j, i]| <= B for every centroid j, where x is the
    distance `_exact_nearest` computes.

    With u = 2**-53 and g_m = m u / (1 - m u), a sum or dot product of m
    terms, in any order and with or without fused multiply-adds, is within
    g_m * sum|terms| of its value (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1), whatever order the BLAS picks. Let
    S = |p|^2 + |c|^2; the true distance D = |p - c|^2 is at most 2S.
    - x: each square of a rounded difference carries 3 roundings and the
      sum d - 1 more, over terms >= 0: |x - D| <= g_{d+2} D <= 2 g_{d+2} S.
    - out: |p|^2 and |c|^2 are within g_d of theirs, 2 p.c within
      2 g_d |p||c| <= g_d S (the scaling by -2 is exact), and each of the
      two additions rounds a value of size at most 2S: |out - D| <=
      2 g_d S + 4 u S.
    Together 2 g_{d+2} + 2 g_d + 4u <= 4 g_{d+3}. B takes 5 g_{d+3} times
    the computed |p|^2 + max |c|^2: the fifth g_{d+3} S exceeds the O(u^2) S
    left out above, the computed norms being up to g_d low, and the
    rounding of B. Under gradual underflow each of the at most 5d products
    also loses up to half the smallest subnormal, hence the 5d subnormals
    added. No value above overflows while S < 2**1020; a point with a
    larger S gets an infinite B. A caller's gap test needs no room of its
    own: 2B is exact, and a difference of two floats rounds to more than
    2B only if it is.
    """
    np.matmul(centroids, points.T, out=out)
    out *= -2.0
    out += sq_norms
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    out += c_sq[:, None]
    d = points.shape[1]
    u = 2.0 ** -53
    gamma = (d + 3) * u / (1 - (d + 3) * u)
    tiny = np.finfo(np.float64).smallest_subnormal
    s = sq_norms + c_sq.max()
    return np.where(s < 2.0 ** 1020, 5 * gamma * s + 5 * d * tiny, np.inf)


def _farthest_first(points: np.ndarray, k: int) -> np.ndarray:
    """k initial centres: the first point, then each time the first point
    farthest from its nearest chosen centre. Every pick writes its squared
    differences into one (n, d) buffer, which is freed on return."""
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[0]
    dists = np.full(len(points), np.inf)  # to the nearest chosen centre
    diff = np.empty_like(points)
    for j in range(1, k):
        np.subtract(points, centroids[j - 1], out=diff)
        np.square(diff, out=diff)
        np.minimum(dists, diff.sum(axis=1), out=dists)
        centroids[j] = points[int(np.argmax(dists))]
    return centroids


def _kmeans(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic k-means: farthest-point init from the first point,
    nearest-centroid assignment with lowest-index tie-break, at most
    KMEANS_MAX_ITERATIONS iterations. Returns (centroids, assignment)."""
    n = len(points)
    k = min(k, n)
    centroids = _farthest_first(points, k)
    sq_norms = np.einsum("ij,ij->i", points, points)
    # Centroid-major: min and argmin over the centroids then combine whole
    # contiguous rows instead of reducing n short k-wide rows.
    expanded = np.empty((k, n))
    cols = np.arange(n)

    # The expanded form settles a point when its runner-up is more than
    # twice the bound away, as then the exact distances order the two the
    # same way; the exact form decides the rest (ties, duplicates, near
    # ties, and non-finite values, for which the test is false).
    def nearest():
        bound = _expanded_distances(points, sq_norms, centroids, expanded)
        best = expanded.argmin(axis=0)
        best_d = expanded.min(axis=0)
        expanded[best, cols] = np.inf
        unsure = np.flatnonzero(~(expanded.min(axis=0) - best_d > 2 * bound))
        if len(unsure):
            best[unsure] = _exact_nearest(points[unsure], centroids)
        return best

    assign = None
    for _ in range(KMEANS_MAX_ITERATIONS):
        new_assign = nearest()
        if assign is None:
            moved = range(k)
        else:
            # Only a cluster that gained or lost a point has a new mean: any
            # other holds the same rows in the same order as at its last
            # update, and their mean has the same bits.
            changed = np.flatnonzero(new_assign != assign)
            if not len(changed):
                return centroids, assign
            moved = (set(assign[changed].tolist())
                     | set(new_assign[changed].tolist()))
        assign = new_assign
        for j in moved:
            members = np.compress(assign == j, points, axis=0)
            if len(members):
                # The sum and division that members.mean(axis=0) does.
                centroids[j] = np.add.reduce(members, axis=0) / len(members)
    # Not converged: the last update moved the centroids, so reassign to keep
    # the invariant that every point sits with its nearest centroid.
    return centroids, nearest()


def build_rq_hierarchy(keys: list[str], points: np.ndarray, levels: int,
                       branching: int) -> list[RQNode]:
    """Cluster the rows of *points*, row i being keys[i]'s vector, level by
    level on residuals (vector minus the sum of ancestor centroids), in the
    order given, into a tree *levels* deep, and return its roots; branching
    is clamped to the group size."""
    if levels < 1 or branching < 1 or not keys:
        raise ValueError("levels >= 1, branching >= 1, and >= 1 vector required")

    def split(group: list[str], residuals: np.ndarray,
              depth: int) -> list[RQNode]:
        centroids, assign = _kmeans(residuals, branching)
        rows: list[list[int]] = [[] for _ in centroids]
        for i, j in enumerate(assign.tolist()):
            rows[j].append(i)
        nodes = []
        for j, members in enumerate(rows):
            if members:
                node = RQNode(centroids[j].copy(), [group[i] for i in members])
                if depth < levels:
                    node.children = split(node.doc_keys,
                                          residuals[members] - centroids[j],
                                          depth + 1)
                nodes.append(node)
        return nodes

    return split(keys, np.asarray(points, dtype=np.float64), 1)


class TermStats:
    """Each document's non-stopword words and each term's corpus IDF,
    computed once from the documents' words for every node to be labeled."""

    def __init__(self, words: dict[str, list[str]]):
        self.terms = {key: [w for w in ws if w not in STOPWORDS]
                      for key, ws in words.items()}
        df = Counter(chain.from_iterable(set(ts) for ts in self.terms.values()))
        n = len(words)
        self.idf = {w: math.log((1 + n) / (1 + d)) for w, d in df.items()}


def _sorted_keys(keys: np.ndarray) -> np.ndarray:
    """*keys*, non-negative ints, sorted 16 bits at a time from the lowest.
    A stable argsort of uint16 is numpy's radix sort: its first call makes
    about 0.06 MB of code resident, np.sort's about 0.25 MB."""
    top, shift = int(keys.max()), 0
    while top >> shift:
        keys = keys[(keys >> shift).astype(np.uint16).argsort(kind="stable")]
        shift += 16
    return keys


def _run_starts(a: np.ndarray) -> np.ndarray:
    """The indices at which the runs of equal values in *a* start."""
    starts = np.empty(len(a), bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _best_terms(terms: TermStats) -> dict[str, str | None]:
    """Each document's best term, as `assign_keywords` scores a node's terms:
    the lowest (-(count * idf), term), or None for a document without
    terms. One count table serves every document: the (document, term)
    occurrences are sorted once and each run counted. The highest
    count * idf is the lowest score, each product the same single multiply
    Python does, and ties go to the term that sorts first by code point."""
    ranked = sorted(terms.idf)
    rank = {w: i for i, w in enumerate(ranked)}
    bits = len(ranked).bit_length()  # every rank is below 2 ** bits
    lengths = np.fromiter(map(len, terms.terms.values()), np.intp,
                          len(terms.terms))
    total = int(lengths.sum())
    best = dict.fromkeys(terms.terms)
    if not total:
        return best
    # Each occurrence keyed (document << bits) + term rank.
    keys = np.fromiter(
        map(rank.__getitem__, chain.from_iterable(terms.terms.values())),
        np.intp, total)
    keys += np.repeat(np.arange(0, len(lengths) << bits, 1 << bits), lengths)
    keys = _sorted_keys(keys)
    runs = _run_starts(keys)
    term = keys[runs]
    doc = term >> bits
    term &= (1 << bits) - 1
    tfidf = np.fromiter(map(terms.idf.__getitem__, ranked), np.float64,
                        len(ranked))[term]
    tfidf *= np.diff(runs, append=total)
    # A document's runs are in term order, so its first top score wins.
    heads = _run_starts(doc)
    top = np.repeat(np.maximum.reduceat(tfidf, heads),
                    np.diff(heads, append=len(doc)))
    tied = np.flatnonzero(tfidf == top)
    tied = tied[_run_starts(doc[tied])]
    docs = list(terms.terms)
    for d, t in zip(doc[tied].tolist(), term[tied].tolist()):
        best[docs[d]] = ranked[t]
    return best


def assign_keywords(roots: list[RQNode],
                    terms: TermStats) -> dict[str, list[str]]:
    """Each document's labels from root to leaf: each node's best unused
    TF-IDF term, then, in a leaf holding more than one document, the
    document's own. A term's score is (-TF-IDF, term), and the best is the
    lowest; when every term is used, the label is the best term, or "doc"
    if there is none, suffixed with the 1-based ordinal. A document's best
    term comes from one count table over all documents (`_best_terms`); a
    node's label, and a document's whose best term is used, comes from its
    own counts. A label reads only its ancestors' and earlier siblings'
    labels, so a subtree is labeled as soon as its root is."""
    idf = terms.idf

    def pick(doc_keys: list[str], used: set[str], ordinal: int) -> str:
        tf = Counter(chain.from_iterable(terms.terms[key] for key in doc_keys))
        best = min(((-(cnt * idf[w]), w) for w, cnt in tf.items()
                    if w not in used), default=None)
        if best is None:  # every term is used
            base = min(((-(cnt * idf[w]), w) for w, cnt in tf.items()),
                       default=(0.0, "doc"))
            return f"{base[1]}-{ordinal + 1}"
        return best[1]

    doc_best = _best_terms(terms)
    labels: dict[str, list[str]] = {}

    def label(siblings: list[RQNode], path: list[str]) -> None:
        taken = set(path)
        for ordinal, node in enumerate(siblings):
            here = path + [pick(node.doc_keys, taken, ordinal)]
            taken.add(here[-1])
            if node.children:
                label(node.children, here)
            elif len(node.doc_keys) == 1:
                labels[node.doc_keys[0]] = here
            else:
                used = set(here)
                for i, key in enumerate(sorted(node.doc_keys)):
                    own = doc_best[key]
                    if own is None or own in used:
                        own = pick([key], used, i)
                    used.add(own)
                    labels[key] = here + [own]

    label(roots, [])
    return labels


def path_docid(doc_key: str, labels: list[str], vocab: Vocabulary,
               label_tokens: dict[str, list[int]]) -> DocIdRecord:
    """*doc_key*'s path record: its *labels* joined by "-". Words never join
    across a "-", so the tokens are the labels' tokens in order. A label
    missing from *label_tokens* is encoded, growing *vocab*, and kept
    there."""
    tokens: list[int] = []
    for label in labels:
        toks = label_tokens.get(label)
        if toks is None:
            toks = label_tokens[label] = vocab.encode(label, on_unknown="grow")
        tokens += toks
    tokens.append(END)
    return DocIdRecord(doc_key, tuple(tokens), "-".join(labels), VIEW_PATH)


def _top_ngrams(words: dict[str, list[str]], n: int,
                m: int) -> dict[str, list[str]]:
    """Each document's m word n-grams of highest TF-IDF, ordered (TF-IDF
    desc, gram), space-joined. A gram's DF counts the documents holding
    it."""
    grams = {key: [tuple(ws[i:i + n]) for i in range(len(ws) - n + 1)]
             for key, ws in words.items()}
    df = Counter(chain.from_iterable(set(gs) for gs in grams.values()))
    idf = {g: math.log((1 + len(words)) / (1 + d)) for g, d in df.items()}

    def top(gs):
        scored = sorted((-(cnt * idf[g]), g) for g, cnt in Counter(gs).items())
        return [" ".join(g) for _, g in scored[:m]]
    return {key: top(gs) for key, gs in grams.items()}


def _record_error(rec: DocIdRecord, vocab_size: int) -> str | None:
    """What is wrong with a read record, or None: its doc_key, surface and
    view must be strings, and its tokens ids of the vocabulary, END last
    and neither END nor SEP before it."""
    for name in ("doc_key", "surface", "view"):
        if not isinstance(getattr(rec, name), str):
            return f"{name} is not a string"
    if not rec.tokens or rec.tokens[-1] != END:
        return "tokens do not end with END"
    for t in rec.tokens:
        if type(t) is not int or not 0 <= t < vocab_size:
            return f"token {t!r} is not an id of the vocabulary"
    if END in rec.tokens[:-1] or SEP in rec.tokens:
        return "END or SEP inside the tokens"
    return None


class DocIdIndex:
    """All docid records over a corpus plus the shared frozen vocabulary."""

    def __init__(self, records: list[DocIdRecord], vocab: Vocabulary):
        self.records = records
        self.vocab = vocab
        self.by_doc: dict[str, list[DocIdRecord]] = {}
        for r in records:
            self.by_doc.setdefault(r.doc_key, []).append(r)

    def _json_chunks(self):
        """The index as compact JSON, a piece at a time: the vocabulary,
        then one record per piece. Strings are escaped as json.dumps
        escapes them, and token ids are ints."""
        yield ('{"vocab":' + json.dumps(self.vocab.to_dict(),
                                        separators=(",", ":"))
               + ',"records":[')
        for i, r in enumerate(self.records):
            yield '%s{"doc_key":%s,"view":%s,"surface":%s,"tokens":[%s]}' % (
                "," if i else "", _json_str(r.doc_key), _json_str(r.view),
                _json_str(r.surface), ",".join(map(str, r.tokens)))
        yield "]}"

    def to_json(self) -> str:
        return "".join(self._json_chunks())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._json_chunks())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str | bytes) -> "DocIdIndex":
        """Parse an index written by `to_json` (as str or UTF-8 bytes);
        input of any other shape raises MalformedIndex."""
        try:
            if isinstance(text, bytes):
                text = text.decode("utf-8")
            return cls._from_obj(json.loads(text))
        except (ValueError, KeyError, IndexError, TypeError,
                AttributeError, RecursionError) as exc:
            raise MalformedIndex(
                f"malformed index: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def _from_obj(cls, obj) -> "DocIdIndex":
        vocab = Vocabulary.from_dict(obj["vocab"])
        records = [DocIdRecord(r["doc_key"], tuple(r["tokens"]), r["surface"],
                               r["view"]) for r in obj["records"]]
        for i, rec in enumerate(records):
            problem = _record_error(rec, len(vocab))
            if problem:
                raise MalformedIndex(f"malformed index: record {i} "
                                     f"({rec.doc_key!r}): {problem}")
        return cls(records, vocab)

    @classmethod
    def load(cls, path) -> "DocIdIndex":
        with open(path, "rb") as fh:
            return cls.from_json(fh.read())


def check_views(views: frozenset[str]) -> None:
    """Raise ConfigError naming each of *views* that is not in VIEWS."""
    bad = sorted(v for v in views if v not in VIEWS)
    if bad:
        raise ConfigError(f"unknown views: {', '.join(bad)}")


def build_index(corpus: Corpus, levels: int = 2, branching: int = 8,
                dim: int = 64, seed: int = 0,
                views: frozenset[str] = frozenset(),
                extra_vocab_texts: list[str] | None = None) -> DocIdIndex:
    """Build the full DocIdIndex: vocabulary, RQ path docids, optional views.

    The vocabulary grows from all corpus text (plus any extra texts, e.g.
    prompt templates) before freezing, so decoding and local models share
    one id space.
    """
    check_views(views)
    if not len(corpus):
        raise EmptyIndex("cannot build an index over an empty corpus")
    vocab = Vocabulary()
    # Each distinct word is held once, as the vocabulary's string: the word
    # lists, the term statistics and the labels all refer to it.
    interned: dict[str, str] = {}

    def intern(w: str) -> str:
        s = interned[w] = vocab.word_of(vocab.add(w))
        return s

    words: dict[str, list[str]] = {}
    for doc in corpus:
        ws = words[doc.doc_key] = [interned.get(w) or intern(w)
                                   for w in words_of(doc.text)]
        if not ws:
            raise EmptyDocument(doc.doc_key)
        if doc.title:
            vocab.encode(doc.title, on_unknown="grow")
        for pq in doc.pseudo_queries:
            vocab.encode(pq, on_unknown="grow")
    for text in extra_vocab_texts or []:
        vocab.encode(text, on_unknown="grow")

    keys = sorted(words)
    labels = assign_keywords(
        build_rq_hierarchy(keys, _embeddings([words[k] for k in keys], dim,
                                             seed),
                           levels=levels, branching=branching),
        TermStats(words))

    records: list[DocIdRecord] = []
    seen_surfaces: set[str] = set()
    label_tokens: dict[str, list[int]] = {}
    for doc in corpus:
        path = labels[doc.doc_key]
        rec = path_docid(doc.doc_key, path, vocab, label_tokens)
        if rec.surface in seen_surfaces:
            # A fallback label can join to another branch's surface (labels
            # "c", "4-2" and "c", "4", "2"); keep path surfaces unique
            # corpus-wide with a stable ordinal suffix.
            ordinal = 2
            while f"{rec.surface}-{ordinal}" in seen_surfaces:
                ordinal += 1
            rec = path_docid(doc.doc_key, path + [str(ordinal)], vocab,
                             label_tokens)
        seen_surfaces.add(rec.surface)
        records.append(rec)

    if views:
        ngrams = (_top_ngrams(words, NGRAM_N, NGRAM_M)
                  if VIEW_NGRAM in views else {})
        # Per document, in VIEWS order; a text without words makes no record.
        for doc in corpus:
            texts = {VIEW_TITLE: [doc.title or ""],
                     VIEW_NGRAM: ngrams.get(doc.doc_key, ()),
                     VIEW_PSEUDO_QUERY: doc.pseudo_queries}
            for view in (v for v in VIEWS if v in views):
                for text in texts[view]:
                    toks = vocab.encode(text, on_unknown="grow")
                    if toks:
                        records.append(DocIdRecord(
                            doc.doc_key, tuple(toks) + (END,),
                            normalize(text), view))

    vocab.freeze()
    return DocIdIndex(records, vocab)
