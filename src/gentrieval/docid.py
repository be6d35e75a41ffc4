"""Textual docid construction.

Default docids are keyword paths through a residual-quantization hierarchy:
documents are embedded (hashed bag-of-words), clustered level by level on the
residual left by ancestor centroids, every node is labeled with its most
TF-IDF-distinctive unused term, and a document's identifier is the hyphen-join
of the labels from root to leaf. Title, distinctive-ngram, and pseudo-query
views are available for multi-view retrieval.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import END, Corpus, Document, Vocabulary, normalize, words_of
from .errors import EmptyDocument, MalformedIndex, UnknownDoc

STOPWORDS = frozenset("""
a an and are as at be but by for from has have in is it its of on or that the
this to was were will with not no you your they them their we our i he she
""".split())

VIEW_PATH = "path"
VIEW_TITLE = "title"
VIEW_NGRAM = "ngram"
VIEW_PSEUDO_QUERY = "pseudo_query"


@dataclass(frozen=True)
class DocIdRecord:
    doc_key: str
    tokens: tuple[int, ...]  # terminated by END
    surface: str
    view: str


def embed_document(doc: Document, dim: int = 64, seed: int = 0) -> np.ndarray:
    """Deterministic hashed bag-of-words embedding, L2-normalized."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    words = words_of(doc.text)
    if not words:
        raise EmptyDocument(doc.doc_key)
    vec = np.zeros(dim, dtype=np.float64)
    for w in words:
        h = hashlib.blake2b(w.encode("utf-8"), digest_size=8,
                            salt=seed.to_bytes(8, "little")).digest()
        val = int.from_bytes(h, "little")
        bucket = val % dim
        sign = 1.0 if (val >> 32) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


@dataclass
class RQNode:
    node_id: int
    depth: int  # 1-based; root is virtual and not represented
    centroid: np.ndarray
    doc_keys: list[str]
    label: str | None = None
    children: list["RQNode"] = field(default_factory=list)
    # Per-document disambiguation labels, filled for leaves holding >1 docs.
    doc_labels: dict[str, str] = field(default_factory=dict)


@dataclass
class RQHierarchy:
    levels: int
    branching: int
    dim: int
    roots: list[RQNode]
    leaf_assignment: dict[str, RQNode]

    def walk(self):
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def path_to(self, doc_key: str) -> list[RQNode]:
        if doc_key not in self.leaf_assignment:
            raise UnknownDoc(doc_key)
        path: list[RQNode] = []
        nodes = self.roots
        for _ in range(self.levels):
            for node in nodes:
                if doc_key in node.doc_keys:
                    path.append(node)
                    nodes = node.children
                    break
            else:  # pragma: no cover - leaf_assignment guards this
                raise UnknownDoc(doc_key)
        return path


def _kmeans(keys: list[str], points: np.ndarray, k: int):
    """Deterministic k-means: farthest-point init from the lowest key,
    nearest-centroid assignment with lowest-index tie-break, 25 iterations."""
    n = len(keys)
    k = min(k, n)
    centers = [points[0].copy()]
    while len(centers) < k:
        dists = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
        centers.append(points[int(np.argmax(dists))].copy())
    centroids = np.stack(centers)

    def nearest():
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        return np.argmin(d2, axis=1)  # argmin takes the lowest index on ties

    assign = None
    for _ in range(25):
        new_assign = nearest()
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = points[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    # Final pass keeps the invariant: every point sits with its nearest centroid.
    return centroids, nearest()


def build_rq_hierarchy(vectors: dict[str, np.ndarray], levels: int,
                       branching: int) -> RQHierarchy:
    """Cluster vectors level by level on residuals (vector minus the sum of
    ancestor centroids); branching is clamped to the group size."""
    if levels < 1 or branching < 1 or not vectors:
        raise ValueError("levels >= 1, branching >= 1, and >= 1 vector required")
    keys = sorted(vectors)
    dim = len(next(iter(vectors.values())))
    next_id = [0]
    leaf_assignment: dict[str, RQNode] = {}

    def split(group: list[str], residuals: dict[str, np.ndarray],
              depth: int) -> list[RQNode]:
        pts = np.stack([residuals[k] for k in group])
        centroids, assign = _kmeans(group, pts, branching)
        nodes = []
        for j in range(len(centroids)):
            members = [group[i] for i in range(len(group)) if assign[i] == j]
            if not members:
                continue
            node = RQNode(node_id=next_id[0], depth=depth,
                          centroid=centroids[j].copy(), doc_keys=members)
            next_id[0] += 1
            if depth < levels:
                child_res = {m: residuals[m] - centroids[j] for m in members}
                node.children = split(members, child_res, depth + 1)
            else:
                for m in members:
                    leaf_assignment[m] = node
            nodes.append(node)
        return nodes

    roots = split(keys, {k: np.asarray(vectors[k], dtype=np.float64) for k in keys}, 1)
    return RQHierarchy(levels=levels, branching=branching, dim=dim,
                       roots=roots, leaf_assignment=leaf_assignment)


def reconstruction_error(h: RQHierarchy, vectors: dict[str, np.ndarray]) -> float:
    """Mean squared residual after quantizing each vector by its path centroids."""
    total = 0.0
    for key, vec in vectors.items():
        approx = np.zeros_like(np.asarray(vec, dtype=np.float64))
        for node in h.path_to(key):
            approx += node.centroid
        total += float(np.sum((np.asarray(vec) - approx) ** 2))
    return total / len(vectors)


def _doc_freq(corpus: Corpus) -> dict[str, int]:
    df: dict[str, int] = {}
    for doc in corpus:
        for w in set(words_of(doc.text)):
            df[w] = df.get(w, 0) + 1
    return df


def _scored_terms(doc_keys: list[str], corpus: Corpus,
                  df: dict[str, int]) -> list[str]:
    """Terms under the node ordered by TF-IDF (desc), then lexicographically."""
    tf: dict[str, int] = {}
    for key in doc_keys:
        for w in words_of(corpus[key].text):
            if w not in STOPWORDS:
                tf[w] = tf.get(w, 0) + 1
    n = len(corpus)
    scored = sorted(
        ((-(cnt * math.log((1 + n) / (1 + df.get(w, 0)))), w) for w, cnt in tf.items()))
    return [w for _, w in scored]


def assign_keywords(h: RQHierarchy, corpus: Corpus) -> RQHierarchy:
    """Label every node with its best unused TF-IDF term; leaves holding more
    than one document additionally get per-document disambiguation labels."""
    df = _doc_freq(corpus)

    def pick(candidates: list[str], used: set[str], ordinal: int) -> str:
        for term in candidates:
            if term not in used:
                return term
        base = candidates[0] if candidates else "doc"
        return f"{base}-{ordinal + 1}"

    def label_siblings(siblings: list[RQNode], ancestors: set[str]) -> None:
        taken: set[str] = set()
        for ordinal, node in enumerate(siblings):
            terms = _scored_terms(node.doc_keys, corpus, df)
            node.label = pick(terms, ancestors | taken, ordinal)
            taken.add(node.label)
        for node in siblings:
            if node.children:
                label_siblings(node.children, ancestors | {node.label})
            elif len(node.doc_keys) > 1:
                sub_taken: set[str] = set()
                for ordinal, key in enumerate(sorted(node.doc_keys)):
                    terms = _scored_terms([key], corpus, df)
                    lbl = pick(terms, ancestors | {node.label} | sub_taken, ordinal)
                    node.doc_labels[key] = lbl
                    sub_taken.add(lbl)

    label_siblings(h.roots, set())
    return h


def path_docid(doc_key: str, h: RQHierarchy, vocab: Vocabulary) -> DocIdRecord:
    path = h.path_to(doc_key)
    labels = [node.label for node in path]
    leaf = path[-1]
    if doc_key in leaf.doc_labels:
        labels.append(leaf.doc_labels[doc_key])
    surface = "-".join(labels)
    tokens = tuple(vocab.encode(surface, on_unknown="grow")) + (END,)
    return DocIdRecord(doc_key=doc_key, tokens=tokens, surface=surface,
                       view=VIEW_PATH)


class NgramScorer:
    """Corpus-level document frequencies of word n-grams, for the ngram view."""

    def __init__(self, corpus: Corpus, n: int = 3):
        self.n = n
        self.n_docs = len(corpus)
        self.df: dict[tuple[str, ...], int] = {}
        for doc in corpus:
            for g in set(self._grams(doc.text)):
                self.df[g] = self.df.get(g, 0) + 1

    def _grams(self, text: str) -> list[tuple[str, ...]]:
        ws = words_of(text)
        return [tuple(ws[i:i + self.n]) for i in range(len(ws) - self.n + 1)]

    def top_ngrams(self, text: str, m: int) -> list[str]:
        tf: dict[tuple[str, ...], int] = {}
        for g in self._grams(text):
            tf[g] = tf.get(g, 0) + 1
        scored = sorted(
            ((-(cnt * math.log((1 + self.n_docs) / (1 + self.df.get(g, 0)))), g)
             for g, cnt in tf.items()))
        return [" ".join(g) for _, g in scored[:m]]


@dataclass
class ViewConfig:
    views: frozenset[str] = frozenset()
    ngram_m: int = 3
    ngram_n: int = 3
    scorer: NgramScorer | None = None


def build_views(doc: Document, config: ViewConfig,
                vocab: Vocabulary) -> list[DocIdRecord]:
    """Title / ngram / pseudo-query records for one document; missing sources
    yield no record."""
    records: list[DocIdRecord] = []

    def make(surface: str, view: str):
        toks = vocab.encode(surface, on_unknown="grow")
        if toks:
            records.append(DocIdRecord(doc.doc_key, tuple(toks) + (END,),
                                       normalize(surface), view))

    if VIEW_TITLE in config.views and doc.title:
        make(doc.title, VIEW_TITLE)
    if VIEW_NGRAM in config.views and config.scorer is not None:
        for g in config.scorer.top_ngrams(doc.text, config.ngram_m):
            make(g, VIEW_NGRAM)
    if VIEW_PSEUDO_QUERY in config.views:
        for pq in doc.pseudo_queries:
            make(pq, VIEW_PSEUDO_QUERY)
    return records


class DocIdIndex:
    """All docid records over a corpus plus the shared frozen vocabulary."""

    def __init__(self, records: list[DocIdRecord], vocab: Vocabulary,
                 hierarchy: RQHierarchy | None = None):
        self.records = records
        self.vocab = vocab
        self.hierarchy = hierarchy
        self.by_doc: dict[str, list[DocIdRecord]] = {}
        for r in records:
            self.by_doc.setdefault(r.doc_key, []).append(r)

    def to_json(self) -> str:
        def node_dict(node: RQNode) -> dict:
            d = {"label": node.label,
                 "centroid": [float(x) for x in node.centroid],
                 "doc_keys": list(node.doc_keys)}
            if node.doc_labels:
                d["doc_labels"] = {k: node.doc_labels[k]
                                   for k in sorted(node.doc_labels)}
            if node.children:
                d["children"] = [node_dict(c) for c in node.children]
            return d

        obj = {
            "vocab": self.vocab.to_dict(),
            "records": [{"doc_key": r.doc_key, "view": r.view,
                         "surface": r.surface, "tokens": list(r.tokens)}
                        for r in self.records],
        }
        if self.hierarchy is not None:
            obj["hierarchy"] = {
                "levels": self.hierarchy.levels,
                "branching": self.hierarchy.branching,
                "dim": self.hierarchy.dim,
                "roots": [node_dict(n) for n in self.hierarchy.roots],
            }
        return json.dumps(obj, indent=None, separators=(",", ":"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "DocIdIndex":
        """Parse an index written by `to_json`; input of any other shape
        raises MalformedIndex."""
        try:
            return cls._from_obj(json.loads(text))
        except (ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            raise MalformedIndex(
                f"malformed index: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def _from_obj(cls, obj) -> "DocIdIndex":
        vocab = Vocabulary.from_dict(obj["vocab"])
        records = [DocIdRecord(r["doc_key"], tuple(r["tokens"]), r["surface"],
                               r["view"]) for r in obj["records"]]
        hierarchy = None
        if "hierarchy" in obj:
            hobj = obj["hierarchy"]
            next_id = [0]
            leaf_assignment: dict[str, RQNode] = {}

            def node_of(d: dict, depth: int) -> RQNode:
                node = RQNode(node_id=next_id[0], depth=depth,
                              centroid=np.asarray(d["centroid"]),
                              doc_keys=list(d["doc_keys"]), label=d["label"],
                              doc_labels=dict(d.get("doc_labels", {})))
                next_id[0] += 1
                node.children = [node_of(c, depth + 1)
                                 for c in d.get("children", [])]
                if not node.children:
                    for k in node.doc_keys:
                        leaf_assignment[k] = node
                return node

            roots = [node_of(n, 1) for n in hobj["roots"]]
            hierarchy = RQHierarchy(levels=hobj["levels"],
                                    branching=hobj["branching"],
                                    dim=hobj["dim"], roots=roots,
                                    leaf_assignment=leaf_assignment)
        return cls(records, vocab, hierarchy)

    @classmethod
    def load(cls, path) -> "DocIdIndex":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def build_index(corpus: Corpus, levels: int = 2, branching: int = 8,
                dim: int = 64, seed: int = 0,
                views: frozenset[str] = frozenset(),
                ngram_m: int = 3, ngram_n: int = 3,
                extra_vocab_texts: list[str] | None = None) -> DocIdIndex:
    """Build the full DocIdIndex: vocabulary, RQ path docids, optional views.

    The vocabulary ingests all corpus text (plus any extra texts, e.g. prompt
    templates) before freezing, so decoding and local models share one id
    space.
    """
    if not len(corpus):
        return DocIdIndex([], Vocabulary(), None)
    vocab = Vocabulary()
    for doc in corpus:
        vocab.ingest(doc.text)
        if doc.title:
            vocab.ingest(doc.title)
        for pq in doc.pseudo_queries:
            vocab.ingest(pq)
    for text in extra_vocab_texts or []:
        vocab.ingest(text)

    vectors = {doc.doc_key: embed_document(doc, dim=dim, seed=seed)
               for doc in corpus}
    hierarchy = assign_keywords(
        build_rq_hierarchy(vectors, levels=levels, branching=branching), corpus)

    records: list[DocIdRecord] = []
    seen_surfaces: set[str] = set()
    for doc in corpus:
        rec = path_docid(doc.doc_key, hierarchy, vocab)
        if rec.surface in seen_surfaces:
            # Label fallbacks can in principle collide across branches; keep
            # path surfaces unique corpus-wide with a stable ordinal suffix.
            ordinal = 2
            while f"{rec.surface}-{ordinal}" in seen_surfaces:
                ordinal += 1
            surface = f"{rec.surface}-{ordinal}"
            rec = DocIdRecord(doc.doc_key,
                              tuple(vocab.encode(surface, on_unknown="grow")) + (END,),
                              surface, VIEW_PATH)
        seen_surfaces.add(rec.surface)
        records.append(rec)

    if views:
        scorer = NgramScorer(corpus, n=ngram_n) if VIEW_NGRAM in views else None
        cfg = ViewConfig(views=views, ngram_m=ngram_m, ngram_n=ngram_n,
                         scorer=scorer)
        for doc in corpus:
            records.extend(build_views(doc, cfg, vocab))

    vocab.freeze()
    return DocIdIndex(records, vocab, hierarchy)
