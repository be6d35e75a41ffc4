import random

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gentrieval.corpus import END, Corpus, Document, Vocabulary
from gentrieval.docid import (DocIdIndex, NgramScorer, RQNode, ViewConfig,
                              assign_keywords, build_index, build_rq_hierarchy,
                              build_views, embed_document, path_docid,
                              reconstruction_error)
from gentrieval.errors import EmptyDocument, MalformedIndex, UnknownDoc

from conftest import JSON_VALUES, random_text_corpus


def _some_of(fields: dict) -> st.SearchStrategy:
    """Objects with any subset of *fields*, each either of the expected
    shape or any JSON value."""
    return st.fixed_dictionaries({}, optional={
        k: v | JSON_VALUES for k, v in fields.items()})


_NODE_FIELDS = {
    "label": st.text(max_size=3),
    "centroid": st.lists(st.floats(-1, 1), max_size=3),
    "doc_keys": st.lists(st.text(max_size=3), max_size=2),
    "doc_labels": st.dictionaries(st.text(max_size=3), st.text(max_size=3),
                                  max_size=2),
}
_NODES = st.recursive(
    _some_of(_NODE_FIELDS),
    lambda children: _some_of({**_NODE_FIELDS,
                               "children": st.lists(children, max_size=2)}),
    max_leaves=4)
# Index documents of nearly the shape to_json writes.
INDEX_TEXTS = st.text(max_size=20) | _some_of({
    "vocab": st.dictionaries(st.integers(0, 5).map(str), st.text(max_size=3),
                             max_size=3),
    "records": st.lists(_some_of({
        "doc_key": st.text(max_size=3), "view": st.just("path"),
        "surface": st.text(max_size=3),
        "tokens": st.lists(st.integers(0, 5), max_size=3)}), max_size=3),
    "hierarchy": _some_of({"levels": st.integers(0, 3),
                           "branching": st.integers(0, 3),
                           "dim": st.integers(0, 3),
                           "roots": st.lists(_NODES, max_size=2)}),
}).map(json.dumps)


class TestEmbedding:
    def test_identical_text_identical_vector(self):
        a = embed_document(Document("a", "apple pie recipe"), dim=16)
        b = embed_document(Document("b", "apple pie recipe"), dim=16)
        assert np.array_equal(a, b)

    def test_normalized(self):
        v = embed_document(Document("a", "some words here"), dim=32)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            embed_document(Document("a", "!!!"), dim=16)

    def test_disjoint_words_mostly_dissimilar(self):
        rng = random.Random(7)
        below = 0
        for _ in range(100):
            wa = [f"a{rng.randint(0, 5000)}" for _ in range(10)]
            wb = [f"b{rng.randint(0, 5000)}" for _ in range(10)]
            va = embed_document(Document("a", " ".join(wa)), dim=64)
            vb = embed_document(Document("b", " ".join(wb)), dim=64)
            if abs(float(va @ vb)) < 0.5:
                below += 1
        assert below >= 95

    def test_seed_changes_embedding(self):
        doc = Document("a", "apple pie recipe")
        assert not np.array_equal(embed_document(doc, seed=0),
                                  embed_document(doc, seed=1))


class TestRQHierarchy:
    def test_two_well_separated_clusters(self):
        # Brute force over all 2-partitions of these four points gives the
        # unique k-means optimum: centroids 0.5 and 10.5.
        vectors = {"d1": np.array([0.0]), "d2": np.array([1.0]),
                   "d3": np.array([10.0]), "d4": np.array([11.0])}
        h = build_rq_hierarchy(vectors, levels=1, branching=2)
        groups = sorted(sorted(n.doc_keys) for n in h.roots)
        assert groups == [["d1", "d2"], ["d3", "d4"]]
        centroids = sorted(float(n.centroid[0]) for n in h.roots)
        assert centroids == pytest.approx([0.5, 10.5])

    def test_single_cluster_mean(self):
        vectors = {"d1": np.array([1.0, 0.0]), "d2": np.array([3.0, 2.0])}
        h = build_rq_hierarchy(vectors, levels=1, branching=1)
        assert len(h.roots) == 1
        assert h.roots[0].centroid == pytest.approx([2.0, 1.0])

    def test_branching_clamped(self):
        vectors = {"d1": np.array([0.0]), "d2": np.array([5.0])}
        h = build_rq_hierarchy(vectors, levels=1, branching=8)
        assert len(h.roots) == 2

    def test_every_doc_assigned_once(self):
        rng = np.random.default_rng(3)
        vectors = {f"d{i}": rng.normal(size=8) for i in range(30)}
        h = build_rq_hierarchy(vectors, levels=2, branching=3)
        assert set(h.leaf_assignment) == set(vectors)

    def test_assignment_is_nearest_centroid(self):
        rng = np.random.default_rng(11)
        vectors = {f"d{i:02d}": rng.normal(size=4) for i in range(40)}
        h = build_rq_hierarchy(vectors, levels=2, branching=4)
        for key, vec in vectors.items():
            residual = np.asarray(vec, dtype=float)
            siblings = h.roots
            for node in h.path_to(key):
                dists = {n.node_id: float(np.sum((residual - n.centroid) ** 2))
                         for n in siblings}
                assert dists[node.node_id] == pytest.approx(min(dists.values()))
                residual = residual - node.centroid
                siblings = node.children

    def test_residual_monotone_in_levels(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            vectors = {f"d{i:02d}": rng.normal(size=6)
                       for i in range(rng.integers(8, 40))}
            errs = [reconstruction_error(
                build_rq_hierarchy(vectors, levels=lv, branching=3), vectors)
                for lv in (1, 2, 3)]
            assert errs[0] >= errs[1] - 1e-9
            assert errs[1] >= errs[2] - 1e-9

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(9)
        vectors = {f"d{i}": rng.normal(size=4) for i in range(20)}
        h1 = build_rq_hierarchy(vectors, levels=2, branching=3)
        h2 = build_rq_hierarchy(vectors, levels=2, branching=3)
        a1 = {k: v.node_id for k, v in h1.leaf_assignment.items()}
        a2 = {k: v.node_id for k, v in h2.leaf_assignment.items()}
        assert a1 == a2


def two_sibling_hierarchy(groups: list[list[str]]) -> "RQHierarchy":
    from gentrieval.docid import RQHierarchy
    roots = []
    leaf = {}
    for i, g in enumerate(groups):
        node = RQNode(node_id=i, depth=1, centroid=np.zeros(2), doc_keys=list(g))
        for k in g:
            leaf[k] = node
        roots.append(node)
    return RQHierarchy(levels=1, branching=len(groups), dim=2, roots=roots,
                       leaf_assignment=leaf)


class TestKeywords:
    def test_tfidf_label(self):
        # Node A terms: fruit tf=3 idf=log(4/3) -> 0.863 beats nutrition's
        # 1*log(4/2) = 0.693; computed by hand.
        corpus = Corpus([
            Document("d1", "apple fruit nutrition fruit"),
            Document("d2", "banana fruit recipes"),
            Document("d3", "tech gadget apple banana"),
        ])
        h = assign_keywords(two_sibling_hierarchy([["d1", "d2"], ["d3"]]), corpus)
        assert h.roots[0].label == "fruit"

    def test_sibling_collision_next_best(self):
        corpus = Corpus([
            Document("d1", "zebra zebra zebra apple"),
            Document("d2", "zebra zebra zebra banana"),
            Document("d3", "filler words"),
        ])
        h = assign_keywords(
            two_sibling_hierarchy([["d1"], ["d2"], ["d3"]]), corpus)
        assert h.roots[0].label == "zebra"
        assert h.roots[1].label != "zebra"
        assert h.roots[1].label == "banana"

    def test_exhaustion_fallback(self):
        corpus = Corpus([Document("d1", "apple"), Document("d2", "apple")])
        h = assign_keywords(two_sibling_hierarchy([["d1"], ["d2"]]), corpus)
        assert h.roots[0].label == "apple"
        assert h.roots[1].label == "apple-2"

    def test_stopwords_excluded(self):
        corpus = Corpus([Document("d1", "the the the orchard")])
        h = assign_keywords(two_sibling_hierarchy([["d1"]]), corpus)
        assert h.roots[0].label == "orchard"


class TestPathDocid:
    def test_surface_join_and_tokens(self):
        corpus = Corpus([
            Document("d1", "apple fruit nutrition fruit"),
            Document("d2", "banana fruit recipes"),
            Document("d3", "tech gadget apple banana"),
        ])
        h = assign_keywords(two_sibling_hierarchy([["d1", "d2"], ["d3"]]), corpus)
        vocab = Vocabulary()
        rec = path_docid("d3", h, vocab)
        assert rec.surface == h.roots[1].label
        assert rec.tokens[-1] == END
        assert vocab.decode(list(rec.tokens)) == rec.surface.replace("-", " ")

    def test_shared_leaf_disambiguated(self):
        corpus = Corpus([Document("d1", "apple pie"), Document("d2", "apple tart")])
        h = assign_keywords(two_sibling_hierarchy([["d1", "d2"]]), corpus)
        vocab = Vocabulary()
        r1 = path_docid("d1", h, vocab)
        r2 = path_docid("d2", h, vocab)
        assert r1.surface != r2.surface
        assert r1.surface.startswith(h.roots[0].label + "-")

    def test_unknown_doc(self):
        h = two_sibling_hierarchy([["d1"]])
        with pytest.raises(UnknownDoc):
            path_docid("nope", h, Vocabulary())


class TestViews:
    def make_corpus(self):
        return Corpus([
            Document("d1", "apple fruit nutrition facts", title="Apple Inc.",
                     pseudo_queries=("how many calories", "is apple healthy")),
            Document("d2", "apple fruit recipes"),
            Document("d3", "tech phone specs"),
        ])

    def test_title_view(self):
        corpus = self.make_corpus()
        cfg = ViewConfig(views=frozenset({"title"}))
        recs = build_views(corpus["d1"], cfg, Vocabulary())
        assert len(recs) == 1
        assert recs[0].view == "title"
        assert recs[0].surface == "apple inc"

    def test_missing_title_no_record(self):
        cfg = ViewConfig(views=frozenset({"title"}))
        assert build_views(Document("d", "x y"), cfg, Vocabulary()) == []

    def test_pseudo_query_count(self):
        corpus = self.make_corpus()
        cfg = ViewConfig(views=frozenset({"pseudo_query"}))
        recs = build_views(corpus["d1"], cfg, Vocabulary())
        assert len(recs) == 2

    def test_top_bigram(self):
        # (fruit, nutrition) and (nutrition, facts) tie on TF-IDF; the
        # lexicographically smaller bigram wins.
        corpus = self.make_corpus()
        cfg = ViewConfig(views=frozenset({"ngram"}), ngram_m=1, ngram_n=2,
                         scorer=NgramScorer(corpus, n=2))
        recs = build_views(corpus["d1"], cfg, Vocabulary())
        assert [r.surface for r in recs] == ["fruit nutrition"]


class TestIndexBuild:
    def test_path_surfaces_unique(self):
        rng = random.Random(0)
        for trial in range(20):
            corpus = random_text_corpus(rng, rng.randint(5, 40))
            index = build_index(corpus, levels=2, branching=4, dim=16)
            surfaces = [r.surface for r in index.records if r.view == "path"]
            assert len(surfaces) == len(set(surfaces))
            assert len(surfaces) == len(corpus)

    def test_serialization_byte_identical(self):
        rng = random.Random(1)
        corpus = random_text_corpus(rng, 25)
        a = build_index(corpus, levels=2, branching=3, dim=16).to_json()
        b = build_index(corpus, levels=2, branching=3, dim=16).to_json()
        assert a == b

    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(2)
        corpus = random_text_corpus(rng, 15)
        index = build_index(corpus, levels=2, branching=3, dim=16,
                            views=frozenset({"ngram"}))
        path = tmp_path / "idx.json"
        index.save(path)
        loaded = DocIdIndex.load(path)
        assert [r.surface for r in loaded.records] == \
               [r.surface for r in index.records]
        assert loaded.to_json() == index.to_json()
        assert loaded.vocab.frozen

    @pytest.mark.parametrize("text", ['{"vocab": {}}', "not json", "[]",
                                      '{"vocab": {}, "records": [5]}'])
    def test_malformed_index_rejected(self, text):
        with pytest.raises(MalformedIndex):
            DocIdIndex.from_json(text)

    @given(text=INDEX_TEXTS)
    @example(text='{"vocab": {}}')
    def test_from_json_raises_only_malformed_index(self, text):
        try:
            DocIdIndex.from_json(text)
        except MalformedIndex:
            pass

    def test_every_doc_has_record(self):
        rng = random.Random(3)
        corpus = random_text_corpus(rng, 12)
        index = build_index(corpus, levels=1, branching=4, dim=8)
        assert set(index.by_doc) == set(c.doc_key for c in corpus)
