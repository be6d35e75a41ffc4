import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gentrieval import docid
from gentrieval.corpus import (END, SEP, Corpus, Document, Vocabulary,
                               words_of)
from gentrieval.docid import (NGRAM_M, NGRAM_N, STOPWORDS, VIEWS, DocIdIndex,
                              DocIdRecord, RQHierarchy, RQNode, TermStats,
                              assign_keywords, build_index,
                              build_rq_hierarchy, path_docid)
from gentrieval.errors import (ConfigError, EmptyDocument, EmptyIndex,
                               MalformedIndex, UnknownDoc)

from conftest import (DEEP_JSON, JSON_VALUES, TOY_SURFACES, make_index,
                      random_text_corpus, reconstruction_error, sorted_rows)


def _some_of(fields: dict) -> st.SearchStrategy:
    """Objects with any subset of *fields*, each either of the expected
    shape or any JSON value."""
    return st.fixed_dictionaries({}, optional={
        k: v | JSON_VALUES for k, v in fields.items()})


# Index documents of nearly the shape to_json writes.
INDEX_TEXTS = st.text(max_size=20) | _some_of({
    "vocab": st.dictionaries(st.integers(0, 5).map(str), st.text(max_size=3),
                             max_size=3),
    "records": st.lists(_some_of({
        "doc_key": st.text(max_size=3), "view": st.just("path"),
        "surface": st.text(max_size=3),
        "tokens": st.lists(st.integers(0, 5), max_size=3)}), max_size=3),
    # Written by older builds; ignored on load.
    "hierarchy": JSON_VALUES,
}).map(json.dumps)


# sha256 of build_index(corpus).to_json() with the default build settings,
# for `make_toy_data.py --docs N --seed 0`.
TOY_INDEX_SHA256 = {
    400: "c6939fce9dc7e1f89bf280a2248a639a7a29f2684eb4d0741321f145b4cdb953",
    1000: "f93dc3ab688d69bdc007564e3a4b77624e68e4db4f97954ac8ced3719fcf387d",
    2000: "2e20a3767f8f0df2143fbc90eea0f1258db2dde016546b99a1cce6f3fe7f126d",
}
# The same for `--docs 1000` built with levels=3, branching=4: labels three
# levels deep, one leaf holding a single document, and document labels
# that fall back to "term-N".
DEEP_TOY_INDEX_SHA256 = \
    "6b585eca7129d29bfced380395452537dc061a0f5407dc99128f0d52a3efdd09"


def embed(text: str, dim: int = 64, seed: int = 0) -> np.ndarray:
    """The build's embedding of one document's text."""
    return docid._embeddings([words_of(text)], dim, seed)[0]


class TestEmbedding:
    def test_identical_text_identical_vector(self):
        a = embed("apple pie recipe", dim=16)
        b = embed("apple pie recipe", dim=16)
        assert np.array_equal(a, b)

    def test_normalized(self):
        v = embed("some words here", dim=32)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_disjoint_words_mostly_dissimilar(self):
        rng = random.Random(7)
        below = 0
        for _ in range(100):
            wa = [f"a{rng.randint(0, 5000)}" for _ in range(10)]
            wb = [f"b{rng.randint(0, 5000)}" for _ in range(10)]
            va = embed(" ".join(wa), dim=64)
            vb = embed(" ".join(wb), dim=64)
            if abs(float(va @ vb)) < 0.5:
                below += 1
        assert below >= 95

    def test_seed_changes_embedding(self):
        assert not np.array_equal(embed("apple pie recipe", seed=0),
                                  embed("apple pie recipe", seed=1))


class TestRQHierarchy:
    def test_two_well_separated_clusters(self):
        # Brute force over all 2-partitions of these four points gives the
        # unique k-means optimum: centroids 0.5 and 10.5.
        vectors = {"d1": np.array([0.0]), "d2": np.array([1.0]),
                   "d3": np.array([10.0]), "d4": np.array([11.0])}
        h = build_rq_hierarchy(*sorted_rows(vectors), levels=1, branching=2)
        groups = sorted(sorted(n.doc_keys) for n in h.roots)
        assert groups == [["d1", "d2"], ["d3", "d4"]]
        centroids = sorted(float(n.centroid[0]) for n in h.roots)
        assert centroids == pytest.approx([0.5, 10.5])

    def test_single_cluster_mean(self):
        vectors = {"d1": np.array([1.0, 0.0]), "d2": np.array([3.0, 2.0])}
        h = build_rq_hierarchy(*sorted_rows(vectors), levels=1, branching=1)
        assert len(h.roots) == 1
        assert h.roots[0].centroid == pytest.approx([2.0, 1.0])

    def test_branching_clamped(self):
        vectors = {"d1": np.array([0.0]), "d2": np.array([5.0])}
        h = build_rq_hierarchy(*sorted_rows(vectors), levels=1, branching=8)
        assert len(h.roots) == 2

    def test_every_doc_assigned_once(self):
        rng = np.random.default_rng(3)
        vectors = {f"d{i}": rng.normal(size=8) for i in range(30)}
        h = build_rq_hierarchy(*sorted_rows(vectors), levels=2, branching=3)
        assert set(h.paths) == set(vectors)

    def test_assignment_is_nearest_centroid(self):
        rng = np.random.default_rng(11)
        vectors = {f"d{i:02d}": rng.normal(size=4) for i in range(40)}
        h = build_rq_hierarchy(*sorted_rows(vectors), levels=2, branching=4)
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
            rows = sorted_rows(vectors)
            errs = [reconstruction_error(
                build_rq_hierarchy(*rows, levels=lv, branching=3), *rows)
                for lv in (1, 2, 3)]
            assert errs[0] >= errs[1] - 1e-9
            assert errs[1] >= errs[2] - 1e-9

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(9)
        vectors = {f"d{i}": rng.normal(size=4) for i in range(20)}
        h1 = build_rq_hierarchy(*sorted_rows(vectors), levels=2, branching=3)
        h2 = build_rq_hierarchy(*sorted_rows(vectors), levels=2, branching=3)
        a1 = {k: v[-1].node_id for k, v in h1.paths.items()}
        a2 = {k: v[-1].node_id for k, v in h2.paths.items()}
        assert a1 == a2


def two_sibling_hierarchy(groups: list[list[str]]) -> RQHierarchy:
    roots = []
    paths = {}
    for i, g in enumerate(groups):
        node = RQNode(node_id=i, centroid=np.zeros(2), doc_keys=list(g))
        for k in g:
            paths[k] = (node,)
        roots.append(node)
    return RQHierarchy(levels=1, roots=roots, paths=paths)


def terms_of(corpus: Corpus) -> TermStats:
    return TermStats({doc.doc_key: words_of(doc.text) for doc in corpus})


class TestKeywords:
    def test_tfidf_label(self):
        # Node A terms: fruit tf=3 idf=log(4/3) -> 0.863 beats nutrition's
        # 1*log(4/2) = 0.693; computed by hand.
        corpus = Corpus([
            Document("d1", "apple fruit nutrition fruit"),
            Document("d2", "banana fruit recipes"),
            Document("d3", "tech gadget apple banana"),
        ])
        h = assign_keywords(two_sibling_hierarchy([["d1", "d2"], ["d3"]]),
                            terms_of(corpus))
        assert h.roots[0].label == "fruit"

    def test_sibling_collision_next_best(self):
        corpus = Corpus([
            Document("d1", "zebra zebra zebra apple"),
            Document("d2", "zebra zebra zebra banana"),
            Document("d3", "filler words"),
        ])
        h = assign_keywords(
            two_sibling_hierarchy([["d1"], ["d2"], ["d3"]]), terms_of(corpus))
        assert h.roots[0].label == "zebra"
        assert h.roots[1].label != "zebra"
        assert h.roots[1].label == "banana"

    def test_exhaustion_fallback(self):
        corpus = Corpus([Document("d1", "apple"), Document("d2", "apple")])
        h = assign_keywords(two_sibling_hierarchy([["d1"], ["d2"]]),
                            terms_of(corpus))
        assert h.roots[0].label == "apple"
        assert h.roots[1].label == "apple-2"

    def test_no_terms_fallback(self):
        # A node of stopwords only has no term: "doc" and its ordinal.
        corpus = Corpus([Document("d1", "apple"), Document("d2", "the of")])
        h = assign_keywords(two_sibling_hierarchy([["d1"], ["d2"]]),
                            terms_of(corpus))
        assert [n.label for n in h.roots] == ["apple", "doc-2"]

    def test_stopwords_excluded(self):
        corpus = Corpus([Document("d1", "the the the orchard")])
        h = assign_keywords(two_sibling_hierarchy([["d1"]]),
                            terms_of(corpus))
        assert h.roots[0].label == "orchard"


# Words whose code-point order is neither their UTF-8 nor their UTF-16
# order, stopwords, and any short text.
TERM_WORDS = st.sampled_from(["e", "z", "é", "ω", "東京", "\uffff",
                              "\U0001f600", "the", "of"]) | st.text(
    min_size=1, max_size=2)
# Words that words_of gives back as they are.
TEXT_WORDS = st.sampled_from(["e", "z", "é", "ω", "東京", "x1", "the", "of"])


@st.composite
def term_lists(draw, words=TERM_WORDS) -> dict[str, list[str]]:
    """Documents' word lists; in half of them one term is in every
    document, so its IDF is 0 and its scores are -0.0."""
    docs = {f"d{i:02d}": draw(st.lists(words, max_size=8))
            for i in range(draw(st.integers(1, 12)))}
    if draw(st.booleans()):
        for ws in docs.values():
            ws.append("every")
    return docs


def counter_best(terms: TermStats, key: str) -> str | None:
    """The document's lowest (-(count * idf), term), from a Counter."""
    tf = Counter(terms.terms[key])
    return min(((-(cnt * terms.idf[w]), w) for w, cnt in tf.items()),
               default=(0.0, None))[1]


class TestLabelTable:
    @given(term_lists())
    # Equal scores, ordered by code point; a document without terms.
    @example({"d0": ["b", "a", "b", "a"], "d1": ["é", "e", "z"],
              "d2": ["\U0001f600", "\uffff"], "d3": ["the", "of"]})
    # Only -0.0 scores: "aa" wins on code point, whatever the counts.
    @example({"d0": ["zz", "zz", "aa"], "d1": ["zz", "aa"]})
    def test_best_terms_match_counter(self, words):
        terms = TermStats(words)
        assert docid._best_terms(terms) == {
            key: counter_best(terms, key) for key in words}

    @given(st.data(), term_lists(TEXT_WORDS), st.sampled_from([1, 2, 3]),
           st.integers(1, 3))
    def test_labels_match_reference(self, data, words, levels, branching):
        # Few distinct points, so leaves hold several documents.
        corpus = Corpus([Document(key, " ".join(ws) or "the")
                         for key, ws in words.items()])
        points = np.array(data.draw(st.lists(
            st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 3.0)]),
            min_size=len(words), max_size=len(words))))

        def hierarchy():
            return build_rq_hierarchy(sorted(words), points, levels,
                                      branching)
        got = assign_keywords(hierarchy(), terms_of(corpus))
        assert tree_of(got) == tree_of(ref_assign_keywords(hierarchy(),
                                                           corpus))

    def test_taken_and_missing_best_terms(self):
        # The leaf takes "apple". d1's best term is then taken, so it gets
        # its next; every term of d2 is taken, and d3 has none.
        corpus = Corpus([Document("d1", "apple apple pear"),
                         Document("d2", "apple"), Document("d3", "the of")])

        def hierarchy():
            return two_sibling_hierarchy([["d1", "d2", "d3"]])
        got = assign_keywords(hierarchy(), terms_of(corpus))
        assert got.roots[0].label == "apple"
        assert got.roots[0].doc_labels == {"d1": "pear", "d2": "apple-2",
                                           "d3": "doc-3"}
        assert tree_of(got) == tree_of(ref_assign_keywords(hierarchy(),
                                                           corpus))

    @pytest.mark.parametrize("top", [0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 40,
                                     2 ** 62])
    def test_sorted_keys(self, top):
        keys = np.random.default_rng(top % 97).integers(0, top + 1, size=300)
        assert np.array_equal(docid._sorted_keys(keys), np.sort(keys))


class TestPathDocid:
    def test_surface_join_and_tokens(self):
        corpus = Corpus([
            Document("d1", "apple fruit nutrition fruit"),
            Document("d2", "banana fruit recipes"),
            Document("d3", "tech gadget apple banana"),
        ])
        h = assign_keywords(two_sibling_hierarchy([["d1", "d2"], ["d3"]]),
                            terms_of(corpus))
        vocab = Vocabulary()
        rec = path_docid("d3", h, vocab, {})
        assert rec.surface == h.roots[1].label
        assert rec.tokens[-1] == END
        assert vocab.decode(list(rec.tokens)) == rec.surface.replace("-", " ")

    def test_shared_leaf_disambiguated(self):
        corpus = Corpus([Document("d1", "apple pie"), Document("d2", "apple tart")])
        h = assign_keywords(two_sibling_hierarchy([["d1", "d2"]]),
                            terms_of(corpus))
        vocab = Vocabulary()
        label_tokens = {}
        r1 = path_docid("d1", h, vocab, label_tokens)
        r2 = path_docid("d2", h, vocab, label_tokens)
        assert r1.surface != r2.surface
        assert r1.surface.startswith(h.roots[0].label + "-")

    def test_unknown_doc(self):
        h = two_sibling_hierarchy([["d1"]])
        with pytest.raises(UnknownDoc):
            path_docid("nope", h, Vocabulary(), {})

    def test_each_label_encoded_once(self, monkeypatch):
        # However many path records share a label, the build encodes it
        # once; test_tokens_spell_surface checks what the records hold.
        encoded = []
        encode = Vocabulary.encode

        def counted(self, text, on_unknown):
            encoded.append(text)
            return encode(self, text, on_unknown)
        monkeypatch.setattr(Vocabulary, "encode", counted)
        corpus = random_text_corpus(random.Random(13), 60, vocab_words=12,
                                    words_per_doc=4)
        index = build_index(corpus, levels=2, branching=3)
        assert sorted(encoded) == sorted(set(encoded))
        assert len(encoded) < len(index.records)

    def test_tokens_spell_surface(self):
        # Every record's tokens are its surface's words, fallback labels
        # ("t3-2", "doc-1") and collision suffixes included.
        rng = random.Random(12)
        fallbacks = 0
        for trial in range(40):
            corpus = random_text_corpus(rng, rng.randint(1, 40),
                                        vocab_words=rng.randint(1, 8),
                                        words_per_doc=rng.randint(1, 4))
            index = build_index(corpus, levels=rng.randint(1, 3),
                                branching=rng.randint(1, 6))
            for rec in index.records:
                assert rec.tokens == tuple(index.vocab.encode(
                    rec.surface, on_unknown="grow")) + (END,)
                # A number before the last word is a fallback label's
                # ("t3-2", "doc-1"), not a collision suffix.
                words = words_of(rec.surface)
                fallbacks += any(w.isdigit() for w in words[:-1])
        assert fallbacks


class TestViews:
    def make_corpus(self):
        return Corpus([
            Document("d1", "apple fruit nutrition facts", title="Apple Inc.",
                     pseudo_queries=("how many calories", "is apple healthy")),
            Document("d2", "apple fruit recipes", title="?!"),
            Document("d3", "tech phone specs"),
        ])

    def views_of(self, views, **kwargs):
        index = build_index(self.make_corpus(), views=frozenset(views),
                            **kwargs)
        return [(r.doc_key, r.view, r.surface) for r in index.records
                if r.view != "path"]

    def test_title_view(self):
        # d2's title has no words and d3 has none: neither makes a record.
        assert self.views_of({"title"}) == [("d1", "title", "apple inc")]

    def test_pseudo_query_view(self):
        assert self.views_of({"pseudo_query"}) == [
            ("d1", "pseudo_query", "how many calories"),
            ("d1", "pseudo_query", "is apple healthy")]

    def test_top_bigram(self):
        # (fruit, nutrition) and (nutrition, facts) tie on TF-IDF; the
        # lexicographically smaller bigram wins.
        words = {d.doc_key: words_of(d.text) for d in self.make_corpus()}
        assert docid._top_ngrams(words, 2, 1)["d1"] == ["fruit nutrition"]

    def test_order_within_a_document(self):
        # Per document: title, then n-grams, then pseudo-queries. d1 has
        # two trigrams, d2 and d3 one each.
        got = self.views_of(VIEWS)
        assert [v for key, v, _ in got if key == "d1"] == [
            "title", "ngram", "ngram", "pseudo_query", "pseudo_query"]
        assert [key for key, _, _ in got] == ["d1"] * 5 + ["d2", "d3"]

    @pytest.mark.parametrize("views", [(), ("title",), ("pseudo_query",)])
    def test_no_ngram_pass_without_ngram_view(self, monkeypatch, views):
        def refuse(*args):
            raise AssertionError("n-gram pass without the ngram view")
        monkeypatch.setattr(docid, "_top_ngrams", refuse)
        build_index(self.make_corpus(), views=frozenset(views))

    def test_ngram_records_match_reference(self):
        rng = random.Random(17)
        for trial in range(40):
            corpus = random_view_corpus(rng, rng.randint(1, 25))
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            views = frozenset(rng.sample(VIEWS, rng.randint(1, len(VIEWS))))
            index = build_index(corpus, levels=1, branching=4, dim=8,
                                views=views)
            got = [r for r in index.records if r.view != "path"]
            assert got == ref_view_records(corpus, views, NGRAM_N, NGRAM_M,
                                           index.vocab)
            # Other sizes, through the n-gram pass that build_index calls.
            words = {doc.doc_key: words_of(doc.text) for doc in corpus}
            assert docid._top_ngrams(words, n, m) == {
                doc.doc_key: ref_top_ngrams(corpus, n, doc.text, m)
                for doc in corpus}


def random_view_corpus(rng: random.Random, n_docs: int) -> Corpus:
    """Documents of few, mixed-case words with punctuation, so n-grams
    repeat within and across documents and some documents are shorter
    than n; titles and pseudo-queries are at times missing or wordless."""
    pool = ["Apple", "apple", "fruit", "x", "the", "Nutrition", "B2", "phone"]

    def text(lo, hi):
        return rng.choice([" ", ", ", "-", "! "]).join(
            rng.choice(pool) for _ in range(rng.randint(lo, hi)))
    return Corpus([
        Document(f"d{i}", text(1, 10),
                 title=rng.choice([None, "", "?!", text(1, 3)]),
                 pseudo_queries=tuple(rng.choice(["...", text(1, 4)])
                                      for _ in range(rng.randint(0, 2))))
        for i in range(n_docs)])


def ref_top_ngrams(corpus: Corpus, n: int, text: str, m: int) -> list[str]:
    """The top-m n-grams of *text* by TF-IDF over *corpus*, as the ngram
    view first scored them: one df pass over every document's own word
    list, then a tf pass over *text*."""
    def grams(t):
        ws = words_of(t)
        return [tuple(ws[i:i + n]) for i in range(len(ws) - n + 1)]
    df = {}
    for doc in corpus:
        for g in set(grams(doc.text)):
            df[g] = df.get(g, 0) + 1
    tf = {}
    for g in grams(text):
        tf[g] = tf.get(g, 0) + 1
    scored = sorted(
        (-(cnt * math.log((1 + len(corpus)) / (1 + df.get(g, 0)))), g)
        for g, cnt in tf.items())
    return [" ".join(g) for _, g in scored[:m]]


def ref_view_records(corpus: Corpus, views, n: int, m: int,
                     vocab: Vocabulary) -> list[DocIdRecord]:
    """Per document in corpus order: its title, top n-gram and
    pseudo-query records, each only if its source has words."""
    out = []
    for doc in corpus:
        texts = []
        if "title" in views and doc.title:
            texts.append(("title", doc.title))
        if "ngram" in views:
            texts += [("ngram", g)
                      for g in ref_top_ngrams(corpus, n, doc.text, m)]
        if "pseudo_query" in views:
            texts += [("pseudo_query", pq) for pq in doc.pseudo_queries]
        for view, t in texts:
            toks = vocab.encode(t, on_unknown="skip")
            if toks:
                out.append(DocIdRecord(doc.doc_key, tuple(toks) + (END,),
                                       " ".join(words_of(t)), view))
    return out


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
        assert list(json.loads(index.to_json())) == ["vocab", "records"]

    def test_file_with_hierarchy_loads(self):
        # Older builds also wrote the RQ tree under "hierarchy"; such a file
        # loads to the same index as one without the key.
        text = make_index(TOY_SURFACES).to_json()
        obj = json.loads(text)
        obj["hierarchy"] = {"levels": 1, "branching": 2, "dim": 2, "roots": [
            {"label": "food", "centroid": [0.5, -0.5],
             "doc_keys": ["d1", "d3"],
             "doc_labels": {"d1": "apple", "d3": "banana"}},
            {"label": "tech", "centroid": [-0.5, 0.5], "doc_keys": ["d2"]}]}
        assert DocIdIndex.from_json(json.dumps(obj)).to_json() == text

    @pytest.mark.parametrize("text", ['{"vocab": {}}', "not json", "[]",
                                      '{"vocab": {}, "records": [5]}'])
    def test_malformed_index_rejected(self, text):
        with pytest.raises(MalformedIndex):
            DocIdIndex.from_json(text)

    @pytest.mark.parametrize("edit, problem", [
        # A gap: the last id moved to 99.
        (lambda v: v.update({"99": v.pop(str(len(v) - 1))}),
         r"key '99' is not an id in 0 \.\. 5"),
        # A zero-padded key that int() would read as 5.
        (lambda v: v.update({"05": v.pop("5")}), r"key '05' is not an id"),
        (lambda v: v.update({"3": v["2"]}), r"word '\w+' has ids 2 and 3"),
        (lambda v: v.update({"2": 7}), r"word of id 2 is not a string: 7"),
        (lambda v: v.update({"0": "<sep>", "1": "<end>"}),
         r"ids 0 and 1 must be '<end>' and '<sep>'"),
        (lambda v: v.update({"1": "apple!"}),
         r"ids 0 and 1 must be '<end>' and '<sep>'")])
    def test_bad_vocab_rejected(self, edit, problem):
        obj = json.loads(make_index(TOY_SURFACES).to_json())
        edit(obj["vocab"])
        with pytest.raises(MalformedIndex,
                           match=r"malformed index: vocab " + problem):
            DocIdIndex.from_json(json.dumps(obj))

    @given(text=INDEX_TEXTS)
    @example(text='{"vocab": {}}')
    def test_from_json_raises_only_malformed_index(self, text):
        try:
            DocIdIndex.from_json(text)
        except MalformedIndex:
            pass

    def test_from_json_nested_too_deep(self):
        with pytest.raises(MalformedIndex, match="RecursionError"):
            DocIdIndex.from_json(DEEP_JSON)

    @pytest.mark.parametrize("tokens, problem", [
        ([], "tokens do not end with END"),
        ([2, 3], "tokens do not end with END"),
        ([2, END, 3, END], "END or SEP inside"),
        ([2, SEP, 3, END], "END or SEP inside"),
        ([SEP, END], "END or SEP inside"),
        ([2, 138, END], "token 138 is not an id"),
        ([-1, END], "token -1 is not an id"),
        (["a", END], "token 'a' is not an id"),
        ([2.0, END], "token 2.0 is not an id"),
        ([True, END], "token True is not an id")])
    def test_bad_record_tokens_rejected(self, tokens, problem):
        obj = json.loads(make_index(TOY_SURFACES).to_json())
        obj["records"][1]["tokens"] = tokens
        with pytest.raises(MalformedIndex, match="record 1 .'d2'.: "
                           + problem):
            DocIdIndex.from_json(json.dumps(obj))

    @pytest.mark.parametrize("field", ["doc_key", "surface", "view"])
    @pytest.mark.parametrize("value", [5, None, ["d2"]])
    def test_non_string_field_rejected(self, field, value):
        # Such a field would reach dedup_rank's sort, which compares
        # surfaces and doc keys.
        obj = json.loads(make_index(TOY_SURFACES).to_json())
        obj["records"][1][field] = value
        with pytest.raises(MalformedIndex,
                           match=rf"record 1 \(.*\): {field} is not a string"):
            DocIdIndex.from_json(json.dumps(obj))

    def test_body_free_record_loads(self):
        # END alone is a well-formed, if empty, identifier.
        obj = json.loads(make_index(TOY_SURFACES).to_json())
        obj["records"][0]["tokens"] = [END]
        assert DocIdIndex.from_json(json.dumps(obj)).records[0].tokens == (
            END,)

    @pytest.mark.parametrize("docs", sorted(TOY_INDEX_SHA256))
    def test_toy_index_bytes_pinned(self, toy_corpus, docs):
        text = build_index(toy_corpus(docs)).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            TOY_INDEX_SHA256[docs]

    def test_deep_toy_index_bytes_pinned(self, toy_corpus):
        text = build_index(toy_corpus(1000), levels=3, branching=4).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            DEEP_TOY_INDEX_SHA256

    @pytest.mark.parametrize("records", ["built", "none", "escaped"])
    def test_save_writes_to_json_and_newline(self, tmp_path, records):
        if records == "escaped":
            index = make_index({'d"\\é': "café-naïve", "\u2028\t": "x"})
        else:
            index = build_index(random_text_corpus(random.Random(5), 20),
                                views=frozenset({"ngram"}))
            if records == "none":
                index = DocIdIndex([], index.vocab)
        text = index.to_json()
        # The whole index in one json.dumps call writes the same bytes.
        assert text == json.dumps(
            {"vocab": index.vocab.to_dict(),
             "records": [{"doc_key": r.doc_key, "view": r.view,
                          "surface": r.surface, "tokens": list(r.tokens)}
                         for r in index.records]}, separators=(",", ":"))
        index.save(tmp_path / "i.json")
        assert (tmp_path / "i.json").read_bytes() == \
            (text + "\n").encode("utf-8")

    def test_build_peak_memory(self, toy_corpus):
        # Three embedding matrices' worth: the matrix itself, k-means' init
        # buffer, and room for the rest. A second matrix held while the
        # tree is built, or a string per word occurrence, exceeds it.
        corpus, dim = toy_corpus(2000), 64
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            build_index(corpus, dim=dim)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(corpus) * dim * 8

    def test_empty_document_named_in_corpus_order(self):
        corpus = Corpus([Document("d1", "apple pie"), Document("zz", "!!!"),
                         Document("aa", "?"), Document("d2", "banana")])
        with pytest.raises(EmptyDocument,
                           match="document 'zz' has no words to embed"):
            build_index(corpus)

    def test_empty_corpus_refused(self):
        with pytest.raises(EmptyIndex, match="empty corpus"):
            build_index(Corpus([]))

    @pytest.mark.parametrize("corpus", [
        Corpus([Document("d1", "apple fruit")]), Corpus([])])
    def test_unknown_view_refused(self, corpus):
        # Checked before the corpus is: the empty corpus names the view too.
        with pytest.raises(ConfigError) as exc:
            build_index(corpus, views=frozenset({"titel", "title"}))
        assert str(exc.value) == "unknown views: titel"

    def test_every_doc_has_record(self):
        rng = random.Random(3)
        corpus = random_text_corpus(rng, 12)
        index = build_index(corpus, levels=1, branching=4, dim=8)
        assert set(index.by_doc) == set(c.doc_key for c in corpus)


# --------------------------------------------------------------------------
# Reference implementations: the straightforward forms of the build steps,
# kept here as oracles that the one-pass build must match exactly.

def ref_embed_words(words: list[str], dim: int, seed: int) -> np.ndarray:
    """Hash every word occurrence and add it into a fresh vector; a vector
    that stays zero, as an empty one does, becomes (1, 0, ..., 0)."""
    vec = np.zeros(dim, dtype=np.float64)
    for w in words:
        h = hashlib.blake2b(w.encode("utf-8"), digest_size=8,
                            salt=seed.to_bytes(8, "little")).digest()
        val = int.from_bytes(h, "little")
        vec[val % dim] += 1.0 if (val >> 32) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def ref_assign_keywords(h: RQHierarchy, corpus: Corpus) -> RQHierarchy:
    """Sort each node's terms in full (`ref_scored_terms`) and take the
    first one that no ancestor and no earlier sibling holds; when all are
    held, the first term, or "doc" if there is none, with the node's
    1-based ordinal. Siblings are labeled before their children, and a
    leaf's documents in key order, each unlike the leaf's ancestors, the
    leaf and the documents before it."""
    def pick(candidates: list[str], used: set[str], ordinal: int) -> str:
        for term in candidates:
            if term not in used:
                return term
        return f"{candidates[0] if candidates else 'doc'}-{ordinal + 1}"

    def label_siblings(siblings: list[RQNode], ancestors: set[str]) -> None:
        taken = set(ancestors)
        for ordinal, node in enumerate(siblings):
            node.label = pick(ref_scored_terms(node.doc_keys, corpus), taken,
                              ordinal)
            taken.add(node.label)
        for node in siblings:
            if node.children:
                label_siblings(node.children, ancestors | {node.label})
            elif len(node.doc_keys) > 1:
                used = ancestors | {node.label}
                for ordinal, key in enumerate(sorted(node.doc_keys)):
                    node.doc_labels[key] = pick(ref_scored_terms([key], corpus),
                                                used, ordinal)
                    used.add(node.doc_labels[key])

    label_siblings(h.roots, set())
    return h


def ref_path_docid(doc_key: str, h: RQHierarchy, vocab: Vocabulary,
                   label_tokens: dict) -> DocIdRecord:
    """Join the path's labels and encode the whole surface; *label_tokens*
    is not read."""
    path = h.path_to(doc_key)
    labels = [node.label for node in path]
    if doc_key in path[-1].doc_labels:
        labels.append(path[-1].doc_labels[doc_key])
    surface = "-".join(labels)
    return DocIdRecord(doc_key,
                       tuple(vocab.encode(surface, on_unknown="grow")) + (END,),
                       surface, "path")


def ref_kmeans(points: np.ndarray, k: int, max_iterations: int):
    """Farthest-point init recomputing every centre's distances, (n, k, d)
    broadcast assignment, and a nearest() after the loop on every exit."""
    n = len(points)
    k = min(k, n)
    centers = [points[0].copy()]
    while len(centers) < k:
        dists = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
        centers.append(points[int(np.argmax(dists))].copy())
    centroids = np.stack(centers)

    def nearest():
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        return np.argmin(d2, axis=1)

    assign = None
    for _ in range(max_iterations):
        new_assign = nearest()
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = points[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids, nearest()


def ref_build_rq_hierarchy(keys: list[str], points: np.ndarray, levels: int,
                           branching: int) -> RQHierarchy:
    """Split each group by scanning the assignment once per cluster, keeping
    residuals per document, from the documents in sorted-key order whatever
    order the rows come in. The hierarchy records no paths."""
    vectors = dict(zip(keys, points))
    keys = sorted(vectors)
    next_id = [0]

    def split(group, residuals, depth):
        pts = np.stack([residuals[k] for k in group])
        centroids, assign = docid._kmeans(pts, branching)
        nodes = []
        for j in range(len(centroids)):
            members = [group[i] for i in range(len(group)) if assign[i] == j]
            if not members:
                continue
            node = RQNode(node_id=next_id[0], centroid=centroids[j].copy(),
                          doc_keys=members)
            next_id[0] += 1
            if depth < levels:
                child_res = {m: residuals[m] - centroids[j] for m in members}
                node.children = split(members, child_res, depth + 1)
            nodes.append(node)
        return nodes

    roots = split(keys, {k: np.asarray(vectors[k], dtype=np.float64)
                         for k in keys}, 1)
    return RQHierarchy(levels=levels, roots=roots, paths={})


def ref_path_to(h: RQHierarchy, doc_key: str) -> list[RQNode]:
    """Descend level by level to the first node listing the document."""
    path: list[RQNode] = []
    nodes = h.roots
    for _ in range(h.levels):
        for node in nodes:
            if doc_key in node.doc_keys:
                path.append(node)
                nodes = node.children
                break
        else:
            raise UnknownDoc(doc_key)
    return path


def ref_scored_terms(doc_keys: list[str], corpus: Corpus) -> list[str]:
    """Re-tokenize the corpus for document frequencies and every document
    under the node for term counts, computing each IDF where it is used."""
    df: dict[str, int] = {}
    for doc in corpus:
        for w in set(words_of(doc.text)):
            df[w] = df.get(w, 0) + 1
    tf: dict[str, int] = {}
    for key in doc_keys:
        for w in words_of(corpus[key].text):
            if w not in STOPWORDS:
                tf[w] = tf.get(w, 0) + 1
    n = len(corpus)
    scored = sorted((-(cnt * math.log((1 + n) / (1 + df.get(w, 0)))), w)
                    for w, cnt in tf.items())
    return [w for _, w in scored]


def random_points(rng: np.random.Generator) -> np.ndarray:
    """Points with many exact duplicates (a few distinct rows repeated),
    so the init repeats centres and some clusters come out empty."""
    n = int(rng.integers(1, 40))
    dim = int(rng.integers(1, 6))
    if rng.integers(2):
        pool = rng.normal(size=(int(rng.integers(1, 4)), dim))
        return pool[rng.integers(len(pool), size=n)]
    return rng.normal(size=(n, dim))


def wide_points(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Points of width *dim* at a random scale, plus near ties (midpoints
    of pairs of rows) and exact duplicates, shuffled."""
    n = int(rng.integers(2, 40))
    pts = rng.normal(size=(n, dim)) * 10.0 ** int(rng.integers(-3, 4))
    pairs = rng.integers(n, size=(int(rng.integers(0, n)), 2))
    mids = (pts[pairs[:, 0]] + pts[pairs[:, 1]]) / 2
    dups = pts[rng.integers(n, size=int(rng.integers(0, n)))]
    return rng.permutation(np.concatenate([pts, mids, dups]))


def tie_points() -> list[tuple[np.ndarray, int]]:
    """(points, k) cases with exact ties. Coordinates are small integers,
    so both distance forms are exact and tied distances compare equal."""
    v = np.arange(1.0, 9.0)
    cross = np.concatenate([2 * np.eye(8), -2 * np.eye(8), np.zeros((1, 8))])
    return [
        # The midpoint of the two init centres ties between them.
        (np.stack([0 * v, 2 * v, v]), 2),
        (np.stack([0 * v, 2 * v, v, v, 3 * v]), 3),
        # Duplicated rows: the init repeats the first point as a centre.
        (np.stack([v] * 4 + [-v] * 2), 4),
        (np.stack([v] * 3 + [-v] * 3 + [0 * v] * 2), 8),
        # The cross's 16 points are the centres; the origin is as near to
        # each.
        (cross, 16),
        (np.concatenate([cross, cross]), 16),
    ]


def count_exact_calls(monkeypatch) -> list[int]:
    """Count the rows that k-means hands to the exact form."""
    rows = [0]
    exact = docid._exact_nearest

    def counted(points, centroids):
        rows[0] += len(points)
        return exact(points, centroids)
    monkeypatch.setattr(docid, "_exact_nearest", counted)
    return rows


def tree_of(h: RQHierarchy) -> list:
    """Every node's label, centroid (as exact float hex), doc keys, doc
    labels and children, nested as the tree is."""
    def walk(node: RQNode) -> tuple:
        return (node.label, [x.hex() for x in node.centroid.tolist()],
                node.doc_keys, node.doc_labels,
                [walk(c) for c in node.children])
    return [walk(n) for n in h.roots]


def build_with_references(monkeypatch, build, corpus=None):
    """Run *build* with embedding, clustering, path lookup and path record
    encoding swapped for the reference implementations, and, given the
    *corpus*, labeling too."""
    cap = docid.KMEANS_MAX_ITERATIONS

    def embeddings(docs, dim, seed):
        return np.stack([ref_embed_words(words, dim, seed) for words in docs])

    with monkeypatch.context() as m:
        m.setattr(docid, "_embeddings", embeddings)
        m.setattr(docid, "_kmeans", lambda pts, k: ref_kmeans(pts, k, cap))
        m.setattr(docid, "build_rq_hierarchy", ref_build_rq_hierarchy)
        m.setattr(RQHierarchy, "path_to", ref_path_to)
        m.setattr(docid, "path_docid", ref_path_docid)
        if corpus is not None:
            m.setattr(docid, "assign_keywords",
                      lambda h, terms: ref_assign_keywords(h, corpus))
        return build()


class TestMatchesReference:
    @pytest.mark.parametrize("cap", [1, 2, 3, 25])
    def test_kmeans(self, monkeypatch, cap):
        monkeypatch.setattr(docid, "KMEANS_MAX_ITERATIONS", cap)
        rng = np.random.default_rng(cap)
        for _ in range(150):
            points = random_points(rng)
            k = int(rng.integers(1, 8))
            got_c, got_a = docid._kmeans(points, k)
            want_c, want_a = ref_kmeans(points, k, cap)
            assert np.array_equal(got_c, want_c)
            assert np.array_equal(got_a, want_a)

    def test_kmeans_cap_reached_reassigns(self, monkeypatch):
        # Init picks 0 and 20; 9 joins centre 0 and the 11s centre 1. The
        # one update moves the centres to 4.5 and 13.25, and 9 is then
        # nearer centre 1: the returned assignment must say so.
        monkeypatch.setattr(docid, "KMEANS_MAX_ITERATIONS", 1)
        points = np.array([[0.0], [9.0], [11.0], [11.0], [11.0], [20.0]])
        centroids, assign = docid._kmeans(points, 2)
        assert centroids.tolist() == [[4.5], [13.25]]
        assert assign.tolist() == [0, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("cap", [2, 25])
    def test_kmeans_wide(self, monkeypatch, cap):
        monkeypatch.setattr(docid, "KMEANS_MAX_ITERATIONS", cap)
        exact_rows = count_exact_calls(monkeypatch)
        rng = np.random.default_rng(100 + cap)
        for dim in (8, 9, 16, 31, 64):
            for _ in range(20):
                points = wide_points(rng, dim)
                k = int(rng.integers(1, 17))
                got_c, got_a = docid._kmeans(points, k)
                want_c, want_a = ref_kmeans(points, k, cap)
                assert np.array_equal(got_c, want_c)
                assert np.array_equal(got_a, want_a)
        assert exact_rows[0] > 0

    def test_kmeans_widest(self):
        # The --dim cap.
        rng = np.random.default_rng(4096)
        points = wide_points(rng, 4096)
        got_c, got_a = docid._kmeans(points, 16)
        want_c, want_a = ref_kmeans(points, 16, docid.KMEANS_MAX_ITERATIONS)
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_a, want_a)

    @pytest.mark.parametrize("case", range(len(tie_points())))
    def test_kmeans_exact_ties(self, monkeypatch, case):
        exact_rows = count_exact_calls(monkeypatch)
        points, k = tie_points()[case]
        got_c, got_a = docid._kmeans(points, k)
        want_c, want_a = ref_kmeans(points, k, docid.KMEANS_MAX_ITERATIONS)
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_a, want_a)
        assert exact_rows[0] > 0

    def test_kmeans_huge_values(self, monkeypatch):
        # |p|^2 + max |c|^2 past 2**1020, where the expanded form could
        # overflow: the exact form assigns every point, at least at first.
        exact_rows = count_exact_calls(monkeypatch)
        points = np.random.default_rng(5).normal(size=(20, 8)) * 1e153
        got_c, got_a = docid._kmeans(points, 3)
        want_c, want_a = ref_kmeans(points, 3, docid.KMEANS_MAX_ITERATIONS)
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_a, want_a)
        assert exact_rows[0] >= len(points)

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_kmeans_within_bound(self, monkeypatch, adversarial):
        # Any expanded distances within the returned bound of the exact
        # ones give the exact assignment: here the exact distances are
        # moved by up to the bound, or by all of it against the winner.
        rng = np.random.default_rng(7)
        expanded = docid._expanded_distances

        def perturbed(points, sq_norms, centroids, out):
            bound = expanded(points, sq_norms, centroids, out)
            exact = np.stack([((points - c) ** 2).sum(axis=1)
                              for c in centroids])
            if adversarial:
                shift = np.full(out.shape, -1.0)
                shift[exact.argmin(axis=0), np.arange(len(points))] = 1.0
            else:
                shift = rng.uniform(-1.0, 1.0, size=out.shape)
            # One step back toward the exact value undoes the rounding of
            # the sum, so the move stays within the bound.
            out[:] = np.nextafter(exact + shift * bound, exact)
            assert np.all(np.abs(out - exact) <= bound)
            return bound
        monkeypatch.setattr(docid, "_expanded_distances", perturbed)
        cases = tie_points() + [(wide_points(rng, dim), int(rng.integers(2, 17)))
                                for dim in (8, 16, 64) for _ in range(10)]
        for points, k in cases:
            got_c, got_a = docid._kmeans(points, k)
            want_c, want_a = ref_kmeans(points, k, docid.KMEANS_MAX_ITERATIONS)
            assert np.array_equal(got_c, want_c)
            assert np.array_equal(got_a, want_a)

    def test_embeddings(self):
        # Rows of random words, plus empty rows and rows whose signs cancel
        # (two words in one cell with opposite signs), at random places.
        rng = random.Random(4)
        cancelling = 0
        for trial in range(30):
            corpus = random_text_corpus(rng, rng.randint(1, 20),
                                        vocab_words=rng.randint(1, 30),
                                        words_per_doc=rng.randint(1, 6))
            dim, seed = rng.choice([2, 3, 16, 64]), rng.choice([0, 1, 2**63])
            docs = [words_of(d.text) for d in corpus]
            pool = sorted({w for ws in docs for w in ws} | {"x", "y", "z"})
            single = {w: ref_embed_words([w], dim, seed) for w in pool}
            opposite = [[a, b] for a in pool for b in pool
                        if np.array_equal(single[a], -single[b])]
            extras = [[]] + opposite[:1] + [2 * p for p in opposite[1:2]]
            cancelling += len(extras) - 1
            for extra in extras:
                docs.insert(rng.randint(0, len(docs)), extra)
            rows = docid._embeddings(docs, dim, seed)
            assert rows.shape == (len(docs), dim)
            for words, row in zip(docs, rows):
                assert np.array_equal(row, ref_embed_words(words, dim, seed))
        assert cancelling > 0

    def test_hierarchy_and_paths(self, monkeypatch):
        rng = np.random.default_rng(8)
        for cap in (1, 25):
            monkeypatch.setattr(docid, "KMEANS_MAX_ITERATIONS", cap)
            for trial in range(40):
                points = random_points(rng)
                keys = [f"d{i:02d}" for i in range(len(points))]
                levels = int(rng.integers(1, 4))
                # Above the group size as often as not.
                branching = int(rng.integers(1, 2 * len(points) + 2))

                got = build_rq_hierarchy(keys, points, levels, branching)
                want = build_with_references(
                    monkeypatch,
                    lambda: docid.build_rq_hierarchy(keys, points, levels,
                                                     branching))
                assert got.levels == want.levels
                assert tree_of(got) == tree_of(want)
                for key in [*keys, "nope"]:
                    self.assert_same_path(got, key)

    @staticmethod
    def assert_same_path(h: RQHierarchy, key: str) -> None:
        try:
            want = [n.node_id for n in ref_path_to(h, key)]
        except UnknownDoc:
            with pytest.raises(UnknownDoc):
                h.path_to(key)
            return
        assert [n.node_id for n in h.path_to(key)] == want

    def test_scored_terms(self):
        # Every node label and leaf document label is the first term of its
        # documents' `ref_scored_terms` not already used, or the fallback.
        rng = random.Random(6)
        labels = fallbacks = 0
        for trial in range(10):
            corpus = random_text_corpus(rng, rng.randint(2, 30),
                                        vocab_words=rng.randint(3, 40))
            corpus.append(Document("stop", "the and of " + corpus["d000"].text))
            corpus.append(Document("stop-only", "the and of"))

            def hierarchy():
                return build_rq_hierarchy(
                    *sorted_rows({d.doc_key: embed(d.text, dim=8)
                                  for d in corpus}), levels=2, branching=3)
            got = assign_keywords(hierarchy(), terms_of(corpus))
            assert tree_of(got) == tree_of(ref_assign_keywords(hierarchy(),
                                                               corpus))
            nodes = got.roots + [c for n in got.roots for c in n.children]
            for lbl in chain([n.label for n in nodes],
                             *(n.doc_labels.values() for n in nodes)):
                labels += 1
                fallbacks += "-" in lbl
        assert fallbacks and labels > fallbacks

    def test_index_json(self, monkeypatch, tmp_path):
        rng = random.Random(9)
        for trial in range(25):
            docs = list(random_text_corpus(rng, rng.randint(1, 40),
                                           vocab_words=rng.randint(2, 40),
                                           words_per_doc=rng.randint(1, 12)))
            # Corpus order apart from sorted-key order.
            rng.shuffle(docs)
            corpus = Corpus(docs)
            kwargs = dict(levels=rng.randint(1, 3),
                          branching=rng.randint(1, 12),
                          dim=rng.choice([2, 8, 16]), seed=rng.randint(0, 3),
                          views=rng.choice([frozenset(),
                                            frozenset({"ngram"})]))

            def build():
                return build_index(corpus, **kwargs)
            got = build()
            assert got.to_json() == build_with_references(
                monkeypatch, build, corpus).to_json()
            got.save(tmp_path / "i.json")
            assert DocIdIndex.load(tmp_path / "i.json").to_json() == \
                got.to_json()

    def test_index_json_non_ascii(self, monkeypatch):
        # Words whose lowercasing depends on context (a final sigma) or
        # grows (the dotted I): the labels' tokens still spell what the
        # whole surface encodes to.
        rng = random.Random(10)
        pool = ["ΟΔΟΣ", "Σοφία", "straße", "İstanbul", "ǅemal", "ﬁle",
                "naïve", "東京"]
        corpus = Corpus([Document(f"d{i:02d}", " ".join(
            rng.choice(pool) for _ in range(4))) for i in range(30)])

        def build():
            return build_index(corpus, levels=2, branching=3)
        assert build().to_json() == build_with_references(
            monkeypatch, build, corpus).to_json()
