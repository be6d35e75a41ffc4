import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gentrieval.corpus import (END, SEP, Corpus, Document, Vocabulary,
                               load_corpus, load_queries, normalize, words_of)
from gentrieval.errors import (DuplicateKey, GentrievalError, MalformedRecord,
                               VocabularyFrozen)

from conftest import JSON_VALUES

# One line of a JSONL file: free text, any JSON value, or an object with
# some of the fields either loader reads, each holding any JSON value.
LINES = (st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\r\n"), max_size=20)
         | JSON_VALUES.map(json.dumps)
         | st.fixed_dictionaries({}, optional={
             field: JSON_VALUES | st.text(min_size=1, max_size=5)
             | st.lists(st.text(max_size=3), max_size=2)
             for field in ("id", "qid", "text", "title", "pseudo_queries",
                           "relevant")}).map(json.dumps))


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadCorpus:
    def test_load_order_and_by_key(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "text": "one"},
                        {"id": "d2", "text": "two"},
                        {"id": "d3", "text": "three"}])
        corpus = load_corpus(p)
        assert len(corpus) == 3
        assert corpus.by_key["d2"] == 1
        assert [d.doc_key for d in corpus] == ["d1", "d2", "d3"]

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "text": "a"}, {"id": "d1", "text": "b"}])
        with pytest.raises(DuplicateKey) as exc:
            load_corpus(p)
        assert exc.value.doc_key == "d1"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert len(load_corpus(p)) == 0

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "d1", "text": "ok"}\nnot json\n')
        with pytest.raises(MalformedRecord) as exc:
            load_corpus(p)
        assert exc.value.line_no == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1"}])
        with pytest.raises(MalformedRecord):
            load_corpus(p)

    def test_optional_fields(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "text": "body", "title": "T",
                         "pseudo_queries": ["q1", "q2"]}])
        doc = load_corpus(p)["d1"]
        assert doc.title == "T"
        assert doc.pseudo_queries == ("q1", "q2")

    def test_two_loads_identical(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "text": "alpha beta"},
                        {"id": "d2", "text": "gamma"}])
        a, b = load_corpus(p), load_corpus(p)
        assert [d.doc_key for d in a] == [d.doc_key for d in b]
        assert a.by_key == b.by_key


class TestLoadQueries:
    def test_basic(self, tmp_path):
        p = tmp_path / "q.jsonl"
        write_jsonl(p, [{"qid": "q1", "text": "hello", "relevant": ["d1"]}])
        qs = load_queries(p)
        assert qs[0].query_id == "q1"
        assert qs[0].relevant_keys == frozenset({"d1"})

    def test_missing_text(self, tmp_path):
        p = tmp_path / "q.jsonl"
        write_jsonl(p, [{"qid": "q1"}])
        with pytest.raises(MalformedRecord):
            load_queries(p)

    @pytest.mark.parametrize("row", [
        5, {"qid": "q1", "text": 5},
        {"qid": "q1", "text": "hello", "relevant": "d1"},
        {"qid": "q1", "text": "hello", "relevant": [1]}])
    def test_wrong_types_rejected(self, tmp_path, row):
        p = tmp_path / "q.jsonl"
        write_jsonl(p, [row])
        with pytest.raises(MalformedRecord):
            load_queries(p)


class TestLoaderContract:
    """Whatever a line holds, a loader returns or raises a toolkit error."""

    @pytest.mark.parametrize("row", [
        {"id": "d1", "text": "body", "title": 7},
        {"id": "d1", "text": "body", "pseudo_queries": 5},
        {"id": "d1", "text": "body", "pseudo_queries": [["q"]]}])
    def test_corpus_wrong_types_rejected(self, tmp_path, row):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [row])
        with pytest.raises(MalformedRecord):
            load_corpus(p)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(LINES, max_size=4))
    @example(lines=["5"])
    @example(lines=['{"qid": "q1", "text": "a", "relevant": 5}'])
    @example(lines=['{"id": "d1", "text": "a", "pseudo_queries": 5}'])
    def test_only_toolkit_errors_escape(self, tmp_path, lines):
        p = tmp_path / "lines.jsonl"
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for loader in (load_queries, load_corpus):
            try:
                loader(p)
            except GentrievalError:
                pass


class TestTokenizer:
    def test_basic_split(self):
        v = Vocabulary()
        ids = v.encode("Apple iPhone", on_unknown="grow")
        assert len(ids) == 2
        assert [v.word_of(i) for i in ids] == ["apple", "iphone"]

    def test_empty(self):
        assert Vocabulary().encode("", on_unknown="grow") == []

    def test_hyphen_boundary(self):
        v = Vocabulary()
        ids = v.encode("food-apple", on_unknown="grow")
        assert [v.word_of(i) for i in ids] == ["food", "apple"]

    def test_reserved_never_produced(self):
        v = Vocabulary()
        ids = v.encode("end sep <end> <sep>", on_unknown="grow")
        assert END not in ids and SEP not in ids

    def test_frozen_raises(self):
        v = Vocabulary()
        v.encode("known", on_unknown="grow")
        v.freeze()
        assert v.encode("known") == [2]
        with pytest.raises(VocabularyFrozen):
            v.encode("unknown")

    def test_skip_mode(self):
        v = Vocabulary()
        v.encode("known", on_unknown="grow")
        v.freeze()
        assert v.encode("known unknown known", on_unknown="skip") == [2, 2]

    def test_append_only_ids_stable(self):
        v = Vocabulary()
        first = v.encode("alpha beta", on_unknown="grow")
        v.encode("gamma", on_unknown="grow")
        assert v.encode("alpha beta", on_unknown="grow") == first

    def test_serialization_round_trip(self):
        v = Vocabulary()
        v.encode("alpha beta gamma", on_unknown="grow")
        v2 = Vocabulary.from_dict(v.to_dict())
        assert v2.encode("beta") == v.encode("beta", on_unknown="grow")
        assert len(v2) == len(v)

    @given(st.text(max_size=200))
    def test_round_trip_normalized(self, s):
        v = Vocabulary()
        ids = v.encode(s, on_unknown="grow")
        assert v.decode(ids) == normalize(s)

    @given(st.text(max_size=200))
    def test_determinism(self, s):
        a, b = Vocabulary(), Vocabulary()
        assert a.encode(s, on_unknown="grow") == b.encode(s, on_unknown="grow")

    def test_words_of_lowercases(self):
        assert words_of("Food-Apple PIE!") == ["food", "apple", "pie"]


class TestDocuments:
    def test_empty_key_rejected(self):
        with pytest.raises(MalformedRecord):
            Document(doc_key="", text="x")

    def test_empty_text_rejected(self):
        with pytest.raises(MalformedRecord):
            Document(doc_key="d", text="")

    def test_corpus_duplicate(self):
        c = Corpus([Document("d1", "x")])
        with pytest.raises(DuplicateKey):
            c.append(Document("d1", "y"))
