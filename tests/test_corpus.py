import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gentrieval.corpus import (END, SEP, Corpus, Document, Vocabulary,
                               load_corpus, load_queries, normalize,
                               read_jsonl, words_of)
from gentrieval.errors import (DuplicateKey, GentrievalError, MalformedRecord,
                               VocabularyFrozen)

from conftest import (JSON_VALUES, PARSER_LIMITS, ref_load_corpus,
                      ref_load_queries, ref_read_jsonl)

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

# Strings with ASCII and non-ASCII characters and lone surrogates, which
# json.dumps writes as "\\ud800"-style escapes.
STRINGS = (st.text(max_size=4)
           | st.text(st.characters(max_codepoint=127), min_size=1, max_size=4)
           | st.sampled_from(["d1", "d\ud800", "\udcff", "é", "q\u2028"]))
LISTS = (st.none() | st.just([]) | st.lists(STRINGS, max_size=2)
         | st.lists(JSON_VALUES, min_size=1, max_size=2) | JSON_VALUES)
RECORDS = st.fixed_dictionaries({}, optional={
    "id": STRINGS | JSON_VALUES, "qid": STRINGS | JSON_VALUES,
    "text": STRINGS | JSON_VALUES, "title": st.none() | STRINGS | JSON_VALUES,
    "pseudo_queries": LISTS, "relevant": LISTS})
# One line's bytes: a record written with or without ASCII escapes (a lone
# surrogate then becomes bytes that are not UTF-8), a blank line, bytes
# that are not UTF-8, or any bytes.
LINE_BYTES = (
    st.builds(lambda obj, ascii_only: json.dumps(
        obj, ensure_ascii=ascii_only).encode("utf-8", "surrogatepass"),
        RECORDS, st.booleans())
    | st.sampled_from([b"", b"  ", b"\t", b"\xff\xfe", b"\x80",
                       b'{"id": "d\xff", "text": "a"}'])
    | st.binary(max_size=6))
BOM = b"\xef\xbb\xbf"


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

    @pytest.mark.parametrize("content, error", PARSER_LIMITS)
    def test_past_parser_limit(self, tmp_path, content, error):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "d1", "text": "ok"}\n' + content + "\n")
        with pytest.raises(MalformedRecord, match=f"line 2: {error}"):
            load_corpus(p)

    def test_unencodable_id_refused(self, tmp_path):
        # A lone surrogate parses, but no output encoding can write it.
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"id": "d1", "text": "ok"},
                        {"id": "d\ud800", "text": "ok"}])
        with pytest.raises(MalformedRecord, match="line 2: 'id' is not UTF-8"):
            load_corpus(p)

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

    @pytest.mark.parametrize("content, error", PARSER_LIMITS)
    def test_past_parser_limit(self, tmp_path, content, error):
        p = tmp_path / "q.jsonl"
        p.write_text(content + "\n")
        with pytest.raises(MalformedRecord, match=f"line 1: {error}"):
            load_queries(p)

    @pytest.mark.parametrize("text", ["", "  \t ", "\n"])
    def test_blank_text_rejected(self, tmp_path, text):
        p = tmp_path / "q.jsonl"
        write_jsonl(p, [{"qid": "q1", "text": "hello"},
                        {"qid": "blank", "text": text}])
        with pytest.raises(MalformedRecord, match="line 2: 'text' must be "
                                                  "a non-blank string"):
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


    @pytest.mark.parametrize("loader", [load_corpus, load_queries])
    def test_non_utf8_line_number(self, tmp_path, loader):
        p = tmp_path / "lines.jsonl"
        p.write_bytes(b"\n\n\xff\xfe\n")
        with pytest.raises(MalformedRecord,
                           match="line 3: 'utf-8' codec can't decode"):
            loader(p)

    @pytest.mark.parametrize("loader", [load_corpus, load_queries])
    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_endings(self, tmp_path, loader, eol):
        p = tmp_path / "lines.jsonl"
        p.write_bytes(b'{"id": "d1", "qid": "q1", "text": "a"}' + eol + eol
                      + b'{"id": "d2", "qid": "q2", "text": "b"}' + eol)
        assert len(loader(p)) == 2


class TestReadersMatchReference:
    """Each reader returns what its reference in conftest returns for the
    same bytes, or raises the same error with the same message."""

    @staticmethod
    def outcome(reader, path):
        try:
            value = reader(path)
            value = list(value.documents if isinstance(value, Corpus)
                         else value)
        except Exception as exc:
            return type(exc), getattr(exc, "line_no", None), str(exc)
        return repr(value)  # NaN parses, and only its repr equals itself

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              max_examples=300)
    @given(lines=st.lists(LINE_BYTES, max_size=5),
           eol=st.sampled_from([b"\n", b"\r\n", b"\r"]), bom=st.booleans())
    @example(lines=[b'{"id": "d1", "qid": "q", "text": "a"}',
                    b'{"id": "d\\ud800", "text": "a"}'], eol=b"\n", bom=False)
    @example(lines=[b'{"id": "d1", "text": "a"}', b"", b"\xff\xfe"],
             eol=b"\r\n", bom=False)
    @example(lines=[b'{"id": "d1", "qid": "q", "text": "a"}'], eol=b"\n",
             bom=True)
    @example(lines=[b'{"id": "d%d", "text": "a", "pseudo_queries": %s}'
                    % (i, value)
                    for i, value in enumerate([b"[]", b'["q"]', b"null",
                                               b'"q"', b"5", b"[5]"])],
             eol=b"\r", bom=False)
    @example(lines=[b'{"id": "\xc3\xa9", "qid": "\xc3\xa9", "text": "\xc3\xa9"}',
                    b'{"id": "d2", "text": "a", "pseudo_queries": ["q"]}'],
             eol=b"\n", bom=False)
    # JSON whitespace around a value; then whitespace that JSON does not
    # allow after one (form feed, no-break space), and a second value.
    @example(lines=[b' \t{"id": "d1", "text": "a"}',
                    b'{"id": "d2", "text": "a"} \t '], eol=b"\r\n", bom=False)
    @example(lines=[b'{"id": "d1", "text": "a"}\x0c'], eol=b"\n", bom=False)
    @example(lines=[b'{"id": "d1", "text": "a"}\xc2\xa0'], eol=b"\n",
             bom=False)
    @example(lines=[b'{"id": "d1", "text": "a"} {"id": "d2", "text": "a"}'],
             eol=b"\n", bom=False)
    def test_same_result_or_error(self, tmp_path, lines, eol, bom):
        p = tmp_path / "lines.jsonl"
        p.write_bytes((BOM if bom else b"") + b"".join(
            line + eol for line in lines))
        for reader, ref in ((read_jsonl, ref_read_jsonl),
                            (load_corpus, ref_load_corpus),
                            (load_queries, ref_load_queries)):
            assert self.outcome(reader, p) == self.outcome(ref, p)


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
        assert v.encode("known", on_unknown="grow") == [2]
        with pytest.raises(VocabularyFrozen):
            v.encode("unknown", on_unknown="grow")

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
        assert v2.encode("beta", on_unknown="grow") == \
            v.encode("beta", on_unknown="grow")
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
