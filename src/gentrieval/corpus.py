"""Corpus ingestion, document/query model, and the shared word-level tokenizer.

The tokenizer lowercases and splits on whitespace, hyphens, and any other
punctuation, so that hyphen-joined identifier surfaces round-trip through the
same id space as ordinary text. Token ids 0 and 1 are reserved for END and SEP
and are never produced by tokenizing user text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import (ConfigError, DuplicateKey, MalformedIndex,
                     MalformedRecord, VocabularyFrozen)

END = 0
SEP = 1
END_WORD = "<end>"
SEP_WORD = "<sep>"

# Alphanumeric runs (unicode word chars minus underscore); everything else is
# a boundary and is dropped.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def words_of(text: str) -> list[str]:
    """Lowercased word list of *text*; hyphens and punctuation split words."""
    return _WORD_RE.findall(text.lower())


def normalize(text: str) -> str:
    """Canonical surface form: lowercased words joined by single spaces."""
    return " ".join(words_of(text))


class Vocabulary:
    """Append-only word<->id map, frozen after index build.

    Ids END (0) and SEP (1) are reserved. While unfrozen, unseen words get
    fresh ids in first-seen order; once frozen, adding one raises
    VocabularyFrozen.
    """

    def __init__(self) -> None:
        self._word_to_id: dict[str, int] = {END_WORD: END, SEP_WORD: SEP}
        self._id_to_word: list[str] = [END_WORD, SEP_WORD]
        self.frozen = False

    def __len__(self) -> int:
        return len(self._id_to_word)

    def freeze(self) -> None:
        self.frozen = True

    def add(self, word: str) -> int:
        tid = self._word_to_id.get(word)
        if tid is not None:
            return tid
        if self.frozen:
            raise VocabularyFrozen(word)
        tid = len(self._id_to_word)
        self._word_to_id[word] = tid
        self._id_to_word.append(word)
        return tid

    def id_of(self, word: str) -> int | None:
        return self._word_to_id.get(word)

    def word_of(self, tid: int) -> str:
        return self._id_to_word[tid]

    def encode(self, text: str, on_unknown: str) -> list[int]:
        """Tokenize *text* into ids.

        on_unknown: "grow" adds unseen words (build time; VocabularyFrozen
        once frozen), "skip" silently drops them (query time).
        """
        out: list[int] = []
        for w in words_of(text):
            tid = self._word_to_id.get(w)
            if tid is None:
                if on_unknown == "skip":
                    continue
                tid = self.add(w)
            out.append(tid)
        return out

    def decode(self, tokens: list[int]) -> str:
        """The words of *tokens*, space-joined; END and SEP are skipped."""
        return " ".join(self._id_to_word[t] for t in tokens
                        if t not in (END, SEP))

    def to_dict(self) -> dict[str, str]:
        return {str(i): w for i, w in enumerate(self._id_to_word)}

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "Vocabulary":
        """The frozen vocabulary that `to_dict` wrote; raises MalformedIndex
        for any other shape."""
        problem = _vocab_error(d)
        if problem:
            raise MalformedIndex(f"malformed index: vocab {problem}")
        v = cls.__new__(cls)
        v._id_to_word = [d[str(i)] for i in range(len(d))]
        v._word_to_id = {w: i for i, w in enumerate(v._id_to_word)}
        v.frozen = True
        return v


def _vocab_error(d) -> str | None:
    """What keeps *d* from being a `to_dict` vocabulary, or None: its keys
    must be exactly "0" .. "n-1", its words distinct strings, with END_WORD
    at END and SEP_WORD at SEP."""
    if not isinstance(d, dict):
        return "is not an object"
    ids = [str(i) for i in range(len(d))]
    known = set(ids)
    bad = [k for k in d if k not in known]
    if bad:
        return f"key {bad[0]!r} is not an id in 0 .. {len(d) - 1}"
    first: dict[str, str] = {}
    for i in ids:
        if not isinstance(d[i], str):
            return f"word of id {i} is not a string: {d[i]!r}"
        if first.setdefault(d[i], i) != i:
            return f"word {d[i]!r} has ids {first[d[i]]} and {i}"
    if [d.get(str(END)), d.get(str(SEP))] != [END_WORD, SEP_WORD]:
        return f"ids {END} and {SEP} must be {END_WORD!r} and {SEP_WORD!r}"
    return None


@dataclass(frozen=True)
class Document:
    doc_key: str
    text: str
    title: str | None = None
    pseudo_queries: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.doc_key:
            raise MalformedRecord(0, "empty doc_key")
        if not self.text:
            raise MalformedRecord(0, "empty text")


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str
    relevant_keys: frozenset[str] = field(default_factory=frozenset)


class Corpus:
    """Ordered document collection; iteration order is load order."""

    def __init__(self, documents: list[Document] | None = None):
        self.documents: list[Document] = []
        self.by_key: dict[str, int] = {}
        for d in documents or []:
            self.append(d)

    def append(self, doc: Document) -> None:
        if doc.doc_key in self.by_key:
            raise DuplicateKey(doc.doc_key)
        self.by_key[doc.doc_key] = len(self.documents)
        self.documents.append(doc)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def read_json(path):
    """The JSON value in the file at *path*. A file that does not parse,
    including one nested past the recursion limit or holding an integer
    too long to convert, raises ConfigError("<path>: not JSON: ...")."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not JSON: {exc}") from exc


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path):
    """Yield ``(line_no, value)`` for each non-blank line of the JSONL file
    at *path*; a line that is not UTF-8 or does not parse raises
    MalformedRecord."""
    # Bytes that are not UTF-8 are read as lone surrogates, so that the
    # strict decode below fails at their own line. An ASCII line holds
    # none.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    if not line.isascii():
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    # json.loads(line) is one value with only JSON
                    # whitespace after it. The common line is decoded
                    # once; any other goes to json.loads, so every value
                    # and every error is json.loads' own.
                    try:
                        value, end = _raw_decode(line)
                        parsed = not line[end:].strip(" \t\n\r")
                    except (ValueError, RecursionError):
                        parsed = False
                    yield line_no, value if parsed else json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise MalformedRecord(line_no, str(exc)) from exc


def load_corpus(path) -> Corpus:
    """Load a JSONL corpus: one object per line with
    id/text[/title/pseudo_queries]. A malformed line raises MalformedRecord."""
    corpus = Corpus()
    for line_no, obj in read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise MalformedRecord(line_no, "missing required field 'id' or 'text'")
        if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
            raise MalformedRecord(line_no, "'id' and 'text' must be strings")
        if not obj["id"] or not obj["text"]:
            raise MalformedRecord(line_no, "'id' and 'text' must be nonempty")
        if not obj["id"].isascii():
            try:  # a lone surrogate parses, but no output can write it
                obj["id"].encode("utf-8")
            except UnicodeEncodeError as exc:
                raise MalformedRecord(line_no,
                                      f"'id' is not UTF-8: {exc}") from exc
        title = obj.get("title")
        if title is not None and not isinstance(title, str):
            raise MalformedRecord(line_no, "'title' must be a string")
        # No JSON value equals (), so only an absent field skips the check.
        pseudo_queries = obj.get("pseudo_queries", ())
        if pseudo_queries != () and not _is_str_list(pseudo_queries):
            raise MalformedRecord(line_no, "'pseudo_queries' must be a list of strings")
        corpus.append(Document(
            doc_key=obj["id"],
            text=obj["text"],
            title=title,
            pseudo_queries=tuple(pseudo_queries),
        ))
    return corpus


def load_queries(path) -> list[Query]:
    """Load a JSONL query file: objects with qid/text[/relevant]. A
    malformed line raises MalformedRecord."""
    queries: list[Query] = []
    for line_no, obj in read_jsonl(path):
        if not isinstance(obj, dict) or "qid" not in obj or "text" not in obj:
            raise MalformedRecord(line_no, "missing required field 'qid' or 'text'")
        if not isinstance(obj["text"], str) or not obj["text"].strip():
            raise MalformedRecord(line_no, "'text' must be a non-blank string")
        relevant = obj.get("relevant", [])
        if not _is_str_list(relevant):
            raise MalformedRecord(line_no, "'relevant' must be a list of strings")
        queries.append(Query(
            query_id=str(obj["qid"]),
            text=obj["text"],
            relevant_keys=frozenset(relevant),
        ))
    return queries
