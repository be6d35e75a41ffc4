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

from .errors import DuplicateKey, MalformedRecord, VocabularyFrozen

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
    fresh ids in first-seen order; once frozen, `on_unknown` selects between
    raising VocabularyFrozen ("error") and dropping the word ("skip").
    """

    def __init__(self) -> None:
        self._word_to_id: dict[str, int] = {END_WORD: END, SEP_WORD: SEP}
        self._id_to_word: list[str] = [END_WORD, SEP_WORD]
        self.frozen = False

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

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

    def encode(self, text: str, on_unknown: str = "error") -> list[int]:
        """Tokenize *text* into ids.

        on_unknown: "grow" appends unseen words (build time), "error" raises
        VocabularyFrozen, "skip" silently drops unseen words (query time).
        """
        out: list[int] = []
        for w in words_of(text):
            tid = self._word_to_id.get(w)
            if tid is None:
                if on_unknown == "grow" and not self.frozen:
                    tid = self.add(w)
                elif on_unknown == "skip":
                    continue
                else:
                    raise VocabularyFrozen(w)
            out.append(tid)
        return out

    def decode(self, tokens: list[int], skip_reserved: bool = True) -> str:
        words = []
        for t in tokens:
            if skip_reserved and t in (END, SEP):
                continue
            words.append(self._id_to_word[t])
        return " ".join(words)

    def ingest(self, text: str) -> None:
        """Grow the vocabulary from *text* without returning ids."""
        for w in words_of(text):
            self.add(w)

    def to_dict(self) -> dict[str, str]:
        return {str(i): w for i, w in enumerate(self._id_to_word)}

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "Vocabulary":
        v = cls.__new__(cls)
        items = sorted(((int(i), w) for i, w in d.items()))
        v._id_to_word = [w for _, w in items]
        v._word_to_id = {w: i for i, w in items}
        v.frozen = True
        return v


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

    def __getitem__(self, key: str) -> Document:
        return self.documents[self.by_key[key]]

    def __contains__(self, key: str) -> bool:
        return key in self.by_key


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_corpus(path) -> Corpus:
    """Load a JSONL corpus: one object per line with id/text[/title/pseudo_queries]."""
    corpus = Corpus()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, str(exc)) from exc
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise MalformedRecord(line_no, "missing required field 'id' or 'text'")
            if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
                raise MalformedRecord(line_no, "'id' and 'text' must be strings")
            if not obj["id"] or not obj["text"]:
                raise MalformedRecord(line_no, "'id' and 'text' must be nonempty")
            title = obj.get("title")
            if title is not None and not isinstance(title, str):
                raise MalformedRecord(line_no, "'title' must be a string")
            pseudo_queries = obj.get("pseudo_queries", [])
            if not _is_str_list(pseudo_queries):
                raise MalformedRecord(line_no, "'pseudo_queries' must be a list of strings")
            corpus.append(Document(
                doc_key=obj["id"],
                text=obj["text"],
                title=title,
                pseudo_queries=tuple(pseudo_queries),
            ))
    return corpus


def load_queries(path) -> list[Query]:
    """Load a JSONL query file: objects with qid/text[/relevant]."""
    queries: list[Query] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, str(exc)) from exc
            if not isinstance(obj, dict) or "qid" not in obj or "text" not in obj:
                raise MalformedRecord(line_no, "missing required field 'qid' or 'text'")
            if not isinstance(obj["text"], str) or not obj["text"]:
                raise MalformedRecord(line_no, "'text' must be a nonempty string")
            relevant = obj.get("relevant", [])
            if not _is_str_list(relevant):
                raise MalformedRecord(line_no, "'relevant' must be a list of strings")
            queries.append(Query(
                query_id=str(obj["qid"]),
                text=obj["text"],
                relevant_keys=frozenset(relevant),
            ))
    return queries
