"""Exception hierarchy shared across the toolkit."""


class GentrievalError(Exception):
    """Base class for all toolkit errors."""


# --- corpus ---------------------------------------------------------------

class MalformedRecord(GentrievalError):
    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        super().__init__(f"malformed record at line {line_no}" + (f": {detail}" if detail else ""))


class DuplicateKey(GentrievalError):
    def __init__(self, doc_key: str):
        self.doc_key = doc_key
        super().__init__(f"duplicate doc_key {doc_key!r}")


class VocabularyFrozen(GentrievalError):
    def __init__(self, word: str):
        self.word = word
        super().__init__(f"vocabulary is frozen; unseen word {word!r}")


# --- docid ----------------------------------------------------------------

class EmptyDocument(GentrievalError):
    def __init__(self, doc_key: str):
        self.doc_key = doc_key
        super().__init__(f"document {doc_key!r} has no words to embed")


class MalformedIndex(GentrievalError):
    pass


class UnknownDoc(GentrievalError):
    def __init__(self, doc_key: str):
        self.doc_key = doc_key
        super().__init__(f"unknown doc_key {doc_key!r}")


# --- lm -------------------------------------------------------------------

class NotSupported(GentrievalError):
    pass


class UnknownToken(GentrievalError):
    def __init__(self, token: int):
        super().__init__(f"token id {token} outside the vocabulary")


class MissingEnd(GentrievalError):
    pass


class RemoteUnavailable(GentrievalError):
    pass


class RemoteTimeout(GentrievalError):
    pass


# --- constraint -----------------------------------------------------------

class EmptyIndex(GentrievalError):
    pass


class InvalidState(GentrievalError):
    pass


class IllegalTransition(GentrievalError):
    pass


class NotTerminal(GentrievalError):
    pass


# --- decode / orchestrator ------------------------------------------------

class NoValidPath(GentrievalError):
    pass


class EmptyQuery(GentrievalError):
    def __init__(self, query_id: str):
        self.query_id = query_id
        super().__init__(f"query {query_id!r} has no text")


# --- eval / cli -----------------------------------------------------------

class EmptyRuns(GentrievalError):
    pass


class ConfigError(GentrievalError):
    pass
