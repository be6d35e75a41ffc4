"""Constrained-decoding automata over a DocIdIndex.

Three strategies restrict beam search to valid docids: a prefix trie (whole
identifier sequences), an FM-index over the SEP-joined identifier sequence
(any contiguous span that runs to the end of some identifier is accepted), and
a term-set automaton backed by an inverted index (any ordering of a record's
term multiset is accepted).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import END, SEP
from .docid import DocIdIndex, DocIdRecord
from .errors import EmptyIndex, IllegalTransition, InvalidState, NotTerminal
from .fm_index import SequenceFMIndex

STRATEGY_TRIE = "trie"
STRATEGY_FM = "fm_index"
STRATEGY_TERM_SET = "term_set"
STRATEGIES = (STRATEGY_TRIE, STRATEGY_FM, STRATEGY_TERM_SET)


def _body(record: DocIdRecord) -> tuple[int, ...]:
    """Record tokens without the trailing END."""
    return record.tokens[:-1]


class TrieAutomaton:
    strategy = STRATEGY_TRIE

    def __init__(self, index: DocIdIndex):
        self.records = list(index.records)
        self.children: list[dict[int, int]] = [{}]
        self.terminal: list[list[int]] = [[]]
        for ridx, rec in enumerate(self.records):
            node = 0
            for tok in _body(rec):
                nxt = self.children[node].get(tok)
                if nxt is None:
                    nxt = len(self.children)
                    self.children[node][tok] = nxt
                    self.children.append({})
                    self.terminal.append([])
                node = nxt
            self.terminal[node].append(ridx)

    def start(self) -> int:
        return 0

    def allowed(self, state: int) -> tuple[set[int], bool]:
        if not 0 <= state < len(self.children):
            raise InvalidState(f"trie node {state}")
        return set(self.children[state]), bool(self.terminal[state])

    def step(self, state: int, token: int) -> int:
        nxt = self.children[state].get(token)
        if nxt is None:
            raise IllegalTransition(f"token {token} from node {state}")
        return nxt

    def complete(self, state: int) -> list[DocIdRecord]:
        if not self.terminal[state]:
            raise NotTerminal(f"trie node {state}")
        return [self.records[i] for i in self.terminal[state]]


@dataclass(frozen=True)
class FmState:
    lo: int
    hi: int
    emitted: tuple[int, ...]


class FmIndexAutomaton:
    """Window over the sequence SEP || body_1 || SEP || ... || body_n || SEP.

    The window tracks the full emitted token sequence; emission may start at
    any position inside an identifier, and END becomes legal exactly when the
    window abuts a SEP, i.e. the emitted sequence is a suffix of some record.
    """

    strategy = STRATEGY_FM

    def __init__(self, index: DocIdIndex):
        joined: list[int] = [SEP]
        # record_before[p]: the record whose body ends just before SEP at p.
        self.record_before: dict[int, DocIdRecord] = {}
        for rec in index.records:
            joined.extend(_body(rec))
            self.record_before[len(joined)] = rec
            joined.append(SEP)
        self.joined = joined
        self.fm = SequenceFMIndex(joined)

    def start(self) -> FmState:
        lo, hi = self.fm.start()
        return FmState(lo, hi, ())

    def allowed(self, state: FmState) -> tuple[set[int], bool]:
        rng = (state.lo, state.hi)
        if self.fm.count(rng) <= 0:
            raise InvalidState("empty FM window")
        followers = self.fm.followers(rng)
        end_allowed = SEP in followers and bool(state.emitted)
        return followers - {SEP}, end_allowed

    def step(self, state: FmState, token: int) -> FmState:
        if token == SEP or token == END:
            raise IllegalTransition("reserved token")
        lo, hi = self.fm.extend((state.lo, state.hi), token)
        if lo >= hi:
            raise IllegalTransition(f"token {token} has no occurrence")
        return FmState(lo, hi, state.emitted + (token,))

    def complete(self, state: FmState) -> list[DocIdRecord]:
        rng = self.fm.extend((state.lo, state.hi), SEP)
        if not state.emitted or self.fm.count(rng) <= 0:
            raise NotTerminal("window does not abut SEP")
        return [self.record_before[p] for p in sorted(self.fm.locate(rng))]


@dataclass(frozen=True)
class TermSetState:
    generated: tuple[int, ...]  # sorted multiset of emitted tokens
    live: frozenset[int]        # candidate record indices


class TermSetAutomaton:
    """Accepts any emission order of a record's term multiset."""

    strategy = STRATEGY_TERM_SET

    def __init__(self, index: DocIdIndex):
        self.records = list(index.records)
        self.multisets = [Counter(_body(r)) for r in self.records]

    def start(self) -> TermSetState:
        return TermSetState((), frozenset(range(len(self.records))))

    def allowed(self, state: TermSetState) -> tuple[set[int], bool]:
        gen = Counter(state.generated)
        tokens: set[int] = set()
        end_allowed = False
        for ridx in state.live:
            ms = self.multisets[ridx]
            if ms == gen:
                end_allowed = True
            for term, cnt in ms.items():
                if cnt > gen.get(term, 0):
                    tokens.add(term)
        return tokens, end_allowed

    def step(self, state: TermSetState, token: int) -> TermSetState:
        gen = Counter(state.generated)
        need = gen.get(token, 0) + 1
        live = frozenset(r for r in state.live
                         if self.multisets[r].get(token, 0) >= need)
        if not live:
            raise IllegalTransition(f"token {token} exhausts all candidates")
        return TermSetState(tuple(sorted(state.generated + (token,))), live)

    def complete(self, state: TermSetState) -> list[DocIdRecord]:
        gen = Counter(state.generated)
        out = [self.records[r] for r in sorted(state.live)
               if self.multisets[r] == gen]
        if not out:
            raise NotTerminal("generated set matches no record")
        return out


def build(strategy: str, index: DocIdIndex):
    if not index.records:
        raise EmptyIndex("cannot build a constraint over an empty index")
    if strategy == STRATEGY_TRIE:
        return TrieAutomaton(index)
    if strategy == STRATEGY_FM:
        return FmIndexAutomaton(index)
    if strategy == STRATEGY_TERM_SET:
        return TermSetAutomaton(index)
    raise ValueError(f"unknown strategy {strategy!r}")
