"""Constrained-decoding automata over a DocIdIndex.

Three strategies restrict beam search to valid docids: a prefix trie (whole
identifier sequences), an FM-index over the SEP-joined identifier sequence
(any contiguous span that runs to the end of some identifier is accepted), and
a term-set automaton over a lazily expanded, memoised DAG of sorted
sub-multisets (any ordering of a record's term multiset is accepted).

Each automaton has start(), allowed(state) -> (tokens, end_ok),
step(state, token) and complete(state). States are int node ids, and an id
outside the automaton's node table raises InvalidState. The trie's nodes are
built whole; the FM and term-set nodes are made when step() first reaches
them. Every node keeps its answers, made on its first visit, so each node's
allowed(), each of its step tokens and its complete() are worked out once
per automaton, whatever the number of searches over it. allowed() hands out
the node's kept (tokens, end_ok) pair and complete() its kept tuple of
records, the same objects on every call. `tokens` is a view (the keys of a
dict built in ascending token order): it iterates in ascending order,
supports `in` and set comparison, and cannot be changed through it. Callers
read both in place; neither is copied per call.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import KeysView

from .corpus import END, SEP
from .docid import DocIdIndex, DocIdRecord
from .errors import (ConfigError, EmptyIndex, IllegalTransition, InvalidState,
                     NotTerminal)
from .fm_index import SequenceFMIndex

def _body(record: DocIdRecord) -> tuple[int, ...]:
    """Record tokens without the trailing END."""
    return record.tokens[:-1]


class TrieAutomaton:
    """A prefix trie over the record bodies.

    The trie is built whole: per node id, `children` (token -> node id, in
    ascending token order) and `terminal` (the records whose body ends
    there, in index order). A node's allowed() pair and complete() tuple
    are made on its first visit and kept in `moves` and `completions`, so
    the build pays nothing for nodes no search reaches.
    """

    def __init__(self, index: DocIdIndex):
        self.children: list[dict[int, int]] = [{}]
        self.terminal: list[list[DocIdRecord]] = [[]]
        for rec in index.records:
            node = 0
            for tok in _body(rec):
                nxt = self.children[node].get(tok)
                if nxt is None:
                    nxt = len(self.children)
                    self.children[node][tok] = nxt
                    self.children.append({})
                    self.terminal.append([])
                node = nxt
            self.terminal[node].append(rec)
        # Ascending, so allowed() can hand out the keys as they are.
        self.children = [dict(sorted(c.items())) if len(c) > 1 else c
                         for c in self.children]
        self.moves: list[tuple[KeysView[int], bool] | None] = \
            [None] * len(self.children)
        self.completions: list[tuple[DocIdRecord, ...] | None] = \
            [None] * len(self.children)

    def start(self) -> int:
        return 0

    def allowed(self, state: int) -> tuple[KeysView[int], bool]:
        if not 0 <= state < len(self.moves):
            raise InvalidState(f"trie node {state}")
        moves = self.moves[state]
        if moves is None:
            moves = self.moves[state] = (self.children[state].keys(),
                                         bool(self.terminal[state]))
        return moves

    def step(self, state: int, token: int) -> int:
        if not 0 <= state < len(self.children):
            raise InvalidState(f"trie node {state}")
        nxt = self.children[state].get(token)
        if nxt is None:
            raise IllegalTransition(f"token {token} from node {state}")
        return nxt

    def complete(self, state: int) -> tuple[DocIdRecord, ...]:
        if not 0 <= state < len(self.completions):
            raise InvalidState(f"trie node {state}")
        records = self.completions[state]
        if records is None:
            records = self.completions[state] = tuple(self.terminal[state])
        if not records:
            raise NotTerminal(f"trie node {state}")
        return records


class _FmNode:
    """One FM window and the answers read off it so far.

    `moves` (the allowed view and end_ok) is made on the first allowed(),
    `records` (the records the window ends, in sequence order; empty when
    it abuts no SEP) on the first complete(). `children` (token -> node id)
    holds the tokens stepped so far.
    """

    __slots__ = ("window", "moves", "children", "records")

    def __init__(self, window: tuple[int, int]):
        self.window = window
        self.moves: tuple[KeysView[int], bool] | None = None
        self.children: dict[int, int] = {}
        self.records: tuple[DocIdRecord, ...] | None = None


class FmIndexAutomaton:
    """Windows over the sequence SEP || body_1 || SEP || ... || body_n || SEP.

    States are node ids; node 0 is the start window, and `node_of` maps
    each window reached so far to its node. A node's window is the FM window
    (lo, hi) of the emitted token sequence; emission may start at any
    position inside an identifier, and END becomes legal exactly when the
    window abuts a SEP, i.e. the emitted sequence is a suffix of some
    record. Only the empty emission has the start window: a non-empty
    pattern occurs at most n times, the start window spans n + 1 rows.

    A node is made when step() first reaches its window, and allowed(),
    each step token and complete() are answered once per node, for every
    search over the automaton. The windows of a sequence's patterns are the
    nodes of its suffix tree, so there are fewer than 2 (n + 1) nodes.
    Answers fill the shared table unguarded, so one automaton serves one
    search at a time.
    """

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
        start = self.fm.start()
        self.nodes = [_FmNode(start)]
        self.node_of: dict[tuple[int, int], int] = {start: 0}
        # SEP follows the empty emission, but that emission is no record's
        # suffix: END is not allowed there, and it completes nothing.
        followers = self.fm.followers(start) - {SEP}
        self.nodes[0].moves = dict.fromkeys(sorted(followers)).keys(), False
        self.nodes[0].records = ()

    def start(self) -> int:
        return 0

    def allowed(self, state: int) -> tuple[KeysView[int], bool]:
        if not 0 <= state < len(self.nodes):
            raise InvalidState(f"FM node {state}")
        node = self.nodes[state]
        moves = node.moves
        if moves is None:
            followers = self.fm.followers(node.window)
            end_allowed = SEP in followers
            followers.discard(SEP)
            moves = node.moves = (dict.fromkeys(sorted(followers)).keys(),
                                  end_allowed)
        return moves

    def step(self, state: int, token: int) -> int:
        if not 0 <= state < len(self.nodes):
            raise InvalidState(f"FM node {state}")
        node = self.nodes[state]
        nxt = node.children.get(token)
        if nxt is not None:
            return nxt
        if token == SEP or token == END:
            raise IllegalTransition("reserved token")
        rng = self.fm.extend(node.window, token)
        if self.fm.count(rng) <= 0:
            raise IllegalTransition(f"token {token} has no occurrence")
        nxt = self.node_of.get(rng)
        if nxt is None:
            nxt = self.node_of[rng] = len(self.nodes)
            self.nodes.append(_FmNode(rng))
        node.children[token] = nxt
        return nxt

    def complete(self, state: int) -> tuple[DocIdRecord, ...]:
        if not 0 <= state < len(self.nodes):
            raise InvalidState(f"FM node {state}")
        node = self.nodes[state]
        records = node.records
        if records is None:
            rng = self.fm.extend(node.window, SEP)
            records = node.records = tuple(self.record_before[p] for p in
                                           sorted(self.fm.locate(rng)))
        if not records:
            raise NotTerminal("window does not abut SEP")
        return records


class _TermNode:
    """A sorted sub-multiset of emitted tokens and the records containing it.

    `follow` (token -> the live records of the child it leads to, in
    ascending token order), `terminal` (the records whose multiset is
    exactly `key`, in index order) and `moves` (the allowed() pair) stay
    unset until the node is expanded. `children` (token -> node id) holds
    the followers stepped into so far.
    """

    __slots__ = ("key", "live", "follow", "children", "terminal", "moves")

    def __init__(self, key: tuple[int, ...], live):
        self.key = key
        self.live = live  # ascending record indices, until expanded
        self.follow: dict[int, list[int]] | None = None
        self.children: dict[int, int] = {}
        self.terminal: tuple[DocIdRecord, ...] = ()
        self.moves: tuple[KeysView[int], bool] | None = None


class TermSetAutomaton:
    """Accepts any emission order of a record's term multiset.

    States are node ids in a DAG of sorted sub-multisets, shared by every
    search over the automaton: every emission order of one multiset reaches
    the same node. A node is expanded the first time allowed, step or
    complete touches it, in one pass over its live records that fills its
    terminal records and each follower's live records; a child node is made
    only when step enters it. Both are lazy because a record with d distinct
    terms has 2^d sub-multisets, and a search enters few of the followers
    it is offered. Expansion mutates the shared DAG unguarded, so one
    automaton serves one search at a time.
    """

    def __init__(self, index: DocIdIndex):
        self.records = list(index.records)
        self.sizes = [len(_body(r)) for r in self.records]
        # Per record, its (term, count) pairs.
        self.multisets = [tuple(Counter(_body(r)).items())
                          for r in self.records]
        self.nodes = [_TermNode((), range(len(self.records)))]
        self.node_of: dict[tuple[int, ...], int] = {(): 0}

    def start(self) -> int:
        return 0

    def _expanded(self, state: int) -> _TermNode:
        if not 0 <= state < len(self.nodes):
            raise InvalidState(f"term-set node {state}")
        node = self.nodes[state]
        if node.follow is None:
            self._expand(node)
        return node

    def _expand(self, node: _TermNode) -> None:
        key = node.key
        size = len(key)
        terminal: list[DocIdRecord] = []
        follow: dict[int, list[int]] = {}
        for ridx in node.live:
            # A live record contains the node's multiset; at equal size the
            # two are equal and nothing is left to emit.
            if self.sizes[ridx] == size:
                terminal.append(self.records[ridx])
                continue
            # A key is at most one docid long, so count() on it is cheap.
            for term, cnt in self.multisets[ridx]:
                if cnt > key.count(term):
                    follow.setdefault(term, []).append(ridx)
        node.live = ()  # read only by this expansion
        node.terminal = tuple(terminal)
        node.follow = dict(sorted(follow.items()))
        node.moves = node.follow.keys(), bool(terminal)

    def allowed(self, state: int) -> tuple[KeysView[int], bool]:
        return self._expanded(state).moves

    def step(self, state: int, token: int) -> int:
        if not 0 <= state < len(self.nodes):
            raise InvalidState(f"term-set node {state}")
        node = self.nodes[state]
        nxt = node.children.get(token)
        if nxt is not None:
            return nxt
        if node.follow is None:
            self._expand(node)
        live = node.follow.get(token)
        if live is None:
            raise IllegalTransition(f"token {token} exhausts all candidates")
        key = tuple(sorted(node.key + (token,)))
        nxt = self.node_of.get(key)
        if nxt is None:
            nxt = self.node_of[key] = len(self.nodes)
            self.nodes.append(_TermNode(key, live))
        node.children[token] = nxt
        return nxt

    def complete(self, state: int) -> tuple[DocIdRecord, ...]:
        node = self._expanded(state)
        if not node.terminal:
            raise NotTerminal("generated set matches no record")
        return node.terminal


AUTOMATA = {"trie": TrieAutomaton, "fm_index": FmIndexAutomaton,
            "term_set": TermSetAutomaton}
STRATEGIES = tuple(AUTOMATA)


def build(strategy: str, index: DocIdIndex):
    if not index.records:
        raise EmptyIndex("cannot build a constraint over an empty index")
    automaton = AUTOMATA.get(strategy)
    if automaton is None:
        raise ConfigError(f"unknown strategy {strategy!r}")
    return automaton(index)
