"""Constrained-decoding automata over a DocIdIndex.

Three strategies restrict beam search to valid docids: a prefix trie (whole
identifier sequences), the `fm_index` strategy's suffix automaton of the
identifier bodies (any contiguous span of a body is emitted, and accepted
when it runs to the body's end), and a term-set automaton over a lazily
expanded, memoised DAG of sorted sub-multisets (any ordering of a record's
term multiset is accepted).

Each automaton has start(), allowed(state) -> (tokens, end_ok),
step(state, token) and complete(state). States are int node ids, and an id
outside the automaton's node table raises InvalidState. The trie's and the
suffix automaton's nodes are built whole; the term-set nodes are made when
step() first reaches them. Every node keeps its answers, made on its first
visit, so each node's allowed(), each of its step tokens and its complete()
are worked out once per automaton, whatever the number of searches over it.
allowed() hands out the node's kept (tokens, end_ok) pair and complete() its
kept tuple of records, the same objects on every call. `tokens` is a view
(the keys of a dict built in ascending token order): it iterates in
ascending order, supports `in` and set comparison, and cannot be changed
through it. Callers read both in place; neither is copied per call.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import KeysView

from .docid import DocIdIndex, DocIdRecord
from .errors import (ConfigError, EmptyIndex, IllegalTransition, InvalidState,
                     NotTerminal)


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
        self._keep(self.children, self.terminal)

    def _keep(self, children: list[dict[int, int]],
              terminal: list[list[DocIdRecord]]) -> None:
        """Hold the built tables, with empty slots for the kept answers."""
        # Ascending, so allowed() can hand out the keys as they are.
        self.children = [dict(sorted(c.items())) if len(c) > 1 else c
                         for c in children]
        self.terminal = terminal
        self.moves: list[tuple[KeysView[int], bool] | None] = \
            [None] * len(children)
        self.completions: list[tuple[DocIdRecord, ...] | None] = \
            [None] * len(children)

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


class FmIndexAutomaton(TrieAutomaton):
    """Every span of a record body, accepted where it ends the body.

    SEAL constrains decoding with an FM index of the documents (Bevilacqua
    et al. 2022); here the same language comes from the generalized suffix
    automaton of the record bodies (Blumer et al. 1985), built whole into
    the trie's `children` and `terminal` tables, so it answers through the
    trie's allowed/step/complete and keeps their answers the same way. A
    state is the set of spans that end at the same body positions, so
    n body tokens make at most 2n states, root included. Every span of
    a body is allowed and SEP never is; END is allowed exactly where the
    emitted span is a suffix of some body, never at the start, and
    complete() lists those records in index order.
    """

    def __init__(self, index: DocIdIndex):
        children: list[dict[int, int]] = [{}]
        length = [0]  # the longest span of each state
        link = [-1]  # the state of its longest suffix in another state

        def split(p: int, q: int, tok: int) -> int:
            """A clone of q for its spans of length length[p] + 1 and
            shorter, which p's suffix chain then enters on *tok*."""
            clone = len(children)
            children.append(dict(children[q]))
            length.append(length[p] + 1)
            link.append(link[q])
            while p >= 0 and children[p].get(tok) == q:
                children[p][tok] = clone
                p = link[p]
            link[q] = clone
            return clone

        # Per record, the state its whole body reaches; a later split
        # leaves a state its longest span, so the state stays right.
        ends = []
        for rec in index.records:
            last = 0
            for tok in _body(rec):
                q = children[last].get(tok)
                if q is not None:  # the span occurs in an earlier body
                    last = (q if length[q] == length[last] + 1
                            else split(last, q, tok))
                    continue
                cur = len(children)
                children.append({})
                length.append(length[last] + 1)
                link.append(0)
                p = last
                while p >= 0 and tok not in children[p]:
                    children[p][tok] = cur
                    p = link[p]
                if p >= 0:
                    q = children[p][tok]
                    link[cur] = (q if length[q] == length[p] + 1
                                 else split(p, q, tok))
                last = cur
            ends.append(last)
        # A state ends a body exactly when it lies on the suffix chain of
        # that body's state; the root (the empty emission) ends none.
        terminal: list[list[DocIdRecord]] = [[] for _ in children]
        for rec, state in zip(index.records, ends):
            while state > 0:
                terminal[state].append(rec)
                state = link[state]
        self._keep(children, terminal)

    # Bound here as well as inherited, so that wrapping this class's own
    # methods (perfbench/tracing.py looks them up in its __dict__) reaches
    # them without touching the trie's.
    allowed = TrieAutomaton.allowed
    step = TrieAutomaton.step
    complete = TrieAutomaton.complete


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
