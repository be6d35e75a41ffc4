"""Constrained-decoding automata over a DocIdIndex.

Three strategies restrict beam search to valid docids: a prefix trie (whole
identifier sequences), the `fm_index` strategy's suffix automaton of the
identifier bodies (any contiguous span of a body is emitted, and accepted
when it runs to the body's end), and a term-set automaton over a memoised
DAG of sorted sub-multisets, made as steps reach them (any ordering of a
record's term multiset is accepted).

Each automaton has start(), allowed(state) -> (tokens, end_ok),
step(state, token) and complete(state). States are int node ids, and an id
outside the automaton's node table raises InvalidState. All three answer
from the same two tables: per node, `children` (token -> node id) and
`completions` (the tuple of records complete() hands out), and all three
through the trie's allowed() and complete(). The trie and the suffix
automaton are built whole into them. A term-set node is made whole, both
slots filled, by the step that first enters its multiset (the root at
construction), once per automaton, whatever the number of searches over
it; so no automaton does first-visit work in allowed() or complete().
Until the first step on a token, that token's entry holds the live
records of the child it leads to instead of the child's id.
allowed()'s `tokens` is a view (the keys of the node's dict of children,
built in ascending token order): it iterates in ascending order, supports
`in` and set comparison, and cannot be changed through it. complete()
hands out the node's kept tuple of records, the same object on every
call. Callers read both in place; neither is copied per call.
"""

from __future__ import annotations

from collections.abc import KeysView

from .docid import DocIdIndex, DocIdRecord
from .errors import (ConfigError, EmptyIndex, IllegalTransition, InvalidState,
                     NotTerminal)


def _body(record: DocIdRecord) -> tuple[int, ...]:
    """Record tokens without the trailing END."""
    return record.tokens[:-1]


class TrieAutomaton:
    """A prefix trie over the record bodies.

    The trie is built whole into two tables: per node id, `children`
    (token -> node id, in ascending token order) and `completions` (the
    records whose body ends there, in index order; `()` where none does).
    allowed(), step() and complete() read them and make nothing.
    """

    def __init__(self, index: DocIdIndex):
        children: list[dict[int, int]] = [{}]
        terminal: list[list[DocIdRecord]] = [[]]
        for rec in index.records:
            node = 0
            for tok in _body(rec):
                nxt = children[node].get(tok)
                if nxt is None:
                    nxt = len(children)
                    children[node][tok] = nxt
                    children.append({})
                    terminal.append([])
                node = nxt
            terminal[node].append(rec)
        self._keep(children, terminal)

    def _keep(self, children: list[dict[int, int]],
              terminal: list[list[DocIdRecord]]) -> None:
        """Hold the built tables, each node's records as a tuple."""
        # Ascending, so allowed() can hand out the keys as they are.
        self.children = [dict(sorted(c.items())) if len(c) > 1 else c
                         for c in children]
        self.completions: list[tuple[DocIdRecord, ...]] = [
            tuple(t) for t in terminal]

    def start(self) -> int:
        return 0

    def allowed(self, state: int) -> tuple[KeysView[int], bool]:
        if not 0 <= state < len(self.children):
            raise InvalidState(f"{type(self).__name__} node {state}")
        return self.children[state].keys(), bool(self.completions[state])

    def step(self, state: int, token: int) -> int:
        if not 0 <= state < len(self.children):
            raise InvalidState(f"{type(self).__name__} node {state}")
        nxt = self.children[state].get(token)
        if nxt is None:
            raise IllegalTransition(f"token {token} from node {state}")
        return nxt

    def complete(self, state: int) -> tuple[DocIdRecord, ...]:
        if not 0 <= state < len(self.completions):
            raise InvalidState(f"{type(self).__name__} node {state}")
        records = self.completions[state]
        if not records:
            raise NotTerminal(f"{type(self).__name__} node {state}")
        return records


class FmIndexAutomaton(TrieAutomaton):
    """Every span of a record body, accepted where it ends the body.

    SEAL constrains decoding with an FM index of the documents (Bevilacqua
    et al. 2022); here the same language comes from the generalized suffix
    automaton of the record bodies (Blumer et al. 1985), built whole into
    the trie's `children` and `completions` tables, so it answers through
    the trie's allowed/step/complete. A state is the set of spans that end
    at the same body positions, so n body tokens make at most 2n states,
    root included. Every span of a body is allowed and SEP never is; END
    is allowed exactly where the emitted span is a suffix of some body,
    never at the start, and complete() lists those records in index order.
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


class TermSetAutomaton(TrieAutomaton):
    """Accepts any emission order of a record's term multiset.

    States are node ids in a DAG of sorted sub-multisets, shared by every
    search over the automaton: every emission order of one multiset reaches
    the same node, and `keys` holds each node's sub-multiset. A node is
    made whole, in one pass over the records that contain its multiset: it
    fills the node's `completions` slot and its `children` slot, ascending,
    from each follower token to the live records of the child it leads to.
    So the trie's allowed() and complete() answer for it. The root is made
    at construction; any other node when a step first enters its multiset,
    as a record with d distinct terms has 2^d sub-multisets. That step
    makes the child, or finds it in `node_of`, and writes its id over the
    list, which leaves the keys view as it was. Steps mutate the shared
    DAG unguarded, so one automaton serves one search at a time.
    """

    def __init__(self, index: DocIdIndex):
        self.records = list(index.records)
        self.sizes: list[int] = []
        # Per record, its (term, count) pairs.
        self.multisets: list[tuple[tuple[int, int], ...]] = []
        for rec in self.records:
            body = _body(rec)
            counts: dict[int, int] = {}
            for term in body:
                counts[term] = counts.get(term, 0) + 1
            self.sizes.append(len(body))
            self.multisets.append(tuple(counts.items()))
        self.children: list[dict[int, int | list[int]]] = []
        self.completions: list[tuple[DocIdRecord, ...]] = []
        self.keys: list[tuple[int, ...]] = []
        self.node_of: dict[tuple[int, ...], int] = {}
        self._make((), range(len(self.records)))

    def _make(self, key: tuple[int, ...], live) -> int:
        """The id of a new node for the sorted sub-multiset *key*, whose
        live records (the indices of those containing it) are *live*."""
        size = len(key)
        terminal: list[DocIdRecord] = []
        follow: dict[int, list[int]] = {}
        for ridx in live:
            # A live record contains the node's multiset; at equal size the
            # two are equal and nothing is left to emit.
            if self.sizes[ridx] == size:
                terminal.append(self.records[ridx])
                continue
            # A key is at most one docid long, so count() on it is cheap.
            for term, cnt in self.multisets[ridx]:
                if cnt > key.count(term):
                    follow.setdefault(term, []).append(ridx)
        node = self.node_of[key] = len(self.children)
        self.keys.append(key)
        self.completions.append(tuple(terminal))
        self.children.append(dict(sorted(follow.items())))
        return node

    # Bound here, since perfbench/tracing.py wraps them through this
    # class's __dict__.
    allowed = TrieAutomaton.allowed
    complete = TrieAutomaton.complete

    def step(self, state: int, token: int) -> int:
        if not 0 <= state < len(self.children):
            raise InvalidState(f"{type(self).__name__} node {state}")
        children = self.children[state]
        entry = children.get(token)
        if entry is None:
            raise IllegalTransition(f"token {token} exhausts all candidates")
        if type(entry) is int:
            return entry
        key = tuple(sorted(self.keys[state] + (token,)))
        child = self.node_of.get(key)
        if child is None:
            child = self._make(key, entry)
        children[token] = child
        return child


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
