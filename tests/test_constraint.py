import gc
import itertools
import math
import pathlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from gentrieval.constraint import (STRATEGIES, FmIndexAutomaton,
                                   TermSetAutomaton, TrieAutomaton, build)
from gentrieval.corpus import END, SEP
from gentrieval.decode import constrained_beam_search
from gentrieval.docid import DocIdIndex, build_index
from gentrieval.errors import (ConfigError, EmptyIndex, IllegalTransition,
                               InvalidState, NotTerminal)
from gentrieval.fm_index import SENTINEL, SequenceFMIndex, suffix_array
from gentrieval.lm import NgramModel

from conftest import (TableModel, enumerate_accepted, make_index,
                      random_record_index, sep_joined)


def naive_suffix_array(seq):
    return sorted(range(len(seq)), key=lambda i: seq[i:])


def naive_occurrences(seq, pattern):
    if not pattern:
        return len(seq) + 1
    return sum(1 for i in range(len(seq) - len(pattern) + 1)
               if seq[i:i + len(pattern)] == pattern)


class TestFMIndex:
    def test_suffix_array_matches_naive(self, toy_corpus):
        rng = random.Random(0)
        # Empty, one symbol, and periodic runs whose suffixes share
        # prefixes almost their own length: 9 and 7 doubling rounds.
        seqs = [[], [7], [SENTINEL], [1, 2] * 200, [3] * 65]
        for _ in range(50):
            seqs.append([rng.randint(0, 5) for _ in range(rng.randint(1, 40))])
        for _ in range(50):  # as SequenceFMIndex sorts them
            seq = [rng.randint(0, 3) for _ in range(rng.randint(0, 40))]
            seqs.append(seq[::-1] + [SENTINEL])
        for _ in range(10):
            joined = sep_joined(random_record_index(
                rng, rng.randint(1, 30), rng.randint(1, 6)))
            seqs.append(joined[::-1] + [SENTINEL])
        joined = sep_joined(build_index(toy_corpus(400)))
        seqs.append(joined[::-1] + [SENTINEL])
        for seq in seqs:
            assert suffix_array(seq) == naive_suffix_array(seq)

    def test_repeated_symbol_sequence(self):
        seq = [2, 2, 3, 2, 2, 3, 2]
        assert suffix_array(seq) == naive_suffix_array(seq)

    def test_match_counts(self):
        seq = [5, 2, 3, 2, 3, 2, 9]
        sfm = SequenceFMIndex(seq)
        assert sfm.occurrences([2, 3]) == 2
        assert sfm.occurrences([3, 2]) == 2
        assert sfm.occurrences([9, 9]) == 0
        assert sfm.occurrences([5]) == 1

    def test_occurrences_match_naive(self):
        rng = random.Random(1)
        for _ in range(100):
            seq = [rng.randint(0, 4) for _ in range(rng.randint(1, 30))]
            sfm = SequenceFMIndex(seq)
            pattern = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
            assert sfm.occurrences(pattern) == naive_occurrences(seq, pattern)

    def test_followers_match_naive(self):
        rng = random.Random(2)
        for _ in range(50):
            seq = [rng.randint(0, 4) for _ in range(rng.randint(2, 25))]
            sfm = SequenceFMIndex(seq)
            prefix_len = rng.randint(1, 3)
            pattern = seq[:prefix_len]
            rng_win = sfm.start()
            for t in pattern:
                rng_win = sfm.extend(rng_win, t)
            expected = {seq[i + len(pattern)]
                        for i in range(len(seq) - len(pattern))
                        if seq[i:i + len(pattern)] == pattern}
            assert sfm.followers(rng_win) == expected

    def test_extend_dead_end(self):
        sfm = SequenceFMIndex([2, 3])
        assert sfm.count(sfm.extend(sfm.start(), 9)) == 0


@pytest.fixture
def toy_automata(toy_index):
    return {s: build(s, toy_index) for s in STRATEGIES}


def tok(index: DocIdIndex, word: str) -> int:
    return index.vocab.id_of(word)


class TestTrie:
    def test_toy_walkthrough(self, toy_index):
        a = TrieAutomaton(toy_index)
        food, tech = tok(toy_index, "food"), tok(toy_index, "tech")
        apple, banana = tok(toy_index, "apple"), tok(toy_index, "banana")
        s = a.start()
        allowed, end_ok = a.allowed(s)
        assert allowed == {food, tech} and not end_ok
        s = a.step(s, food)
        allowed, end_ok = a.allowed(s)
        assert allowed == {apple, banana} and not end_ok
        s = a.step(s, apple)
        allowed, end_ok = a.allowed(s)
        assert allowed == set() and end_ok
        assert [r.doc_key for r in a.complete(s)] == ["d1"]

    def test_illegal_transition(self, toy_index):
        a = TrieAutomaton(toy_index)
        with pytest.raises(IllegalTransition):
            a.step(a.start(), tok(toy_index, "apple"))

    def test_not_terminal(self, toy_index):
        a = TrieAutomaton(toy_index)
        with pytest.raises(NotTerminal):
            a.complete(a.start())

    def test_invalid_state(self, toy_index):
        with pytest.raises(InvalidState):
            TrieAutomaton(toy_index).allowed(999)

    def test_answers_made_on_first_visit_in_any_order(self):
        """Before any search, allowed() and complete() of every node id,
        asked in shuffled order, equal a scan of the records, whichever of
        the two reaches a node first."""
        rng = random.Random(13)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 15), 6,
                                        max_len=4)
            a = TrieAutomaton(index)
            # Node id -> the prefix that reaches it, walked with step()
            # and the scan's tokens, so no node's answers are made yet.
            prefix = {}
            stack = [(a.start(), ())]
            while stack:
                state, emitted = stack.pop()
                prefix[state] = emitted
                stack.extend((a.step(state, t), emitted + (t,))
                             for t in naive_allowed("trie", index, emitted))
            assert sorted(prefix) == list(range(len(a.children)))
            asks = [(state, op) for state in prefix
                    for op in ("allowed", "complete")]
            rng.shuffle(asks)
            for state, op in asks:
                emitted = prefix[state]
                done = tuple(r for r in index.records
                             if r.tokens[:-1] == emitted)
                if op == "allowed":
                    assert a.allowed(state) == (
                        naive_allowed("trie", index, emitted), bool(done))
                elif done:
                    assert a.complete(state) == done
                else:
                    with pytest.raises(NotTerminal):
                        a.complete(state)

    def test_language_is_exactly_the_records(self):
        rng = random.Random(3)
        for _ in range(20):
            index = random_record_index(rng, rng.randint(2, 15), 6)
            a = TrieAutomaton(index)
            accepted = enumerate_accepted(a, max_len=5)
            langs = {seq for seq, _ in accepted}
            assert langs == {r.tokens for r in index.records}
            for seq, docs in accepted:
                expected = sorted(r.doc_key for r in index.records
                                  if r.tokens == seq)
                assert sorted(r.doc_key for r in docs) == expected


def check_second_search_adds_no_node(cls, table):
    """A second search over one automaton makes no node and finds what the
    first found."""
    rng = random.Random(12)
    for trial in range(5):
        index = random_record_index(rng, 30, 6, max_len=4)
        a = cls(index)
        model = TableModel(len(index.vocab), seed=trial)
        first = constrained_beam_search(model, [0, 1], a, 4)
        nodes = len(getattr(a, table))
        assert constrained_beam_search(model, [0, 1], a, 4) == first
        assert len(getattr(a, table)) == nodes


class TestFmAutomaton:
    def test_second_search_adds_no_node(self):
        check_second_search_adds_no_node(FmIndexAutomaton, "children")

    def test_suffix_entry(self, toy_index):
        # "apple" alone is a valid suffix of two identifiers.
        a = FmIndexAutomaton(toy_index)
        s = a.step(a.start(), tok(toy_index, "apple"))
        _, end_ok = a.allowed(s)
        assert end_ok
        assert sorted(r.doc_key for r in a.complete(s)) == ["d1", "d2"]

    def test_prefix_not_terminal(self, toy_index):
        a = FmIndexAutomaton(toy_index)
        food = tok(toy_index, "food")
        s = a.step(a.start(), food)
        allowed, end_ok = a.allowed(s)
        assert not end_ok
        assert allowed == {tok(toy_index, "apple"), tok(toy_index, "banana")}
        with pytest.raises(NotTerminal):
            a.complete(s)

    def test_empty_emission_never_terminal(self, toy_index):
        a = FmIndexAutomaton(toy_index)
        _, end_ok = a.allowed(a.start())
        assert not end_ok
        with pytest.raises(NotTerminal):
            a.complete(a.start())

    def test_reserved_tokens_rejected(self, toy_index):
        a = FmIndexAutomaton(toy_index)
        for t in (SEP, END):
            with pytest.raises(IllegalTransition):
                a.step(a.start(), t)

    def test_refused_calls_make_no_node(self, toy_index):
        a = FmIndexAutomaton(toy_index)
        food = a.step(a.start(), tok(toy_index, "food"))
        nodes = len(a.children)
        children = dict(a.children[food])
        # "food" never follows itself; SEP and END are reserved.
        for t in (SEP, END, tok(toy_index, "food")):
            with pytest.raises(IllegalTransition):
                a.step(food, t)
        for _ in range(2):  # a refused state is refused again
            with pytest.raises(NotTerminal):
                a.complete(food)
        assert len(a.children) == nodes == len(a.completions)
        assert a.children[food] == children

    def test_states_are_end_position_classes(self):
        """Two emissions share a state exactly when they end at the same
        body positions, and every state is reached: the automaton is the
        smallest that tells the spans apart."""
        rng = random.Random(8)
        for _ in range(30):
            index = random_record_index(rng, rng.randint(1, 10),
                                        rng.randint(1, 3), max_len=6)
            bodies = [r.tokens[:-1] for r in index.records]
            a = FmIndexAutomaton(index)
            state_of = {}
            stack = [(a.start(), ())]
            while stack:
                state, emitted = stack.pop()
                state_of[emitted] = state
                stack.extend((a.step(state, t), emitted + (t,))
                             for t in a.allowed(state)[0])
            ends = {span: frozenset(
                (b, j) for b, body in enumerate(bodies)
                for j in range(len(span), len(body) + 1)
                if body[j - len(span):j] == span) for span in state_of}
            class_of = {}
            for span, state in state_of.items():
                assert class_of.setdefault(ends[span], state) == state
            assert len(class_of) == len(set(state_of.values())) \
                == len(a.children)

    def test_at_most_two_states_per_body_token(self):
        """n body tokens make at most 2n states, root included. Few words
        and long bodies make spans recur, so states get cloned."""
        rng = random.Random(9)
        for _ in range(300):
            index = random_record_index(rng, rng.randint(1, 12),
                                        rng.randint(1, 4), max_len=8)
            n = sum(len(r.tokens) - 1 for r in index.records)
            a = FmIndexAutomaton(index)
            assert len(a.children) == len(a.completions) <= 2 * n

    def test_language_is_record_suffixes(self):
        rng = random.Random(4)
        indices = [random_record_index(rng, rng.randint(2, 10), 5, max_len=3)
                   for _ in range(15)]
        # Two records with one body: complete() lists both.
        indices.append(make_index({"a": "x-y", "b": "y", "c": "x-y"}))
        for index in indices:
            a = FmIndexAutomaton(index)
            accepted = enumerate_accepted(a, max_len=4)
            bodies = [r.tokens[:-1] for r in index.records]
            expected = {body[i:] + (END,)
                        for body in bodies for i in range(len(body))}
            assert {seq for seq, _ in accepted} == expected
            for seq, docs in accepted:
                suffix = seq[:-1]
                oracle = [r for r in index.records
                          if r.tokens[:-1][len(r.tokens) - 1 - len(suffix):]
                          == suffix]
                assert list(docs) == oracle


class TestLanguageInclusion:
    def test_best_score_at_least_the_tries(self):
        """The trie accepts only whole bodies, which both other automata
        accept too, so at full width a document scores at least as high
        under fm_index and term_set as under the trie."""
        rng = random.Random(10)
        for trial in range(30):
            index = random_record_index(rng, rng.randint(2, 8), 5,
                                        max_len=3)
            model = TableModel(len(index.vocab), seed=trial)
            best = {}
            for strategy in STRATEGIES:
                scores = best[strategy] = {}
                for h in constrained_beam_search(
                        model, [], build(strategy, index), 4000):
                    for r in h.records:
                        scores[r.doc_key] = max(
                            h.score, scores.get(r.doc_key, -math.inf))
            assert len(best["trie"]) == len(index.records)
            for strategy in ("fm_index", "term_set"):
                assert all(best[strategy][d] >= score
                           for d, score in best["trie"].items())


class TestTermSet:
    def test_order_free(self, toy_index):
        a = TermSetAutomaton(toy_index)
        food, apple = tok(toy_index, "food"), tok(toy_index, "apple")
        for order in ([food, apple], [apple, food]):
            s = a.start()
            for t in order:
                s = a.step(s, t)
            _, end_ok = a.allowed(s)
            assert end_ok
            assert [r.doc_key for r in a.complete(s)] == ["d1"]

    def test_partial_set_not_terminal(self, toy_index):
        a = TermSetAutomaton(toy_index)
        s = a.step(a.start(), tok(toy_index, "food"))
        _, end_ok = a.allowed(s)
        assert not end_ok
        with pytest.raises(NotTerminal):
            a.complete(s)

    def test_multiset_counts_respected(self):
        index = make_index({"d1": "food-food-apple", "d2": "food-apple"})
        a = TermSetAutomaton(index)
        food, apple = tok(index, "food"), tok(index, "apple")
        s = a.step(a.step(a.start(), food), apple)
        allowed, end_ok = a.allowed(s)
        assert end_ok  # d2 is complete
        assert allowed == {food}  # only a second "food" can continue (d1)
        s = a.step(s, food)
        _, end_ok = a.allowed(s)
        assert end_ok
        assert [r.doc_key for r in a.complete(s)] == ["d1"]

    def test_term_held_two_and_three_times(self):
        """A node that holds a term two or three times offers it only to
        the records that hold it more often."""
        index = make_index({"d3": "x-x-x-y", "d2": "x-x-y", "d1": "x-y"})
        a = TermSetAutomaton(index)
        x, y = tok(index, "x"), tok(index, "y")
        # Emitted tokens -> (allowed, completed records).
        expected = {(x,): ({x, y}, []), (x, x): ({x, y}, []),
                    (x, x, x): ({y}, []), (y, x): ({x}, ["d1"]),
                    (x, y, x): ({x}, ["d2"]), (x, x, y, x): (set(), ["d3"])}
        for emitted, (allowed, done) in expected.items():
            s = a.start()
            for t in emitted:
                s = a.step(s, t)
            assert a.allowed(s) == (allowed, bool(done))
            if done:
                assert [r.doc_key for r in a.complete(s)] == done
            else:
                with pytest.raises(NotTerminal):
                    a.complete(s)
            assert (allowed, bool(done)) == \
                naive_term_set(index, emitted)[:2]

    def test_exhausted_token_illegal(self, toy_index):
        a = TermSetAutomaton(toy_index)
        apple = tok(toy_index, "apple")
        s = a.step(a.start(), apple)
        with pytest.raises(IllegalTransition):
            a.step(s, apple)

    def test_all_permutations_accepted(self):
        rng = random.Random(5)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 6), 5, max_len=4)
            a = TermSetAutomaton(index)
            for rec in index.records:
                body = rec.tokens[:-1]
                for perm in set(itertools.permutations(body)):
                    s = a.start()
                    for t in perm:
                        s = a.step(s, t)
                    _, end_ok = a.allowed(s)
                    assert end_ok
                    assert rec.doc_key in [r.doc_key for r in a.complete(s)]

    def test_accepted_multisets_are_sound(self):
        rng = random.Random(6)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 6), 4, max_len=3)
            a = TermSetAutomaton(index)
            record_multisets = [tuple(sorted(r.tokens[:-1]))
                                for r in index.records]
            for seq, docs in enumerate_accepted(a, max_len=3):
                ms = tuple(sorted(seq[:-1]))
                assert ms in record_multisets
                assert docs


def naive_term_set(index, emitted):
    """The term-set automaton's answer after *emitted*, by a Counter scan
    over every record: (allowed tokens, end_ok, complete() records)."""
    gen = Counter(emitted)
    allowed, done = set(), []
    for rec in index.records:
        ms = Counter(rec.tokens[:-1])
        if any(ms[t] < c for t, c in gen.items()):
            continue
        if ms == gen:
            done.append(rec)
        allowed.update(t for t, c in ms.items() if c > gen[t])
    return allowed, bool(done), tuple(done)


def multiset_index(rng, max_words=4):
    """Random records over three words, so terms repeat, and some records
    reorder an earlier record's words, so records share a multiset."""
    surfaces = {}
    for i in range(rng.randint(2, 8)):
        words = [rng.choice("xyz")
                 for _ in range(rng.randint(1, max_words))]
        surfaces[f"d{i}"] = "-".join(words)
        if rng.random() < 0.4:
            rng.shuffle(words)
            surfaces[f"p{i}"] = "-".join(words)
    return make_index(surfaces)


class TestTermSetDag:
    @pytest.mark.parametrize("first", ["allowed", "step", "complete"])
    def test_matches_counter_oracle(self, first):
        """Every emission order: allowed, end_ok and complete() equal the
        Counter scan whichever call reaches a node first, and all orders of
        one multiset share one node id."""
        rng = random.Random(11)
        for _ in range(25):
            index = multiset_index(rng)
            a = TermSetAutomaton(index)
            vocab = range(len(index.vocab))
            node_of = {}

            def try_step(state, t):
                try:
                    return a.step(state, t)
                except IllegalTransition:
                    return None

            def try_complete(state):
                try:
                    return a.complete(state)
                except NotTerminal:
                    return None

            def walk(state, emitted):
                ops = {"allowed": lambda: a.allowed(state),
                       "step": lambda: {t: try_step(state, t) for t in vocab},
                       "complete": lambda: try_complete(state)}
                got = {op: ops[op]() for op in
                       [first] + [op for op in ops if op != first]}
                allowed, end_ok, done = naive_term_set(index, emitted)
                assert got["allowed"] == (allowed, end_ok)
                assert got["complete"] == (done or None)
                children = {t: n for t, n in got["step"].items()
                            if n is not None}
                assert set(children) == allowed
                assert node_of.setdefault(tuple(sorted(emitted)),
                                          state) == state
                for t in sorted(children):
                    walk(children[t], emitted + (t,))

            walk(a.start(), ())
            assert len(set(node_of.values())) == len(node_of)
            assert len(a.children) == len(a.completions) == len(a.keys) \
                == len(a.node_of)

    def test_second_search_adds_no_node(self):
        check_second_search_adds_no_node(TermSetAutomaton, "children")

    def test_beam_searches_leave_every_node_made(self):
        """Every node a step returns has its slots filled already, and
        after the searches the DAG is the root plus exactly the sorted
        multisets they stepped into."""
        rng = random.Random(5)
        for trial in range(30):
            # Every other index has records of up to 8 terms, 8 levels deep.
            index = multiset_index(rng, 8 if trial % 2 else 4)
            a = TermSetAutomaton(index)
            stepped = set()
            step = a.step

            def spied(state, token):
                child = step(state, token)
                stepped.add(tuple(sorted(a.keys[state] + (token,))))
                assert type(a.children[child]) is dict
                return child

            a.step = spied
            model = TableModel(len(index.vocab), seed=trial)
            for width in (1, 3, 8):
                constrained_beam_search(model, [0, 1], a, width)
            assert all(type(c) is dict for c in a.children)
            assert len(a.children) == 1 + len(stepped)
            assert set(a.node_of) == stepped | {()}


class TestTermSetRoot:
    """The root is made with the automaton; any other node by the first
    step into its multiset, and by no other call."""

    def test_root_calls_expand_nothing(self, toy_index, monkeypatch):
        a = TermSetAutomaton(toy_index)
        made = []
        make = TermSetAutomaton._make

        def counted(self, key, live):
            made.append(key)
            return make(self, key, live)

        monkeypatch.setattr(TermSetAutomaton, "_make", counted)
        allowed, end_ok = a.allowed(0)
        assert (set(allowed), end_ok) == naive_term_set(toy_index, ())[:2]
        with pytest.raises(NotTerminal):
            a.complete(0)
        assert made == []
        food, apple = tok(toy_index, "food"), tok(toy_index, "apple")
        assert apple > food
        # A first step onto a new multiset makes it once, under its sorted
        # key; the same step again finds the id written over the list.
        after_apple = a.step(0, apple)
        assert made == [(apple,)]
        assert a.step(0, apple) == after_apple
        both = a.step(after_apple, food)
        assert made == [(apple,), (food, apple)]
        # The other order reaches the same node through node_of.
        assert a.step(a.step(0, food), apple) == both
        assert made == [(apple,), (food, apple), (food,)]
        for state in range(len(a.children)):
            a.allowed(state)
            try:
                a.complete(state)
            except NotTerminal:
                pass
        assert made == [(apple,), (food, apple), (food,)]
        assert a.complete(both) == (toy_index.records[0],)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_body_at_the_root(self, strategy):
        """A record with no body ends the empty emission under the trie and
        the term set; the FM root never allows END."""
        index = make_index({"d0": "x-y", "d1": "", "d2": "y-x-x"})
        assert index.records[1].tokens == (END,)
        a = build(strategy, index)
        allowed, end_ok = a.allowed(a.start())
        assert allowed == naive_allowed(strategy, index, ())
        done = naive_complete(strategy, index, ())
        if strategy == "fm_index":
            assert not end_ok and done == ()
            with pytest.raises(NotTerminal):
                a.complete(a.start())
        else:
            assert end_ok and done == (index.records[1],)
            assert a.complete(a.start()) == done
        if strategy == "term_set":
            assert (allowed, end_ok, done) == naive_term_set(index, ())


class TestInvalidNode:
    @pytest.mark.parametrize("cls, table", [(TrieAutomaton, "children"),
                                            (FmIndexAutomaton, "children"),
                                            (TermSetAutomaton, "children")])
    def test_out_of_range(self, toy_index, cls, table):
        a = cls(toy_index)
        food = tok(toy_index, "food")
        a.step(a.start(), food)
        nodes = len(getattr(a, table))
        # The message names the automaton's class, whichever class's
        # method raised it.
        for state in (-1, nodes):
            message = f"{cls.__name__} node {state}"
            with pytest.raises(InvalidState, match=f"^{message}$"):
                a.allowed(state)
            with pytest.raises(InvalidState, match=f"^{message}$"):
                a.step(state, food)
            with pytest.raises(InvalidState, match=f"^{message}$"):
                a.complete(state)
        with pytest.raises(NotTerminal, match=f"^{cls.__name__} node 0$"):
            a.complete(a.start())
        assert len(getattr(a, table)) == nodes


def naive_allowed(strategy, index, emitted):
    """The tokens allowed after *emitted*, by a scan over the record
    bodies."""
    n = len(emitted)
    bodies = [r.tokens[:-1] for r in index.records]
    if strategy == "trie":
        return {b[n] for b in bodies if len(b) > n and b[:n] == emitted}
    if strategy == "fm_index":
        return {b[i + n] for b in bodies for i in range(len(b) - n)
                if b[i:i + n] == emitted}
    return naive_term_set(index, emitted)[0]


class TestAllowedView:
    """allowed() hands out a kept view: ascending, equal to a scan of the
    records, and read-only."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_ascending_and_matches_oracle(self, strategy):
        rng = random.Random(17)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 12), 8,
                                        max_len=4)
            a = build(strategy, index)
            stack = [(a.start(), ())]
            while stack:
                state, emitted = stack.pop()
                allowed, _ = a.allowed(state)
                assert list(allowed) == sorted(allowed)
                assert allowed == naive_allowed(strategy, index, emitted)
                stack.extend((a.step(state, t), emitted + (t,))
                             for t in allowed)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stepping_while_iterating(self, strategy):
        """As the beam does, step each token of a fresh node's view while
        the view is still being iterated: the term set writes a new child's
        id into the very dict the view reads, which must neither raise nor
        change the tokens or their order."""
        rng = random.Random(23)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 12), 6,
                                        max_len=4)
            a = build(strategy, index)
            stack = [(a.start(), ())]
            while stack:
                state, emitted = stack.pop()
                allowed, _ = a.allowed(state)
                got = []
                for t in allowed:
                    got.append(t)
                    stack.append((a.step(state, t), emitted + (t,)))
                assert got == sorted(naive_allowed(strategy, index, emitted))
                assert list(a.allowed(state)[0]) == got

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_read_only(self, toy_index, strategy):
        a = build(strategy, toy_index)
        state = a.start()
        allowed, _ = a.allowed(state)
        before = list(allowed)
        for mutate in ("add", "discard", "remove", "clear", "update"):
            assert not hasattr(allowed, mutate)
        with pytest.raises(TypeError):
            allowed[0] = 5
        assert list(a.allowed(state)[0]) == before


def naive_complete(strategy, index, emitted):
    """The records complete() lists after *emitted*, by a scan over the
    record bodies, in index order."""
    n = len(emitted)
    if strategy == "trie":
        return tuple(r for r in index.records if r.tokens[:-1] == emitted)
    if strategy == "fm_index":
        return tuple(r for r in index.records if n and len(r.tokens) > n
                     and r.tokens[-1 - n:-1] == emitted)
    return naive_term_set(index, emitted)[2]


class TestKeptAnswers:
    """allowed() hands out a view of the node's own dict of children and
    complete() one kept tuple per node, the same objects on every call,
    equal to a scan of the records."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_objects_equal_to_a_scan(self, strategy):
        rng = random.Random(19)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 12), 6,
                                        max_len=4)
            a = build(strategy, index)
            stack = [(a.start(), ())]
            while stack:
                state, emitted = stack.pop()
                done = naive_complete(strategy, index, emitted)
                moves = a.allowed(state)
                # A view of the kept dict itself, not of a copy.
                [kept] = gc.get_referents(moves[0])
                assert kept is a.children[state]
                assert moves == (naive_allowed(strategy, index, emitted),
                                 bool(done))
                if done:
                    records = a.complete(state)
                    assert type(records) is tuple and records == done
                    assert a.complete(state) is records
                else:
                    with pytest.raises(NotTerminal):
                        a.complete(state)
                stack.extend((a.step(state, t), emitted + (t,))
                             for t in moves[0])


class TestFmMemo:
    def test_bounded_after_toy_run(self, tmp_path, monkeypatch):
        """Decoding every query of a toy run leaves the tables as they were
        built, at most the 2n states of n body tokens."""
        from gentrieval import evaluation
        from gentrieval.cli import main

        script = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
                  / "make_toy_data.py")
        subprocess.run([sys.executable, str(script), "--out", str(tmp_path),
                        "--docs", "40", "--queries", "30", "--seed", "3"],
                       check=True, capture_output=True)
        index = str(tmp_path / "index.json")
        assert main(["build-index", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--out", index, "--views", "ngram"]) == 0
        built = []

        read = set()

        def build_and_keep(strategy, idx):
            a = build(strategy, idx)
            built.append((idx, a, [dict(c) for c in a.children],
                          list(a.completions)))
            allowed = a.allowed
            a.allowed = lambda state: read.add(state) or allowed(state)
            return a

        monkeypatch.setattr(evaluation, "build_automaton", build_and_keep)
        queries = str(tmp_path / "queries.jsonl")
        evaluation.run_experiment(evaluation.ExperimentConfig(
            corpus_path=str(tmp_path / "corpus.jsonl"), queries_path=queries,
            index_path=index, strategy="fm_index", pipeline="r4r",
            reason_model_path=str(tmp_path / "reasoner.json"),
            ngram_train_queries_path=queries))
        [(idx, a, children, completions)] = built
        n = sum(len(r.tokens) - 1 for r in idx.records)
        assert 30 < len(read)
        assert a.children == children and a.completions == completions
        assert len(a.children) == len(a.completions) <= 2 * n


class TestBuiltMemory:
    """Memory held on the 1000-doc toy corpus at 8 levels, where docids run
    8 to 12 tokens and suffix-automaton states get cloned. The trie holds
    about 1.75 MB and the suffix automaton about 2.6 MB after the build:
    per node its dict of children and its tuple of records. A kept
    allowed() pair per node, or a list of records per node beside the
    tuples, makes either exceed its bound. The term set grows as searches
    reach its nodes, so it is measured after decoding 50 fixed queries:
    about 5.2 MB, where a node object per node, with a second dict of
    stepped children and a kept allowed() pair, held 6.25 MB."""

    @pytest.fixture(scope="class")
    def deep_index(self, toy_corpus):
        return build_index(toy_corpus(1000), levels=8)

    @pytest.mark.parametrize("automaton, bound_mb", [
        (TrieAutomaton, 2.0), (FmIndexAutomaton, 2.9)], ids=["trie", "fm"])
    def test_held_after_build(self, deep_index, automaton, bound_mb):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            a = automaton(deep_index)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(a.children) > 7000
        assert held <= bound_mb * 1e6

    def test_term_set_held_after_decoding(self, deep_index, toy_corpus):
        # Each query is the first 8 known words of a document's text; the
        # model is trained to answer it with that document's path docid.
        pairs = []
        for doc in list(toy_corpus(1000))[:50]:
            [rec] = [r for r in deep_index.by_doc[doc.doc_key]
                     if r.view == "path"]
            pairs.append((deep_index.vocab.encode(
                doc.text, on_unknown="skip")[:8], rec.tokens))
        model = NgramModel(deep_index.vocab)
        model.train(pairs)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            a = TermSetAutomaton(deep_index)
            for prompt, _ in pairs:
                constrained_beam_search(model, prompt, a, 10)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(a.children) > 2000
        assert held <= 5.7e6


class TestNoDeadEnds:
    """From every reachable state an accepting continuation exists."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_random_indices(self, strategy):
        rng = random.Random(7)
        for _ in range(10):
            index = random_record_index(rng, rng.randint(2, 8), 5, max_len=3)
            a = build(strategy, index)

            def reaches_end(state, depth):
                allowed, end_ok = a.allowed(state)
                if end_ok:
                    return True
                if depth == 0:
                    return False
                return any(reaches_end(a.step(state, t), depth - 1)
                           for t in allowed)

            stack = [(a.start(), 0)]
            while stack:
                state, depth = stack.pop()
                allowed, end_ok = a.allowed(state)
                assert end_ok or allowed
                assert reaches_end(state, 4 - depth)
                if depth < 4:
                    stack.extend((a.step(state, t), depth + 1)
                                 for t in allowed)


class TestBuild:
    def test_strategy_dispatch(self, toy_index):
        assert isinstance(build("trie", toy_index), TrieAutomaton)
        assert isinstance(build("fm_index", toy_index), FmIndexAutomaton)
        assert isinstance(build("term_set", toy_index), TermSetAutomaton)

    def test_empty_index(self):
        from gentrieval.corpus import Vocabulary
        with pytest.raises(EmptyIndex):
            build("trie", DocIdIndex([], Vocabulary()))

    def test_unknown_strategy(self, toy_index):
        with pytest.raises(ConfigError) as exc:
            build("suffix-tree", toy_index)
        assert str(exc.value) == "unknown strategy 'suffix-tree'"
