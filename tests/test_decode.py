import itertools
import math
import random
from collections import Counter

import pytest

from gentrieval.constraint import STRATEGIES, TrieAutomaton, build
from gentrieval.corpus import END
from gentrieval.decode import (Candidate, Hypothesis, RankedList,
                               constrained_beam_search, dedup_rank,
                               merge_views)
from gentrieval.docid import DocIdRecord
from gentrieval.errors import ConfigError, NoValidPath, UnknownToken
from gentrieval.lm import NgramModel, ScriptedModel, sequence_logprob

from conftest import (TOY_DIST_RULES, TOY_EXTRA_WORDS, TOY_SURFACES,
                      SparseTableModel, TableModel, WholeContext, dist_after,
                      enumerate_accepted, make_index, random_dist_rules,
                      random_record_index, ref_logprob)


def toy_setup():
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
    model = ScriptedModel(index.vocab, dist_rules=TOY_DIST_RULES)
    return index, model


class TestBeamSearch:
    def test_toy_ranking(self):
        # Path probabilities, multiplied by hand:
        #   food-apple  0.7 * 0.6 = 0.42
        #   tech-apple  0.3 * 1.0 = 0.30
        #   food-banana 0.7 * 0.4 = 0.28
        index, model = toy_setup()
        hyps = constrained_beam_search(model, [], TrieAutomaton(index), 3)
        assert [h.records[0].doc_key for h in hyps] == ["d1", "d2", "d3"]
        assert [h.score for h in hyps] == pytest.approx(
            [math.log(0.42), math.log(0.30), math.log(0.28)])

    def test_same_ranking_all_strategies(self):
        index, model = toy_setup()
        for strategy in STRATEGIES:
            hyps = constrained_beam_search(
                model, [], build(strategy, index), 8)
            by_doc = {}
            for h in hyps:
                for r in h.records:
                    by_doc.setdefault(r.doc_key, h.score)
            assert by_doc["d1"] == pytest.approx(math.log(0.42))
            assert by_doc["d2"] == pytest.approx(math.log(0.30))

    def test_width_one_greedy(self):
        index, model = toy_setup()
        hyps = constrained_beam_search(model, [], TrieAutomaton(index), 1)
        assert len(hyps) == 1
        assert hyps[0].records[0].doc_key == "d1"

    def test_prompt_conditions_scores(self):
        index, model = toy_setup()
        calories = index.vocab.id_of("calories")
        hyps = constrained_beam_search(
            model, [calories], TrieAutomaton(index), 3)
        assert hyps[0].records[0].doc_key == "d1"
        assert hyps[0].score == pytest.approx(math.log(0.9 * 0.6))

    def test_scores_equal_sequence_logprob(self):
        index, model = toy_setup()
        for hyp in constrained_beam_search(model, [], TrieAutomaton(index), 3):
            assert hyp.score == pytest.approx(
                sequence_logprob(model, [], list(hyp.tokens)))

    def test_no_valid_path(self):
        class Dead:
            def start(self):
                return 0

            def allowed(self, state):
                return set(), False

        index, model = toy_setup()
        with pytest.raises(NoValidPath):
            constrained_beam_search(model, [], Dead(), 20)

    @pytest.mark.parametrize("width", [0, -1])
    def test_rejects_width_below_one(self, width):
        index, model = toy_setup()
        with pytest.raises(ConfigError, match="beam width must be >= 1"):
            constrained_beam_search(model, [], TrieAutomaton(index), width)

    @pytest.mark.parametrize("strategy", ["trie"])
    def test_full_width_is_exhaustive(self, strategy):
        # With beam width >= the number of live prefixes, beam search must
        # reproduce the exhaustive enumeration ranking exactly.
        rng = random.Random(11)
        for trial in range(25):
            index = random_record_index(rng, rng.randint(2, 10), 5, max_len=3)
            automaton = build(strategy, index)
            model = TableModel(len(index.vocab), seed=trial)
            width = 200
            hyps = constrained_beam_search(model, [], automaton, width)
            oracle = []
            for seq, _ in enumerate_accepted(automaton, max_len=4):
                oracle.append((sequence_logprob(model, [], list(seq)), seq))
            oracle.sort(key=lambda e: (-e[0], e[1]))
            assert [h.tokens for h in hyps] == [s for _, s in oracle[:width]]
            for h, (score, _) in zip(hyps, oracle):
                assert h.score == pytest.approx(score)

    def test_monotone_widening(self):
        # A wider beam's result set contains the narrower beam's top item.
        rng = random.Random(13)
        for trial in range(10):
            index = random_record_index(rng, rng.randint(3, 10), 5, max_len=3)
            automaton = TrieAutomaton(index)
            model = TableModel(len(index.vocab), seed=100 + trial)
            prev_best = None
            for width in (1, 4, 50):
                hyps = constrained_beam_search(model, [], automaton, width)
                scores = [h.score for h in hyps]
                assert scores == sorted(scores, reverse=True)
                if prev_best is not None and hyps:
                    assert hyps[0].score >= prev_best - 1e-12
                if hyps:
                    prev_best = hyps[0].score


class RecordingAutomaton:
    """Passes calls through to *inner*, recording allowed() and step().

    Its states are (inner state, emitted tokens), so each expanded state
    names the tokens that led to it, even where the inner automaton
    shares one state between several emission orders.
    """

    def __init__(self, inner):
        self.inner = inner
        self.allowed_states = []
        self.steps = []  # (parent state, token, next state)

    def start(self):
        return (self.inner.start(), ())

    def allowed(self, state):
        self.allowed_states.append(state)
        return self.inner.allowed(state[0])

    def step(self, state, token):
        nxt = (self.inner.step(state[0], token), state[1] + (token,))
        self.steps.append((state, token, nxt))
        return nxt

    def complete(self, state):
        return self.inner.complete(state[0])


class RecordingModel:
    """Passes calls through to *inner*, recording each state scored."""

    def __init__(self, inner):
        self.inner = inner
        self.states = []

    def start(self, prompt_ids):
        return self.inner.start(prompt_ids)

    def step(self, state, token):
        return self.inner.step(state, token)

    def next_token_distribution(self, state):
        self.states.append(state)
        return self.inner.next_token_distribution(state)


class TestPruneThenStep:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_steps_only_survivors(self, strategy):
        rng = random.Random(29)
        prompt = [0, 1]
        width = 3
        for trial in range(10):
            index = random_record_index(rng, 30, 6, max_len=4)
            automaton = RecordingAutomaton(build(strategy, index))
            model = RecordingModel(TableModel(len(index.vocab), seed=trial))
            constrained_beam_search(model, prompt, automaton, width)
            # At most width steps per depth.
            per_depth = Counter(len(nxt[1]) for _, _, nxt in automaton.steps)
            assert max(per_depth.values()) <= width
            # allowed() once per expanded state: the start state and every
            # stepped state.
            expanded = [automaton.start()] + [n for _, _, n in automaton.steps]
            assert Counter(automaton.allowed_states) == Counter(expanded)
            # The model is called once per expanded state, with the prompt
            # and that state's tokens as context (TableModel's state).
            assert Counter(model.states) == Counter(
                tuple(prompt) + tokens for _, tokens in expanded)


class EndRecordingAutomaton(RecordingAutomaton):
    """Also records, in call order, the emitted tokens of each state where
    allowed() permits END, and of each state complete() is asked for."""

    def __init__(self, inner):
        super().__init__(inner)
        self.end_legal = []
        self.completed = []

    def allowed(self, state):
        allowed, end_ok = super().allowed(state)
        if end_ok:
            self.end_legal.append(state[1])
        return allowed, end_ok

    def complete(self, state):
        self.completed.append(state[1])
        return super().complete(state)


class TestBoundedPool:
    def test_complete_only_for_returned_hypotheses(self):
        # On FM indices END is legal after any suffix of a record, so it is
        # offered at several depths and many offers miss the pool.
        rng = random.Random(31)
        missed = depths = left = 0
        for trial in range(12):
            index = random_record_index(rng, rng.randint(5, 25), 8, max_len=4)
            automaton = EndRecordingAutomaton(build("fm_index", index))
            model = SparseTableModel(len(index.vocab), seed=trial)
            prompt = [rng.randrange(len(index.vocab)) for _ in range(2)]
            width = rng.randint(1, 5)
            hyps = constrained_beam_search(model, prompt, automaton, width)
            assert hyps == dense_beam_search(
                model, prompt, build("fm_index", index), width)
            # complete() is asked once per returned hypothesis, in returned
            # order, and for nothing else.
            returned = [h.tokens[:-1] for h in hyps]
            assert automaton.completed == returned
            # Replay the offers in order: one enters the pool when it ranks
            # among the top width of the offers so far. Some that enter
            # are pushed out later, and complete() is never asked for them.
            so_far, entrants = [], []
            for gen in automaton.end_legal:
                key = (-sequence_logprob(model, prompt, list(gen) + [END]),
                       gen)
                so_far.append(key)
                if key in sorted(so_far)[:width]:
                    entrants.append(gen)
            left += len(set(entrants) - set(returned))
            missed += len(automaton.end_legal) - len(returned)
            depths += len({len(gen) for gen in automaton.end_legal}) > 1
        assert missed > 0 and depths > 0 and left > 0


def dense_distribution(model, ctx, tokens):
    """The sparse (default, overrides) form after the whole context *ctx*,
    expanded over *tokens*."""
    default, overrides = dist_after(model, ctx)
    return {t: overrides.get(t, default) for t in tokens}


def dense_beam_search(model, prompt_tokens, automaton, width, max_len=6):
    """The beam loop before the sparse cut, kept as its oracle: every
    allowed token of every live state is scored and sorted. It stops after
    *max_len* depths, more than any record of the tests' indices needs, so
    equality also shows that the beam, which has no length bound, finds
    nothing deeper."""
    start = automaton.start()
    start_moves = automaton.allowed(start)
    if not start_moves[0] and not start_moves[1]:
        raise NoValidPath("automaton start state admits no token")

    prompt = list(prompt_tokens)
    live = [(0.0, (), start)]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        expansions = []
        for score, gen, state in live:
            allowed, end_ok = automaton.allowed(state) if gen else start_moves
            toks = sorted(allowed)
            dist = dense_distribution(
                model, prompt + list(gen), toks + [END] if end_ok else toks)
            if end_ok:
                finished.append(Hypothesis(
                    tokens=gen + (END,), score=score + dist[END],
                    records=tuple(automaton.complete(state))))
            for tok in toks:
                expansions.append((score + dist[tok], gen + (tok,), state))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        live = [(score, gen, automaton.step(parent, gen[-1]))
                for score, gen, parent in expansions[:width]]
    finished.sort(key=lambda h: (-h.score, h.tokens))
    return finished[:width]


def trained_ngram(index, rng, order=3):
    """An n-gram model over *index*'s vocabulary, trained on random
    prompts paired with a few of its records."""
    model = NgramModel(index.vocab, order=order)
    words = range(2, len(index.vocab))
    for rec in rng.sample(index.records, max(1, len(index.records) // 3)):
        prompt = [rng.choice(words) for _ in range(rng.randint(0, 3))]
        model.train_pair(prompt, list(rec.tokens))
    return model


class TestSparseMatchesDense:
    """Expanding only the overrides and the width smallest
    default-scored tokens per parent returns exactly what scoring every
    allowed token returns: tokens, scores (==) and records."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sparse_table_model(self, strategy):
        rng = random.Random(41)
        for trial in range(12):
            index = random_record_index(rng, rng.randint(3, 25), 10,
                                        max_len=4)
            automaton = build(strategy, index)
            model = SparseTableModel(len(index.vocab), seed=trial)
            prompt = [rng.randrange(len(index.vocab)) for _ in range(2)]
            for width in range(1, 9):
                assert constrained_beam_search(
                    model, prompt, automaton, width) == dense_beam_search(
                    model, prompt, automaton, width)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_trained_ngram(self, strategy):
        rng = random.Random(43)
        for trial in range(12):
            index = random_record_index(rng, rng.randint(3, 25), 10,
                                        max_len=4)
            automaton = build(strategy, index)
            model = trained_ngram(index, rng)
            prompts = [[]] + [[rng.randrange(2, len(index.vocab))
                               for _ in range(3)] for _ in range(2)]
            for prompt, width in itertools.product(prompts, range(1, 9)):
                assert constrained_beam_search(
                    model, prompt, automaton, width) == dense_beam_search(
                    model, prompt, automaton, width)


class FullContext(WholeContext):
    """Holds the whole context as its state and scores it by starting
    *inner* from it, so *inner*'s own states are never stepped."""

    def __init__(self, inner):
        self.inner = inner

    def next_token_distribution(self, ctx):
        return dist_after(self.inner, ctx)


class TestModelState:
    """The beam carries each model's own states, which hold no more tokens
    than its distribution reads, and returns exactly what it returns when
    every call is scored from the whole context."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_ngram_matches_full_context(self, strategy, order):
        rng = random.Random(47 + order)
        for trial in range(6):
            index = random_record_index(rng, rng.randint(3, 25), 10,
                                        max_len=4)
            automaton = build(strategy, index)
            model = trained_ngram(index, rng, order=order)
            prompts = [[]] + [[rng.randrange(2, len(index.vocab))
                               for _ in range(n)] for n in (1, 5)]
            for prompt, width in itertools.product(prompts, range(1, 9)):
                recorded = RecordingModel(model)
                assert constrained_beam_search(
                    recorded, prompt, automaton, width) == \
                    constrained_beam_search(
                        FullContext(model), prompt, automaton, width)
                lengths = [len(state) for state in recorded.states]
                assert lengths[0] == min(len(prompt), order - 1)
                assert max(lengths) <= order - 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_scripted_rules_of_several_lengths(self, strategy):
        rng = random.Random(53)
        for trial in range(10):
            index = random_record_index(rng, rng.randint(3, 25), 6,
                                        max_len=4)
            automaton = build(strategy, index)
            model = ScriptedModel(index.vocab, dist_rules=random_dist_rules(
                rng, index.vocab))
            prompts = [[], [rng.randrange(2, len(index.vocab))
                            for _ in range(6)]]
            for prompt, width in itertools.product(prompts, (1, 3, 8)):
                recorded = RecordingModel(model)
                assert constrained_beam_search(
                    recorded, prompt, automaton, width) == \
                    constrained_beam_search(
                        FullContext(model), prompt, automaton, width)
                lengths = [len(state) for state in recorded.states]
                assert lengths[0] == min(len(prompt), 3)
                assert max(lengths) <= 3

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_full_width_ngram_is_exhaustive(self, strategy, order):
        # Scored from the model's counts alone, never through its states:
        # at full width the beam returns every accepted sequence, ranked
        # and scored exactly as ref_logprob ranks and scores it.
        rng = random.Random(59 + order)
        for trial in range(8):
            index = random_record_index(rng, rng.randint(2, 10), 5,
                                        max_len=3)
            automaton = build(strategy, index)
            model = trained_ngram(index, rng, order=order)
            prompt = [rng.randrange(2, len(index.vocab))
                      for _ in range(rng.choice((0, 1, 5)))]
            hyps = constrained_beam_search(model, prompt, automaton, 200)
            oracle = sorted(
                ((ref_logprob(model, prompt, seq), seq)
                 for seq, _ in enumerate_accepted(automaton, max_len=4)),
                key=lambda e: (-e[0], e[1]))
            assert [(h.score, h.tokens) for h in hyps] == oracle[:200]

    @pytest.mark.parametrize("make_model", [
        lambda vocab: NgramModel(vocab),
        lambda vocab: ScriptedModel(vocab, dist_rules=TOY_DIST_RULES)])
    def test_unknown_prompt_token(self, make_model):
        # The bad token sits far before the tokens a state keeps: start
        # reads the whole prompt and rejects it.
        index, _ = toy_setup()
        model = make_model(index.vocab)
        prompt = [len(index.vocab)] + [index.vocab.id_of("food")] * 5
        with pytest.raises(UnknownToken):
            constrained_beam_search(model, prompt, TrieAutomaton(index),
                                    3)


def rec(key, surface, view="path"):
    return DocIdRecord(key, (END,), surface, view)


def hyp(score, *records):
    return Hypothesis((END,), score, records)


def two_step_dedup(hyps, k):
    """One Candidate per record, then the best per doc_key (higher score,
    then smaller surface), then sorted."""
    cands = [Candidate(record=r, score=h.score) for h in hyps
             for r in h.records]
    best = {}
    for c in cands:
        cur = best.get(c.doc_key)
        if cur is None or c.score > cur.score or (
                c.score == cur.score and c.record.surface < cur.record.surface):
            best[c.doc_key] = c
    ranked = sorted(best.values(),
                    key=lambda c: (-c.score, c.record.surface, c.doc_key))
    return RankedList(ranked[:k])


class TestDedupRank:
    def test_best_per_doc(self):
        hyps = [hyp(-1.0, rec("d1", "a")),
                hyp(-0.5, rec("d1", "b")),
                hyp(-0.7, rec("d2", "c"))]
        ranked = dedup_rank(hyps, k=5)
        assert ranked.doc_keys() == ["d1", "d2"]
        assert ranked[0].score == -0.5
        assert ranked[0].record.surface == "b"

    def test_truncation(self):
        hyps = [hyp(-float(i), rec(f"d{i}", f"s{i}")) for i in range(5)]
        assert dedup_rank(hyps, k=2).doc_keys() == ["d0", "d1"]

    def test_tie_breaks_on_surface_then_key(self):
        hyps = [hyp(-1.0, rec("d2", "beta")),
                hyp(-1.0, rec("d1", "alpha"))]
        assert dedup_rank(hyps, k=5).doc_keys() == ["d1", "d2"]

    def test_equal_score_prefers_smaller_surface_within_doc(self):
        # Within one hypothesis and across two.
        for hyps in ([hyp(-1.0, rec("d1", "zz"), rec("d1", "aa"))],
                     [hyp(-1.0, rec("d1", "zz")), hyp(-1.0, rec("d1", "aa"))]):
            assert dedup_rank(hyps, k=1)[0].record.surface == "aa"

    def test_matches_two_step_oracle(self):
        rng = random.Random(23)
        for _ in range(500):
            # Few scores, keys and surfaces, so ties within and across
            # documents are common.
            hyps = [hyp(rng.choice([-0.5, -1.0, -1.5, -3.0]),
                        *(rec(f"d{rng.randint(0, 6)}",
                              rng.choice(["a", "b", "c", "a-b"]))
                          for _ in range(rng.randint(0, 4))))
                    for _ in range(rng.randint(0, 12))]
            k = rng.randint(1, 8)
            assert dedup_rank(hyps, k) == two_step_dedup(hyps, k)


class TestMergeViews:
    def test_logsumexp_aggregation(self):
        # A: two views at log 0.25 each -> log 0.5.
        # B: one view at log 0.45 -> log 0.45. A must outrank B.
        hyps = [
            Hypothesis((END,), math.log(0.25), (rec("A", "a1", "path"),)),
            Hypothesis((END,), math.log(0.25), (rec("A", "a2", "title"),)),
            Hypothesis((END,), math.log(0.45), (rec("B", "b1", "path"),)),
        ]
        ranked = merge_views(hyps, k=10)
        assert ranked.doc_keys() == ["A", "B"]
        assert ranked[0].score == pytest.approx(math.log(0.5))
        assert ranked[1].score == pytest.approx(math.log(0.45))

    def test_hypothesis_counted_once_per_document(self):
        # One hypothesis completing to two records of A adds its mass once.
        hyps = [
            Hypothesis((END,), math.log(0.4), (rec("A", "a2", "ngram"),
                                               rec("A", "a1", "path"))),
            Hypothesis((END,), math.log(0.3), (rec("B", "b1", "path"),)),
        ]
        ranked = merge_views(hyps, k=10)
        assert ranked.doc_keys() == ["A", "B"]
        assert ranked[0].score == math.log(0.4)
        assert ranked[0].record.surface == "a1"

    def test_representative_is_best_view(self):
        hyps = [
            Hypothesis((END,), math.log(0.1), (rec("A", "weak", "title"),)),
            Hypothesis((END,), math.log(0.3), (rec("A", "strong", "path"),)),
        ]
        ranked = merge_views(hyps, k=10)
        assert ranked[0].record.surface == "strong"

    def test_k_truncation_and_tie_order(self):
        hyps = [
            Hypothesis((END,), -1.0, (rec("B", "b"),)),
            Hypothesis((END,), -1.0, (rec("A", "a"),)),
            Hypothesis((END,), -2.0, (rec("C", "c"),)),
        ]
        ranked = merge_views(hyps, k=2)
        assert ranked.doc_keys() == ["A", "B"]

    def test_single_view_matches_dedup(self):
        hyps = [
            Hypothesis((END,), -0.2, (rec("d1", "x"),)),
            Hypothesis((END,), -0.9, (rec("d2", "y"),)),
        ]
        merged = merge_views(hyps, k=10)
        deduped = dedup_rank(hyps, k=10)
        assert merged.doc_keys() == deduped.doc_keys()
        for m, d in zip(merged, deduped):
            assert m.score == pytest.approx(d.score)
