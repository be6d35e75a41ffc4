import json
import math
import random
from collections import Counter

import pytest
import requests
from hypothesis import example, given, strategies as st

from gentrieval import lm
from gentrieval.constraint import STRATEGIES, build
from gentrieval.corpus import END, SEP, Corpus, Document, Vocabulary
from gentrieval.decode import constrained_beam_search
from gentrieval.evaluation import nll_losses
from gentrieval.errors import (ConfigError, MissingEnd, NotSupported,
                               RemoteTimeout, RemoteUnavailable, UnknownToken)
from gentrieval.lm import (FLOOR_LOGPROB, NgramModel, RemoteModel,
                           ScriptedModel, sequence_logprob)
from gentrieval.reasoning import PromptRegistry

from conftest import (DEEP_JSON, PARSER_LIMITS, TOY_DIST_RULES,
                      TOY_EXTRA_WORDS, TOY_SURFACES, GenerateHandler,
                      SparseTableModel, TableModel, add_one_pair,
                      assert_same_model, dist_after, make_index,
                      random_dist_rules, random_record_index, ref_logprob,
                      ref_train_pair)


def toy_model():
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
    return ScriptedModel(index.vocab, dist_rules=TOY_DIST_RULES), index


def dense(m, ctx):
    """The sparse (default, overrides) form after *ctx*, expanded over the
    vocabulary."""
    default, overrides = dist_after(m, ctx)
    return {t: overrides.get(t, default) for t in range(len(m.vocab))}


class TestScriptedGenerate:
    def rules_model(self, rules):
        return ScriptedModel(Vocabulary(), generate_rules=rules)

    def test_exact(self):
        m = self.rules_model([{"match": "ping", "match_type": "exact",
                               "response": "pong"}])
        assert m.generate("ping", 256) == "pong"
        assert m.generate("ping!", 256) == ""

    def test_prefix_and_contains(self):
        m = self.rules_model([
            {"match": "Q:", "match_type": "prefix", "response": "pre"},
            {"match": "needle", "match_type": "contains", "response": "found"},
        ])
        assert m.generate("Q: anything", 256) == "pre"
        assert m.generate("hay needle stack", 256) == "found"
        assert m.generate("nothing here", 256) == ""

    def test_first_match_wins(self):
        m = self.rules_model([
            {"match": "x", "response": "first"},
            {"match": "x", "response": "second"},
        ])
        assert m.generate("axb", 256) == "first"

    def test_max_tokens(self):
        m = self.rules_model([{"match": "go", "response": "one two STOP three"}])
        assert m.generate("go", 2) == "one two"
        assert m.generate("go", 4) == "one two STOP three"

    def test_from_file_bare_list(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps([{"match": "a", "response": "b"}]))
        m = ScriptedModel.from_file(p, Vocabulary())
        assert m.generate("a", 256) == "b"

    @pytest.mark.parametrize("content, error", PARSER_LIMITS)
    def test_from_file_past_parser_limit(self, tmp_path, content, error):
        p = tmp_path / "rules.json"
        p.write_text(content)
        with pytest.raises(ConfigError, match=f"not JSON: {error}"):
            ScriptedModel.from_file(p, Vocabulary())

    def test_from_file_sections(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({
            "generate": [{"match": "a", "response": "b"}],
            "distributions": TOY_DIST_RULES,
        }))
        index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
        m = ScriptedModel.from_file(p, index.vocab)
        assert m.generate("a", 256) == "b"
        toy, _ = toy_model()
        for word in TOY_EXTRA_WORDS + ["food", "apple", "tech", "banana"]:
            ctx = [index.vocab.id_of(word)]
            assert dist_after(m, ctx) == dist_after(toy, ctx)


def naive_generate(rules, prompt, max_tokens):
    """Scan every rule in table order; the first match wins."""
    for rule in rules:
        match = rule["match"]
        mode = rule.get("match_type", "contains")
        hit = (prompt == match if mode == "exact"
               else prompt.startswith(match) if mode == "prefix"
               else match in prompt)
        if hit:
            words = rule["response"].split()
            return (" ".join(words[:max_tokens])
                    if len(words) > max_tokens else rule["response"])
    return ""


class ComparingPrompt(str):
    """A prompt that counts the rule comparisons made against it."""

    compares = 0

    def __eq__(self, other):
        self.compares += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__

    def startswith(self, *args):
        self.compares += 1
        return str.startswith(self, *args)

    def __contains__(self, other):
        self.compares += 1
        return str.__contains__(self, other)


# Words that share letters, so that matches cut mid-word hit other words,
# and every kind of whitespace str.split() splits on.
INDEX_WORDS = ["a", "ab", "ba", "abc", "c", "Query:", "déjà", "x1"]
INDEX_SPACES = [" ", "  ", "\t", "\n", "\x1f", "\u3000", " \n"]


def random_text(rng, max_words=6):
    """Words separated by whitespace, each end padded or not at random."""
    words = [rng.choice(INDEX_WORDS) for _ in range(rng.randint(0, max_words))]
    text = "".join(w + rng.choice(INDEX_SPACES) for w in words)
    if rng.random() < 0.5:
        text = rng.choice(INDEX_SPACES) + text
    if rng.random() < 0.5:
        text = text.rstrip()
    return text


def random_match(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return ""
    if kind == 1:
        return "".join(rng.choice(INDEX_SPACES)
                       for _ in range(rng.randint(1, 3)))
    text = random_text(rng)
    if kind == 2 and text:  # cut at both ends, possibly mid-word
        i = rng.randrange(len(text))
        return text[i:rng.randint(i, len(text))]
    return text


def random_rules(rng, n):
    return [{"match": random_match(rng),
             "match_type": rng.choice(lm.MATCH_TYPES),
             "response": f"r{i} w{i} x{i}"} for i in range(n)]


def prompt_around(rng, rule):
    """A prompt that holds *rule*'s match under its mode, with random text
    glued on (possibly mid-word) where the mode allows it."""
    mode, match = rule["match_type"], rule["match"]
    before = "" if mode != "contains" else random_text(rng, 3)
    after = "" if mode == "exact" else random_text(rng, 3)
    return before + match + after


class TestScriptedIndex:
    """generate through the rule index equals a first-match scan of the
    whole table."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_naive_scan(self, seed):
        rng = random.Random(seed)
        rules = random_rules(rng, rng.randint(1, 30))
        m = ScriptedModel(Vocabulary(), generate_rules=rules)
        prompts = [random_text(rng, 10) for _ in range(40)]
        prompts += [prompt_around(rng, rng.choice(rules)) for _ in range(80)]
        prompts += ["", " ", "\u3000", "Query:", "abc\x1fab"]
        for prompt in prompts:
            for cap in (1, 256):
                assert m.generate(prompt, cap) == \
                    naive_generate(rules, prompt, cap), (prompt, rules)

    @pytest.mark.parametrize("match, prompt", [
        ("ab c", "xab c"),       # first token cut mid-word
        ("a bc", "a bcd"),       # last token cut mid-word
        ("b\x1fa ", "ab\x1fa x"),  # starts mid-word, ends in whitespace
        (" a\u3000b", "c a\u3000bb"),
    ])
    def test_match_cut_mid_word(self, match, prompt):
        m = ScriptedModel(Vocabulary(), generate_rules=[
            {"match": match, "response": "hit"}])
        assert m.generate(prompt, 256) == "hit"

    def test_first_match_among_indexed_and_unindexed(self):
        rules = [{"match": " three ", "response": "indexed"},
                 {"match": "two three four", "response": "indexed-late"},
                 {"match": "one two three", "match_type": "prefix",
                  "response": "prefix"},
                 {"match": "", "response": "catch-all"}]
        m = ScriptedModel(Vocabulary(), generate_rules=rules)
        assert m.generate("one two three four", 256) == "indexed"
        assert m.generate("one two three", 256) == "prefix"
        assert m.generate("zero", 256) == "catch-all"

    def test_query_anchored_table_compares_few_rules(self):
        # Four rules per query, shaped like the benchmark's reasoner: verify,
        # reflect, format-reminder and think anchors around the query text.
        texts = [f"kw{i % 40} topic{i} tail{i % 7}" for i in range(500)]
        rules = []
        for text in texts:
            rules += [
                {"match": f"Query: {text}\nCandidate identifier: ",
                 "response": "irrelevant"},
                {"match": f"Current context: {text}\n",
                 "response": "<context>c</context><explanation>e"
                             "</explanation>"},
                {"match": f"Query: {text}\nReminder: ",
                 "response": "<context>r</context><explanation>e"
                             "</explanation>"},
                {"match": f"Query: {text}", "response": "think"}]
        assert len(rules) == 2000
        m = ScriptedModel(Vocabulary(), generate_rules=rules)
        reg = PromptRegistry.default()
        text = texts[321]
        for prompt in (reg.render("P_t", query=text),
                       reg.render("P_v", query=text, docid="kw1-tail2"),
                       reg.render("P_f", query=text, docid="kw1-tail2",
                                  context=text, explanation="none")):
            counted = ComparingPrompt(prompt)
            assert m.generate(counted, 256) == \
                naive_generate(rules, prompt, 256)
            assert 1 <= counted.compares <= 4


class TestScriptedDistribution:
    def test_rule_probs(self):
        m, index = toy_model()
        food = index.vocab.id_of("food")
        apple = index.vocab.id_of("apple")
        banana = index.vocab.id_of("banana")
        dist = dense(m, [food])
        assert dist[apple] == pytest.approx(math.log(0.6))
        assert dist[banana] == pytest.approx(math.log(0.4))
        assert dist[food] == FLOOR_LOGPROB

    def test_end_alias(self):
        m, index = toy_model()
        apple = index.vocab.id_of("apple")
        dist = dense(m, [apple])
        assert dist[END] == pytest.approx(0.0)

    def test_suffix_match(self):
        # The ["food"] rule matches any context ending in "food".
        m, index = toy_model()
        tech = index.vocab.id_of("tech")
        food = index.vocab.id_of("food")
        apple = index.vocab.id_of("apple")
        dist = dense(m, [tech, food])
        assert dist[apple] == pytest.approx(math.log(0.6))

    def test_empty_context_rule(self):
        m, index = toy_model()
        food = index.vocab.id_of("food")
        # "which" matches no specific rule; the [] rule catches it.
        which = index.vocab.id_of("which")
        dist = dense(m, [which])
        assert dist[food] == pytest.approx(math.log(0.7))

    def test_no_rule_uniform_minus_sep(self):
        index = make_index(TOY_SURFACES)
        m = ScriptedModel(index.vocab)
        v = len(index.vocab)
        dist = dense(m, [])
        assert dist[SEP] == FLOOR_LOGPROB
        probs = [math.exp(lp) for t, lp in dist.items() if t != SEP]
        assert len(probs) == v - 1
        assert sum(probs) == pytest.approx(1.0)

    def test_unknown_context_token(self):
        m, index = toy_model()
        with pytest.raises(UnknownToken):
            m.start([len(index.vocab)])
        with pytest.raises(UnknownToken):
            m.step(m.start([]), len(index.vocab))

    @pytest.mark.parametrize("rules, index, word", [
        ([{"context": [], "probs": {"xyzzy": 1.0}}], 0, "xyzzy"),
        ([{"context": ["xyzzy"], "probs": {"food": 1.0}}], 0, "xyzzy"),
        ([{"context": ["tech"], "probs": {"food": 1.0}},
          {"context": [], "probs": {"plugh": 0.5}}], 1, "plugh"),
        # An earlier rule matches every context, so the later rule is never
        # reached; its word still fails at construction.
        ([{"context": [], "probs": {"food": 1.0}},
          {"context": ["plugh"], "probs": {"food": 1.0}}], 1, "plugh")])
    def test_unknown_rule_word_fails_at_construction(self, rules, index,
                                                     word):
        with pytest.raises(ConfigError) as exc:
            ScriptedModel(make_index(TOY_SURFACES).vocab, dist_rules=rules)
        assert str(exc.value) == (f"distributions rule {index}: {word!r} is "
                                  "not in the vocabulary")

    def test_reserved_words_name_end_and_sep(self):
        vocab = make_index(TOY_SURFACES).vocab
        m = ScriptedModel(vocab, dist_rules=[
            {"context": ["<sep>"], "probs": {"<end>": 1.0}},
            {"context": [], "probs": {"<sep>": 0.5}}])
        assert dist_after(m, [SEP]) == (FLOOR_LOGPROB, {END: 0.0})
        assert dist_after(m, [END]) == (FLOOR_LOGPROB, {SEP: math.log(0.5)})

    def test_state_keeps_longest_rule_context(self):
        vocab = make_index(TOY_SURFACES, TOY_EXTRA_WORDS).vocab
        ctx = list(range(2, len(vocab)))
        assert ScriptedModel(vocab).start(ctx) == ()
        assert ScriptedModel(vocab, dist_rules=TOY_DIST_RULES).start(
            ctx) == tuple(ctx[-1:])
        rules = [{"context": ["food", "apple", "<end>"], "probs": {}},
                 {"context": [], "probs": {}},
                 {"context": ["tech", "apple"], "probs": {}}]
        assert ScriptedModel(vocab, dist_rules=rules).start(ctx) == \
            tuple(ctx[-3:])


class TestNgram:
    def test_add_one_by_hand(self):
        # Vocabulary: END, SEP, food, apple (V = 4). After one training pair
        # the context (food,) has seen apple once, so P(apple | food)
        # = (1 + 1) / (1 + 4) = 2/5 and every other token gets 1/5.
        vocab = Vocabulary()
        food, apple = vocab.encode("food apple", on_unknown="grow")
        m = NgramModel(vocab, order=3)
        m.train_pair([food], [apple, END])
        dist = dense(m, [food])
        assert dist[apple] == pytest.approx(math.log(2 / 5))
        assert dist[food] == pytest.approx(math.log(1 / 5))
        assert dist[END] == pytest.approx(math.log(1 / 5))

    def test_untrained_uniform(self):
        vocab = Vocabulary()
        vocab.encode("a b c", on_unknown="grow")
        m = NgramModel(vocab)
        dist = dense(m, [])
        assert all(lp == pytest.approx(math.log(1 / 5)) for lp in dist.values())

    def test_memorizes_target(self):
        vocab = Vocabulary()
        prompt_ids = vocab.encode("query apple calories", on_unknown="grow")
        target_ids = vocab.encode("food apple", on_unknown="grow") + [END]
        vocab.encode("tech banana distractor words", on_unknown="grow")
        m = NgramModel(vocab, order=3)
        for _ in range(3):
            m.train_pair(prompt_ids, target_ids)
        out = m.generate("query apple calories", 256)
        assert out == "food apple"

    def test_unknown_context_token(self):
        vocab = Vocabulary()
        vocab.encode("a", on_unknown="grow")
        m = NgramModel(vocab)
        with pytest.raises(UnknownToken):
            m.start([99])
        with pytest.raises(UnknownToken):
            m.step(m.start([]), 99)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=6),
           st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                             max_size=5), max_size=4))
    def test_distribution_normalized(self, ctx, training):
        vocab = Vocabulary()
        vocab.encode("a b c", on_unknown="grow")  # ids 0..4 valid
        m = NgramModel(vocab, order=3)
        for seq in training:
            m.train_pair(seq[:1], seq[1:] + [END])
        dist = dense(m, ctx)
        assert sum(math.exp(lp) for lp in dist.values()) == pytest.approx(1.0)

    def test_unigram_uses_its_training(self):
        # Vocabulary: END, SEP, a, b (V = 4). An order-1 model keys every
        # context on (), so any context sees the 3 training tokens.
        vocab = Vocabulary()
        a, b = vocab.encode("a b", on_unknown="grow")
        m = NgramModel(vocab, order=1)
        m.train_pair([a], [b, END])
        for ctx in ([], [b], [a, b]):
            default, overrides = dist_after(m, ctx)
            assert default == math.log(1 / 7)
            assert overrides == {a: math.log(2 / 7), b: math.log(2 / 7),
                                 END: math.log(2 / 7)}

    def test_context_shorter_than_order(self):
        vocab = Vocabulary()
        a, b, c = vocab.encode("a b c", on_unknown="grow")
        m = NgramModel(vocab, order=6)
        m.train_pair([a, b, c], [END])
        # The whole three-token context is the key, not its last tokens.
        assert dist_after(m, [a, b, c])[1] == {END: math.log(2 / 6)}
        assert dist_after(m, [a, b])[1] == {c: math.log(2 / 6)}
        assert dist_after(m, [b, c])[1] == {}

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_state_is_last_order_minus_one_tokens(self, order):
        vocab = Vocabulary()
        ctx = vocab.encode("a b c a b c", on_unknown="grow")
        m = NgramModel(vocab, order=order)
        assert m.start(ctx) == tuple(ctx[len(ctx) - (order - 1):])
        assert m.start(ctx[:1]) == tuple(ctx[:min(1, order - 1)])

    @pytest.mark.parametrize("order", [0, -1, -5])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            NgramModel(Vocabulary(), order=order)


_TOK = st.integers(min_value=0, max_value=5)


@st.composite
def pair_batches(draw):
    """Training pairs whose prompts start with a cut of one common prefix:
    all, part or none of it, so the pairs share all, part or none of their
    start. Some pairs may repeat."""
    prefix = draw(st.lists(_TOK, max_size=8))
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        cut = draw(st.integers(min_value=0, max_value=len(prefix)))
        pairs.append((prefix[:cut] + draw(st.lists(_TOK, max_size=3)),
                      draw(st.lists(_TOK, max_size=3)) + [END]))
    if pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=4))
    return pairs


class TestBatchTraining:
    def vocab(self):
        vocab = Vocabulary()
        vocab.encode("a b c d", on_unknown="grow")  # ids 0..5
        return vocab

    @given(st.integers(min_value=1, max_value=4), pair_batches())
    @example(2, [])
    @example(3, [([2, 3, 4], [5, END])])
    @example(3, [([2, 3, 4], [5, END])] * 3)
    @example(4, [([2], [3, END]), ([2], [4, END])])
    @example(3, [([2, 3], [4, END]), ([3, 2], [4, END])])
    @example(1, [([2, 3, 4, 5], [END]), ([2, 3, 4, 5], [2, END])])
    def test_matches_pair_by_pair(self, order, pairs):
        vocab = self.vocab()
        batched, ref = NgramModel(vocab, order), NgramModel(vocab, order)
        batched.train(pairs)
        for prompt, target in pairs:
            ref_train_pair(ref, prompt, target)
        assert_same_model(batched, ref)

    def test_batches_add_up(self):
        # Two batches, the second after scoring, count as one would.
        vocab = self.vocab()
        pairs = [([2, 3, 4], [5, END]), ([2, 3, 5], [4, END]),
                 ([2, 3, 4], [5, END])]
        m, ref = NgramModel(vocab), NgramModel(vocab)
        m.train(pairs[:2])
        for ctx in m.counts:
            dist_after(m, ctx)
        m.train(pairs[2:])
        for prompt, target in pairs:
            ref_train_pair(ref, prompt, target)
        assert_same_model(m, ref)

    def test_shared_prefix_weighted_by_pair_count(self):
        vocab = self.vocab()
        m = NgramModel(vocab, order=2)
        m.train([([2, 3], [4, END]), ([2, 3], [5, END]), ([2, 3], [4, END])])
        assert m.counts == {(): {2: 3}, (2,): {3: 3}, (3,): {4: 2, 5: 1},
                            (4,): {END: 2}, (5,): {END: 1}}


def full_context_generate(m, prompt, max_tokens):
    """Greedy generation that starts the model from the whole running
    context at each step, never stepping a state."""
    ctx = m.vocab.encode(prompt, on_unknown="skip")
    out = []
    v = len(m.vocab)
    for _ in range(max_tokens):
        default, overrides = dist_after(m, ctx + out)
        scores = dict(overrides)
        plain = next((t for t in range(v) if t not in overrides), None)
        if plain is not None:
            scores[plain] = default
        best = max(scores, key=lambda t: (scores[t], -t))
        if best == END:
            break
        out.append(best)
    return m.vocab.decode(out)


class TestNgramGenerate:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("seed", range(6))
    def test_stepped_state_matches_full_context(self, order, seed):
        rng = random.Random(seed * 10 + order)
        vocab = Vocabulary()
        ids = vocab.encode("a b c d e f g", on_unknown="grow")
        m = NgramModel(vocab, order=order)
        for _ in range(rng.randint(1, 8)):
            m.train_pair([rng.choice(ids) for _ in range(rng.randint(0, 5))],
                         [rng.choice(ids) for _ in range(rng.randint(1, 6))]
                         + ([END] if rng.random() < 0.3 else []))
        for _ in range(10):
            prompt = " ".join(rng.choice("abcdefgxyz")
                              for _ in range(rng.randint(0, 12)))
            for cap in (0, 1, 5, 60):
                assert m.generate(prompt, cap) == \
                    full_context_generate(m, prompt, cap)


class TestNgramMemo:
    def trained(self, vocab, pairs):
        m = NgramModel(vocab)
        for prompt, target in pairs:
            m.train_pair(prompt, target)
        return m

    def test_training_after_scoring_matches_fresh_model(self):
        vocab = Vocabulary()
        a, b, c = vocab.encode("a b c", on_unknown="grow")
        pairs = [([a], [b, END]), ([a, b], [c, END]), ([c], [a, b, END])]
        ctxs = [[], [a], [a, b], [b, c], [c, a], [a, b, c]]
        m = self.trained(vocab, pairs[:1])
        for ctx in ctxs:
            dist_after(m, ctx)
        for pair in pairs[1:]:
            m.train_pair(*pair)
        fresh = self.trained(vocab, pairs)
        for ctx in ctxs:
            assert dist_after(m, ctx) == dist_after(fresh, ctx)

    def test_untrained_context_is_one_prebuilt_pair(self):
        vocab = Vocabulary()
        a, b, c = vocab.encode("a b c", on_unknown="grow")
        m = self.trained(vocab, [([a], [b, END])])
        first = dist_after(m, [c])
        assert first == (math.log(1 / len(vocab)), {})
        for ctx in ([c], [b], [b, c], [END, a, c]):
            assert dist_after(m, ctx) is first
        assert m._dists.keys() == m.counts.keys()
        assert not m._dists.keys() & {(c,), (b,), (b, c), (a, c)}

    @pytest.mark.parametrize("make", [
        lambda vocab: NgramModel(vocab),
        lambda vocab: ScriptedModel(vocab, dist_rules=[
            {"context": [], "probs": {"a": 1.0}}])], ids=["ngram", "scripted"])
    def test_id_added_after_build_is_unknown(self, make):
        vocab = Vocabulary()
        a, b = vocab.encode("a b", on_unknown="grow")
        m = make(vocab)
        dist_after(m, [a, b])
        [c] = vocab.encode("c", on_unknown="grow")
        with pytest.raises(UnknownToken):
            m.start([c])
        with pytest.raises(UnknownToken):
            m.start([a, c])
        with pytest.raises(UnknownToken):
            m.step(m.start([a]), c)

    def test_unknown_token_before_memoised_tail(self):
        vocab = Vocabulary()
        a, b = vocab.encode("a b", on_unknown="grow")
        m = self.trained(vocab, [([a], [b, END])])
        hit = dist_after(m, [a, b])
        assert m._dists.keys() == m.counts.keys()
        assert m._dists[(a, b)] is hit and dist_after(m, [a, b]) is hit
        for bad in (99, -1):
            with pytest.raises(UnknownToken):  # longer than a state
                m.start([bad, a, b])
            with pytest.raises(UnknownToken):  # no longer than a state
                m.start([bad, a])
            with pytest.raises(UnknownToken):
                m.start([bad])
            with pytest.raises(UnknownToken):  # stepped onto a trained state
                m.step(m.start([a]), bad)

    def test_memo_bounded_by_trained_contexts(self):
        """The table holds one pair per trained context, made by train:
        searching adds and replaces none."""
        rng = random.Random(17)
        index = random_record_index(rng, 30, 12, max_len=4)
        m = NgramModel(index.vocab)
        for rec in index.records[:10]:
            prompt = [rng.randrange(2, len(index.vocab))]
            m.train_pair(prompt, list(rec.tokens))
        assert m._dists.keys() == m.counts.keys()
        table = dict(m._dists)
        for strategy in STRATEGIES:
            for _ in range(5):
                prompt = [rng.randrange(2, len(index.vocab)) for _ in range(2)]
                constrained_beam_search(m, prompt, build(strategy, index), 4)
        assert m._dists.keys() == table.keys()
        assert all(m._dists[ctx] is dist for ctx, dist in table.items())

    @given(st.integers(min_value=1, max_value=4),
           st.lists(pair_batches(), max_size=4),
           st.lists(st.lists(_TOK, max_size=4), max_size=8))
    def test_table_after_any_trainings(self, order, batches, probes):
        """After each train call every counted context reads the add-one
        pair of its counts, and every other state the one unseen pair."""
        vocab = Vocabulary()
        vocab.encode("a b c d", on_unknown="grow")  # ids 0..5
        m = NgramModel(vocab, order)
        unseen = dist_after(m, [])
        assert unseen == (math.log(1 / len(vocab)), {})
        for batch in batches:
            m.train(batch)
            for ctx in m.counts:
                assert m.next_token_distribution(ctx) == add_one_pair(m, ctx)
            for probe in probes:
                state = m.start(probe)
                if state not in m.counts:
                    assert m.next_token_distribution(state) is unseen


TOY_WORDS = sorted(set(TOY_EXTRA_WORDS) | {
    w for surface in TOY_SURFACES.values() for w in surface.split("-")})


class TestSparseForm:
    """next_token_distribution(start(ctx)) -> (default, overrides),
    expanded over the vocabulary, equals the dense distribution computed by
    hand."""

    @staticmethod
    def by_rule(m, words):
        """The first toy rule whose context is a suffix of *words*: unlisted
        tokens at the floor, listed ones at log p."""
        for rule in TOY_DIST_RULES:
            n = len(rule["context"])
            if not n or words[-n:] == rule["context"]:
                expected = dict.fromkeys(range(len(m.vocab)), FLOOR_LOGPROB)
                for w, p in rule["probs"].items():
                    tid = END if w == "<end>" else m.vocab.id_of(w)
                    expected[tid] = math.log(p)
                return expected
        raise AssertionError("the [] rule matches every context")

    @given(st.lists(st.sampled_from(TOY_WORDS), max_size=4))
    def test_scripted_rule_hit(self, words):
        m, index = toy_model()
        ids = [index.vocab.id_of(w) for w in words]
        assert dense(m, ids) == self.by_rule(m, words)

    @given(st.lists(st.sampled_from(TOY_WORDS), max_size=3),
           st.sampled_from(["apple", "banana"]))
    def test_scripted_end_in_rule(self, words, last):
        m, index = toy_model()
        ids = [index.vocab.id_of(w) for w in words + [last]]
        expected = dict.fromkeys(range(len(index.vocab)), FLOOR_LOGPROB)
        expected[END] = 0.0
        assert dense(m, ids) == expected

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=4))
    def test_scripted_uniform_fallback(self, ctx):
        index = make_index(TOY_SURFACES)
        v = len(index.vocab)
        expected = {t: math.log(1.0 / (v - 1)) for t in range(v)}
        expected[SEP] = FLOOR_LOGPROB
        assert dense(ScriptedModel(index.vocab), ctx) == expected

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=6),
                             max_size=6), max_size=5),
           st.lists(st.integers(min_value=0, max_value=6), max_size=4))
    def test_ngram(self, training, ctx):
        # Add-one by hand: (count of (context, t) + 1) / (context total + V),
        # the context being the two tokens before t in prompt||target.
        vocab = Vocabulary()
        vocab.encode("a b c d e", on_unknown="grow")  # ids 0..6 valid
        v = len(vocab)
        m = NgramModel(vocab, order=3)
        pairs = Counter()
        for seq in training:
            m.train_pair(seq[:2], seq[2:] + [END])
            full = seq + [END]
            pairs.update((tuple(full[max(0, i - 2):i]), t)
                         for i, t in enumerate(full))
        key = tuple(ctx[-2:])
        total = sum(c for (k, _), c in pairs.items() if k == key) + v
        assert dense(m, ctx) == {
            t: math.log((pairs[key, t] + 1) / total) for t in range(v)}

    def test_unknown_context_token(self):
        m, index = toy_model()
        with pytest.raises(UnknownToken):
            m.start([len(index.vocab)])
        with pytest.raises(UnknownToken):
            ScriptedModel(index.vocab).start([-1])
        with pytest.raises(UnknownToken):
            NgramModel(index.vocab).start([99])


def state_models(rng):
    """One random index's vocabulary, and every kind of scoring model over
    it, each with the most tokens its states may hold (None: the whole
    context, for the test doubles)."""
    index = random_record_index(rng, 12, 6, max_len=4)
    vocab = index.vocab
    models = []
    for order in (1, 2, 3, 4, 6):
        m = NgramModel(vocab, order=order)
        for rec in index.records[:6]:
            m.train_pair([rng.randrange(2, len(vocab))
                          for _ in range(rng.randint(0, 4))], list(rec.tokens))
        models.append((m, order - 1))
    models.append((ScriptedModel(vocab), 0))
    models.append((ScriptedModel(
        vocab, dist_rules=random_dist_rules(rng, vocab)), 3))
    models.append((TableModel(len(vocab), seed=rng.random()), None))
    models.append((SparseTableModel(len(vocab), seed=rng.random()), None))
    return vocab, models


class TestStateContract:
    """Every scoring model is read like an automaton: stepping a state
    token by token gives the state that starting from the whole context
    gives, a state holds no more tokens than the model's distribution
    reads, and start and step refuse an id outside the vocabulary."""

    @pytest.mark.parametrize("seed", range(10))
    def test_stepping_equals_starting_from_whole_context(self, seed):
        rng = random.Random(seed)
        vocab, models = state_models(rng)
        for m, keep in models:
            for _ in range(10):
                prompt = [rng.randrange(len(vocab))
                          for _ in range(rng.randint(0, 8))]
                tokens = [rng.randrange(len(vocab))
                          for _ in range(rng.randint(0, 8))]
                state = m.start(prompt)
                for i, tok in enumerate(tokens, start=1):
                    state = m.step(state, tok)
                    assert state == m.start(prompt + tokens[:i])
                    if keep is not None:
                        assert len(state) == min(len(prompt) + i, keep)
                assert m.next_token_distribution(state) == \
                    dist_after(m, prompt + tokens)

    @pytest.mark.parametrize("seed", range(5))
    def test_start_refuses_a_bad_id_anywhere(self, seed):
        rng = random.Random(seed)
        vocab, models = state_models(rng)
        prompt = [rng.randrange(len(vocab)) for _ in range(8)]
        for m, keep in models:
            if keep is None:
                continue
            for i in range(len(prompt)):
                for bad in (-1, len(vocab), len(vocab) + 7):
                    with pytest.raises(UnknownToken):
                        m.start(prompt[:i] + [bad] + prompt[i + 1:])

    @pytest.mark.parametrize("seed", range(3))
    def test_start_names_the_first_bad_id(self, seed):
        """In a 50-token prompt, start() raises UnknownToken for the first
        out-of-range id, wherever it sits and whatever follows it."""
        rng = random.Random(seed)
        vocab, models = state_models(rng)
        v = len(vocab)
        for m, keep in models:
            if keep is None:
                continue
            for bad, other in ((-1, v), (v, -1)):
                for pos in (0, 25, 49):
                    prompt = [rng.randrange(v) for _ in range(50)]
                    prompt[pos] = bad
                    if pos < 49:
                        prompt[rng.randrange(pos + 1, 50)] = other
                    with pytest.raises(UnknownToken,
                                       match=rf"^token id {bad} outside"):
                        m.start(prompt)

    @pytest.mark.parametrize("seed", range(5))
    def test_step_refuses_a_bad_token(self, seed):
        rng = random.Random(seed)
        vocab, models = state_models(rng)
        for m, keep in models:
            if keep is None:
                continue
            state = m.start([rng.randrange(len(vocab)) for _ in range(8)])
            for bad in (-1, len(vocab), len(vocab) + 7):
                with pytest.raises(UnknownToken):
                    m.step(state, bad)


class TestSequenceLogprob:
    def test_toy_path(self):
        # P(food) * P(apple|food) * P(end|apple) = 0.7 * 0.6 * 1.0
        m, index = toy_model()
        target = [t for t in index.by_doc["d1"][0].tokens]
        lp = sequence_logprob(m, [], target)
        assert lp == pytest.approx(math.log(0.42))

    def test_prompt_shifts_distribution(self):
        m, index = toy_model()
        calories = index.vocab.id_of("calories")
        target = list(index.by_doc["d1"][0].tokens)
        lp = sequence_logprob(m, [calories], target)
        assert lp == pytest.approx(math.log(0.9 * 0.6))

    def test_missing_end(self):
        m, index = toy_model()
        with pytest.raises(MissingEnd):
            sequence_logprob(m, [], list(index.by_doc["d1"][0].tokens)[:-1])
        with pytest.raises(MissingEnd):
            sequence_logprob(m, [], [])

    def test_model_without_distributions(self):
        class GenOnly:
            def generate(self, prompt, max_tokens):
                return ""
        with pytest.raises(NotSupported):
            sequence_logprob(GenOnly(), [], [END])

    def test_matches_stepwise_ngram(self):
        vocab = Vocabulary()
        ids = vocab.encode("u v w", on_unknown="grow")
        m = NgramModel(vocab, order=2)
        m.train_pair([ids[0]], [ids[1], ids[2], END])
        target = [ids[1], ids[2], END]
        expected = 0.0
        ctx = [ids[0]]
        for t in target:
            expected += dense(m, ctx)[t]
            ctx.append(t)
        assert sequence_logprob(m, [ids[0]], target) == pytest.approx(expected)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_counts_by_hand(self, order, seed):
        # Prompts from empty to twice the longest state, so the score reads
        # contexts shorter than a state, as long, and cut from longer ones.
        rng = random.Random(seed * 10 + order)
        vocab = Vocabulary()
        ids = vocab.encode("a b c d e", on_unknown="grow")
        m = NgramModel(vocab, order=order)
        for _ in range(rng.randint(1, 8)):
            m.train_pair([rng.choice(ids) for _ in range(rng.randint(0, 5))],
                         [rng.choice(ids) for _ in range(rng.randint(0, 4))]
                         + [END])
        for n in range(2 * order + 1):
            prompt = [rng.choice(ids) for _ in range(n)]
            target = [rng.choice(ids + [END])
                      for _ in range(rng.randint(0, 4))] + [END]
            assert sequence_logprob(m, prompt, target) == \
                ref_logprob(m, prompt, target)


class TestRemote:
    def test_generate_round_trip(self, http_endpoint):
        m = RemoteModel(base_url=http_endpoint)
        assert m.generate("hi", 256) == "echo: hi"

    def test_generate_body(self):
        session = _Session()
        m = RemoteModel(base_url="http://remote.test/", session=session)
        assert m.generate("hi there", 16) == "ok"
        assert session.urls == ["http://remote.test/generate"]
        # The exact JSON body: no stop strings, greedy decoding.
        assert [json.dumps(p) for p in session.payloads] == [
            '{"prompt": "hi there", "max_tokens": 16, "stop": [], '
            '"temperature": 0.0}']

    def test_logprobs_not_supported(self, http_endpoint):
        m = RemoteModel(base_url=http_endpoint)
        with pytest.raises(NotSupported):
            sequence_logprob(m, [1, 2], [END])

    def test_server_errors_exhaust_retries(self, http_endpoint):
        GenerateHandler.fail_5xx = True
        m = RemoteModel(base_url=http_endpoint, max_retries=1)
        with pytest.raises(RemoteUnavailable):
            m.generate("hi", 256)

    def test_nll_not_supported(self):
        session = _Session()
        m = RemoteModel(base_url="http://remote.test", session=session)
        index = make_index(TOY_SURFACES)
        corpus = Corpus([Document("d1", "food apple")])
        with pytest.raises(NotSupported):
            nll_losses(m, corpus, [], index)
        assert session.payloads == []

    @pytest.mark.parametrize("reply", [
        (200, b"not json"), (200, b'{"txt": "hi"}'), (200, b"[1]"),
        (200, b'{"text": null}'), (400, b""), (200, DEEP_JSON.encode())])
    def test_malformed_response_is_typed(self, http_endpoint, reply):
        GenerateHandler.reply = reply
        m = RemoteModel(base_url=http_endpoint, max_retries=0)
        with pytest.raises(RemoteUnavailable):
            m.generate("hi", 256)

    def test_negative_retries_rejected(self, http_endpoint):
        with pytest.raises(ValueError):
            RemoteModel(base_url=http_endpoint, max_retries=-1)

    def test_endpoint_is_the_callers(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("GENTRIEVAL_REMOTE_URL", "http://elsewhere.test")
        assert RemoteModel(http_endpoint + "/").base_url == http_endpoint


class _Reply:
    def __init__(self, status, body):
        self.status_code = status
        self.body = body

    def json(self):
        return self.body


class _Session:
    """Stands in for requests.Session: every post gets the same status and
    JSON body, or raises *failure*."""

    def __init__(self, status=200, body=None, failure=None):
        self.status = status
        self.body = {"text": "ok"} if body is None else body
        self.failure = failure
        self.urls = []
        self.payloads = []

    def post(self, url, json, timeout):
        self.urls.append(url)
        self.payloads.append(json)
        if self.failure is not None:
            raise self.failure
        return _Reply(self.status, self.body)


@pytest.fixture
def sleeps(monkeypatch):
    delays = []
    monkeypatch.setattr(lm.time, "sleep", delays.append)
    return delays


class TestRemoteBackoff:
    @pytest.mark.parametrize("status,failure,error", [
        (503, None, RemoteUnavailable),
        (200, requests.Timeout("slow"), RemoteTimeout),
        (200, requests.ConnectionError("refused"), RemoteUnavailable)])
    def test_retries_sleep_with_growing_delays(self, sleeps, status, failure,
                                               error):
        session = _Session(status, failure=failure)
        m = RemoteModel(base_url="http://remote.test", max_retries=6,
                        session=session)
        with pytest.raises(error):
            m.generate("hi", 256)
        assert len(session.payloads) == 7
        assert sleeps == [min(lm.RETRY_BASE_DELAY_S * 2 ** i,
                              lm.RETRY_MAX_DELAY_S) for i in range(6)]
        assert 0 < sleeps[0] < sleeps[1] < sleeps[2]

    @pytest.mark.parametrize("status,error", [
        (200, None), (400, RemoteUnavailable), (404, NotSupported),
        (405, NotSupported)])
    def test_no_sleep_without_retry(self, sleeps, status, error):
        session = _Session(status)
        m = RemoteModel(base_url="http://remote.test", max_retries=3,
                        session=session)
        if error is None:
            assert m.generate("hi", 256) == "ok"
        else:
            with pytest.raises(error):
                m.generate("hi", 256)
        assert len(session.payloads) == 1
        assert sleeps == []
