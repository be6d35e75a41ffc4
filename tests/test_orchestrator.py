import math

import pytest
from hypothesis import given, strategies as st

from gentrieval.constraint import TrieAutomaton
from gentrieval.corpus import Query, Vocabulary
from gentrieval.errors import ConfigError, EmptyQuery
from gentrieval.lm import ScriptedModel
from gentrieval.orchestrator import (ABLATION_NO_CONTEXT,
                                     ABLATION_NO_EXPLANATION,
                                     ABLATION_NO_VERIFICATION, ABLATIONS,
                                     PIPELINES, REASONS, REASON_ALL_RELEVANT,
                                     REASON_BUDGET_EXHAUSTED,
                                     REASON_PARSE_FAILURE, RefineConfig,
                                     retrieve_prompt_ids, run_direct_cot,
                                     run_r4r, run_standard)
from gentrieval.reasoning import DEFAULT_PROMPTS, PromptRegistry

from conftest import TOY_DIST_RULES, TOY_EXTRA_WORDS, TOY_SURFACES, make_index

QUERY = Query(query_id="q1", text="which fruit calories",
              relevant_keys=frozenset({"d1"}))

THINK_RULE = {
    "match": "naming what the query points to",
    "response": "<context>company details</context>"
                "<explanation>sounds corporate</explanation>",
}
REFLECT_TECH_RULE = {
    "match": "Irrelevant identifier: tech-apple",
    "response": "<context>fruit calories</context>"
                "<explanation>calorie question</explanation>",
}

# Walkthrough scenario (beam width 3, verify depth 2):
#   round 1: context "company details" ends in "details", the retrieval
#     distribution puts 0.7 on "tech", so tech-apple (0.7) leads food-apple
#     (0.18) and food-banana (0.12); the verifier rejects tech-apple.
#   round 2: reflection rewrites the context to "fruit calories"; now "food"
#     carries 0.9, the list is food-apple (0.54), food-banana (0.36),
#     tech-apple (0.1), and the two verified slots are both relevant.
WALKTHROUGH_RULES = [
    THINK_RULE,
    {"match": "Candidate identifier: tech-apple", "response": "irrelevant"},
    {"match": "Candidate identifier: ", "response": "relevant"},
    REFLECT_TECH_RULE,
]


def setup(generate_rules):
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
    model = ScriptedModel(index.vocab, generate_rules=generate_rules,
                          dist_rules=TOY_DIST_RULES)
    automaton = TrieAutomaton(index)
    return index, model, automaton, 3


class CountingModel:
    def __init__(self, inner):
        self.inner = inner
        self.generate_calls = 0
        self.prompts = []

    def generate(self, prompt, max_tokens):
        self.generate_calls += 1
        self.prompts.append(prompt)
        return self.inner.generate(prompt, max_tokens)

    def start(self, prompt_ids):
        return self.inner.start(prompt_ids)

    def step(self, state, token):
        return self.inner.step(state, token)

    def next_token_distribution(self, state):
        return self.inner.next_token_distribution(state)


class TestStandard:
    def test_toy_ranking(self):
        index, model, automaton, k = setup([])
        ranked = run_standard(QUERY, model, automaton, index,
                              PromptRegistry.default(), k)
        # Prompt ends in "calories", so the food branch gets 0.9.
        assert ranked.doc_keys() == ["d1", "d3", "d2"]
        assert ranked[0].score == pytest.approx(math.log(0.9 * 0.6))

    def test_empty_query(self):
        index, model, automaton, k = setup([])
        q = Query(query_id="q", text="   ", relevant_keys=frozenset())
        with pytest.raises(EmptyQuery):
            run_standard(q, model, automaton, index,
                         PromptRegistry.default(), k)

    def test_k_bounds_the_list(self):
        index, model, automaton, _ = setup([])
        ranked = run_standard(QUERY, model, automaton, index,
                              PromptRegistry.default(), 2)
        assert ranked.doc_keys() == ["d1", "d3"]


def full_prompt_ids(reg, vocab, text, auxiliary=None):
    """The retrieval prompt encoded in one piece."""
    prompt = reg.render("P_r") + "\nQuery: " + text
    if auxiliary:
        prompt += "\nContext: " + auxiliary
    return vocab.encode(prompt, on_unknown="skip")


def registry(p_r):
    return PromptRegistry({**DEFAULT_PROMPTS, "P_r": p_r})


# Letters whose lowercase depends on their neighbours (Σ ends a word as ς)
# or spans two code points (İ), next to word boundaries of every kind.
SPLIT_ALPHABET = "abΣσςİi0_- .:'\n"


class TestRetrievePromptIds:
    @pytest.mark.parametrize("p_r, text, auxiliary", [
        (None, "which fruit calories", None),
        (None, "which fruit calories", ""),
        (None, "which fruit calories", "company details"),
        (None, "plugh which", "xyzzy fruit"),
        (None, "-which", None),
        (None, " which", None),
        (None, "Σ which", None),
        ("ΑΣ which", "ΣΑΣ which", "ΑΣ"),
        ("Rank the documen", "documents fruit", None),
        ("which fruit calori", "es details", "calori"),
    ])
    def test_matches_one_piece_encoding(self, p_r, text, auxiliary):
        index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS + [
            "σ", "ας", "σας", "documen", "calori", "rank", "the"])
        reg = PromptRegistry.default() if p_r is None else registry(p_r)
        for _ in range(2):  # encodes the template, then reuses it
            assert retrieve_prompt_ids(reg, index.vocab, text, auxiliary) == \
                full_prompt_ids(reg, index.vocab, text, auxiliary)

    @given(st.text(SPLIT_ALPHABET, max_size=12),
           st.text(SPLIT_ALPHABET, max_size=12),
           st.none() | st.text(SPLIT_ALPHABET, max_size=8),
           st.text(SPLIT_ALPHABET, max_size=40))
    def test_matches_one_piece_encoding_property(self, p_r, text, auxiliary,
                                                 known):
        vocab = Vocabulary()
        vocab.encode(known + " query context", on_unknown="grow")
        reg = registry(p_r)
        for _ in range(2):
            assert retrieve_prompt_ids(reg, vocab, text, auxiliary) == \
                full_prompt_ids(reg, vocab, text, auxiliary)

    def test_growing_vocabulary_reencodes_template(self):
        vocab = Vocabulary()
        vocab.encode("which query fruit", on_unknown="grow")
        reg = registry("plugh which")
        assert retrieve_prompt_ids(reg, vocab, "fruit") == \
            full_prompt_ids(reg, vocab, "fruit")
        plugh = vocab.add("plugh")
        ids = retrieve_prompt_ids(reg, vocab, "fruit")
        assert ids == full_prompt_ids(reg, vocab, "fruit")
        assert ids[0] == plugh

    def test_one_registry_many_vocabularies(self):
        reg = registry("plugh which")
        small, big = Vocabulary(), Vocabulary()
        small.encode("query fruit", on_unknown="grow")
        big.encode("plugh which query fruit", on_unknown="grow")
        for vocab in (small, big, small):
            assert retrieve_prompt_ids(reg, vocab, "fruit") == \
                full_prompt_ids(reg, vocab, "fruit")


class TestDirectCot:
    def test_reasoning_feeds_decode(self):
        rules = [{"match": "think step by step",
                  "response": "the answer involves company details"}]
        index, model, automaton, k = setup(rules)
        ranked = run_direct_cot(QUERY, model, model, automaton,
                                index, PromptRegistry.default(), k)
        # Reasoning text ends in "details" -> tech branch first.
        assert ranked.doc_keys() == ["d2", "d1", "d3"]

    def test_empty_reasoning_degrades_to_standard(self):
        index, model, automaton, k = setup([])
        reg = PromptRegistry.default()
        ranked = run_direct_cot(QUERY, model, model, automaton,
                                index, reg, k)
        std = run_standard(QUERY, model, automaton, index, reg, k)
        assert ranked.doc_keys() == std.doc_keys()


class TestRefineLoop:
    def run(self, rules, refine=None, **kw):
        index, model, automaton, k = setup(rules)
        refine = refine or RefineConfig(verify_depth=2, round_budget=3)
        return run_r4r(QUERY, model, model, automaton, index,
                       PromptRegistry.default(), k, refine, **kw)

    def test_all_relevant_walkthrough(self):
        result = self.run(WALKTHROUGH_RULES)
        assert result.reason == REASON_ALL_RELEVANT
        assert result.rounds_used == 2
        assert result.ranked.doc_keys() == ["d1", "d3", "d2"]
        r1, r2 = result.trace
        assert r1["c"] == "company details"
        assert [e["doc"] for e in r1["topk"]] == ["d2", "d1", "d3"]
        assert r1["topk"][0]["score"] == pytest.approx(math.log(0.7))
        assert r1["judgments"] == ["irrelevant"]
        assert r1["j_hat"] == 1
        assert r2["c"] == "fruit calories"
        assert r2["topk"][0]["score"] == pytest.approx(math.log(0.54))
        assert r2["judgments"] == ["relevant", "relevant"]
        assert r2["j_hat"] == 0

    def test_parse_failure_keeps_last_ranking(self):
        rules = [
            THINK_RULE,
            {"match": "Candidate identifier: tech-apple",
             "response": "irrelevant"},
            {"match": "Candidate identifier: ", "response": "relevant"},
            {"match": "Irrelevant identifier:", "response": "no tags here"},
        ]
        result = self.run(rules)
        assert result.reason == REASON_PARSE_FAILURE
        assert result.rounds_used == 1
        assert result.ranked.doc_keys() == ["d2", "d1", "d3"]

    def test_budget_exhausted(self):
        rules = [
            THINK_RULE,
            {"match": "Candidate identifier: ", "response": "irrelevant"},
            REFLECT_TECH_RULE,
            {"match": "Irrelevant identifier:",
             "response": "<context>fruit calories</context>"
                         "<explanation>still trying</explanation>"},
        ]
        result = self.run(rules)
        assert result.reason == REASON_BUDGET_EXHAUSTED
        assert result.rounds_used == 3
        assert all(rt["j_hat"] == 1 for rt in result.trace)
        # The reflected context still improves the final list.
        assert result.ranked.doc_keys() == ["d1", "d3", "d2"]

    def test_negated_verdict_triggers_reflection(self):
        # "Not relevant." rejects tech-apple exactly as "irrelevant" does.
        rules = [WALKTHROUGH_RULES[0],
                 {"match": "Candidate identifier: tech-apple",
                  "response": "Not relevant."}] + WALKTHROUGH_RULES[2:]
        result = self.run(rules)
        assert result.reason == REASON_ALL_RELEVANT
        assert result.rounds_used == 2
        assert result.trace[0]["judgments"] == ["irrelevant"]
        assert result.ranked.doc_keys() == ["d1", "d3", "d2"]

    def test_immediate_all_relevant_single_round(self):
        rules = [
            THINK_RULE,
            {"match": "Candidate identifier: ", "response": "relevant"},
        ]
        result = self.run(rules)
        assert result.reason == REASON_ALL_RELEVANT
        assert result.rounds_used == 1

    def test_ground_truth_verifier_promotes_gold(self):
        rules = [
            THINK_RULE,
            {"match": "Candidate identifier: food-apple",
             "response": "relevant"},
            {"match": "Candidate identifier: ", "response": "irrelevant"},
            REFLECT_TECH_RULE,
        ]
        result = self.run(rules)
        gold_rank = result.ranked.doc_keys().index("d1") + 1
        first_rank = [e["doc"] for e in result.trace[0]["topk"]].index("d1") + 1
        assert gold_rank == 1
        assert gold_rank < first_rank

    def test_generate_call_budget(self):
        index, model, automaton, k = setup([
            THINK_RULE,
            {"match": "Candidate identifier: ", "response": "irrelevant"},
            {"match": "Irrelevant identifier:",
             "response": "<context>fruit calories</context>"
                         "<explanation>e</explanation>"},
        ])
        counting = CountingModel(model)
        t, big_t = 2, 3
        refine = RefineConfig(verify_depth=t, round_budget=big_t)
        run_r4r(QUERY, counting, counting, automaton, index,
                PromptRegistry.default(), k, refine)
        # think (<=2) + per round: verify (<=2t) + reflect (<=2)
        assert counting.generate_calls <= 2 + big_t * (2 * t + 2)

    def test_timing_flag(self):
        result = self.run(WALKTHROUGH_RULES, timing=False)
        assert all(rt["ms"] == 0.0 for rt in result.trace)
        timed = self.run(WALKTHROUGH_RULES, timing=True)
        assert all(rt["ms"] > 0.0 for rt in timed.trace)

    def test_untimed_by_default(self):
        # A library caller's trace is byte-reproducible unless it asks for
        # wall-clock fields.
        result = self.run(WALKTHROUGH_RULES)
        assert len(result.trace) == 2
        assert all(rt["ms"] == 0.0 for rt in result.trace)


class TestAblations:
    def test_no_verification_never_all_relevant(self):
        rules = [
            THINK_RULE,
            REFLECT_TECH_RULE,
            {"match": "Irrelevant identifier:",
             "response": "<context>fruit calories</context>"
                         "<explanation>e</explanation>"},
        ]
        index, model, automaton, k = setup(rules)
        refine = RefineConfig(verify_depth=2, round_budget=3,
                              ablation=frozenset({ABLATION_NO_VERIFICATION}))
        result = run_r4r(QUERY, model, model, automaton, index,
                         PromptRegistry.default(), k, refine)
        assert result.reason == REASON_BUDGET_EXHAUSTED
        assert result.rounds_used == 3
        assert all(rt["judgments"] == [] and rt["j_hat"] == 1
                   for rt in result.trace)

    def test_no_context_retrieves_on_explanation(self):
        # Think emits an explanation ending in "calories"; with the context
        # channel ablated, retrieval conditions on that explanation.
        rules = [
            {"match": "naming what the query points to",
             "response": "<context>company details</context>"
                         "<explanation>fruit calories</explanation>"},
            {"match": "Candidate identifier: ", "response": "relevant"},
        ]
        index, model, automaton, k = setup(rules)
        refine = RefineConfig(verify_depth=2, round_budget=3,
                              ablation=frozenset({ABLATION_NO_CONTEXT}))
        result = run_r4r(QUERY, model, model, automaton, index,
                         PromptRegistry.default(), k, refine)
        assert result.ranked.doc_keys()[0] == "d1"

    def test_no_explanation_blanks_channel(self):
        result_rules = [
            THINK_RULE,
            {"match": "Candidate identifier: ", "response": "relevant"},
        ]
        index, model, automaton, k = setup(result_rules)
        refine = RefineConfig(verify_depth=2, round_budget=3,
                              ablation=frozenset({ABLATION_NO_EXPLANATION}))
        result = run_r4r(QUERY, model, model, automaton, index,
                         PromptRegistry.default(), k, refine)
        assert all(rt["e"] == "" for rt in result.trace)

    def run_rejecting(self, ablation, reflect_rules):
        """Three rounds in which every verified docid is irrelevant, so
        reflect runs after rounds 1 and 2; returns the rounds' trace and
        the prompts the reasoner saw."""
        index, model, automaton, k = setup([
            THINK_RULE,
            {"match": "Candidate identifier: ", "response": "irrelevant"},
            *reflect_rules,
        ])
        counting = CountingModel(model)
        refine = RefineConfig(verify_depth=2, round_budget=3,
                              ablation=frozenset(ablation))
        result = run_r4r(QUERY, counting, counting, automaton,
                         index, PromptRegistry.default(), k, refine)
        assert result.reason == REASON_BUDGET_EXHAUSTED
        return result.trace, counting.prompts

    def test_no_context_keeps_think_context(self):
        rounds, _ = self.run_rejecting({ABLATION_NO_CONTEXT}, [
            {"match": "Current explanation: sounds corporate",
             "response": "<context>fruit calories</context>"
                         "<explanation>fruit apple</explanation>"},
            {"match": "Current explanation: fruit apple",
             "response": "<context>tech details</context>"
                         "<explanation>calorie count</explanation>"},
        ])
        assert [r["c"] for r in rounds] == ["company details"] * 3
        assert [r["e"] for r in rounds] == [
            "sounds corporate", "fruit apple", "calorie count"]

    def test_no_explanation_blanks_reflect_prompt(self):
        rounds, prompts = self.run_rejecting({ABLATION_NO_EXPLANATION}, [
            {"match": "Irrelevant identifier: ",
             "response": "<context>fruit calories</context>"
                         "<explanation>calorie question</explanation>"},
        ])
        reflect_prompts = [p for p in prompts if "Irrelevant identifier: " in p]
        assert len(reflect_prompts) == 2
        assert all(p.endswith("\nCurrent explanation: ")
                   for p in reflect_prompts)
        assert [r["c"] for r in rounds] == [
            "company details", "fruit calories", "fruit calories"]
        assert all(r["e"] == "" for r in rounds)


class TestTrace:
    def test_schema(self):
        index, model, automaton, k = setup(WALKTHROUGH_RULES)
        refine = RefineConfig(verify_depth=2, round_budget=3)
        result = run_r4r(QUERY, model, model, automaton, index,
                         PromptRegistry.default(), k, refine, timing=False)
        assert result.reason == REASON_ALL_RELEVANT
        assert result.rounds_used == 2
        assert len(result.trace) == 2
        detail = result.trace[0]
        assert set(detail) == {"c", "e", "topk", "judgments", "j_hat", "ms"}
        assert detail["topk"][0] == {
            "surface": "tech-apple",
            "score": pytest.approx(math.log(0.7)),
            "doc": "d2",
        }

    def test_separate_models_flagged(self):
        # The retrieval model has no generate rules, so the walkthrough
        # finishes only if every reasoning call goes to the reason model.
        index, model, automaton, k = setup([])
        reason = ScriptedModel(index.vocab, generate_rules=WALKTHROUGH_RULES)
        refine = RefineConfig(verify_depth=2, round_budget=3)
        result = run_r4r(QUERY, model, reason, automaton, index,
                         PromptRegistry.default(), k, refine)
        assert result.reason == REASON_ALL_RELEVANT
        assert result.rounds_used == 2


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        for bad in ({"verify_depth": 0}, {"round_budget": 0}):
            with pytest.raises(ConfigError) as exc:
                RefineConfig(**bad)
            assert str(exc.value) == \
                "verify_depth and round_budget must be >= 1"

    def test_rejects_unknown_ablation(self):
        with pytest.raises(ConfigError) as exc:
            RefineConfig(ablation=frozenset({"no_contxt", "no_context",
                                             "all"}))
        assert str(exc.value) == "unknown ablation flags: all, no_contxt"

    def test_name_sets(self):
        assert ABLATIONS == (ABLATION_NO_CONTEXT, ABLATION_NO_EXPLANATION,
                             ABLATION_NO_VERIFICATION)
        assert REASONS == (REASON_ALL_RELEVANT, REASON_BUDGET_EXHAUSTED,
                           REASON_PARSE_FAILURE)
        assert PIPELINES == ("standard", "direct_cot", "r4r")
