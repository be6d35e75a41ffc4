import json

import pytest
from hypothesis import given, settings, strategies as st

from gentrieval.corpus import END, Query, Vocabulary
from gentrieval.decode import Candidate
from gentrieval.docid import DocIdRecord
from gentrieval.errors import ConfigError
from gentrieval.lm import ScriptedModel
from gentrieval.reasoning import (DEFAULT_PROMPTS, FORMAT_REMINDER,
                                  REASONING_MAX_TOKENS, VERDICT_MAX_TOKENS,
                                  VERDICT_REMINDER, PromptRegistry,
                                  ReasoningState, _parse_verdict, direct_cot,
                                  parse_structured, reflect, think, verify)

from conftest import DEEP_JSON, LONG_INT_JSON, ref_render


class CountingModel:
    """Wraps a ScriptedModel and counts generate calls."""

    def __init__(self, rules):
        self.inner = ScriptedModel(Vocabulary(), generate_rules=rules)
        self.calls = 0
        self.prompts = []
        self.caps = []

    def generate(self, prompt, max_tokens):
        self.calls += 1
        self.prompts.append(prompt)
        self.caps.append(max_tokens)
        return self.inner.generate(prompt, max_tokens)


def cand(surface="food-apple", key="d1"):
    return Candidate(DocIdRecord(key, (END,), surface, "path"), -1.0)


QUERY = Query(query_id="q1", text="which fruit has fewest calories",
              relevant_keys=frozenset({"d1"}))


class TestParse:
    def test_well_formed(self):
        assert parse_structured(
            "<context>low calorie fruit</context>"
            "<explanation>calorie comparison</explanation>"
        ) == ("low calorie fruit", "calorie comparison")

    def test_preamble_and_whitespace(self):
        out = parse_structured(
            "Sure, here you go:\n<context>  a  </context>\n"
            "text between\n<explanation>\nb\n</explanation> trailing")
        assert out == ("a", "b")

    def test_first_pair_wins(self):
        out = parse_structured(
            "<context>one</context><explanation>x</explanation>"
            "<context>two</context><explanation>y</explanation>")
        assert out == ("one", "x")

    def test_missing_block(self):
        assert parse_structured("<context>only</context>") is None
        assert parse_structured("<explanation>only</explanation>") is None
        assert parse_structured("no tags at all") is None

    def test_empty_context_rejected(self):
        assert parse_structured(
            "<context>  </context><explanation>e</explanation>") is None

    def test_multiline_blocks(self):
        out = parse_structured(
            "<context>line one\nline two</context>"
            "<explanation>why</explanation>")
        assert out == ("line one\nline two", "why")


class TestRegistry:
    def test_render_fills_slots(self):
        reg = PromptRegistry.default()
        text = reg.render("P_v", query="q", docid="a-b")
        assert "Query: q" in text
        assert "Candidate identifier: a-b" in text

    def test_unfilled_slot_raises(self):
        with pytest.raises(ValueError):
            PromptRegistry.default().render("P_v", query="q")

    @pytest.mark.parametrize("value", [
        "{context}", "a {docid} b", "{query}{explanation}", "{document}",
        r"\1 \g<0>"])
    def test_slot_text_in_values_stays_literal(self, value):
        reg = PromptRegistry.default()
        assert reg.render("P_t", query=value) == \
            DEFAULT_PROMPTS["P_t"].replace("{query}", value)
        text = reg.render("P_v", query=value, docid="x-y")
        assert f"Query: {value}\n" in text
        assert text.endswith("Candidate identifier: x-y")
        text = reg.render("P_f", query="q", docid=value, context=value,
                          explanation="e")
        assert f"Irrelevant identifier: {value}\n" in text
        assert f"Current context: {value}\n" in text

    def test_from_file_merges(self, tmp_path):
        p = tmp_path / "prompts.json"
        p.write_text(json.dumps({"P_v": "custom {query} {docid}",
                                 "P_x": "ignored"}))
        reg = PromptRegistry.from_file(p)
        assert reg.render("P_v", query="a", docid="b") == "custom a b"
        assert reg.templates["P_r"] == DEFAULT_PROMPTS["P_r"]
        assert "P_x" not in reg.templates

    @pytest.mark.parametrize("content", [
        "[1]", '"P_v"', "not json", json.dumps({"P_v": 3}),
        json.dumps({"P_x": ["a"]}),
        pytest.param(DEEP_JSON, id="nested-too-deep"),
        pytest.param(LONG_INT_JSON, id="long-int")])
    def test_from_file_rejects_malformed(self, tmp_path, content):
        p = tmp_path / "prompts.json"
        p.write_text(content)
        with pytest.raises(ConfigError):
            PromptRegistry.from_file(p)

    @pytest.mark.parametrize("name,text", [
        ("P_r", "x {query}"), ("P_t", "{query} {docid}"),
        ("P_d", "{explanation}")])
    def test_from_file_rejects_slot_never_filled(self, tmp_path, name, text):
        p = tmp_path / "prompts.json"
        p.write_text(json.dumps({name: text}))
        with pytest.raises(ConfigError, match=name):
            PromptRegistry.from_file(p)

    # Template pieces: every slot, near-miss braces around a slot name, and
    # short free text.
    PIECES = st.sampled_from([
        "{query}", "{docid}", "{context}", "{explanation}", "{quer}",
        "{{query}}", "{query", "query}", "{", "}", "{}", "\\1", " "]) | \
        st.text(max_size=4)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(template=st.lists(PIECES, max_size=8).map("".join),
           values=st.dictionaries(
               st.sampled_from(["query", "docid", "context", "explanation"]),
               st.lists(PIECES, max_size=3).map("".join)))
    def test_render_matches_reference(self, template, values):
        """render equals a re.sub pass over the template, or both raise
        ValueError with the same message."""
        reg = PromptRegistry({"P_x": template})
        try:
            want = ref_render(template, "P_x", **values)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                reg.render("P_x", **values)
            assert str(got.value) == str(exc)
        else:
            assert reg.render("P_x", **values) == want
            # The second render reads the kept split.
            assert reg.render("P_x", **values) == want

    def test_render_reads_the_current_template(self):
        reg = PromptRegistry({"P_x": "a {query}"})
        assert reg.render("P_x", query="q") == "a q"
        reg.templates["P_x"] = "{query} b"
        assert reg.render("P_x", query="q") == "q b"

    def test_defaults_have_no_stray_braces(self):
        reg = PromptRegistry.default()
        reg.render("P_r")
        reg.render("P_i")
        reg.render("P_d")
        reg.render("P_t", query="q")
        reg.render("P_f", query="q", docid="d", context="c", explanation="e")


class TestThink:
    def test_parses_first_attempt(self):
        m = CountingModel([{
            "match": "Query: " + QUERY.text,
            "response": "<context>fruit calories</context>"
                        "<explanation>wants the minimum</explanation>"}])
        state = think(m, QUERY, PromptRegistry.default())
        assert state.context == "fruit calories"
        assert state.explanation == "wants the minimum"
        assert m.calls == 1
        assert m.caps == [REASONING_MAX_TOKENS]

    def test_retry_with_reminder(self):
        m = CountingModel([
            {"match": FORMAT_REMINDER,
             "response": "<context>c</context><explanation>e</explanation>"},
            {"match": "Query:", "response": "free text, no tags"},
        ])
        state = think(m, QUERY, PromptRegistry.default())
        assert state.context == "c"
        assert m.calls == 2
        assert m.prompts[1] == m.prompts[0] + FORMAT_REMINDER
        assert m.caps == [256, 256]

    def test_fallback_to_query(self):
        m = CountingModel([{"match": "Query:", "response": "still no tags"}])
        state = think(m, QUERY, PromptRegistry.default())
        assert state.context == QUERY.text
        assert state.explanation == ""
        assert m.calls == 2
        assert m.caps == [256, 256]


class TestVerify:
    def test_relevant(self):
        m = CountingModel([{"match": "Candidate identifier: food-apple",
                            "response": "relevant"}])
        assert verify(m, QUERY, cand(), PromptRegistry.default()) \
            == "relevant"
        assert m.calls == 1
        assert m.caps == [VERDICT_MAX_TOKENS]

    def test_irrelevant_wins_substring_race(self):
        # "irrelevant" contains "relevant"; the verdict must still be negative.
        m = CountingModel([{"match": "Candidate identifier:",
                            "response": "This looks irrelevant to me."}])
        assert verify(m, QUERY, cand(), PromptRegistry.default()) \
            == "irrelevant"

    def test_retry_then_default_relevant(self):
        m = CountingModel([{"match": "Candidate identifier:",
                            "response": "hard to say"}])
        assert verify(m, QUERY, cand(), PromptRegistry.default()) \
            == "relevant"
        assert m.calls == 2
        assert m.prompts[1] == m.prompts[0] + VERDICT_REMINDER
        assert m.caps == [16, 16]

    @pytest.mark.parametrize("answer,verdict", [
        ("irrelevant", "irrelevant"),
        ("Irrelevant.", "irrelevant"),
        ("relevant", "relevant"),
        ("Relevant: it names the fruit.", "relevant"),
        ("Not relevant.", "irrelevant"),
        ("not  relevant", "irrelevant"),
        ("non-relevant", "irrelevant"),
        ("Nonrelevant", "irrelevant"),
        ("It is not relevant to the query", "irrelevant"),
        ("That isn't relevant.", "irrelevant"),
        ("Relevant, not off-topic.", "relevant"),
    ])
    def test_parse_verdict(self, answer, verdict):
        assert _parse_verdict(answer) == verdict

    @pytest.mark.parametrize("answer", ["", "hard to say", "yes", "nothing"])
    def test_parse_verdict_unparseable(self, answer):
        assert _parse_verdict(answer) is None

    def test_case_insensitive(self):
        m = CountingModel([{"match": "Candidate identifier:",
                            "response": "Irrelevant"}])
        assert verify(m, QUERY, cand(), PromptRegistry.default()) \
            == "irrelevant"


class TestReflect:
    def make_state(self):
        return ReasoningState(context="old ctx", explanation="old exp")

    def test_updates_state(self):
        m = CountingModel([{
            "match": "Irrelevant identifier: food-apple",
            "response": "<context>new ctx</context>"
                        "<explanation>new exp</explanation>"}])
        out = reflect(m, QUERY, cand(), self.make_state(),
                      PromptRegistry.default())
        assert out.context == "new ctx"
        assert out.explanation == "new exp"

    def test_prompt_carries_current_state(self):
        m = CountingModel([{
            "match": "x", "response":
            "<context>c</context><explanation>e</explanation>"}])
        reflect(m, QUERY, cand(), self.make_state(), PromptRegistry.default())
        assert "Current context: old ctx" in m.prompts[0]
        assert "Current explanation: old exp" in m.prompts[0]

    def test_none_after_double_failure(self):
        m = CountingModel([{"match": "Irrelevant identifier:",
                            "response": "garbage"}])
        out = reflect(m, QUERY, cand(), self.make_state(),
                      PromptRegistry.default())
        assert out is None
        assert m.calls == 2
        assert m.prompts[1] == m.prompts[0] + FORMAT_REMINDER
        assert m.caps == [256, 256]


class TestDirectCot:
    def test_scripted(self):
        m = CountingModel([{"match": "Query: " + QUERY.text,
                            "response": "step by step reasoning"}])
        out = direct_cot(m, QUERY, PromptRegistry.default())
        assert out == "step by step reasoning"
        assert m.prompts[0].startswith(DEFAULT_PROMPTS["P_d"])
        assert m.caps == [REASONING_MAX_TOKENS]

    def test_ngram_bounded_output(self):
        from gentrieval.lm import NgramModel
        vocab = Vocabulary()
        ids = vocab.encode("think about fruit calories documents",
                           on_unknown="grow")
        m = NgramModel(vocab, order=2)
        # The prompt ends in "calories"; from there a cycle without END
        # runs until generation stops at the cap.
        m.train_pair([ids[3]], [ids[0], ids[1], ids[0], ids[1]])
        out = direct_cot(m, QUERY, PromptRegistry.default())
        assert len(out.split()) == REASONING_MAX_TOKENS
