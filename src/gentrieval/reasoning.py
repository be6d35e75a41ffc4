"""Prompt registry and the Think / Verify / Reflect / Direct-CoT operations.

Structured reasoning travels as two tagged blocks, <context>...</context> and
<explanation>...</explanation>: robust to free-text preambles and trivial to
parse. Each operation issues at most two generations (one minimal retry with
a format reminder); Think can always fall back to the raw query.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

from .corpus import Query
from .decode import Candidate
from .lm import GenerationRequest

DEFAULT_PROMPTS = {
    "P_r": ("You are a retrieval assistant. \n"
            "Given a query, output identifiers for potentially relevant "
            "document (each identifier is a hyphen-separated set of key "
            "phrases for that document)."),
    "P_i": ("You are a retrieval assistant. \n"
            "Given a document, output identifiers for potentially relevant "
            "document (each identifier is a hyphen-separated set of key "
            "phrases for that document)."),
    "P_d": ("You are a QA assistant. \n"
            "Given a query, think step by step about the answer and which "
            "documents are likely to contain it."),
    "P_t": ("You are a retrieval assistant. Read the query and respond with "
            "exactly two tagged blocks: <context>a compact phrase of at most "
            "15 words, phrased like a hyphen-separated document identifier, "
            "naming what the query points to</context> and <explanation>the "
            "key cues for interpreting the query</explanation>.\n"
            "Query: {query}"),
    "P_v": ("You are a retrieval assistant. Judge whether the candidate "
            "document identifier is relevant to the query. Answer with "
            "exactly one word: relevant or irrelevant.\n"
            "Query: {query}\n"
            "Candidate identifier: {docid}"),
    "P_f": ("You are a retrieval assistant. The candidate identifier below "
            "was judged irrelevant to the query. Minimally edit the query "
            "context and the explanation so the next retrieval avoids this "
            "error, changing only what is necessary. Respond with "
            "<context>...</context> and <explanation>...</explanation>.\n"
            "Query: {query}\n"
            "Irrelevant identifier: {docid}\n"
            "Current context: {context}\n"
            "Current explanation: {explanation}"),
}

FORMAT_REMINDER = ("\nReminder: respond with exactly one "
                   "<context>...</context> block followed by one "
                   "<explanation>...</explanation> block.")
VERDICT_REMINDER = "\nAnswer with exactly one word: relevant or irrelevant."

_SLOTS = ("query", "docid", "context", "explanation", "document")

_CONTEXT_RE = re.compile(r"<context>(.*?)</context>", re.DOTALL)
_EXPLANATION_RE = re.compile(r"<explanation>(.*?)</explanation>", re.DOTALL)


@dataclass(frozen=True)
class PromptRegistry:
    templates: dict

    @classmethod
    def default(cls) -> "PromptRegistry":
        return cls(dict(DEFAULT_PROMPTS))

    @classmethod
    def from_file(cls, path) -> "PromptRegistry":
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
        merged = dict(DEFAULT_PROMPTS)
        merged.update({k: v for k, v in overrides.items() if k in DEFAULT_PROMPTS})
        return cls(merged)

    @classmethod
    def load(cls, path=None) -> "PromptRegistry":
        """The defaults with the overrides in *path*, or the defaults alone
        when no path is given."""
        return cls.from_file(path) if path else cls.default()

    def render(self, name: str, **slots: str) -> str:
        text = self.templates[name]
        for k in _SLOTS:
            if k in slots:
                text = text.replace("{" + k + "}", slots[k])
        for k in _SLOTS:
            if "{" + k + "}" in text:
                raise ValueError(f"unfilled slot {{{k}}} in template {name}")
        return text


@dataclass(frozen=True)
class ReasoningState:
    round_index: int
    context: str
    explanation: str


@dataclass(frozen=True)
class RelevanceJudgment:
    verdict: str  # "relevant" | "irrelevant"
    raw: str


@dataclass(frozen=True)
class DirectCotOutput:
    reasoning: str


def parse_structured(text: str) -> tuple[str, str] | None:
    """First well-formed <context>/<explanation> pair, or None."""
    ctx = _CONTEXT_RE.search(text)
    exp = _EXPLANATION_RE.search(text)
    if ctx is None or exp is None:
        return None
    context = ctx.group(1).strip()
    if not context:
        return None
    return context, exp.group(1).strip()


def _generate(model, prompt: str, max_tokens: int) -> str:
    return model.generate(GenerationRequest(prompt=prompt, max_tokens=max_tokens))


def think(model, q: Query, reg: PromptRegistry,
          max_tokens: int = 256) -> ReasoningState:
    """Initial structured reasoning; falls back to the raw query after a
    failed retry, so the result always has a nonempty context."""
    prompt = reg.render("P_t", query=q.text)
    parsed = parse_structured(_generate(model, prompt, max_tokens))
    if parsed is None:
        parsed = parse_structured(
            _generate(model, prompt + FORMAT_REMINDER, max_tokens))
    if parsed is None:
        return ReasoningState(round_index=0, context=q.text, explanation="")
    return ReasoningState(round_index=0, context=parsed[0], explanation=parsed[1])


def _parse_verdict(raw: str) -> str | None:
    low = raw.lower()
    if "irrelevant" in low:
        return "irrelevant"
    if "relevant" in low:
        return "relevant"
    return None


def verify(model, q: Query, candidate: Candidate, reg: PromptRegistry,
           max_tokens: int = 16) -> RelevanceJudgment:
    """Binary relevance judgment; an unparseable answer after one retry
    defaults to relevant (terminating on ambiguity avoids reflection drift)."""
    prompt = reg.render("P_v", query=q.text, docid=candidate.record.surface)
    raw = _generate(model, prompt, max_tokens)
    verdict = _parse_verdict(raw)
    if verdict is None:
        raw = _generate(model, prompt + VERDICT_REMINDER, max_tokens)
        verdict = _parse_verdict(raw)
    return RelevanceJudgment(verdict=verdict or "relevant", raw=raw)


def reflect(model, q: Query, docid_f: Candidate, state: ReasoningState,
            reg: PromptRegistry, max_tokens: int = 256,
            update_context: bool = True,
            include_explanation: bool = True) -> ReasoningState | None:
    """Edit the reasoning given the first irrelevant docid; None on parse
    failure after the single retry (the caller terminates the loop)."""
    prompt = reg.render("P_f", query=q.text, docid=docid_f.record.surface,
                        context=state.context,
                        explanation=state.explanation if include_explanation else "")
    parsed = parse_structured(_generate(model, prompt, max_tokens))
    if parsed is None:
        parsed = parse_structured(
            _generate(model, prompt + FORMAT_REMINDER, max_tokens))
    if parsed is None:
        return None
    context, explanation = parsed
    return replace(state,
                   round_index=state.round_index + 1,
                   context=context if update_context else state.context,
                   explanation=explanation if include_explanation else "")


def direct_cot(model, q: Query, reg: PromptRegistry,
               max_tokens: int = 256) -> DirectCotOutput:
    """Free-form reasoning ahead of a single constrained decode."""
    prompt = reg.render("P_d") + "\nQuery: " + q.text
    return DirectCotOutput(reasoning=_generate(model, prompt, max_tokens))
