"""Prompt registry and the Think / Verify / Reflect / Direct-CoT operations.

Structured reasoning travels as two tagged blocks, <context>...</context> and
<explanation>...</explanation>: robust to free-text preambles and trivial to
parse. Think, Verify and Reflect ask through one helper, `_ask`: it parses
the answer and, when that fails, asks once more with a reminder, so each
issues at most two generations; each passes its own parser, reminder and
token cap. Think can always fall back to the raw query.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .corpus import Query, read_json
from .decode import Candidate
from .errors import ConfigError

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

# Generation caps, in tokens: free-form reasoning (think, reflect,
# direct-CoT) and a one-word verdict (verify).
REASONING_MAX_TOKENS = 256
VERDICT_MAX_TOKENS = 16

_SLOTS = ("query", "docid", "context", "explanation")
_SLOT_RE = re.compile(r"\{(" + "|".join(_SLOTS) + r")\}")


@functools.lru_cache(maxsize=64)
def _split(template: str) -> tuple[str, ...]:
    """*template* as literal text at even positions and slot names at odd
    ones."""
    return tuple(_SLOT_RE.split(template))


_CONTEXT_RE = re.compile(r"<context>(.*?)</context>", re.DOTALL)
_EXPLANATION_RE = re.compile(r"<explanation>(.*?)</explanation>", re.DOTALL)


@dataclass(frozen=True)
class PromptRegistry:
    templates: dict
    # Per vocabulary, (its size, the ids of the fixed retrieval template),
    # filled by orchestrator.retrieve_prompt_ids.
    encoded: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def default(cls) -> "PromptRegistry":
        return cls(dict(DEFAULT_PROMPTS))

    @classmethod
    def from_file(cls, path) -> "PromptRegistry":
        """Defaults overridden by *path*, a JSON object of string templates
        that use only their defaults' slots; unknown names are ignored."""
        overrides = read_json(path)
        if not isinstance(overrides, dict):
            raise ConfigError(f"{path}: prompts file must hold a JSON object")
        merged = dict(DEFAULT_PROMPTS)
        for name, text in overrides.items():
            if not isinstance(text, str):
                raise ConfigError(f"{path}: template {name!r} is not a string")
            if name not in DEFAULT_PROMPTS:
                continue
            for k in _SLOTS:
                slot = "{" + k + "}"
                if slot in text and slot not in DEFAULT_PROMPTS[name]:
                    raise ConfigError(f"{path}: template {name} uses slot "
                                      f"{slot}, which is never filled for it")
            merged[name] = text
        return cls(merged)

    def render(self, name: str, **slots: str) -> str:
        """Template *name* with its slots filled in one pass, so slot text
        inside a value stays literal. Raises ValueError for a slot the
        template uses but *slots* does not fill. The template is split
        into literal text and slot names once per distinct text."""
        parts = _split(self.templates[name])
        out = list(parts)
        for i in range(1, len(parts), 2):
            if parts[i] not in slots:
                raise ValueError(
                    f"unfilled slot {{{parts[i]}}} in template {name}")
            out[i] = slots[parts[i]]
        return "".join(out)


@dataclass(frozen=True)
class ReasoningState:
    context: str
    explanation: str


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


def _ask(model, prompt: str, parse, reminder: str, max_tokens: int):
    """*parse* of the model's answer to *prompt*, asking once more with
    *reminder* appended when it gives None; None when both answers fail to
    parse. Each generation is capped at *max_tokens*."""
    parsed = parse(model.generate(prompt, max_tokens))
    if parsed is None:
        parsed = parse(model.generate(prompt + reminder, max_tokens))
    return parsed


def think(model, q: Query, reg: PromptRegistry) -> ReasoningState:
    """Initial structured reasoning; falls back to the raw query after a
    failed retry, so the result always has a nonempty context."""
    parsed = _ask(model, reg.render("P_t", query=q.text), parse_structured,
                  FORMAT_REMINDER, REASONING_MAX_TOKENS)
    if parsed is None:
        return ReasoningState(context=q.text, explanation="")
    return ReasoningState(*parsed)


# "irrelevant", "not relevant", "non-relevant", "isn't relevant": a negated
# "relevant" is a rejection, so it must be tested before the bare word.
_IRRELEVANT_RE = re.compile(r"irrelevant|(?:\bnot|\bnon|n't)[\s-]*relevant")


def _parse_verdict(raw: str) -> str | None:
    low = raw.lower()
    if _IRRELEVANT_RE.search(low):
        return "irrelevant"
    if "relevant" in low:
        return "relevant"
    return None


def verify(model, q: Query, candidate: Candidate, reg: PromptRegistry) -> str:
    """Binary relevance verdict, "relevant" or "irrelevant"; an unparseable
    answer after one retry defaults to relevant (terminating on ambiguity
    avoids reflection drift)."""
    verdict = _ask(
        model, reg.render("P_v", query=q.text, docid=candidate.record.surface),
        _parse_verdict, VERDICT_REMINDER, VERDICT_MAX_TOKENS)
    return verdict or "relevant"


def reflect(model, q: Query, docid_f: Candidate, state: ReasoningState,
            reg: PromptRegistry) -> ReasoningState | None:
    """Edit the reasoning given the first irrelevant docid; None on parse
    failure after the single retry (the caller terminates the loop)."""
    parsed = _ask(model, reg.render(
        "P_f", query=q.text, docid=docid_f.record.surface,
        context=state.context, explanation=state.explanation),
        parse_structured, FORMAT_REMINDER, REASONING_MAX_TOKENS)
    return None if parsed is None else ReasoningState(*parsed)


def direct_cot(model, q: Query, reg: PromptRegistry) -> str:
    """Free-form reasoning ahead of a single constrained decode."""
    return model.generate(reg.render("P_d") + "\nQuery: " + q.text,
                          REASONING_MAX_TOKENS)
