"""Retrieval pipelines: standard, direct-CoT, and the iterative
Think / Retrieve / Refine loop with verification-driven reflection.

One loop run is sequential by construction. Each round is recorded once, as
the trace file writes it: context `c`, explanation `e`, candidates `topk`,
`judgments`, the first-irrelevant rank `j_hat`, and `ms`, the round's
wall-clock time when timing is enabled (else 0.0); `--timing`'s per-query
latency, for every pipeline, is timed by `evaluation.run_experiment`. The
module owns its choices' names: `PIPELINES`, `ABLATIONS`, `REASONS`.

Training and decoding build the retrieval prompt's ids with
`retrieve_prompt_ids`: the fixed template is encoded once per registry and
vocabulary, so each decode encodes only the query's own text and context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .corpus import Query, Vocabulary
from .decode import (RankedList, constrained_beam_search, dedup_rank,
                     merge_views)
from .docid import DocIdIndex
from .errors import ConfigError, EmptyQuery
from .reasoning import (PromptRegistry, ReasoningState, direct_cot, reflect,
                        think, verify)

ABLATION_NO_CONTEXT = "no_context"
ABLATION_NO_EXPLANATION = "no_explanation"
ABLATION_NO_VERIFICATION = "no_verification"
ABLATIONS = (ABLATION_NO_CONTEXT, ABLATION_NO_EXPLANATION,
             ABLATION_NO_VERIFICATION)

REASON_ALL_RELEVANT = "all_relevant"
REASON_PARSE_FAILURE = "parse_failure"
REASON_BUDGET_EXHAUSTED = "budget_exhausted"
# Reports and `gentrieval stats` list the reasons in this order.
REASONS = (REASON_ALL_RELEVANT, REASON_BUDGET_EXHAUSTED, REASON_PARSE_FAILURE)

# Pipeline *name* runs through `run_<name>`.
PIPELINES = ("standard", "direct_cot", "r4r")


@dataclass(frozen=True)
class RefineConfig:
    verify_depth: int = 3
    round_budget: int = 3
    ablation: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.verify_depth < 1 or self.round_budget < 1:
            raise ConfigError("verify_depth and round_budget must be >= 1")
        bad = sorted(a for a in self.ablation if a not in ABLATIONS)
        if bad:
            raise ConfigError(f"unknown ablation flags: {', '.join(bad)}")


@dataclass
class R4RResult:
    ranked: RankedList
    reason: str
    rounds_used: int
    trace: list[dict] = field(default_factory=list)


def retrieve_prompt_ids(reg: PromptRegistry, vocab: Vocabulary, text: str,
                        auxiliary: str | None = None) -> list[int]:
    """Ids of the retrieval prompt, P_r + "\nQuery: " + *text*, with
    "\nContext: " + *auxiliary* when given, unknown words skipped. The
    template part ends in a space, where no word can continue, so its ids are
    encoded apart: once per vocabulary and size, kept in *reg*. An id added
    to the vocabulary since then changes its size, so the ids are encoded
    again."""
    hit = reg.encoded.get(vocab)
    if hit is None or hit[0] != len(vocab):
        hit = reg.encoded[vocab] = len(vocab), vocab.encode(
            reg.render("P_r") + "\nQuery: ", on_unknown="skip")
    if auxiliary:
        text += "\nContext: " + auxiliary
    return hit[1] + vocab.encode(text, on_unknown="skip")


def run_standard(q: Query, model, automaton, index: DocIdIndex,
                 reg: PromptRegistry, k: int, merge: bool = False,
                 auxiliary: str | None = None) -> RankedList:
    """A k-wide constrained decode on the retrieval prompt plus the raw query
    and, when given, the auxiliary text (reasoning or refined context)."""
    if not q.text.strip():
        raise EmptyQuery(q.query_id)
    tokens = retrieve_prompt_ids(reg, index.vocab, q.text, auxiliary)
    hyps = constrained_beam_search(model, tokens, automaton, k)
    if merge:
        return merge_views(hyps, k)
    return dedup_rank(hyps, k)


def run_direct_cot(q: Query, model, reason_model, automaton,
                   index: DocIdIndex, reg: PromptRegistry, k: int,
                   merge: bool = False) -> RankedList:
    """Free-form reasoning first, then one constrained decode over
    query || reasoning."""
    reasoning = direct_cot(reason_model, q, reg)
    return run_standard(q, model, automaton, index, reg, k,
                        auxiliary=reasoning or None, merge=merge)


def run_r4r(q: Query, model, reason_model, automaton, index: DocIdIndex,
            reg: PromptRegistry, k: int, refine_cfg: RefineConfig,
            merge: bool = False, timing: bool = False) -> R4RResult:
    """Think once, then alternate Retrieve and Refine until the top verify
    slots are all relevant, reflection parsing fails, or the budget runs out."""
    no_ctx = ABLATION_NO_CONTEXT in refine_cfg.ablation
    no_exp = ABLATION_NO_EXPLANATION in refine_cfg.ablation
    no_verify = ABLATION_NO_VERIFICATION in refine_cfg.ablation

    state = think(reason_model, q, reg)
    if no_exp:
        state = ReasoningState(state.context, "")

    result = R4RResult(ranked=RankedList(), reason=REASON_BUDGET_EXHAUSTED,
                       rounds_used=0)
    for i in range(1, refine_cfg.round_budget + 1):
        r_start = time.monotonic()
        auxiliary = state.explanation if no_ctx else state.context
        ranked = run_standard(q, model, automaton, index, reg, k,
                              auxiliary=auxiliary or None, merge=merge)
        judgments: list[str] = []
        j_hat = 0
        if no_verify:
            j_hat = 1 if len(ranked) else 0
        else:
            for j, cand in enumerate(ranked[:refine_cfg.verify_depth], start=1):
                verdict = verify(reason_model, q, cand, reg)
                judgments.append(verdict)
                if verdict == "irrelevant":
                    j_hat = j
                    break
        result.trace.append({
            "c": state.context, "e": state.explanation,
            "topk": [{"surface": c.record.surface, "score": c.score,
                      "doc": c.doc_key} for c in ranked],
            "judgments": judgments, "j_hat": j_hat,
            "ms": (time.monotonic() - r_start) * 1000.0 if timing else 0.0})
        result.ranked = ranked
        result.rounds_used = i
        if j_hat == 0 and not no_verify:
            result.reason = REASON_ALL_RELEVANT
            break
        # j_hat == 0 here only under no_verification with an empty ranking.
        if j_hat == 0 or i == refine_cfg.round_budget:
            result.reason = REASON_BUDGET_EXHAUSTED
            break
        new_state = reflect(reason_model, q, ranked[j_hat - 1], state, reg)
        if new_state is None:
            result.reason = REASON_PARSE_FAILURE
            break
        # Ablated channels keep what think gave them: under no_context
        # retrieval reads the explanation, so only that channel moves.
        state = ReasoningState(state.context if no_ctx else new_state.context,
                               "" if no_exp else new_state.explanation)
    return result


__all__ = [
    "ABLATIONS", "ABLATION_NO_CONTEXT", "ABLATION_NO_EXPLANATION",
    "ABLATION_NO_VERIFICATION", "PIPELINES", "REASONS", "REASON_ALL_RELEVANT",
    "REASON_PARSE_FAILURE", "REASON_BUDGET_EXHAUSTED", "R4RResult",
    "RefineConfig", "retrieve_prompt_ids", "run_direct_cot", "run_r4r",
    "run_standard",
]
