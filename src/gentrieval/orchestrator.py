"""Retrieval pipelines: standard, direct-CoT, and the iterative
Think / Retrieve / Refine loop with verification-driven reflection.

One loop run is sequential by construction; traces capture per-round context,
explanation, candidates, judgments, the first-irrelevant rank, and latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .corpus import Query
from .decode import (BeamConfig, RankedList, constrained_beam_search,
                     dedup_rank, hypotheses_to_candidates, merge_views)
from .docid import DocIdIndex
from .errors import EmptyQuery
from .reasoning import (PromptRegistry, ReasoningState, direct_cot, reflect,
                        think, verify)

ABLATION_NO_CONTEXT = "no_context"
ABLATION_NO_EXPLANATION = "no_explanation"
ABLATION_NO_VERIFICATION = "no_verification"

REASON_ALL_RELEVANT = "all_relevant"
REASON_PARSE_FAILURE = "parse_failure"
REASON_BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class RefineConfig:
    verify_depth: int = 3
    round_budget: int = 3
    ablation: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.verify_depth < 1 or self.round_budget < 1:
            raise ValueError("verify_depth and round_budget must be >= 1")


@dataclass
class ModelBundle:
    """Retrieval model must be local (full distributions); the reasoning
    model may be remote. One model may serve both roles."""
    retrieve_model: object
    reason_model: object

    @classmethod
    def single(cls, model) -> "ModelBundle":
        return cls(retrieve_model=model, reason_model=model)

    @property
    def shared(self) -> bool:
        return self.retrieve_model is self.reason_model


@dataclass
class RoundTrace:
    context: str
    explanation: str
    topk: list[dict]
    judgments: list[str]
    j_hat: int
    ms: float


@dataclass
class R4RResult:
    ranked: RankedList
    reason: str
    rounds_used: int
    trace: list[RoundTrace] = field(default_factory=list)
    shared_model: bool = True
    total_ms: float = 0.0


def _retrieve_prompt(reg: PromptRegistry, q: Query,
                     auxiliary: str | None = None) -> str:
    prompt = reg.render("P_r") + "\nQuery: " + q.text
    if auxiliary:
        prompt += "\nContext: " + auxiliary
    return prompt


def default_beam_config(index: DocIdIndex, k: int = 20) -> BeamConfig:
    max_len = max(len(r.tokens) for r in index.records) + 1
    return BeamConfig(beam_width=k, max_len=max_len)


def _decode(q: Query, model, automaton, index: DocIdIndex, reg: PromptRegistry,
            cfg: BeamConfig, auxiliary: str | None = None,
            merge: bool = False) -> RankedList:
    if not q.text.strip():
        raise EmptyQuery(q.query_id)
    prompt = _retrieve_prompt(reg, q, auxiliary)
    tokens = index.vocab.encode(prompt, on_unknown="skip")
    hyps = constrained_beam_search(model, tokens, automaton, cfg)
    if merge:
        return merge_views(hyps, k=cfg.beam_width)
    return dedup_rank(hypotheses_to_candidates(hyps), cfg.beam_width)


def run_standard(q: Query, model, automaton, index: DocIdIndex,
                 reg: PromptRegistry, cfg: BeamConfig,
                 merge: bool = False) -> RankedList:
    """Single constrained decode on the retrieval prompt plus the raw query."""
    return _decode(q, model, automaton, index, reg, cfg, merge=merge)


def run_direct_cot(q: Query, bundle: ModelBundle, automaton,
                   index: DocIdIndex, reg: PromptRegistry, cfg: BeamConfig,
                   max_tokens: int = 256, merge: bool = False) -> RankedList:
    """Free-form reasoning first, then one constrained decode over
    query || reasoning."""
    dc = direct_cot(bundle.reason_model, q, reg, max_tokens=max_tokens)
    return _decode(q, bundle.retrieve_model, automaton, index, reg, cfg,
                   auxiliary=dc.reasoning or None, merge=merge)


def run_r4r(q: Query, bundle: ModelBundle, automaton, index: DocIdIndex,
            reg: PromptRegistry, beam_cfg: BeamConfig,
            refine_cfg: RefineConfig, merge: bool = False,
            timing: bool = True) -> R4RResult:
    """Think once, then alternate Retrieve and Refine until the top verify
    slots are all relevant, reflection parsing fails, or the budget runs out."""
    no_ctx = ABLATION_NO_CONTEXT in refine_cfg.ablation
    no_exp = ABLATION_NO_EXPLANATION in refine_cfg.ablation
    no_verify = ABLATION_NO_VERIFICATION in refine_cfg.ablation

    t_start = time.monotonic()
    state = think(bundle.reason_model, q, reg)
    if no_exp:
        state = ReasoningState(state.round_index, state.context, "")

    result = R4RResult(ranked=RankedList(), reason=REASON_BUDGET_EXHAUSTED,
                       rounds_used=0, shared_model=bundle.shared)
    for i in range(1, refine_cfg.round_budget + 1):
        r_start = time.monotonic()
        auxiliary = state.explanation if no_ctx else state.context
        ranked = _decode(q, bundle.retrieve_model, automaton, index, reg,
                         beam_cfg, auxiliary=auxiliary or None, merge=merge)
        judgments: list[str] = []
        j_hat = 0
        if no_verify:
            j_hat = 1 if len(ranked) else 0
        else:
            for j, cand in enumerate(ranked[:refine_cfg.verify_depth], start=1):
                judgment = verify(bundle.reason_model, q, cand, reg)
                judgments.append(judgment.verdict)
                if judgment.verdict == "irrelevant":
                    j_hat = j
                    break
        rt = RoundTrace(
            context=state.context, explanation=state.explanation,
            topk=[{"surface": c.record.surface, "score": c.score,
                   "doc": c.doc_key} for c in ranked],
            judgments=judgments, j_hat=j_hat,
            ms=(time.monotonic() - r_start) * 1000.0 if timing else 0.0)
        result.trace.append(rt)
        result.ranked = ranked
        result.rounds_used = i
        if j_hat == 0 and not no_verify:
            result.reason = REASON_ALL_RELEVANT
            break
        if j_hat == 0:  # no_verification with an empty ranking
            result.reason = REASON_BUDGET_EXHAUSTED
            break
        if i == refine_cfg.round_budget:
            result.reason = REASON_BUDGET_EXHAUSTED
            break
        new_state = reflect(bundle.reason_model, q, ranked[j_hat - 1], state,
                            reg, update_context=not no_ctx,
                            include_explanation=not no_exp)
        if new_state is None:
            result.reason = REASON_PARSE_FAILURE
            break
        if no_ctx:
            # Retrieval reads the explanation in this ablation; reflect
            # updated only the explanation channel.
            new_state = ReasoningState(new_state.round_index,
                                       state.context, new_state.explanation)
        state = new_state
    result.total_ms = (time.monotonic() - t_start) * 1000.0 if timing else 0.0
    return result


def collect_trace(result: R4RResult, qid: str) -> dict:
    """Serializable per-query trace record."""
    return {
        "qid": qid,
        "reason": result.reason,
        "rounds": result.rounds_used,
        "shared_model": result.shared_model,
        "rounds_detail": [
            {"c": rt.context, "e": rt.explanation, "topk": rt.topk,
             "judgments": rt.judgments, "j_hat": rt.j_hat, "ms": rt.ms}
            for rt in result.trace
        ],
    }


__all__ = [
    "ABLATION_NO_CONTEXT", "ABLATION_NO_EXPLANATION",
    "ABLATION_NO_VERIFICATION", "REASON_ALL_RELEVANT",
    "REASON_PARSE_FAILURE", "REASON_BUDGET_EXHAUSTED", "ModelBundle",
    "R4RResult", "RefineConfig", "RoundTrace", "collect_trace",
    "default_beam_config", "run_direct_cot", "run_r4r", "run_standard",
]
