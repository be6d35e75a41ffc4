"""Constrained beam search and ranked-list utilities.

The automaton masks the model: each live state asks next_token_distribution
once for the whole distribution in sparse form, (default, overrides), and
ranks before it steps. Scores are raw model log-probabilities (no
renormalization after masking), so a finished hypothesis scores exactly
sequence_logprob of its token sequence; that identity is what the
exhaustive-oracle tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import END
from .docid import DocIdRecord
from .errors import NoValidPath


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = 20
    max_len: int = 64

    def __post_init__(self):
        if self.beam_width < 1 or self.max_len < 1:
            raise ValueError("beam_width and max_len must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]  # generated tokens, END included
    score: float             # total sequence log-prob (raw sum)
    records: tuple[DocIdRecord, ...]


@dataclass(frozen=True)
class Candidate:
    record: DocIdRecord
    score: float

    @property
    def doc_key(self) -> str:
        return self.record.doc_key


@dataclass
class RankedList:
    candidates: list[Candidate] = field(default_factory=list)

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self):
        return len(self.candidates)

    def __getitem__(self, i):
        return self.candidates[i]

    def doc_keys(self) -> list[str]:
        return [c.doc_key for c in self.candidates]


def constrained_beam_search(model, prompt_tokens: list[int], automaton,
                            cfg: BeamConfig) -> list[Hypothesis]:
    """Beam search where each step only expands automaton-allowed tokens.

    Each live state is scored once, as (default, overrides). Expansions are
    ranked by (score desc, token sequence), so of the allowed tokens that
    score the default only the beam_width smallest can survive the cut from
    one parent: every other one has beam_width better siblings. A parent
    therefore expands its allowed overrides plus at most beam_width
    default-scored tokens, and END where the automaton permits it.
    Expansions are cut to beam_width before the automaton steps, so only the
    survivors are stepped, and each state's allowed() runs once. Finished
    hypotheses are pooled separately; the top beam_width finished
    hypotheses are returned, ordered by score, ties broken by token sequence.
    """
    start = automaton.start()
    start_moves = automaton.allowed(start)
    if not start_moves[0] and not start_moves[1]:
        raise NoValidPath("automaton start state admits no token")

    width = cfg.beam_width
    prompt = list(prompt_tokens)
    live: list[tuple[float, tuple[int, ...], object]] = [(0.0, (), start)]
    finished: list[Hypothesis] = []
    for _ in range(cfg.max_len):
        if not live:
            break
        # Expansions carry their parent state; only survivors are stepped.
        expansions: list[tuple[float, tuple[int, ...], object]] = []
        for score, gen, state in live:
            allowed, end_ok = automaton.allowed(state) if gen else start_moves
            default, overrides = model.next_token_distribution(
                prompt + list(gen))
            if end_ok:
                finished.append(Hypothesis(
                    tokens=gen + (END,),
                    score=score + overrides.get(END, default),
                    records=tuple(automaton.complete(state))))
            for tok, lp in overrides.items():
                if tok in allowed:
                    expansions.append((score + lp, gen + (tok,), state))
            taken = 0
            for tok in sorted(allowed):
                if taken == width:
                    break
                if tok not in overrides:
                    expansions.append((score + default, gen + (tok,), state))
                    taken += 1
        expansions.sort(key=lambda e: (-e[0], e[1]))
        live = [(score, gen, automaton.step(parent, gen[-1]))
                for score, gen, parent in expansions[:width]]
    finished.sort(key=lambda h: (-h.score, h.tokens))
    return finished[:width]


def dedup_rank(cands: list[Candidate], k: int) -> RankedList:
    """Best-scoring candidate per doc_key, ordered (score desc, surface asc),
    truncated to k."""
    best: dict[str, Candidate] = {}
    for c in cands:
        cur = best.get(c.doc_key)
        if cur is None or c.score > cur.score or (
                c.score == cur.score and c.record.surface < cur.record.surface):
            best[c.doc_key] = c
    ranked = sorted(best.values(),
                    key=lambda c: (-c.score, c.record.surface, c.doc_key))
    return RankedList(ranked[:k])


def hypotheses_to_candidates(hyps: list[Hypothesis]) -> list[Candidate]:
    return [Candidate(record=r, score=h.score) for h in hyps for r in h.records]


def merge_views(hyps: list[Hypothesis], k: int | None = None) -> RankedList:
    """Per-document log-sum-exp aggregation across view hypotheses.

    Each document's aggregate is log sum_h exp(score_h) over its hypotheses in
    the beam; the representative record is the best-scoring one. Ties order by
    doc_key.
    """
    contributions: dict[str, list[tuple[float, DocIdRecord]]] = {}
    for h in hyps:
        for rec in h.records:
            contributions.setdefault(rec.doc_key, []).append((h.score, rec))
    ranked: list[Candidate] = []
    for doc_key in sorted(contributions):
        entries = contributions[doc_key]
        m = max(s for s, _ in entries)
        agg = m + math.log(sum(math.exp(s - m) for s, _ in entries))
        best_rec = min(entries, key=lambda e: (-e[0], e[1].surface))[1]
        ranked.append(Candidate(record=best_rec, score=agg))
    ranked.sort(key=lambda c: (-c.score, c.doc_key))
    if k is not None:
        ranked = ranked[:k]
    return RankedList(ranked)
