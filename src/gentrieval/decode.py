"""Constrained beam search and ranked-list utilities.

Scores are raw model log-probabilities (no renormalization after masking), so
a finished hypothesis scores exactly sequence_logprob of its token sequence;
that identity is what the exhaustive-oracle tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import END
from .docid import DocIdRecord
from .errors import NoValidPath
from .lm import FLOOR_LOGPROB


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = 20
    max_len: int = 64
    length_normalize: bool = False

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

    Finished hypotheses (END taken where the automaton permits it) are pooled
    separately; the top beam_width finished hypotheses are returned, ordered
    by score (divided by length when cfg.length_normalize), ties broken by
    token sequence.
    """
    start = automaton.start()
    allowed, end_ok = automaton.allowed(start)
    if not allowed and not end_ok:
        raise NoValidPath("automaton start state admits no token")

    def norm(score: float, length: int) -> float:
        return score / length if cfg.length_normalize else score

    live: list[tuple[float, tuple[int, ...], object]] = [(0.0, (), start)]
    finished: list[Hypothesis] = []
    for _ in range(cfg.max_len):
        if not live:
            break
        expansions: list[tuple[float, tuple[int, ...], object]] = []
        for score, gen, state in live:
            dist = model.next_token_distribution(list(prompt_tokens) + list(gen))
            allowed, end_ok = automaton.allowed(state)
            if end_ok:
                end_score = score + dist.get(END, FLOOR_LOGPROB)
                finished.append(Hypothesis(
                    tokens=gen + (END,), score=end_score,
                    records=tuple(automaton.complete(state))))
            for tok in sorted(allowed):
                expansions.append((score + dist.get(tok, FLOOR_LOGPROB),
                                   gen + (tok,), automaton.step(state, tok)))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        live = expansions[:cfg.beam_width]
    finished.sort(key=lambda h: (-norm(h.score, len(h.tokens)), h.tokens))
    return finished[:cfg.beam_width]


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
