"""Constrained beam search and ranked-list utilities.

The automaton masks the model: each live state asks next_token_distribution
once for the whole distribution in sparse form, (default, overrides). Each
depth heap-selects its width (the ranked list's k) survivors before it
steps them, and the finished pool keeps only the top width as plain
(-score, tokens, state) entries: a Hypothesis is built, and the automaton's
complete() asked, only for each one the search returns. No length cap: the
search stops when no state is live, as no automaton accepts a sequence
longer than one record (an FM emission spans one body, since SEP is never
allowed). Scores are raw model log-probabilities (no renormalization after
masking), so a finished hypothesis scores exactly sequence_logprob of its
token sequence; that identity is what the exhaustive-oracle tests lean on.

The model is read like the automaton: model.start(prompt) gives the root's
model state, model.step(state, token) a child's, and
next_token_distribution(state) reads one, so each beam entry carries an
automaton state and a model state side by side. The automaton's
allowed(state) gives a (tokens, end_ok) pair, where tokens is a read-only
set-like view that iterates in ascending order, so the beam reads it in
place and never sorts or copies it; complete(state) hands out a kept
tuple of records, which the Hypothesis holds as it is.

dedup_rank reads the finished hypotheses directly: it keeps the best
(score, record) per document and makes a Candidate only for each of the k
it returns.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from itertools import filterfalse

from .corpus import END
from .docid import DocIdRecord
from .errors import ConfigError, NoValidPath


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
                            width: int) -> list[Hypothesis]:
    """Beam search where each step only expands automaton-allowed tokens.

    Each live state is scored once, as (default, overrides). Expansions are
    ranked by (score desc, token sequence). A parent offers its allowed
    overrides as single entries and its default-scored allowed tokens as one
    run, ascending, all at score + default: within a run only the head can
    be the next best. One heap merges the entries and the run heads; it is
    popped until width survivors, pushing a run's next token when its
    head is popped. Every live sequence has the same length, so (gen, token)
    orders exactly as gen + (token,), and no sequence is built for a token
    that cannot survive. Survivors are stepped in pop order, so only they
    are stepped, and each state's allowed() runs once. A finished sequence
    goes to a pool of (-score, tokens, automaton state) entries bounded at
    the top width; tokens are unique within one search, so states are never
    compared. complete() runs and a Hypothesis is made only for each entry
    the search returns, best first, never for one that later drops out. A
    survivor's model state is stepped with it.
    """
    if width < 1:
        raise ConfigError(f"beam width must be >= 1, got {width}")
    start = automaton.start()
    start_moves = automaton.allowed(start)
    if not start_moves[0] and not start_moves[1]:
        raise NoValidPath("automaton start state admits no token")

    # (score, gen, automaton state, model state)
    live: list[tuple] = [(0.0, (), start, model.start(prompt_tokens))]
    pool: list[tuple] = []  # (-score, tokens, automaton state), best first
    while live:
        # (-score, gen, token, parent state, parent model state, rest of the
        # run or None); the first three fields are unique, so the rest are
        # never compared.
        heap: list[tuple] = []
        for score, gen, state, mstate in live:
            allowed, end_ok = automaton.allowed(state) if gen else start_moves
            default, overrides = model.next_token_distribution(mstate)
            if end_ok:
                entry = (-(score + overrides.get(END, default)),
                         gen + (END,), state)
                if len(pool) < width or entry < pool[-1]:
                    bisect.insort(pool, entry)
                    del pool[width:]
            for tok, lp in overrides.items():
                if tok in allowed:
                    heap.append((-(score + lp), gen, tok, state, mstate, None))
            run = filterfalse(overrides.__contains__, allowed)
            head = next(run, None)
            if head is not None:
                heap.append((-(score + default), gen, head, state, mstate,
                             run))
        heapq.heapify(heap)
        live = []
        while heap and len(live) < width:
            neg, gen, tok, state, mstate, run = heap[0]
            nxt = None if run is None else next(run, None)
            if nxt is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (neg, gen, nxt, state, mstate, run))
            live.append((-neg, gen + (tok,), automaton.step(state, tok),
                         model.step(mstate, tok)))
    return [Hypothesis(tokens, -neg, automaton.complete(state))
            for neg, tokens, state in pool]


def dedup_rank(hyps: list[Hypothesis], k: int) -> RankedList:
    """Best-scoring record per doc_key over the hypotheses' records, ordered
    (score desc, surface asc), truncated to k. At equal score the smaller
    surface represents its document. Candidates are made only for the k
    returned."""
    best: dict[str, tuple[float, DocIdRecord]] = {}
    for h in hyps:
        score = h.score
        for rec in h.records:
            cur = best.get(rec.doc_key)
            if cur is None or score > cur[0] or (
                    score == cur[0] and rec.surface < cur[1].surface):
                best[rec.doc_key] = score, rec
    ranked = sorted(best.items(),
                    key=lambda e: (-e[1][0], e[1][1].surface, e[0]))
    return RankedList([Candidate(rec, score)
                       for _, (score, rec) in ranked[:k]])


def merge_views(hyps: list[Hypothesis], k: int) -> RankedList:
    """Per-document log-sum-exp aggregation across view hypotheses, top k.

    Each document's aggregate is log sum_h exp(score_h) over its hypotheses in
    the beam, each hypothesis counted once however many of the document's
    records it completes to; the representative record is the best-scoring
    one, and at equal score the smaller surface. Ties order by doc_key.
    """
    contributions: dict[str, list[tuple[float, DocIdRecord]]] = {}
    for h in hyps:
        # Per document, this hypothesis's smallest-surface record.
        own: dict[str, DocIdRecord] = {}
        for rec in h.records:
            cur = own.get(rec.doc_key)
            if cur is None or rec.surface < cur.surface:
                own[rec.doc_key] = rec
        for doc_key, rec in own.items():
            contributions.setdefault(doc_key, []).append((h.score, rec))
    ranked: list[Candidate] = []
    for doc_key in sorted(contributions):
        entries = contributions[doc_key]
        m = max(s for s, _ in entries)
        agg = m + math.log(sum(math.exp(s - m) for s, _ in entries))
        best_rec = min(entries, key=lambda e: (-e[0], e[1].surface))[1]
        ranked.append(Candidate(best_rec, agg))
    ranked.sort(key=lambda c: (-c.score, c.doc_key))
    return RankedList(ranked[:k])
