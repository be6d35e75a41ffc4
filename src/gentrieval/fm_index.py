"""FM-index over an integer token sequence, grown one token to the right.

The index is built over the *reversed* sequence plus a sentinel, so one
backward-search step extends the matched pattern one token to the right of
the original sequence, which is the direction constrained decoding grows in.
A window is a half-open range of suffix-array rows whose suffixes start with
the reversed pattern; the BWT symbol of a row is the token that follows that
occurrence in the original sequence.

Memory is O(n): the suffix array, the BWT, the C table and, per symbol, the
sorted BWT rows that hold it. Rank is a bisection over those rows, followers
are the distinct symbols of the window's BWT slice (O(window), not O(sigma)),
and locate reads where each occurrence ends off the suffix array.

No decoding path reads this module: the `fm_index` strategy decodes through
`constraint.FmIndexAutomaton`, a suffix automaton that accepts the same
language. Besides its own unit tests, only acceptance test 1, which checks
it against naive scans, and `perfbench/tracing.py`, which patches
`SequenceFMIndex.followers`, still import it. It goes, with its tests, once
the tracer skips a patch point the library no longer has.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

SENTINEL = -1


def suffix_array(seq: list[int]) -> list[int]:
    """Suffix array by prefix doubling (Manber & Myers, O(n log^2 n)).

    rank[i] is the dense rank of seq[i:i + k]. A round sorts the previous
    order by one int per suffix that compares as the pair (rank[i],
    rank[i + k]), a missing second half lowest, and re-ranks along it."""
    n = len(seq)
    if n == 0:
        return []
    rank_of = {v: i for i, v in enumerate(sorted(set(seq)))}
    rank = [rank_of[v] for v in seq]
    order = sorted(range(n), key=rank.__getitem__)
    top = len(rank_of) - 1
    width = n + 1
    k = 1
    while top < n - 1:
        key = [a * width + b + 1 for a, b in zip(rank, islice(rank, k, None))]
        key += [a * width for a in islice(rank, n - k, None)]
        order.sort(key=key.__getitem__)
        top = 0
        prev = key[order[0]]
        for i in order:
            v = key[i]
            if v != prev:
                top += 1
                prev = v
            rank[i] = top
        k <<= 1
    return order


class SequenceFMIndex:
    """Windows of pattern occurrences in a token sequence."""

    def __init__(self, seq: list[int]):
        # Terminal sentinel sorts below every real symbol.
        rev = list(reversed(seq)) + [SENTINEL]
        self.n = len(seq)
        self.sa = suffix_array(rev)
        self.bwt = [rev[i - 1] for i in self.sa]
        # rows[c]: the BWT rows holding c, ascending. C[c]: the first row
        # whose suffix starts with c, i.e. the count of symbols below c.
        self.rows: dict[int, list[int]] = {}
        self.c_table: dict[int, int] = {}
        for row, i in enumerate(self.sa):
            self.rows.setdefault(rev[i - 1], []).append(row)
            self.c_table.setdefault(rev[i], row)

    def start(self) -> tuple[int, int]:
        """Window of the empty pattern."""
        return (0, self.n + 1)

    def extend(self, rng: tuple[int, int], token: int) -> tuple[int, int]:
        """Window for the current pattern extended rightward by *token*."""
        rows = self.rows.get(token)
        if rows is None:
            return (0, 0)
        base = self.c_table[token]
        return (base + bisect_left(rows, rng[0]),
                base + bisect_left(rows, rng[1]))

    def count(self, rng: tuple[int, int]) -> int:
        return rng[1] - rng[0]

    def occurrences(self, pattern: list[int]) -> int:
        rng = self.start()
        for t in pattern:
            rng = self.extend(rng, t)
        return self.count(rng)

    def followers(self, rng: tuple[int, int]) -> set[int]:
        """Symbols that immediately follow (to the right) some occurrence."""
        return set(self.bwt[rng[0]:rng[1]]) - {SENTINEL}

    def locate(self, rng: tuple[int, int]) -> list[int]:
        """Sequence position of the last token of each occurrence, by row."""
        return [self.n - 1 - self.sa[row] for row in range(*rng)]
