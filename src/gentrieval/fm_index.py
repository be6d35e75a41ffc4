"""FM-index over an integer token sequence.

Built with a prefix-doubling suffix array, the BWT, a C table, and full
per-symbol cumulative occurrence arrays (desk scale, so no sampling). The
index is constructed over the *reversed* sequence: a standard backward-search
step then extends the matched window one token to the right of the original
sequence, which is exactly the direction constrained decoding grows in.
"""

from __future__ import annotations

from itertools import islice, zip_longest

SENTINEL = -1


def suffix_array(seq: list[int]) -> list[int]:
    """Suffix array by prefix doubling (O(n log^2 n))."""
    n = len(seq)
    if n == 0:
        return []
    order = sorted(set(seq))
    rank_of = {v: i for i, v in enumerate(order)}
    line = [rank_of[v] for v in seq]
    k = 1
    while max(line) < n - 1:
        pairs = [(a, b) for a, b in
                 zip_longest(line, islice(line, k, None), fillvalue=-1)]
        uniq = sorted(set(pairs))
        rank_of = {v: i for i, v in enumerate(uniq)}
        line = [rank_of[p] for p in pairs]
        k <<= 1
    sa = [0] * n
    for i, r in enumerate(line):
        sa[r] = i
    return sa


class FMIndex:
    """Occurrence counting and single-symbol extension over one sequence."""

    def __init__(self, seq: list[int]):
        # Terminal sentinel sorts below every real symbol.
        self.seq = list(seq) + [SENTINEL]
        n = len(self.seq)
        bwt = [self.seq[i - 1] for i in suffix_array(self.seq)]
        self.n = n
        symbols = sorted(set(self.seq))
        # C[c]: number of symbols strictly smaller than c.
        counts = {c: 0 for c in symbols}
        for c in self.seq:
            counts[c] += 1
        self.c_table: dict[int, int] = {}
        acc = 0
        for c in symbols:
            self.c_table[c] = acc
            acc += counts[c]
        # occ[c][i]: occurrences of c in bwt[:i].
        self.occ: dict[int, list[int]] = {c: [0] * (n + 1) for c in symbols}
        for i, b in enumerate(bwt):
            for c in symbols:
                self.occ[c][i + 1] = self.occ[c][i]
            self.occ[b][i + 1] += 1

    def whole_range(self) -> tuple[int, int]:
        return (0, self.n)

    def backward_step(self, rng: tuple[int, int], c: int) -> tuple[int, int]:
        """Range of suffixes starting with c followed by the current match."""
        if c not in self.c_table:
            return (0, 0)
        lo, hi = rng
        return (self.c_table[c] + self.occ[c][lo],
                self.c_table[c] + self.occ[c][hi])

    def count_range(self, rng: tuple[int, int]) -> int:
        return max(0, rng[1] - rng[0])

    def match(self, pattern: list[int]) -> tuple[int, int]:
        """Range for *pattern*, matched by feeding symbols right to left."""
        rng = self.whole_range()
        for c in reversed(pattern):
            rng = self.backward_step(rng, c)
            if rng[0] >= rng[1]:
                break
        return rng


class SequenceFMIndex:
    """Right-extension interface over an original (unreversed) token sequence."""

    def __init__(self, seq: list[int]):
        self.seq = list(seq)
        self._fm = FMIndex(list(reversed(seq)))
        self.symbols = sorted(set(seq))

    def start(self) -> tuple[int, int]:
        return self._fm.whole_range()

    def extend(self, rng: tuple[int, int], token: int) -> tuple[int, int]:
        """Window for the current pattern extended rightward by *token*."""
        return self._fm.backward_step(rng, token)

    def count(self, rng: tuple[int, int]) -> int:
        return self._fm.count_range(rng)

    def occurrences(self, pattern: list[int]) -> int:
        rng = self.start()
        for t in pattern:
            rng = self.extend(rng, t)
        return self.count(rng)

    def followers(self, rng: tuple[int, int]) -> set[int]:
        """Symbols that immediately follow (to the right) some occurrence."""
        return {c for c in self.symbols
                if self.count(self.extend(rng, c)) > 0}
