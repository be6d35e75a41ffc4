"""Host speed probe: timings in the end-to-end metrics are corrected for
how fast the host ran while they were taken.

On a few vCPUs of a shared host the same pure-Python work runs at speeds
that differ by up to ~2x, switching within milliseconds and drifting for
minutes, so raw wall times of one commit scatter by more than any bound a
benchmark could keep. The harness therefore runs `probe()`, a fixed piece
of interpreter work of the same kind as the library's (dict and set
comprehensions over strings, and a float-valued dict over token ids like
the n-gram model's next-token distribution), just before set-up, between
queries and after the last query, outside every timed interval. Each timed
interval is scaled by REFERENCE_S ÷ the mean of the probes on either side
of it: the time it would have taken on a host where the probe takes
REFERENCE_S.

The probe is benchmark code: no change to gentrieval changes its work, so
a change that makes the library faster or slower moves the scaled times by
the same factor as the raw ones.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

# A round value near the probe's time on the 2-vCPU Xeon (2.0 GHz) host the
# bounds were set on; it fixes the scale of the reported times, nothing else.
REFERENCE_S = 0.002

_WORDS = [f"w{i}" for i in range(2000)]


def probe() -> float:
    """Run the fixed probe work once; return its wall time in seconds.

    The garbage collector is held off meanwhile: a collection that the
    library's allocations have made due would otherwise be timed as host
    slowness (a full one on the FM index takes tens of milliseconds).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(2):
            index = {w: i for i, w in enumerate(_WORDS)}
            {w for w in index if index[w] % 3}
            counts = {i: i % 7 for i in range(0, len(_WORDS), 13)}
            {t: math.log((counts.get(t, 0) + 1) / 4000)
             for t in range(len(_WORDS))}
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* measured between probes that took *before* and *after*,
    at reference host speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
