"""Machine-speed gauge: a fixed reference kernel timed between items.

The reference machine's speed swings by up to ~1.7x over seconds to minutes
for reasons outside the guest (see README.md, Steadiness), and every
wall-clock time follows it.  The gauge times a fixed pure-Python kernel that
does the kinds of work the library does (dict walks over string-keyed
graphs, big-integer path counts, float sums) and never calls the library,
so it runs at the machine's current speed and not the program's.  A time
measured next to a gauge reading is scaled by ``REFERENCE_S / reading``:
the result is the time the same work takes when the kernel takes
``REFERENCE_S``, i.e. at a fixed machine speed.  A change to the library
moves the scaled time in full; a change of machine speed cancels out.
"""

from __future__ import annotations

import math
import time

# Roughly the kernel time on the reference machine (2-vCPU KVM guest, Intel
# Xeon, Python 3.11.7).  Only a unit: both sides of a comparison are scaled
# by the same constant.
REFERENCE_S = 1.0e-3
REPS = 3  # a reading is the fastest of REPS kernel runs, which drops interrupts

_STATES = [f"l({n},{k})" for n in range(1, 9) for k in range(n)]
_GRAPH = {s: [_STATES[(i * 7 + j * 3) % len(_STATES)] for j in range(3)]
          for i, s in enumerate(_STATES)}
_STEPS = 48


def kernel() -> int:
    """Fixed work: a big-integer path-count DP on a string-keyed graph."""
    counts = dict.fromkeys(_STATES, 1)
    for _ in range(_STEPS):
        nxt = dict.fromkeys(_STATES, 0)
        for s, succ in _GRAPH.items():
            c = counts[s]
            for t in succ:
                nxt[t] += c
        counts = nxt
    total = math.fsum(math.log1p(c.bit_length()) for c in counts.values())
    return sum(counts.values()) + int(total)


_CHECK = kernel()


def reading() -> float:
    """Seconds the kernel takes now: the fastest of REPS runs."""
    best = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = kernel()
        best = min(best, time.perf_counter() - t0)
    if out != _CHECK:
        raise RuntimeError("reference kernel gave a different result")
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two readings, at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
