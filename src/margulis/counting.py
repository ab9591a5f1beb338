"""Exact combinatorics of admissible words and loops.

Counts are indexed by EDGE COUNT throughout: a word with n edges has n+1
symbols, and the empty word at a state counts once (Z_0(a,a) = 1).  Counts are
Python integers, so they never overflow; weighted sums convert each exact
integer term to a float and accumulate with a compensated (Neumaier) running
sum so classifier verdicts never hinge on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .graphs import ShiftGraph, StateId

_BIG_FLOAT_BITS = 900  # convert via exp(log) above this to avoid float overflow


@dataclass
class CountTable:
    """counts[n] = number of admissible words with n edges from origin to target."""

    origin: StateId
    target: StateId
    counts: list[int]


@dataclass
class WeightedSumTrace:
    """Partial sums of sum_n exp(-n h) * Z_n(a,a); nondecreasing in n."""

    h: float
    partial_sums: list[float]
    terms: list[float] = field(repr=False, default_factory=list)

    @property
    def n_max(self) -> int:
        return len(self.partial_sums) - 1

    @property
    def total(self) -> float:
        return self.partial_sums[-1]


def _frontiers(step: Callable[[StateId], Sequence[StateId]], start: StateId,
               n_max: int) -> Iterator[dict[StateId, int]]:
    """For n = 0..n_max, the number of n-edge walks from ``start`` along
    ``step`` ending at each state (states with no walk are absent)."""
    frontier: dict[StateId, int] = {start: 1}
    yield frontier
    for _ in range(n_max):
        nxt: dict[StateId, int] = {}
        for s, c in frontier.items():
            for t in step(s):
                nxt[t] = nxt.get(t, 0) + c
        frontier = nxt
        yield frontier


def count_words(graph: ShiftGraph, a: StateId, b: StateId, n_max: int) -> CountTable:
    """Dynamic programming over the lazily explored out-neighborhood of ``a``.

    Exact for every n <= n_max: all intermediate states of such words lie in
    the explored region by construction.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graph.check_state(a)
    graph.check_state(b)
    return CountTable(a, b, [f.get(b, 0) for f in _frontiers(graph.successors, a, n_max)])


def count_periodic(graph: ShiftGraph, a: StateId, n_max: int) -> CountTable:
    """P_n(a): loops of n edges at ``a`` (periodic chains of period n)."""
    return count_words(graph, a, a, n_max)


def count_words_to(graph: ShiftGraph, target: StateId, n_max: int) -> list[dict[StateId, int]]:
    """tables[n][s] = Z_n(s, target), via backward DP over predecessors.

    One pass serves every source state at once; used by the harmonic-function
    constructions which need Z_n(R, a0) for all R in a ball.
    """
    graph.check_state(target)
    return list(_frontiers(graph.predecessors, target, n_max))


def exp_weighted(count: int, n: int, h: float) -> float:
    """exp(-n h) * count with exact integer input, safe for huge counts."""
    if count == 0:
        return 0.0
    if count.bit_length() > _BIG_FLOAT_BITS:
        return math.exp(math.log(count) - n * h)
    return float(count) * math.exp(-n * h)


class NeumaierSum:
    """Compensated accumulator; deterministic for a fixed addition order."""

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> float:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t
        return self.value

    @property
    def value(self) -> float:
        return self._s + self._c


def weighted_loop_sum(graph: ShiftGraph, a: StateId, h: float, n_max: int) -> WeightedSumTrace:
    """Partial sums of the entropy-discounted loop series at ``a``."""
    if h <= 0:
        raise ValueError("h must be positive")
    acc = NeumaierSum()
    terms: list[float] = []
    partial: list[float] = []
    for n, z in enumerate(count_periodic(graph, a, n_max).counts):
        t = exp_weighted(z, n, h)
        terms.append(t)
        partial.append(acc.add(t))
    return WeightedSumTrace(h=h, partial_sums=partial, terms=terms)
