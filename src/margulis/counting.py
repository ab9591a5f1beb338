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
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

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


def _frontiers(step: Callable[[StateId], Sequence[StateId]], frontier: Mapping[StateId, int],
               n_max: int) -> Iterator[Mapping[StateId, int]]:
    """For n = 0..n_max, the number of walks along ``step`` ending at each
    state, weighted by ``frontier`` at their start: n-edge walks from a state
    ``a`` when ``frontier`` is ``{a: 1}`` (states with no walk are absent)."""
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
    the explored region by construction.  Not memoized, so per-pair calls on
    a long-lived graph leave nothing behind on it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graph.check_state(a)
    graph.check_state(b)
    return CountTable(a, b, [f.get(b, 0) for f in _frontiers(graph.successors, {a: 1}, n_max)])


def count_periodic(graph: ShiftGraph, a: StateId, n_max: int) -> CountTable:
    """P_n(a): loops of n edges at ``a`` (periodic chains of period n).

    Read off :func:`count_words_to`, whose frontiers are memoized per graph
    and target (O(n_max * frontier size) entries), so entropy, recurrence and
    the Sarig solver on one graph share one DP into ``a``.
    """
    return CountTable(a, a, [t.get(a, 0) for t in count_words_to(graph, a, n_max)])


def count_words_to(graph: ShiftGraph, target: StateId, n_max: int) -> list[Mapping[StateId, int]]:
    """tables[n][s] = Z_n(s, target) for n = 0..n_max, via backward DP over
    predecessors.

    One pass serves every source state at once; used by the harmonic-function
    constructions which need Z_n(R, a0) for all R in a ball, and by
    :func:`count_periodic`.  The frontiers are memoized on the graph per
    target and extended from the last stored one when a longer horizon is
    asked for, so the memo holds O(n_max * frontier size) entries for the
    life of the graph.  The tables are read-only views of the memo.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graph.check_state(target)
    tables = graph._into_memo.get(target, ())
    if len(tables) <= n_max:
        tables = tables or (MappingProxyType({target: 1}),)
        more = _frontiers(graph.predecessors, tables[-1], n_max + 1 - len(tables))
        next(more)  # the stored frontier it starts from
        tables = (*tables, *map(MappingProxyType, more))
        with graph._lock:
            if len(graph._into_memo.get(target, ())) < len(tables):
                graph._into_memo[target] = tables
    return list(tables[:n_max + 1])


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
