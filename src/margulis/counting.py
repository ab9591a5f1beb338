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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    ``a`` when ``frontier`` is ``{a: 1}`` (states with no walk are absent).
    ``step`` runs once per distinct state; the call keeps its results."""
    steps: dict[StateId, Sequence[StateId]] = {}
    yield frontier
    for _ in range(n_max):
        nxt: dict[StateId, int] = {}
        for s, c in frontier.items():
            out = steps.get(s)
            if out is None:
                out = steps[s] = step(s)
            for t in out:
                if t in nxt:
                    nxt[t] += c
                else:
                    nxt[t] = c
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
    predecessors (looked up once per state each time the memo grows).

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
    return _discounted(count, n, h, math.exp(-n * h)) if count else 0.0


def _discounted(count: int, n: int, h: float, discount: float) -> float:
    """:func:`exp_weighted` of a nonzero ``count``, given ``discount`` =
    exp(-n h) by a caller that weighs many counts of one length."""
    if count.bit_length() > _BIG_FLOAT_BITS:
        return math.exp(math.log(count) - n * h)
    return float(count) * discount


class NeumaierSum:
    """Compensated accumulator, started from ``xs`` added in order;
    deterministic for a fixed addition order."""

    def __init__(self, xs: Iterable[float] = ()) -> None:
        self._s = 0.0
        self._c = 0.0
        self._extend(xs)

    def add(self, x: float) -> float:
        return self._extend((x,))[-1]

    def _extend(self, xs: Iterable[float]) -> list[float]:
        """Add each of ``xs`` in order; the value after each."""
        s, c = self._s, self._c
        values = []
        for x in xs:
            t = s + x
            if abs(s) >= abs(x):
                c += (s - t) + x
            else:
                c += (x - t) + s
            s = t
            values.append(s + c)
        self._s, self._c = s, c
        return values

    @property
    def value(self) -> float:
        return self._s + self._c


def weighted_loop_sum(graph: ShiftGraph, a: StateId, h: float, n_max: int) -> WeightedSumTrace:
    """Partial sums of the entropy-discounted loop series at ``a``."""
    if h <= 0:
        raise ValueError("h must be positive")
    terms = [exp_weighted(z, n, h) for n, z in enumerate(count_periodic(graph, a, n_max).counts)]
    return WeightedSumTrace(h=h, partial_sums=NeumaierSum()._extend(terms), terms=terms)
