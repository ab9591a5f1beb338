"""Exact combinatorics of admissible words and loops.

Counts are indexed by EDGE COUNT throughout: a word with n edges has n+1
symbols, and the empty word at a state counts once (Z_0(a,a) = 1).  Counts are
Python integers, so they never overflow; weighted sums convert each exact
integer term to a float and accumulate with a compensated (Neumaier) running
sum so classifier verdicts never hinge on rounding.

Walks from one state (``count_words``, and the walks of ``measures``) run
forward through ``_frontiers`` with no memo.  Walks into one target from
every state at once (``counts_into``: loop counts, and the Sarig solver's
Z_n(R, a)) run backward, built once per horizon and memoized on the graph
per target, with counts only for the target and one state of each set of
states whose out-degree is not one and whose successors are equal (see
``_IntoMemo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    Read off the target's row of :func:`counts_into`, whose memo on the graph
    lets entropy, recurrence and the Sarig solver share one DP into ``a``.
    """
    return CountTable(a, a, counts_into(graph, a, n_max).row(a))


class CountsInto:
    """Z_m(s, target) for every state s and m = 0..n_max, read off the
    graph's backward memo for ``target`` (see :func:`counts_into`)."""

    def __init__(self, memo: _IntoMemo, n_max: int) -> None:
        self._memo = memo
        self.n_max = n_max

    def locate(self, s: StateId) -> tuple[StateId, int]:
        """(anchor, offset) with Z_m(s, target) = Z_{m-offset}(anchor, target)
        for every m <= n_max (zero for m < offset).  A twin (a state the
        memo lumps with an earlier one of equal successors) has that state
        as anchor at offset 0.  An out-degree-one state whose successor
        chain reaches the first state of out-degree other than one (or the
        target) within n_max edges has that state's anchor as anchor, at
        the chain's length.  Every other state is its own anchor at offset
        0."""
        found = self._memo.alias.get(s)
        return found if found is not None and found[1] <= self.n_max else (s, 0)

    def row(self, s: StateId) -> list[int]:
        """[Z_0(s, target), ..., Z_n_max(s, target)], the caller's own list."""
        anchor, offset = self.locate(s)
        return [0] * offset + [t.get(anchor, 0) for t in self._memo.tables[:self.n_max + 1 - offset]]


def counts_into(graph: ShiftGraph, target: StateId, n_max: int) -> CountsInto:
    """Walks of n <= n_max edges into ``target`` from every state at once,
    read off the graph's backward memo for ``target`` (see :class:`_IntoMemo`).
    Under the graph's lock, a horizon longer than the stored memo's builds a
    new memo that replaces it; a shorter one reads the stored memo."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graph.check_state(target)
    with graph._lock:
        memo = graph._into_memo.get(target)
        if memo is None or len(memo.tables) <= n_max:
            memo = graph._into_memo[target] = _IntoMemo(graph, target, n_max)
    return CountsInto(memo, n_max)


class _IntoMemo:
    """One target's backward walk counts up to the horizon len(tables) - 1,
    built in one pass and never changed afterwards.

    The DP keeps counts only for the target and the representatives:
    ``tables[m]`` maps each of them with a walk of m edges into the target
    to Z_m(state, target).  The states other than the target whose
    out-degree is not one fall into classes by their successor tuple, and
    equal successors give equal counts: the first state of a class that
    the DP meets represents it, and each later one (a twin) is an alias of
    it at offset 0.  An out-degree-one state is an alias of the
    representative of the class its successor chain reaches first, at the
    length of that chain.  ``alias`` maps every alias to its (anchor,
    offset).  Each kept state pushes its count at length m to every kept
    state that precedes a member of its class, at length m + delay, the
    delay being the length of the alias chain between them plus one
    (delay-1 pushes go straight into the next table); a state preceding
    two members receives the count twice.  Every state with successor
    tuple T precedes each state of T, so the predecessor scan that first
    meets a class meets all of it, before its representative is pushed to.
    Alias chains are walked back no further than the horizon, so an
    infinite out-degree-one chain ends.
    """

    def __init__(self, graph: ShiftGraph, target: StateId, n_max: int) -> None:
        self.target = target
        self.alias: dict[StateId, tuple[StateId, int]] = {}
        # per kept state met: the kept states preceding its class at delay 1,
        # and those at delay >= 2 as (state, delay) pairs in increasing delay
        near_of: dict[StateId, tuple[StateId, ...]] = {}
        far_of: dict[StateId, tuple[tuple[StateId, int], ...]] = {}
        # per successor tuple met, its representative; per representative, its twins
        reps: dict[tuple[StateId, ...], StateId] = {}
        twins: dict[StateId, list[StateId]] = {}
        later: dict[int, dict[StateId, int]] = {}  # delayed pushes by length
        self.tables = tables = [{target: 1}]
        frontier = tables[0]
        for m in range(n_max):
            nxt = later.pop(m + 1, None) or {}
            for s, c in frontier.items():
                near = near_of.get(s)
                if near is None:
                    near = near_of[s] = self._pushes(graph, s, n_max, far_of, reps, twins)
                for t in near:
                    if t in nxt:
                        nxt[t] += c
                    else:
                        nxt[t] = c
            if far_of:
                for s, c in frontier.items():
                    for t, d in far_of.get(s, ()):
                        if m + d > n_max:
                            break
                        bucket = later.setdefault(m + d, {})
                        bucket[t] = bucket.get(t, 0) + c
            tables.append(nxt)
            frontier = nxt

    def _pushes(self, graph: ShiftGraph, e: StateId, n_max: int, far_of: dict,
                reps: dict, twins: dict) -> tuple[StateId, ...]:
        """Walk back from ``e`` and its twins along their alias chains to
        offset ``n_max``: record the aliases met, put the kept states met
        at delay >= 2 in ``far_of[e]``, and return those at delay 1."""
        target, alias, succ, pred = self.target, self.alias, graph.successors, graph.predecessors

        def pushed_to(p: StateId, out: tuple[StateId, ...]) -> bool:
            """Whether ``p``, the target or a state whose successors ``out``
            are not one, is pushed to: the target and a representative are,
            and a twin is not (the first time it is met, it is recorded as
            an alias of its representative)."""
            if p == target:
                return True
            rep = reps.setdefault(out, p)
            if rep == p:
                return True
            if p not in alias:
                alias[p] = (rep, 0)
                twins.setdefault(rep, []).append(p)
            return False

        level, near = [], []
        for x in (e, *twins.get(e, ())):
            for p in pred(x):
                out = succ(p)
                if len(out) == 1 and p != target:
                    alias[p] = (e, 1)
                    level.append(p)
                elif pushed_to(p, out):
                    near.append(p)
        found, k = [], 1
        while level and k < n_max:
            k += 1
            nxt = []
            for s in level:
                for p in pred(s):
                    out = succ(p)
                    if len(out) == 1 and p != target:
                        alias[p] = (e, k)
                        nxt.append(p)
                    elif pushed_to(p, out):
                        found.append((p, k))
            level = nxt
        if found:
            far_of[e] = tuple(found)
        return tuple(near)


def _positive_finite(name: str, value: float) -> None:
    """ValueError naming ``name`` unless 0 < value < inf (NaN fails both)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite; {name} = {value}")


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
    _positive_finite("h", h)
    terms = [exp_weighted(z, n, h) for n, z in enumerate(count_periodic(graph, a, n_max).counts)]
    return WeightedSumTrace(h=h, partial_sums=NeumaierSum()._extend(terms), terms=terms)
