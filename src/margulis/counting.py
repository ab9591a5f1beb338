"""Exact combinatorics of admissible words and loops.

Counts are indexed by EDGE COUNT throughout: a word with n edges has n+1
symbols, and the empty word at a state counts once (Z_0(a,a) = 1).  Counts are
Python integers, so they never overflow; weighted sums convert each exact
integer term to a float and accumulate with a compensated (Neumaier) running
sum so classifier verdicts never hinge on rounding.

Walks from one state (``count_words``, and the walks of ``measures``) run
forward through ``_frontiers`` with no memo.  Walks into one target
(``counts_into``: loop counts, and the Sarig solver's Z_n(R, a)) run
backward and are memoized on the graph per target.  That DP counts only
for the target and one state of each set of states whose out-degree is not
one and whose successors are equal, keeps whole rows only for the states
its callers declare, and drops a state once no declared row can read it
(see ``_IntoMemo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graphs import ShiftGraph, StateId, _reachable

_BIG_FLOAT_BITS = 900  # convert via exp(log) above this to avoid float overflow
# the longest horizon a count takes.  At 4000 (tracemalloc peak; untraced time on a
# 2-core Xeon) the ladder's backward memo for its base takes 6.9 MB and 1.1 s, full-2's
# 1.3 MB and 0.003 s, and the ladder's forward count_words, which drops nothing, 11 MB
# and 6-8 s, so time, not memory, bounds it
_MAX_HORIZON = 4000


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


def _check_horizon(n_max: int) -> None:
    """ValueError unless 0 <= n_max <= ``_MAX_HORIZON``, before a count allocates."""
    if not 0 <= n_max <= _MAX_HORIZON:
        raise ValueError(f"n_max must be >= 0 and <= {_MAX_HORIZON}; n_max = {n_max}")


def count_words(graph: ShiftGraph, a: StateId, b: StateId, n_max: int) -> CountTable:
    """Dynamic programming over the lazily explored out-neighborhood of ``a``.

    Exact for every n <= n_max: all intermediate states of such words lie in
    the explored region by construction.  Not memoized, so per-pair calls on
    a long-lived graph leave nothing behind on it.
    """
    _check_horizon(n_max)
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
    """Z_m(s, target) for m = 0..n_max at each declared state s: the target
    and the ``rows`` passed to :func:`counts_into`, read off the graph's
    backward memo for ``target``."""

    def __init__(self, memo: _IntoMemo, n_max: int, declared: frozenset[StateId]) -> None:
        self._memo = memo
        self.n_max = n_max
        self.declared = declared

    def locate(self, s: StateId) -> tuple[StateId, int]:
        """(anchor, offset) with Z_m(s, target) = Z_{m-offset}(anchor, target)
        for every m <= n_max (zero for m < offset), for any state ``s``.  A
        twin (a state the memo lumps with an earlier one of equal
        successors) has that state as anchor at offset 0.  An out-degree-one
        state whose successor chain reaches the first state of out-degree
        other than one (or the target) within n_max edges, and which the
        memo met, has that state's anchor as anchor, at the chain's length.
        Every other state is its own anchor at offset 0."""
        found = self._memo.alias.get(s)
        return found if found is not None and found[1] <= self.n_max else (s, 0)

    def row(self, s: StateId) -> list[int]:
        """[Z_0(s, target), ..., Z_n_max(s, target)], the caller's own list;
        ValueError naming ``s`` unless it was declared."""
        if s not in self.declared:
            raise ValueError(f"row of {s!r} was not declared: pass it in counts_into's rows")
        anchor, offset = self.locate(s)
        row = self._memo.rows.get(anchor, [])[:self.n_max + 1 - offset]
        return [0] * offset + row + [0] * (self.n_max + 1 - offset - len(row))


def counts_into(graph: ShiftGraph, target: StateId, n_max: int,
                rows: Iterable[StateId] = ()) -> CountsInto:
    """Walks of n <= n_max edges into ``target``, for the target and each
    state of ``rows`` (the rows the caller will read), off the graph's
    backward memo for ``target`` (see :class:`_IntoMemo`).  A stored memo
    answers the call when it proves every asked row exact to n_max;
    otherwise a new memo, for the longer of the two horizons and the union
    of the two declared sets, replaces it.  The graph's lock guards that
    look-up and replacement and nothing else: the walks the build makes
    fill the graph's neighbour memos without it, and nothing under it takes
    it again, so it is a plain lock."""
    _check_horizon(n_max)
    graph.check_state(target)
    declared = frozenset([target, *map(graph.check_state, rows)])
    with graph._lock:
        memo = graph._into_memo.get(target)
        if memo is None:
            memo = graph._into_memo[target] = _IntoMemo(graph, target, n_max, declared)
        elif not memo.answers(declared, n_max):
            memo = graph._into_memo[target] = _IntoMemo(
                graph, target, max(n_max, memo.n_max), declared | memo.declared)
    return CountsInto(memo, n_max, declared)


class _IntoMemo:
    """One target's backward walk counts up to the horizon ``n_max``, for
    the ``declared`` states (the target among them), built in one pass and
    never changed afterwards.

    The DP runs over the target and the representatives.  The states other
    than the target whose out-degree is not one fall into classes by their
    successor tuple, and equal successors give equal counts: the first state
    of a class that the DP meets represents it, and each later one (a twin)
    is an alias of it at offset 0.  An out-degree-one state is an alias of
    the representative of the class its successor chain reaches first, at
    the length of that chain.  ``alias`` maps every alias met to its
    (anchor, offset).  Each kept state pushes its count at length m to
    every kept state that precedes a member of its class, at length m +
    delay, the delay being the length of the alias chain between them plus
    one (delay-1 pushes go straight into the next length); a state
    preceding two members receives the count twice.  Every state with
    successor tuple T precedes each state of T, so the predecessor scan that
    first meets a class meets all of it, before its representative is
    pushed to.  A state first met at length m walks its alias chains back
    no further than n_max - m edges, so an infinite out-degree-one chain
    ends, and a longer chain would only reach past the horizon.

    The DP holds one length and the pending delayed pushes.  ``rows`` keeps
    the row of the anchor of each declared state, up to the last length it
    is counted at (a declared state never met, or whose anchor never was,
    has a row of zeros).  It drops a kept state r at length m, counting and
    pushing nothing from it on, once key(r) > n_max - m, where key(r) is
    the least fd(x) over r and its twins, and fd is the level in one
    forward walk from the declared states, taken once a kept state other
    than the target is first met (an alias (e, k) of r reaches r or a twin
    in k edges, so fd(e) + k would not lower the key).  A declared row
    reads r's count at length m only through walks of at most n_max - m
    edges from a declared state to r or to a state r stands for, so only
    when key(r) <= n_max - m; and a push into a kept state that is not
    dropped comes from one that is not either, so every count not dropped
    is exact.  ``met`` holds the kept states met and ``dropped``
    tells whether any was dropped before the last length; :meth:`answers`
    reads both.
    """

    def __init__(self, graph: ShiftGraph, target: StateId, n_max: int,
                 declared: frozenset[StateId]) -> None:
        self.n_max, self.declared = n_max, declared
        self.alias: dict[StateId, tuple[StateId, int]] = {}
        self.rows: dict[StateId, list[int]] = {target: []}
        self.dropped = False
        alias, rows, succ, pred = self.alias, self.rows, graph.successors, graph.predecessors
        # per kept state met: the kept states preceding its class at delay 1
        # (none once it is dropped), and while it is counted, those at delay
        # >= 2 as (state, delay) pairs in increasing delay
        near_of: dict[StateId, tuple[StateId, ...]] = {}
        far_of: dict[StateId, tuple[tuple[StateId, int], ...]] = {}
        # per successor tuple met, its representative; per representative, its twins
        reps: dict[tuple[StateId, ...], StateId] = {}
        twins: dict[StateId, list[StateId]] = {}
        expiry: dict[int, list[StateId]] = {}  # kept states by the length they are dropped at
        live: dict[StateId, list[int]] = {}  # the rows still counted, the target's aside
        target_row = rows[target]
        fd: dict[StateId, int] = {}  # the forward levels, once walked
        later: dict[int, dict[StateId, int]] = {}  # delayed pushes by length

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

        def meet(e: StateId, m: int) -> tuple[StateId, ...]:
            """Plan ``e``, first met at length ``m``: walk back from ``e``
            and its twins along their alias chains to offset n_max - m,
            record the aliases met, file ``e``'s pushes, drop length and
            row, and return its delay-1 pushes."""
            level, found, chain, k = [e, *twins.get(e, ())], [], [], 0
            members = level
            while level and k < n_max - m:
                k += 1
                nxt = []
                for s in level:
                    for p in pred(s):
                        out = succ(p)
                        if len(out) == 1 and p != target:
                            alias[p] = (e, k)
                            chain.append(p)
                            nxt.append(p)
                        elif pushed_to(p, out):
                            found.append((p, k))
                level = nxt
            near = tuple(p for p, d in found if d == 1)
            if len(found) > len(near):
                far_of[e] = tuple(found[len(near):])
            if e != target:
                if not fd:
                    fd.update(_reachable(graph, declared, n_max, forward=True))
                key = min(fd.get(s, math.inf) for s in members)
                if key > n_max - m:
                    drop(e, m)
                    return ()
                if key:
                    expiry.setdefault(n_max - key + 1, []).append(e)
                if not (declared.isdisjoint(members) and declared.isdisjoint(chain)):
                    rows[e] = live[e] = [0] * m
            near_of[e] = near
            return near

        def drop(r: StateId, m: int) -> None:
            """Count ``r`` no more from length ``m`` on."""
            near_of[r] = ()
            far_of.pop(r, None)
            live.pop(r, None)
            self.dropped = self.dropped or m < n_max

        frontier = {target: 1}
        for m in range(n_max + 1):
            if m in expiry:
                for r in expiry.pop(m):
                    drop(r, m)
            nxt = later.pop(m + 1, None) or {}
            for s, c in frontier.items():
                near = near_of.get(s)
                if near is None:
                    near = meet(s, m)
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
            target_row.append(frontier.get(target, 0))
            if live:
                for r, row in live.items():
                    row.append(frontier.get(r, 0))
            frontier = nxt
        for s in declared:
            anchor, offset = alias.get(s, (s, 0))
            if offset <= n_max and anchor not in rows:
                rows[anchor] = [0] * (n_max + 1)
        self.met = frozenset(near_of)

    def answers(self, declared: frozenset[StateId], n_max: int) -> bool:
        """Whether every row of ``declared`` is exact to ``n_max`` here: its
        anchor's kept row reaches n_max, or (for a state with no alias) it
        was never met and nothing was dropped, so its row is zero."""
        if n_max > self.n_max:
            return False
        alias, rows = self.alias, self.rows
        for s in declared:
            anchor, offset = alias.get(s, (s, 0))
            if offset > n_max:
                continue  # its chain is longer than the horizon: a row of zeros
            row = rows.get(anchor)
            if row is None:
                if anchor != s or s in self.met or self.dropped:
                    return False
            elif len(row) + offset <= n_max:
                return False
        return True


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
