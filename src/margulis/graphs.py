"""Topological Markov shifts presented as directed graphs.

A shift is represented by its transition graph: finitely many states with an
explicit edge list, or a countable graph given by pure successor/predecessor
functions explored lazily.  All global quantities downstream (word counts,
entropy, harmonic functions) are computed on finite balls of these graphs,
which is exact for any fixed word length.

State labels are plain strings; generated graphs use canonical labels such as
``l(3,2)`` so that reports are stable across runs.
"""

from __future__ import annotations

import json
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

StateId = str

_PATH_CAP = 256  # longest connecting path searched on generated graphs


class StructuralViolation(Exception):
    """A structural hypothesis (degree bound, Markov property, ...) failed."""


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

class ShiftGraph:
    """Immutable directed graph of a topological Markov shift.

    Finite graphs carry their state list; generated graphs have none and are
    explored through their successor/predecessor functions.  Every graph
    decides which labels are states by its ``contains_fn`` (a finite graph
    passes its state set's).  Explored neighborhoods are memoized under a
    lock so concurrent callers see bitwise-identical results.  Each state
    is checked once per graph (a state that passes joins ``_checked``); a
    non-state fails every time.
    ``_into_memo`` holds, per target, the backward walk counts of
    ``counting.counts_into``: a whole row for the anchor of the target and
    of each state a caller declared, and each other state it meets as an
    (anchor, offset) alias of the target or of one state of a set of states
    of out-degree other than one with equal successors.  Each is built once
    for one horizon and one declared set and never changed; a call it cannot
    prove exact builds a new one under the same lock and replaces it.
    """

    def __init__(
        self,
        base: StateId,
        successors_fn: Callable[[StateId], Sequence[StateId]],
        predecessors_fn: Callable[[StateId], Sequence[StateId]],
        states: Optional[Sequence[StateId]] = None,
        degree_bound: Optional[int] = None,
        *,
        contains_fn: Callable[[StateId], bool],
        name: str = "",
    ):
        self.base = base
        self.name = name
        self.degree_bound = degree_bound
        self._succ_fn = successors_fn
        self._pred_fn = predecessors_fn
        self._contains_fn = contains_fn
        self._states = tuple(states) if states is not None else None
        self._succ_memo: dict[StateId, tuple[StateId, ...]] = {}
        self._pred_memo: dict[StateId, tuple[StateId, ...]] = {}
        self._into_memo: dict = {}  # target -> counting._IntoMemo
        self._checked: set[StateId] = set()
        self._lock = threading.RLock()  # counts_into holds it while _fill takes it

    # -- basic queries ------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._states is not None

    @property
    def states(self) -> tuple[StateId, ...]:
        if self._states is None:
            raise ValueError("generated graph has no finite state list")
        return self._states

    def contains(self, s: StateId) -> bool:
        return self._contains_fn(s)

    def check_state(self, s: StateId) -> StateId:
        if s not in self._checked:
            with self._lock:
                self._admit(s)
        return s

    def successors(self, s: StateId) -> tuple[StateId, ...]:
        out = self._succ_memo.get(s)
        return self._fill(self._succ_memo, self._succ_fn, s) if out is None else out

    def predecessors(self, s: StateId) -> tuple[StateId, ...]:
        out = self._pred_memo.get(s)
        return self._fill(self._pred_memo, self._pred_fn, s) if out is None else out

    def _fill(self, memo: dict, fn: Callable, s: StateId) -> tuple[StateId, ...]:
        """Memoize ``fn(s)``.  ``s`` is checked before ``fn`` sees it and every
        state ``fn`` returns before the memo keeps it, so every memo key and
        entry is a state."""
        checked = self._checked
        with self._lock:
            out = memo.get(s)
            if out is None:
                if s not in checked:
                    self._admit(s)
                out = tuple(fn(s))
                for t in out:
                    if t not in checked:
                        self._admit(t)
                memo[s] = out
        return out

    def _admit(self, s: StateId) -> None:
        """Add ``s`` to ``_checked``, or raise KeyError if it is no state;
        the caller holds the lock."""
        if not self.contains(s):
            raise KeyError(f"unknown state {s!r}")
        self._checked.add(s)

    def has_edge(self, a: StateId, b: StateId) -> bool:
        return b in self.successors(a)

    def __repr__(self) -> str:
        if self.is_finite:
            return f"ShiftGraph(finite, {len(self.states)} states)"
        return f"ShiftGraph(generated {self.name!r}, base={self.base!r})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def is_admissible(graph: ShiftGraph, symbols: Sequence[StateId]) -> bool:
    """True iff every consecutive pair of symbols is an edge."""
    if not symbols:
        raise ValueError("empty symbol list")
    for s in symbols:
        graph.check_state(s)
    return all(graph.has_edge(a, b) for a, b in zip(symbols, symbols[1:]))


def ball(graph: ShiftGraph, center: StateId, radius: int) -> frozenset[StateId]:
    """States reachable from or reaching ``center`` within ``radius`` edges.

    Monotone in ``radius`` and deterministic; exact on generated graphs.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    graph.check_state(center)
    return frozenset(_reachable(graph, (center,), radius, forward=True).keys()
                     | _reachable(graph, (center,), radius, forward=False).keys())


@dataclass
class GraphReport:
    max_out_degree: int
    max_in_degree: int
    transitive_on_ball: bool
    explored: int
    witness: Optional[StateId] = None


def validate_graph(graph: ShiftGraph, radius: int = 0) -> GraphReport:
    """Degree and transitivity check, exact on the explored region.

    Finite graphs are checked in full (a ``radius`` >= 0 is ignored).  On
    generated graphs the region is ``ball(base, radius)``, read off the two
    walks from the base that also decide transitivity.  Transitivity
    means every region state reaches and is reached from the base; on
    generated graphs the connecting paths may leave the ball and are searched
    within ``_PATH_CAP`` edges.  The witness is the first region state that
    fails.  A declared degree bound that is violated raises
    :class:`StructuralViolation` naming the offending state; so does an
    edge at a region state that its successors and predecessors disagree
    on, naming the edge.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = len(graph.states) if graph.is_finite else _PATH_CAP
    # a radius past the cap walks on to hold the whole ball; index() rejects
    # a radius that is no integer, for which no level would be in the region
    levels = cap if graph.is_finite else max(cap, operator.index(radius))
    fwd, bwd = (_reachable(graph, (graph.base,), levels, forward) for forward in (True, False))
    if graph.is_finite:
        region = frozenset(graph.states)
    else:
        region = frozenset(s for walk in (fwd, bwd) for s, k in walk.items() if k <= radius)
    max_out = max_in = 0
    for s in sorted(region):
        out, into = graph.successors(s), graph.predecessors(s)
        od, idg = len(out), len(into)
        if graph.degree_bound is not None and max(od, idg) > graph.degree_bound:
            raise StructuralViolation(
                f"state {s!r} has degree {max(od, idg)} > bound {graph.degree_bound}"
            )
        for t in out:
            if s not in graph.predecessors(t):
                raise StructuralViolation(f"edge {s!r} -> {t!r}: {s!r} lists {t!r} as a "
                                          f"successor, but {t!r} lacks {s!r} as a predecessor")
        for t in into:
            if s not in graph.successors(t):
                raise StructuralViolation(f"edge {t!r} -> {s!r}: {s!r} lists {t!r} as a "
                                          f"predecessor, but {t!r} lacks {s!r} as a successor")
        max_out = max(max_out, od)
        max_in = max(max_in, idg)

    witness = next((s for s in sorted(region)
                    if fwd.get(s, cap + 1) > cap or bwd.get(s, cap + 1) > cap), None)
    return GraphReport(max_out, max_in, witness is None, len(region), witness)


def _reachable(graph: ShiftGraph, starts: Iterable[StateId], cap: int,
               forward: bool) -> dict[StateId, int]:
    """Each state reached from (``forward``) or reaching a state of
    ``starts`` within ``cap`` edges, with its level: the fewest edges that
    reach it from (or take it to) the nearest start.  Breadth-first; stops
    early once a level adds no new state."""
    step = graph.successors if forward else graph.predecessors
    level = dict.fromkeys(starts, 0)
    frontier = list(level)
    for k in range(1, cap + 1):
        nxt = []
        for s in frontier:
            for t in step(s):
                if t not in level:
                    level[t] = k
                    nxt.append(t)
        if not nxt:
            break
        frontier = nxt
    return level


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_finite_graph(states: Sequence[StateId], edges: Iterable[tuple[StateId, StateId]],
                       base: Optional[StateId] = None, name: str = "") -> ShiftGraph:
    states = [str(s) for s in states]
    if len(set(states)) != len(states):
        raise ValueError("duplicate state labels")
    state_set = set(states)
    succ: dict[StateId, list[StateId]] = {s: [] for s in states}
    pred: dict[StateId, list[StateId]] = {s: [] for s in states}
    for a, b in edges:
        a, b = str(a), str(b)
        if a not in state_set or b not in state_set:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown state")
        if b not in succ[a]:
            succ[a].append(b)
            pred[b].append(a)
    if not states:
        raise ValueError("finite graph needs at least one state")
    base = str(base) if base is not None else states[0]
    if base not in state_set:
        raise ValueError(f"base {base!r} is an unknown state")
    bound = max(max(len(v) for v in succ.values()), max(len(v) for v in pred.values()))
    return ShiftGraph(
        base=base,
        successors_fn=lambda s: succ[s],
        predecessors_fn=lambda s: pred[s],
        states=states,
        degree_bound=bound,
        contains_fn=state_set.__contains__,
        name=name,
    )


def _pair(s: StateId, prefix: str) -> tuple[int, int]:
    """The integers (i, j) of a label written exactly ``f"{prefix}{i},{j})"``,
    or (-1, -1) for any other string: a label with a sign, a space or a
    leading zero is not the canonical form of a state, so it names none."""
    try:
        a, b = s[len(prefix):-1].split(",")
        i, j = int(a), int(b)
    except ValueError:
        return -1, -1
    return (i, j) if s == f"{prefix}{i},{j})" else (-1, -1)


def _renewal_graph(max_len: int = 64) -> ShiftGraph:
    """Loops of every length 1..max_len at a base state ``b``.

    The length-n loop (n >= 2) passes through fresh states l(n,1)..l(n,n-1).
    ``max_len`` truncates the loop family; every count of words with at most
    ``max_len`` edges agrees exactly with the untruncated graph.  It is at
    most ``_PATH_CAP + 1``, so every state reaches ``b`` within the
    ``_PATH_CAP`` edges that ``validate_graph`` searches.
    """
    if not 2 <= max_len <= _PATH_CAP + 1:
        raise ValueError(f"renewal needs 2 <= max_len <= {_PATH_CAP + 1}; got {max_len}")

    # (n, k) of each label contains accepted; ShiftGraph checks a state
    # before it asks for its neighbours, so succ and pred find it here
    loops: dict[StateId, tuple[int, int]] = {}

    def contains(s: StateId) -> bool:
        if s == "b":
            return True
        n, k = _pair(s, "l(")
        if 2 <= n <= max_len and 1 <= k < n:
            loops[s] = (n, k)
            return True
        return False

    def succ(s: StateId) -> tuple[StateId, ...]:
        if s == "b":
            return ("b", *(f"l({n},1)" for n in range(2, max_len + 1)))
        n, k = loops[s]
        return (f"l({n},{k + 1})",) if k < n - 1 else ("b",)

    def pred(s: StateId) -> tuple[StateId, ...]:
        if s == "b":
            return ("b", *(f"l({n},{n - 1})" for n in range(2, max_len + 1)))
        n, k = loops[s]
        return (f"l({n},{k - 1})",) if k > 1 else ("b",)

    return ShiftGraph("b", succ, pred, degree_bound=max_len,
                      contains_fn=contains, name="renewal")


def _ladder_graph() -> ShiftGraph:
    """Two-colored half-line: up moves choose a color, down moves are forced.

    States (n,c) with n >= 0 and c in {1,2}; edges (n,c)->(n+1,1),
    (n,c)->(n+1,2), and (n,c)->(n-1,1) for n >= 1.
    """

    rungs: dict[StateId, tuple[int, int]] = {}  # (n, c) of each label contains accepted

    def contains(s: StateId) -> bool:
        n, c = _pair(s, "(")
        if n >= 0 and c in (1, 2):
            rungs[s] = (n, c)
            return True
        return False

    def succ(s: StateId) -> tuple[StateId, ...]:
        n, _ = rungs[s]
        up = (f"({n + 1},1)", f"({n + 1},2)")
        return (*up, f"({n - 1},1)") if n >= 1 else up

    def pred(s: StateId) -> tuple[StateId, ...]:
        n, c = rungs[s]
        out = (f"({n - 1},1)", f"({n - 1},2)") if n >= 1 else ()
        return (*out, f"({n + 1},1)", f"({n + 1},2)") if c == 1 else out

    return ShiftGraph("(0,1)", succ, pred, degree_bound=4,
                      contains_fn=contains, name="ladder")


def _full_graph(symbols: int = 2) -> ShiftGraph:
    if symbols < 1:
        raise ValueError("full shift needs >= 1 symbol")
    states = [str(i) for i in range(symbols)]
    return build_finite_graph(states, [(a, b) for a in states for b in states],
                              name=f"full-{symbols}")


GENERATORS: Mapping[str, Callable[..., ShiftGraph]] = {
    "renewal": _renewal_graph,
    "ladder": _ladder_graph,
    "full": _full_graph,
}


def build_graph(spec: Mapping) -> ShiftGraph:
    """Build a graph from a parsed description (see the graph file format);
    raises ValueError for a malformed one."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"malformed graph: expected a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "finite":
            return build_finite_graph(
                spec["states"],
                [tuple(e) for e in spec["edges"]],
                base=spec.get("base"),
            )
        if kind == "generator":
            name = spec.get("name")
            if name not in GENERATORS:
                raise ValueError(f"unknown generator name {name!r}")
            params = dict(spec.get("params", {}))
            return GENERATORS[name](**params)
    except KeyError as exc:
        raise ValueError(f'malformed graph: lacks "{exc.args[0]}"') from None
    except TypeError as exc:
        raise ValueError(f"malformed graph: {exc}") from None
    raise ValueError(f"unknown graph kind {kind!r}")


def load_graph(path: str) -> ShiftGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return build_graph(json.load(fh))
