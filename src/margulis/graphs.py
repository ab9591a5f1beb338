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
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

StateId = str

_PATH_CAP = 256  # longest connecting path searched on generated graphs
# Most states one graph admits; ShiftGraph._admit raises ValueError past it.
# A walk holds ~0.45 KB a state (tracemalloc over a 40,002-state ladder ball),
# so a graph stays near 45 MB.  The suite's largest graph, renewal, has 2,017
# states, and the ladder at counting._MAX_HORIZON admits 8,001 (count_words at
# n = 4000).  An unbounded ladder ball reaches the budget in 0.34-0.44 s, and
# `margulis shift ball` on it exits 2 at ~75 MB peak RSS.
_STATE_BUDGET = 100_000


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
    passes its state set's).  Explored neighborhoods are memoized without a
    lock: the neighbour functions are pure, so two threads that fill one
    state build equal tuples and the first one stored is kept, and the memos
    and ``_checked`` are only ever added to, so concurrent callers see
    bitwise-identical results.  Within one thread each state is checked
    once per graph (a state that passes joins ``_checked``; two racing
    threads may both check it); a non-state fails every time.  A graph
    admits at most ``_STATE_BUDGET`` states.
    ``_into_memo`` holds, per target, the backward walk counts of
    ``counting.counts_into``: a whole row for the anchor of the target and
    of each state a caller declared, and each other state it meets as an
    (anchor, offset) alias of the target or of one state of a set of states
    of out-degree other than one with equal successors.  Each is built once
    for one horizon and one declared set and never changed; a call it cannot
    prove exact builds a new one and replaces it.  ``_lock`` guards that
    replacement and nothing else.
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
        self._lock = threading.Lock()  # counts_into's memo replacement; nothing re-enters it

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
        entry is a state.  A racing fill of ``s`` built an equal tuple; the
        one stored first is returned."""
        checked = self._checked
        if s not in checked:
            self._admit(s)
        out = tuple(fn(s))
        for t in out:
            if t not in checked:
                self._admit(t)
        return memo.setdefault(s, out)

    def _admit(self, s: StateId) -> None:
        """Add ``s`` to ``_checked``; KeyError if it is no state, ValueError
        once the graph holds ``_STATE_BUDGET`` states."""
        if not self._contains_fn(s):
            raise KeyError(f"unknown state {s!r}")
        checked = self._checked
        if len(checked) >= _STATE_BUDGET:
            raise ValueError(f"{self!r} exceeds its state budget of {_STATE_BUDGET} "
                             f"states at {s!r}")
        checked.add(s)

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
    region = sorted(set(graph.states) if graph.is_finite else
                    {s for walk in (fwd, bwd) for s, k in walk.items() if k <= radius})
    max_out = max_in = 0
    for s in region:
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

    witness = next((s for s in region
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


def _keyed_graph(base: Hashable, fmt: Callable[[Hashable], StateId],
                 parse: Callable[[StateId], Optional[Hashable]],
                 valid: Callable[[Hashable], bool],
                 succ: Callable[[Hashable], Iterable[Hashable]],
                 pred: Callable[[Hashable], Iterable[Hashable]],
                 *, degree_bound: int, name: str) -> ShiftGraph:
    """A generated graph whose states are the keys ``valid`` accepts, the
    state of key k labelled ``fmt(k)``; ``succ`` and ``pred`` map a state's
    key to its neighbours' keys, and ``fmt`` is one-to-one.

    One ``label -> key`` dict serves every label: a label is recorded with
    its key as it is formatted, so admitting a neighbour costs one format,
    one ``valid`` call and one dict store and parses nothing.  Its inverse
    is fmt's memo, so a neighbour met again (each is met as a successor and
    as a predecessor) is not formatted again.  Any other label (from a
    file, the command line or a caller) is parsed once and names a state
    only if it is canonical, ``fmt(parse(s)) == s``, so "l(03,1)" or
    "(+1,1)" is no state.  ``valid`` runs on the key of every label before
    it is admitted, found in the dict or not, so a neighbour key that a
    generator bug makes up is no state.
    """
    keys: dict[StateId, Hashable] = {}
    labels: dict[Hashable, StateId] = {}  # the inverse of keys

    def contains(s: StateId) -> bool:
        key = keys.get(s)
        if key is None:
            key = parse(s)
            if key is None or not valid(key) or fmt(key) != s:
                return False
            keys[s] = key
            labels[key] = s
            return True
        return valid(key)

    def neighbours(step: Callable[[Hashable], Iterable[Hashable]]
                   ) -> Callable[[StateId], list[StateId]]:
        def labelled(s: StateId) -> list[StateId]:
            out = []
            for key in step(keys[s]):
                t = labels.get(key)
                if t is None:
                    t = labels[key] = fmt(key)
                    keys[t] = key
                out.append(t)
            return out
        return labelled

    return ShiftGraph(fmt(base), neighbours(succ), neighbours(pred),
                      degree_bound=degree_bound, contains_fn=contains, name=name)


def _parse_pair(s: StateId, prefix: str) -> Optional[tuple[int, int]]:
    """The integers (i, j) of a label ``f"{prefix}{i},{j})"``, in any form
    ``int`` reads; None for a label of another shape."""
    if not (s.startswith(prefix) and s.endswith(")")):
        return None
    try:
        i, j = s[len(prefix):-1].split(",")
        return int(i), int(j)
    except ValueError:
        return None


def _renewal_graph(max_len: int = 64) -> ShiftGraph:
    """Loops of every length 1..max_len at a base state ``b``.

    The length-n loop (n >= 2) passes through fresh states l(n,1)..l(n,n-1).
    ``max_len`` truncates the loop family; every count of words with at most
    ``max_len`` edges agrees exactly with the untruncated graph.  It is at
    most ``_PATH_CAP + 1``, so every state reaches ``b`` within the
    ``_PATH_CAP`` edges that ``validate_graph`` searches.  The key of
    l(n,k) is (n, k) and that of ``b`` is (0, 0).
    """
    if not 2 <= max_len <= _PATH_CAP + 1:
        raise ValueError(f"renewal needs 2 <= max_len <= {_PATH_CAP + 1}; got {max_len}")
    b = (0, 0)
    loop_starts = (b, *((n, 1) for n in range(2, max_len + 1)))
    loop_ends = (b, *((n, n - 1) for n in range(2, max_len + 1)))

    def fmt(key: tuple[int, int]) -> StateId:
        return "b" if key == b else f"l({key[0]},{key[1]})"

    def valid(key: tuple[int, int]) -> bool:
        n, k = key
        return 2 <= n <= max_len and 1 <= k < n or key == b

    def succ(key: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        if key == b:
            return loop_starts
        n, k = key
        return ((n, k + 1),) if k < n - 1 else (b,)

    def pred(key: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        if key == b:
            return loop_ends
        n, k = key
        return ((n, k - 1),) if k > 1 else (b,)

    return _keyed_graph(b, fmt, lambda s: b if s == "b" else _parse_pair(s, "l("),
                        valid, succ, pred, degree_bound=max_len, name="renewal")


def _ladder_graph() -> ShiftGraph:
    """Two-colored half-line: up moves choose a color, down moves are forced.

    States (n,c) with n >= 0 and c in {1,2}; edges (n,c)->(n+1,1),
    (n,c)->(n+1,2), and (n,c)->(n-1,1) for n >= 1.  The key of (n,c) is
    the pair (n, c).
    """

    def succ(key: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        n = key[0]
        up = ((n + 1, 1), (n + 1, 2))
        return (*up, (n - 1, 1)) if n else up

    def pred(key: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        n, c = key
        out = ((n - 1, 1), (n - 1, 2)) if n else ()
        return (*out, (n + 1, 1), (n + 1, 2)) if c == 1 else out

    return _keyed_graph((0, 1), lambda key: f"({key[0]},{key[1]})",
                        lambda s: _parse_pair(s, "("),
                        lambda key: key[0] >= 0 and key[1] in (1, 2),
                        succ, pred, degree_bound=4, name="ladder")


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
