"""Conformal cylinder measures built from a harmonic function.

Given a graph, an entropy value h, and a positive harmonic function psi (a
finite table, checked once when the family is built), the measure of the
cylinder with root R and future word (w_1..w_N) is exp(-N h) * psi(w_N).
Because psi depends only on the current symbol, the family is indexed by
(root, future) pairs alone: no mass reads the past.

Harmonicity of psi is exactly Kolmogorov consistency here: the children of a
cylinder sum to their parent, and the verification routines below check that
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .counting import _frontiers, _positive_finite
from .graphs import ShiftGraph, StateId, _reachable, is_admissible


@dataclass(frozen=True)
class ConformalFamily:
    """A graph, an entropy h and a finite psi table, checked once here: h
    and every psi value are positive and finite, and psi covers every state
    of a finite graph.  ``psi`` is kept as a read-only copy."""

    graph: ShiftGraph
    h: float
    psi: Mapping[StateId, float]

    def __post_init__(self):
        _positive_finite("h", self.h)
        for s, v in self.psi.items():
            if not 0 < v < math.inf:
                raise ValueError(f"psi must be positive and finite; psi({s!r}) = {v}")
        if self.graph.is_finite:
            for s in self.graph.states:
                self.psi_of(s)  # raises for a state psi misses
        object.__setattr__(self, "psi", MappingProxyType(dict(self.psi)))

    def psi_of(self, s: StateId) -> float:
        try:
            return self.psi[s]
        except KeyError:
            raise ValueError(f"psi has no value for state {s!r}") from None

    def successors(self, s: StateId) -> list[StateId]:
        """The successors of ``s`` that psi covers: the step of every walk
        the checks take."""
        return [t for t in self.graph.successors(s) if t in self.psi]


def make_family(graph: ShiftGraph, h: float, psi: Mapping[StateId, float]) -> ConformalFamily:
    """Freeze a conformal family; rejects an h or a psi value that is not
    positive and finite and, on a finite graph, a psi that misses a state."""
    return ConformalFamily(graph, h, psi)


def cylinder_measure(family: ConformalFamily, root: StateId,
                     future: Sequence[StateId] = ()) -> float:
    """mu([root; w_1..w_N]) = exp(-N h) psi(w_N); the empty future gives psi(root)."""
    if not is_admissible(family.graph, [root, *future]):
        raise ValueError(f"inadmissible cylinder ({root!r}; {list(future)!r})")
    return _mass(family, len(future), future[-1] if future else root)


def _mass(family: ConformalFamily, n: int, last: StateId) -> float:
    """exp(-n h) psi(last), the mass of an admissible n-edge cylinder ending at
    ``last``; the caller vouches for admissibility."""
    return math.exp(-n * family.h) * family.psi_of(last)


def iter_cylinders(graph: ShiftGraph, root: StateId, depth: int) -> Iterator[tuple[StateId, ...]]:
    """All futures from ``root`` with at most ``depth`` edges (including the
    empty future), depth-first in successor order.  ``root`` is checked and
    successor lists hold only states, so every yielded cylinder is admissible."""
    graph.check_state(root)
    stack: list[tuple[StateId, ...]] = [()]
    while stack:
        fut = stack.pop()
        yield fut
        if len(fut) < depth:
            last = fut[-1] if fut else root
            for s in reversed(graph.successors(last)):
                stack.append(fut + (s,))


@dataclass
class ConsistencyReport:
    """``cylinders_skipped`` counts the cylinders :func:`conformality_check`
    leaves out because psi misses a successor of their last state."""

    max_discrepancy: float
    worst_class: Optional[tuple[int, StateId]]
    cylinders_checked: int
    passed: bool
    cylinders_skipped: int = 0

    def __post_init__(self):
        # a check that saw no cylinder has verified nothing
        self.passed = self.passed and self.cylinders_checked > 0


def conformality_check(family: ConformalFamily, root: StateId, depth: int,
                       tol: float = 1e-12) -> ConsistencyReport:
    """Verify Kolmogorov consistency on every cylinder to ``depth``.

    The children of each cylinder must sum to its mass, mu(c) = sum of mu
    over its one-step refinements; this is exactly harmonicity of psi and
    fails when psi is perturbed.  The reported discrepancy is absolute; the
    check passes when it is below ``tol`` times the root fiber's mass
    psi(root), so the verdict does not depend on the scale of psi; ``tol``
    must be positive and finite.  A class whose last state has a successor
    psi misses cannot be checked: its cylinders are counted as skipped.
    Children are summed with ``math.fsum``, except that a class whose last
    state has one successor reads its one term as the sum: fsum returns a
    single finite term exactly, so no bit moves.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _positive_finite("tol", tol)
    graph, psi, h = family.graph, family.psi, family.h
    graph.check_state(root)
    scale = family.psi_of(root)
    # per state met: psi of each successor, or None when psi misses one
    covered: dict[StateId, Optional[list[float]]] = {}
    worst, worst_class, checked, skipped = 0.0, None, 0, 0
    for n, frontier in enumerate(_frontiers(family.successors, {root: 1}, depth)):
        # the factors of _mass at this level and the next, so each mass keeps its bits
        here, below = math.exp(-n * h), math.exp(-(n + 1) * h)
        for last, count in frontier.items():
            if last not in covered:
                succ = graph.successors(last)
                covered[last] = [psi[s] for s in succ] if all(s in psi for s in succ) else None
            values = covered[last]
            if values is None:
                skipped += count
                continue
            total = below * values[0] if len(values) == 1 else math.fsum(below * v for v in values)
            disc = abs(total - here * psi[last])
            checked += count
            if disc > worst:
                worst, worst_class = disc, (n, last)
    return ConsistencyReport(worst, worst_class, checked, worst < tol * scale, skipped)


def support_check(family: ConformalFamily, root: StateId, depth: int) -> bool:
    """Every admissible cylinder to ``depth`` carries strictly positive mass.

    The walk takes every successor the graph has, not only those psi
    covers, so a state that psi misses fails the check (a hole in psi, or
    the edge of a psi table shorter than ``depth``) instead of hiding the
    cylinders behind it.  A cylinder's mass e^{-n h} psi(last) is then
    positive, since the family holds only a finite h and positive psi
    values, even where it underflows to 0.0 in floats."""
    family.graph.check_state(root)
    return all(s in family.psi for s in _reachable(family.graph, (root,), depth, forward=True))


def symbolic_holonomy_check(family: ConformalFamily, root_a: StateId,
                            root_b: StateId, depth: int) -> ConsistencyReport:
    """Cylinder measures depend only on (root, future), not on the past.

    Roots reached along different pasts but carrying the same symbol (or, more
    generally, identical successor trees to ``depth``) must give identical
    cylinder measures; the symbolic unstable holonomy only rewrites the past.
    """
    graph = family.graph
    graph.check_state(root_b)
    # distinct roots with equal successor lists have equal trees to any depth
    if root_a != root_b and depth > 0 and graph.successors(root_a) != graph.successors(root_b):
        raise ValueError(
            f"holonomy precondition violated: {root_a!r} and {root_b!r} differ "
            f"as symbols and have different successor trees to depth {depth}"
        )
    graph.check_state(root_a)
    # a mass depends only on the cylinder's length and last state: read each class once
    worst, worst_class, checked = 0.0, None, 0
    for n, frontier in enumerate(_frontiers(family.successors, {root_a: 1}, depth)):
        for last, count in frontier.items():
            va = _mass(family, n, last)
            vb = _mass(family, n, last if n else root_b)
            checked += count
            if abs(va - vb) > worst:
                worst, worst_class = abs(va - vb), (n, last)
    return ConsistencyReport(worst, worst_class, checked, worst == 0.0)
