"""Conformal cylinder measures built from a harmonic function.

Given a graph, an entropy value h, and a positive harmonic function psi, the
measure of the cylinder with root R and future word (w_1..w_N) is
exp(-N h) * psi(w_N); the associated probability divides by psi(R).  Because
psi depends only on the current symbol, the family is indexed by
(root, future) pairs alone; left-infinite pasts enter only through the
extension sums of the global leaf trace.

Harmonicity of psi is exactly Kolmogorov consistency here: the children of a
cylinder sum to their parent, and the verification routines below check both
that identity and the one-step conformal pushforward identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .counting import _frontiers
from .graphs import Cylinder, ShiftGraph, StateId, is_admissible


@dataclass(frozen=True)
class ConformalFamily:
    graph: ShiftGraph
    h: float
    psi: Mapping[StateId, float]

    def psi_of(self, s: StateId) -> float:
        v = self.psi[s]
        if not v > 0:
            raise ValueError(f"psi must be positive; psi({s!r}) = {v}")
        return v

    def total_mass(self, root: StateId) -> float:
        """Mass of the whole fiber over ``root``: psi(root)."""
        return self.psi[root]


def make_family(graph: ShiftGraph, h: float, psi: Mapping[StateId, float]) -> ConformalFamily:
    """Freeze a conformal family; rejects nonpositive psi values.

    ``psi`` may be any Mapping, including a lazily evaluated one for graphs
    with infinitely many states; finite dicts are validated eagerly, lazy
    mappings on access.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if isinstance(psi, dict):
        for s, v in psi.items():
            if not v > 0:
                raise ValueError(f"psi must be positive; psi({s!r}) = {v}")
        psi = dict(psi)
    return ConformalFamily(graph, h, psi)


@dataclass
class CylinderMeasureValue:
    value: float
    depth: int


def cylinder_measure(family: ConformalFamily, root: StateId,
                     future: Sequence[StateId] = ()) -> CylinderMeasureValue:
    """mu([root; w_1..w_N]) = exp(-N h) psi(w_N); the empty future gives psi(root)."""
    graph = family.graph
    if not is_admissible(graph, [root, *future]):
        raise ValueError(f"inadmissible cylinder ({root!r}; {list(future)!r})")
    n = len(future)
    last = future[-1] if future else root
    return CylinderMeasureValue(math.exp(-n * family.h) * family.psi_of(last), n)


def cylinder_probability(family: ConformalFamily, root: StateId,
                         future: Sequence[StateId] = ()) -> float:
    return cylinder_measure(family, root, future).value / family.psi_of(root)


def iter_cylinders(graph: ShiftGraph, root: StateId, depth: int,
                   psi: Optional[Mapping[StateId, float]] = None) -> Iterator[tuple[StateId, ...]]:
    """All futures from ``root`` with at most ``depth`` edges (including the
    empty future), depth-first in successor order.  With ``psi`` given, the
    walk is restricted to states psi is defined on."""
    stack: list[tuple[StateId, ...]] = [()]
    while stack:
        fut = stack.pop()
        yield fut
        if len(fut) < depth:
            last = fut[-1] if fut else root
            for s in reversed(graph.successors(last)):
                if psi is None or s in psi:
                    stack.append(fut + (s,))


@dataclass
class ConsistencyReport:
    max_discrepancy: float
    worst_cylinder: Optional[tuple[StateId, tuple[StateId, ...]]]
    cylinders_checked: int
    passed: bool


def conformality_check(family: ConformalFamily, root: StateId, depth: int,
                       tol: float = 1e-12) -> ConsistencyReport:
    """Verify the conformal identities on every cylinder to ``depth``.

    Checks (a) Kolmogorov consistency mu(c) = sum of mu over one-step
    refinements, which is exactly harmonicity of psi and fails when psi is
    perturbed, and (b) the pushforward identity mu_root([s.w]) =
    e^-h mu_{root s}([w]) relating a cylinder to its shift.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    graph = family.graph
    psi = family.psi
    worst, worst_cyl, checked = 0.0, None, 0
    for fut in iter_cylinders(graph, root, depth, psi):
        parent = cylinder_measure(family, root, fut).value
        last = fut[-1] if fut else root
        children = [s for s in graph.successors(last) if s in psi]
        if len(children) != len(graph.successors(last)):
            continue
        total = math.fsum(cylinder_measure(family, root, fut + (s,)).value
                          for s in children)
        disc = abs(total - parent)
        checked += 1
        if disc > worst:
            worst, worst_cyl = disc, (root, fut)
        if fut:
            shifted = cylinder_measure(family, fut[0], fut[1:]).value
            disc = abs(parent - math.exp(-family.h) * shifted)
            if disc > worst:
                worst, worst_cyl = disc, (root, fut)
    return ConsistencyReport(worst, worst_cyl, checked, worst < tol)


def support_check(family: ConformalFamily, root: StateId, depth: int) -> bool:
    """Every admissible cylinder carries strictly positive mass."""
    return all(cylinder_measure(family, root, fut).value > 0.0
               for fut in iter_cylinders(family.graph, root, depth, family.psi))


def symbolic_holonomy_check(family: ConformalFamily, root_a: StateId,
                            root_b: StateId, depth: int) -> ConsistencyReport:
    """Cylinder measures depend only on (root, future), not on the past.

    Roots reached along different pasts but carrying the same symbol (or, more
    generally, identical successor trees to ``depth``) must give identical
    cylinder measures; the symbolic unstable holonomy only rewrites the past.
    """
    graph = family.graph
    if root_a != root_b and not _same_tree(graph, root_a, root_b, depth):
        raise ValueError(
            f"holonomy precondition violated: {root_a!r} and {root_b!r} differ "
            f"as symbols and have different successor trees to depth {depth}"
        )
    worst, worst_cyl, checked = 0.0, None, 0
    for fut in iter_cylinders(graph, root_a, depth, family.psi):
        if not is_admissible(graph, [root_b, *fut]):
            continue
        va = cylinder_measure(family, root_a, fut).value
        vb = cylinder_measure(family, root_b, fut).value
        checked += 1
        if abs(va - vb) > worst:
            worst, worst_cyl = abs(va - vb), (root_a, fut)
    return ConsistencyReport(worst, worst_cyl, checked, worst == 0.0)


def _same_tree(graph: ShiftGraph, a: StateId, b: StateId, depth: int) -> bool:
    if depth == 0:
        return True
    sa, sb = graph.successors(a), graph.successors(b)
    if sa != sb:
        return False
    return all(_same_tree(graph, s, s, depth - 1) for s in sa)


# ---------------------------------------------------------------------------
# global leaves
# ---------------------------------------------------------------------------

@dataclass
class LeafTrace:
    """Extension sums over re-extended pasts, for m = 0..n.

    ``arc_values[m]``: total mass the m-step extensions of the truncated past
    assign to the fixed arc; by conformality this telescopes to the arc's own
    measure, so the sequence is constant up to rounding and equals the global
    leaf measure of the arc.

    ``mass_values[m]``: total mass of all m-step extensions (the measure of
    the expanding union of their local leaves) = e^{m h} psi(past[-1-m]);
    nondecreasing, and unbounded along recurrent pasts.
    """

    arc_values: list[float]
    mass_values: list[float]
    extension_counts: list[int]


def global_leaf_measure(family: ConformalFamily, past: Sequence[StateId],
                        arc: Sequence[Cylinder | tuple], n: int) -> LeafTrace:
    """Increasing extension sums of the measures of a fixed arc of cylinders.

    ``past`` is a truncated left chain ending at the root (past[-1] is the
    symbol at time 0); ``arc`` is a set of sibling cylinders over that root.
    Requires n <= len(past) - 1.
    """
    graph = family.graph
    past = [graph.check_state(s) for s in past]
    if not is_admissible(graph, past):
        raise ValueError(f"inadmissible past {past!r}")
    if n > len(past) - 1:
        raise ValueError("n exceeds the available past length")
    root = past[-1]
    cyls: list[Cylinder] = []
    for c in arc:
        cyl = c if isinstance(c, Cylinder) else Cylinder(str(c[0]), tuple(c[1]))
        if cyl.root != root:
            raise ValueError(f"arc cylinder {cyl} does not sit over root {root!r}")
        cyls.append(cyl)
    arc_measure = math.fsum(cylinder_measure(family, c.root, c.future).value
                            for c in cyls)

    def step(s: StateId) -> list[StateId]:
        return [t for t in graph.successors(s) if t in family.psi]

    arc_values, mass_values, counts = [], [], []
    for m in range(n + 1):
        start = past[-1 - m]
        # mass of all m-step extensions = (L0^m psi)(start), by harmonicity
        *_, vec = _frontiers(step, start, m)
        cnt = sum(vec.values())
        mass = math.fsum(w * family.psi_of(s) for s, w in sorted(vec.items()))
        # the fixed arc, pulled back m steps and re-expanded: the only
        # m-extension whose leaf meets the arc is the original past, so the
        # sum telescopes to e^{m h} mu([start; past-suffix . future])
        suffix = tuple(past[-m:]) if m else ()
        av = math.fsum(
            math.exp(m * family.h)
            * cylinder_measure(family, start, suffix + c.future).value
            for c in cyls
        )
        arc_values.append(av)
        mass_values.append(mass)
        counts.append(cnt)
    # rounding guard: the telescoped arc values must match the direct measure
    if arc_values and abs(arc_values[0] - arc_measure) > 1e-9 * (1 + arc_measure):
        raise RuntimeError("extension sum failed to telescope to the arc measure")
    return LeafTrace(arc_values, mass_values, counts)


def periodic_ray_mass(family: ConformalFamily, loop: Sequence[StateId], k: int) -> float:
    """Mass e^{k L h} psi(a) accumulated after k traversals of a loop at a.

    Unbounded in k for any loop, which is the symbolic form of the infinite
    measure of rays in periodic leaves.
    """
    loop = list(loop)
    if len(loop) < 2 or loop[0] != loop[-1] or not is_admissible(family.graph, loop):
        raise ValueError(f"not an admissible loop: {loop!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    L = len(loop) - 1
    return math.exp(k * L * family.h) * family.psi_of(loop[0])
