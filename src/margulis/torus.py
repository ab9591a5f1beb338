"""Hyperbolic toral automorphisms with validated Markov partitions.

All geometry happens in eigen-coordinates, where the automorphism is diagonal
and every partition rectangle is an axis-aligned box; torus wrapping is an
explicit enumeration of lattice translates with a radius bound derived from
the boxes' extents.  Geometric predicates are then interval comparisons, so
validation tolerances reflect round-off only.

The shipped ``cat-adler-weiss`` partition for [[2,1],[1,1]] is derived from
the classical two-parallelogram dissection: the two boxes of the golden
natural-extension domain are refined into the five connected components of
their one-step pullback intersections, which turns the multiplicity matrix
[[2,1],[1,1]] into an ordinary 0/1 transition graph with the same spectral
radius.  Its coordinates are Q[sqrt(5)] closed forms times the length of
(1, 1/phi), shipped as float literals and validated on every load.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import ShiftGraph, StateId, StructuralViolation, build_finite_graph
from .measures import ConformalFamily, make_family
from .report import dump_json

Vec = np.ndarray

_PAD = 1e-9               # slack of the lattice-strip enumeration
_VALID_TOL = 1e-9         # round-off slack of partition validation
_MEMBER_TOL = 1e-12       # boundary slack of membership, coding and plaques
_MAX_ARC_LEN = 64.0       # longest arc the coordinate solver brackets
_RAY_SEED_LEN = 0.3       # length of the seed segment of a periodic ray
_MAX_RAY_PERIOD = 12      # longest period searched for a ray's base point
_FIBER_BOUNDARY_POINTS = 24


# ---------------------------------------------------------------------------
# automorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusAutomorphism:
    matrix: tuple[tuple[int, int], tuple[int, int]]
    lam_u: float
    lam_s: float
    e_u: Vec
    e_s: Vec
    basis: Vec = field(repr=False)      # columns e_u, e_s
    basis_inv: Vec = field(repr=False)  # eigen coords of an xy point: basis_inv @ p

    def to_eigen(self, p: Vec) -> Vec:
        return self.basis_inv @ np.asarray(p, dtype=float)

    def to_xy(self, us: Vec) -> Vec:
        return self.basis @ np.asarray(us, dtype=float)


def make_automorphism(matrix: Sequence[Sequence[int]]) -> TorusAutomorphism:
    """Validate a hyperbolic unimodular 2x2 integer matrix and fix eigendata.

    The partition machinery needs positive eigenvalues lam_u > 1 > lam_s > 0
    (so det = 1); any other matrix is rejected, and its square qualifies.
    Signs are canonical: e_u has its largest-magnitude entry positive, e_s is
    then flipped if needed so that det[e_u e_s] > 0.  Eigen residuals are
    checked to 1e-13.
    """
    try:
        m = [[int(v) for v in row] for row in matrix]
    except (ValueError, OverflowError):
        raise ValueError(f"matrix entries must be finite integers; got {matrix!r}") from None
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise ValueError(f"matrix must be 2x2; got {matrix!r}")
    if m != [list(row) for row in matrix]:
        raise ValueError("matrix entries must be integers")
    a, b = m[0]
    c, d = m[1]
    det = a * d - b * c
    tr = a + d
    if abs(det) != 1:
        raise ValueError(f"matrix must be unimodular; det = {det}")
    disc = tr * tr - 4 * det
    if disc <= 0:  # only possible for det = +1, |trace| <= 2
        raise ValueError(f"matrix is not hyperbolic; trace = {tr}, det = {det}")
    sq = math.sqrt(disc)
    roots = ((tr + sq) / 2.0, (tr - sq) / 2.0)
    lam_u = max(roots, key=abs)
    lam_s = det / lam_u
    if not (lam_u > 1.0 and 0.0 < lam_s < 1.0):
        raise ValueError(
            f"partition matrix has eigenvalues lam_u = {lam_u!r}, lam_s = {lam_s!r}; "
            "partitions require lam_u > 1 > lam_s > 0 (use the square of the map)"
        )

    A = np.array(m, dtype=float)

    def eigvec(lam: float) -> Vec:
        # rows of A - lam I are parallel; pick the better-conditioned kernel vector
        v1 = np.array([b, lam - a])
        v2 = np.array([lam - d, c])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        v = v / np.linalg.norm(v)
        if abs(v[0]) >= abs(v[1]):
            return v if v[0] > 0 else -v
        return v if v[1] > 0 else -v

    e_u = eigvec(lam_u)
    e_s = eigvec(lam_s)
    if np.linalg.det(np.column_stack([e_u, e_s])) < 0:
        e_s = -e_s
    for lam, v in ((lam_u, e_u), (lam_s, e_s)):
        if np.max(np.abs(A @ v - lam * v)) > 1e-13:
            raise ValueError("eigenvector residual exceeds 1e-13")
    E = np.column_stack([e_u, e_s])
    return TorusAutomorphism(
        matrix=((m[0][0], m[0][1]), (m[1][0], m[1][1])),
        lam_u=lam_u, lam_s=lam_s, e_u=e_u, e_s=e_s,
        basis=E, basis_inv=np.linalg.inv(E),
    )


def inverse_automorphism(auto: TorusAutomorphism) -> TorusAutomorphism:
    """The inverse map in the right-handed frame (e_u, e_s) = (e_s, -e_u) of
    ``auto``, so its unstable arcs run along +e_s of ``auto``."""
    (a, b), (c, d) = auto.matrix     # det = 1
    E = np.column_stack([auto.e_s, -auto.e_u])
    return TorusAutomorphism(
        matrix=((d, -b), (-c, a)),
        lam_u=1.0 / auto.lam_s, lam_s=1.0 / auto.lam_u, e_u=auto.e_s, e_s=-auto.e_u,
        basis=E, basis_inv=np.linalg.inv(E),
    )


# ---------------------------------------------------------------------------
# rectangles and partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box in eigen-coordinates: corner + [0,u_extent]x[0,s_extent]."""

    id: StateId
    corner: tuple[float, float]
    u_extent: float
    s_extent: float

    @property
    def u_range(self) -> tuple[float, float]:
        return (self.corner[0], self.corner[0] + self.u_extent)

    @property
    def s_range(self) -> tuple[float, float]:
        return (self.corner[1], self.corner[1] + self.s_extent)


@dataclass
class PartitionReport:
    disjoint_ok: bool
    cover_ok: bool
    markov_ok: bool
    area_total: float
    max_u_cross_err: float
    max_s_fit_err: float
    witnesses: list[str]
    edges: list[tuple[StateId, StateId]]
    # (i, j) -> (start of the crossing's preimage in R_i, relative to R_i's
    # corner; start of the image strip in R_j, relative to R_j's corner)
    crossings: dict[tuple[StateId, StateId], tuple[float, float]]

    @property
    def ok(self) -> bool:
        return self.disjoint_ok and self.cover_ok and self.markov_ok


@dataclass
class MarkovPartition:
    """A validated partition with its cylinder tree, filled at construction.

    ``children[a][b] = (u_start, u_width)``: the interval of R_a's unstable
    side that f maps across R_b, relative to R_a's corner, in u order.
    ``parents[b][a] = (s_start, s_height)``: the strip of R_b's stable side
    that f(R_a) covers, relative to R_b's corner, in s order.
    ``charts[a]``: eigen coordinates of the translates T for which R_a + T
    can meet [0,1)^2.
    """

    auto: TorusAutomorphism
    rectangles: list[Rectangle]
    graph: ShiftGraph
    crossings: InitVar[dict]    # PartitionReport.crossings
    by_id: dict[StateId, Rectangle] = field(init=False)
    children: dict = field(init=False, repr=False)
    parents: dict = field(init=False, repr=False)
    charts: dict = field(init=False, repr=False)

    def __post_init__(self, crossings):
        self.by_id = {r.id: r for r in self.rectangles}
        self.children = {r.id: {} for r in self.rectangles}
        self.parents = {r.id: {} for r in self.rectangles}
        for (a, b), (u_off, _) in sorted(crossings.items(), key=lambda c: c[1][0]):
            self.children[a][b] = (u_off, self.by_id[b].u_extent / self.auto.lam_u)
        for (a, b), (_, s_off) in sorted(crossings.items(), key=lambda c: c[1][1]):
            self.parents[b][a] = (s_off, self.auto.lam_s * self.by_id[a].s_extent)
        U, S = _box_image(self.auto.to_eigen, (0.0, 1.0), (0.0, 1.0))
        self.charts = {}
        for r in self.rectangles:
            self.charts[r.id] = [
                tuple(self.auto.to_eigen(np.array(T, dtype=float)).tolist())
                for T, _, _ in _lattice_in_strips(self.auto, (U[0] - r.u_range[1], U[1] - r.u_range[0]),
                                                  (S[0] - r.s_range[1], S[1] - r.s_range[0]))]

    @property
    def h(self) -> float:
        return math.log(self.auto.lam_u)

    def rect(self, rid: StateId) -> Rectangle:
        return self.by_id[rid]


def _interval_overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return min(a[1], b[1]) - max(a[0], b[0])


def _box_image(f, A: tuple[float, float], B: tuple[float, float]):
    """Componentwise ranges of the linear map ``f`` over the box A x B, read
    off its four corners."""
    arr = np.array([f(np.array([a, b])) for a in A for b in B])
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    return (float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1]))


def _overlaps(auto: TorusAutomorphism, A, B):
    """Lattice translates T for which box B + T overlaps box A by more than
    ``_VALID_TOL`` on both axes, in (m, then n) order, as (T, eigen
    coordinates of T, u range of B + T, s range of B + T)."""
    (Ua, Sa), (Ub, Sb) = A, B
    for T, _, _ in _lattice_in_strips(auto, (Ua[0] - Ub[1], Ua[1] - Ub[0]),
                                      (Sa[0] - Sb[1], Sa[1] - Sb[0])):
        # the enumerator's scalar coordinates may differ from to_eigen's in the last bit
        te = auto.to_eigen(np.array(T, dtype=float))
        tu = (Ub[0] + te[0], Ub[1] + te[0])
        ts = (Sb[0] + te[1], Sb[1] + te[1])
        if _interval_overlap(Ua, tu) > _VALID_TOL and _interval_overlap(Sa, ts) > _VALID_TOL:
            yield T, te, tu, ts


def validate_partition(auto: TorusAutomorphism, rectangles: Sequence[Rectangle]) -> PartitionReport:
    """Disjoint interiors, full-area cover, and the Markov crossing property.

    Exact in eigen-coordinates: the image of each rectangle is an axis-aligned
    box, every overlap with another rectangle must cross its full unstable
    extent, and the image's stable sides must land inside the target.  A pair
    crossing more than once is reported as a violation: the artifact's simple
    transition graphs require a refined partition.
    """
    witnesses: list[str] = []
    area = 0.0
    scale = float(abs(np.linalg.det(auto.basis)))  # a Python float keeps the verdicts bool
    for r in rectangles:
        if r.u_extent <= 0 or r.s_extent <= 0:
            witnesses.append(f"{r.id}: empty rectangle")
        area += r.u_extent * r.s_extent * scale
    cover_ok = abs(area - 1.0) <= _VALID_TOL
    if not cover_ok:
        witnesses.append(f"area of union = {area:.12f} != 1")

    disjoint_ok = True
    for i, ri in enumerate(rectangles):
        for j in range(i, len(rectangles)):
            rj = rectangles[j]
            for T, *_ in _overlaps(auto, (ri.u_range, ri.s_range), (rj.u_range, rj.s_range)):
                if i != j or T != (0, 0):
                    disjoint_ok = False
                    witnesses.append(f"interiors of {ri.id} and {rj.id}+{T} overlap")

    markov_ok = True
    max_u_err = 0.0
    max_s_err = 0.0
    edges: list[tuple[StateId, StateId]] = []
    crossings: dict[tuple[StateId, StateId], tuple[float, float]] = {}
    for ri in rectangles:
        img_u = (auto.lam_u * ri.u_range[0], auto.lam_u * ri.u_range[1])
        img_s = (auto.lam_s * ri.s_range[0], auto.lam_s * ri.s_range[1])
        for rj in rectangles:
            hits = []
            for T, te, tu, ts in _overlaps(auto, (img_u, img_s), (rj.u_range, rj.s_range)):
                # full u-crossing: the image covers [tu[0], tu[1]] entirely;
                # stable fit: the image's s-range sits inside [ts[0], ts[1]]
                u_err = max(0.0, img_u[0] - tu[0]) + max(0.0, tu[1] - img_u[1])
                s_err = max(0.0, ts[0] - img_s[0]) + max(0.0, img_s[1] - ts[1])
                max_u_err = max(max_u_err, u_err)
                max_s_err = max(max_s_err, s_err)
                if u_err > _VALID_TOL or s_err > _VALID_TOL:
                    markov_ok = False
                    witnesses.append(
                        f"Markov violation {ri.id}->{rj.id}+{T}: u_err={u_err:.3e} s_err={s_err:.3e}"
                    )
                    continue
                hits.append((T, te))
            if len(hits) > 1:
                markov_ok = False
                witnesses.append(f"{ri.id}->{rj.id}: {len(hits)} crossings; refine the partition")
            elif len(hits) == 1:
                T, te = hits[0]
                u_off = (rj.u_range[0] + te[0]) / auto.lam_u - ri.u_range[0]
                s_off = auto.lam_s * ri.s_range[0] - (rj.s_range[0] + te[1])
                edges.append((ri.id, rj.id))
                crossings[(ri.id, rj.id)] = (u_off, s_off)
    return PartitionReport(disjoint_ok, cover_ok, markov_ok, area,
                           max_u_err, max_s_err, witnesses, edges, crossings)


def make_partition(auto: TorusAutomorphism, rectangles: Sequence[Rectangle]) -> MarkovPartition:
    report = validate_partition(auto, rectangles)
    if not report.ok:
        raise StructuralViolation(
            "invalid Markov partition: " + "; ".join(report.witnesses[:4])
        )
    ids = [r.id for r in rectangles]
    graph = build_finite_graph(ids, report.edges, base=ids[0], name="partition")
    return MarkovPartition(auto, list(rectangles), graph, report.crossings)


# ---------------------------------------------------------------------------
# the shipped cat partition
# ---------------------------------------------------------------------------

# (id, corner u, u_extent, s_extent) of the five strips, corners at s = 0:
# repr literals of Q[sqrt5] closed forms times |v_u|, pinned by the tests
_CAT_RECTANGLES = (
    ("R1", 0.0, 0.2008114158862273, 1.3763819204711738),
    ("R2", 0.2008114158862273, 0.12410828034667895, 1.3763819204711738),
    ("R3", 0.3249196962329063, 0.2008114158862273, 1.3763819204711738),
    ("R4", 0.5257311121191337, 0.12410828034667895, 0.8506508083520399),
    ("R5", 0.6498393924658126, 0.2008114158862273, 0.8506508083520399),
)


def builtin_partition(name: str) -> MarkovPartition:
    """Named partitions shipped with the package, validated on every load.

    ``cat-adler-weiss``: five-parallelogram refinement of the classical
    two-box partition for [[2,1],[1,1]].
    """
    if name != "cat-adler-weiss":
        raise ValueError(f"unknown builtin partition {name!r}")
    auto = make_automorphism([[2, 1], [1, 1]])
    rectangles = [Rectangle(sid, (u, 0.0), u_ext, s_ext)
                  for sid, u, u_ext, s_ext in _CAT_RECTANGLES]
    return make_partition(auto, rectangles)


def partition_to_json(p: MarkovPartition) -> str:
    """Serialize a partition in the interchange format (eigenbasis corners)."""
    return dump_json({
        "matrix": [list(row) for row in p.auto.matrix],
        "rectangles": [
            {"id": r.id, "corner": [r.corner[0], r.corner[1]],
             "u_extent": r.u_extent, "s_extent": r.s_extent}
            for r in p.rectangles
        ],
    })


def parse_partition(text: str) -> tuple[TorusAutomorphism, list[Rectangle]]:
    """The automorphism and rectangles of the interchange format, unvalidated;
    ``make_partition(*parse_partition(text))`` validates them.

    Raises ValueError for a malformed file or one that lacks a key, for a
    repeated rectangle id or a non-finite corner or extent, and for a matrix
    that ``make_automorphism`` rejects.
    """
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("partition file must hold a JSON object")
    try:
        auto = make_automorphism(spec["matrix"])
        rects = [Rectangle(str(r["id"]),
                           (float(r["corner"][0]), float(r["corner"][1])),
                           float(r["u_extent"]), float(r["s_extent"]))
                 for r in spec["rectangles"]]
    except KeyError as exc:
        raise ValueError(f'partition file lacks "{exc.args[0]}"') from None
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed partition file: {exc}") from None
    seen = set()
    for r in rects:
        for name, v in (("corner", r.corner[0]), ("corner", r.corner[1]),
                        ("u_extent", r.u_extent), ("s_extent", r.s_extent)):
            if not math.isfinite(v):
                raise ValueError(f"rectangle {r.id!r}: {name} is not finite ({v})")
        if r.id in seen:
            raise ValueError(f"duplicate rectangle id {r.id!r}")
        seen.add(r.id)
    return auto, rects


def partition_family(p: MarkovPartition) -> ConformalFamily:
    """Conformal family of the partition: psi(R) = u_extent(R), h = log lam_u.

    The unstable extents are a Perron eigenvector of the transition graph, so
    leaf measures coincide with arc length and the full unstable side of R has
    measure psi(R) exactly.
    """
    psi = {r.id: r.u_extent for r in p.rectangles}
    return make_family(p.graph, p.h, psi)


def inverse_partition(p: MarkovPartition) -> MarkovPartition:
    """The same rectangles as a Markov partition of the inverse map.

    Unstable and stable roles swap, in the frame (e_s, -e_u) of p; the
    transition graph is the reverse of p.graph.  Used for stable-leaf
    measures, which run along +e_s of p.
    """
    auto_inv = inverse_automorphism(p.auto)
    rects = []
    for r in p.rectangles:
        U, S = _box_image(lambda v: auto_inv.to_eigen(p.auto.to_xy(v)), r.u_range, r.s_range)
        rects.append(Rectangle(r.id, (U[0], S[0]), U[1] - U[0], S[1] - S[0]))
    return make_partition(auto_inv, rects)


# ---------------------------------------------------------------------------
# membership and coding
# ---------------------------------------------------------------------------

def _lattice_in_strips(auto: TorusAutomorphism, U: tuple[float, float],
                       S: tuple[float, float]):
    """Integer vectors T with u(T) in U and s(T) in S (both padded by ``_PAD``).

    The admissible region is a parallelogram in xy; iterate its integer
    x-range and solve the two strip conditions for the y-range.
    """
    Ei = auto.basis_inv
    e00, e01 = float(Ei[0, 0]), float(Ei[0, 1])
    e10, e11 = float(Ei[1, 0]), float(Ei[1, 1])
    X, _ = _box_image(auto.to_xy, U, S)
    for mm in range(math.floor(X[0]), math.ceil(X[1]) + 1):
        nu = _strip_range(e01, U[0] - e00 * mm, U[1] - e00 * mm)
        ns = _strip_range(e11, S[0] - e10 * mm, S[1] - e10 * mm)
        lo = max(nu[0], ns[0])
        hi = min(nu[1], ns[1])
        if hi < lo:
            continue
        for nn in range(math.ceil(lo - _PAD), math.floor(hi + _PAD) + 1):
            uT = e00 * mm + e01 * nn
            sT = e10 * mm + e11 * nn
            if U[0] - _PAD <= uT <= U[1] + _PAD and S[0] - _PAD <= sT <= S[1] + _PAD:
                yield (mm, nn), uT, sT


def _chart_of(p: MarkovPartition, r: Rectangle, u: float, s: float) -> Optional[tuple[float, float]]:
    """Eigen coordinates of the point (u, s) in the first chart translate of
    ``r`` that contains it within ``_MEMBER_TOL``; None if no translate does."""
    tol = _MEMBER_TOL
    for tu, ts in p.charts[r.id]:
        uc, sc = u - tu, s - ts
        if (-tol <= uc - r.corner[0] <= r.u_extent + tol
                and -tol <= sc - r.corner[1] <= r.s_extent + tol):
            return uc, sc
    return None


def memberships(p: MarkovPartition, xy: Vec) -> list[tuple[StateId, float, float]]:
    """Rectangles containing the torus point, with relative (u,s) coordinates.

    Points within ``_MEMBER_TOL`` of a boundary belong to every adjacent rectangle.
    """
    q0, q1 = float(xy[0]) % 1.0, float(xy[1]) % 1.0
    Ei = p.auto.basis_inv
    u = float(Ei[0, 0]) * q0 + float(Ei[0, 1]) * q1
    s = float(Ei[1, 0]) * q0 + float(Ei[1, 1]) * q1
    out = []
    for r in p.rectangles:
        chart = _chart_of(p, r, u, s)
        if chart is not None:
            out.append((r.id, chart[0] - r.corner[0], chart[1] - r.corner[1]))
    return out


def locate(p: MarkovPartition, xy: Vec) -> tuple[StateId, float, float]:
    """The unique rectangle containing an interior point (error on boundaries)."""
    ms = memberships(p, xy)
    if len(ms) != 1:
        raise ValueError(f"point {xy} is not uniquely located (memberships: {ms})")
    return ms[0]


@dataclass
class Itinerary:
    """Symbols at times -n..n, with the decoded center and diameter bound."""

    symbols: tuple[StateId, ...]
    n: int
    center_estimate: tuple[float, float]
    radius: float


def code_point(p: MarkovPartition, xy: Vec, n: int) -> list[Itinerary]:
    """All itineraries of f^-n(x)..f^n(x) whose decoded box contains x.

    The unstable interval of an itinerary depends only on its future symbols
    and the stable interval only on its past, so the search descends the
    cylinder tree in each direction keeping the (at most two per level)
    children whose interval still contains x.  Interior orbits yield a single
    itinerary; boundary points several.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = []
    lam_u, lam_s = p.auto.lam_u, p.auto.lam_s
    for rid, u_rel, s_rel in memberships(p, xy):
        futures = _containing(p.children, lambda v: v * lam_u, rid, u_rel, n)
        pasts = _containing(p.parents, lambda v: v / lam_s, rid, s_rel, n)
        for past in pasts:
            for fut in futures:
                symbols = tuple(reversed(past)) + (rid,) + tuple(fut)
                dec = decode(p, symbols, zero_index=n)
                out.append(Itinerary(symbols, n, dec[0], dec[1]))
    out.sort(key=lambda it: it.symbols)
    return out


def _containing(table: dict, rescale, rid: StateId, x: float, n: int) -> list[tuple[StateId, ...]]:
    """Words w_1..w_n, read through ``table`` (``children`` for the future,
    ``parents`` for the past, w_-1..w_-n in that order), whose nested
    intervals contain x; ``rescale`` maps a child's relative coordinate to
    the child rectangle's."""
    if n == 0:
        return [()]
    words = []
    for b, (start, width) in table[rid].items():
        if start - _MEMBER_TOL <= x <= start + width + _MEMBER_TOL:
            for rest in _containing(table, rescale, b, rescale(x - start), n - 1):
                words.append((b,) + rest)
    return words


def decode(p: MarkovPartition, symbols: Sequence[StateId],
           zero_index: int) -> tuple[tuple[float, float], float, tuple[float, float], tuple[float, float]]:
    """Intersection box of f^-i[R_{w_i}] over the itinerary, by interval folding.

    Returns (center_xy, radius, u_rel_interval, s_rel_interval); the relative
    intervals are within the chart of symbols[zero_index].  Raises ValueError
    on an inadmissible itinerary (empty intersection).
    """
    symbols = list(symbols)
    if not (0 <= zero_index < len(symbols)):
        raise ValueError("zero_index out of range")
    for a, b in zip(symbols, symbols[1:]):
        if not p.graph.has_edge(a, b):
            raise ValueError(f"inadmissible itinerary at ({a!r}, {b!r}): empty intersection")
    lam_u, lam_s = p.auto.lam_u, p.auto.lam_s
    future = symbols[zero_index:]
    past = symbols[: zero_index + 1]
    u_lo, u_hi = 0.0, p.rect(future[-1]).u_extent
    for a, b in reversed(list(zip(future, future[1:]))):
        off = p.children[a][b][0]
        u_lo, u_hi = off + u_lo / lam_u, off + u_hi / lam_u
    s_lo, s_hi = 0.0, p.rect(past[0]).s_extent
    for a, b in zip(past, past[1:]):
        off = p.parents[b][a][0]
        s_lo, s_hi = off + lam_s * s_lo, off + lam_s * s_hi
    r0 = p.rect(symbols[zero_index])
    center_us = np.array([r0.corner[0] + (u_lo + u_hi) / 2.0,
                          r0.corner[1] + (s_lo + s_hi) / 2.0])
    center = tuple((p.auto.to_xy(center_us) % 1.0).tolist())
    radius = 0.5 * math.hypot(u_hi - u_lo, s_hi - s_lo)
    return center, radius, (u_lo, u_hi), (s_lo, s_hi)


# ---------------------------------------------------------------------------
# unstable arcs and leaf measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnstableArc:
    """{base + t e_u : t in [t0, t1]} on the torus."""

    base: tuple[float, float]
    t0: float
    t1: float

    @property
    def length(self) -> float:
        return self.t1 - self.t0


def full_u_side_arc(p: MarkovPartition, rid: StateId, s_frac: float = 0.5) -> UnstableArc:
    """The full unstable side of a rectangle at relative stable height s_frac."""
    return cylinder_image_arc(p, rid, (), s_frac)


def cylinder_image_arc(p: MarkovPartition, root: StateId, future: Sequence[StateId],
                       s_frac: float = 0.5) -> UnstableArc:
    """The closed sub-arc of the unstable leaf coded by a cylinder."""
    _, _, (u_lo, u_hi), _ = decode(p, [root, *future], zero_index=0)
    r = p.rect(root)
    base_us = np.array([r.corner[0] + u_lo, r.corner[1] + s_frac * r.s_extent])
    base = tuple((p.auto.to_xy(base_us) % 1.0).tolist())
    return UnstableArc(base, 0.0, u_hi - u_lo)


def _plaque_segments(p: MarkovPartition, arc: UnstableArc) -> list[tuple[StateId, float, float, float]]:
    """Split an arc into plaque pieces: (rect id, u_rel_lo, u_rel_hi, t_lo).

    Membership along the stable coordinate is half-open ([0, s_extent)), so a
    leaf lying exactly on a rectangle boundary is assigned deterministically.
    """
    tol = _MEMBER_TOL
    if arc.length <= tol:
        return []
    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    segs = []
    for r in p.rectangles:
        cu, cs = r.corner
        U = (u_b + arc.t0 - cu - r.u_extent, u_b + arc.t1 - cu)
        S = (s_b - cs - r.s_extent, s_b - cs)
        for _T, uT, sT in _lattice_in_strips(p.auto, U, S):
            s_rel = s_b - sT - cs
            if not (-tol <= s_rel < r.s_extent - tol):
                continue
            u_lo_t = cu + uT - u_b
            lo = max(arc.t0, u_lo_t)
            hi = min(arc.t1, u_lo_t + r.u_extent)
            if hi - lo > tol:
                segs.append((r.id, lo - u_lo_t, hi - u_lo_t, lo))
    segs.sort(key=lambda s: s[3])
    covered = sum(s[2] - s[1] for s in segs)
    if abs(covered - arc.length) > 1e-7 * (1.0 + arc.length):
        raise StructuralViolation(
            f"arc not tiled by plaques: covered {covered:.12f} of {arc.length:.12f}"
        )
    return segs


@dataclass
class ArcMeasure:
    inner: float
    outer: float
    depth: int
    boundary_cylinders: int
    segments: int

    @property
    def value(self) -> float:
        return 0.5 * (self.inner + self.outer)

    @property
    def error_bound(self) -> float:
        return 0.5 * (self.outer - self.inner)


def _walk_cover(family: ConformalFamily, p: MarkovPartition, arc: UnstableArc, depth: int,
                target: float) -> tuple[ArcMeasure, Optional[float]]:
    """Walk the depth-``depth`` cylinder cover of ``arc`` in arc order.

    The cover rule: within each plaque segment, a cylinder that the arc
    covers to within 1e-12 is whole and adds its mass to inner and outer; a
    cut cylinder is descended into its children (pieces of 1e-15 or less are
    skipped), and at depth 0 it is a boundary cylinder that adds its mass to
    outer only, so ``value`` counts it half.

    The walk stops at the first arc parameter where the running value
    reaches ``target`` and returns it with the measure walked so far; a whole
    cylinder is descended only when its mass would reach the target.  With
    ``target = inf`` it walks the full cover and returns None.
    """
    lam_u = p.auto.lam_u
    wh = math.exp(-family.h)
    rects, children, psi_of = p.by_id, p.children, family.psi_of
    inner = outer = 0.0
    boundary = 0

    def visit(rid: StateId, lo: float, hi: float, d: int, weight: float) -> Optional[float]:
        # the stop's coordinate on this cylinder's unstable side, or None
        nonlocal inner, outer, boundary
        ext = rects[rid].u_extent
        lo, hi = max(lo, 0.0), min(hi, ext)
        m = weight * psi_of(rid)
        whole = hi - lo >= ext - 1e-12
        if whole and 0.5 * (inner + outer) + m < target:
            inner += m
            outer += m
            return None
        if d == 0:
            if 0.5 * (inner + outer + m) >= target:
                return lo
            if whole:
                return hi
            outer += m
            boundary += 1
            return None
        for b, (c_lo, c_w) in children[rid].items():
            c_hi = c_lo + c_w
            ov_lo, ov_hi = max(lo, c_lo), min(hi, c_hi)
            if ov_hi - ov_lo > 1e-15:
                y = visit(b, (ov_lo - c_lo) * lam_u, (ov_hi - c_lo) * lam_u, d - 1, weight * wh)
                if y is not None:
                    return c_lo + y / lam_u
        # the children stayed below the target: the cylinder reaches it once whole
        return hi if whole else None

    segs = _plaque_segments(p, arc)
    stop = None
    for rid, lo, hi, t_lo in segs:
        y = visit(rid, lo, hi, depth, 1.0)
        if y is not None:
            stop = (t_lo - lo) + y
            break
    return ArcMeasure(inner, outer, depth, boundary, len(segs)), stop


def leaf_arc_measure(family: ConformalFamily, p: MarkovPartition, arc: UnstableArc,
                     depth: int) -> ArcMeasure:
    """Measure of an unstable arc via depth-limited cylinder covers.

    Cylinders fully inside the arc contribute exactly (their refinements
    telescope by harmonicity), so only the <= 2 boundary chains per plaque
    segment are descended; the inner/outer gap is the sum of the unresolved
    boundary cylinders' masses, at most (#boundary) * e^{-depth h} * max psi.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _walk_cover(family, p, arc, depth, math.inf)[0]


def stable_holonomy(p: MarkovPartition, arc: UnstableArc, target_xy: Vec) -> UnstableArc:
    """Slide an arc along the stable direction onto the target's leaf.

    For a linear map this is a rigid translation parallel to e_s, so the
    endpoint parameters are unchanged.
    """
    base_us = p.auto.to_eigen(np.array(arc.base))
    target_us = p.auto.to_eigen(np.asarray(target_xy, dtype=float))
    ds = target_us[1] - base_us[1]
    new_base = (np.array(arc.base) + ds * p.auto.e_s) % 1.0
    return UnstableArc(tuple(new_base.tolist()), arc.t0, arc.t1)


@dataclass
class HolonomyReport:
    depths: list[int]
    discrepancies: list[float]
    combined_bounds: list[float]
    passed: bool


def holonomy_invariance_check(family: ConformalFamily, p: MarkovPartition,
                              arc: UnstableArc, target_xy: Vec,
                              depths: Sequence[int] = (4, 8, 12)) -> HolonomyReport:
    """Measures of holonomy-related arcs agree within the truncation bounds.

    The certified bound (sum of both arcs' inner/outer gaps) decays like
    e^{-depth h} because the boundary-cylinder masses do.
    """
    if not depths:
        raise ValueError("depths must be non-empty")
    image = stable_holonomy(p, arc, target_xy)
    discrepancies, bounds = [], []
    for d in depths:
        m1 = leaf_arc_measure(family, p, arc, d)
        m2 = leaf_arc_measure(family, p, image, d)
        discrepancies.append(abs(m1.value - m2.value))
        bounds.append(m1.error_bound + m2.error_bound)
    passed = all(d <= b + 1e-15 for d, b in zip(discrepancies, bounds))
    return HolonomyReport(list(depths), discrepancies, bounds, passed)


# ---------------------------------------------------------------------------
# intersection counts, conformal scaling, coordinates
# ---------------------------------------------------------------------------

def intersection_count(p: MarkovPartition, arc: UnstableArc, i: int,
                       anchor_xy: Vec, anchor_symbol: StateId) -> int:
    """|arc ∩ f^-i(stable plaque through the anchor)| by lattice enumeration.

    The plaque is the full stable side of the anchor's rectangle; the anchor
    must be an interior (periodic) point.  Intersections are transversal for
    a linear map, and the half-open conventions make the count exact.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    rid, _, _ = locate(p, anchor_xy)
    if rid != anchor_symbol:
        raise ValueError(f"anchor lies in {rid!r}, not {anchor_symbol!r}")
    r = p.rect(anchor_symbol)
    anchor_us = p.auto.to_eigen(np.asarray(anchor_xy, dtype=float) % 1.0)
    chart = _chart_of(p, r, float(anchor_us[0]), float(anchor_us[1]))
    if chart is None:
        raise ValueError("anchor could not be charted")
    u_a = chart[0]
    s_lo, s_hi = r.corner[1], r.corner[1] + r.s_extent

    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    Lu = p.auto.lam_u ** i
    Ls = p.auto.lam_s ** i
    # conditions on the lattice translate T, half-open so the count is exact:
    #   u(T) in [Lu*(u_b + t0) - u_a, Lu*(u_b + t1) - u_a)   (t in [t0, t1))
    #   s(T) in (Ls*s_b - s_hi, Ls*s_b - s_lo]
    U = (Lu * (u_b + arc.t0) - u_a, Lu * (u_b + arc.t1) - u_a)
    S = (Ls * s_b - s_hi, Ls * s_b - s_lo)
    return sum(1 for _T, uT, sT in _lattice_in_strips(p.auto, U, S)
               if U[0] - _PAD <= uT < U[1] - _PAD and S[0] + _PAD < sT <= S[1] + _PAD)


def _strip_range(coef: float, lo: float, hi: float) -> tuple[float, float]:
    # coef is an eigen-basis entry, nonzero: a zero entry needs an axis-parallel
    # eigenvector, i.e. eigenvalues +-1, which is not hyperbolic
    a, b = lo / coef, hi / coef
    return (min(a, b), max(a, b))


@dataclass
class LeafConformalityReport:
    k: int
    ratio: float
    expected: float
    rel_err: float
    bound: float


def conformality_on_leaves(family: ConformalFamily, p: MarkovPartition,
                           arc: UnstableArc, k: int, depth: int = 14) -> LeafConformalityReport:
    """measure(f^k(arc)) = e^{k h} measure(arc) within the truncation bounds."""
    if k < 0:
        raise ValueError("k must be >= 0")
    # object dtype keeps the entries exact Python integers (int64 overflows at k >= 46)
    Ak = np.linalg.matrix_power(np.array(p.auto.matrix, dtype=object), k)
    base_img = (np.array(Ak, dtype=float) @ np.array(arc.base)) % 1.0
    lam_k = p.auto.lam_u ** k
    img = UnstableArc(tuple(base_img.tolist()), arc.t0 * lam_k, arc.t1 * lam_k)
    m0 = leaf_arc_measure(family, p, arc, depth)
    mk = leaf_arc_measure(family, p, img, depth)
    expected = math.exp(k * family.h)
    ratio = mk.value / m0.value
    rel_err = abs(ratio / expected - 1.0)
    bound = (mk.error_bound + expected * m0.error_bound) / max(m0.value * expected, 1e-300)
    return LeafConformalityReport(k, ratio, expected, rel_err, bound)


def periodic_ray_divergence(family: ConformalFamily, p: MarkovPartition,
                            point_xy: Vec, direction: int, K: int,
                            depth: int = 12) -> list[float]:
    """trace[k] = measure(f^k(seed ray segment)) = e^{k h} * trace[0].

    The base point must be periodic; conformality makes the growth exact on
    the formula path, so the trace exceeds any bound for k large.
    """
    q = np.asarray(point_xy, dtype=float) % 1.0
    A = np.array(p.auto.matrix, dtype=float)
    z = q.copy()
    period = 0
    for t in range(1, _MAX_RAY_PERIOD + 1):
        z = (A @ z) % 1.0
        d = np.abs(z - q)
        if np.max(np.minimum(d, 1.0 - d)) < 1e-9:
            period = t
            break
    if period == 0:
        raise ValueError(f"point {point_xy} is not periodic up to period {_MAX_RAY_PERIOD}")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    t0, t1 = (0.0, _RAY_SEED_LEN) if direction == 1 else (-_RAY_SEED_LEN, 0.0)
    m0 = leaf_arc_measure(family, p, UnstableArc(tuple(q.tolist()), t0, t1), depth).value
    return [math.exp(k * family.h) * m0 for k in range(K + 1)]


def _measure_crossing(family: ConformalFamily, p: MarkovPartition, base: tuple[float, float],
                      length: float, target: float, depth: int) -> Optional[float]:
    """The arc length a <= ``length`` at which the ``value`` of
    ``leaf_arc_measure`` for the arc of length a from ``base`` along +e_u
    first reaches ``target``; None if it stays below.

    It is where ``_walk_cover`` stops on the arc of length ``length``.
    Rounding and the cover's 1e-12/1e-15 slack can move it by ~1e-15, so
    callers certify it with real measures.
    """
    return _walk_cover(family, p, UnstableArc(base, 0.0, length), depth, target)[1]


def _arc_length_solve(family: ConformalFamily, p: MarkovPartition, base: tuple[float, float],
                      target: float, tol: float, depth: int) -> float:
    """Midpoint of the dyadic cell [lo, hi], hi - lo <= tol, of the arc length
    a with value(lo) < target <= value(hi), where value(a) is the
    ``leaf_arc_measure(...).value`` of the arc of length a from ``base`` along
    +e_u.

    The grid is that of bisecting [0, H], H the first power of two whose arc
    reaches the target.  ``_measure_crossing`` picks the cell and two real
    measures certify it; if they do not, plain bisection of [0, H] finds it.
    """
    if not 0.0 <= target < math.inf:
        raise ValueError(f"coordinates must be finite and >= 0; got {target!r}")
    if target == 0:
        return 0.0

    def value(a: float) -> float:
        return leaf_arc_measure(family, p, UnstableArc(base, 0.0, a), depth).value

    exceeds = f"coordinate {target} exceeds the measurable leaf mass within length {_MAX_ARC_LEN}"
    length = 1.0
    while (b := _measure_crossing(family, p, base, length, target, depth)) is None:
        length *= 2.0
        if length > _MAX_ARC_LEN:
            raise ValueError(exceeds)
    w = length
    while w > tol:
        w *= 0.5
    lo = max(math.floor(b / w), 0) * w
    hi = lo + w
    if (lo == 0 or value(lo) < target) and value(hi) >= target:   # value(0) = 0 < target
        return 0.5 * (lo + hi)
    lo, hi = 0.0, 1.0
    while value(hi) < target:
        hi *= 2.0
        if hi > _MAX_ARC_LEN:
            raise ValueError(exceeds)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if value(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class MargulisPoint:
    point: tuple[float, float]   # torus representative of z
    alpha: float                 # arc-length parameter along e_u
    gamma: float                 # arc-length parameter along e_s


def margulis_coordinates(family_u: ConformalFamily, p: MarkovPartition,
                         family_s: ConformalFamily, p_inv: MarkovPartition,
                         fixed_xy: Vec, x: float, y: float,
                         tol: float = 1e-9, depth: int = 16) -> MargulisPoint:
    """The point z with unstable-measure coordinate x and stable coordinate y.

    z = fixed + alpha e_u + gamma e_s where the arc from the stable axis to z
    along its unstable leaf has measure x (holonomy invariance makes this
    independent of gamma, so alpha solves a single equation), and
    symmetrically for y on the stable side via the inverse-map model
    ``p_inv = inverse_partition(p)``, whose e_u is p's e_s.

    Each equation is solved on the grid of bisecting [0, H] down to cells of
    width <= tol, H the first power of two (>= 1) whose arc reaches the
    target; the result is the midpoint of the cell [lo, hi] with
    measure(lo) < target <= measure(hi), measure being the depth-``depth``
    ``leaf_arc_measure(...).value``.  That measure is a staircase in the arc
    length, constant while the arc ends inside one depth-``depth`` cylinder,
    so one descent of the cylinder tree locates the step that crosses the
    target and two real measures certify its cell (plain bisection takes
    over if they do not).  The certified inequality holds for every family;
    where the measure is monotone in the arc length (a harmonic psi) that
    cell is the only one, so the result is the one plain bisection returns.
    """
    fp = np.asarray(fixed_xy, dtype=float) % 1.0
    base = tuple(fp.tolist())
    alpha = _arc_length_solve(family_u, p, base, x, tol, depth)
    gamma = _arc_length_solve(family_s, p_inv, base, y, tol, depth)
    z = (fp + alpha * p.auto.e_u + gamma * p.auto.e_s) % 1.0
    return MargulisPoint((float(z[0]), float(z[1])), alpha, gamma)


# ---------------------------------------------------------------------------
# fiber bound
# ---------------------------------------------------------------------------

@dataclass
class FiberReport:
    max_fiber: int
    bound: int
    samples: int
    boundary_max: int
    interior_unique_fraction: float

    @property
    def passed(self) -> bool:
        return self.max_fiber <= self.bound


def fiber_bound_check(p: MarkovPartition, samples: int, seed: int = 0,
                      n: int = 6) -> FiberReport:
    """Max coding-fiber size over random and constructed boundary points.

    The bound is (degree_bound + 1)^2 - 1 for the partition's transition
    graph.  Boundary points are placed on unstable-side boundaries and must
    be multiply coded.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pts = [rng.random(2) for _ in range(samples)]
    extra = []
    for j in range(_FIBER_BOUNDARY_POINTS):
        r = p.rectangles[j % len(p.rectangles)]
        frac = (j + 0.5) / _FIBER_BOUNDARY_POINTS
        side = 0.0 if (j // len(p.rectangles)) % 2 == 0 else r.s_extent
        us = np.array([r.corner[0] + frac * r.u_extent, r.corner[1] + side])
        extra.append(p.auto.to_xy(us) % 1.0)

    bound = (p.graph.degree_bound + 1) ** 2 - 1
    max_fiber = 0
    unique = 0
    for q in pts:
        k = len(code_point(p, q, n))
        max_fiber = max(max_fiber, k)
        unique += k == 1
    boundary_max = 0
    for q in extra:
        k = len(code_point(p, q, n))
        boundary_max = max(boundary_max, k)
        max_fiber = max(max_fiber, k)
    return FiberReport(max_fiber, bound, samples, boundary_max, unique / samples)
