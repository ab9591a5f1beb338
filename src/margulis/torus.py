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
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

from .graphs import ShiftGraph, StateId, StructuralViolation, build_finite_graph
from .measures import ConformalFamily, make_family
from .report import dump_json

Vec = np.ndarray

_PAD = 1e-9               # slack of the lattice-strip enumeration
_VALID_TOL = 1e-9         # round-off slack of partition validation
_MEMBER_TOL = 1e-12       # boundary slack of membership, coding and plaques
_CODE_ROUNDING = 2.0 ** -49  # bound on the rounding of a coordinate code_point rescales
_CODE_UNDECIDED_FRAC = 1e-3  # share of a cylinder that code_point's rounding may cover
_MAX_ARC_LEN = 64.0       # longest arc the coordinate solver brackets
_FIBER_BOUNDARY_POINTS = 24
# deepest cylinder cover: the walk recurses once per level, and Python's default limit of
# 1000 frames is reached near depth 996; on the cat map the bracket has closed
# (inner == outer) by depth 40, so 500 cuts off no bit and leaves room for the caller's frames
_MAX_COVER_DEPTH = 500
_Lattice = namedtuple("_Lattice", "basis basis_inv norm_e log_lam cap powers")  # TorusAutomorphism._lattice


# ---------------------------------------------------------------------------
# automorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusAutomorphism:
    """A hyperbolic automorphism and, derived once in ``_lattice``, what the
    lattice walks read: the bases as Python floats, norm_e = max row sum of
    |basis_inv|, log lam_u, cap and, for k <= cap, powers[k] = (A^k exact,
    forms (au, bu, as, bs) with u(A^k(m, n)) = au m + bu n and s(A^k(m, n))
    = as m + bs n, max row sum of |A^k|, lam_u^k).  The cap keeps lam_u^k <=
    2^16, where s of a column of A^k, about lam_s^k, keeps ~20 significant
    bits after cancellation; lam_u >= 2.618 for every admissible matrix, so
    cap <= 11."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    lam_u: float
    lam_s: float
    e_u: Vec
    e_s: Vec
    basis: Vec = field(init=False, repr=False)      # columns e_u, e_s
    basis_inv: Vec = field(init=False, repr=False)  # eigen coords of an xy point: basis_inv @ p
    _lattice: _Lattice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        E = np.column_stack([self.e_u, self.e_s])
        object.__setattr__(self, "basis", E)
        object.__setattr__(self, "basis_inv", np.linalg.inv(E))
        (e00, e01), (e10, e11) = basis_inv = self.basis_inv.tolist()
        log_lam = math.log(self.lam_u)
        powers = []
        for k in range(int(16 * math.log(2) / log_lam) + 1):
            P = (p00, p01), (p10, p11) = _int_power(self.matrix, k)
            forms = (e00 * p00 + e01 * p10, e00 * p01 + e01 * p11, e10 * p00 + e11 * p10, e10 * p01 + e11 * p11)
            powers.append((P, forms, max(abs(p00) + abs(p01), abs(p10) + abs(p11)), self.lam_u ** k))
        object.__setattr__(self, "_lattice", _Lattice(
            self.basis.tolist(), basis_inv, max(abs(e00) + abs(e01), abs(e10) + abs(e11)),
            log_lam, len(powers) - 1, tuple(powers)))

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
    lam_u = (tr + sq) / 2.0
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
    return TorusAutomorphism(
        matrix=((m[0][0], m[0][1]), (m[1][0], m[1][1])),
        lam_u=lam_u, lam_s=lam_s, e_u=e_u, e_s=e_s,
    )


def inverse_automorphism(auto: TorusAutomorphism) -> TorusAutomorphism:
    """The inverse map in the right-handed frame (e_u, e_s) = (e_s, -e_u) of
    ``auto``, so its unstable arcs run along +e_s of ``auto``."""
    (a, b), (c, d) = auto.matrix     # det = 1
    return TorusAutomorphism(
        matrix=((d, -b), (-c, a)),
        lam_u=1.0 / auto.lam_s, lam_s=1.0 / auto.lam_u, e_u=auto.e_s, e_s=-auto.e_u,
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
    # one key (i, j) per edge of the transition graph, in validation order:
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
    that f(R_a) covers, relative to R_b's corner, in s order.  Every offset
    and width, like the report's crossings they come from, is a Python float.
    ``charts[a]``: eigen coordinates of the translates T for which R_a + T
    can meet [0,1)^2.
    ``_code_depth_limit``: the largest n at which ``code_point``'s rounding
    bound, rescaled n - 1 times, stays within ``_CODE_UNDECIDED_FRAC`` of the
    narrowest child interval it is compared with: the narrowest extent /
    lam_u on the unstable side, lam_s times it on the stable side.
    ``_cover_kids[a]``: ``children[a]`` as the cover walk reads it
    (``_cover_children``).
    """

    auto: TorusAutomorphism
    rectangles: list[Rectangle]
    report: PartitionReport = field(repr=False)    # the validation that admitted it
    graph: ShiftGraph = field(init=False)          # one edge per crossing of the report
    by_id: dict[StateId, Rectangle] = field(init=False)
    children: dict = field(init=False, repr=False)
    parents: dict = field(init=False, repr=False)
    charts: dict = field(init=False, repr=False)
    _code_depth_limit: int = field(init=False, repr=False)
    _cover_kids: dict = field(init=False, repr=False)

    def __post_init__(self):
        ids = [r.id for r in self.rectangles]
        self.graph = build_finite_graph(ids, self.report.crossings, base=ids[0], name="partition")
        self.by_id = {r.id: r for r in self.rectangles}
        self.children = {r.id: {} for r in self.rectangles}
        self.parents = {r.id: {} for r in self.rectangles}
        for (a, b), (u_off, _) in sorted(self.report.crossings.items(), key=lambda c: c[1][0]):
            self.children[a][b] = (u_off, self.by_id[b].u_extent / self.auto.lam_u)
        for (a, b), (_, s_off) in sorted(self.report.crossings.items(), key=lambda c: c[1][1]):
            self.parents[b][a] = (s_off, self.auto.lam_s * self.by_id[a].s_extent)
        U, S = _box_image(self.auto.to_eigen, (0.0, 1.0), (0.0, 1.0))
        # + 0.0 turns the -0.0 of T = 0 into the +0.0 that to_eigen's matmul gives it
        self.charts = {r.id: [(uT + 0.0, sT + 0.0) for _, uT, sT in _lattice_in_strips(
            self.auto, (U[0] - r.u_range[1], U[1] - r.u_range[0]), (S[0] - r.s_range[1], S[1] - r.s_range[0]))]
            for r in self.rectangles}
        self._code_depth_limit = min(
            math.floor(math.log(_CODE_UNDECIDED_FRAC * min(extents) / _CODE_ROUNDING)
                       / math.log(growth))
            for extents, growth in (([r.u_extent for r in self.rectangles], self.auto.lam_u),
                                    ([r.s_extent for r in self.rectangles], 1.0 / self.auto.lam_s)))
        self._cover_kids = {a: _cover_children(kids) for a, kids in self.children.items()}

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
        te = auto.to_eigen(np.array(T, dtype=float)).tolist()
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
                crossings[(ri.id, rj.id)] = (u_off, s_off)
    return PartitionReport(disjoint_ok, cover_ok, markov_ok, area,
                           max_u_err, max_s_err, witnesses, crossings)


def make_partition(auto: TorusAutomorphism, rectangles: Sequence[Rectangle]) -> MarkovPartition:
    report = validate_partition(auto, rectangles)
    if not report.ok:
        raise StructuralViolation(
            "invalid Markov partition: " + "; ".join(report.witnesses[:4])
        )
    return MarkovPartition(auto, list(rectangles), report)


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
                       S: tuple[float, float]) -> list[tuple[tuple[int, int], float, float]]:
    """Integer vectors T in the closed box padded by ``_PAD``: u(T) in
    [U[0] - _PAD, U[1] + _PAD] and s(T) in [S[0] - _PAD, S[1] + _PAD], with
    u(T), s(T) the rows of ``basis_inv`` times T in floats.  In (m, then n)
    order, as (T, u(T), s(T)).

    That padded test is the whole admission rule: ``_columns`` lists a
    superset of the points that pass it, and each one is tested.  A long box
    is pulled back by A^k, so its points come out of column order and are
    sorted.
    """
    k, P, _, columns = _columns(auto, U, S)
    (p00, p01), (p10, p11) = P
    (e00, e01), (e10, e11) = auto._lattice.basis_inv
    u_lo, u_hi, s_lo, s_hi = U[0] - _PAD, U[1] + _PAD, S[0] - _PAD, S[1] + _PAD
    hits = []
    for m, a, b in columns:
        for n in range(math.ceil(a), math.floor(b) + 1):
            T0, T1 = p00 * m + p01 * n, p10 * m + p11 * n
            uT, sT = e00 * T0 + e01 * T1, e10 * T0 + e11 * T1
            if u_lo <= uT <= u_hi and s_lo <= sT <= s_hi:
                hits.append(((T0, T1), uT, sT))
    return sorted(hits) if k else hits


def _columns(auto: TorusAutomorphism, U: tuple[float, float], S: tuple[float, float]):
    """The lattice points of U x S column by column, as (k, P, shrink,
    columns).  k <= ``_lattice.cap`` has lam_u^k about sqrt(|U| / |S|), and
    P = A^k and its forms come from ``_lattice.powers[k]``.

    A^k Z^2 = Z^2 since det A = 1, and A^-k scales eigen coordinates by
    (lam_u^-k, lam_s^-k), so the lattice points of U x S are P = A^k (exact
    ints) applied to those of (U/lam_u^k) x (S/lam_s^k).  u and s of P(m, n)
    are linear forms in (m, n), so column m's n-range solves two strip
    conditions whose ends, computed once, are each a constant minus r * m.
    ``columns`` walks the columns m of the pulled-back box widened by eps
    once, and yields (m, a, b) for each, where P(m, n) for integers n in
    [a, b] are the lattice points of U x S widened by eps on each side
    (none if a > b).  The offsets r * m are evaluated once per column.

    ``shrink`` is 2 eps over the smaller |coefficient of n| of the two forms:
    moving a side in by 2 eps moves that strip's end by at most ``shrink``
    in n, so the integers n in [a + shrink, b - shrink] are lattice points of
    U x S shrunk by eps on each side, a subset of the exact shrunk range.

    ``eps`` exceeds ``_PAD`` plus the round-off of every float that decides
    a point: u(T) and s(T), the forms' coefficients, the strip ends, a and
    b and their shifts by ``shrink`` (an ulp of the pulled-back extent) and
    the corners behind the column range, each a few ulp of terms no larger
    than the box's extent or ||A^k|| times the pulled-back box's.  So the
    box widened by eps holds every point of the box padded by ``_PAD``, and
    every point of the box shrunk by eps lies inside it by more than ``_PAD``
    plus round-off.  At k = 0 all of it comes from the box's own coordinates.
    """
    lat = auto._lattice
    wu, ws = U[1] - U[0], S[1] - S[0]
    k = (max(0, min(round(0.5 * math.log(wu / ws) / lat.log_lam), lat.cap))
         if wu >= auto.lam_u * ws and ws > 0 else 0)     # else k rounds to 0
    P, (au, bu, as_, bs), norm_p, lam = lat.powers[k]
    (p00, p01), (p10, p11) = P
    (b00, b01), (b10, b11) = lat.basis
    # a lattice point near the box has |T| <= extent: the basis columns are unit vectors;
    # |(m, n)| <= pulled_extent over the pulled-back box (U/lam_u^k) x (S/lam_s^k)
    u_max, s_max = max(abs(U[0]), abs(U[1])), max(abs(S[0]), abs(S[1]))
    extent, pulled_extent = u_max + s_max + 1.0, u_max / lam + s_max * lam + 1.0
    eps = 8 * _PAD + 2.0 ** -46 * lat.norm_e * (extent + norm_p * pulled_extent)
    # x of the widened box's corners under A^-k = [[p11, -p01], [-p10, p00]], each within r
    xs = [p11 * (b00 * u + b01 * s) - p01 * (b10 * u + b11 * s)
          for u in (U[0] - eps, U[1] + eps) for s in (S[0] - eps, S[1] + eps)]
    r = 2.0 ** -46 * lat.norm_e * norm_p * extent
    ms = range(math.floor(min(xs) - r), math.ceil(max(xs) + r) + 1)
    ru, rs = au / bu, as_ / bs
    # ordered by the sign of the divisor
    u_ends, s_ends = ((U[0] - eps) / bu, (U[1] + eps) / bu), ((S[0] - eps) / bs, (S[1] + eps) / bs)
    lo_u, hi_u = u_ends if bu > 0 else u_ends[::-1]
    lo_s, hi_s = s_ends if bs > 0 else s_ends[::-1]
    shrink = 2 * eps / min(abs(bu), abs(bs))

    def columns():
        # max(a, a_s) and min(b, b_s) without the builtins, in their argument order: -0.0, ties, NaN agree
        for m in ms:
            du, ds = ru * m, rs * m
            a, a_s, b, b_s = lo_u - du, lo_s - ds, hi_u - du, hi_s - ds
            yield m, a_s if a_s > a else a, b_s if b_s < b else b

    return k, P, shrink, columns()


def _int_power(matrix, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """matrix^k of a 2x2 integer matrix, exact in Python ints."""
    (a, b), (c, d) = matrix
    p00, p01, p10, p11 = 1, 0, 0, 1
    for _ in range(k):
        p00, p01, p10, p11 = p00 * a + p01 * c, p00 * b + p01 * d, p10 * a + p11 * c, p10 * b + p11 * d
    return (p00, p01), (p10, p11)


def _chart_of(p: MarkovPartition, r: Rectangle, u: float, s: float) -> Optional[tuple[float, float]]:
    """Eigen coordinates of the point (u, s) in the first chart translate of
    ``r`` that contains it within ``_MEMBER_TOL``; None if no translate does."""
    tol = _MEMBER_TOL
    (cu, cs), u_top, s_top = r.corner, r.u_extent + tol, r.s_extent + tol
    for tu, ts in p.charts[r.id]:
        uc, sc = u - tu, s - ts
        if -tol <= uc - cu <= u_top and -tol <= sc - cs <= s_top:
            return uc, sc
    return None


def memberships(p: MarkovPartition, xy: Vec) -> list[tuple[StateId, float, float]]:
    """Rectangles containing the torus point, with relative (u,s) coordinates.

    Points within ``_MEMBER_TOL`` of a boundary belong to every adjacent rectangle.
    """
    q0, q1 = float(xy[0]) % 1.0, float(xy[1]) % 1.0
    (e00, e01), (e10, e11) = p.auto._lattice.basis_inv
    u, s = e00 * q0 + e01 * q1, e10 * q0 + e11 * q1
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
    """Symbols at times -n..n; ``decode(p, symbols, n)`` gives their box."""

    symbols: tuple[StateId, ...]
    n: int


def code_point(p: MarkovPartition, xy: Vec, n: int) -> list[Itinerary]:
    """All itineraries of f^-n(x)..f^n(x) whose decoded box contains x.

    The unstable interval of an itinerary depends only on its future symbols
    and the stable interval only on its past, so the search descends the
    cylinder tree in each direction keeping the (at most two per level)
    children whose interval still contains x.  Interior orbits yield a single
    itinerary; boundary points several.  Each level rescales x, and with it
    its rounding, so the slack of a comparison is ``_MEMBER_TOL`` plus that
    rounding; past the partition's ``_code_depth_limit``, the rounding
    covers too much of a cylinder to decide, and ValueError is raised.
    """
    _require_whole("n", n)
    _require_finite_point("xy", xy)
    limit = p._code_depth_limit
    if n > limit:
        raise ValueError(f"code_point decides codings only for n <= {limit}: deeper, the "
                         f"rounding of the rescaled coordinate covers more than "
                         f"{_CODE_UNDECIDED_FRAC} of the narrowest cylinder; got n = {n}")
    out = []
    lam_u, lam_s = p.auto.lam_u, p.auto.lam_s
    for rid, u_rel, s_rel in memberships(p, xy):
        futures = _containing(p.children, lambda v: v * lam_u, rid, u_rel, _CODE_ROUNDING, n)
        pasts = _containing(p.parents, lambda v: v / lam_s, rid, s_rel, _CODE_ROUNDING, n)
        out += [Itinerary(past[::-1] + (rid,) + fut, n) for past in pasts for fut in futures]
    out.sort(key=lambda it: it.symbols)
    return out


def _containing(table: dict, rescale, rid: StateId, x: float, err: float,
                n: int) -> list[tuple[StateId, ...]]:
    """Words w_1..w_n, read through ``table`` (``children`` for the future,
    ``parents`` for the past, w_-1..w_-n in that order), whose nested
    intervals contain x within ``_MEMBER_TOL + err``; ``rescale`` maps a
    child's relative coordinate, and the bound ``err`` on its rounding, to
    the child rectangle's."""
    if n == 0:
        return [()]
    words = []
    tol = _MEMBER_TOL + err
    for b, (start, width) in table[rid].items():
        if start - tol <= x <= start + width + tol:
            for rest in _containing(table, rescale, b, rescale(x - start), rescale(err), n - 1):
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

    def __post_init__(self):
        # one check for every walk, which would otherwise fail deep in its lattice arithmetic
        if not (math.isfinite(self.base[0]) and math.isfinite(self.base[1])
                and math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError(f"arc must have a finite base and ends; got {self!r}")

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
    return _clip_tiling(_plaque_tiling(p, arc), arc.t0, arc.t1)


def _plaque_tiling(p: MarkovPartition, arc: UnstableArc) -> list[tuple[StateId, float, float]]:
    """The plaque translates that can meet ``arc``: (rect id, u_lo_t,
    u_extent), u_lo_t the arc parameter where the translate's unstable side
    starts, in rectangle order and then lattice order.

    A translate T of rectangle r can meet the arc when u(T) and s(T) lie in
    r's box, padded by ``_PAD``, and the arc's stable coordinate lies in the
    translate's half-open stable side.  One ``_lattice_in_strips`` walk over
    the union of the rectangles' boxes lists every candidate; each
    rectangle's padded-box test and then its membership test pick its own
    from that one list.  The tiles are those of one walk per rectangle, in
    the same order: u(T) and s(T) depend only on the exact integer T, the
    union's padded box holds every rectangle's, and both walks return their
    points sorted by T.

    A translate admitted for an arc is admitted for every longer arc from the
    same base and t0, with the same u_lo_t: the boxes only grow.  So one
    tiling of [t0, H] serves every [t0, a] with a <= H through
    ``_clip_tiling``, bit for bit; a translate the longer box adds starts
    past a + ~``_PAD`` and the clip drops it.
    """
    if arc.length <= _MEMBER_TOL:
        return []
    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    boxes = []
    for r in p.rectangles:
        cu, cs = r.corner
        boxes.append((u_b + arc.t0 - cu - r.u_extent, u_b + arc.t1 - cu, s_b - cs - r.s_extent, s_b - cs))
    lo_u, hi_u, lo_s, hi_s = zip(*boxes)
    hits = _lattice_in_strips(p.auto, (min(lo_u), max(hi_u)), (min(lo_s), max(hi_s)))
    tiles = []
    for r, (u0, u1, s0, s1) in zip(p.rectangles, boxes):
        cu, cs = r.corner
        u_lo, u_hi, s_lo, s_hi = u0 - _PAD, u1 + _PAD, s0 - _PAD, s1 + _PAD
        top = r.s_extent - _MEMBER_TOL
        tiles += [(r.id, cu + uT - u_b, r.u_extent) for _T, uT, sT in hits
                  if u_lo <= uT <= u_hi and s_lo <= sT <= s_hi and -_MEMBER_TOL <= s_b - sT - cs < top]
    return tiles


def _clip_tiling(tiles: list[tuple[StateId, float, float]], t0: float,
                 t1: float) -> list[tuple[StateId, float, float, float]]:
    """The plaque segments of the arc [t0, t1] of a ``_plaque_tiling``, as
    ``_plaque_segments`` returns them; raises if they do not tile it."""
    tol = _MEMBER_TOL
    length = t1 - t0
    if length <= tol:
        return []
    segs = []
    for rid, u_lo_t, ext in tiles:
        # max(t0, u_lo_t) and min(t1, u_hi_t) without the builtins, in their argument order
        u_hi_t = u_lo_t + ext
        lo = u_lo_t if u_lo_t > t0 else t0
        hi = u_hi_t if u_hi_t < t1 else t1
        if hi - lo > tol:
            segs.append((rid, lo - u_lo_t, hi - u_lo_t, lo))
    segs.sort(key=lambda s: s[3])
    covered = sum(s[2] - s[1] for s in segs)
    if abs(covered - length) > 1e-7 * (1.0 + length):
        raise StructuralViolation(
            f"arc not tiled by plaques: covered {covered:.12f} of {length:.12f}"
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


_NO_CHILD = (math.inf, 0.0, 0.0, 0.0, 0.0)   # a stop frame's reach and child: no walk goes on below


def _cover_children(children: dict) -> tuple[tuple, dict]:
    """One rectangle's ``children`` as ``_walk_cover`` reads them: kids,
    ((b, c_lo, c_hi), ...) in u order, and sides, for each child b its
    (c_lo, c_hi, reach, next_lo) for the descent's frames:
    reach is the largest c_hi of the children before it (-inf if none) and
    next_lo the c_lo of the child after it (inf if none)."""
    kids = tuple((b, c_lo, c_lo + c_w) for b, (c_lo, c_w) in children.items())
    sides, reach = {}, -math.inf
    for j, (b, c_lo, c_hi) in enumerate(kids):
        sides[b] = (c_lo, c_hi, reach, kids[j + 1][1] if j + 1 < len(kids) else math.inf)
        reach = c_hi if c_hi > reach else reach
    return kids, sides


def _cover_table(family: ConformalFamily, p: MarkovPartition) -> dict:
    """What ``_walk_cover`` reads per rectangle, keyed by rectangle id:
    (u_extent, psi, kids, sides), kids and sides as ``_cover_children`` gives
    them.  No walk writes to it."""
    return {r.id: (r.u_extent, family.psi_of(r.id), *p._cover_kids[r.id]) for r in p.rectangles}


def _require_whole(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a whole number >= 0 (3.0 passes;
    2.5, nan and inf do not)."""
    if not (value >= 0 and math.isfinite(value) and value == math.floor(value)):
        raise ValueError(f"{name} must be >= 0 and a whole number; got {value!r}")


def _require_finite_point(name: str, xy: Vec) -> None:
    """Raise ValueError unless both coordinates of the point are finite."""
    x, y = float(xy[0]), float(xy[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be a finite point; got ({x!r}, {y!r})")


def _walk_cover(family: ConformalFamily, p: MarkovPartition,
                segs: list[tuple[StateId, float, float, float]], depth: int,
                target: float, table: Mapping, descent: Optional[tuple] = None
                ) -> tuple[ArcMeasure, Optional[tuple]]:
    """Walk the depth-``depth`` cylinder cover of an arc's plaque segments
    (``_plaque_segments``) in arc order, reading each rectangle's extent,
    psi and children from ``table``, the ``_cover_table`` of ``family`` and
    ``p``; a caller that walks many covers builds it once.  ``depth`` is a
    whole number from 0 to ``_MAX_COVER_DEPTH``.

    The cover rule: within each plaque segment, a cylinder that the arc
    covers to within 1e-12 is whole and adds its mass to inner and outer; a
    cut cylinder is descended into its children (pieces of 1e-15 or less are
    skipped), and at depth 0 it is a boundary cylinder that adds its mass to
    outer only, so ``value`` counts it half.

    The walk stops at the first arc parameter where the running value
    reaches ``target``; a whole cylinder is descended only when its mass
    would reach the target.  It returns the measure walked so far and, on
    the way back up from the stop, records its descent, the second value
    returned, or None if it did not stop: (stop, depth, segs, index of the
    stop's segment, frames), one frame per cylinder from that segment's top
    down to the stop,

        (entry, rid, d, weight, u_extent, clamped lo, reach, c_lo, c_hi, ov_lo, next_lo).

    entry is the (inner, outer, boundary) the walk entered the cylinder with;
    it is kept at the stop and at each whole cylinder (the walk descends
    those only because their mass reaches the target) and is None elsewhere.
    [c_lo, c_hi] is the child the descent went on in and ov_lo the start of
    its overlap.  A walk whose clamped end is >= reach cuts the children
    before that child as the descent did (reach is inf at the stop, and where
    the descent's own end fell short of one of them); a walk whose end is
    within 1e-15 of next_lo misses every child after it.

    With ``target = inf`` it walks the full cover: (measure, None).
    Given the ``descent`` of an earlier walk, when ``segs`` match it up to
    the stop's segment and end in that segment, a full walk resumes it
    (``_resume_point``) instead of starting at the top.  It follows the
    frames while its own end, clamped and cut as ``visit`` does, keeps each
    cylinder cut and reaches the chain's child, with the children before it
    cut as in the descent and those after it missed.  It then restores the
    entry of the deepest frame so reached that has one, and walks that
    cylinder alone.  The result is the walk from the top, bit for bit.
    Every other full walk starts at the top.

    The resume, and ``_resume_point``'s copy of ``visit``'s clamp, whole
    test and overlap rule, stay because each alternative, with the same
    bits, made a ``margulis_coordinates`` solve from (0, 0) (~240-300 us on
    a 2-core Xeon) slower: certificates walked from the top 1.22-1.24x,
    resumed at the top of the stop's plaque segment 1.22-1.29x, and frames
    whose reach and next_lo are found in ``kids`` instead of ``sides``
    1.01-1.08x (medians of 40 interleaved rounds, in three processes).
    """
    _require_whole("depth", depth)
    if depth > _MAX_COVER_DEPTH:
        raise ValueError(f"depth must be <= {_MAX_COVER_DEPTH}; got {depth!r}")
    lam_u = p.auto.lam_u
    wh = math.exp(-family.h)
    inner = outer = 0.0
    boundary = 0
    chain = []   # the descent's frames, deepest first

    def visit(rid: StateId, lo: float, hi: float, d: int, weight: float) -> Optional[float]:
        # the stop's coordinate on this cylinder's unstable side, or None
        nonlocal inner, outer, boundary
        ext, psi, kids, sides = table[rid]
        # max/min as `b if b > a else a` / `b if b < a else a`: same order, so -0.0, ties, NaN agree;
        # _resume_point repeats the clamp, whole test and overlap rule
        lo = 0.0 if 0.0 > lo else lo
        hi = ext if ext < hi else hi
        m = weight * psi
        whole = hi - lo >= ext - 1e-12
        if whole and 0.5 * (inner + outer) + m < target:
            inner += m
            outer += m
            return None
        if d == 0:
            if 0.5 * (inner + outer + m) >= target:
                y = lo
            elif whole:
                y = hi
            else:
                outer += m
                boundary += 1
                return None
            chain.append(((inner, outer, boundary), rid, d, weight, ext, lo) + _NO_CHILD)
            return y
        if whole:   # its mass reaches the target; a full walk never gets here whole
            entry = inner, outer, boundary
        cw = weight * wh
        for b, c_lo, c_hi in kids:
            ov_lo = c_lo if c_lo > lo else lo
            ov_hi = c_hi if c_hi < hi else hi
            if ov_hi - ov_lo > 1e-15:
                y = visit(b, (ov_lo - c_lo) * lam_u, (ov_hi - c_lo) * lam_u, d - 1, cw)
                if y is not None:
                    f_lo, f_hi, reach, next_lo = sides[b]
                    chain.append((entry if whole else None, rid, d, weight, ext, lo,
                                  reach if reach <= hi else math.inf, f_lo, f_hi, ov_lo,
                                  next_lo if next_lo > lo else lo))
                    return c_lo + y / lam_u
        # the children stayed below the target: the cylinder reaches it once whole
        if whole:
            chain.append((entry, rid, d, weight, ext, lo) + _NO_CHILD)
            return hi
        return None

    point = (_resume_point(descent, segs, depth, lam_u)
             if target == math.inf and descent is not None else None)
    if point is not None:
        (inner, outer, boundary), rid, lo, hi, d, weight = point
        visit(rid, lo, hi, d, weight)
    else:
        for i, (rid, lo, hi, t_lo) in enumerate(segs):
            y = visit(rid, lo, hi, depth, 1.0)
            if y is not None:
                stop = (t_lo - lo) + y
                measure = ArcMeasure(inner, outer, depth, boundary, len(segs))
                return measure, (stop, depth, segs, i, chain[::-1])
    return ArcMeasure(inner, outer, depth, boundary, len(segs)), None


def _resume_point(descent: tuple, segs: list[tuple[StateId, float, float, float]],
                  depth: int, lam_u: float) -> Optional[tuple]:
    """Where a full walk of ``segs`` at ``depth`` resumes ``descent``, as
    ``_walk_cover`` records it: (entry, rid, lo, hi, d, weight) for
    the deepest frame with an entry that the walk from the top enters with
    that entry, hi being the walk's own end there; or None."""
    _, d0, crossing, i, frames = descent
    if (d0 != depth or len(segs) != i + 1 or segs[:i] != crossing[:i]
            or segs[i][:2] != crossing[i][:2] or segs[i][3] != crossing[i][3]):
        return None
    hi = segs[i][2]
    point = None
    for frame in frames:
        entry, _, _, _, ext, lo, reach, c_lo, c_hi, ov_lo, next_lo = frame
        if entry is not None:
            point, point_hi = frame, hi
        # visit's clamp, whole test and overlaps, at this walk's end
        hi = ext if ext < hi else hi
        ov_hi = c_hi if c_hi < hi else hi
        if hi < reach or hi - lo >= ext - 1e-12 or hi - next_lo > 1e-15 or not ov_hi - ov_lo > 1e-15:
            break
        hi = (ov_hi - c_lo) * lam_u
    if point is None:
        return None
    entry, rid, d, weight, _, lo = point[:6]
    return entry, rid, lo, point_hi, d, weight


def leaf_arc_measure(family: ConformalFamily, p: MarkovPartition, arc: UnstableArc,
                     depth: int) -> ArcMeasure:
    """Measure of an unstable arc via depth-limited cylinder covers.

    Cylinders fully inside the arc contribute exactly (their refinements
    telescope by harmonicity), so only the <= 2 boundary chains per plaque
    segment are descended; the inner/outer gap is the sum of the unresolved
    boundary cylinders' masses, at most (#boundary) * e^{-depth h} * max psi.
    """
    return _walk_cover(family, p, _plaque_segments(p, arc), depth, math.inf, _cover_table(family, p))[0]


def stable_holonomy(p: MarkovPartition, arc: UnstableArc, target_xy: Vec) -> UnstableArc:
    """Slide an arc along the stable direction onto the target's leaf.

    For a linear map this is a rigid translation parallel to e_s, so the
    endpoint parameters are unchanged.
    """
    _require_finite_point("target_xy", target_xy)
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
    e^{-depth h} because the boundary-cylinder masses do.  Each arc is tiled
    by plaques once, and that tiling serves the ``leaf_arc_measure`` walk of
    every depth; one ``_cover_table`` serves all 2 * len(depths) walks.
    """
    if not depths:
        raise ValueError("depths must be non-empty")
    image = stable_holonomy(p, arc, target_xy)
    segs1, segs2 = _plaque_segments(p, arc), _plaque_segments(p, image)
    table = _cover_table(family, p)
    discrepancies, bounds = [], []
    for d in depths:
        m1 = _walk_cover(family, p, segs1, d, math.inf, table)[0]
        m2 = _walk_cover(family, p, segs2, d, math.inf, table)[0]
        discrepancies.append(abs(m1.value - m2.value))
        bounds.append(m1.error_bound + m2.error_bound)
    passed = all(d <= b + 1e-15 for d, b in zip(discrepancies, bounds))
    return HolonomyReport(list(depths), discrepancies, bounds, passed)


# ---------------------------------------------------------------------------
# intersection counts, conformal scaling, coordinates
# ---------------------------------------------------------------------------

def intersection_count(p: MarkovPartition, arc: UnstableArc, i: int,
                       anchor_xy: Vec, anchor_symbol: StateId) -> int:
    """|arc ∩ f^-i(stable plaque through the anchor)|, counted column by column.

    The plaque is the full stable side of the anchor's rectangle; the anchor
    must be an interior (periodic) point.  Intersections are transversal for
    a linear map: each one is a lattice translate T whose u(T) and s(T) lie
    in the box U x S below.  The count is the number of lattice points T with
    u(T) in [U[0] - _PAD, U[1] - _PAD) and s(T) in (S[0] + _PAD, S[1] + _PAD],
    half-open so that an end point counts once (``_count_in_box``).  The box
    is lam_u^i long and about one high, so it is pulled back by A^k to an
    about square box and its columns are walked once; a column adds the
    length of its safe inner n-range with one subtraction, and only the few
    candidates near the box's sides are tested one at a time.  That is
    ~sqrt(count) steps.  ``i`` must be a whole number >= 0.

    The count equals the number of cylinder words as long as the float error
    of the box's ends stays below ``_PAD``; Lu * (u_b + t) carries an error of
    a few ulp of lam_u^i, which passes ``_PAD`` near i = 20 for the cat map,
    so from there a point near an end can be counted on the wrong side.
    """
    _require_whole("i", i)
    rid, u_rel, _ = locate(p, anchor_xy)
    if rid != anchor_symbol:
        raise ValueError(f"anchor lies in {rid!r}, not {anchor_symbol!r}")
    r = p.rect(anchor_symbol)
    u_a = r.corner[0] + u_rel
    s_lo, s_hi = r.corner[1], r.corner[1] + r.s_extent

    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    Lu = p.auto.lam_u ** i
    Ls = p.auto.lam_s ** i
    # the box of the lattice translates T, before the _PAD shift:
    #   u(T) in [Lu*(u_b + t0) - u_a, Lu*(u_b + t1) - u_a)   (t in [t0, t1))
    #   s(T) in (Ls*s_b - s_hi, Ls*s_b - s_lo]
    U = (Lu * (u_b + arc.t0) - u_a, Lu * (u_b + arc.t1) - u_a)
    S = (Ls * s_b - s_hi, Ls * s_b - s_lo)
    return _count_in_box(p.auto, U, S)


def _count_in_box(auto: TorusAutomorphism, U: tuple[float, float], S: tuple[float, float]) -> int:
    """The number of lattice points T with u(T) in [U[0] - _PAD, U[1] - _PAD)
    and s(T) in (S[0] + _PAD, S[1] + _PAD], u(T) and s(T) computed as
    ``_lattice_in_strips`` computes them.

    One pass over ``_columns``' columns.  Each column's n-interval [a, b]
    gives two ranges: the widened box's ceil(a)..floor(b) holds every point
    that can pass, and the inner ceil(a + shrink)..floor(b - shrink) lies in
    the box shrunk by ``_columns``' margin, so inside that half-open box.  A
    column whose two ranges agree adds its length and is done; elsewhere
    the inner range adds its length with one subtraction and only the
    points between the two ranges are tested one at a time.

    Agreement is decided with two roundings: lo, hi = ceil(a), floor(b), and
    the ranges agree exactly when a + shrink <= lo and b - shrink >= hi.
    shrink > 0 and rounding is monotone, so the float a + shrink is >= a >
    lo - 1, and its ceil is lo exactly when it is <= lo; likewise at b with
    floor.  Python compares a float with an int exactly.  Only the few
    columns that do not agree round a + shrink and b - shrink.
    """
    _, P, shrink, columns = _columns(auto, U, S)
    (p00, p01), (p10, p11) = P
    (e00, e01), (e10, e11) = auto._lattice.basis_inv
    u_lo, u_hi, s_lo, s_hi = U[0] - _PAD, U[1] - _PAD, S[0] + _PAD, S[1] + _PAD
    ceil, floor = math.ceil, math.floor
    count = 0
    for m, a, b in columns:
        lo, hi = ceil(a), floor(b)
        if a + shrink <= lo and b - shrink >= hi:   # ceil(a + shrink) == lo, floor(b - shrink) == hi
            if lo <= hi:
                count += hi - lo + 1
            continue
        i_lo, i_hi = ceil(a + shrink), floor(b - shrink)
        if i_lo <= i_hi:
            count += i_hi - i_lo + 1
            rest = chain(range(lo, i_lo), range(i_hi + 1, hi + 1))
        else:
            rest = range(lo, hi + 1)
        for n in rest:
            T0, T1 = p00 * m + p01 * n, p10 * m + p11 * n
            uT, sT = e00 * T0 + e01 * T1, e10 * T0 + e11 * T1
            count += u_lo <= uT < u_hi and s_lo < sT <= s_hi
    return count


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
    _require_whole("k", k)
    Ak = _int_power(p.auto.matrix, int(k))    # exact Python ints (int64 overflows at k >= 46)
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


def _measure_crossing(family: ConformalFamily, p: MarkovPartition,
                      segs: list[tuple[StateId, float, float, float]], target: float,
                      depth: int, table: Mapping) -> tuple[Optional[float], Optional[tuple]]:
    """(stop, descent): the arc length a at which the ``value`` of
    ``leaf_arc_measure`` for the arc [0, a] first reaches ``target``,
    searched along the arc from 0 whose plaque segments are ``segs``, and
    the descent that found it; (None, None) if that whole arc stays below.
    ``table`` is the ``_cover_table`` of ``family`` and ``p``.

    It is where ``_walk_cover`` stops on that arc.  Rounding and the cover's
    1e-12/1e-15 slack can move it by ~1e-15, so callers certify it with real
    measures, whose walks may resume the descent.
    """
    descent = _walk_cover(family, p, segs, depth, target, table)[1]
    return (None, None) if descent is None else (descent[0], descent)


def _arc_length_solve(family: ConformalFamily, p: MarkovPartition, base: tuple[float, float],
                      target: float, tol: float, depth: int) -> float:
    """Midpoint of the dyadic cell [lo, hi], hi - lo <= tol, of the arc length
    a with value(lo) < target <= value(hi), where value(a) is the
    ``leaf_arc_measure(...).value`` of the arc of length a from ``base`` along
    +e_u.

    The grid is that of bisecting [0, H], H the first power of two whose arc
    reaches the target.  ``_measure_crossing`` picks the cell and two real
    measures certify it; if they do not, plain bisection of [0, H] finds it.
    The arc [0, H] is tiled by plaques once (``_plaque_tiling``), and that
    tiling, clipped, serves the crossing search and every measure of an arc
    no longer than H; a longer arc is tiled afresh.  One ``_cover_table``
    serves every cover walk of the solve: the crossing search and both
    certificates, and the fallback bisection if they fail.

    The certificates' walks are handed the crossing walk's descent and
    resume it (``_walk_cover``): the arcs [0, lo] and [0, hi] end within one
    cell of its stop, so their walks leave its chain of cylinders only in
    the last level or two, and each restores the accumulators the descent
    had there and walks on from there.  A certificate walks from the top
    when the hint is not that descent's stop (the descent is then dropped),
    when its arc is longer than H or ends in another plaque segment than the
    stop, and when its end leaves the chain above every cylinder the descent
    recorded.
    """
    if not 0.0 <= target < math.inf:
        raise ValueError(f"coordinates must be finite and >= 0; got {target!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite; got {tol!r}")
    if target == 0:
        return 0.0

    table = _cover_table(family, p)
    exceeds = f"coordinate {target} exceeds the measurable leaf mass within length {_MAX_ARC_LEN}"
    length = 0.5
    b = None
    while b is None:
        length *= 2.0
        if length > _MAX_ARC_LEN:
            raise ValueError(exceeds)
        tiles = _plaque_tiling(p, UnstableArc(base, 0.0, length))
        b, descent = _measure_crossing(family, p, _clip_tiling(tiles, 0.0, length), target, depth, table)
    if descent is not None and descent[0] != b:
        descent = None   # the hint is not that descent's stop: the certificates walk from the top

    def value(a: float) -> float:
        segs = (_clip_tiling(tiles, 0.0, a) if a <= length
                else _plaque_segments(p, UnstableArc(base, 0.0, a)))
        return _walk_cover(family, p, segs, depth, math.inf, table, descent)[0].value

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
    over if they do not).  Per axis, one plaque tiling of the arc [0, H]
    serves the descent and both certificates, whose cover walks resume the
    descent a level or two above its stop (``_arc_length_solve``).  The
    certified inequality holds for every family; where the measure is
    monotone in the arc length (a harmonic psi) that cell is the only one,
    so the result is the one plain bisection returns.
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
    boundary_min: int
    interior_unique_fraction: float

    @property
    def passed(self) -> bool:
        return self.max_fiber <= self.bound and self.boundary_min >= 2


def fiber_bound_check(p: MarkovPartition, samples: int, seed: int = 0,
                      n: int = 6) -> FiberReport:
    """Max coding-fiber size over random and constructed boundary points.

    The bound is (degree_bound + 1)^2 - 1 for the partition's transition
    graph.  Boundary points are placed on unstable-side boundaries and must
    be multiply coded: the check fails if one of them has fewer than two
    codings.
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
    boundary = [len(code_point(p, q, n)) for q in extra]
    max_fiber = max(max_fiber, *boundary)
    return FiberReport(max_fiber, bound, samples, max(boundary), min(boundary),
                       unique / samples)
