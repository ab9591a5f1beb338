import math

import mpmath
import numpy as np
import pytest

from margulis import torus
from margulis.measures import make_family
from margulis.thermo import gurevich_entropy, harmonic_finite
from margulis.torus import (
    Rectangle,
    UnstableArc,
    builtin_partition,
    code_point,
    conformality_on_leaves,
    cylinder_image_arc,
    decode,
    fiber_bound_check,
    full_u_side_arc,
    holonomy_invariance_check,
    intersection_count,
    inverse_partition,
    leaf_arc_measure,
    make_automorphism,
    margulis_coordinates,
    memberships,
    partition_family,
    periodic_ray_divergence,
    stable_holonomy,
    validate_partition,
)

LAM_CAT = (3 + math.sqrt(5)) / 2
PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def cat():
    return builtin_partition("cat-adler-weiss")


@pytest.fixture(scope="module")
def cat_family(cat):
    return partition_family(cat)


# -- automorphisms -------------------------------------------------------------

def test_make_automorphism_cat():
    auto = make_automorphism([[2, 1], [1, 1]])
    assert auto.lam_u == pytest.approx(LAM_CAT, abs=1e-14)
    assert auto.lam_s == pytest.approx(1 / LAM_CAT, abs=1e-14)
    A = np.array(auto.matrix, dtype=float)
    assert np.max(np.abs(A @ auto.e_u - auto.lam_u * auto.e_u)) < 1e-13


def test_make_automorphism_rejects_negative_eigenvalues():
    # det -1 (lam_s = -1/phi) and trace -3 (both eigenvalues negative)
    for m in ([[1, 1], [1, 0]], [[-2, 1], [1, -1]]):
        with pytest.raises(ValueError, match=r"use the square of the map"):
            make_automorphism(m)


@pytest.mark.parametrize("m", [[[2, 1], [1, 1]], [[1, 1], [1, 2]], [[3, 1], [2, 1]],
                               [[3, 2], [1, 1]], [[5, 2], [2, 1]]])
def test_inverse_automorphism_takes_the_forward_frame(m):
    a = make_automorphism(m)
    inv = torus.inverse_automorphism(a)
    assert np.array_equal(inv.e_u, a.e_s) and np.array_equal(inv.e_s, -a.e_u)
    assert np.linalg.det(inv.basis) > 0
    A, B = np.array(a.matrix), np.array(inv.matrix)
    assert np.array_equal(B @ A, np.eye(2, dtype=int))
    Bf = B.astype(float)
    assert np.max(np.abs(Bf @ inv.e_u - inv.lam_u * inv.e_u)) < 1e-13
    assert np.max(np.abs(Bf @ inv.e_s - inv.lam_s * inv.e_s)) < 1e-13


def test_make_automorphism_rejects_parabolic():
    with pytest.raises(ValueError, match="hyperbolic"):
        make_automorphism([[1, 1], [0, 1]])


def test_make_automorphism_rejects_non_unimodular():
    with pytest.raises(ValueError, match="unimodular"):
        make_automorphism([[2, 0], [0, 2]])


def test_make_automorphism_rejects_non_integer():
    with pytest.raises(ValueError, match="integer"):
        make_automorphism([[2.5, 1], [1, 1]])


# -- partition ------------------------------------------------------------------

def test_builtin_partition_validates(cat):
    rep = validate_partition(cat.auto, cat.rectangles)
    assert rep.ok
    assert rep.area_total == pytest.approx(1.0, abs=1e-12)
    assert rep.max_u_cross_err < 1e-9 and rep.max_s_fit_err < 1e-9


def test_builtin_partition_literals_match_closed_forms(cat):
    # corner and u_extent: x-cuts times kappa_u |v_u|; s_extent: heights times
    # kappa_s |v_u|, with kappa_u = phi/sqrt5 and kappa_s = (5+3 sqrt5)/10 in
    # Q[sqrt5] and |v_u| = sqrt(1 + phi^-2)
    mp = mpmath.mp.clone()  # a private 50-digit context
    mp.dps = 50
    s5 = mp.sqrt(5)
    phi = (1 + s5) / 2
    vu = mp.sqrt(1 + phi ** -2)
    kappa_u, kappa_s = phi / s5, (5 + 3 * s5) / 10
    x = [0, s5 - 2, (3 - s5) / 2, (s5 - 1) / 2, 3 - s5, 1]
    y = [1, 1, 1, 1 / phi, 1 / phi]
    for k, r in enumerate(cat.rectangles):
        assert r.id == f"R{k + 1}" and r.corner[1] == 0.0
        for literal, exact in ((r.corner[0], x[k] * kappa_u * vu),
                               (r.u_extent, (x[k + 1] - x[k]) * kappa_u * vu),
                               (r.s_extent, y[k] * kappa_s * vu)):
            assert abs(mp.mpf(literal) - exact) <= 8 * math.ulp(literal)


def test_builtin_partition_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_partition("weiss-adler")


def test_partition_spectral_radius_matches_lam_u(cat):
    est = gurevich_entropy(cat.graph, "R1", 40, "ratio")
    assert abs(est.value - math.log(LAM_CAT)) < 1e-9


def test_partition_rejects_shrunk_rectangle(cat):
    rects = list(cat.rectangles)
    r = rects[0]
    rects[0] = Rectangle(r.id, r.corner, r.u_extent * 0.99, r.s_extent)
    rep = validate_partition(cat.auto, rects)
    assert not rep.ok
    assert any("Markov violation" in w or "overlap" in w or "area" in w
               for w in rep.witnesses)


def test_partition_rejects_whole_torus_square(cat):
    # a single unit square is not a proper partition rectangle for the cat map
    big = [Rectangle("Q", (0.0, 0.0), 1.2, 1.2)]
    rep = validate_partition(cat.auto, big)
    assert not rep.ok


@pytest.mark.parametrize("T", [(3, -2), (-5, 7), (13, 8)])
def test_partition_validation_is_chart_independent(cat, T):
    # a rectangle moved by a lattice vector is the same set on the torus
    te = cat.auto.to_eigen(np.array(T, dtype=float))
    rects = [Rectangle(r.id, (r.corner[0] + te[0], r.corner[1] + te[1]), r.u_extent, r.s_extent)
             if r.id == "R3" else r for r in cat.rectangles]
    rep = validate_partition(cat.auto, rects)
    assert rep.ok, rep.witnesses
    assert rep.edges == validate_partition(cat.auto, cat.rectangles).edges


def test_u_extents_are_perron_eigenvector(cat):
    hf = harmonic_finite(cat.graph, "R1")
    scale = cat.rect("R1").u_extent
    for r in cat.rectangles:
        assert r.u_extent / scale == pytest.approx(hf.values[r.id], abs=1e-10)


@pytest.mark.parametrize("inverse", [False, True])
def test_cylinder_tree_tiles_each_rectangle(cat, inverse):
    # children[a] tiles R_a's unstable side in u order, parents[b] R_b's stable side
    p = inverse_partition(cat) if inverse else cat
    for r in p.rectangles:
        assert sorted(p.children[r.id]) == sorted(p.graph.successors(r.id))
        assert sorted(p.parents[r.id]) == sorted(p.graph.predecessors(r.id))
        assert list(p.children[r.id].values()) == sorted(p.children[r.id].values())
        for table, extent in ((p.children, r.u_extent), (p.parents, r.s_extent)):
            end = 0.0
            for start, width in sorted(table[r.id].values()):
                assert abs(start - end) <= 1e-12
                end = start + width
            assert abs(end - extent) <= 1e-12


# -- coding ----------------------------------------------------------------------

def test_code_point_fixed_point_constant_itinerary(cat):
    its = code_point(cat, np.array([0.0, 0.0]), 4)
    assert any(len(set(it.symbols)) == 1 for it in its)
    assert 1 <= len(its) <= (cat.graph.degree_bound + 1) ** 2 - 1


def test_code_point_generic_unique_and_round_trip(cat):
    rng = np.random.default_rng(42)
    unique = 0
    for _ in range(1000):
        x = rng.random(2)
        its = code_point(cat, x, 8)
        unique += len(its) == 1
        for it in its:
            d = np.abs(np.array(it.center_estimate) - x)
            d = np.minimum(d, 1.0 - d)
            assert math.hypot(*d) <= it.radius + 1e-9
    assert unique >= 990


def test_code_point_boundary_multiple(cat):
    r = cat.rect("R2")
    us = np.array([r.corner[0] + 0.37 * r.u_extent, r.corner[1]])  # on an unstable side
    xy = cat.auto.to_xy(us) % 1.0
    its = code_point(cat, xy, 5)
    assert 2 <= len(its) <= (cat.graph.degree_bound + 1) ** 2 - 1


def test_inverse_partition_codes_reversed(cat):
    # the past of a point under f is its future under f^-1, so the parents
    # table must agree with the children table of an independently validated partition
    p_inv = inverse_partition(cat)
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = rng.random(2)
        its = code_point(cat, x, 5)
        assert len(its) == 1
        assert [it.symbols for it in code_point(p_inv, x, 5)] == [its[0].symbols[::-1]]


def test_decode_radius_shrinks(cat):
    its = code_point(cat, np.array([0.3, 0.4]), 25)
    assert its[0].radius < 1e-8  # lam_u^-25 scale


def test_decode_rejects_inadmissible(cat):
    with pytest.raises(ValueError, match="empty intersection"):
        decode(cat, ["R2", "R1"], zero_index=0)  # no edge R2 -> R1


# -- leaf measures ----------------------------------------------------------------

def test_full_u_side_measure_is_psi_every_depth(cat, cat_family):
    for r in cat.rectangles:
        arc = full_u_side_arc(cat, r.id)
        for depth in (0, 3, 7):
            m = leaf_arc_measure(cat_family, cat, arc, depth)
            assert m.value == pytest.approx(cat_family.psi_of(r.id), abs=1e-14)
            assert m.error_bound == pytest.approx(0.0, abs=1e-15)


def test_cylinder_image_arc_measure(cat, cat_family):
    fut = ["R1", "R2", "R4"]
    arc = cylinder_image_arc(cat, "R1", fut)
    m = leaf_arc_measure(cat_family, cat, arc, 6)
    expected = math.exp(-3 * cat_family.h) * cat_family.psi_of("R4")
    assert m.value == pytest.approx(expected, rel=1e-12)


def test_empty_arc_measures_zero(cat, cat_family):
    m = leaf_arc_measure(cat_family, cat, UnstableArc((0.2, 0.2), 0.5, 0.5), 6)
    assert m.value == 0.0


def test_inner_outer_bracket_and_bound(cat, cat_family):
    arc = UnstableArc((0.31, 0.47), 0.0, 0.23)
    psi_max = max(cat_family.psi_of(r.id) for r in cat.rectangles)
    for depth in (3, 6, 9):
        m = leaf_arc_measure(cat_family, cat, arc, depth)
        assert m.inner <= m.outer
        assert m.outer - m.inner <= m.boundary_cylinders * math.exp(-depth * cat_family.h) * psi_max + 1e-15


def _descend_measure(family, p, arc, depth):
    """(inner, outer, boundary_cylinders, segments) by a plain recursion over
    the cover, which never stops early: the reference that
    ``torus._walk_cover`` must match bit for bit."""
    lam_u = p.auto.lam_u
    wh = math.exp(-family.h)
    acc = {"inner": 0.0, "outer": 0.0, "boundary": 0}

    def descend(rid, lo, hi, d, weight):
        r = p.rect(rid)
        lo, hi = max(lo, 0.0), min(hi, r.u_extent)
        if hi - lo <= 1e-15:
            return
        if hi - lo >= r.u_extent - 1e-12:
            m = weight * family.psi_of(rid)
            acc["inner"] += m
            acc["outer"] += m
            return
        if d == 0:
            acc["outer"] += weight * family.psi_of(rid)
            acc["boundary"] += 1
            return
        for b, (c_lo, c_w) in p.children[rid].items():
            c_hi = c_lo + c_w
            ov_lo, ov_hi = max(lo, c_lo), min(hi, c_hi)
            if ov_hi - ov_lo > 1e-15:
                descend(b, (ov_lo - c_lo) * lam_u, (ov_hi - c_lo) * lam_u, d - 1, weight * wh)

    segs = torus._plaque_segments(p, arc)
    for rid, lo, hi, _ in segs:
        descend(rid, lo, hi, depth, 1.0)
    return acc["inner"], acc["outer"], acc["boundary"], len(segs)


def _scaled_r1(p, family):
    """``family`` with psi(R1) x 1.3: not harmonic."""
    psi = dict(family.psi)
    psi["R1"] *= 1.3
    return make_family(p.graph, family.h, psi)


def test_leaf_arc_measure_matches_the_descent_reference(cat, cat_family, stable_model):
    p_inv, fam_s = stable_model
    models = [(cat_family, cat), (fam_s, p_inv), (_scaled_r1(cat, cat_family), cat)]
    rng = np.random.default_rng(31)
    for _ in range(40):
        base = rng.random(2)
        t0 = float(rng.random()) - 0.5
        arc = UnstableArc((float(base[0]), float(base[1])), t0, t0 + 1.5 * float(rng.random()) ** 2)
        for family, p in models:
            for depth in (0, 1, 4, 8, 12, 16):
                m = leaf_arc_measure(family, p, arc, depth)
                got = (m.inner, m.outer, m.boundary_cylinders, m.segments)
                assert got == _descend_measure(family, p, arc, depth), (arc, depth)


def test_stable_holonomy_identity_and_translation(cat):
    arc = UnstableArc((0.3, 0.4), 0.0, 0.1)
    same = stable_holonomy(cat, arc, np.array([0.3, 0.4]))
    assert same.base == pytest.approx(arc.base)
    moved = stable_holonomy(cat, arc, np.array([0.9, 0.05]))
    # endpoints keep their u-coordinates
    bu = cat.auto.to_eigen(np.array(arc.base))[0]
    mu = cat.auto.to_eigen(np.array(moved.base))[0]
    assert (mu - bu) % 1e9 == pytest.approx((mu - bu))  # finite
    assert moved.t0 == arc.t0 and moved.t1 == arc.t1


def test_holonomy_invariance_within_and_cross(cat, cat_family):
    rng = np.random.default_rng(5)
    cross = 0
    for _ in range(30):
        base = rng.random(2)
        arc = UnstableArc((float(base[0]), float(base[1])), 0.0, 0.1 + 0.2 * float(rng.random()))
        target = rng.random(2)
        if memberships(cat, np.array(arc.base))[0][0] != memberships(cat, target)[0][0]:
            cross += 1
        rep = holonomy_invariance_check(cat_family, cat, arc, target, depths=(6, 12))
        assert rep.passed
        d6, d12 = rep.discrepancies
        assert d12 <= math.exp(-6 * cat_family.h) * d6 + 1e-14
        # certified bounds decay geometrically
        assert rep.combined_bounds[1] <= rep.combined_bounds[0] * math.exp(-6 * cat_family.h) * PHI * (1 + 1e-9)
    assert cross >= 5


def test_holonomy_bracket_form_on_seeded_arcs(cat, cat_family):
    # the form the measure brackets imply: each discrepancy lies within the
    # combined truncation bound, and the bound does not grow with depth.  The
    # first arc has d6 exactly 0 and d12 > 0, so a relative decay test
    # d12 <= e^{-6h} d6 fails there while the brackets hold
    arcs = [((0.5309401726529681, 0.14090019403949317), 0.2652108550275934,
             (0.050220152637389104, 0.5106423464401804))]
    rng = np.random.default_rng(2024)
    for _ in range(300):
        base = rng.random(2)
        arcs.append(((float(base[0]), float(base[1])), 0.1 + 0.3 * float(rng.random()),
                     rng.random(2)))
    for i, (base, length, target) in enumerate(arcs):
        rep = holonomy_invariance_check(cat_family, cat, UnstableArc(base, 0.0, length),
                                        target, depths=(6, 12))
        (d6, d12), (b6, b12) = rep.discrepancies, rep.combined_bounds
        assert d6 <= b6 and d12 <= b12, (base, length)
        assert b12 <= b6, (base, length)
        if i == 0:
            assert d6 == 0.0 < d12


def test_holonomy_invariance_check_rejects_no_depths(cat, cat_family):
    arc = UnstableArc((0.3, 0.4), 0.0, 0.1)
    with pytest.raises(ValueError, match="depths"):
        holonomy_invariance_check(cat_family, cat, arc, (0.9, 0.05), depths=())


# -- intersection counts ------------------------------------------------------------

def anchor(cat):
    xy = (0.8, 0.6)  # period-2 orbit point of [[2,1],[1,1]], interior
    rid = memberships(cat, np.array(xy))[0][0]
    return xy, rid


def test_anchor_is_periodic_interior(cat):
    xy, rid = anchor(cat)
    A = np.array(cat.auto.matrix, dtype=float)
    z = (A @ (A @ np.array(xy))) % 1.0
    assert np.max(np.abs(z - np.array(xy))) < 1e-12
    assert len(memberships(cat, np.array(xy))) == 1


def test_intersection_count_i0_membership(cat, cat_family):
    xy, rid = anchor(cat)
    # the plaque itself meets the full u-side of its own rectangle exactly once
    arc = full_u_side_arc(cat, rid, s_frac=1 / math.sqrt(2))
    assert intersection_count(cat, arc, 0, xy, rid) == 1
    other = next(r.id for r in cat.rectangles if r.id != rid)
    arc2 = full_u_side_arc(cat, other, s_frac=1 / math.sqrt(2))
    assert intersection_count(cat, arc2, 0, xy, rid) == 0


def test_intersection_count_equals_word_count(cat):
    from margulis.counting import count_words
    xy, rid = anchor(cat)
    arc = cylinder_image_arc(cat, "R1", ["R2", "R4", "R5"], s_frac=1 / math.sqrt(2))
    for i in (3, 6, 9):
        geo = intersection_count(cat, arc, i, xy, rid)
        sym = count_words(cat.graph, "R5", rid, i - 3).counts[i - 3]
        assert geo == sym


def test_intersection_count_growth_rate(cat):
    xy, rid = anchor(cat)
    arc = full_u_side_arc(cat, "R1", s_frac=1 / math.sqrt(2))
    ratios = []
    for i in range(8, 14):
        c = intersection_count(cat, arc, i, xy, rid)
        ratios.append(c / cat.auto.lam_u ** i)
    assert min(ratios) > 0.01
    assert max(ratios) / min(ratios) < 3.0


# -- conformal scaling and rays ------------------------------------------------------

def test_conformality_on_leaves(cat, cat_family):
    arc = full_u_side_arc(cat, "R1")
    rep = conformality_on_leaves(cat_family, cat, arc, 1)
    assert abs(rep.ratio - math.exp(cat_family.h)) < 1e-6 * rep.expected
    rep0 = conformality_on_leaves(cat_family, cat, arc, 0)
    assert rep0.ratio == 1.0
    generic = UnstableArc((0.21, 0.68), 0.0, 0.17)
    for k in (1, 5):
        rep = conformality_on_leaves(cat_family, cat, generic, k, depth=16)
        assert rep.rel_err < 1e-5


def test_conformality_rel_err_within_its_bound(cat, cat_family):
    # at shallow depths rel_err is of the bound's order, so a bound too small shows
    rng = np.random.default_rng(17)
    for _ in range(150):
        base = rng.random(2)
        arc = UnstableArc((float(base[0]), float(base[1])), 0.0, 0.05 + 0.3 * float(rng.random()))
        for k in range(4):
            for depth in (2, 4, 6):
                rep = conformality_on_leaves(cat_family, cat, arc, k, depth)
                assert rep.rel_err <= rep.bound, (arc, k, depth)


def test_periodic_ray_divergence(cat, cat_family):
    tr = periodic_ray_divergence(cat_family, cat, (0.0, 0.0), +1, K=8)
    assert tr[8] / tr[0] == pytest.approx(math.exp(8 * cat_family.h), rel=1e-12)
    assert tr[8] > 1e3 * tr[0]
    tr_neg = periodic_ray_divergence(cat_family, cat, (0.0, 0.0), -1, K=8)
    assert tr_neg[8] / tr_neg[0] == pytest.approx(tr[8] / tr[0], rel=1e-12)
    with pytest.raises(ValueError, match="periodic"):
        periodic_ray_divergence(cat_family, cat, (0.123, 0.456), +1, K=3)


# -- coordinates and fibers ------------------------------------------------------------

def test_margulis_coordinates_origin(cat, cat_family):
    p_inv = inverse_partition(cat)
    fam_s = partition_family(p_inv)
    mp = margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), 0.0, 0.0)
    assert mp.point == pytest.approx((0.0, 0.0), abs=1e-12)
    assert mp.alpha == 0.0 and mp.gamma == 0.0


def test_margulis_coordinates_monotone(cat, cat_family):
    p_inv = inverse_partition(cat)
    fam_s = partition_family(p_inv)
    alphas = [margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), x, 0.1).alpha
              for x in (0.05, 0.15, 0.3)]
    assert alphas[0] < alphas[1] < alphas[2]


def test_margulis_coordinates_range_error(cat, cat_family):
    p_inv = inverse_partition(cat)
    fam_s = partition_family(p_inv)
    with pytest.raises(ValueError, match="exceeds"):
        margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), 1e9, 0.0)


def _bisection(measure_fn, target, tol):
    """Reference solver: bracket by doubling from 1, then bisect [0, hi]."""
    if target == 0:
        return 0.0
    hi = 1.0
    while measure_fn(hi) < target:
        hi *= 2.0
        if hi > 64.0:
            raise ValueError("exceeds")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if measure_fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _arc_value(family, p, base, depth=16):
    """a -> leaf_arc_measure(...).value of the arc of length a from base."""
    def value(a):
        return leaf_arc_measure(family, p, UnstableArc(base, 0.0, a), depth).value
    return value


def _bisection_coordinates(fam_u, p, fam_s, p_inv, fixed_xy, x, y, tol=1e-9):
    fp = np.asarray(fixed_xy, dtype=float) % 1.0
    base = tuple(fp.tolist())
    alpha = _bisection(_arc_value(fam_u, p, base), x, tol)
    gamma = _bisection(_arc_value(fam_s, p_inv, base), y, tol)
    z = (fp + alpha * p.auto.e_u + gamma * p.auto.e_s) % 1.0
    return (float(z[0]), float(z[1])), alpha, gamma


def _grid_step(tol):
    """Cell width of bisecting [0, 2^k], k >= 0, down to width <= tol < 1."""
    w = 1.0
    while w > tol:
        w *= 0.5
    return w


@pytest.fixture(scope="module")
def stable_model(cat):
    p_inv = inverse_partition(cat)
    return p_inv, partition_family(p_inv)


def test_margulis_coordinates_match_bisection_on_grid(cat, cat_family, stable_model, monkeypatch):
    p_inv, fam_s = stable_model
    calls = []
    real = torus.leaf_arc_measure
    monkeypatch.setattr(torus, "leaf_arc_measure", lambda *a: calls.append(1) or real(*a))
    grid = np.linspace(0.3 / 5, 0.3, 5)
    for x in grid:
        for y in grid:
            calls.clear()
            mp = margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), float(x), float(y))
            assert len(calls) == 4  # the two certificate measures per axis
            point, alpha, gamma = _bisection_coordinates(cat_family, cat, fam_s, p_inv,
                                                         (0.0, 0.0), float(x), float(y))
            assert (mp.alpha, mp.gamma, mp.point) == (alpha, gamma, point)


def test_margulis_coordinates_match_bisection_at_random_bases(cat, cat_family, stable_model):
    p_inv, fam_s = stable_model
    rng = np.random.default_rng(2024)
    for _ in range(100):
        base = rng.random(2)
        x, y = 0.6 * (1.0 - rng.random(2))
        mp = margulis_coordinates(cat_family, cat, fam_s, p_inv, base, float(x), float(y))
        point, alpha, gamma = _bisection_coordinates(cat_family, cat, fam_s, p_inv,
                                                     base, float(x), float(y))
        assert (mp.alpha, mp.gamma, mp.point) == (alpha, gamma, point)


def test_margulis_coordinates_match_bisection_on_the_inverse_pair(stable_model):
    # (p_inv, inverse_partition(p_inv)): the stable model's frame comes from
    # p_inv, so its arcs run along +e_s of p_inv like the reference's
    p_inv, fam_s = stable_model
    q = inverse_partition(p_inv)
    fam_q = partition_family(q)
    rng = np.random.default_rng(7)
    for _ in range(20):
        base = rng.random(2)
        x, y = 0.6 * (1.0 - rng.random(2))
        mp = margulis_coordinates(fam_s, p_inv, fam_q, q, base, float(x), float(y))
        point, alpha, gamma = _bisection_coordinates(fam_s, p_inv, fam_q, q,
                                                     base, float(x), float(y))
        assert (mp.alpha, mp.gamma, mp.point) == (alpha, gamma, point)


@pytest.mark.parametrize("x, y", [(math.nan, 0.1), (0.1, math.nan), (-0.1, 0.1)])
def test_margulis_coordinates_reject_nan_and_negative(cat, cat_family, stable_model, x, y):
    p_inv, fam_s = stable_model
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), x, y)


@pytest.mark.parametrize("shift", [-3e-6, -2.5e-7, 4e-9, 2e-6, None])
def test_certificate_repairs_a_wrong_crossing(cat, cat_family, monkeypatch, shift):
    # a descent that misses the step must cost measures, never the answer
    real = torus._measure_crossing

    def wrong(*args):
        b = real(*args)
        return 0.0 if shift is None else b + shift
    monkeypatch.setattr(torus, "_measure_crossing", wrong)
    for base, target in (((0.0, 0.0), 0.1234567), ((0.31, 0.47), 0.25)):
        got = torus._arc_length_solve(cat_family, cat, base, target, 1e-9, 16)
        assert got == _bisection(_arc_value(cat_family, cat, base), target, 1e-9)


def test_margulis_coordinates_certified_cell_for_nonharmonic_family(cat, cat_family, stable_model):
    # R1's psi x 1.3 breaks harmonicity: the measure is no longer monotone in
    # the arc length, so only bisection's own invariant is asserted
    p_inv, fam_s = stable_model
    wrong_u, wrong_s = _scaled_r1(cat, cat_family), _scaled_r1(p_inv, fam_s)
    tol = 1e-9
    w = _grid_step(tol)
    rng = np.random.default_rng(13)
    for _ in range(15):
        base = rng.random(2)
        x, y = 0.6 * (1.0 - rng.random(2))
        mp = margulis_coordinates(wrong_u, cat, wrong_s, p_inv, base, float(x), float(y), tol=tol)
        key = tuple((base % 1.0).tolist())
        for value, coord, target in ((_arc_value(wrong_u, cat, key), mp.alpha, x),
                                     (_arc_value(wrong_s, p_inv, key), mp.gamma, y)):
            lo, hi = coord - w / 2, coord + w / 2
            assert hi - lo <= tol
            assert value(lo) < target <= value(hi)


def test_margulis_coordinates_within_arc_length_brackets(cat, cat_family, stable_model):
    # psi = u-extents makes the leaf measure arc length, so the cell
    # [lo, hi] = alpha -/+ w/2 with value(lo) < x <= value(hi) puts x within
    # the measure brackets at the cell's ends: |alpha - x| <= max err + w/2
    p_inv, fam_s = stable_model
    tol = 1e-9
    w = _grid_step(tol)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = 0.6 * (1.0 - rng.random(2))
        mp = margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), float(x), float(y), tol=tol)
        for fam, part, coord, target in ((cat_family, cat, mp.alpha, x), (fam_s, p_inv, mp.gamma, y)):
            err = [leaf_arc_measure(fam, part, UnstableArc((0.0, 0.0), 0.0, a), 16).error_bound
                   for a in (coord - w / 2, coord + w / 2)]
            assert abs(coord - target) <= max(err) + w / 2


def test_inverse_partition_reverses_graph(cat):
    p_inv = inverse_partition(cat)
    for a in cat.graph.states:
        for b in cat.graph.states:
            assert cat.graph.has_edge(a, b) == p_inv.graph.has_edge(b, a)


def test_fiber_bound(cat):
    rep = fiber_bound_check(cat, samples=500, seed=0, n=6)
    assert rep.bound == 15  # (3+1)^2 - 1
    assert rep.max_fiber <= rep.bound
    assert rep.boundary_max >= 2
    assert rep.interior_unique_fraction > 0.99
