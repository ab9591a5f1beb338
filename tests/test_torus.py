import dataclasses
import math
import re
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from margulis import torus
from margulis.counting import count_periodic
from margulis.graphs import StructuralViolation
from margulis.measures import iter_cylinders, make_family
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


def test_lattice_table_holds_each_power_and_its_forms():
    cat_auto = make_automorphism([[2, 1], [1, 1]])
    autos = [cat_auto, torus.inverse_automorphism(cat_auto),
             make_automorphism([[3, 1], [2, 1]]), make_automorphism([[5, 2], [2, 1]])]
    for auto in autos:
        lat = auto._lattice
        assert lat.basis == auto.basis.tolist() and lat.basis_inv == auto.basis_inv.tolist()
        assert all(type(x) is float for row in (*lat.basis, *lat.basis_inv) for x in row)
        (e00, e01), (e10, e11) = lat.basis_inv
        assert lat.norm_e == max(abs(e00) + abs(e01), abs(e10) + abs(e11))
        assert lat.log_lam == math.log(auto.lam_u)
        assert auto.lam_u ** lat.cap <= 2 ** 16 < auto.lam_u ** (lat.cap + 1)
        assert len(lat.powers) == lat.cap + 1
        for k, (P, forms, norm_p, lam) in enumerate(lat.powers):
            assert P == torus._int_power(auto.matrix, k)
            (p00, p01), (p10, p11) = P
            # u and s of P(m, n), as the pull-back computed them on every walk
            assert forms == (e00 * p00 + e01 * p10, e00 * p01 + e01 * p11,
                             e10 * p00 + e11 * p10, e10 * p01 + e11 * p11), k
            assert all(type(x) is float for x in forms)
            assert norm_p == max(abs(p00) + abs(p01), abs(p10) + abs(p11))
            assert lam == auto.lam_u ** k
        assert lat.powers[0][:3] == (((1, 0), (0, 1)), (e00, e01, e10, e11), 1)
    assert [auto._lattice.cap for auto in autos] == [11, 11, 8, 6]


def test_make_automorphism_rejects_negative_eigenvalues():
    # det -1 (lam_s = -1/phi), trace -3 (both eigenvalues negative) and det -1
    # with trace -1
    for m in ([[1, 1], [1, 0]], [[-2, 1], [1, -1]], [[-1, 1], [1, 0]]):
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


def test_make_partition_names_every_witness_of_an_empty_rectangle(cat):
    rects = [Rectangle("A", (0.0, 0.0), 0.0, 1.2)]
    with pytest.raises(StructuralViolation) as exc:
        torus.make_partition(cat.auto, rects)
    assert str(exc.value) == ("invalid Markov partition: A: empty rectangle; "
                              "area of union = 0.000000000000 != 1")


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
    assert list(rep.crossings) == list(validate_partition(cat.auto, cat.rectangles).crossings)


def test_partition_keeps_the_report_it_was_validated_with(cat):
    from dataclasses import fields
    fresh = validate_partition(cat.auto, cat.rectangles)
    for f in fields(fresh):
        assert getattr(cat.report, f.name) == getattr(fresh, f.name), f.name
    assert list(cat.report.crossings.items()) == list(fresh.crossings.items())


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


def _partition_numbers(p):
    """Every number of the partition's float tables: the report's crossings,
    children, parents and the cover walk's kids and sides."""
    numbers = [x for offsets in p.report.crossings.values() for x in offsets]
    for table in (p.children, p.parents):
        numbers += [x for row in table.values() for pair in row.values() for x in pair]
    for kids, sides in p._cover_kids.values():
        numbers += [x for _b, c_lo, c_hi in kids for x in (c_lo, c_hi)]
        numbers += [x for side in sides.values() for x in side]
    return numbers


@pytest.mark.parametrize("which", ["cat", "inverse", "json"])
def test_partition_tables_hold_python_floats(cat, which):
    p = {"cat": lambda: cat, "inverse": lambda: inverse_partition(cat),
         "json": lambda: torus.make_partition(*torus.parse_partition(torus.partition_to_json(cat)))}[which]()
    numbers = _partition_numbers(p)
    assert len(numbers) > 100 and {type(x) for x in numbers} == {float}
    for root in p.graph.states:
        for fut in ((), *([b] for b in p.graph.successors(root))):
            center, radius, u_int, s_int = decode(p, [root, *fut], zero_index=0)
            assert {type(x) for x in (*center, radius, *u_int, *s_int)} == {float}
            arc = cylinder_image_arc(p, root, fut)
            assert {type(x) for x in (*arc.base, arc.t0, arc.t1)} == {float}


def _rewrapped(p):
    """``p`` rebuilt from its own report with every crossing offset an np.float64."""
    crossings = {e: tuple(np.float64(x) for x in offsets) for e, offsets in p.report.crossings.items()}
    return torus.MarkovPartition(p.auto, p.rectangles, p.graph,
                                 dataclasses.replace(p.report, crossings=crossings))


def test_python_float_tables_give_the_np_float64_results_bit_for_bit(cat, cat_family, stable_model):
    p_inv, fam_s = stable_model
    wrapped, wrapped_inv = _rewrapped(cat), _rewrapped(p_inv)
    assert type(wrapped.children["R1"]["R1"][0]) is np.float64
    rng = np.random.default_rng(29)
    for _ in range(20):
        arc = UnstableArc(tuple(rng.random(2).tolist()), 0.0, float(0.05 + 1.5 * rng.random()))
        for p in (cat, p_inv):
            fam, w = (cat_family, wrapped) if p is cat else (fam_s, wrapped_inv)
            assert repr(leaf_arc_measure(fam, p, arc, 8)) == repr(leaf_arc_measure(fam, w, arc, 8))
        xy = rng.random(2)
        its, its_w = code_point(cat, xy, 8), code_point(wrapped, xy, 8)
        assert repr(its) == repr(its_w)
        assert (repr([decode(cat, it.symbols, it.n)[:2] for it in its])   # center and radius
                == repr([decode(wrapped, it.symbols, it.n)[:2] for it in its_w]))
    xy, rid = anchor(cat)
    for root in ("R1", "R4"):
        for fut in iter_cylinders(cat.graph, root, 2):
            arc, arc_w = cylinder_image_arc(cat, root, fut), cylinder_image_arc(wrapped, root, fut)
            assert arc.t1 == arc_w.t1
            for i in (2, 5, 8):
                assert intersection_count(cat, arc, i, xy, rid) == intersection_count(wrapped, arc_w, i, xy, rid)
    for _ in range(5):
        fixed = rng.random(2)
        x, y = (float(v) for v in 0.4 * rng.random(2))
        assert (repr(margulis_coordinates(cat_family, cat, fam_s, p_inv, fixed, x, y))
                == repr(margulis_coordinates(cat_family, wrapped, fam_s, wrapped_inv, fixed, x, y)))


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
            center, radius, _, _ = decode(cat, it.symbols, it.n)
            d = np.abs(np.array(center) - x)
            d = np.minimum(d, 1.0 - d)
            assert math.hypot(*d) <= radius + 1e-9
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
    assert decode(cat, its[0].symbols, 25)[1] < 1e-8  # lam_u^-25 scale


def test_code_point_names_the_deepest_n_it_decides(cat):
    with pytest.raises(ValueError, match=r"only for n <= 25: .*got n = 26"):
        code_point(cat, np.array([0.3, 0.4]), 26)


def test_origin_keeps_its_three_codings_at_depth(cat):
    # the origin lies in R4 at u_rel = -2.2e-16, which lam_u^9 rescales past
    # a fixed 1e-12 slack; the fixed codings R1^oo, R3^oo, R4^oo all stay
    for n in (9, 10, 11, 12, 25):
        its = code_point(cat, np.array([0.0, 0.0]), n)
        assert [set(it.symbols) for it in its] == [{"R1"}, {"R3"}, {"R4"}], n


def test_interior_points_keep_one_coding_at_the_deepest_n(cat):
    # the slack grows only with the rounding: a fixed 1e-12 in the root chart
    # gave a second coding to about a quarter of interior points at n = 24
    rng = np.random.default_rng(8)
    doubled = sum(len(code_point(cat, rng.random(2), 25)) > 1 for _ in range(100))
    assert doubled <= 5


def test_boundary_points_keep_both_codings_at_depth(cat):
    # the points fiber_bound_check puts on unstable sides, at depths past
    # where the stable side's rounding outgrew a fixed slack
    count, k = torus._FIBER_BOUNDARY_POINTS, len(cat.rectangles)
    for j in range(count):
        r = cat.rectangles[j % k]
        side = 0.0 if (j // k) % 2 == 0 else r.s_extent
        xy = cat.auto.to_xy(np.array([r.corner[0] + (j + 0.5) / count * r.u_extent,
                                      r.corner[1] + side])) % 1.0
        for n in (9, 15, 25):
            assert len(code_point(cat, xy, n)) == 2, (j, n)


def _fixed_points(matrix, n):
    """The fixed points of A^n on the torus, (A^n - I)^-1 Z^2 / Z^2, exactly.

    (i, j) with 0 <= i < g, 0 <= j < |det| / g, g = gcd of the first row of
    M = A^n - I, runs over Z^2 / M Z^2 (M Z^2 has the basis (g, *), (0, det / g))."""
    (a, b), (c, d) = torus._int_power(matrix, n)
    m00, m01, m10, m11 = a - 1, b, c, d - 1
    det = m00 * m11 - m01 * m10
    g = math.gcd(m00, m01)
    points = {(Fraction(m11 * i - m01 * j, det) % 1, Fraction(m00 * j - m10 * i, det) % 1)
              for i in range(g) for j in range(abs(det) // g)}
    assert len(points) == abs(det) == abs(a + d - 2)
    return points


def _periodic_codings(p, n, code=code_point):
    """Codings of the fixed points of A^n, each checked to be n-periodic."""
    total = 0
    for x, y in _fixed_points(p.auto.matrix, n):
        for it in code(p, np.array([float(x), float(y)]), n):
            assert all(it.symbols[i] == it.symbols[i + n] for i in range(n + 1)), it.symbols
            total += 1
    return total


def _trace(p, n):
    """tr(M^n): the n-periodic words of the partition graph."""
    return sum(count_periodic(p.graph, a, n).counts[n] for a in p.graph.states)


@pytest.mark.parametrize("n", range(1, 9))
def test_periodic_points_counted_two_ways(cat, n):
    # the map has |tr(A^n) - 2| fixed points of A^n, each coded once but the
    # origin, a corner of R1, R3 and R4, coded three times
    trace = _trace(cat, n)
    assert trace == len(_fixed_points(cat.auto.matrix, n)) + 2
    assert _periodic_codings(cat, n) == trace


def test_periodic_count_misses_a_dropped_coding(cat):
    def drop_one(p, xy, n):
        its = code_point(p, xy, n)
        return its[1:] if not xy.any() else its

    assert _periodic_codings(cat, 4, drop_one) == _trace(cat, 4) - 1


def _periodic_box_counts(p, n):
    """|Fix(A^n) ∩ R| for each rectangle R of ``p``, by ``_count_in_box``.

    x is fixed by A^n on the torus when (A^n - I) x = T is a lattice point,
    and u(T) = (lam_u^n - 1) u(x), s(T) = (lam_s^n - 1) s(x): R's points of
    period n are the lattice points of R's box scaled by those factors."""
    lam_u, lam_s = p.auto.lam_u, p.auto.lam_s
    counts = {}
    for r in p.rectangles:
        U = ((lam_u ** n - 1) * r.u_range[0], (lam_u ** n - 1) * r.u_range[1])
        S = tuple(sorted(((lam_s ** n - 1) * r.s_range[0], (lam_s ** n - 1) * r.s_range[1])))
        counts[r.id] = torus._count_in_box(p.auto, U, S)
    return counts


def _fixed_point_total(p, n):
    """N_n = |tr(A^n) - 2|, the number of fixed points of A^n on the torus."""
    (a, _), (_, d) = torus._int_power(p.auto.matrix, n)
    return abs(a + d - 2)


def test_periodic_points_per_rectangle_counted_by_the_lattice_kernel(cat):
    # the half-open count takes the origin once, in R1, where R3's and R4's
    # loops code it as well
    for n in range(2, 17):
        counts = _periodic_box_counts(cat, n)
        for r in cat.rectangles:
            loops = count_periodic(cat.graph, r.id, n).counts[n]
            assert counts[r.id] == loops - (r.id in ("R3", "R4")), (n, r.id)
        assert sum(counts.values()) == _fixed_point_total(cat, n), n


def test_inverse_periodic_points_per_rectangle_counted_by_the_lattice_kernel(cat):
    # the inverse map's frame turns the boxes over: the half-open count takes
    # the origin in R3 and leaves it to R1's and R4's loops
    p_inv = inverse_partition(cat)
    for n in range(2, 17):
        counts = _periodic_box_counts(p_inv, n)
        for r in p_inv.rectangles:
            loops = count_periodic(p_inv.graph, r.id, n).counts[n]
            assert counts[r.id] == loops - (r.id in ("R1", "R4")), (n, r.id)
        assert sum(counts.values()) == _fixed_point_total(p_inv, n), n


def _measure_offsets(p, n, psi_u):
    """|Fix(A^n) ∩ R| - N_n psi_u(R) psi_s(R) per rectangle, psi_s from the
    inverse partition's family: Bowen's count of the Margulis measure."""
    family_s = partition_family(inverse_partition(p))
    total = _fixed_point_total(p, n)
    return {rid: c - total * psi_u[rid] * family_s.psi_of(rid)
            for rid, c in _periodic_box_counts(p, n).items()}


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_periodic_points_per_rectangle_approach_the_margulis_measure(cat, inverse):
    # count - N_n psi_u(R) psi_s(R) settles to a bounded offset per rectangle
    # (+0.553, +0.342, -0.447, -0.789, +0.342 on the forward partition from
    # n ~ 10), while psi_u scaled on one rectangle opens a gap that grows like N_n
    p = inverse_partition(cat) if inverse else cat
    psi_u = {r.id: partition_family(p).psi_of(r.id) for r in p.rectangles}
    bent = dict(psi_u, R1=1.3 * psi_u["R1"])
    worst = 0.0
    for n in range(2, 17):
        offsets = _measure_offsets(p, n, psi_u)
        worst = max(worst, *map(abs, offsets.values()))
        assert max(map(abs, offsets.values())) < 1, (n, offsets)
        if n >= 4:
            assert abs(_measure_offsets(p, n, bent)["R1"]) > 1, n
    assert 0.78 < worst < 0.8
    assert _measure_offsets(p, 16, bent)["R1"] < -4e5


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
    depths = (0, 1, 4, 8, 12, 16)
    rows = []
    for _ in range(40):
        base = rng.random(2)
        t0 = float(rng.random()) - 0.5
        arc = UnstableArc((float(base[0]), float(base[1])), t0, t0 + 1.5 * float(rng.random()) ** 2)
        rows.append((arc, depths))
    # edge arcs: a first plaque segment that ends exactly at R2's end, where
    # the boundary count goes from 2 to 3 at depth 10 (the fixed 1e-12 slack),
    # and the solver's arcs from the fixed point 0, where lo is exactly 0.0
    rows.append((UnstableArc((0.5891949595567362, 0.28268491002435914), 0.0, 0.3), range(9, 17)))
    rows += [(UnstableArc((0.0, 0.0), 0.0, a), depths) for a in (0.1, 0.3, 1.0, 2.0)]
    for arc, arc_depths in rows:
        for family, p in models:
            for depth in arc_depths:
                m = leaf_arc_measure(family, p, arc, depth)
                got = (m.inner, m.outer, m.boundary_cylinders, m.segments)
                assert got == _descend_measure(family, p, arc, depth), (arc, depth)


def _clip_lengths(tiles, H, rng):
    """Arc lengths in (0, H] for clipping a tiling of [0, H]: H itself, a
    length below ``_MEMBER_TOL``, random lengths, and lengths within
    ``_MEMBER_TOL`` and within ``_PAD`` of each translate's ends."""
    lengths = [H, 0.5 * torus._MEMBER_TOL, *(H * rng.random(4))]
    for _, u_lo_t, ext in tiles:
        for end in (u_lo_t, u_lo_t + ext):
            for d in (0.0, 0.5e-12, 2e-12, 0.5e-9, 2e-9):
                lengths += [end - d, end + d]
    return sorted({a for a in lengths if 0.0 < a <= H})


def test_clipped_tiling_matches_plaque_segments_bit_for_bit(cat, cat_family, stable_model):
    # one tiling of [0, H] clipped to [0, a] must give _plaque_segments of
    # [0, a]: same tuples, same order, and the same walks at every depth
    p_inv, fam_s = stable_model
    rng = np.random.default_rng(77)
    bases = [(0.0, 0.0)] + [tuple(float(v) for v in rng.random(2)) for _ in range(5)]
    checked = 0
    for family, p in ((cat_family, cat), (fam_s, p_inv)):
        for base in bases:
            for H in (1.0, 0.25 + float(rng.random())):
                tiles = torus._plaque_tiling(p, UnstableArc(base, 0.0, H))
                for a in _clip_lengths(tiles, H, rng):
                    arc = UnstableArc(base, 0.0, a)
                    segs = torus._clip_tiling(tiles, 0.0, a)
                    assert segs == torus._plaque_segments(p, arc), (base, H, a)
                    for depth in (0, 6, 16):
                        m = torus._walk_cover(family, p, segs, depth, math.inf,
                                              torus._cover_table(family, p))[0]
                        ref = leaf_arc_measure(family, p, arc, depth)
                        assert ((m.inner, m.outer, m.boundary_cylinders, m.segments)
                                == (ref.inner, ref.outer, ref.boundary_cylinders, ref.segments))
                    checked += 1
    assert checked > 500


def test_clip_tiling_raises_on_an_arc_the_tiles_do_not_cover(cat):
    # a tiling that lost one rectangle's tiles, or one tile with a short
    # extent, leaves a gap in the arc: the clip must raise, not pass it on
    arc = UnstableArc((0.31, 0.47), -0.5, 1.5)
    tiles = torus._plaque_tiling(cat, arc)
    assert torus._clip_tiling(tiles, arc.t0, arc.t1)
    rids = {rid for rid, _, _ in tiles}
    assert rids == {r.id for r in cat.rectangles}
    for rid in rids:
        with pytest.raises(StructuralViolation, match="arc not tiled by plaques"):
            torus._clip_tiling([t for t in tiles if t[0] != rid], arc.t0, arc.t1)
    # a tile inside the arc, shrunk by a tenth of its extent
    i = next(i for i, (_, u_lo_t, ext) in enumerate(tiles) if arc.t0 < u_lo_t and u_lo_t + ext < arc.t1)
    rid, u_lo_t, ext = tiles[i]
    with pytest.raises(StructuralViolation, match="arc not tiled by plaques"):
        torus._clip_tiling([*tiles[:i], (rid, u_lo_t, 0.9 * ext), *tiles[i + 1:]], arc.t0, arc.t1)


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


@pytest.mark.parametrize("depths", [(-1,), (4, -1)])
def test_holonomy_invariance_check_rejects_a_negative_depth(cat, cat_family, depths):
    arc = UnstableArc((0.3, 0.4), 0.0, 0.1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        holonomy_invariance_check(cat_family, cat, arc, (0.9, 0.05), depths=depths)


@pytest.mark.parametrize("depth", [1.5, math.nan, math.inf, -math.inf])
def test_leaf_arc_measure_rejects_a_depth_that_is_not_a_whole_number(cat, cat_family, depth):
    # a fractional or nan depth never reaches 0 and recursed until RecursionError
    arc = UnstableArc((0.3, 0.4), 0.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"a whole number; got {depth!r}")):
        leaf_arc_measure(cat_family, cat, arc, depth)


def test_cover_depth_is_capped_below_the_recursion_limit(cat, cat_family, stable_model):
    # past the cap the walk would recurse toward Python's frame limit; at the
    # cap it still runs, and the bracket closed long before
    arc = UnstableArc((0.3, 0.4), 0.0, 0.3)
    cap = torus._MAX_COVER_DEPTH
    deep = leaf_arc_measure(cat_family, cat, arc, cap)
    assert deep.inner == deep.outer == leaf_arc_measure(cat_family, cat, arc, 40).inner
    message = re.escape(f"depth must be <= {cap}; got {cap + 1}")
    p_inv, fam_s = stable_model
    with pytest.raises(ValueError, match=message):
        leaf_arc_measure(cat_family, cat, arc, cap + 1)
    with pytest.raises(ValueError, match=message):
        holonomy_invariance_check(cat_family, cat, arc, (0.9, 0.05), depths=(4, cap + 1))
    with pytest.raises(ValueError, match=message):
        conformality_on_leaves(cat_family, cat, arc, 1, depth=cap + 1)
    with pytest.raises(ValueError, match=message):
        margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), 0.1, 0.1, depth=cap + 1)


@pytest.mark.parametrize("depths", [(2.5,), (4, math.nan)])
def test_holonomy_invariance_check_rejects_a_depth_that_is_not_a_whole_number(cat, cat_family, depths):
    arc = UnstableArc((0.3, 0.4), 0.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"a whole number; got {depths[-1]!r}")):
        holonomy_invariance_check(cat_family, cat, arc, (0.9, 0.05), depths=depths)


def test_a_whole_float_depth_measures_as_its_integer(cat, cat_family):
    arc = UnstableArc((0.3, 0.4), 0.0, 0.3)
    m, ref = leaf_arc_measure(cat_family, cat, arc, 3.0), leaf_arc_measure(cat_family, cat, arc, 3)
    assert (m.inner, m.outer, m.depth, m.boundary_cylinders, m.segments) == (
        ref.inner, ref.outer, 3, ref.boundary_cylinders, ref.segments)


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


@pytest.mark.parametrize("i", [2.5, math.nan, math.inf, -math.inf, -1])
def test_intersection_count_rejects_an_i_that_is_not_a_whole_number(cat, i):
    # 2.5 counted as if whole and nan or inf failed in int() with another message
    xy, rid = anchor(cat)
    arc = cylinder_image_arc(cat, "R1", ["R2"], s_frac=1 / math.sqrt(2))
    with pytest.raises(ValueError, match=re.escape(f"i must be >= 0 and a whole number; got {i!r}")):
        intersection_count(cat, arc, i, xy, rid)


def test_intersection_count_takes_a_whole_float_i(cat):
    xy, rid = anchor(cat)
    arc = cylinder_image_arc(cat, "R1", ["R2"], s_frac=1 / math.sqrt(2))
    assert intersection_count(cat, arc, 3.0, xy, rid) == intersection_count(cat, arc, 3, xy, rid) > 0


def test_intersection_count_growth_rate(cat):
    xy, rid = anchor(cat)
    arc = full_u_side_arc(cat, "R1", s_frac=1 / math.sqrt(2))
    ratios = []
    for i in range(8, 14):
        c = intersection_count(cat, arc, i, xy, rid)
        ratios.append(c / cat.auto.lam_u ** i)
    assert min(ratios) > 0.01
    assert max(ratios) / min(ratios) < 3.0


PAD = torus._PAD


def _reference_strips(auto, U, S):
    """Every lattice point of the closed box padded by PAD, in (m, then n)
    order: the reference that ``torus._lattice_in_strips`` must match bit
    for bit and in order.  It walks a superset, every integer x column of
    the box and each column's n-range one wider on each side, and keeps the
    points that pass the padded test."""
    Ei = auto.basis_inv
    e00, e01 = float(Ei[0, 0]), float(Ei[0, 1])
    e10, e11 = float(Ei[1, 0]), float(Ei[1, 1])
    X, _ = torus._box_image(auto.to_xy, U, S)
    for mm in range(math.floor(X[0]) - 1, math.ceil(X[1]) + 2):
        nu = sorted(((U[0] - e00 * mm) / e01, (U[1] - e00 * mm) / e01))
        ns = sorted(((S[0] - e10 * mm) / e11, (S[1] - e10 * mm) / e11))
        lo = max(nu[0], ns[0])
        hi = min(nu[1], ns[1])
        for nn in range(math.ceil(lo) - 1, math.floor(hi) + 2):
            uT = e00 * mm + e01 * nn
            sT = e10 * mm + e11 * nn
            if U[0] - PAD <= uT <= U[1] + PAD and S[0] - PAD <= sT <= S[1] + PAD:
                yield (mm, nn), uT, sT


def _reference_count(auto, U, S):
    """The walk's points under the half-open count test, one at a time."""
    return sum(1 for _T, uT, sT in _reference_strips(auto, U, S)
               if U[0] - PAD <= uT < U[1] - PAD and S[0] + PAD < sT <= S[1] + PAD)


def _reference_box(p, arc, i, anchor_xy, anchor_symbol):
    """The half-open box of ``intersection_count``, as it computes it."""
    r = p.rect(anchor_symbol)
    u_a = r.corner[0] + torus.locate(p, anchor_xy)[1]
    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    Lu, Ls = p.auto.lam_u ** i, p.auto.lam_s ** i
    U = (Lu * (u_b + arc.t0) - u_a, Lu * (u_b + arc.t1) - u_a)
    S = (Ls * s_b - (r.corner[1] + r.s_extent), Ls * s_b - r.corner[1])
    return U, S


def _reference_intersection_count(p, arc, i, anchor_xy, anchor_symbol):
    """``intersection_count`` as a sum over the reference walk."""
    return _reference_count(p.auto, *_reference_box(p, arc, i, anchor_xy, anchor_symbol))


def test_intersection_count_matches_the_walk_reference(cat):
    xy, rid = anchor(cat)
    cases = []
    rng = np.random.default_rng(23)
    for _ in range(150):
        base = rng.random(2)
        t0 = float(rng.random()) - 0.5
        length = 10.0 ** float(rng.uniform(-3, 0.5))
        cases.append((UnstableArc((float(base[0]), float(base[1])), t0, t0 + length),
                      int(rng.integers(0, 11))))
    for s_frac in (0.3, 0.77):
        for root in [r.id for r in cat.rectangles]:
            for fut in iter_cylinders(cat.graph, root, 3):
                arc = cylinder_image_arc(cat, root, fut, s_frac=s_frac)
                cases.extend((arc, i) for i in range(len(fut), 10))
    for arc, i in cases:
        assert intersection_count(cat, arc, i, xy, rid) == \
            _reference_intersection_count(cat, arc, i, xy, rid), (arc, i)


def _first_change(g, lo, hi):
    """The first float in (lo, hi] where the monotone step function g differs
    from g(lo)."""
    g_lo = g(lo)
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = math.nextafter(lo, hi)
        lo, hi = (mid, hi) if g(mid) == g_lo else (lo, mid)
    return hi


def _floats_around(x, reach):
    xs = [x]
    for _ in range(reach):
        xs = [math.nextafter(xs[0], -math.inf)] + xs + [math.nextafter(xs[-1], math.inf)]
    return xs


def _tie_boxes(auto, U, S, uT, sT):
    """Copies of U x S with one end moved so that (uT, sT) sits exactly on,
    or 1 ulp either side of, a threshold of the count test or of the walk's
    padded test (U[0] - PAD, U[1] -+ PAD, S[0] +- PAD, S[1] + PAD), and
    around the end values where the walk's n-range or column range lets
    the reference count change."""
    def moved(end, x):
        b = [list(U), list(S)]
        b[end // 2][end % 2] = x
        return tuple(b[0]), tuple(b[1])

    for end, pad in ((0, -PAD), (1, -PAD), (1, PAD), (2, PAD), (2, -PAD), (3, PAD)):
        t = (uT, sT)[end // 2]
        x = _first_change(lambda x: x + pad >= t, t - pad - 1e-6, t - pad + 1e-6)
        for x in _floats_around(x, 1):
            yield moved(end, x)
    for end in range(4):
        # where the reference count first changes as this end moves across
        # the point: the walk's n-range and column range decide it there
        t = (uT, sT)[end // 2]
        g = lambda x: _reference_count(auto, *moved(end, x))
        x = _first_change(g, t - 1e-6, t + 1e-6)
        for x in _floats_around(x, 1):
            yield moved(end, x)


def test_count_and_walk_match_the_reference_at_boundary_ties(cat):
    auto = cat.auto
    # intersection-count shaped boxes (long, about one high) and thin ones
    boxes = [((-0.3, 0.2 * auto.lam_u ** i - 0.3), (-1.2, 0.17)) for i in (2, 4, 6)]
    boxes += [((3.1, 60.4), (-0.0123, 0.0277)), ((-40.0, 80.0), (0.0031, 0.0231))]
    # far out, where the round-off of u(T) and s(T) is ~1e-7, far above PAD
    boxes += [((1e9 - 0.3, 1e9 + 60.0), (-1.2, 0.17)), ((-5e8, -5e8 + 120.0), (0.0031, 0.0231))]
    ties = 0
    for U, S in boxes:
        pts = list(_reference_strips(auto, U, S))
        assert pts
        for _T, uT, sT in pts[:: max(1, len(pts) // 3)]:
            for U2, S2 in _tie_boxes(auto, U, S, uT, sT):
                ties += 1
                assert torus._count_in_box(auto, U2, S2) == _reference_count(auto, U2, S2), (U2, S2)
                assert list(torus._lattice_in_strips(auto, U2, S2)) == \
                    list(_reference_strips(auto, U2, S2)), (U2, S2)
    assert ties > 250


def test_count_in_box_walks_its_columns_once(cat, monkeypatch):
    # every column m of the box comes out of the column walk once per count
    ms = []

    def counted(columns):
        for col in columns:
            ms.append(col[0])
            yield col

    real = torus._columns

    def spy(*a):
        k, P, margin, columns = real(*a)
        if callable(columns):    # columns(d), a walk per call
            return k, P, margin, lambda *d: counted(columns(*d))
        return k, P, margin, counted(columns)

    monkeypatch.setattr(torus, "_columns", spy)
    lam = cat.auto.lam_u
    for U, S in (((-0.3, 0.2 * lam ** 6 - 0.3), (-1.2, 0.17)), ((3.1, 60.4), (-0.0123, 0.0277)),
                 ((0.1, 0.4), (0.2, 0.5))):
        ms.clear()
        count = torus._count_in_box(cat.auto, U, S)
        assert count == _reference_count(cat.auto, U, S)
        assert ms and len(ms) == len(set(ms)), (U, S, len(ms), len(set(ms)))


def test_count_in_box_matches_the_reference_on_every_column_branch(cat):
    # boxes whose sides sit on lattice points, so that columns have
    # candidates below and above a nonempty inner range, an empty inner range
    # under a nonempty widened one, or both ranges empty
    auto = cat.auto
    (e00, e01), (e10, e11) = auto.basis_inv.tolist()
    u = lambda m, n: e00 * m + e01 * n
    s = lambda m, n: e10 * m + e11 * n
    boxes = []
    for m in (0, 1, -2):
        for n0, n1 in ((0, 3), (-1, 1), (2, 6)):
            # both ends of the column's u-strip on its points (m, n0) and (m, n1)
            U = tuple(sorted((u(m, n0), u(m, n1))))
            S = (min(s(m, n0), s(m, n1)) - 0.05, max(s(m, n0), s(m, n1)) + 0.05)
            boxes.append((U, S))
            # the s-strip's ends on the same points, the u-strip loose
            boxes.append(((U[0] - 0.05, U[1] + 0.05), tuple(sorted((s(m, n0), s(m, n1))))))
        # one point, within PAD of a u-end: the inner range is empty
        for du in (-0.5 * PAD, 0.0, 0.5 * PAD, 2 * PAD):
            boxes.append(((u(m, 0) + du, u(m, 0) + du + 3 * PAD), (s(m, 0) - 0.01, s(m, 0) + 0.01)))
    # no lattice point at all
    boxes += [((0.3, 0.301), (0.2, 0.201)), ((0.3, 0.3), (0.2, 0.2)), ((-7.7, -7.69), (0.41, 0.45))]
    seen = {"both sides": 0, "inner empty": 0, "both empty": 0}
    counts = []
    for U, S in boxes:
        counts.append(torus._count_in_box(auto, U, S))
        assert counts[-1] == _reference_count(auto, U, S), (U, S)
        # the column's widened range and the inner range read off it
        _, _, shrink, columns = torus._columns(auto, U, S)
        for _m, a, b in columns:
            lo, hi, i_lo, i_hi = math.ceil(a), math.floor(b), math.ceil(a + shrink), math.floor(b - shrink)
            seen["both sides"] += lo < i_lo <= i_hi < hi
            seen["inner empty"] += i_lo > i_hi and lo <= hi
            seen["both empty"] += lo > hi
    assert all(seen.values()), seen
    assert max(counts) >= 4 and 0 in counts and 1 in counts


def test_intersection_count_matches_the_reference_across_arc_ends_and_heights(cat):
    # the arc's ends and the plaque's height moved a float at a time across
    # the values where the reference count changes
    import copy
    from dataclasses import replace
    xy, rid = anchor(cat)
    r = cat.rect(rid)
    arc = cylinder_image_arc(cat, "R1", ["R2"], s_frac=0.4)
    i = 6

    def with_end(k, t):
        ends = [arc.t0, arc.t1]
        ends[k] = t
        return cat, UnstableArc(arc.base, *ends)

    def with_height(h):
        q = copy.copy(cat)
        q.by_id = dict(cat.by_id, **{rid: replace(r, s_extent=h)})
        return q, arc

    for knob, lo, hi in ((lambda t: with_end(0, t), arc.t0, arc.t1),
                         (lambda t: with_end(1, t), arc.t1, arc.t0),
                         (with_height, r.s_extent, 0.9 * r.s_extent)):
        x = _first_change(lambda x: _reference_intersection_count(*knob(x), i, xy, rid), lo, hi)
        counts = set()
        for x in _floats_around(x, 3):
            q, a = knob(x)
            c = intersection_count(q, a, i, xy, rid)
            assert c == _reference_intersection_count(q, a, i, xy, rid), (a, q.rect(rid))
            counts.add(c)
        assert len(counts) == 2


def _spy_pullback_powers(monkeypatch):
    """The pull-back power k of every ``_columns`` walk, in call order."""
    ks = []
    real = torus._columns

    def spy(*a):
        walk = real(*a)
        ks.append(walk[0])
        return walk

    monkeypatch.setattr(torus, "_columns", spy)
    return ks


def test_strip_walk_matches_the_reference_in_order(cat, monkeypatch):
    ks = _spy_pullback_powers(monkeypatch)
    rng = np.random.default_rng(13)
    for auto in (cat.auto, torus.inverse_automorphism(cat.auto)):
        for _ in range(150):
            length, height = 10.0 ** float(rng.uniform(-1, 4)), 10.0 ** float(rng.uniform(-4, 0))
            u0, s0 = float(rng.uniform(-20, 20)), float(rng.uniform(-1, 1))
            U, S = (u0, u0 + length), (s0, s0 + height)
            got = list(torus._lattice_in_strips(auto, U, S))
            assert got == list(_reference_strips(auto, U, S)), (U, S)
    assert len(ks) == 300
    pulled = [k for k in ks if k]
    assert ks.count(0) >= 10 and len(pulled) >= 200 and max(pulled) >= 8


def _plaque_boxes(p, arc):
    """(rect, U, S) per rectangle: the box of the lattice translates T of
    the rectangle that can meet ``arc``, before the ``_PAD`` widening."""
    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    return [(r, (u_b + arc.t0 - r.corner[0] - r.u_extent, u_b + arc.t1 - r.corner[0]),
             (s_b - r.corner[1] - r.s_extent, s_b - r.corner[1])) for r in p.rectangles]


def _reference_tiling(p, arc):
    """One ``_reference_strips`` walk per rectangle box and the half-open
    membership test: the reference that ``torus._plaque_tiling`` must match
    tuple for tuple and in order."""
    if arc.length <= torus._MEMBER_TOL:
        return []
    tol = torus._MEMBER_TOL
    base_us = p.auto.to_eigen(np.array(arc.base))
    u_b, s_b = float(base_us[0]), float(base_us[1])
    return [(r.id, r.corner[0] + uT - u_b, r.u_extent)
            for r, U, S in _plaque_boxes(p, arc)
            for _T, uT, sT in _reference_strips(p.auto, U, S)
            if -tol <= s_b - sT - r.corner[1] < r.s_extent - tol]


def test_plaque_tiling_walks_once_and_matches_the_per_rectangle_reference(cat, stable_model,
                                                                          monkeypatch):
    # seeded arcs on both partitions: t0 at 0 and below, lengths 1e-6 to 8,
    # and the suite's ray_divergence image arc
    p_inv, _ = stable_model
    walks = []
    real_walk = torus._lattice_in_strips
    monkeypatch.setattr(torus, "_lattice_in_strips", lambda *a: walks.append(1) or real_walk(*a))
    rng = np.random.default_rng(26)
    arcs = [UnstableArc((0.0, 0.0), 0.0, 0.3 * cat.auto.lam_u ** 8)]
    for length in (1e-6, 8.0, *(10.0 ** rng.uniform(-6, math.log10(8.0), 60))):
        base = rng.random(2)
        t0 = -2.0 * float(rng.random()) if rng.random() < 0.7 else 0.0
        arcs.append(UnstableArc((float(base[0]), float(base[1])), t0, t0 + float(length)))
    tiles = 0
    for p in (cat, p_inv):
        for arc in arcs:
            walks.clear()
            got = torus._plaque_tiling(p, arc)
            assert len(walks) == 1, arc
            assert got == _reference_tiling(p, arc), arc
            tiles += len(got)
    assert tiles > 4000


def test_long_dense_boxes_are_pulled_back_and_match_the_reference_in_order(cat, monkeypatch):
    # boxes with more points than columns: an overlap box of
    # validate_partition, and for the suite's ray_divergence image arc, f^8
    # of [0, 0.3] along the unstable ray of the fixed point 0, the union box
    # of its tiling's one walk and each rectangle's own plaque box
    arc = UnstableArc((0.0, 0.0), 0.0, 0.3 * cat.auto.lam_u ** 8)
    boxes = [((-1000.0, 1000.0), (-1.2, 1.2))]
    real_walk = torus._lattice_in_strips
    monkeypatch.setattr(torus, "_lattice_in_strips",
                        lambda auto, U, S: boxes.append((U, S)) or real_walk(auto, U, S))
    torus._plaque_tiling(cat, arc)
    monkeypatch.setattr(torus, "_lattice_in_strips", real_walk)
    assert len(boxes) == 2    # one walk per tiling
    boxes += [(U, S) for _, U, S in _plaque_boxes(cat, arc)]
    ks = _spy_pullback_powers(monkeypatch)
    for U, S in boxes:
        calls = len(ks)
        got = list(torus._lattice_in_strips(cat.auto, U, S))
        assert len(ks) == calls + 1 and ks[-1] >= 3, (U, S, ks[calls:])
        assert len(got) > 500 and got == list(_reference_strips(cat.auto, U, S)), (U, S)


def test_intersection_count_equals_word_count_deep(cat):
    from margulis.counting import count_words
    xy, rid = anchor(cat)
    cylinders = [(r.id, ()) for r in cat.rectangles]
    cylinders += [(r.id, (b,)) for r in cat.rectangles for b in cat.graph.successors(r.id)]
    assert len(cylinders) == 18
    for root, fut in cylinders:
        arc = cylinder_image_arc(cat, root, fut, s_frac=1 / math.sqrt(2))
        last = fut[-1] if fut else root
        counts = count_words(cat.graph, last, rid, 18 - len(fut)).counts
        for i in (14, 16, 18):
            assert intersection_count(cat, arc, i, xy, rid) == counts[i - len(fut)], (root, fut, i)


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
    # the unstable ray of the fixed point 0, seeded on either side of it:
    # the measured m(f^k seed) / m(seed) brackets e^{kh} and passes 1e3 at k = 8
    for seed in (UnstableArc((0.0, 0.0), 0.0, 0.3), UnstableArc((0.0, 0.0), -0.3, 0.0)):
        for k in range(9):
            rep = conformality_on_leaves(cat_family, cat, seed, k, depth=12)
            assert rep.rel_err <= rep.bound, (seed, k)
        assert rep.ratio > 1e3


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
    # a certificate is a full walk (target inf); the crossing walk stops at its target
    calls, tilings = [], []
    real_walk, real_tiling = torus._walk_cover, torus._plaque_tiling
    monkeypatch.setattr(torus, "_walk_cover",
                        lambda *a: calls.append(a[4]) or real_walk(*a))
    monkeypatch.setattr(torus, "_plaque_tiling", lambda *a: tilings.append(1) or real_tiling(*a))
    grid = np.linspace(0.3 / 5, 0.3, 5)
    for x in grid:
        for y in grid:
            calls.clear()
            tilings.clear()
            mp = margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.0, 0.0), float(x), float(y))
            assert calls.count(math.inf) == 4  # the two certificate measures per axis
            assert len(tilings) == 2  # one plaque tiling per axis
            point, alpha, gamma = _bisection_coordinates(cat_family, cat, fam_s, p_inv,
                                                         (0.0, 0.0), float(x), float(y))
            assert (mp.alpha, mp.gamma, mp.point) == (alpha, gamma, point)


def test_margulis_coordinates_match_bisection_at_random_bases(cat, cat_family, stable_model,
                                                             monkeypatch):
    p_inv, fam_s = stable_model
    calls = []
    real_walk = torus._walk_cover
    monkeypatch.setattr(torus, "_walk_cover", lambda *a: calls.append(a[4]) or real_walk(*a))
    rng = np.random.default_rng(2024)
    for _ in range(100):
        base = rng.random(2)
        x, y = 0.6 * (1.0 - rng.random(2))
        calls.clear()
        mp = margulis_coordinates(cat_family, cat, fam_s, p_inv, base, float(x), float(y))
        assert calls.count(math.inf) == 4, base  # certified: no fallback to bisection
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


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_margulis_coordinates_reject_a_tol_not_positive_and_finite(cat, cat_family, stable_model, tol):
    # the grid search divides by tol = 0, halves forever below a negative tol
    # and skips the solve on nan
    p_inv, fam_s = stable_model
    for x in (0.1, 0.0):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            margulis_coordinates(cat_family, cat, fam_s, p_inv, (0.1, 0.1), x, x, tol=tol)


class _CountingTable(dict):
    """A ``_cover_table`` that counts its rectangle lookups, one per cylinder
    a walk visits."""

    lookups = 0

    def __getitem__(self, rid):
        self.lookups += 1
        return super().__getitem__(rid)


def _record_full_walks(monkeypatch):
    """Give the solver counting cover tables and record each full walk it
    makes as (family, p, segs, depth, measure, lookups); returns the record
    list and a function that walks the same segments from the top as
    (measure, lookups)."""
    real_table, real_walk = torus._cover_table, torus._walk_cover
    walks = []

    def walk(family, p, segs, depth, target, table, descent=None):
        before = table.lookups
        out = real_walk(family, p, segs, depth, target, table, descent)
        if target == math.inf:
            walks.append((family, p, segs, depth, out[0], table.lookups - before))
        return out

    def from_the_top(family, p, segs, depth):
        table = _CountingTable(real_table(family, p))
        return real_walk(family, p, segs, depth, math.inf, table)[0], table.lookups

    monkeypatch.setattr(torus, "_cover_table", lambda family, p: _CountingTable(real_table(family, p)))
    monkeypatch.setattr(torus, "_walk_cover", walk)
    return walks, from_the_top


def test_certificates_resume_the_crossing_walk_and_equal_fresh_walks(cat, cat_family, stable_model,
                                                                     monkeypatch):
    # both certificates of a solve resume the crossing walk's descent: each
    # must equal a walk of its segments from the top in every field, bit for
    # bit, after fewer cylinder visits
    p_inv, fam_s = stable_model
    q = inverse_partition(p_inv)
    models = [(cat_family, cat), (fam_s, p_inv), (partition_family(q), q)]
    walks, from_the_top = _record_full_walks(monkeypatch)
    rng = np.random.default_rng(271)
    for n in range(90):
        family, p = models[n % 3]
        base = (0.0, 0.0) if n % 2 == 0 else tuple(float(v) for v in rng.random(2))
        target = 0.6 * (1.0 - float(rng.random()))
        walks.clear()
        torus._arc_length_solve(family, p, base, target, 1e-9, 16)
        assert len(walks) == 2, (base, target)   # value(lo) and value(hi), no fallback
        for fam, part, segs, depth, m, lookups in walks:
            ref, ref_lookups = from_the_top(fam, part, segs, depth)
            assert repr(m) == repr(ref) and m == ref, (base, target)
            assert lookups < ref_lookups, (base, target)


def test_cover_walks_only_read_their_table(cat, cat_family, stable_model, monkeypatch):
    # a read-only cover table must serve the solver and the holonomy check,
    # with the same bits as a plain dict
    p_inv, fam_s = stable_model
    rng = np.random.default_rng(31)
    cases = [(tuple(float(v) for v in rng.random(2)), *(0.6 * (1.0 - rng.random(2))))
             for _ in range(20)]

    def run():
        out = []
        for base, x, y in cases:
            arc = UnstableArc(base, 0.0, 0.2 + x)
            out.append((margulis_coordinates(cat_family, cat, fam_s, p_inv, base, x, y),
                        holonomy_invariance_check(cat_family, cat, arc, (y, x))))
        return out

    plain = run()
    real_table = torus._cover_table
    monkeypatch.setattr(torus, "_cover_table",
                        lambda family, p: types.MappingProxyType(real_table(family, p)))
    assert repr(run()) == repr(plain)


def _overlapping_table(family, p, overlap):
    """``_cover_table`` with each child but the first starting ``overlap``
    early, inside the child before it: a table the walks must agree on
    whatever its geometry."""
    table = {}
    for rid, (ext, psi, kids, _) in torus._cover_table(family, p).items():
        starts = {b: max(c_lo - overlap, 0.0) for b, c_lo, _ in kids}
        table[rid] = (ext, psi, *torus._cover_children({b: (starts[b], c_hi - starts[b])
                                                         for b, _, c_hi in kids}))
    return table


def test_full_walks_resume_a_descent_bit_for_bit_near_its_stop(cat, cat_family, stable_model):
    # a walk with a finite target returns its descent, and every full walk
    # handed that descent may resume it: arcs that end at the
    # stop, a few ulp from it, 1e-15 to 0.1 on either side of it and at the
    # ends of the tiles must measure as walks from the top, bit for bit; on
    # the cat tables and on tables whose children overlap by 1e-6, where the
    # chain's earlier and later children reach into its child
    p_inv, fam_s = stable_model
    rng = np.random.default_rng(606)
    resumed = 0
    for n in range(36):
        family, p = ((cat_family, cat), (fam_s, p_inv))[n % 2]
        overlap = (0.0, 1e-6)[n // 2 % 2]
        base = (0.0, 0.0) if n % 3 == 0 else tuple(float(v) for v in rng.random(2))
        depth = (4, 10, 16)[n % 3]
        tiles = torus._plaque_tiling(p, UnstableArc(base, 0.0, 1.0))
        table = _CountingTable(_overlapping_table(family, p, overlap))
        descent = torus._walk_cover(family, p, torus._clip_tiling(tiles, 0.0, 1.0), depth,
                                    0.1 + 0.5 * float(rng.random()), table)[1]
        b = descent[0]
        ends = {b, *(u_lo_t + ext for _, u_lo_t, ext in tiles)}
        up = down = b
        for _ in range(4):
            up, down = math.nextafter(up, 2.0), math.nextafter(down, 0.0)
            ends |= {up, down}
        for d in (1e-15, 1e-13, 1e-12, 1e-11, 2.0 ** -30, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.1):
            ends |= {b - d, b + d}
        for a in sorted(e for e in ends if 0.0 < e <= 1.0):
            segs = torus._clip_tiling(tiles, 0.0, a)
            before = table.lookups
            m = torus._walk_cover(family, p, segs, depth, math.inf, table, descent)[0]
            fresh = _CountingTable(_overlapping_table(family, p, overlap))
            ref = torus._walk_cover(family, p, segs, depth, math.inf, fresh)[0]
            assert repr(m) == repr(ref), (base, depth, overlap, a)
            resumed += table.lookups - before < fresh.lookups
    assert resumed > 400


def _change_hint(monkeypatch, change):
    """Make ``_measure_crossing`` return change(stop) as its stop, with the
    descent of the real stop."""
    real = torus._measure_crossing

    def stub(*args):
        b, descent = real(*args)
        return change(b), descent
    monkeypatch.setattr(torus, "_measure_crossing", stub)


@pytest.mark.parametrize("shift", [-3e-6, -2.5e-7, 4e-9, 2e-6, None])
def test_certificate_repairs_a_wrong_crossing(cat, cat_family, monkeypatch, shift):
    # a descent that misses the step must cost measures, never the answer; a
    # hint that is not the descent's own stop walks every measure from the top
    hints = []
    _change_hint(monkeypatch, lambda b: hints.append(b) or (0.0 if shift is None else b + shift))
    walks, from_the_top = _record_full_walks(monkeypatch)
    for base, target in (((0.0, 0.0), 0.1234567), ((0.31, 0.47), 0.25)):
        hints.clear()
        walks.clear()
        got = torus._arc_length_solve(cat_family, cat, base, target, 1e-9, 16)
        solver_walks = list(walks)
        assert hints and hints[-1] is not None  # the solver took its hint from the stub
        assert got == _bisection(_arc_value(cat_family, cat, base), target, 1e-9)
        assert solver_walks
        for family, p, segs, depth, m, lookups in solver_walks:
            ref, ref_lookups = from_the_top(family, p, segs, depth)
            assert (repr(m), lookups) == (repr(ref), ref_lookups)


def test_certificate_past_the_tiled_arc_is_tiled_afresh(cat, cat_family, monkeypatch):
    # a hint beyond H puts the certificate's arc past the one tiling of
    # [0, H]; that arc must be tiled afresh, not clipped from the shorter one,
    # and walked from the top
    lengths = []
    real_tiling = torus._plaque_tiling
    _change_hint(monkeypatch, lambda b: b + 2.0)
    monkeypatch.setattr(torus, "_plaque_tiling",
                        lambda p, arc: lengths.append(arc.length) or real_tiling(p, arc))
    walks, from_the_top = _record_full_walks(monkeypatch)
    for base, target in (((0.0, 0.0), 0.1234567), ((0.31, 0.47), 0.25)):
        lengths.clear()
        walks.clear()
        got = torus._arc_length_solve(cat_family, cat, base, target, 1e-9, 16)
        certificates = walks[:2]
        assert lengths[0] == 1.0 and max(lengths) > 2.0
        assert got == _bisection(_arc_value(cat_family, cat, base), target, 1e-9)
        for family, p, segs, depth, m, lookups in certificates:
            ref, ref_lookups = from_the_top(family, p, segs, depth)
            assert (repr(m), lookups) == (repr(ref), ref_lookups)


def test_fallback_bisection_doubles_its_bracket(cat, cat_family, monkeypatch):
    # a hint of 0.0 fails the certificate of [0, w]; the target 1.5 lies past
    # the measure of [0, 1] (psi = u-extents: measure = arc length), so the
    # fallback doubles its bracket to [0, 2] before it bisects
    _change_hint(monkeypatch, lambda b: None if b is None else 0.0)
    walks, _ = _record_full_walks(monkeypatch)
    base, target = (0.0, 0.0), 1.5
    got = torus._arc_length_solve(cat_family, cat, base, target, 1e-9, 16)
    ends = [segs[-1][3] + segs[-1][2] - segs[-1][1] for _, _, segs, _, _, _ in walks]
    assert got == _bisection(_arc_value(cat_family, cat, base), target, 1e-9)
    assert ends[1] == pytest.approx(1.0, abs=1e-12) and ends[2] == pytest.approx(2.0, abs=1e-12)


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
    assert rep.boundary_min == 2
    assert rep.interior_unique_fraction > 0.99
    assert rep.passed


def test_fiber_bound_fails_on_a_lost_boundary_coding(cat, monkeypatch):
    # with a rounding bound that does not grow with the rescaling, 5 of the 24
    # boundary points keep only one coding at n = 9, and the check must say so
    monkeypatch.setattr(torus, "_CODE_ROUNDING", 1e-300)
    rep = fiber_bound_check(cat, samples=50, seed=0, n=9)
    assert rep.max_fiber <= rep.bound
    assert rep.boundary_min == 1
    assert not rep.passed
