"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, together with the wall-clock budget the
criterion is expected to fit in.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from margulis import (
    builtin_partition,
    classify_recurrence,
    conformality_check,
    conformality_on_leaves,
    cylinder_image_arc,
    fiber_bound_check,
    full_u_side_arc,
    gurevich_entropy,
    harmonic_finite,
    harmonic_sarig,
    holonomy_invariance_check,
    intersection_count,
    inverse_partition,
    memberships,
    partition_family,
    validate_partition,
)
from margulis.counting import count_words
from margulis.fixtures import get_fixture
from margulis.measures import iter_cylinders
from margulis.suite import margulis_grid_deviation
from margulis.thermo import RECURRENT, TRANSIENT_EVIDENCE
from margulis.torus import UnstableArc

LOG2 = math.log(2.0)
LAM_CAT = (3 + math.sqrt(5)) / 2


class Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.time()

    def done(self):
        elapsed = time.time() - self.t0
        print(f"[PASS] criterion {self.number}: {self.label} ({elapsed:.2f}s)")
        assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


@pytest.fixture(scope="module")
def cat():
    return builtin_partition("cat-adler-weiss")


@pytest.fixture(scope="module")
def cat_family(cat):
    return partition_family(cat)


def test_criterion_1_harmonicity():
    c = Criterion(1, "harmonic residual < 1e-10; sarig matches eigenvector < 1e-5", 1.0)
    for name in ("golden-mean", "full-2"):
        fx = get_fixture(name)
        g = fx.graph()
        hf = harmonic_finite(g, "1")
        assert hf.residual < 1e-10
        hs = harmonic_sarig(g, "1", fx.entropy, n_max=60, radius=2)
        sup = max(abs(hs.values[s] - hf.values[s]) for s in g.states)
        assert sup < 1e-5
    c.done()


def test_criterion_2_renewal():
    c = Criterion(2, "renewal: entropy log2 +- 1e-3, Recurrent, psi = 2^(k-n) +- 1e-3", 5.0)
    fx = get_fixture("renewal")
    g = fx.graph()
    est = gurevich_entropy(g, "b", 40, "ratio")
    assert abs(est.value - LOG2) <= 1e-3
    verdict = classify_recurrence(g, "b", LOG2, 40, threshold=15.0)
    assert verdict.verdict == RECURRENT
    hs = harmonic_sarig(g, "b", LOG2, n_max=40, radius=8)
    assert hs.values, "no harmonic values produced"
    for s, v in hs.values.items():
        assert abs(v - fx.psi[s]) <= 1e-3
    c.done()


def test_criterion_3_ladder():
    c = Criterion(3, "ladder: discounted loop sums converge to 2.0 +- 0.01, not Recurrent", 10.0)
    g = get_fixture("ladder").graph()
    h = 1.5 * LOG2
    verdict = classify_recurrence(g, "(0,1)", h, 60, threshold=15.0)
    assert verdict.verdict != RECURRENT
    assert verdict.verdict == TRANSIENT_EVIDENCE
    assert verdict.limit_estimate is not None
    assert abs(verdict.limit_estimate - 2.0) <= 0.01
    c.done()


def test_criterion_4_conformality():
    c = Criterion(4, "cylinder conformality < 1e-12 to depth 8", 1.0)
    for name in ("golden-mean", "full-2", "renewal"):
        fx = get_fixture(name)
        rep = conformality_check(fx.family(), fx.base, 8, tol=1e-12)
        assert rep.passed and rep.max_discrepancy < 1e-12
    c.done()


def test_criterion_5_cat_model(cat):
    c = Criterion(5, "cat: entropy = log((3+sqrt5)/2) +- 1e-6; partition valid at 1e-9", 5.0)
    est = gurevich_entropy(cat.graph, "R1", 40, "ratio")
    assert abs(est.value - math.log(LAM_CAT)) <= 1e-6
    rep = validate_partition(cat.auto, cat.rectangles)
    assert rep.ok
    c.done()


def test_criterion_6_intersection_identity(cat):
    c = Criterion(6, "intersection counts = word counts, depth <= 3, i <= 12, exact", 30.0)
    anchor_xy = (0.8, 0.6)
    anchor_sym = memberships(cat, np.array(anchor_xy))[0][0]
    checked = 0
    for root in [r.id for r in cat.rectangles]:
        for fut in iter_cylinders(cat.graph, root, 3):
            arc = cylinder_image_arc(cat, root, fut, s_frac=1 / math.sqrt(2))
            last = fut[-1] if fut else root
            N = len(fut)
            for i in range(N, 13):
                geo = intersection_count(cat, arc, i, anchor_xy, anchor_sym)
                sym = count_words(cat.graph, last, anchor_sym, i - N).counts[i - N]
                assert geo == sym, (root, fut, i, geo, sym)
                checked += 1
    assert checked > 1400
    c.done()


def test_criterion_7_holonomy_invariance(cat, cat_family):
    c = Criterion(7, "holonomy: 100 arc pairs (>= 20 cross-rectangle), bounds + decay", 60.0)
    rng = np.random.default_rng(11)
    h = cat_family.h
    cross = 0
    for _ in range(100):
        base = rng.random(2)
        arc = UnstableArc((float(base[0]), float(base[1])), 0.0,
                          float(0.1 + 0.3 * rng.random()))
        target = rng.random(2)
        if memberships(cat, np.array(arc.base))[0][0] != memberships(cat, target)[0][0]:
            cross += 1
        rep = holonomy_invariance_check(cat_family, cat, arc, target, depths=(6, 12))
        assert rep.passed  # discrepancy <= combined truncation bound at each depth
        d6, d12 = rep.discrepancies
        assert d12 <= math.exp(-6 * h) * d6 + 1e-15
    assert cross >= 20
    c.done()


def test_criterion_8_conformal_scaling(cat, cat_family):
    c = Criterion(8, "measure(f^k arc) / measure(arc) = e^{kh} +- 1e-5 rel, k <= 5", 10.0)
    arcs = [full_u_side_arc(cat, "R1"), UnstableArc((0.21, 0.68), 0.0, 0.17),
            UnstableArc((0.05, 0.33), 0.0, 0.4)]
    for arc in arcs:
        for k in range(6):
            rep = conformality_on_leaves(cat_family, cat, arc, k, depth=16)
            assert rep.rel_err <= 1e-5, (arc, k, rep.rel_err)
    c.done()


def test_criterion_9_fiber_bound(cat):
    c = Criterion(9, "coding fiber <= (D_r+1)^2 - 1 over 1e4 samples + boundary points", 10.0)
    rep = fiber_bound_check(cat, samples=10_000, seed=7, n=6)
    assert rep.max_fiber <= rep.bound == 15
    assert rep.boundary_max >= 2
    c.done()


def test_criterion_10_coordinate_linearity(cat, cat_family):
    c = Criterion(10, "measure-coordinate map linear on a 20x20 grid to 1e-6", 30.0)
    p_inv = inverse_partition(cat)
    fam_s = partition_family(p_inv)
    dev = margulis_grid_deviation(cat_family, cat, fam_s, p_inv, grid=20, span=0.3)
    assert dev < 1e-6
    c.done()


def test_criterion_11_ray_divergence(cat, cat_family):
    c = Criterion(11, "ray: m(f^k seed) / m(seed) brackets e^{kh}, k <= 8, > 1e3 at k = 8", 1.0)
    seed = UnstableArc((0.0, 0.0), 0.0, 0.3)   # from the fixed point 0 along +e_u
    for k in range(9):
        rep = conformality_on_leaves(cat_family, cat, seed, k, depth=12)
        assert rep.rel_err <= rep.bound, (k, rep.rel_err, rep.bound)
    assert rep.ratio > 1e3
    c.done()
