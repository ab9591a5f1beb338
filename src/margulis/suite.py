"""End-to-end verification suite over the registered fixtures.

Each fixture contributes the checks that make sense for it: structural graph
validation, entropy consistency, harmonic-function residuals, recurrence
verdicts, conformality and consistency of the cylinder measures, and for the
cat-map model the geometric suite (partition validity, intersection-count
identity, holonomy invariance, conformal scaling, fiber bound, coordinate
linearity, ray divergence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures, thermo, torus
from .fixtures import FIXTURES, get_fixture
from .graphs import validate_graph
from .report import Report


@dataclass
class SuiteConfig:
    n_max: int = 40
    depth: int = 8
    samples: int = 500
    seed: int = 0
    threshold: float = 15.0


def run_suite(fixture: str, config: SuiteConfig | None = None) -> Report:
    config = config or SuiteConfig()
    if config.depth < 1:
        raise ValueError(f"depth must be >= 1; depth = {config.depth}")
    if fixture == "all":
        report = Report("all", environment=_env(config))
        for name in sorted(FIXTURES) + ["cat"]:
            sub = run_suite(name, config)
            report.entries.extend(sub.entries)
        return report
    if fixture == "cat":
        return _cat_suite(config)
    fx = get_fixture(fixture)
    report = Report(fixture, environment=_env(config))
    graph = fx.graph()

    gr = validate_graph(graph, radius=6)
    report.add(f"{fixture}/transitivity_as_expected",
               1.0 if gr.transitive_on_ball else 0.0, 1.0,
               gr.transitive_on_ball == fx.transitive,
               f"degrees out={gr.max_out_degree} in={gr.max_in_degree}"
               + ("" if gr.witness is None else f" witness={gr.witness}"))

    if fx.entropy is not None and fx.entropy > 0:
        est = thermo.gurevich_entropy(graph, fx.base, config.n_max, "ratio")
        tol = {"full-2": 1e-12, "golden-mean": 1e-8, "renewal": 1e-3,
               "ladder": 5e-2}.get(fixture, 1e-6)
        report.check_leq(f"{fixture}/entropy_ratio_err", abs(est.value - fx.entropy), tol)

    if graph.is_finite:
        hf = thermo.harmonic_finite(graph, fx.base)
        report.check_leq(f"{fixture}/harmonic_finite_residual", hf.residual, 1e-10)
        if fx.entropy is not None:
            report.check_leq(f"{fixture}/harmonic_vs_entropy", abs(hf.h - fx.entropy), 1e-6)

    if fx.recurrent_at_entropy is True:
        n = max(config.n_max, 40)
        verdict = thermo.classify_recurrence(graph, fx.base, fx.entropy, n, config.threshold)
        ok = verdict.verdict == thermo.RECURRENT
        report.add(f"{fixture}/recurrent", 1.0 if ok else 0.0, 1.0, ok,
                   f"partial_sum={verdict.trace.total:.3f} threshold={verdict.threshold}")
    elif fx.recurrent_at_entropy is False:
        n = max(config.n_max, 60)
        verdict = thermo.classify_recurrence(graph, fx.base, fx.entropy, n, config.threshold)
        ok = verdict.verdict != thermo.RECURRENT
        report.add(f"{fixture}/not_recurrent", 1.0 if ok else 0.0, 1.0, ok,
                   f"verdict={verdict.verdict}")
        if fx.loop_sum_limit is not None and verdict.limit_estimate is not None:
            report.check_leq(f"{fixture}/loop_sum_limit_err",
                             abs(verdict.limit_estimate - fx.loop_sum_limit), 1e-2)

    if fixture == "renewal":
        hs = thermo.harmonic_sarig(graph, "b", fx.entropy, n_max=config.n_max, radius=6)
        worst = max(abs(hs.values[s] - fx.psi[s]) for s in hs.values)
        # every windowed ratio on renewal is 2^(k-n) whatever h is, so the
        # value alone cannot see a wrong h; the solver's residual can
        report.add(f"{fixture}/sarig_vs_exact", worst, 1e-3,
                   worst <= 1e-3 and hs.residual <= 1e-8)
    if fixture == "ladder":
        ray = [f"({k},1)" for k in range(13)]
        hc = thermo.harmonic_cyr(graph, fx.base, ray, fx.entropy, radius=3)
        report.check_leq(f"{fixture}/cyr_residual", hc.residual, 1e-3)

    if fx.psi is not None and fx.entropy is not None and fx.entropy > 0:
        family = fx.family()
        con = measures.conformality_check(family, fx.base, min(config.depth, 8))
        report.check_leq(f"{fixture}/conformality", con.max_discrepancy, 1e-12)
        sup = measures.support_check(family, fx.base, min(config.depth, 6))
        report.add(f"{fixture}/full_support", 1.0 if sup else 0.0, 1.0, sup)
        hol = measures.symbolic_holonomy_check(family, fx.base, fx.base, min(config.depth, 6))
        report.check_leq(f"{fixture}/symbolic_holonomy", hol.max_discrepancy, 0.0)
    return report


def _cat_suite(config: SuiteConfig) -> Report:
    report = Report("cat", environment=_env(config))
    p = torus.builtin_partition("cat-adler-weiss")
    rep = torus.validate_partition(p.auto, p.rectangles)
    report.add("cat/partition_valid", 1.0 if rep.ok else 0.0, 1.0, rep.ok,
               f"area={rep.area_total:.12f}")
    report.check_leq("cat/markov_u_err", rep.max_u_cross_err, 1e-9)
    report.check_leq("cat/markov_s_err", rep.max_s_fit_err, 1e-9)

    h_exact = math.log(p.auto.lam_u)
    est = thermo.gurevich_entropy(p.graph, p.rectangles[0].id, config.n_max, "ratio")
    report.check_leq("cat/entropy_consistency", abs(est.value - h_exact), 1e-6)

    family = torus.partition_family(p)
    rep_h = thermo.check_harmonic(p.graph, family.psi, family.h, tol=1e-10)
    report.check_leq("cat/u_extent_harmonic_residual", rep_h.max_residual, 1e-10)

    # intersection-count identity on a small sample of cylinders
    anchor_xy, anchor_sym = cat_anchor(p)
    from .counting import count_words
    worst = 0
    checked = 0
    for root in [r.id for r in p.rectangles[:2]]:
        for fut in measures.iter_cylinders(p.graph, root, 2):
            if len(fut) != 2:
                continue
            arc = torus.cylinder_image_arc(p, root, fut, s_frac=1 / math.sqrt(2))
            last = fut[-1]
            for i in (2, 5, 8):
                geo = torus.intersection_count(p, arc, i, anchor_xy, anchor_sym)
                sym = count_words(p.graph, last, anchor_sym, i - 2).counts[i - 2]
                worst = max(worst, abs(geo - sym))
                checked += 1
    report.add("cat/intersection_identity", float(worst), 0.0, worst == 0,
               f"{checked} (cylinder, i) pairs")

    # holonomy invariance, within- and cross-rectangle
    rng = np.random.default_rng(config.seed)
    fails = 0
    pairs = 0
    for _ in range(12):
        arc = _random_arc(p, rng, min_len=0.05, max_len=0.3)
        target = rng.random(2)
        hol = torus.holonomy_invariance_check(family, p, arc, target, depths=(4, config.depth))
        pairs += 1
        if not hol.passed:
            fails += 1
    report.add("cat/holonomy_invariance", float(fails), 0.0, fails == 0, f"{pairs} arc pairs")

    conf = torus.conformality_on_leaves(family, p, torus.full_u_side_arc(p, "R1"), k=3)
    report.check_leq("cat/leaf_conformality", conf.rel_err, 1e-6)

    fib = torus.fiber_bound_check(p, samples=config.samples, seed=config.seed, n=6)
    report.add("cat/fiber_bound", float(fib.max_fiber), float(fib.bound), fib.passed,
               f"boundary_max={fib.boundary_max}")

    # the unstable ray of the fixed point 0: m(f^8 seed) / m(seed) is measured
    ray = torus.conformality_on_leaves(family, p, torus.UnstableArc((0.0, 0.0), 0.0, 0.3),
                                       k=8, depth=12)
    report.add("cat/ray_divergence", ray.expected, 1e3,
               ray.rel_err <= ray.bound and ray.ratio > 1e3, "ratio after 8 steps")

    p_inv = torus.inverse_partition(p)
    family_s = torus.partition_family(p_inv)
    dev = margulis_grid_deviation(family, p, family_s, p_inv, grid=5)
    report.check_leq("cat/coordinate_linearity", dev, 1e-6)
    return report


def cat_anchor(p: torus.MarkovPartition) -> tuple[tuple[float, float], str]:
    """A period-2 interior point of the cat map and its symbol."""
    xy = (0.8, 0.6)
    rid, _, _ = torus.locate(p, np.array(xy))
    return xy, rid


def _random_arc(p: torus.MarkovPartition, rng: np.random.Generator,
                min_len: float, max_len: float) -> torus.UnstableArc:
    base = rng.random(2)
    length = min_len + (max_len - min_len) * rng.random()
    return torus.UnstableArc((float(base[0]), float(base[1])), 0.0, float(length))


def margulis_grid_deviation(family_u, p, family_s, p_inv, grid: int = 20,
                            span: float = 0.3) -> float:
    """Max deviation of the measure-coordinate map from its best-fit linear map.

    Fits the affine (unwrapped) representative fp + alpha e_u + gamma e_s of
    each solved point against the measure coordinates (x, y).
    """
    fp = np.zeros(2)
    xs = np.linspace(span / grid, span, grid)
    ys = np.linspace(span / grid, span, grid)
    pts = []
    coords = []
    for x in xs:
        for y in ys:
            mp = torus.margulis_coordinates(family_u, p, family_s, p_inv, fp,
                                            float(x), float(y), tol=1e-9)
            z_affine = fp + mp.alpha * p.auto.e_u + mp.gamma * p.auto.e_s
            pts.append((x, y))
            coords.append(z_affine)
    A = np.column_stack([np.array(pts), np.ones(len(pts))])
    B = np.array(coords)
    dev = 0.0
    for dim in range(2):
        coef, *_ = np.linalg.lstsq(A, B[:, dim], rcond=None)
        dev = max(dev, float(np.max(np.abs(A @ coef - B[:, dim]))))
    return dev


def _env(config: SuiteConfig) -> dict:
    return {"n_max": config.n_max, "depth": config.depth,
            "samples": config.samples, "seed": config.seed}
