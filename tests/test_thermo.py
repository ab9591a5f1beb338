import math

import numpy as np
import pytest

from margulis.counting import NeumaierSum, _frontiers, count_words, exp_weighted
from margulis.fixtures import PHI, get_fixture
from margulis.graphs import ball, build_finite_graph, build_graph
from margulis.thermo import (
    RECURRENT,
    TRANSIENT_EVIDENCE,
    UNDECIDED,
    check_harmonic,
    classify_recurrence,
    fit_tail,
    gurevich_entropy,
    harmonic_cyr,
    harmonic_finite,
    harmonic_sarig,
    ruelle_apply,
)

LOG2 = math.log(2.0)


# -- entropy ------------------------------------------------------------------

def test_entropy_full_shift_exact():
    g = get_fixture("full-2").graph()
    est = gurevich_entropy(g, "0", 20, "ratio")
    assert est.value == LOG2  # consecutive ratios are exactly 2


def test_entropy_golden_mean():
    g = get_fixture("golden-mean").graph()
    est = gurevich_entropy(g, "0", 40, "ratio")
    assert abs(est.value - math.log(PHI)) < 1e-8
    # oracle: log of the positive root of x^2 - x - 1
    root = (1 + math.sqrt(5)) / 2
    assert abs(est.value - math.log(root)) < 1e-8


def test_entropy_renewal():
    g = get_fixture("renewal").graph()
    est = gurevich_entropy(g, "b", 40, "ratio")
    assert abs(est.value - LOG2) < 1e-3


def test_entropy_limsup_method():
    g = get_fixture("full-2").graph()
    est = gurevich_entropy(g, "0", 30, "limsup")
    # (1/n) log 2^(n-1) < log 2, increasing in n
    assert est.value < LOG2
    assert abs(est.value - (29 / 30) * LOG2) < 1e-12


def test_entropy_periodic_graph():
    g = get_fixture("3-cycle").graph()
    est = gurevich_entropy(g, "0", 12, "ratio")
    assert est.period == 3
    assert est.value == 0.0


def test_entropy_no_loops_error():
    g = build_finite_graph(["0", "1"], [("0", "1")])
    with pytest.raises(ValueError, match="no loops"):
        gurevich_entropy(g, "0", 8)


def test_entropy_requires_n_max_4():
    g = get_fixture("full-2").graph()
    with pytest.raises(ValueError):
        gurevich_entropy(g, "0", 3)


# -- recurrence ---------------------------------------------------------------

def test_full_shift_recurrent_at_log2():
    g = get_fixture("full-2").graph()
    v = classify_recurrence(g, "0", LOG2, 200, threshold=100.0)
    assert v.verdict == RECURRENT
    assert v.trace.total == pytest.approx(101.0, abs=1e-9)  # 1 + n/2


def test_renewal_recurrent():
    g = get_fixture("renewal").graph()
    v = classify_recurrence(g, "b", LOG2, 40, threshold=15.0)
    assert v.verdict == RECURRENT


def test_ladder_transient_evidence_with_limit():
    g = get_fixture("ladder").graph()
    v = classify_recurrence(g, "(0,1)", 1.5 * LOG2, 60, threshold=15.0)
    assert v.verdict == TRANSIENT_EVIDENCE
    assert v.tail is not None
    assert abs(v.limit_estimate - 2.0) < 0.01
    assert v.tail.power == pytest.approx(1.5, abs=0.05)


@pytest.mark.parametrize("n_max", [10, 20, 40, 60])
def test_ladder_never_recurrent(n_max):
    g = get_fixture("ladder").graph()
    v = classify_recurrence(g, "(0,1)", 1.5 * LOG2, n_max, threshold=10.0)
    assert v.verdict != RECURRENT


def test_geometric_tail_detected():
    # full shift at h > log 2: terms (2 e^-h)^n / 2 decay geometrically
    g = get_fixture("full-2").graph()
    v = classify_recurrence(g, "0", LOG2 + 0.5, 40, threshold=10.0)
    assert v.verdict == TRANSIENT_EVIDENCE
    assert v.tail.rho == pytest.approx(2 * math.exp(-(LOG2 + 0.5)), abs=1e-3)
    x = math.exp(-(LOG2 + 0.5))
    exact = 1 + x / (1 - 2 * x)  # 1 + sum_n 2^(n-1) x^n
    assert v.limit_estimate == pytest.approx(exact, abs=1e-6)


def test_geometric_tail_is_added_to_the_partial_sum():
    # golden mean at h = 1: the loop series at 0 sums to 1/(1 - e^-1 - e^-2);
    # at n = 20 the fitted tail is ~3.3e-5, far above the tolerance, so an
    # estimate that drops or subtracts it fails
    g = get_fixture("golden-mean").graph()
    v = classify_recurrence(g, "0", 1.0, 20, threshold=15.0)
    assert v.verdict == TRANSIENT_EVIDENCE
    assert v.tail.tail_sum > 1e-5
    exact = 1.0 / (1.0 - math.exp(-1.0) - math.exp(-2.0))
    assert v.limit_estimate == pytest.approx(exact, abs=1e-8)


# reason -> (graph, base, h, n_max, threshold) that classify_recurrence leaves Undecided
UNDECIDED_CASES = {
    # no loop at a: the only positive term is Z_0
    "too few terms": (lambda: build_finite_graph(["a", "b"], [("a", "b"), ("b", "b")]),
                      "a", LOG2, 20, 15.0),
    # h far below the entropy log 2: the terms grow like (2 e^-h)^n
    "rho out of range": (lambda: get_fixture("full-2").graph(), "0", 0.05, 40, 1e300),
    # first returns of lengths 2 and 3 (Z_n = Z_{n-2} + Z_{n-3}): at n = 10 the
    # ratios still oscillate, and the least-squares rate disagrees with Richardson's
    "fitted rho >= 1": (lambda: build_finite_graph(
        ["0", "1", "2"], [("0", "1"), ("0", "2"), ("1", "0"), ("2", "1")]), "0", 0.5, 10, 15.0),
    # one self-loop just above h = 0: the terms e^(-n h) look like j^-p with p ~ 0
    "power <= 1.05": (lambda: build_finite_graph(["0"], [("0", "0")]), "0", 1e-3, 40, 1e3),
    # first returns of odd lengths 3, 5, 7, ...: at n = 12 no tail model fits the terms
    "rms >= 0.05": (lambda: build_finite_graph(
        ["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "0"), ("2", "1")]), "0", 0.5, 12, 15.0),
}


@pytest.mark.parametrize("reason", sorted(UNDECIDED_CASES))
def test_undecided_verdict_names_its_reason(reason):
    graph, base, h, n_max, threshold = UNDECIDED_CASES[reason]
    v = classify_recurrence(graph(), base, h, n_max, threshold=threshold)
    assert v.verdict == UNDECIDED
    assert v.reason == reason
    assert (v.tail is not None) == (reason == "rms >= 0.05")


def test_decided_verdicts_carry_no_reason():
    assert classify_recurrence(get_fixture("renewal").graph(), "b", LOG2, 40).reason == ""
    v = classify_recurrence(get_fixture("ladder").graph(), "(0,1)", 1.5 * LOG2, 60)
    assert v.verdict == TRANSIENT_EVIDENCE and v.reason == ""


def test_fit_tail_too_few_terms():
    assert fit_tail([1.0, 0.5, 0.25], 1.75) is None


def test_fit_tail_rejects_growing_terms():
    # the ratio estimate rho = 1.05 lies outside (0, 1.02)
    assert fit_tail([1.05 ** j for j in range(1, 41)], 0.0) is None


def test_fit_tail_rejects_a_nonsummable_critical_tail():
    # rho ~ 1 and 1/j decays at power p = 1 <= 1.05: the series diverges
    assert fit_tail([1.0 / j for j in range(1, 41)], 0.0) is None


# -- Ruelle operator ----------------------------------------------------------

def test_ruelle_full_shift_constant():
    g = get_fixture("full-2").graph()
    out = ruelle_apply(g, {"0": 1.0, "1": 1.0})
    assert out == {"0": 2.0, "1": 2.0}


def test_ruelle_golden_identity():
    g = get_fixture("golden-mean").graph()
    out = ruelle_apply(g, {"0": PHI, "1": 1.0})
    assert out["0"] == pytest.approx(PHI + 1.0, abs=1e-15)
    assert out["1"] == pytest.approx(PHI, abs=1e-15)
    # phi^2 = phi + 1: L0 psi = phi psi
    assert out["0"] == pytest.approx(PHI * PHI, abs=1e-12)


def test_ruelle_renewal_exact_harmonic():
    fx = get_fixture("renewal")
    g = fx.graph()
    states = ["b"] + [f"l({n},{k})" for n in range(2, 10) for k in range(1, n)]
    out = ruelle_apply(g, fx.psi)
    for s in states:
        expected = 2.0 * fx.psi[s]
        tol = 1e-12 if s != "b" else 1e-15  # b sums the truncated loop family
        assert out[s] == pytest.approx(expected, rel=1e-12)


def test_ruelle_missing_successor_value():
    # L0 applies only where phi covers every successor: "0" -> "1" is uncovered
    g = get_fixture("golden-mean").graph()
    assert ruelle_apply(g, {"0": 1.0}) == {}


# -- harmonic functions -------------------------------------------------------

def test_harmonic_finite_full_shift():
    hf = harmonic_finite(get_fixture("full-2").graph(), "0")
    assert hf.h == pytest.approx(LOG2, abs=1e-12)
    assert hf.values == {"0": 1.0, "1": 1.0}
    assert hf.residual < 1e-10


def test_harmonic_finite_golden_mean():
    hf = harmonic_finite(get_fixture("golden-mean").graph(), "1")
    assert hf.h == pytest.approx(math.log(PHI), abs=1e-12)
    assert hf.values["1"] == 1.0
    assert hf.values["0"] == pytest.approx(PHI, abs=1e-10)
    assert hf.residual < 1e-10


def test_harmonic_finite_permutation_graph():
    hf = harmonic_finite(get_fixture("3-cycle").graph(), "0")
    assert hf.h == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in hf.values.values())


def test_harmonic_sarig_full_shift_symmetric():
    g = get_fixture("full-2").graph()
    hs = harmonic_sarig(g, "0", LOG2, n_max=30, radius=2)
    assert abs(hs.values["0"] - 1.0) < 1e-12
    assert abs(hs.values["1"] - 1.0) < 1e-12


def test_harmonic_sarig_renewal_exact_values():
    fx = get_fixture("renewal")
    hs = harmonic_sarig(fx.graph(), "b", LOG2, n_max=40, radius=8)
    for s, v in hs.values.items():
        assert abs(v - fx.psi[s]) < 1e-3
    assert hs.values["l(5,2)"] == pytest.approx(2.0 ** -3, rel=1e-9)
    assert hs.residual < 1e-12


def test_harmonic_sarig_matches_eigenvector():
    fx = get_fixture("golden-mean")
    g = fx.graph()
    hs = harmonic_sarig(g, "1", fx.entropy, n_max=40, radius=2)
    hf = harmonic_finite(g, "1")
    for s in g.states:
        assert abs(hs.values[s] - hf.values[s]) < 1e-6


def test_harmonic_sarig_zero_denominator():
    g = build_finite_graph(["0", "1"], [("0", "1"), ("1", "1")])
    with pytest.raises(ValueError, match="denominator"):
        harmonic_sarig(g, "0", LOG2, n_max=12)


def test_harmonic_sarig_counts_dropped_states_on_renewal():
    # l(m,j) first reaches b after m - j edges; the window drops the region
    # states whose first hit lies past its start m0 but within n_max
    n_max, radius = 40, 6
    g = get_fixture("renewal").graph()
    hs = harmonic_sarig(g, "b", LOG2, n_max=n_max, radius=radius)
    m0 = n_max // 2
    region = ball(g, "b", radius + 1)
    expected = sum(1 for m in range(2, 65) for j in range(1, m)
                   if f"l({m},{j})" in region and m0 < m - j <= n_max)
    assert expected > 0
    assert hs.meta["dropped"] == expected
    assert not any(f"l({m},{j})" in hs.values for m in range(2, 65) for j in range(1, m)
                   if m - j > m0)


def _table_first_sarig(graph, a0, h, n_max, radius):
    """The Sarig window loop table by table, on memo-free backward walk
    counts, kept as the reference harmonic_sarig matches."""
    m0 = n_max // 2
    tables = list(_frontiers(graph.predecessors, {a0: 1}, n_max))
    region = ball(graph, a0, radius + 1)
    sums, first_hit = {}, {}
    for i, table in enumerate(tables):
        for s, z in table.items():
            if z and s in region:
                first_hit.setdefault(s, i)
                if i > m0:
                    sums.setdefault(s, NeumaierSum()).add(exp_weighted(z, i, h))
    den = sums[a0].value
    values = {s: sums[s].value / den for s in sorted(region)
              if s in sums and sums[s].value > 0.0 and first_hit[s] <= m0}
    rep = check_harmonic(graph, values, h, center=a0, radius=radius, tol=math.inf)
    dropped = sum(1 for i in first_hit.values() if i > m0)
    return values, rep.max_residual, {"a0": a0, "window": (m0 + 1, n_max),
                                      "radius": radius, "dropped": dropped}


@pytest.mark.parametrize("name", ["renewal", "golden-mean", "full-2"])
def test_harmonic_sarig_matches_the_table_first_loop_bit_for_bit(name):
    fx = get_fixture(name)
    for n_max in (12, 40, 80):
        for radius in (2, 6, 8):
            hs = harmonic_sarig(fx.graph(), fx.base, fx.entropy, n_max=n_max, radius=radius)
            values, residual, meta = _table_first_sarig(fx.graph(), fx.base, fx.entropy,
                                                        n_max, radius)
            assert list(hs.values.items()) == list(values.items()), (n_max, radius)
            assert hs.residual == residual
            assert hs.meta == meta


def test_harmonic_sarig_on_full_3_with_twins_matches_the_table_first_loop():
    # "1" and "2" have one successor tuple, so the memo keeps one row for both
    g = build_graph({"kind": "generator", "name": "full", "params": {"symbols": 3}})
    for n_max in (12, 40):
        hs = harmonic_sarig(g, "0", math.log(3), n_max=n_max, radius=2)
        values, residual, meta = _table_first_sarig(g, "0", math.log(3), n_max, 2)
        assert list(hs.values.items()) == list(values.items()) and set(values) == {"0", "1", "2"}
        assert hs.residual == residual and hs.meta == meta


def test_harmonic_sarig_matches_the_table_first_loop_past_900_bits():
    # golden-mean counts pass 900 bits near n = 1300 and overflow a float
    # near n = 1480: the top of the window (750, 1500] needs exp_weighted's
    # exp(log) branch, and must give its bits
    fx = get_fixture("golden-mean")
    assert count_words(fx.graph(), "0", "0", 1500).counts[1500].bit_length() > 1024
    hs = harmonic_sarig(fx.graph(), "0", fx.entropy, n_max=1500, radius=1)
    values, residual, meta = _table_first_sarig(fx.graph(), "0", fx.entropy, 1500, 1)
    assert list(hs.values.items()) == list(values.items())
    assert hs.residual == residual and hs.meta == meta


def test_harmonic_cyr_ladder():
    fx = get_fixture("ladder")
    g = fx.graph()
    ray = [f"({k},1)" for k in range(15)]
    hc = harmonic_cyr(g, "(0,1)", ray, fx.entropy, radius=4)
    assert all(v > 0 for v in hc.values.values())
    assert hc.residual < 1e-3
    assert hc.values["(0,1)"] == 1.0


def test_harmonic_cyr_ray_robustness_report():
    # a ray through color-2 states gives nearly the same function; reported,
    # not asserted as an identity
    fx = get_fixture("ladder")
    g = fx.graph()
    ray1 = [f"({k},1)" for k in range(15)]
    ray2 = ["(0,1)"] + [f"({k},2)" for k in range(1, 15)]
    h1 = harmonic_cyr(g, "(0,1)", ray1, fx.entropy, radius=3)
    h2 = harmonic_cyr(g, "(0,1)", ray2, fx.entropy, radius=3)
    common = set(h1.values) & set(h2.values)
    gap = max(abs(h1.values[s] - h2.values[s]) for s in common)
    assert gap < 1e-3  # numerical comparison on this fixture


def test_harmonic_cyr_state_named_like_an_internal_key():
    # a path a -> "__index__" -> c is transient at every h > 0; with h = log 2
    # the Green's functions into c are 2^-(distance), so psi doubles per step
    g = build_finite_graph(["a", "__index__", "c"], [("a", "__index__"), ("__index__", "c")])
    hc = harmonic_cyr(g, "a", ["a", "__index__", "c"], LOG2)
    assert hc.values == pytest.approx({"a": 1.0, "__index__": 2.0, "c": 4.0})


def test_harmonic_cyr_rejects_non_injective_ray():
    g = get_fixture("full-2").graph()
    with pytest.raises(ValueError, match="injective"):
        harmonic_cyr(g, "0", ["0", "1", "0"], LOG2)


def test_harmonic_cyr_rejects_inadmissible_ray():
    g = get_fixture("3-cycle").graph()
    with pytest.raises(ValueError, match="admissible"):
        harmonic_cyr(g, "0", ["0", "2"], 0.5)


def test_harmonic_cyr_rejects_a_ray_outside_the_solve_region():
    g = build_finite_graph(["a", "b"], [("a", "a"), ("b", "b")])
    with pytest.raises(ValueError, match="'b' outside the solve region"):
        harmonic_cyr(g, "a", ["b"], LOG2)


def test_harmonic_cyr_makes_one_solve(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    fx = get_fixture("ladder")
    harmonic_cyr(fx.graph(), "(0,1)", [f"({k},1)" for k in range(13)], fx.entropy, radius=3)
    assert len(calls) == 1


def test_harmonic_cyr_reads_only_the_rays_end():
    # (0,2) has no incoming edge, so G((0,1), (0,2)) = 0; psi reads only the
    # last state, and a ray of the same length gives the same solve bit for bit
    fx = get_fixture("ladder")
    g = fx.graph()
    h1 = harmonic_cyr(g, "(0,1)", ["(0,2)", "(1,1)", "(2,1)"], fx.entropy, radius=3)
    h2 = harmonic_cyr(g, "(0,1)", ["(0,1)", "(1,1)", "(2,1)"], fx.entropy, radius=3)
    assert list(h1.values.items()) == list(h2.values.items())
    assert h1.residual == h2.residual


def test_harmonic_cyr_zero_denominator_is_unreachable():
    # c reaches a, but a never reaches c: G(a, c) = 0
    g = build_finite_graph(["a", "c"], [("a", "a"), ("c", "a")])
    with pytest.raises(ValueError, match="'c' unreachable from 'a': zero denominator"):
        harmonic_cyr(g, "a", ["c"], LOG2)


def test_harmonic_cyr_below_the_critical_h_names_the_resolvent():
    # at h - 0.01 the truncated resolvent has lost positivity: every entry of
    # the column at (12,1) is negative, G((0,1), (12,1)) = -115.1
    fx = get_fixture("ladder")
    ray = [f"({k},1)" for k in range(13)]
    with pytest.raises(ValueError, match=r"truncated resolvent is not positive .*"
                                         r"below the critical value of the solve region"):
        harmonic_cyr(fx.graph(), "(0,1)", ray, fx.entropy - 0.01, radius=3)


def _ladder_psi(state):
    # the only h-harmonic function of the ladder at h = (3/2) log 2, up to scale
    n, _ = map(int, state[1:-1].split(","))
    return (n + 1) * 2.0 ** (-n / 2)


LADDER_RAYS = {
    "colour-1": [f"({k},1)" for k in range(48)],
    "colour-2": ["(0,1)"] + [f"({k},2)" for k in range(1, 48)],
    "alternating": [f"({k},{1 + k % 2})" for k in range(48)],
}


@pytest.mark.parametrize("name", sorted(LADDER_RAYS))
def test_harmonic_cyr_is_the_ladder_closed_form(name):
    fx = get_fixture("ladder")
    hc = harmonic_cyr(fx.graph(), "(0,1)", LADDER_RAYS[name], fx.entropy, radius=3)
    assert len(hc.values) == 10
    assert max(abs(v - _ladder_psi(s)) for s, v in hc.values.items()) <= 2e-15
    # above the critical h the ratio is harmonic still, but another function
    off = harmonic_cyr(fx.graph(), "(0,1)", LADDER_RAYS[name], fx.entropy + 0.05, radius=3)
    assert max(abs(v - _ladder_psi(s)) for s, v in off.values.items()) >= 0.5


def test_check_harmonic_reports():
    fx = get_fixture("golden-mean")
    g = fx.graph()
    hf = harmonic_finite(g, "1")
    rep = check_harmonic(g, hf.values, hf.h, tol=1e-10)
    assert rep.passed and rep.max_residual < 1e-10

    # renewal exact psi has residual ~2^-63 at the truncated base
    fxr = get_fixture("renewal")
    gr = fxr.graph()
    from margulis.graphs import ball
    values = {s: fxr.psi[s] for s in ball(gr, "b", 4)}
    repr_ = check_harmonic(gr, values, LOG2, center="b", radius=3, tol=1e-12)
    assert repr_.max_residual < 1e-12

    # psi = 1 on the golden mean is off by |2/phi - 1| > 0.2 at state 0
    bad = check_harmonic(g, {"0": 1.0, "1": 1.0}, math.log(PHI), tol=1e-2)
    assert not bad.passed
    assert bad.max_residual > 0.2


def test_self_consistency_of_residual():
    # applying L0 and comparing to e^h psi reproduces the reported residual
    fx = get_fixture("golden-mean")
    g = fx.graph()
    hs = harmonic_sarig(g, "1", fx.entropy, n_max=24, radius=2)
    la = ruelle_apply(g, hs.values)
    res = max(abs(math.exp(-hs.h) * la[s] - hs.values[s]) / hs.values[s] for s in la)
    assert res == pytest.approx(hs.residual, rel=1e-9, abs=1e-15)
