import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from margulis import cli, measures
from margulis.counting import _frontiers
from margulis.fixtures import PHI, RENEWAL_MAX_LEN, get_fixture
from margulis.graphs import ball, build_finite_graph, build_graph
from margulis.measures import (
    ConsistencyReport,
    conformality_check,
    cylinder_measure,
    iter_cylinders,
    make_family,
    support_check,
    symbolic_holonomy_check,
)

LOG2 = math.log(2.0)


def golden_family():
    return get_fixture("golden-mean").family()


def test_make_family_total_masses():
    assert golden_family().psi_of("0") == pytest.approx(PHI)
    assert get_fixture("full-2").family().psi_of("1") == 1.0
    assert get_fixture("renewal").family().psi_of("b") == 1.0


def test_make_family_rejects_nonpositive_psi():
    g = get_fixture("full-2").graph()
    with pytest.raises(ValueError, match="positive"):
        make_family(g, LOG2, {"0": 1.0, "1": 0.0})
    with pytest.raises(ValueError):
        make_family(g, -1.0, {"0": 1.0, "1": 1.0})


def test_make_family_rejects_psi_missing_a_state():
    g = get_fixture("golden-mean").graph()
    with pytest.raises(ValueError, match="no value for state '1'"):
        make_family(g, math.log(PHI), {"0": 7.0})


def test_renewal_psi_table_covers_the_truncated_graph():
    fx = get_fixture("renewal")
    assert fx.graph_spec["params"]["max_len"] == RENEWAL_MAX_LEN == 64
    states = ball(fx.graph(), "b", RENEWAL_MAX_LEN)
    assert set(fx.psi) == states and len(states) == 2017
    assert fx.psi["b"] == 1.0
    for s in states - {"b"}:
        n, k = map(int, s[2:-1].split(","))
        assert fx.psi[s] == 2.0 ** (k - n)


def test_family_psi_is_read_only():
    psi = {"0": PHI, "1": 1.0}
    fam = make_family(get_fixture("golden-mean").graph(), math.log(PHI), psi)
    with pytest.raises(TypeError):
        fam.psi["0"] = 2.0
    psi["0"] = 2.0  # the family keeps its own copy
    assert fam.psi_of("0") == PHI


@pytest.mark.parametrize("psi,passed", [
    ({"0": 1.618033988749895e-14, "1": 1.3e-14}, False),  # wrong psi at a tiny scale
    ({"0": 1618033.988749895, "1": 1e6}, True),          # the right psi scaled by 1e6
])
def test_conformality_verdict_ignores_the_scale_of_psi(psi, passed):
    fam = make_family(get_fixture("golden-mean").graph(), math.log(PHI), psi)
    assert conformality_check(fam, "0", 8).passed is passed


def test_check_on_zero_cylinders_fails():
    assert not ConsistencyReport(0.0, None, 0, True).passed
    # on a generated graph a dict psi may restrict the walk to nothing
    fam = make_family(build_graph({"kind": "generator", "name": "renewal"}), LOG2, {"b": 1.0})
    rep = conformality_check(fam, "b", 8)
    assert rep.cylinders_checked == 0 and rep.max_discrepancy == 0.0
    assert not rep.passed


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_family_rejects_non_finite_h_and_psi(bad):
    # a NaN h made every discrepancy NaN, which no "disc > worst" test records
    g = get_fixture("golden-mean").graph()
    with pytest.raises(ValueError, match="h must be positive and finite"):
        make_family(g, bad, {"0": PHI, "1": 1.0})
    with pytest.raises(ValueError, match="psi must be positive and finite"):
        make_family(g, math.log(PHI), {"0": bad, "1": 1.0})


def test_cylinder_measure_golden_identities():
    fam = golden_family()
    m0 = cylinder_measure(fam, "0", ["0"])
    m1 = cylinder_measure(fam, "0", ["1"])
    assert m0 == pytest.approx(1.0, abs=1e-15)          # e^-h phi = 1
    assert m1 == pytest.approx(1.0 / PHI, abs=1e-15)
    assert m0 + m1 == pytest.approx(PHI, abs=1e-15)     # children sum to psi(0)


def test_cylinder_measure_full_shift():
    fam = get_fixture("full-2").family()
    for fut in (["0"], ["0", "1"], ["1", "1", "0"]):
        assert cylinder_measure(fam, "0", fut) == pytest.approx(0.5 ** len(fut))


def test_cylinder_measure_renewal_loop():
    fam = get_fixture("renewal").family()
    v = cylinder_measure(fam, "b", ["l(3,1)", "l(3,2)", "b"])
    assert v == pytest.approx(1 / 8, abs=1e-16)


def test_cylinder_measure_empty_future():
    fam = golden_family()
    assert cylinder_measure(fam, "0") == pytest.approx(PHI)


def test_cylinder_measure_inadmissible():
    with pytest.raises(ValueError, match="inadmissible"):
        cylinder_measure(golden_family(), "1", ["1"])


def test_cylinder_probability(capsys):
    # the probability mu(cylinder) / psi(root) and the depth N are the CLI's
    def measure(fixture, root, future):
        assert cli.main(["measure", "cylinder", "--fixture", fixture, "--root", root,
                         "--future", future]) == 0
        return json.loads(capsys.readouterr().out)

    c0, c1 = measure("golden-mean", "0", "0"), measure("golden-mean", "0", "1")
    p0, p1 = c0["probability"], c1["probability"]
    assert p0 == pytest.approx(1 / PHI, abs=1e-15)
    assert p1 == pytest.approx(1 / PHI ** 2, abs=1e-15)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)
    assert measure("golden-mean", "0", "")["depth"] == 0
    full = measure("full-2", "1", "0,0,1")
    assert full["probability"] == pytest.approx(0.125) and full["depth"] == 3
    renewal = measure("renewal", "b", "l(4,1),l(4,2),l(4,3),b")
    assert renewal["probability"] == pytest.approx(2.0 ** -4) and renewal["depth"] == 4


@pytest.mark.parametrize("name,depth", [("golden-mean", 6), ("full-2", 8), ("renewal", 6)])
def test_conformality(name, depth):
    fx = get_fixture(name)
    rep = conformality_check(fx.family(), fx.base, depth, tol=1e-12)
    assert rep.passed, rep
    assert rep.max_discrepancy < 1e-12


def test_conformality_detects_perturbed_psi():
    fam = make_family(get_fixture("golden-mean").graph(), math.log(PHI),
                      {"0": PHI * 1.01, "1": 1.0})
    rep = conformality_check(fam, "0", 4, tol=1e-12)
    assert not rep.passed
    assert rep.max_discrepancy > 1e-3


def _psi_futures(family, root, depth):
    """The futures the checks cover: every future to ``depth`` on states psi
    covers."""
    for fut in iter_cylinders(family.graph, root, depth):
        if all(s in family.psi for s in fut):
            yield fut


def _cylinder_conformality(family, root, depth):
    """conformality_check's (max_discrepancy, worst_class, cylinders_checked)
    from cylinder_measure on each future iter_cylinders yields and on its
    one-step refinements.  The futures are taken level by level, in walk
    order within a level, so the first worst class is the check's."""
    worst, worst_class, checked = 0.0, None, 0
    for fut in sorted(_psi_futures(family, root, depth), key=len):
        last = fut[-1] if fut else root
        succ = family.graph.successors(last)
        if not all(s in family.psi for s in succ):
            continue
        total = math.fsum(cylinder_measure(family, root, fut + (s,)) for s in succ)
        disc = abs(total - cylinder_measure(family, root, fut))
        checked += 1
        if disc > worst:
            worst, worst_class = disc, (len(fut), last)
    return worst, worst_class, checked


@pytest.mark.parametrize("name", ["renewal", "full-2", "golden-mean", "cat"])
def test_walk_masses_equal_cylinder_measure(name, monkeypatch):
    # the checks read masses off the walk without re-validating; they must
    # read exactly the masses cylinder_measure gives those cylinders, bit for
    # bit.  support and holonomy read them through _mass; conformality_check
    # discounts once per level, so its report is matched against a word walk
    # over cylinder_measure
    if name == "cat":
        from margulis.torus import builtin_partition, partition_family
        family = partition_family(builtin_partition("cat-adler-weiss"))
        roots = family.graph.states
    else:
        fx = get_fixture(name)
        family, roots = fx.family(), [fx.base]
    read = {}
    mass = measures._mass

    def spy(fam, n, last):
        read[(n, last)] = mass(fam, n, last)
        return read[(n, last)]

    monkeypatch.setattr(measures, "_mass", spy)
    for root in roots:
        assert support_check(family, root, 6)
        assert symbolic_holonomy_check(family, root, root, 6).passed
    monkeypatch.undo()
    expected = {(len(fut), fut[-1] if fut else root): cylinder_measure(family, root, fut)
                for root in roots for fut in _psi_futures(family, root, 6)}
    assert len(expected) > 10
    assert read == expected
    for root in roots:
        con = conformality_check(family, root, 6)
        assert con.passed
        assert (con.max_discrepancy, con.worst_class, con.cylinders_checked) \
            == _cylinder_conformality(family, root, 6)


def test_conformality_checks_and_counts_a_sink_class():
    # b has no successor: the children of a cylinder ending at b sum to 0,
    # so each such class is checked, counted and fails by its own mass
    g = build_finite_graph(["a", "b"], [("a", "a"), ("a", "b")])
    family = make_family(g, LOG2, {"a": 1.0, "b": 1.0})
    for depth in (1, 2, 5):
        rep = conformality_check(family, "a", depth)
        assert (rep.max_discrepancy, rep.worst_class, rep.cylinders_checked) \
            == _cylinder_conformality(family, "a", depth) == (0.5, (1, "b"), 2 * depth + 1)
        assert not rep.passed
    rep = conformality_check(family, "b", 3)
    assert (rep.max_discrepancy, rep.worst_class, rep.cylinders_checked) == (1.0, (0, "b"), 1)


def _renewal_futures(depth, max_len=64):
    # paths of n edges from b: stay at b, or enter the loop of length k and
    # either still be on it after n steps (n < k) or be back at b after k
    paths = [1]
    for n in range(1, depth + 1):
        paths.append(paths[n - 1] + sum(1 if n < k else paths[n - k]
                                        for k in range(2, max_len + 1)))
    return sum(paths)


def test_renewal_conformality_checks_every_future():
    rep = conformality_check(get_fixture("renewal").family(), "b", 8)
    assert rep.passed
    assert rep.cylinders_checked == _renewal_futures(8) == 16074


def test_conformality_counts_the_cylinders_a_hole_in_psi_skips():
    # without l(5,3), a class ending at l(5,2) cannot be checked: a loop of
    # j <= 6 edges at b that takes no 5-loop, then b -> l(5,1) -> l(5,2)
    fam = get_fixture("renewal").family()
    holed = make_family(fam.graph, fam.h, {s: v for s, v in fam.psi.items() if s != "l(5,3)"})
    rep = conformality_check(holed, "b", 8)
    loops = [1]
    for j in range(1, 7):
        loops.append(sum(loops[j - k] for k in range(1, j + 1) if k != 5))
    assert rep.passed and rep.cylinders_checked == 15_195
    assert rep.cylinders_skipped == sum(loops) == 61
    assert conformality_check(fam, "b", 8).cylinders_skipped == 0


def _fsum_conformality(family, root, depth):
    """conformality_check's class walk with every class summed by math.fsum,
    kept as the reference its one-term sums match."""
    graph, psi, h = family.graph, family.psi, family.h
    worst, worst_class, checked, skipped = 0.0, None, 0, 0
    for n, frontier in enumerate(_frontiers(family.successors, {root: 1}, depth)):
        here, below = math.exp(-n * h), math.exp(-(n + 1) * h)
        for last, count in frontier.items():
            succ = graph.successors(last)
            if not all(s in psi for s in succ):
                skipped += count
                continue
            disc = abs(math.fsum(below * psi[s] for s in succ) - here * psi[last])
            checked += count
            if disc > worst:
                worst, worst_class = disc, (n, last)
    return ConsistencyReport(worst, worst_class, checked, worst < 1e-12 * psi[root], skipped)


def test_one_term_sums_match_fsum():
    fam = get_fixture("renewal").family()
    holed = make_family(fam.graph, fam.h, {s: v for s, v in fam.psi.items() if s != "l(5,3)"})
    for depth in range(1, 11):
        assert conformality_check(holed, "b", depth) == _fsum_conformality(holed, "b", depth)
    assert conformality_check(holed, "b", 8).cylinders_skipped == 61
    # golden-mean's "1" has one successor, and e^{-n h} underflows to 0.0 by n = 1560
    gm = golden_family()
    assert math.exp(-1560 * gm.h) == 0.0 and len(gm.graph.successors("1")) == 1
    for root in ("0", "1"):
        for depth in (1, 8, 1560):
            assert conformality_check(gm, root, depth) == _fsum_conformality(gm, root, depth)


def test_checks_count_every_future_at_depth_30():
    # classes keep the checks linear in depth: billions of futures, counted exactly
    rep = conformality_check(get_fixture("renewal").family(), "b", 30)
    assert rep.passed
    assert rep.cylinders_checked == _renewal_futures(30) == 67_645_734_880
    rep = conformality_check(get_fixture("full-2").family(), "0", 30)
    assert rep.passed and rep.cylinders_checked == 2 ** 31 - 1


# -- the word-by-word checks, kept as the reference the class-based ones match --

def _word_conformality(family, root, depth, tol=1e-12):
    graph, psi = family.graph, family.psi
    worst, checked = 0.0, 0
    for fut in _psi_futures(family, root, depth):
        n, last = len(fut), fut[-1] if fut else root
        succ = graph.successors(last)
        if not all(s in psi for s in succ):
            continue
        total = math.fsum(measures._mass(family, n + 1, s) for s in succ)
        disc = abs(total - measures._mass(family, n, last))
        checked += 1
        if disc > worst:
            worst = disc
    return worst, checked > 0 and worst < tol * family.psi_of(root), checked


def _word_support(family, root, depth):
    # every admissible future, psi-covered or not: a state psi misses fails
    lasts = ((len(fut), fut[-1] if fut else root)
             for fut in iter_cylinders(family.graph, root, depth))
    return all(last in family.psi and measures._mass(family, n, last) > 0.0 for n, last in lasts)


def _word_holonomy(family, root_a, root_b, depth):
    worst, checked = 0.0, 0
    for fut in _psi_futures(family, root_a, depth):
        va = measures._mass(family, len(fut), fut[-1] if fut else root_a)
        vb = measures._mass(family, len(fut), fut[-1] if fut else root_b)
        checked += 1
        if abs(va - vb) > worst:
            worst = abs(va - vb)
    return worst, checked > 0 and worst == 0.0, checked


def _reference_cases():
    from margulis.torus import builtin_partition, partition_family
    cases = [(get_fixture(name).family(), get_fixture(name).base, get_fixture(name).base)
             for name in ("full-2", "golden-mean", "renewal")]
    full = get_fixture("full-2")
    cases.append((full.family(), "0", "1"))
    cases.append((make_family(full.graph(), LOG2, {"0": 1.0, "1": 1.3}), "0", "1"))
    cat = partition_family(builtin_partition("cat-adler-weiss"))
    cases += [(cat, root, root) for root in cat.graph.states]
    cases.append((make_family(get_fixture("golden-mean").graph(), math.log(PHI),
                              {"0": PHI * 1.01, "1": 1.0}), "0", "0"))
    fx = get_fixture("renewal")
    scaled = dict(fx.psi)
    scaled["l(3,1)"] *= 1.3
    cases += [(make_family(fx.graph(), LOG2, scaled), r, r) for r in ("b", "l(3,1)")]
    short = {s: v for s, v in fx.psi.items() if s == "b" or int(s[2:-1].split(",")[0]) <= 10}
    cases.append((make_family(fx.graph(), LOG2, short), "b", "b"))
    return cases


def test_class_checks_match_the_word_walk_bit_for_bit():
    verdicts, supports = set(), set()
    for family, root, other in _reference_cases():
        for depth in range(1, 9):
            con = conformality_check(family, root, depth)
            assert (con.max_discrepancy, con.passed, con.cylinders_checked) \
                == _word_conformality(family, root, depth), (root, depth)
            sup = support_check(family, root, depth)
            assert sup is _word_support(family, root, depth), (root, depth)
            hol = symbolic_holonomy_check(family, root, other, depth)
            assert (hol.max_discrepancy, hol.passed, hol.cylinders_checked) \
                == _word_holonomy(family, root, other, depth), (root, depth)
            verdicts.add(con.passed)
            supports.add(sup)
    # the cases include wrong families, and a psi that stops at loops of 10 edges
    assert verdicts == supports == {True, False}


def test_conformality_detects_scaled_renewal_psi():
    fx = get_fixture("renewal")
    psi = dict(fx.psi)
    psi["l(3,1)"] *= 1.3
    fam = make_family(fx.graph(), LOG2, psi)
    rep = conformality_check(fam, "b", 8)
    assert not rep.passed
    assert rep.max_discrepancy > 1e-3


def _ladder_table(max_n=15):
    # psi(n, c) = (n + 1) 2^(-n/2), the ladder's harmonic function at (3/2) log 2
    return {f"({n},{c})": (n + 1) * 2.0 ** (-n / 2) for n in range(max_n + 1) for c in (1, 2)}


def test_ladder_family_is_conformal_and_its_perturbations_fail():
    # the transient case: from (0,1) the walk to depth 12 stays at n <= 12,
    # and the table to n = 15 covers every successor it reads
    fx = get_fixture("ladder")
    h, psi = fx.entropy, _ladder_table()
    rep = conformality_check(make_family(fx.graph(), h, psi), "(0,1)", 12)
    assert rep.passed and rep.max_discrepancy <= 1e-15
    assert rep.cylinders_checked == 417_257
    scaled = dict(psi, **{"(3,1)": psi["(3,1)"] * 1.001})
    for fam in (make_family(fx.graph(), h, scaled), make_family(fx.graph(), h + 1e-3, psi)):
        bad = conformality_check(fam, "(0,1)", 12)
        assert not bad.passed and bad.max_discrepancy > 5e-5


def test_full_support():
    for name in ("golden-mean", "full-2", "renewal"):
        fx = get_fixture(name)
        assert support_check(fx.family(), fx.base, 6)


def test_support_check_passes_where_the_masses_underflow():
    # golden-mean's e^{-n h} is 0.0 in floats by n = 1560; every psi value
    # is still positive, so every cylinder carries positive mass
    fx = get_fixture("golden-mean")
    fam = fx.family()
    assert math.exp(-1560 * fam.h) == 0.0
    assert support_check(fam, fx.base, 1560)
    assert cli.main(["measure", "verify", "--fixture", "golden-mean", "--depth", "1560"]) == 0


def test_support_check_fails_on_a_state_psi_misses():
    # a hole in renewal's psi, met at n = 3 from b; and the ladder's table to
    # n = 11, whose edge the walk from (0,1) crosses at depth 12
    fx = get_fixture("renewal")
    holed = make_family(fx.graph(), LOG2, {s: v for s, v in fx.psi.items() if s != "l(5,3)"})
    assert support_check(holed, "b", 2) and not support_check(holed, "b", 3)
    assert not support_check(holed, "b", 8)
    ladder = make_family(get_fixture("ladder").graph(), 1.5 * LOG2, _ladder_table(11))
    assert support_check(ladder, "(0,1)", 11) and not support_check(ladder, "(0,1)", 12)


def _support_by_frontiers(family, root, depth):
    """support_check by its definition: every n-edge walk from ``root``,
    n <= ``depth``, ends at a state of positive psi."""
    return all(s in family.psi and family.psi[s] > 0.0
               for frontier in _frontiers(family.graph.successors, {root: 1}, depth) for s in frontier)


def test_support_check_agrees_with_the_frontier_definition():
    fx = get_fixture("renewal")
    holed = {s: v for s, v in fx.psi.items() if s != "l(5,3)"}
    cases = [(make_family(fx.graph(), LOG2, psi), "b", range(9)) for psi in (fx.psi, holed)]
    # README's ladder table, to n = 11
    cases.append((make_family(get_fixture("ladder").graph(), 1.5 * LOG2, _ladder_table(11)),
                  "(0,1)", range(14)))
    cases.append((golden_family(), "0", [*range(9), 1560]))
    verdicts = []
    for family, root, depths in cases:
        for depth in depths:
            verdicts.append(support_check(family, root, depth))
            assert verdicts[-1] == _support_by_frontiers(family, root, depth), (root, depth)
    assert True in verdicts and False in verdicts


def test_symbolic_holonomy_same_root():
    fam = golden_family()
    rep = symbolic_holonomy_check(fam, "0", "0", 6)
    assert rep.max_discrepancy == 0.0 and rep.passed


def test_symbolic_holonomy_identical_trees():
    fam = get_fixture("full-2").family()
    rep = symbolic_holonomy_check(fam, "0", "1", 5)
    assert rep.max_discrepancy == 0.0


def test_symbolic_holonomy_rejects_distinct_roots():
    fam = golden_family()
    with pytest.raises(ValueError, match="precondition"):
        symbolic_holonomy_check(fam, "0", "1", 4)


# -- Kolmogorov consistency as a property --------------------------------------

@given(st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_kolmogorov_consistency_random_cylinders(index):
    fam = golden_family()
    futures = [fut for fut in iter_cylinders(fam.graph, "0", 6)]
    fut = futures[index % len(futures)]
    parent = cylinder_measure(fam, "0", fut)
    last = fut[-1] if fut else "0"
    children = sum(cylinder_measure(fam, "0", fut + (s,))
                   for s in fam.graph.successors(last))
    assert children == pytest.approx(parent, abs=1e-12)
