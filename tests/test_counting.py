import math
import re
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from margulis.counting import (
    _frontiers,
    count_periodic,
    count_words,
    counts_into,
    weighted_loop_sum,
)
from margulis.fixtures import FIXTURES, get_fixture
from margulis.graphs import ShiftGraph, ball, build_finite_graph, build_graph
from margulis.measures import make_family
from margulis.torus import builtin_partition


def brute_count(g, a, b, n):
    """Oracle: enumerate every admissible word of n edges from a, count arrivals."""
    words = [[a]]
    for _ in range(n):
        words = [w + [t] for w in words for t in g.successors(w[-1])]
    return sum(1 for w in words if w[-1] == b)


@pytest.mark.parametrize("name", ["full-2", "golden-mean", "3-cycle"])
def test_count_words_matches_brute_force(name):
    g = get_fixture(name).graph()
    for a in g.states:
        for b in g.states:
            table = count_words(g, a, b, 12)
            for n in range(13):
                assert table.counts[n] == brute_count(g, a, b, n)


def naive_frontiers(step, start, n_max):
    """Oracle: every walk of n <= n_max steps from ``start``, one by one,
    tallied by its last state."""
    walks, out = [[start]], []
    for n in range(n_max + 1):
        if n:
            walks = [w + [t] for w in walks for t in step(w[-1])]
        out.append(Counter(w[-1] for w in walks))
    return out


def _renewal6():
    return build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 6}})


@pytest.mark.parametrize("case", ["renewal-forward", "renewal-backward", "ladder", "psi-filtered"])
def test_frontiers_match_a_naive_walk_count(case):
    if case == "ladder":
        g = get_fixture("ladder").graph()
        step, start = g.successors, "(0,1)"
    elif case == "psi-filtered":
        # psi misses the loops of length 5 and 6, so the step drops their entries
        g = _renewal6()
        psi = {"b": 1.0, **{f"l({n},{k})": 2.0 ** (k - n) for n in range(2, 5) for k in range(1, n)}}
        step, start = make_family(g, math.log(2), psi).successors, "b"
    else:
        g = _renewal6()
        step, start = (g.successors if case == "renewal-forward" else g.predecessors), "b"
    got = list(_frontiers(step, {start: 1}, 10))
    assert [dict(f) for f in got] == [dict(c) for c in naive_frontiers(step, start, 10)]


def test_frontiers_step_each_distinct_state_once():
    g = get_fixture("renewal").graph()
    calls = Counter()

    def step(s):
        calls[s] += 1
        return g.predecessors(s)

    frontiers = list(_frontiers(step, {"b": 1}, 40))
    assert set(calls.values()) == {1}
    assert set(calls) == set().union(*frontiers[:40])
    # the levels revisit states: one call per (state, level) would be far more
    assert sum(map(len, frontiers[:40])) > 5 * len(calls)
    assert frontiers == list(_frontiers(g.predecessors, {"b": 1}, 40))


def test_full_shift_counts():
    g = get_fixture("full-2").graph()
    counts = count_words(g, "0", "0", 3).counts
    assert counts == [1, 1, 2, 4]  # Z_n = 2^(n-1) for n >= 1


def test_golden_mean_fibonacci():
    g = get_fixture("golden-mean").graph()
    counts = count_words(g, "0", "0", 10).counts
    assert counts == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_empty_word_convention():
    g = get_fixture("golden-mean").graph()
    assert count_words(g, "1", "1", 0).counts == [1]
    assert count_words(g, "0", "1", 0).counts == [0]


def test_renewal_counts_closed_form():
    # loops at the base follow Z_0 = 1, Z_n = 2^(n-1): renewal of the
    # first-return series x + x^2 + x^3 + ...
    g = get_fixture("renewal").graph()
    counts = count_periodic(g, "b", 20).counts
    assert counts[0] == 1
    for n in range(1, 21):
        assert counts[n] == 2 ** (n - 1)


def test_ladder_counts_closed_form():
    # loops of 2m edges: Catalan(m) level profiles times 2^m color choices
    g = get_fixture("ladder").graph()
    counts = count_periodic(g, "(0,1)", 16).counts
    catalan = [1]
    for m in range(1, 9):
        catalan.append(catalan[-1] * (4 * m - 2) // (m + 1))
    for m in range(9):
        assert counts[2 * m] == catalan[m] * 2 ** m
        if m:
            assert counts[2 * m - 1] == 0


def test_periodic_superadditivity():
    for name in ("full-2", "golden-mean", "renewal"):
        g = get_fixture(name).graph()
        base = get_fixture(name).base
        P = count_periodic(g, base, 20).counts
        for n in range(1, 11):
            for m in range(1, 21 - n):
                assert P[n + m] >= P[n] * P[m]


def test_full_shift_periodic_examples():
    g = get_fixture("full-2").graph()
    P = count_periodic(g, "0", 5).counts
    assert P[2] == 2 and P[3] == 4 and P[5] == 16
    assert P[5] >= P[2] * P[3]


@given(n=st.integers(1, 8), m=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_chapman_kolmogorov(n, m):
    g = get_fixture("golden-mean").graph()
    for a in g.states:
        for b in g.states:
            lhs = count_words(g, a, b, n + m).counts[n + m]
            rhs = sum(count_words(g, a, c, n).counts[n] * count_words(g, c, b, m).counts[m]
                      for c in g.states)
            assert lhs == rhs


def test_counts_into_matches_forward():
    g = get_fixture("renewal").graph()
    into = counts_into(g, "b", 12)
    for s in ("b", "l(3,1)", "l(5,2)"):
        assert into.row(s) == count_words(g, s, "b", 12).counts


def _assert_rows_are_forward_counts(make_graph, targets, states, horizons):
    """On one graph per target, whose memo is filled to each of ``horizons``
    in turn, every row equals the forward count on another graph."""
    reference, top = make_graph(), max(horizons)
    for target in targets:
        forward = {s: count_words(reference, s, target, top).counts for s in states}
        g = make_graph()
        for n in horizons:
            into = counts_into(g, target, n)
            for s in states:
                assert into.row(s) == forward[s][:n + 1], (target, s, n)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_counts_into_is_a_naive_walk_count_at_every_state(name):
    fx = get_fixture(name)
    # renewal's loops are cut to 6 edges, so that its naive walks stay few
    g = _renewal6() if name == "renewal" else fx.graph()
    states = g.states if g.is_finite else sorted(ball(g, fx.base, 8))
    for target in (states if g.is_finite else [fx.base]):
        into = counts_into(g, target, 8)
        for s in states:
            naive = naive_frontiers(g.successors, s, 8)
            assert into.row(s) == [f[target] for f in naive], (target, s)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_counts_into_matches_forward_at_every_state_and_length(name):
    fx = get_fixture(name)
    g = fx.graph()
    if g.is_finite:
        _assert_rows_are_forward_counts(fx.graph, g.states, g.states, (40, 13, 60))
    else:
        radius, n = (6, 20) if name == "renewal" else (8, 40)
        _assert_rows_are_forward_counts(fx.graph, [fx.base], sorted(ball(g, fx.base, radius)),
                                        (n // 2, n))


def test_counts_into_matches_forward_on_the_cat_partition():
    graph = builtin_partition("cat-adler-weiss").graph
    _assert_rows_are_forward_counts(lambda: graph, graph.states, graph.states, (20,))


def test_counts_into_on_a_short_renewal_from_every_state():
    # every state, each a target too; loops of 12 edges at most
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 12}})
    states = sorted(ball(g, "b", 12))
    assert len(states) == 1 + 11 * 12 // 2
    _assert_rows_are_forward_counts(
        lambda: build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 12}}),
        ["b", "l(12,1)", "l(7,6)"], states, (5, 30))


def test_counts_into_on_an_out_degree_one_cycle_through_the_target():
    g = get_fixture("3-cycle").graph()
    into = counts_into(g, "0", 9)
    assert into.locate("1") == ("0", 2) and into.locate("2") == ("0", 1)
    assert into.locate("0") == ("0", 0)
    assert into.row("1") == [0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
    _assert_rows_are_forward_counts(get_fixture("3-cycle").graph, ["0", "1", "2"],
                                    ["0", "1", "2"], (2, 9, 30))


def _chain_into_branching():
    # c1 -> c2 -> c3 -> B, and B branches to the target t and back to c1
    return build_finite_graph(["t", "c1", "c2", "c3", "B"],
                              [("t", "t"), ("t", "c1"), ("c1", "c2"), ("c2", "c3"),
                               ("c3", "B"), ("B", "t"), ("B", "c1")])


def test_counts_into_on_a_chain_that_enters_a_branching_state():
    into = counts_into(_chain_into_branching(), "t", 20)
    assert [into.locate(c) for c in ("c1", "c2", "c3")] == [("B", 3), ("B", 2), ("B", 1)]
    assert into.locate("B") == ("B", 0)
    states = ["t", "c1", "c2", "c3", "B"]
    _assert_rows_are_forward_counts(_chain_into_branching, states, states, (3, 4, 20))


def _dead_end():
    # y's one successor z loops on itself and never reaches t
    return build_finite_graph(["t", "x", "y", "z"],
                              [("t", "t"), ("t", "x"), ("x", "t"), ("y", "z"), ("z", "z")])


def test_counts_into_on_an_out_degree_one_state_that_never_reaches_the_target():
    into = counts_into(_dead_end(), "t", 12)
    assert into.locate("x") == ("t", 1)
    assert into.locate("y") == ("y", 0) and into.row("y") == [0] * 13
    _assert_rows_are_forward_counts(_dead_end, ["t", "x", "y", "z"], ["t", "x", "y", "z"], (12,))


def _half_line():
    # k -> k-1 for k >= 1 and 0 -> 0: every k >= 1 is an alias of 0, without end
    return ShiftGraph("0", lambda s: [str(max(int(s) - 1, 0))],
                      lambda s: (["0"] if s == "0" else []) + [str(int(s) + 1)],
                      contains_fn=lambda s: s.isdigit(), name="half-line")


def test_counts_into_ends_an_unbounded_alias_chain_at_the_horizon():
    g = _half_line()
    into = counts_into(g, "0", 25)
    memo = g._into_memo["0"]
    assert memo.alias == {str(k): ("0", k) for k in range(1, 26)}
    assert into.locate("25") == ("0", 25) and into.locate("26") == ("26", 0)
    assert into.row("25") == [0] * 25 + [1]
    counts_into(g, "0", 40)  # a new memo walks the chain on to offset 40
    assert g._into_memo["0"].alias == {str(k): ("0", k) for k in range(1, 41)}
    _assert_rows_are_forward_counts(_half_line, ["0", "3"], [str(k) for k in range(45)], (25, 40))


@pytest.mark.parametrize("make_graph", [get_fixture("renewal").graph, get_fixture("ladder").graph,
                                        _half_line], ids=["renewal", "ladder", "half-line"])
def test_a_longer_horizon_rebuilds_the_memo_and_a_shorter_one_keeps_it(make_graph):
    g, fresh = make_graph(), make_graph()
    target = g.base
    counts_into(g, target, 20)
    short = g._into_memo[target]
    counts_into(g, target, 60)
    memo = g._into_memo[target]
    assert memo is not short and len(short.tables) == 21  # the old memo is left as it was
    counts_into(fresh, target, 60)
    reference = fresh._into_memo[target]
    assert memo.tables == reference.tables and memo.alias == reference.alias
    for n in (10, 60):
        counts_into(g, target, n)
        assert g._into_memo[target] is memo


def test_ladder_twins_share_one_row():
    # (h,1) and (h,2) have one successor tuple for h >= 1, and (h,1) is met
    # first; a memo built at 20 and rebuilt at 60 keeps the rule
    g = get_fixture("ladder").graph()
    for n in (20, 60):
        into = counts_into(g, "(0,1)", n)
        assert all(into.locate(f"({h},2)") == (f"({h},1)", 0) for h in range(1, n + 1))
    keys = set().union(*g._into_memo["(0,1)"].tables)
    assert not any(k.endswith(",2)") and k != "(0,2)" for k in keys)
    assert {f"({h},1)" for h in range(61)} <= keys
    reference = get_fixture("ladder").graph()
    for h in (1, 2, 7, 30):
        assert into.row(f"({h},2)") == count_words(reference, f"({h},2)", "(0,1)", 60).counts


def test_ladder_state_with_the_targets_successors_stays_explicit():
    # (0,2) has the successors of the target (0,1) but no empty word into it
    g = get_fixture("ladder").graph()
    assert g.successors("(0,2)") == g.successors("(0,1)")
    into = counts_into(g, "(0,1)", 40)
    assert into.locate("(0,2)") == ("(0,2)", 0) and into.locate("(0,1)") == ("(0,1)", 0)
    assert into.row("(0,2)") == [0] + into.row("(0,1)")[1:]
    assert into.row("(0,2)")[2] == 2


def _chain_into_a_twin():
    # A and B both go to (t, A), and A is met first; c2 -> c1 -> B is a chain
    # into the twin B, and t -> c2 closes it
    return build_finite_graph(["t", "A", "B", "c1", "c2"],
                              [("t", "t"), ("t", "A"), ("t", "c2"), ("A", "t"), ("A", "A"),
                               ("B", "t"), ("B", "A"), ("c1", "B"), ("c2", "c1")])


def test_a_chain_into_a_twin_is_an_alias_of_its_representative():
    g = _chain_into_a_twin()
    into = counts_into(g, "t", 20)
    assert into.locate("B") == ("A", 0)
    assert into.locate("c1") == ("A", 1) and into.locate("c2") == ("A", 2)
    assert all("B" not in table for table in g._into_memo["t"].tables)
    states = ["t", "A", "B", "c1", "c2"]
    _assert_rows_are_forward_counts(_chain_into_a_twin, ["t"], states, (3, 20))


def test_full_3_twins_are_naive_walk_counts():
    g = build_graph({"kind": "generator", "name": "full", "params": {"symbols": 3}})
    into = counts_into(g, "0", 10)
    assert into.locate("2") == ("1", 0) and into.locate("1") == ("1", 0)
    for s in g.states:
        assert into.row(s) == [f["0"] for f in naive_frontiers(g.successors, s, 10)], s


def test_a_build_that_raises_stores_nothing():
    # predecessors of "30" raise: a build that walks the chain that far fails
    def pred(s):
        if s == "30":
            raise RuntimeError("predecessor function failed")
        return (["0"] if s == "0" else []) + [str(int(s) + 1)]

    g = ShiftGraph("0", lambda s: [str(max(int(s) - 1, 0))], pred,
                   contains_fn=lambda s: s.isdigit(), name="half-line")
    with pytest.raises(RuntimeError):
        counts_into(g, "0", 40)
    assert "0" not in g._into_memo
    counts_into(g, "0", 20)
    memo = g._into_memo["0"]
    with pytest.raises(RuntimeError):
        counts_into(g, "0", 40)
    assert g._into_memo["0"] is memo and len(memo.tables) == 21


def test_negative_horizon_rejected():
    g = get_fixture("renewal").graph()
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        counts_into(g, "b", -1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        count_periodic(g, "b", -1)


def test_horizon_past_the_cap_is_rejected_before_counting():
    # the cap keeps every gated horizon (up to 300) and the 1500 of the
    # float-overflow test; one past it, each count raises before its memo or
    # frontier exists (the huge horizon itself is never run)
    from margulis.counting import _MAX_HORIZON
    assert _MAX_HORIZON >= 1500
    g = get_fixture("full-2").graph()
    msg = f"n_max must be >= 0 and <= {_MAX_HORIZON}; n_max = {_MAX_HORIZON + 1}"
    for count in (lambda n: counts_into(g, "0", n), lambda n: count_periodic(g, "0", n),
                  lambda n: count_words(g, "0", "1", n)):
        with pytest.raises(ValueError, match=re.escape(msg)):
            count(_MAX_HORIZON + 1)
    assert "0" not in g._into_memo
    assert count_periodic(g, "0", _MAX_HORIZON).counts[-1] == 2 ** (_MAX_HORIZON - 1)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_periodic_reads_the_backward_memo_exactly(name):
    fx = get_fixture(name)
    forward = count_words(fx.graph(), fx.base, fx.base, 60).counts
    assert count_periodic(fx.graph(), fx.base, 60).counts == forward
    # one graph whose memo is built at 20, rebuilt at 60, then read shorter
    g = fx.graph()
    for n in (20, 60, 10):
        assert count_periodic(g, fx.base, n).counts == forward[:n + 1]
    for n in range(61):
        assert count_periodic(g, fx.base, n).counts == forward[:n + 1]


def _first_returns(graph, a, n_max):
    """f_k for k = 0..n_max: loops of k edges at ``a`` that meet ``a`` only
    at their ends, by a forward walk on successors with ``a`` absorbed."""
    f, frontier = [0] * (n_max + 1), {a: 1}
    for k in range(1, n_max + 1):
        nxt = {}
        for s, c in frontier.items():
            for t in graph.successors(s):
                if t == a:
                    f[k] += c
                else:
                    nxt[t] = nxt.get(t, 0) + c
        frontier = nxt
    return f


def _assert_renewal_equation(graph, a, n_max):
    # Z_n = sum_{k=1..n} f_k Z_{n-k}: a loop splits at its first return to a
    z = count_periodic(graph, a, n_max).counts
    f = _first_returns(graph, a, n_max)
    assert z[0] == 1
    for n in range(1, n_max + 1):
        assert z[n] == sum(f[k] * z[n - k] for k in range(1, n + 1)), n


@pytest.mark.parametrize("n_max", [40, 80])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_loop_counts_satisfy_the_renewal_equation(name, n_max):
    fx = get_fixture(name)
    _assert_renewal_equation(fx.graph(), fx.base, n_max)


@pytest.mark.parametrize("max_len", [8, 20, 64])
def test_renewal_loop_counts_satisfy_the_renewal_equation(max_len):
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": max_len}})
    _assert_renewal_equation(g, "b", 80)


def test_cat_partition_loop_counts_satisfy_the_renewal_equation():
    g = builtin_partition("cat-adler-weiss").graph
    for a in g.states:
        _assert_renewal_equation(g, a, 40)


def test_counts_into_rows_are_the_callers_own():
    g = get_fixture("renewal").graph()
    into = counts_into(g, "b", 12)
    row, loops = into.row("l(5,2)"), count_periodic(g, "b", 12).counts
    row[3] = loops[3] = 0  # the memo keeps its counts
    row.clear()
    again = counts_into(g, "b", 12)
    fresh = get_fixture("renewal").graph()
    for s in ("b", "l(5,2)", "l(2,1)"):
        assert again.row(s) == count_words(fresh, s, "b", 12).counts
    assert again.row("l(5,2)")[3] == 1 and count_periodic(g, "b", 12).counts[3] == 4


def test_concurrent_memo_extension_keeps_the_longest_horizon():
    g = get_fixture("renewal").graph()
    forward = count_words(get_fixture("renewal").graph(), "b", "b", 30).counts
    results = []

    def worker(horizons):
        results.extend((n, count_periodic(g, "b", n).counts) for n in horizons)

    threads = [threading.Thread(target=worker, args=(range(k, 31, 3),)) for k in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the memo builds as finely as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == sum(len(range(k, 31, 3)) for k in range(8))
    assert all(counts == forward[:n + 1] for n, counts in results)
    # a shorter build stored last would have dropped tables
    assert len(g._into_memo["b"].tables) == 31


def test_weighted_sum_trivial_and_monotone():
    g = get_fixture("golden-mean").graph()
    tr = weighted_loop_sum(g, "0", math.log(2), 0)
    assert tr.partial_sums == [1.0]
    tr = weighted_loop_sum(g, "0", 0.2, 30)
    assert all(b >= a for a, b in zip(tr.partial_sums, tr.partial_sums[1:]))


def test_weighted_sum_renewal_diverges_past_15():
    g = get_fixture("renewal").graph()
    tr = weighted_loop_sum(g, "b", math.log(2), 30)
    # partial sums are 1 + n/2 exactly
    assert tr.partial_sums[30] == pytest.approx(16.0, abs=1e-12)
    tr40 = weighted_loop_sum(g, "b", math.log(2), 40)
    assert tr40.partial_sums[40] > 15


def test_weighted_sum_ladder_approaches_catalan_limit():
    # exact value of the partial sum from the exact Catalan terms
    g = get_fixture("ladder").graph()
    h = 1.5 * math.log(2)
    tr = weighted_loop_sum(g, "(0,1)", h, 40)
    exact = Fraction(0)
    catalan = [1]
    for m in range(1, 21):
        catalan.append(catalan[-1] * (4 * m - 2) // (m + 1))
    for m in range(21):
        exact += Fraction(catalan[m], 4 ** m)
    assert tr.partial_sums[40] == pytest.approx(float(exact), rel=1e-13)
    assert tr.partial_sums[40] < 2.0


def test_weighted_sum_rejects_nonpositive_h():
    g = get_fixture("full-2").graph()
    with pytest.raises(ValueError):
        weighted_loop_sum(g, "0", 0.0, 5)
