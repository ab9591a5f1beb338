import math
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
    count_words_to,
    weighted_loop_sum,
)
from margulis.fixtures import FIXTURES, get_fixture
from margulis.graphs import build_graph
from margulis.measures import make_family


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


def test_count_words_to_matches_forward():
    g = get_fixture("renewal").graph()
    tables = count_words_to(g, "b", 12)
    for s in ("b", "l(3,1)", "l(5,2)"):
        fwd = count_words(g, s, "b", 12).counts
        for i in range(13):
            assert tables[i].get(s, 0) == fwd[i]


def test_negative_horizon_rejected():
    g = get_fixture("renewal").graph()
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        count_words_to(g, "b", -1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        count_periodic(g, "b", -1)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_periodic_reads_the_backward_memo_exactly(name):
    fx = get_fixture(name)
    forward = count_words(fx.graph(), fx.base, fx.base, 60).counts
    assert count_periodic(fx.graph(), fx.base, 60).counts == forward
    # one graph whose memo is filled to 20, extended to 60, then read shorter
    g = fx.graph()
    for n in (20, 60, 10):
        assert count_periodic(g, fx.base, n).counts == forward[:n + 1]
    for n in range(61):
        assert count_periodic(g, fx.base, n).counts == forward[:n + 1]


def test_count_words_to_tables_are_read_only():
    g = get_fixture("renewal").graph()
    tables = count_words_to(g, "b", 12)
    with pytest.raises(TypeError):
        tables[3]["b"] = 0
    with pytest.raises(TypeError):
        del tables[0]["b"]
    tables.clear()  # the returned list is the caller's own
    again = count_words_to(g, "b", 12)
    assert len(again) == 13
    fresh = count_words_to(get_fixture("renewal").graph(), "b", 12)
    assert [dict(t) for t in again] == [dict(t) for t in fresh]
    assert again[3]["b"] == 4


def test_concurrent_memo_extension_keeps_the_longest_horizon():
    g = get_fixture("renewal").graph()
    forward = count_words(get_fixture("renewal").graph(), "b", "b", 30).counts
    results = []

    def worker(horizons):
        results.extend((n, count_periodic(g, "b", n).counts) for n in horizons)

    threads = [threading.Thread(target=worker, args=(range(k, 31, 3),)) for k in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the memo extensions as finely as possible
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
    # a shorter extension stored last would have dropped frontiers
    assert len(g._into_memo["b"]) == 31


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
