import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from margulis import graphs
from margulis.graphs import (
    ShiftGraph,
    StructuralViolation,
    ball,
    build_finite_graph,
    build_graph,
    is_admissible,
    validate_graph,
)


def golden():
    return build_graph({"kind": "finite", "states": ["0", "1"],
                        "edges": [["0", "0"], ["0", "1"], ["1", "0"]]})


def test_finite_construction_golden_mean():
    g = golden()
    assert g.is_finite
    assert g.successors("0") == ("0", "1")
    assert g.successors("1") == ("0",)
    assert g.predecessors("1") == ("0",)
    assert g.degree_bound == 2


def test_duplicate_states_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_finite_graph(["a", "a"], [])


def test_edge_to_unknown_state_rejected():
    with pytest.raises(ValueError, match="unknown state"):
        build_finite_graph(["a"], [("a", "b")])
    with pytest.raises(ValueError, match="unknown state"):
        build_finite_graph(["a"], [("a", "a")], base="b")


def test_unknown_generator_rejected():
    with pytest.raises(ValueError, match="unknown generator"):
        build_graph({"kind": "generator", "name": "nope"})


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown graph kind"):
        build_graph({"kind": "sideways"})


def test_renewal_structure():
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 4}})
    assert g.successors("b") == ("b", "l(2,1)", "l(3,1)", "l(4,1)")
    assert g.successors("l(3,1)") == ("l(3,2)",)
    assert g.successors("l(3,2)") == ("b",)
    assert g.predecessors("b") == ("b", "l(2,1)", "l(3,2)", "l(4,3)")
    assert g.predecessors("l(4,3)") == ("l(4,2)",)
    # radius-2 ball around the base, by hand from the generator definition
    assert ball(g, "b", 2) == frozenset(
        {"b", "l(2,1)", "l(3,1)", "l(4,1)", "l(3,2)", "l(4,2)", "l(4,3)"}
    )


def test_ladder_structure():
    g = build_graph({"kind": "generator", "name": "ladder"})
    assert g.successors("(0,1)") == ("(1,1)", "(1,2)")
    assert g.successors("(2,2)") == ("(3,1)", "(3,2)", "(1,1)")
    assert g.predecessors("(1,1)") == ("(0,1)", "(0,2)", "(2,1)", "(2,2)")
    assert g.predecessors("(1,2)") == ("(0,1)", "(0,2)")
    assert ball(g, "(0,1)", 1) == frozenset({"(0,1)", "(1,1)", "(1,2)"})


def test_ball_radius_zero():
    assert ball(golden(), "0", 0) == frozenset({"0"})


def test_ball_unknown_state():
    with pytest.raises(KeyError):
        ball(golden(), "7", 1)


@given(r1=st.integers(0, 5), r2=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_ball_monotone_in_radius(r1, r2):
    g = build_graph({"kind": "generator", "name": "ladder"})
    if r1 > r2:
        r1, r2 = r2, r1
    assert ball(g, "(0,1)", r1) <= ball(g, "(0,1)", r2)


def test_ball_deterministic_across_calls():
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 8}})
    assert ball(g, "b", 3) == ball(g, "b", 3)


def test_validate_golden_mean():
    rep = validate_graph(golden())
    assert rep.transitive_on_ball
    assert rep.max_out_degree == 2
    assert rep.max_in_degree == 2


def test_validate_full_2():
    g = build_graph({"kind": "generator", "name": "full", "params": {"symbols": 2}})
    rep = validate_graph(g)
    assert rep.transitive_on_ball
    assert rep.max_out_degree == 2


def test_validate_single_edge_not_transitive():
    g = build_finite_graph(["0", "1"], [("0", "1")])
    rep = validate_graph(g)
    assert not rep.transitive_on_ball
    assert rep.witness is not None


def test_validate_ladder_not_transitive():
    # (0,2) has no incoming edge: nothing reaches it
    g = build_graph({"kind": "generator", "name": "ladder"})
    rep = validate_graph(g, radius=3)
    assert not rep.transitive_on_ball
    assert rep.witness == "(0,2)"


def test_validate_renewal_transitive_on_ball():
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 32}})
    rep = validate_graph(g, radius=4)
    assert rep.transitive_on_ball


def test_reachable_gives_each_state_its_level():
    # the level is the fewest edges: l(n,k) is k steps out of b and n - k back into it
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 12}})
    loops = {f"l({n},{k})": (n, k) for n in range(2, 13) for k in range(1, n)}
    fwd = graphs._reachable(g, ("b",), 20, forward=True)
    bwd = graphs._reachable(g, ("b",), 20, forward=False)
    assert fwd == {"b": 0, **{s: k for s, (n, k) in loops.items()}}
    assert bwd == {"b": 0, **{s: n - k for s, (n, k) in loops.items()}}
    assert graphs._reachable(g, ("b",), 3, forward=True) == {s: k for s, k in fwd.items() if k <= 3}
    # from two starts, a state's level is its distance from the nearer one
    both = graphs._reachable(g, ("l(12,6)", "b"), 20, forward=True)
    assert both == {s: k - 6 if s.startswith("l(12,") and k >= 6 else fwd[s]
                    for s, k in fwd.items()}
    ladder = build_graph({"kind": "generator", "name": "ladder"})
    assert graphs._reachable(ladder, ("(0,1)",), 9, forward=True) == {
        "(0,1)": 0, **{f"({n},{c})": n for n in range(1, 10) for c in (1, 2)}}


def _validate_by_ball(g, radius):
    """The region and witness of ``validate_graph`` as its definition reads:
    ``ball(base, radius)``, and the first region state that a breadth-first
    search of ``_PATH_CAP`` edges each way from the base misses."""
    def within_cap(step):
        seen, frontier = {g.base}, {g.base}
        for _ in range(graphs._PATH_CAP):
            frontier = {t for s in frontier for t in step(s)} - seen
            seen |= frontier
        return seen

    region = ball(g, g.base, radius)
    fwd, bwd = within_cap(g.successors), within_cap(g.predecessors)
    return len(region), next((s for s in sorted(region) if s not in fwd or s not in bwd), None)


def test_validate_reads_the_ball_off_its_two_walks():
    for spec in ({"kind": "generator", "name": "renewal", "params": {"max_len": 12}},
                 {"kind": "generator", "name": "ladder"}):
        for radius in range(9):
            rep = validate_graph(build_graph(spec), radius)
            assert (rep.explored, rep.witness) == _validate_by_ball(build_graph(spec), radius)
    # a radius past _PATH_CAP: the region is still the whole ball
    ladder = build_graph({"kind": "generator", "name": "ladder"})
    rep = validate_graph(ladder, graphs._PATH_CAP + 4)
    assert rep.explored == 2 * (graphs._PATH_CAP + 5)
    assert (rep.explored, rep.witness) == _validate_by_ball(ladder, graphs._PATH_CAP + 4)


@pytest.mark.parametrize("radius", [2.5, float("nan")])
def test_validate_rejects_a_radius_that_is_no_integer(radius):
    # levels <= nan would leave an empty region, which passes every check
    ladder = build_graph({"kind": "generator", "name": "ladder"})
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        validate_graph(ladder, radius)


def test_validate_walks_once_each_way(monkeypatch):
    calls = []
    reachable = graphs._reachable
    monkeypatch.setattr(graphs, "_reachable", lambda *a, **k: calls.append(a) or reachable(*a, **k))
    for g in (build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 12}}),
              build_graph({"kind": "generator", "name": "ladder"}), golden()):
        calls.clear()
        validate_graph(g, radius=6)
        assert len(calls) == 2, g


def test_degree_bound_violation():
    g = build_finite_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")])
    g.degree_bound = 1  # declare a bound tighter than the actual degrees
    with pytest.raises(StructuralViolation, match="'a'"):
        validate_graph(g)


def _lying_graph(succ, pred):
    return ShiftGraph("a", lambda s: succ[s], lambda s: pred[s],
                      contains_fn=lambda s: s in succ, name="lying")


def test_validate_rejects_predecessors_that_omit_an_edge():
    # successors a->b, b->a, b->b; the predecessors omit the loop at b, so the
    # backward DP would count loops at a as [1, 0, 1, 0, ...] and not Fibonacci
    g = _lying_graph({"a": ["b"], "b": ["a", "b"]}, {"a": ["b"], "b": ["a"]})
    with pytest.raises(StructuralViolation, match=r"edge 'b' -> 'b': 'b' lists 'b' as a successor"):
        validate_graph(g, radius=2)


def test_validate_rejects_predecessors_that_add_an_edge():
    g = _lying_graph({"a": ["b"], "b": ["a"]}, {"a": ["b", "a"], "b": ["a"]})
    with pytest.raises(StructuralViolation, match=r"edge 'a' -> 'a': 'a' lists 'a' as a predecessor"):
        validate_graph(g, radius=2)


def test_is_admissible():
    g = golden()
    assert is_admissible(g, ["0", "1", "0"])
    assert not is_admissible(g, ["1", "1"])
    full = build_graph({"kind": "generator", "name": "full", "params": {"symbols": 2}})
    assert is_admissible(full, ["0", "1"]) and is_admissible(full, ["1", "1"])
    with pytest.raises(KeyError):
        is_admissible(g, ["0", "9"])
    with pytest.raises(ValueError):
        is_admissible(g, [])


def test_json_round_trip_and_file_format():
    spec = {"kind": "finite", "states": ["0", "1"],
            "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}
    g = build_graph(json.loads(json.dumps(spec)))
    assert g.successors("0") == ("0", "1")
    gen = build_graph(json.loads(json.dumps({"kind": "generator", "name": "full",
                                             "params": {"symbols": 3}})))
    assert len(gen.states) == 3


def test_matrix_power_support_agrees_with_admissibility():
    # Z_n(a,b) > 0 iff some admissible word with n edges exists
    from margulis.counting import count_words
    g = golden()
    for a in g.states:
        for b in g.states:
            counts = count_words(g, a, b, 6).counts
            for n in range(7):
                words = _enumerate_words(g, a, n)
                assert (counts[n] > 0) == any(w[-1] == b for w in words)


def _enumerate_words(g, a, n_edges):
    words = [[a]]
    for _ in range(n_edges):
        words = [w + [t] for w in words for t in g.successors(w[-1])]
    return words


def test_concurrent_exploration_deterministic():
    # memoized neighborhoods must agree regardless of thread interleaving
    import threading
    g = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 24}})
    results = []

    def worker():
        results.append(ball(g, "b", 5))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the memo fills as finely as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    fresh = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 24}})
    assert all(r == ball(fresh, "b", 5) for r in results)
    # a lost update of the checked set would leave out a memoized state
    memos = (g._succ_memo, g._pred_memo)
    assert g._checked == set().union(*memos, *(v for m in memos for v in m.values()))


def test_each_state_is_checked_once_per_graph():
    # validate_graph explores the whole renewal graph both ways and
    # counts_into walks its alias chains back again: contains runs once a state
    from margulis.counting import counts_into
    from margulis.fixtures import get_fixture

    g = get_fixture("renewal").graph()
    contains, calls = g._contains_fn, []
    g._contains_fn = lambda s: calls.append(s) or contains(s)
    validate_graph(g, radius=6)
    counts_into(g, "b", 40)
    assert len(calls) == len(set(calls)) == 1 + 63 * 64 // 2
    assert set(calls) == set(g._succ_memo) | set(g._pred_memo)


def test_memo_fill_validates_every_state():
    # a successor or predecessor function that emits a non-state must not
    # get that state into the memo; a memo hit needs no second check
    checked = []

    def contains(s):
        checked.append(s)
        return s in ("a", "b")

    g = ShiftGraph("a", lambda s: ["b", "zz"] if s == "a" else ["a"],
                   lambda s: ["yy"] if s == "b" else ["b"], contains_fn=contains)
    with pytest.raises(KeyError, match="'zz'"):
        g.successors("a")
    with pytest.raises(KeyError, match="'yy'"):
        g.predecessors("b")
    assert g.successors("b") == ("a",) and g.predecessors("a") == ("b",)
    checked.clear()
    assert g.successors("b") == ("a",) and g.predecessors("a") == ("b",)
    assert checked == []
    with pytest.raises(KeyError, match="'zz'"):
        g.successors("a")


def test_a_graph_needs_a_contains_fn():
    # no graph accepts every label, so a graph without a membership test is an error
    with pytest.raises(TypeError, match="contains_fn"):
        ShiftGraph("a", lambda s: ["a"], lambda s: ["a"])


def test_generated_graphs_accept_only_canonical_labels():
    # "l(03,1)" would name a phantom state: its successor l(3,2) lists only
    # l(3,1) as a predecessor.  A malformed label is no state either, not an error
    renewal = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 64}})
    ladder = build_graph({"kind": "generator", "name": "ladder"})
    bad = {
        renewal: ["l(03,1)", "l( 3,1)", "l(+3,1)", "l(3,01)", "l(3,1) ", "l(3,x)", "l(3)",
                  "l(3,1,1)", "l(3,1", "l(1,0)", "l(3,3)", "l(65,1)", "(3,1)", "B", ""],
        ladder: ["(01,1)", "(0,01)", "(+1,1)", "( 0,1)", "(-1,1)", "(0,3)", "(0)", "(0,1",
                 "(0,x)", "l(0,1)", ""],
    }
    for g, labels in bad.items():
        for label in labels:
            assert g.contains(label) is False, label
            with pytest.raises(KeyError, match="unknown state"):
                g.check_state(label)
    for g, s, t in ((renewal, "l(3,1)", "l(3,2)"), (renewal, "l(64,63)", "b"),
                    (ladder, "(10,2)", "(11,1)"), (ladder, "(0,1)", "(1,2)")):
        assert g.check_state(s) == s and s in g.predecessors(t) and t in g.successors(s)


@st.composite
def _canonical_states(draw):
    """A generated graph's spec and one of its states, loop ends and the
    longest loop included."""
    if draw(st.booleans()):
        max_len = draw(st.sampled_from([2, 3, 64, 257]) | st.integers(2, 257))
        n = draw(st.sampled_from([2, max_len]) | st.integers(2, max_len))
        k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
        label = draw(st.sampled_from(["b", f"l({n},{k})"]))
        return {"kind": "generator", "name": "renewal", "params": {"max_len": max_len}}, label
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 10 ** 6))
    return {"kind": "generator", "name": "ladder"}, f"({n},{draw(st.sampled_from([1, 2]))})"


@given(case=_canonical_states())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_generated_successors_and_predecessors_agree(case):
    spec, s = case
    g = build_graph(spec)
    for t in g.successors(s):
        assert s in g.predecessors(t), (s, t)
    for t in g.predecessors(s):
        assert s in g.successors(t), (t, s)
