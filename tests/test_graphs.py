import json

import pytest
from hypothesis import given, settings, strategies as st

from margulis.graphs import (
    StructuralViolation,
    ball,
    build_finite_graph,
    build_graph,
    graph_from_json,
    is_admissible,
    make_cylinder,
    make_word,
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


def test_degree_bound_violation():
    g = build_finite_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")])
    g.degree_bound = 1  # declare a bound tighter than the actual degrees
    with pytest.raises(StructuralViolation, match="'a'"):
        validate_graph(g)


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


def test_word_and_cylinder_validation():
    g = golden()
    w = make_word(g, ["0", "1", "0"])
    assert w.edge_count == 2
    with pytest.raises(ValueError):
        make_word(g, ["1", "1"])
    c = make_cylinder(g, "0", ["1", "0"])
    assert c.depth == 2 and c.last == "0"
    with pytest.raises(ValueError):
        make_cylinder(g, "1", ["1"])


def test_json_round_trip_and_file_format():
    spec = {"kind": "finite", "states": ["0", "1"],
            "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}
    g = graph_from_json(json.dumps(spec))
    assert g.successors("0") == ("0", "1")
    gen = graph_from_json(json.dumps({"kind": "generator", "name": "full",
                                      "params": {"symbols": 3}}))
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
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    fresh = build_graph({"kind": "generator", "name": "renewal", "params": {"max_len": 24}})
    assert all(r == ball(fresh, "b", 5) for r in results)
