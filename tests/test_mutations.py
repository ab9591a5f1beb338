"""Mutation matrix, keyed on report entry names: each perturbation of a
fixture's conformal family must flip the named suite entries to FAIL, while
the unperturbed family passes them.  Every entry of ``suite run --fixture
all`` is flipped by some row or exempt, with its reason, in ``EXEMPT``."""

import dataclasses

import pytest

from margulis import fixtures, torus
from margulis.fixtures import FIXTURES
from margulis.measures import make_family
from margulis.suite import SuiteConfig, run_suite

CONFIG = SuiteConfig(depth=4, samples=50)


def _perturbed(dh: float = 0.0, psi_r1_scale: float = 1.0):
    """Patch the cat map's conformal family: h shifted by ``dh``, psi(R1) scaled."""
    partition_family = torus.partition_family

    def family(p):
        fam = partition_family(p)
        psi = dict(fam.psi)
        psi["R1"] *= psi_r1_scale
        return make_family(fam.graph, fam.h + dh, psi)
    return lambda monkeypatch: monkeypatch.setattr(torus, "partition_family", family)


def _renewal(dh: float):
    """Patch the renewal fixture's entropy, and so its family's h, by ``dh``."""
    fx = FIXTURES["renewal"]
    return lambda monkeypatch: monkeypatch.setitem(
        FIXTURES, "renewal", dataclasses.replace(fx, entropy=fx.entropy + dh))


def _renewal_loops_up_to(max_len: int):
    """Patch the renewal fixture's graph: loops longer than ``max_len`` dropped."""
    fx = FIXTURES["renewal"]
    spec = {**fx.graph_spec, "params": {"max_len": max_len}}
    return lambda monkeypatch: monkeypatch.setitem(
        FIXTURES, "renewal", dataclasses.replace(fx, graph_spec=spec))


def _renewal_psi_without(state: str):
    """Patch the renewal fixture's family: psi without ``state``.  The graph
    and the psi that ``renewal/sarig_vs_exact`` compares against keep it."""
    make_family = fixtures.make_family

    def family(graph, h, psi):
        return make_family(graph, h, {s: v for s, v in psi.items() if s != state})
    return lambda monkeypatch: monkeypatch.setattr(fixtures, "make_family", family)


def _verdicts(suite: str) -> dict:
    return {e.name: e.passed for e in run_suite(suite, CONFIG).entries}


# mutation -> (the suite it runs, its patch, the entries it must flip to FAIL)
CONFORMAL = ("cat/ray_divergence", "cat/leaf_conformality", "cat/u_extent_harmonic_residual",
             "cat/coordinate_linearity")
RENEWAL = ("renewal/entropy_ratio_err", "renewal/conformality")
MATRIX = {
    "h+1e-3": ("cat", _perturbed(dh=1e-3), CONFORMAL),
    "h-1e-3": ("cat", _perturbed(dh=-1e-3), CONFORMAL),
    "psi(R1)x1.3": ("cat", _perturbed(psi_r1_scale=1.3), CONFORMAL),
    "renewal h+1e-3": ("renewal", _renewal(1e-3), RENEWAL + ("renewal/sarig_vs_exact",)),
    "renewal h-1e-3": ("renewal", _renewal(-1e-3), RENEWAL + ("renewal/sarig_vs_exact",)),
    # at +-1e-3 the entropy entry reads 1.0000000000000009e-3 against its bound of 1e-3,
    # so it flips by rounding alone; at +-2e-3 it reads twice the bound
    "renewal h+2e-3": ("renewal", _renewal(2e-3), RENEWAL + ("renewal/sarig_vs_exact",)),
    "renewal h-2e-3": ("renewal", _renewal(-2e-3), RENEWAL + ("renewal/sarig_vs_exact",)),
    # the entropy entry passes at h + 1e-4; the Sarig residual still sees it
    "renewal h+1e-4": ("renewal", _renewal(1e-4), ("renewal/sarig_vs_exact",)),
    # a dropped edge: with loops of at most 20 edges only conformality flips
    "renewal loops > 8 dropped": ("renewal", _renewal_loops_up_to(8), RENEWAL),
    # a hole in psi: the conformality check skips the classes around it
    "renewal psi without l(3,2)": ("renewal", _renewal_psi_without("l(3,2)"),
                                   ("renewal/full_support",)),
}


# the entries no row flips yet, each with why; the matrix is complete when it is empty
PARTITION_ONLY = "reads the partition alone: needs a partition row (a shrunk or moved rectangle, a wrong anchor)"
GRAPH_ONLY = "reads the graph alone: needs a graph row for this fixture (a dropped edge)"
NO_ROW = "no row perturbs this fixture's h or psi yet; the renewal rows flip the same check there"
SAME_ROOT = "compares a cylinder's mass with itself (root_a == root_b), so it reads 0.0 for any psi"
EXEMPT = {
    "3-cycle/harmonic_finite_residual": GRAPH_ONLY,
    "3-cycle/harmonic_vs_entropy": NO_ROW,
    "3-cycle/transitivity_as_expected": GRAPH_ONLY,
    "cat/entropy_consistency": PARTITION_ONLY,
    "cat/fiber_bound": PARTITION_ONLY,
    "cat/holonomy_invariance": "the suite's 12 arc pairs cross the same rectangles at the same u, "
                               "so their measures agree for any psi: needs pairs whose plaques differ",
    "cat/intersection_identity": PARTITION_ONLY,
    "cat/markov_s_err": PARTITION_ONLY,
    "cat/markov_u_err": PARTITION_ONLY,
    "cat/partition_valid": PARTITION_ONLY,
    "full-2/conformality": NO_ROW,
    "full-2/entropy_ratio_err": NO_ROW,
    "full-2/full_support": NO_ROW,
    "full-2/harmonic_finite_residual": GRAPH_ONLY,
    "full-2/harmonic_vs_entropy": NO_ROW,
    "full-2/recurrent": NO_ROW,
    "full-2/symbolic_holonomy": SAME_ROOT,
    "full-2/transitivity_as_expected": GRAPH_ONLY,
    "golden-mean/conformality": NO_ROW,
    "golden-mean/entropy_ratio_err": NO_ROW,
    "golden-mean/full_support": NO_ROW,
    "golden-mean/harmonic_finite_residual": GRAPH_ONLY,
    "golden-mean/harmonic_vs_entropy": NO_ROW,
    "golden-mean/recurrent": NO_ROW,
    "golden-mean/symbolic_holonomy": SAME_ROOT,
    "golden-mean/transitivity_as_expected": GRAPH_ONLY,
    "ladder/cyr_residual": "a ratio of Green's functions is harmonic away from its pole whatever h is, "
                           "so the residual stays at round-off: needs a comparison with the closed form",
    "ladder/entropy_ratio_err": NO_ROW,
    "ladder/loop_sum_limit_err": NO_ROW,
    "ladder/not_recurrent": NO_ROW,
    "ladder/transitivity_as_expected": GRAPH_ONLY,
    "renewal/recurrent": "the renewal rows leave the verdict recurrent: needs a transient row",
    "renewal/symbolic_holonomy": SAME_ROOT,
    "renewal/transitivity_as_expected": "the renewal rows keep the graph transitive: needs a row that cuts it",
}


@pytest.fixture(scope="module")
def unperturbed() -> dict:
    """The verdict of every entry of ``suite run --fixture all``, by name."""
    return _verdicts("all")


@pytest.fixture(scope="module")
def mutated() -> dict:
    """Each row's verdicts of its suite under its patch, by mutation, computed once."""
    rows = {}
    for mutation, (suite, patch, _) in MATRIX.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            patch(monkeypatch)
            rows[mutation] = _verdicts(suite)
    return rows


def test_unperturbed_family_passes_every_mutated_entry(unperturbed):
    for _, _, names in MATRIX.values():
        for name in names:
            assert unperturbed[name], name


@pytest.mark.parametrize("mutation", sorted(MATRIX))
def test_mutation_flips_its_entries(mutated, mutation):
    _, _, names = MATRIX[mutation]
    for name in names:
        assert mutated[mutation][name] is False, (mutation, name)


def test_every_entry_is_flipped_by_a_row_or_exempt(unperturbed, mutated):
    flipped = {name for verdicts in mutated.values() for name, passed in verdicts.items()
               if unperturbed[name] and not passed}
    assert sorted(set(unperturbed) - flipped - set(EXEMPT)) == [], "neither flipped nor exempt"
    assert sorted(flipped & set(EXEMPT)) == [], "exempt, yet flipped by a row"
    assert sorted(set(EXEMPT) - set(unperturbed)) == [], "exempt, yet no such entry"


def test_suite_counts_each_failing_holonomy_pair(monkeypatch):
    # no row flips cat/holonomy_invariance (EXEMPT), so the failure branch is run by
    # replacing the check itself: every one of the 12 pairs fails
    def failing(family, p, arc, target, depths):
        return torus.HolonomyReport(list(depths), [1.0] * len(depths), [0.0] * len(depths), False)
    monkeypatch.setattr(torus, "holonomy_invariance_check", failing)
    report = run_suite("cat", SuiteConfig(samples=10))
    entry = next(e for e in report.entries if e.name == "cat/holonomy_invariance")
    assert (entry.value, entry.bound, entry.passed, entry.note) == (12.0, 0.0, False, "12 arc pairs")
    assert report.exit_code == 1
