"""Mutation matrix, keyed on report entry names: each perturbation of a
fixture's conformal family must flip the named suite entries to FAIL, while
the unperturbed family passes them."""

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
CONFORMAL = ("cat/ray_divergence", "cat/leaf_conformality")
RENEWAL = ("renewal/entropy_ratio_err", "renewal/conformality")
MATRIX = {
    "h+1e-3": ("cat", _perturbed(dh=1e-3), CONFORMAL),
    "h-1e-3": ("cat", _perturbed(dh=-1e-3), CONFORMAL),
    "psi(R1)x1.3": ("cat", _perturbed(psi_r1_scale=1.3), CONFORMAL),
    "renewal h+1e-3": ("renewal", _renewal(1e-3), RENEWAL + ("renewal/sarig_vs_exact",)),
    "renewal h-1e-3": ("renewal", _renewal(-1e-3), RENEWAL + ("renewal/sarig_vs_exact",)),
    # the entropy entry passes at h + 1e-4; the Sarig residual still sees it
    "renewal h+1e-4": ("renewal", _renewal(1e-4), ("renewal/sarig_vs_exact",)),
    # a dropped edge: with loops of at most 20 edges only conformality flips
    "renewal loops > 8 dropped": ("renewal", _renewal_loops_up_to(8), RENEWAL),
    # a hole in psi: the conformality check skips the classes around it
    "renewal psi without l(3,2)": ("renewal", _renewal_psi_without("l(3,2)"),
                                   ("renewal/full_support",)),
}


def test_unperturbed_family_passes_every_mutated_entry():
    verdicts = {suite: _verdicts(suite) for suite in sorted({row[0] for row in MATRIX.values()})}
    for suite, _, names in MATRIX.values():
        for name in names:
            assert verdicts[suite][name], name


@pytest.mark.parametrize("mutation", sorted(MATRIX))
def test_mutation_flips_its_entries(monkeypatch, mutation):
    suite, patch, names = MATRIX[mutation]
    patch(monkeypatch)
    verdicts = _verdicts(suite)
    for name in names:
        assert verdicts[name] is False, (mutation, name)
