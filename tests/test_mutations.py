"""Mutation matrix, keyed on report entry names: each perturbation of the cat
map's conformal family must flip the named suite entries to FAIL, while the
unperturbed family passes them."""

import pytest

from margulis import torus
from margulis.measures import make_family
from margulis.suite import SuiteConfig, run_suite

CONFIG = SuiteConfig(depth=4, samples=50)


def _perturbed(dh: float = 0.0, psi_r1_scale: float = 1.0):
    partition_family = torus.partition_family

    def family(p):
        fam = partition_family(p)
        psi = dict(fam.psi)
        psi["R1"] *= psi_r1_scale
        return make_family(fam.graph, fam.h + dh, psi)
    return family


def _verdicts(monkeypatch, family) -> dict:
    monkeypatch.setattr(torus, "partition_family", family)
    return {e.name: e.passed for e in run_suite("cat", CONFIG).entries}


# mutation -> (the family it builds, the entries it must flip to FAIL)
CONFORMAL = ("cat/ray_divergence", "cat/leaf_conformality")
MATRIX = {
    "h+1e-3": (_perturbed(dh=1e-3), CONFORMAL),
    "h-1e-3": (_perturbed(dh=-1e-3), CONFORMAL),
    "psi(R1)x1.3": (_perturbed(psi_r1_scale=1.3), CONFORMAL),
}


def test_unperturbed_family_passes_every_mutated_entry(monkeypatch):
    verdicts = _verdicts(monkeypatch, torus.partition_family)
    for _, names in MATRIX.values():
        for name in names:
            assert verdicts[name], name


@pytest.mark.parametrize("mutation", sorted(MATRIX))
def test_mutation_flips_its_entries(monkeypatch, mutation):
    family, names = MATRIX[mutation]
    verdicts = _verdicts(monkeypatch, family)
    for name in names:
        assert verdicts[name] is False, (mutation, name)
