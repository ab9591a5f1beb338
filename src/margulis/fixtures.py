"""Named fixtures: graphs with known entropy and harmonic data.

Each fixture bundles a graph, the exact entropy where known, a closed-form
harmonic function where one exists, and the expected recurrence behavior at
that entropy.  These are the standing examples for tests and the verification
suite: finite shifts (full-2, golden-mean, 3-cycle), countable generated
shifts (renewal: recurrent, ladder: transient), and the cat-map partition
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .graphs import ShiftGraph, StateId, build_graph
from .measures import ConformalFamily, make_family

PHI = (1 + math.sqrt(5.0)) / 2

RENEWAL_MAX_LEN = 64  # longest renewal loop; the psi table covers every state


@dataclass
class Fixture:
    name: str
    graph_spec: dict
    base: StateId
    entropy: Optional[float]             # exact value when known
    recurrent_at_entropy: Optional[bool]
    psi: Optional[Mapping[StateId, float]]  # closed-form harmonic function
    loop_sum_limit: Optional[float] = None  # limit of the discounted loop series
    transitive: bool = True

    def graph(self) -> ShiftGraph:
        return build_graph(self.graph_spec)

    def family(self) -> ConformalFamily:
        if self.psi is None or self.entropy is None:
            raise ValueError(f"fixture {self.name!r} has no closed-form family")
        return make_family(self.graph(), self.entropy, self.psi)


FIXTURES: dict[str, Fixture] = {
    "full-2": Fixture(
        name="full-2",
        graph_spec={"kind": "finite", "states": ["0", "1"],
                    "edges": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]},
        base="0",
        entropy=math.log(2.0),
        recurrent_at_entropy=True,
        psi={"0": 1.0, "1": 1.0},
    ),
    "golden-mean": Fixture(
        name="golden-mean",
        graph_spec={"kind": "finite", "states": ["0", "1"],
                    "edges": [["0", "0"], ["0", "1"], ["1", "0"]]},
        base="0",
        entropy=math.log(PHI),
        recurrent_at_entropy=True,
        psi={"0": PHI, "1": 1.0},
    ),
    "3-cycle": Fixture(
        name="3-cycle",
        graph_spec={"kind": "finite", "states": ["0", "1", "2"],
                    "edges": [["0", "1"], ["1", "2"], ["2", "0"]]},
        base="0",
        entropy=0.0,
        recurrent_at_entropy=None,  # entropy 0 is outside the h > 0 classifiers
        psi={"0": 1.0, "1": 1.0, "2": 1.0},
    ),
    "renewal": Fixture(
        name="renewal",
        graph_spec={"kind": "generator", "name": "renewal",
                    "params": {"max_len": RENEWAL_MAX_LEN}},
        base="b",
        entropy=math.log(2.0),
        recurrent_at_entropy=True,
        # psi(b) = 1, psi(l(n,k)) = 2^(k-n); harmonic for h = log 2
        psi={"b": 1.0, **{f"l({n},{k})": 2.0 ** (k - n)
                          for n in range(2, RENEWAL_MAX_LEN + 1) for k in range(1, n)}},
    ),
    "ladder": Fixture(
        name="ladder",
        graph_spec={"kind": "generator", "name": "ladder", "params": {}},
        base="(0,1)",
        entropy=1.5 * math.log(2.0),
        recurrent_at_entropy=False,
        psi=None,
        loop_sum_limit=2.0,  # Catalan series: sum_m C_m 4^-m at the critical radius
        transitive=False,    # (0,2) has no incoming edge, so it is unreachable
    ),
}


def get_fixture(name: str) -> Fixture:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return FIXTURES[name]
