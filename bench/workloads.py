"""Seeded item streams, item runners and independent oracles.

Every item is one closed-loop verification: the caller hands the library the
generated inputs, waits for the verdict, and checks the outputs against an
oracle written here from closed forms, not from the library's own checks.
An oracle that fails or an exception raised by the library marks the item
failed; neither stops the run.

Workloads (see bench/README.md for why each was chosen):

* ``countable``: suite-shaped jobs on the renewal, ladder, golden-mean and
  full-2 fixtures, each on a freshly built graph, at a seeded horizon n.
* ``cat-leaf``: one measure-coordinate solve at a seeded (x, y) in (0, 0.3]^2.
* ``cat-geometry``: torus-layer work without the solver: an arc item codes a
  seeded point, runs a holonomy check from it and measures the arc directly;
  a cylinder item checks the intersection-count identity for i in [N, 12].
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass
from itertools import count
from typing import Iterator

WORKLOADS = ("countable", "cat-leaf", "cat-geometry")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# numpy's BLAS (np.linalg.solve in harmonic_cyr, lstsq in fit_tail) must not
# spread across cores: the load is one caller on one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

LOG2 = math.log(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

# countable: one block of ten jobs, shuffled per block.  Sorted by job time
# (at the gauge's reference speed) the block is golden-mean (~8 ms) <
# full-2 (~27 ms) < ladder (60-430 ms) < renewal (~1.9-2.7 s), so the
# cumulative shares are 10% / 60% / 80% / 100%: p50 falls 80% into the
# full-2 jobs, whose cost hardly depends on n, and p90 in the middle of the
# renewal jobs.  Neither sits on a boundary between fixtures.
COUNTABLE_BLOCK = ("renewal",) * 2 + ("ladder",) * 2 + ("full-2",) * 5 + ("golden-mean",)
HORIZONS = {"renewal": (40, 80), "ladder": (60, 300), "full-2": (40, 200), "golden-mean": (40, 200)}
HORIZON_STRATA = 5

# Closed forms the countable oracles compare against.
ENTROPY = {"renewal": LOG2, "ladder": 1.5 * LOG2, "full-2": LOG2, "golden-mean": math.log(PHI)}
ENTROPY_TOL = {"full-2": 1e-12, "golden-mean": 1e-8, "renewal": 1e-3, "ladder": 5e-2}
TRANSITIVE = {"renewal": True, "ladder": False, "full-2": True, "golden-mean": True}
FINITE_PSI = {"full-2": {"0": 1.0, "1": 1.0}, "golden-mean": {"0": 1.0, "1": 1.0 / PHI}}
RENEWAL_MAX_LEN = 64
LADDER_RAY = tuple(f"({k},1)" for k in range(13))
CONFORMALITY_DEPTH = 8
SUPPORT_DEPTH = 6
RECURRENCE_THRESHOLD = 15.0

# cat-geometry: eight arc items and two cylinder items per shuffled block, so
# p50 lies inside the arc items (coding, holonomy, direct measures) and p90
# inside the cylinder items (lattice enumeration).
GEOMETRY_BLOCK = ("arc",) * 8 + ("cylinder",) * 2
# Items per block: the stated mix holds exactly over whole blocks only.
BLOCK = {"countable": len(COUNTABLE_BLOCK), "cat-leaf": 1, "cat-geometry": len(GEOMETRY_BLOCK)}
CYLINDER_MAX_DEPTH = 3
INTERSECTION_MAX_I = 12
CAT_ANCHOR = (0.8, 0.6)       # interior period-2 point of the cat map
CAT_FIBER_BOUND = (3 + 1) ** 2 - 1  # (D+1)^2 - 1, D = 3 for the Adler-Weiss graph
COORD_SPAN = 0.3
COORD_TOL = 1e-6


def prepare_process() -> None:
    """Pin BLAS/OpenMP to one thread and put the library's sources on the path.

    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class OracleFailure(Exception):
    """An output disagreed with its oracle."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise OracleFailure(what)


@dataclass(frozen=True)
class Item:
    id: int
    kind: str
    params: tuple


# ---------------------------------------------------------------------------
# set-up: everything an item needs before the first one can start
# ---------------------------------------------------------------------------

@dataclass
class Context:
    workload: str
    seed: int
    state: dict


def setup(workload: str, seed: int) -> Context:
    """Import the library and build what the workload's items share."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    from margulis import torus

    state: dict = {}
    if workload == "countable":
        state["cylinder_counts"] = {name: _future_count(name, CONFORMALITY_DEPTH)
                                    for name in ("renewal", "full-2", "golden-mean")}
    else:
        p = torus.builtin_partition("cat-adler-weiss")
        p_inv = torus.inverse_partition(p)
        state.update(p=p, p_inv=p_inv, family_u=torus.partition_family(p),
                     family_s=torus.partition_family(p_inv))
        if workload == "cat-geometry":
            state["anchor_symbol"] = torus.locate(p, CAT_ANCHOR)[0]
            state["cylinders"] = _cylinders(p)
    return Context(workload, seed, state)


def _cylinders(p) -> list[tuple[str, tuple[str, ...]]]:
    """Every cylinder (root; w_1..w_N) of the partition with N <= 3."""
    out = []
    for root in sorted(p.by_id):
        stack: list[tuple[str, ...]] = [()]
        while stack:
            fut = stack.pop()
            out.append((root, fut))
            if len(fut) < CYLINDER_MAX_DEPTH:
                last = fut[-1] if fut else root
                stack.extend(fut + (s,) for s in p.graph.successors(last))
    return sorted(out)


# ---------------------------------------------------------------------------
# seeded item streams
# ---------------------------------------------------------------------------

def items(ctx: Context) -> Iterator[Item]:
    """The workload's endless item stream; the same seed gives the same stream."""
    rng = random.Random(f"{ctx.workload}/{ctx.seed}")
    ids = count()
    if ctx.workload == "countable":
        horizons = {name: _stratified(rng, *HORIZONS[name]) for name in HORIZONS}
        while True:
            block = list(COUNTABLE_BLOCK)
            rng.shuffle(block)
            for name in block:
                yield Item(next(ids), name, (name, next(horizons[name])))
    elif ctx.workload == "cat-leaf":
        while True:
            x = COORD_SPAN * (1.0 - rng.random())
            y = COORD_SPAN * (1.0 - rng.random())
            yield Item(next(ids), "coords", (x, y))
    else:
        cylinders = _shuffled_cycle(rng, ctx.state["cylinders"])
        while True:
            block = list(GEOMETRY_BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "arc":
                    base = (rng.random(), rng.random())
                    length = 0.1 + 0.3 * rng.random()
                    target = (rng.random(), rng.random())
                    yield Item(next(ids), "arc", (base, length, target))
                else:
                    root, fut = next(cylinders)
                    yield Item(next(ids), "cylinder", (root, fut, 0.2 + 0.6 * rng.random()))


def _stratified(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """Horizons in [lo, hi]: one draw per stratum, strata in seeded order.

    Every run of HORIZON_STRATA draws covers the range evenly, so runs with
    different seeds see the same horizon distribution in a different order.
    """
    width = (hi - lo + 1) / HORIZON_STRATA
    while True:
        strata = list(range(HORIZON_STRATA))
        rng.shuffle(strata)
        for k in strata:
            yield min(hi, lo + int((k + rng.random()) * width))


def _shuffled_cycle(rng: random.Random, pool: list) -> Iterator:
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# item runners
# ---------------------------------------------------------------------------

def run_item(ctx: Context, item: Item) -> None:
    """Run one item to its verdict and check it; raises on any failure."""
    if ctx.workload == "countable":
        _countable_job(ctx, *item.params)
    elif ctx.workload == "cat-leaf":
        _coords_item(ctx, *item.params)
    elif item.kind == "arc":
        _arc_item(ctx, *item.params)
    else:
        _cylinder_item(ctx, *item.params)


def _countable_job(ctx: Context, name: str, n: int) -> None:
    from margulis import counting, fixtures, graphs, measures, thermo

    h = ENTROPY[name]
    fx = fixtures.get_fixture(name)
    graph = fx.graph()
    rep = graphs.validate_graph(graph, radius=6)
    check(rep.transitive_on_ball == TRANSITIVE[name], f"{name}: transitivity")

    est = thermo.gurevich_entropy(graph, fx.base, n, "ratio")
    check(abs(est.value - h) <= ENTROPY_TOL[name], f"{name}: entropy {est.value}")

    verdict = thermo.classify_recurrence(graph, fx.base, h, n, RECURRENCE_THRESHOLD)
    if name == "ladder":
        check(verdict.verdict == thermo.TRANSIENT_EVIDENCE, f"ladder: verdict {verdict.verdict}")
        check(verdict.limit_estimate is not None
              and abs(verdict.limit_estimate - 2.0) <= 1e-2, "ladder: loop-sum limit")
        table = counting.count_periodic(graph, fx.base, n)
        check(table.counts == _ladder_loops(n), "ladder: Z_2m != C_m 2^m")
        hc = thermo.harmonic_cyr(graph, fx.base, LADDER_RAY, h, radius=3)
        check(_ladder_residual(hc.values, h) <= 1e-3, "ladder: cyr psi not harmonic")
    else:
        check(verdict.verdict == thermo.RECURRENT, f"{name}: verdict {verdict.verdict}")

    if name == "renewal":
        hs = thermo.harmonic_sarig(graph, fx.base, h, n_max=n, radius=6)
        check(bool(hs.values), "renewal: sarig returned no states")
        worst = max(abs(v - _renewal_psi(s)) for s, v in hs.values.items())
        check(worst <= 1e-3, f"renewal: sarig psi off by {worst}")
    elif name in FINITE_PSI:
        hf = thermo.harmonic_finite(graph, fx.base)
        check(abs(hf.h - h) <= 1e-6, f"{name}: Perron h {hf.h}")
        check(all(abs(hf.values[s] - v) <= 1e-9 for s, v in FINITE_PSI[name].items()),
              f"{name}: Perron psi")

    if name != "ladder":
        family = fx.family()
        con = measures.conformality_check(family, fx.base, CONFORMALITY_DEPTH)
        check(con.max_discrepancy <= 1e-12, f"{name}: conformality {con.max_discrepancy}")
        check(con.cylinders_checked == ctx.state["cylinder_counts"][name],
              f"{name}: {con.cylinders_checked} cylinders checked")
        check(measures.support_check(family, fx.base, SUPPORT_DEPTH) is True, f"{name}: support")


def _coords_item(ctx: Context, x: float, y: float) -> None:
    from margulis import torus

    s = ctx.state
    mp = torus.margulis_coordinates(s["family_u"], s["p"], s["family_s"], s["p_inv"],
                                    (0.0, 0.0), x, y, tol=1e-9)
    # psi = u-extents makes leaf measure equal arc length, so alpha = x, gamma = y
    check(abs(mp.alpha - x) <= COORD_TOL and abs(mp.gamma - y) <= COORD_TOL,
          f"coords ({x}, {y}) -> ({mp.alpha}, {mp.gamma})")


def _arc_item(ctx: Context, base: tuple, length: float, target: tuple) -> None:
    from margulis import torus

    p, family = ctx.state["p"], ctx.state["family_u"]
    codes = torus.code_point(p, base, 6)
    check(1 <= len(codes) <= CAT_FIBER_BOUND, f"fiber of {base}: {len(codes)}")
    arc = torus.UnstableArc(base, 0.0, length)
    hol = torus.holonomy_invariance_check(family, p, arc, target, depths=(6, 12))
    check(hol.passed, f"holonomy of {arc} to {target}")
    m = torus.leaf_arc_measure(family, p, arc, 12)
    # the leaf measure of an arc is its length; the cover brackets it
    check(abs(m.value - length) <= m.error_bound + 1e-15, f"measure of {arc}: {m.value}")


def _cylinder_item(ctx: Context, root: str, fut: tuple, s_frac: float) -> None:
    from margulis import counting, torus

    p, anchor_symbol = ctx.state["p"], ctx.state["anchor_symbol"]
    arc = torus.cylinder_image_arc(p, root, fut, s_frac=s_frac)
    last, depth = (fut[-1] if fut else root), len(fut)
    for i in range(depth, INTERSECTION_MAX_I + 1):
        geo = torus.intersection_count(p, arc, i, CAT_ANCHOR, anchor_symbol)
        sym = counting.count_words(p.graph, last, anchor_symbol, i - depth).counts[i - depth]
        check(geo == sym, f"intersections ({root}; {fut}) i={i}: {geo} != {sym}")


# ---------------------------------------------------------------------------
# closed forms for the countable fixtures
# ---------------------------------------------------------------------------

def _renewal_succ(s: str) -> list[str]:
    if s == "b":
        return ["b"] + [f"l({n},1)" for n in range(2, RENEWAL_MAX_LEN + 1)]
    n, k = map(int, s[2:-1].split(","))
    return [f"l({n},{k + 1})"] if k < n - 1 else ["b"]


def _renewal_psi(s: str) -> float:
    if s == "b":
        return 1.0
    n, k = map(int, s[2:-1].split(","))
    return 2.0 ** (k - n)


def _ladder_succ(s: str) -> list[str]:
    n = int(s[1:-1].split(",")[0])
    return [f"({n + 1},1)", f"({n + 1},2)"] + ([f"({n - 1},1)"] if n >= 1 else [])


def _ladder_loops(n_max: int) -> list[int]:
    """Loops at (0,1): Z_2m = C_m 2^m (Catalan paths, two colours per up-step)."""
    return [math.comb(n, n // 2) // (n // 2 + 1) * 2 ** (n // 2) if n % 2 == 0 else 0
            for n in range(n_max + 1)]


def _ladder_residual(psi: dict, h: float) -> float:
    """Max relative harmonic residual over states whose successors psi covers."""
    worst, checked = 0.0, 0
    for s, v in psi.items():
        succ = _ladder_succ(s)
        if v > 0 and all(t in psi for t in succ):
            worst = max(worst, abs(math.exp(-h) * math.fsum(psi[t] for t in succ) - v) / v)
            checked += 1
    return worst if checked else math.inf


_FINITE_SUCC = {"full-2": {"0": ["0", "1"], "1": ["0", "1"]},
                "golden-mean": {"0": ["0", "1"], "1": ["0"]}}
_BASE = {"renewal": "b", "full-2": "0", "golden-mean": "0"}


def _future_count(name: str, depth: int) -> int:
    """Number of futures with at most ``depth`` edges from the fixture's base."""
    succ = _renewal_succ if name == "renewal" else _FINITE_SUCC[name].__getitem__
    memo: dict[tuple[str, int], int] = {}

    def f(s: str, d: int) -> int:
        if d == 0:
            return 1
        if (s, d) not in memo:
            memo[(s, d)] = 1 + sum(f(t, d - 1) for t in succ(s))
        return memo[(s, d)]

    return f(_BASE[name], depth)
