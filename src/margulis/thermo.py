"""Gurevich entropy, recurrence classification, and harmonic functions.

The entropy of a transitive shift is the exponential growth rate of loop
counts at any state.  A shift is recurrent at h when the discounted loop
series sum_n exp(-n h) Z_n diverges; finite computation can certify
divergence past a threshold but never convergence, so the transient verdict
is always "evidence": the classifier reports a fitted tail model and an
extrapolated limit instead of a proof.

Harmonic functions psi (positive, L0 psi = e^h psi for the Ruelle operator
L0 psi(R) = sum_{R->S} psi(S)) are computed three ways: as Perron
eigenvectors on finite graphs, from ratios of discounted path counts into a
fixed state on recurrent graphs, and from ratios of Green's functions along
an injective ray on transient graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .counting import (
    NeumaierSum,
    WeightedSumTrace,
    _discounted,
    _positive_finite,
    count_periodic,
    counts_into,
    weighted_loop_sum,
)
from .graphs import ShiftGraph, StateId, ball

RECURRENT = "Recurrent"
TRANSIENT_EVIDENCE = "TransientEvidence"
UNDECIDED = "Undecided"

_POWER_TOL = 1e-14        # sup-norm step that ends the Perron power iteration
_POWER_MAX_ITER = 200_000
_GREEN_ROUNDOFF = 1e-12   # relative size of a negative Green's entry taken as round-off


class NumericalFailure(RuntimeError):
    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

@dataclass
class EntropyEstimate:
    value: float
    method: str
    n_max: int
    base: StateId
    period: int
    diagnostics: list[float] = field(default_factory=list)


def _loop_period(counts: Sequence[int]) -> int:
    p = 0
    for n, z in enumerate(counts):
        if n >= 1 and z > 0:
            p = math.gcd(p, n)
    return p


def gurevich_entropy(graph: ShiftGraph, base: StateId, n_max: int,
                     method: str = "ratio") -> EntropyEstimate:
    """Estimate the loop growth rate at ``base`` from exact counts.

    ``ratio`` uses log(Z_n / Z_{n-p}) / p at the largest usable n, where p is
    the gcd of observed loop lengths.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    if method != "ratio":
        raise ValueError(f"unknown entropy method {method!r}")
    table = count_periodic(graph, base, n_max)
    counts = table.counts
    p = _loop_period(counts)
    if p == 0:
        raise ValueError(f"no loops at {base!r} within {n_max} edges")
    usable = [n for n in range(p, n_max + 1) if counts[n] > 0 and counts[n - p] > 0]
    if not usable:
        raise ValueError(f"no usable loop-count ratio at {base!r}")
    # int true division is correctly rounded, exact quotients included
    diag = [math.log(counts[n] / counts[n - p]) / p for n in usable[-8:]]
    return EntropyEstimate(diag[-1], "ratio", n_max, base, p, diag)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

@dataclass
class TailFit:
    """Fitted tail model t_j ~ c * rho^j * j^(-power) for the nonzero terms."""

    rho: float
    power: float
    tail_sum: float
    limit_estimate: float
    fit_rms: float
    window: int


@dataclass
class RecurrenceVerdict:
    verdict: str
    trace: WeightedSumTrace
    threshold: float
    tail: Optional[TailFit] = None
    reason: str = ""  # why the verdict is Undecided; neither the CLI nor the suite prints it

    @property
    def limit_estimate(self) -> Optional[float]:
        return self.tail.limit_estimate if self.tail else None


def _richardson_rho(ts: Sequence[float], start: int) -> float:
    # r_j = t_{j+1}/t_j ~ rho (1 - power/j); j*r_j - (j-1)*r_{j-1} kills the
    # 1/j term.  ``start`` is the true subsequence index of ts[0].
    ratios = [(start + j, ts[j + 1] / ts[j]) for j in range(len(ts) - 1)]
    ext = []
    for (i0, r0), (i1, r1) in zip(ratios, ratios[1:]):
        ext.append(i1 * r1 - i0 * r0)
    tail = sorted(ext[-5:])
    return tail[len(tail) // 2]


def fit_tail(terms: Sequence[float], total: float) -> tuple[Optional[TailFit], str]:
    """Fit the decay of the positive terms and extrapolate the series limit.

    Returns (fit, ""), or (None, reason) when the terms are too few, not
    decaying, or not summable (power <= 1 at the critical radius).
    """
    ts = [t for t in terms if t > 0.0]
    if len(ts) < 8:
        return None, "too few terms"
    K = max(min(20, len(ts) // 2), 6)
    J = len(ts) - 1  # last index in the nonzero subsequence
    win = ts[-(K + 2):]
    rho = _richardson_rho(win, start=len(ts) - len(win))
    if not (0.0 < rho < 1.02):
        return None, "rho out of range"

    js = np.arange(J - K + 1, J + 1, dtype=float)
    ys = np.log(np.array(ts[-K:]))

    if rho < 0.9:
        # geometric regime: log t = a + j log(rho) - p log(j)
        A = np.column_stack([np.ones(K), js, np.log(js)])
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        a, logrho, negp = coef
        rho_f, p, c = math.exp(logrho), -negp, math.exp(a)
        if rho_f >= 1.0:
            return None, "fitted rho >= 1"
        rms = float(np.sqrt(np.mean((A @ coef - ys) ** 2)))
        tail = NeumaierSum()
        j = J + 1
        while j < J + 2_000_000:
            t = c * rho_f ** j * j ** (-p)
            tail.add(t)
            if t < 1e-18 * (1.0 + tail.value):
                break
            j += 1
        est = total + tail.value
        return TailFit(rho_f, p, tail.value, est, rms, K), ""

    # critical regime rho ~ 1: log t = a - p log(j) + b/j, zeta tail
    A = np.column_stack([np.ones(K), np.log(js), 1.0 / js])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    a, negp, b = coef
    p, c = -negp, math.exp(a)
    rms = float(np.sqrt(np.mean((A @ coef - ys) ** 2)))
    if p <= 1.05:
        return None, "power <= 1.05"
    import mpmath

    tail = c * (float(mpmath.zeta(p, J + 1)) + b * float(mpmath.zeta(p + 1, J + 1)))
    return TailFit(1.0, p, tail, total + tail, rms, K), ""


def classify_recurrence(graph: ShiftGraph, base: StateId, h: float, n_max: int,
                        threshold: float = 10.0) -> RecurrenceVerdict:
    """Threshold test for recurrence, tail extrapolation for transience.

    Recurrent only when the partial sums actually exceed ``threshold``;
    transience is reported as evidence with a fitted tail exponent and an
    extrapolated limit, never as a proof.  An ``Undecided`` verdict names
    its reason: the tail fit's rejection, or a fit rms of 0.05 or more.
    """
    _positive_finite("threshold", threshold)
    trace = weighted_loop_sum(graph, base, h, n_max)
    if trace.total > threshold:
        return RecurrenceVerdict(RECURRENT, trace, threshold)
    fit, reason = fit_tail(trace.terms, trace.total)
    if fit is not None and fit.fit_rms < 0.05:
        return RecurrenceVerdict(TRANSIENT_EVIDENCE, trace, threshold, fit)
    return RecurrenceVerdict(UNDECIDED, trace, threshold, fit, reason or "rms >= 0.05")


# ---------------------------------------------------------------------------
# Ruelle operator and harmonic functions
# ---------------------------------------------------------------------------

def ruelle_apply(graph: ShiftGraph, phi: Mapping[StateId, float]) -> dict[StateId, float]:
    """(L0 phi)(R) = sum over successors S of R of phi(S), at every state R
    of phi whose successors phi all covers."""
    out: dict[StateId, float] = {}
    for r in phi:
        succ = graph.successors(r)
        if all(s in phi for s in succ):
            out[r] = math.fsum(phi[s] for s in succ)
    return out


@dataclass
class HarmonicFunction:
    values: dict[StateId, float]
    h: float
    residual: float
    method: str
    meta: dict = field(default_factory=dict)


@dataclass
class ResidualReport:
    max_residual: float
    worst_state: Optional[StateId]
    states_checked: int
    passed: bool


def check_harmonic(graph: ShiftGraph, values: Mapping[StateId, float], h: float,
                   region: Optional[Iterable[StateId]] = None,
                   tol: float = 1e-8) -> ResidualReport:
    """Max relative residual |e^-h L0 psi - psi| / psi over the checkable
    states of ``region`` (default: every state of psi).

    A state is checkable when psi is positive there and :func:`ruelle_apply`
    applies L0 there, i.e. psi covers all of its successors (psi on a
    radius+1 ball makes every radius-ball state checkable).
    """
    l0 = ruelle_apply(graph, values)
    worst, worst_state, checked = 0.0, None, 0
    scale = math.exp(-h)
    for r in sorted(values if region is None else region):
        if r not in l0 or values[r] <= 0:
            continue
        res = abs(scale * l0[r] - values[r]) / values[r]
        checked += 1
        if res > worst:
            worst, worst_state = res, r
    return ResidualReport(worst, worst_state, checked, worst < tol)


def harmonic_finite(graph: ShiftGraph, base: Optional[StateId] = None) -> HarmonicFunction:
    """Perron eigenpair of a finite transitive graph by power iteration.

    Iterates with I + A (primitive whenever A is irreducible, so periodic
    graphs converge too), deterministic all-ones start, psi(base) = 1.  A
    graph with no cycle is rejected first: its A is nilpotent, so there is no
    positive Perron root, and (I + A)^k v would approach its limit only like 1/k.
    """
    base = base if base is not None else graph.base
    idx, A = _adjacency(graph, graph.states)
    if base not in idx:
        raise KeyError(f"unknown base {base!r}")
    if not _has_cycle(A):
        raise NumericalFailure("graph has no cycle: its adjacency is nilpotent, "
                               "so it has no positive Perron root", residual=math.inf)
    v = np.ones(len(idx))
    for it in range(_POWER_MAX_ITER):
        w = v + A @ v
        w = w / float(np.max(w))
        if float(np.max(np.abs(w - v))) < _POWER_TOL:
            v = w
            break
        v = w
    else:
        raise NumericalFailure("power iteration did not converge", residual=math.inf)

    Av = A @ v
    lam = float(Av @ v / (v @ v))
    if lam <= 0:
        raise NumericalFailure("nonpositive Perron estimate", residual=math.inf)
    h = math.log(lam)
    if v[idx[base]] <= 0:
        raise NumericalFailure("eigenvector not positive at base", residual=math.inf)
    v = v / v[idx[base]]
    values = {s: float(v[i]) for s, i in idx.items()}
    rep = check_harmonic(graph, values, h, tol=math.inf)
    return HarmonicFunction(values, h, rep.max_residual, "eigen",
                            meta={"base": base, "iterations": it + 1})


def harmonic_sarig(graph: ShiftGraph, a0: StateId, h: float, n_max: int,
                   radius: int = 6) -> HarmonicFunction:
    """Harmonic function on a recurrent shift from discounted path counts.

    psi(R) is the ratio of windowed sums of exp(-i h) Z_i(R, a0) over
    i in (n_max/2, n_max] to the same sums at a0.  Differencing away the
    lower half of the partial sums removes the Cesaro bias of the raw ratio,
    which converges like 1/n; the windowed ratio converges at the rate of the
    underlying renewal sequence.
    """
    _positive_finite("h", h)
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    graph.check_state(a0)
    m0 = n_max // 2
    into = counts_into(graph, a0, n_max)
    window = [(i, math.exp(-i * h)) for i in range(m0 + 1, n_max + 1)]
    # a state whose first path into a0 is longer than the window start has a
    # transient prefix inside the window, contaminating its ratio: drop it.
    # States with one (anchor, offset) have one row, so one sum (None: dropped)
    sums: dict[StateId, float] = {}
    by_row: dict[tuple[StateId, int], Optional[float]] = {}
    dropped = 0
    for s in sorted(ball(graph, a0, radius + 1)):
        key = into.locate(s)
        if key not in by_row:
            row = into.row(s)
            first_hit = next((i for i, z in enumerate(row) if z), None)
            by_row[key] = None if first_hit is not None and first_hit > m0 else NeumaierSum(
                _discounted(z, i, h, w) for i, w in window if (z := row[i])).value
        total = by_row[key]
        if total is None:
            dropped += 1
        elif total > 0.0:
            sums[s] = total
    if a0 not in sums:
        if any(into.row(a0)[m0 + 1:]):
            raise ValueError(f"every discounted loop term exp(-i h) Z_i at {a0!r}, i in "
                             f"{m0 + 1}..{n_max}, underflows to 0 at h={h!r}; denominator is zero")
        raise ValueError(f"no loops at {a0!r} within n_max={n_max}; denominator is zero")
    den = sums[a0]
    values = {s: v / den for s, v in sums.items()}
    rep = check_harmonic(graph, values, h, ball(graph, a0, radius), tol=math.inf)
    return HarmonicFunction(values, h, rep.max_residual, "sarig",
                            meta={"a0": a0, "window": (m0 + 1, n_max), "radius": radius,
                                  "dropped": dropped})


def _adjacency(graph: ShiftGraph, states: Sequence[StateId]) -> tuple[dict[StateId, int], np.ndarray]:
    """Row/column index of ``states`` and their dense 0/1 transition matrix;
    edges leaving ``states`` are dropped."""
    idx = {s: i for i, s in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    for s in states:
        for t in graph.successors(s):
            if t in idx:
                A[idx[s], idx[t]] = 1.0
    return idx, A


def _has_cycle(A: np.ndarray) -> bool:
    """True iff the 0/1 matrix ``A`` has a cycle, i.e. is not nilpotent:
    peeling states with no successor left (Kahn's order) does not empty it."""
    out = A.sum(axis=1)
    sinks = list(np.flatnonzero(out == 0))
    peeled = 0
    while sinks:
        j = sinks.pop()
        peeled += 1
        for i in np.flatnonzero(A[:, j]):
            out[i] -= 1
            if out[i] == 0:
                sinks.append(i)
    return peeled < len(A)


def _green_function(graph: ShiftGraph, h: float, w: StateId,
                    region: Sequence[StateId]) -> tuple[dict[StateId, int], np.ndarray]:
    """G(R, w) = sum_i exp(-i h) Z_i(R, w) restricted to paths inside region.

    Computed exactly (all path lengths at once) as one resolvent solve
    (I - e^-h A) g = e_w on the region, with Dirichlet truncation at its
    boundary; valid when the truncated operator has spectral radius < e^h,
    which holds on proper finite subgraphs of a transient chain.  Returns the
    region's row index and the Green's function column of w.
    """
    idx, A = _adjacency(graph, sorted(region))
    e = np.zeros(len(idx))
    e[idx[w]] = 1.0
    try:
        g = np.linalg.solve(np.eye(len(idx)) - math.exp(-h) * A, e)  # g[R] = G(R, w)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"resolvent solve failed: {exc}") from exc
    return idx, g


def harmonic_cyr(graph: ShiftGraph, a0: StateId, ray: Sequence[StateId], h: float,
                 radius: int = 4) -> HarmonicFunction:
    """Harmonic function on a transient shift via Green's-function ratios.

    psi(R) = G(R, w) / G(a0, w) at the ray's last state w, from one resolvent
    solve on the ball of radius ``radius + len(ray) + 10`` around a0.  The
    ray must be an admissible injective forward path inside that ball.  A
    column that is not positive means h lies below the critical value of the
    truncated region, and raises ValueError.
    """
    _positive_finite("h", h)
    ray = [graph.check_state(s) for s in ray]
    if len(set(ray)) != len(ray):
        raise ValueError("ray must be injective (pairwise distinct states)")
    for a, b in zip(ray, ray[1:]):
        if not graph.has_edge(a, b):
            raise ValueError(f"ray is not an admissible path at ({a!r}, {b!r})")
    graph.check_state(a0)
    if not ray:
        raise ValueError("empty ray")
    region = ball(graph, a0, radius + len(ray) + 10)
    for s in ray:
        if s not in region:
            raise ValueError(f"ray state {s!r} outside the solve region")
    w = ray[-1]
    idx, g = _green_function(graph, h, w, region)
    den = g[idx[a0]]
    if den < 0.0 or g.min() < -_GREEN_ROUNDOFF * np.abs(g).max():
        raise ValueError(f"truncated resolvent is not positive (G({a0!r}, {w!r}) = {den:.6g}, "
                         f"least entry {g.min():.6g}): h = {h!r} is below the critical value "
                         f"of the solve region")
    if den == 0.0:
        raise ValueError(f"ray state {w!r} unreachable from {a0!r}: zero denominator")
    values = {s: float(g[idx[s]] / den) for s in sorted(ball(graph, a0, radius + 1))
              if g[idx[s]] > 0.0}
    rep = check_harmonic(graph, values, h, ball(graph, a0, radius), tol=math.inf)
    return HarmonicFunction(values, h, rep.max_residual, "cyr",
                            meta={"a0": a0, "ray_index": len(ray) - 1, "radius": radius})
