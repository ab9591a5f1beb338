"""Span tracer installed around the library's public functions.

The tracer replaces each public function of the layer modules (graphs,
counting, thermo, measures, torus) at every name a caller resolves it by:
the defining module, the package, and every library module that imported
it, so calls from the benchmark and calls between layers are both seen.
Each call becomes an in-memory span (name, start, end, parent, item id).
Functions called hundreds of thousands of times per item, the generator
``iter_cylinders`` and the ShiftGraph methods are counted instead and get no
span, so their time stays in the caller's self time.  ``uninstall`` restores
every original.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("graphs", "counting", "thermo", "measures", "torus")
COUNT_ONLY = {"graphs.is_admissible", "counting.exp_weighted",
              "measures.cylinder_measure", "measures.iter_cylinders"}
GRAPH_METHODS = ("successors", "predecessors", "check_state")
DP_FUNCTIONS = {"counting.count_words", "counting.count_periodic", "counting.count_words_to"}
PARTITION_BUILD = {"torus.builtin_partition", "torus.inverse_partition", "torus.partition_family"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.item_ids: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from margulis.graphs import ShiftGraph

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "margulis" or n.startswith("margulis."))]
        for layer in LAYERS:
            mod = sys.modules[f"margulis.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self._counter(name, fn) if name in COUNT_ONLY
                           else self._spanner(name, fn))
                for ns in modules:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, key, wrapper)
        for meth in GRAPH_METHODS:
            self._patch(ShiftGraph, meth, self._counter(f"graphs.{meth}", getattr(ShiftGraph, meth)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, new) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanner(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        names, starts, ends, parents, item_ids, stack = (
            self.names, self.starts, self.ends, self.parents, self.item_ids, self._stack)
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            item_ids.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result
        return wrapper

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        for seq in (self.names, self.starts, self.ends, self.parents, self.item_ids):
            seq.clear()
        self.counts.clear()

    def layer_of(self, idx: int) -> str:
        return self.names[idx].split(".", 1)[0] if idx >= 0 else ""

    def summary(self) -> tuple[dict, dict, dict]:
        """Per-name call count, inclusive seconds and self seconds."""
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur
            if self.parents[i] >= 0:
                self_s[self.names[self.parents[i]]] -= dur
        return calls, incl, self_s

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i], "end": self.ends[i],
                                     "parent": self.parents[i], "item": self.item_ids[i]}) + "\n")


# ---------------------------------------------------------------------------
# observers: work counts read from arguments and results at the boundary
# ---------------------------------------------------------------------------

def _dp(tr: Tracer, idx: int, args: tuple, kwargs: dict, result) -> None:
    if tr.layer_of(tr.parents[idx]) != "counting":
        tr.counts["counting.calls"] += 1
        tr.counts["counting.dp_steps"] += kwargs.get("n_max", args[-1])
    if isinstance(result, list):  # count_words_to: one dict per path length
        bits = max((z.bit_length() for table in result for z in table.values()), default=0)
    else:
        bits = max((z.bit_length() for z in result.counts), default=0)
    tr.counts["counting.max_count_bits"] = max(tr.counts["counting.max_count_bits"], bits)


def _adder(key: str, value: Callable) -> Callable:
    def observe(tr: Tracer, idx: int, args: tuple, kwargs: dict, result) -> None:
        tr.counts[key] += value(result)
    return observe


def _leaf_measure(tr: Tracer, idx: int, args: tuple, kwargs: dict, result) -> None:
    tr.counts["torus.boundary_cylinders"] += result.boundary_cylinders
    tr.counts["torus.plaque_segments"] += result.segments
    if tr.parents[idx] >= 0 and tr.names[tr.parents[idx]] == "torus.margulis_coordinates":
        tr.counts["torus.solver_leaf_measure_calls"] += 1


_OBSERVERS: dict[str, Callable] = {
    **{name: _dp for name in DP_FUNCTIONS},
    "thermo.harmonic_sarig": _adder("thermo.sarig_states", lambda r: len(r.values)),
    "thermo.harmonic_finite": _adder("thermo.finite_iterations", lambda r: r.meta["iterations"]),
    "measures.conformality_check": _adder("measures.cylinders_checked",
                                          lambda r: r.cylinders_checked),
    "torus.leaf_arc_measure": _leaf_measure,
    "torus.intersection_count": _adder("torus.intersection_total", int),
    "torus.code_point": _adder("torus.itineraries", len),
}


def layer_metrics(tr: Tracer, partition_build_s: float, overhead_frac: float) -> dict:
    """The per-layer metrics, keyed by name, as (value, unit) pairs."""
    calls, incl, self_s = tr.summary()
    c = tr.counts
    solves = calls["torus.margulis_coordinates"]
    return {
        "graphs.successors_calls": (c["graphs.successors"], "count"),
        "graphs.predecessors_calls": (c["graphs.predecessors"], "count"),
        "graphs.check_state_calls": (c["graphs.check_state"], "count"),
        "graphs.validate_s": (incl["graphs.validate_graph"], "s"),
        "graphs.ball_s": (incl["graphs.ball"], "s"),
        "counting.calls": (c["counting.calls"], "count"),
        "counting.self_s": (sum(v for k, v in self_s.items() if k.startswith("counting.")), "s"),
        "counting.dp_steps": (c["counting.dp_steps"], "count"),
        "counting.max_count_bits": (c["counting.max_count_bits"], "bits"),
        "thermo.entropy_self_s": (self_s["thermo.gurevich_entropy"], "s"),
        "thermo.classify_self_s": (self_s["thermo.classify_recurrence"], "s"),
        "thermo.tail_fit_s": (incl["thermo.fit_tail"], "s"),
        "thermo.sarig_self_s": (self_s["thermo.harmonic_sarig"], "s"),
        "thermo.sarig_states": (c["thermo.sarig_states"], "count"),
        "thermo.cyr_s": (incl["thermo.harmonic_cyr"], "s"),
        "thermo.finite_s": (incl["thermo.harmonic_finite"], "s"),
        "thermo.finite_iterations": (c["thermo.finite_iterations"], "count"),
        "measures.conformality_self_s": (self_s["measures.conformality_check"], "s"),
        "measures.cylinder_measure_calls": (c["measures.cylinder_measure"], "count"),
        "measures.cylinders_checked": (c["measures.cylinders_checked"], "count"),
        "measures.support_s": (incl["measures.support_check"], "s"),
        "torus.coord_solve_self_s": (self_s["torus.margulis_coordinates"], "s"),
        "torus.leaf_measure_calls_per_solve": (
            c["torus.solver_leaf_measure_calls"] / solves if solves else 0.0, "calls/solve"),
        "torus.leaf_measure_calls": (calls["torus.leaf_arc_measure"], "count"),
        "torus.leaf_measure_s": (incl["torus.leaf_arc_measure"], "s"),
        "torus.boundary_cylinders": (c["torus.boundary_cylinders"], "count"),
        "torus.plaque_segments": (c["torus.plaque_segments"], "count"),
        "torus.intersection_count_s": (incl["torus.intersection_count"], "s"),
        "torus.intersection_total": (c["torus.intersection_total"], "count"),
        "torus.code_point_s": (incl["torus.code_point"], "s"),
        "torus.itineraries": (c["torus.itineraries"], "count"),
        "torus.holonomy_self_s": (self_s["torus.holonomy_invariance_check"], "s"),
        "torus.partition_build_s": (partition_build_s, "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }


def partition_build_seconds(tr: Tracer) -> float:
    """Inclusive time of the top-level partition and family builds."""
    return sum((tr.ends[i] - tr.starts[i] for i, name in enumerate(tr.names)
                if name in PARTITION_BUILD and tr.parents[i] < 0), 0.0)
