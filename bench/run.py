"""Verification benchmark for margulis.

Usage (from the repository root):

    python3 bench/run.py --workload {countable,cat-leaf,cat-geometry} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
runs the workload's seeded item stream for S seconds as a closed loop (one
caller, one thread, the next item starts when the previous verdict is in)
and reports the end-to-end metrics, every time scaled to a fixed machine
speed by the gauge in ``speed.py``.  With ``--trace 1`` it runs a fixed
prefix of the same stream twice, untraced and then with the span tracer
installed, and reports the per-layer metrics; the spans are written to
``.bench_out/``.  Every item is checked against its oracle; a failed check
is counted, not raised.  The last line of standard output is the result
object; the line before it records the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from glob import glob
from itertools import islice

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
GAUGE_EVERY_S = 0.02  # item time between speed readings (a reading takes ~3 ms)
# traced runs take a fixed prefix of the item stream so their counts repeat
# exactly; each prefix is whole blocks of the workload's item mix
TRACE_ITEMS = {"countable": 10, "cat-leaf": 40, "cat-geometry": 50}
MAX_FAILURE_NOTES = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads.prepare_process()
    try:
        import margulis
    except ImportError as exc:
        print(f"cannot import margulis from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(margulis.__file__))) != workloads.SRC:
        print(f"margulis was imported from {margulis.__file__}, not from {workloads.SRC}",
              file=sys.stderr)
        return 2

    run = traced_run(args) if args.trace else timed_run(args)
    metrics = run.pop("metrics")
    info = {"workload": args.workload, "seed": args.seed, **run, "environment": environment()}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


class Runner:
    """Runs items one at a time and records per-item time and failures."""

    def __init__(self, ctx: workloads.Context):
        self.ctx = ctx
        self.durations: list[float] = []
        self.failed = 0
        self.notes: list[str] = []

    def run(self, item: workloads.Item) -> None:
        t0 = time.perf_counter()
        try:
            workloads.run_item(self.ctx, item)
        except Exception as exc:  # a raising item is a failed item, not a failed run
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"item {item.id} {item.kind} {item.params}: "
                                  f"{type(exc).__name__}: {exc}")
        self.durations.append(time.perf_counter() - t0)


def timed_run(args) -> dict:
    ctx = workloads.setup(args.workload, args.seed)
    stream = workloads.items(ctx)
    runner = Runner(ctx)
    kinds: dict[str, int] = {}
    # Every time is scaled to the reference machine speed by the gauge
    # readings taken just before and just after it (see speed.py).  Items
    # between two readings share them; a reading follows at most
    # GAUGE_EVERY_S of item time.
    scaled: list[float] = []
    readings = [speed.reading()]
    pending = 0
    # The set-up probes are spread over the timed phase, between items, with
    # the phase's clock paused.
    setups: list[float] = []
    setups_wall: list[float] = []
    paused = 0.0
    block = workloads.BLOCK[args.workload]
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        elapsed = now - t0 - paused
        # run whole blocks, so every metric is taken at the stated item mix
        if elapsed >= args.seconds and len(runner.durations) % block == 0:
            break
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(scaled_setup(args.workload, args.seed, readings, setups_wall))
            paused += time.perf_counter() - now
            continue
        item = next(stream)
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
        runner.run(item)
        pending += 1
        if sum(runner.durations[-pending:]) >= GAUGE_EVERY_S:
            readings.append(speed.reading())
            scaled += [speed.scale(d, readings[-2], readings[-1])
                       for d in runner.durations[-pending:]]
            pending = 0
    if pending:
        readings.append(speed.reading())
        scaled += [speed.scale(d, readings[-2], readings[-1]) for d in runner.durations[-pending:]]
    while len(setups) < SETUP_PROBES:  # items longer than the probe spacing
        setups.append(scaled_setup(args.workload, args.seed, readings, setups_wall))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(runner.durations)
    ms = sorted(1000.0 * d for d in scaled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": ((n - runner.failed) / math.fsum(scaled), "1/s"),
        "item_p50_ms": (percentile(ms, 0.50), "ms"),
        "item_p90_ms": (percentile(ms, 0.90), "ms"),
        "verified_frac": ((n - runner.failed) / n, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_ms = sorted(1000.0 * d for d in runner.durations)
    wall = {"setup_s": statistics.median(setups_wall),
            "items_per_s": (n - runner.failed) / math.fsum(runner.durations),
            "item_p50_ms": percentile(wall_ms, 0.50), "item_p90_ms": percentile(wall_ms, 0.90)}
    return {"metrics": metrics, "attempted": n, "failed": runner.failed,
            "failed_frac": runner.failed / n, "samples": n, "item_kinds": kinds,
            "timed_s": elapsed, "unscaled": wall, "setup_probes_s": setups,
            "gauge_readings": len(readings),
            "gauge_ms": {"min": 1e3 * min(readings), "median": 1e3 * statistics.median(readings),
                         "max": 1e3 * max(readings)},
            "failures": runner.notes}


def traced_run(args) -> dict:
    from tracer import Tracer, layer_metrics, partition_build_seconds

    tracer = Tracer()
    tracer.install()
    try:
        ctx = workloads.setup(args.workload, args.seed)
    finally:
        tracer.uninstall()
    build_s = partition_build_seconds(tracer)
    tracer.reset()
    batch = list(islice(workloads.items(ctx), TRACE_ITEMS[args.workload]))

    plain = Runner(ctx)
    t0 = time.perf_counter()
    for item in batch:
        plain.run(item)
    untraced_s = time.perf_counter() - t0

    traced = Runner(ctx)
    tracer.install()
    try:
        t0 = time.perf_counter()
        for item in batch:
            tracer.item = item.id
            traced.run(item)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    failed = plain.failed + traced.failed
    return {"metrics": layer_metrics(tracer, build_s, traced_s / untraced_s - 1.0),
            "attempted": 2 * len(batch), "failed": failed, "failed_frac": failed / (2 * len(batch)),
            "untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.names),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "failures": plain.notes + traced.notes}


def scaled_setup(workload: str, seed: int, readings: list[float], wall: list[float]) -> float:
    """One set-up probe between two gauge readings, scaled to the reference speed."""
    readings.append(speed.reading())
    wall.append(probe_setup(workload, seed))
    readings.append(speed.reading())
    return speed.scale(wall[-1], readings[-2], readings[-1])


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first item being ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def environment() -> dict:
    import mpmath
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for d in sorted(glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
        "page_cache": "not dropped (that needs privileges the benchmark does not have); "
                      "set-up is measured in a fresh process with a warm page cache",
    }


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


if __name__ == "__main__":
    sys.exit(main())
