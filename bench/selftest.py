"""Self-test of the benchmark itself (not part of the library's test suite).

Run from the repository root with either of:

    python3 -m pytest -q bench/selftest.py
    python3 bench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

workloads.prepare_process()


def _result(workload: str, seed: int, trace: int, cwd: str = ROOT) -> dict:
    done = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _item_list(workload: str, seed: int, n: int = 40) -> list:
    ctx = workloads.setup(workload, seed)
    return [(it.kind, it.params) for it in islice(workloads.items(ctx), n)]


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_traced_counts_repeat_exactly():
    for workload in workloads.WORKLOADS:
        first, second = _result(workload, 5, 1), _result(workload, 5, 1)
        assert first["correct"] and second["correct"], workload
        assert sorted(first["metrics"]) == sorted(_declared("per_layer")), workload
        counts = {k for k, v in first["metrics"].items() if v["unit"] not in ("s", "frac")}
        assert counts, workload
        for k in sorted(counts):
            assert first["metrics"][k] == second["metrics"][k], (workload, k)


def test_timed_run_reports_every_end_to_end_metric():
    res = _result("cat-leaf", 5, 0)
    assert res["correct"] and res["attempted"] >= 1
    assert sorted(res["metrics"]) == sorted(_declared("end_to_end"))
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_seed_determines_item_list():
    for workload in workloads.WORKLOADS:
        assert _item_list(workload, 1) == _item_list(workload, 1), workload
        assert _item_list(workload, 1) != _item_list(workload, 2), workload


def test_fails_without_the_library():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload",
                               "countable", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=tmp, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
