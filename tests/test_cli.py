import json
import subprocess
import sys


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "margulis.cli", *args],
                          capture_output=True, text=True)


def test_help():
    r = run_cli("--help")
    assert r.returncode == 0
    for sub in ("shift", "thermo", "measure", "torus", "suite"):
        assert sub in r.stdout


def test_unknown_fixture_exit_2():
    r = run_cli("suite", "run", "--fixture", "bogus")
    assert r.returncode == 2
    assert "unknown fixture" in r.stderr


def test_shift_count_decimal_strings(tmp_path):
    out = tmp_path / "counts.json"
    r = run_cli("--out", str(out), "shift", "count", "--fixture", "golden-mean",
                "--origin", "0", "--target", "0", "--n", "6")
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["counts"] == ["1", "1", "2", "3", "5", "8", "13"]


def test_thermo_entropy_command():
    r = run_cli("thermo", "entropy", "--fixture", "golden-mean", "--base", "0",
                "--n", "40", "--method", "ratio")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert abs(payload["value"] - 0.4812118250596035) < 1e-8


def test_thermo_classify_with_csv(tmp_path):
    csv = tmp_path / "trace.csv"
    r = run_cli("thermo", "classify", "--fixture", "ladder", "--base", "(0,1)",
                "--h", "1.0397207708399179", "--n", "60", "--threshold", "15",
                "--csv", str(csv))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "TransientEvidence"
    assert abs(payload["tail"]["limit_estimate"] - 2.0) < 0.01
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,partial_sum"
    assert len(lines) == 62


def test_measure_verify():
    r = run_cli("measure", "verify", "--fixture", "golden-mean", "--depth", "6")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["conformality_max_err"] < 1e-12
    assert payload["support_ok"] is True
    assert payload["consistency_max_err"] == 0.0


def test_suite_run_golden_mean(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("suite", "run", "--fixture", "golden-mean", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["exit_code"] == 0
    assert all(e["passed"] for e in payload["entries"])


def test_determinism_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        r = run_cli("suite", "run", "--fixture", "full-2", "--seed", "3",
                    "--out", str(path))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_harmonic_cyr_cli():
    ray = ",".join(f"({k},1)" for k in range(10))
    r = run_cli("thermo", "harmonic", "--fixture", "ladder", "--method", "cyr",
                "--base", "(0,1)", "--h", "1.0397207708399179", "--ray", ray,
                "--radius", "3")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["residual"] < 1e-3
    assert payload["values"]["(0,1)"] == 1.0


def test_graph_file_input(tmp_path):
    gfile = tmp_path / "graph.json"
    gfile.write_text(json.dumps({"kind": "finite", "states": ["a", "b"],
                                 "edges": [["a", "a"], ["a", "b"], ["b", "a"]]}))
    r = run_cli("shift", "validate", "--graph", str(gfile))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["transitive_on_ball"] is True


def test_partition_export_and_validate_round_trip(tmp_path):
    pfile = tmp_path / "cat.json"
    r = run_cli("torus", "export", "--map", "cat-adler-weiss", "--out", str(pfile))
    assert r.returncode == 0
    payload = json.loads(pfile.read_text())
    assert payload["matrix"] == [[2, 1], [1, 1]]
    assert len(payload["rectangles"]) == 5
    r = run_cli("torus", "validate", "--partition", str(pfile))
    assert r.returncode == 0
    check = json.loads(r.stdout)
    assert check["ok"] is True
    assert abs(check["area"] - 1.0) < 1e-12


def test_partition_validate_rejects_bad_file(tmp_path):
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps({
        "matrix": [[2, 1], [1, 1]],
        "rectangles": [{"id": "Q", "corner": [0.0, 0.0],
                        "u_extent": 1.2, "s_extent": 1.2}],
    }))
    r = run_cli("torus", "validate", "--partition", str(pfile))
    assert r.returncode != 0


def test_partition_validate_reports_invalid_partition(tmp_path):
    pfile = tmp_path / "cat.json"
    assert run_cli("torus", "export", "--out", str(pfile)).returncode == 0
    payload = json.loads(pfile.read_text())
    payload["rectangles"][0]["u_extent"] *= 1.01
    pfile.write_text(json.dumps(payload))
    r = run_cli("torus", "validate", "--partition", str(pfile))
    assert r.returncode == 1
    check = json.loads(r.stdout)
    assert check["ok"] is False
    assert abs(check["area"] - 1.0) > 1e-4
    assert "invalid Markov partition" in r.stderr
