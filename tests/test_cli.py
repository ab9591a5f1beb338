import argparse
import json
import subprocess
import sys
import time

import pytest

from margulis import cli, graphs
from margulis.cli import build_parser, main
from margulis.graphs import StructuralViolation
from margulis.suite import run_suite


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
    assert "'all'" in r.stderr and "'cat'" in r.stderr


def test_thermo_entropy_accepts_only_ratio(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["thermo", "entropy", "--fixture", "full-2", "--base", "0", "--method", "limsup"])
    assert exc.value.code == 2
    assert "invalid choice: 'limsup'" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", ["full-2", "golden-mean", "renewal", "ladder"])
def test_shift_validate_rejects_a_negative_radius_on_every_graph(capsys, fixture):
    # full-2 and golden-mean printed a passing report at --radius -1 and exited 0
    assert main(["shift", "validate", "--fixture", fixture, "--radius", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: radius must be >= 0\n")


def test_structural_violation_exits_1(monkeypatch, capsys):
    def violate(graph, radius=0):
        raise StructuralViolation("x")
    monkeypatch.setattr(cli, "validate_graph", violate)
    assert main(["shift", "validate", "--fixture", "renewal"]) == 1
    assert capsys.readouterr() == ("", "structural violation: x\n")


def test_shift_count_decimal_strings(tmp_path):
    out = tmp_path / "counts.json"
    assert main(["--out", str(out), "shift", "count", "--fixture", "golden-mean",
                 "--origin", "0", "--target", "0", "--n", "6"]) == 0
    payload = json.loads(out.read_text())
    assert payload["counts"] == ["1", "1", "2", "3", "5", "8", "13"]


def test_thermo_entropy_command(capsys):
    assert main(["thermo", "entropy", "--fixture", "golden-mean", "--base", "0",
                 "--n", "40", "--method", "ratio"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 0.4812118250596035) < 1e-8


def test_thermo_classify_with_csv(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    assert main(["thermo", "classify", "--fixture", "ladder", "--base", "(0,1)",
                 "--h", "1.0397207708399179", "--n", "60", "--threshold", "15",
                 "--csv", str(csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "TransientEvidence"
    assert abs(payload["tail"]["limit_estimate"] - 2.0) < 0.01
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,partial_sum"
    assert len(lines) == 62


def test_measure_verify(capsys):
    assert main(["measure", "verify", "--fixture", "golden-mean", "--depth", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conformality_max_err"] < 1e-12
    assert payload["support_ok"] is True
    assert payload["consistency_max_err"] == 0.0


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_measure_verify_rejects_a_tol_not_positive_and_finite(capsys, tol):
    # each printed a passing-looking result; inf passed any discrepancy
    assert main(["measure", "verify", "--fixture", "golden-mean", "--depth", "6", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: tol must be positive and finite; tol = {float(tol)}\n"


def test_unknown_state_message_is_unquoted(capsys):
    assert main(["thermo", "harmonic", "--fixture", "renewal", "--method", "sarig",
                 "--base", "zzz", "--h", "0.6931471805599453", "--n", "60",
                 "--radius", "6"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: unknown state 'zzz'\n"
    assert out == ""


@pytest.mark.parametrize("command", [
    ["shift", "ball", "--fixture", "ladder", "--center", "(0,1)", "--radius", "10000000"],
    ["thermo", "harmonic", "--fixture", "ladder", "--method", "sarig", "--base", "(0,1)",
     "--h", "1.0397207708399179", "--n", "80", "--radius", "10000000"],
])
def test_a_walk_past_the_state_budget_exits_2(monkeypatch, capsys, command):
    # the budget is cut to 1,000 states so that the walk ends at once
    monkeypatch.setattr(graphs, "_STATE_BUDGET", 1000)
    assert main(command) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ShiftGraph(generated 'ladder', base='(0,1)') exceeds its state "
                   "budget of 1000 states at '(500,2)'\n")


def test_measure_verify_rejects_bad_families(tmp_path, capsys):
    # in process: each bad family makes main return its exit code without raising
    def verify(*args):
        code = main(["measure", *args])
        return code, capsys.readouterr().err

    code, err = verify("verify", "--fixture", "renewal", "--root", "zzz")
    assert code == 2
    assert "unknown state 'zzz'" in err
    golden = {"kind": "finite", "states": ["0", "1"],
              "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}
    renewal = {"kind": "generator", "name": "renewal", "params": {"max_len": 64}}
    # a psi that misses a state of a finite graph is bad input
    fam = tmp_path / "golden.json"
    fam.write_text(json.dumps({"graph": golden, "h": 0.48121182505960347, "psi": {"0": 7.0}}))
    code, err = verify("verify", "--family", str(fam))
    assert code == 2
    assert "psi has no value for state '1'" in err
    # on a generated graph, a psi whose walk checks no cylinder verifies nothing
    fam = tmp_path / "renewal.json"
    fam.write_text(json.dumps({"graph": renewal, "h": 0.6931471805599453, "psi": {"b": 1.0}}))
    assert verify("verify", "--family", str(fam))[0] == 1
    # a root psi does not cover is bad input, named as the constructor names it
    for cmd in ("verify", "cylinder"):
        code, err = verify(cmd, "--family", str(fam), "--root", "l(3,1)")
        assert code == 2
        assert "error: psi has no value for state 'l(3,1)'" in err


GOLDEN = {"kind": "finite", "states": ["0", "1"], "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}


@pytest.mark.parametrize("command,text", [
    pytest.param("shift validate --graph", "[1, 2]", id="graph-list"),
    pytest.param("shift validate --graph",
                 '{"kind": "generator", "name": "renewal", "params": {"bogus": 1}}',
                 id="graph-unknown-param"),
    pytest.param("shift validate --graph",
                 '{"kind": "generator", "name": "renewal", "params": {"max_len": "x"}}',
                 id="graph-string-param"),
    pytest.param("measure verify --family",
                 json.dumps({"graph": GOLDEN, "h": 0.48, "psi": [1]}), id="family-psi-list"),
    pytest.param("measure verify --family",
                 json.dumps({"graph": GOLDEN, "h": None, "psi": {"0": 1.6, "1": 1.0}}),
                 id="family-h-null"),
    pytest.param("measure verify --family", json.dumps([GOLDEN]), id="family-list"),
    # Python's json reads NaN; a NaN h would pass every discrepancy test
    pytest.param("measure verify --family",
                 '{"graph": %s, "h": NaN, "psi": {"0": 1.6, "1": 1.0}}' % json.dumps(GOLDEN),
                 id="family-h-nan"),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([*command.split(), str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_measure_verify_depth_30_is_fast():
    # the checks read (length, last state) classes: 2^31 - 1 and ~6.8e10
    # futures are counted, not walked
    for name in ("full-2", "renewal"):
        r = subprocess.run([sys.executable, "-m", "margulis.cli", "measure", "verify",
                            "--fixture", name, "--depth", "30"],
                           capture_output=True, text=True, timeout=30)
        assert r.returncode == 0, r.stderr


def test_measure_verify_verdict_ignores_the_scale_of_psi(tmp_path):
    golden = {"kind": "finite", "states": ["0", "1"],
              "edges": [["0", "0"], ["0", "1"], ["1", "0"]]}
    fam = tmp_path / "family.json"
    # a wrong psi at a tiny scale fails, the right psi scaled by 1e6 passes
    for psi, code in (({"0": 1.618033988749895e-14, "1": 1.3e-14}, 1),
                      ({"0": 1618033.988749895, "1": 1e6}, 0)):
        fam.write_text(json.dumps({"graph": golden, "h": 0.4812118250596035, "psi": psi}))
        assert main(["measure", "verify", "--family", str(fam), "--depth", "8"]) == code


def test_flags_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shift", "count", "--fixture", "golden-mean", "--origin", "0",
              "--target", "0", "--n", "6", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def subparsers(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    flags = {(cmd, sub): {o for a in leaf._actions for o in a.option_strings}
             for cmd, group in subparsers(build_parser()).items()
             for sub, leaf in subparsers(group).items()}
    assert len(flags) == 12 and all("--out" in f for f in flags.values())
    assert {c for c, f in flags.items() if "--seed" in f} == {("suite", "run"), ("torus", "verify")}
    assert {c for c, f in flags.items() if "--tol" in f} == {("measure", "verify")}


def test_torus_verify_is_the_cat_suite():
    args = ("--depth", "4", "--samples", "50", "--seed", "3")
    tv = run_cli("torus", "verify", *args)
    sr = run_cli("suite", "run", "--fixture", "cat", *args)
    assert tv.returncode == sr.returncode == 0
    assert tv.stdout == sr.stdout
    r = run_cli("torus", "verify", "--map", "golden-mean")
    assert r.returncode == 2
    assert "invalid choice: 'golden-mean'" in r.stderr


def test_suite_run_golden_mean(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["suite", "run", "--fixture", "golden-mean", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["exit_code"] == 0
    assert all(e["passed"] for e in payload["entries"])


def test_ladder_suite_entries_pass_in_order():
    # only `suite run --fixture all` runs the ladder suite end to end
    report = run_suite("ladder")
    assert [e.name for e in report.entries] == [
        f"ladder/{name}" for name in ("transitivity_as_expected", "entropy_ratio_err",
                                      "not_recurrent", "loop_sum_limit_err", "cyr_residual")]
    assert all(e.passed for e in report.entries)


def test_determinism_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        r = run_cli("suite", "run", "--fixture", "full-2", "--seed", "3",
                    "--out", str(path))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_harmonic_cyr_cli(capsys):
    ray = ",".join(f"({k},1)" for k in range(10))
    assert main(["thermo", "harmonic", "--fixture", "ladder", "--method", "cyr",
                 "--base", "(0,1)", "--h", "1.0397207708399179", "--ray", ray,
                 "--radius", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-3
    assert payload["values"]["(0,1)"] == 1.0


def test_harmonic_cyr_below_the_critical_h_exits_2(capsys):
    # at h - 0.01 the truncated resolvent is not positive: input error, no traceback
    ray = ",".join(f"({k},1)" for k in range(13))
    assert main(["thermo", "harmonic", "--fixture", "ladder", "--method", "cyr",
                 "--base", "(0,1)", "--h", "1.0297207708399179", "--ray", ray,
                 "--radius", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: truncated resolvent is not positive (G('(0,1)', '(12,1)') = -115.")
    assert "h = 1.0297207708399179 is below the critical value of the solve region" in err


def test_shift_ball(capsys):
    assert main(["shift", "ball", "--fixture", "ladder", "--center", "(0,1)", "--radius", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "center": "(0,1)", "radius": 2,
        "states": ["(0,1)", "(0,2)", "(1,1)", "(1,2)", "(2,1)", "(2,2)"]}


def test_a_family_file_may_name_a_fixture(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"fixture": "golden-mean"}))
    assert main(["measure", "verify", "--fixture", "golden-mean"]) == 0
    by_name = capsys.readouterr().out
    assert main(["measure", "verify", "--family", str(fam)]) == 0
    assert capsys.readouterr().out == by_name


def test_graph_file_input(tmp_path, capsys):
    gfile = tmp_path / "graph.json"
    gfile.write_text(json.dumps({"kind": "finite", "states": ["a", "b"],
                                 "edges": [["a", "a"], ["a", "b"], ["b", "a"]]}))
    assert main(["shift", "validate", "--graph", str(gfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transitive_on_ball"] is True


@pytest.mark.parametrize("max_len, code", [(257, 0), (258, 2)])
def test_shift_validate_renewal_max_len_limit(tmp_path, capsys, max_len, code):
    # l(n,1) reaches b in n - 1 edges, and paths are searched within 256
    gfile = tmp_path / "renewal.json"
    gfile.write_text(json.dumps({"kind": "generator", "name": "renewal",
                                 "params": {"max_len": max_len}}))
    assert main(["shift", "validate", "--graph", str(gfile), "--radius", "2"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["transitive_on_ball"] is True and err == ""
    else:
        assert out == "" and err == "error: renewal needs 2 <= max_len <= 257; got 258\n"


def test_partition_export_and_validate_round_trip(tmp_path, capsys):
    pfile = tmp_path / "cat.json"
    assert main(["torus", "export", "--map", "cat-adler-weiss", "--out", str(pfile)]) == 0
    payload = json.loads(pfile.read_text())
    assert payload["matrix"] == [[2, 1], [1, 1]]
    assert len(payload["rectangles"]) == 5
    capsys.readouterr()
    assert main(["torus", "validate", "--partition", str(pfile)]) == 0
    check = json.loads(capsys.readouterr().out)
    assert check["ok"] is True
    assert abs(check["area"] - 1.0) < 1e-12


def test_partition_validate_rejects_bad_file(tmp_path):
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps({
        "matrix": [[2, 1], [1, 1]],
        "rectangles": [{"id": "Q", "corner": [0.0, 0.0],
                        "u_extent": 1.2, "s_extent": 1.2}],
    }))
    assert main(["torus", "validate", "--partition", str(pfile)]) != 0


def test_partition_validate_reports_invalid_partition(tmp_path, capsys):
    pfile = tmp_path / "cat.json"
    assert main(["torus", "export", "--out", str(pfile)]) == 0
    payload = json.loads(pfile.read_text())
    payload["rectangles"][0]["u_extent"] *= 1.01
    pfile.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["torus", "validate", "--partition", str(pfile)]) == 1
    out, err = capsys.readouterr()
    check = json.loads(out)
    assert check["ok"] is False
    assert abs(check["area"] - 1.0) > 1e-4
    assert "invalid Markov partition" in err


def test_partition_validate_rejects_negative_eigenvalue(tmp_path, capsys):
    pfile = tmp_path / "neg.json"
    pfile.write_text(json.dumps({
        "matrix": [[0, 1], [1, 1]],
        "rectangles": [{"id": "Q", "corner": [0.0, 0.0],
                        "u_extent": 1.0, "s_extent": 1.0}],
    }))
    assert main(["torus", "validate", "--partition", str(pfile)]) == 2
    err = capsys.readouterr().err
    assert "lam_s = -0.618" in err and "lam_u = 1.618" in err


def test_partition_validate_names_missing_key(tmp_path, capsys):
    pfile = tmp_path / "nokey.json"
    pfile.write_text(json.dumps({"matrix": [[2, 1], [1, 1]]}))
    assert main(["torus", "validate", "--partition", str(pfile)]) == 2
    assert 'partition file lacks "rectangles"' in capsys.readouterr().err


def test_partition_validate_malformed_file_exit_2(tmp_path, capsys):
    # in process: main returns 2 for each malformed file without raising
    pfile = tmp_path / "malformed.json"
    assert main(["torus", "export", "--out", str(pfile)]) == 0
    cat = json.loads(pfile.read_text())
    duplicate = json.loads(json.dumps(cat))
    duplicate["rectangles"][1]["id"] = "R1"
    non_finite = json.loads(json.dumps(cat))
    non_finite["rectangles"][2]["corner"][0] = float("nan")
    cases = [([1], None), ({"matrix": 5, "rectangles": []}, None),
             ({"matrix": [[2, 1], [1, 1]], "rectangles": [5]}, None),
             (duplicate, "duplicate rectangle id 'R1'"),
             (non_finite, "rectangle 'R3': corner is not finite")]
    for matrix, message in (([[2, 1, 0], [1, 1, 0]], "matrix must be 2x2"),
                            ([[2, 1], [1, 1], [7, 7]], "matrix must be 2x2"),
                            ([[float("nan"), 1], [1, 1]], "matrix entries must be finite integers"),
                            ([[2, 1], [1, float("inf")]], "matrix entries must be finite integers")):
        cases.append((dict(cat, matrix=matrix), message))
    capsys.readouterr()
    for spec, message in cases:
        pfile.write_text(json.dumps(spec))
        assert main(["torus", "validate", "--partition", str(pfile)]) == 2
        err = capsys.readouterr().err
        if message is not None:
            assert message in err


def test_partition_validate_area_failure_gets_a_verdict(tmp_path):
    # a long rectangle must not cost the square of its length, and a rectangle
    # that fails only the area check must still print its JSON verdict
    pfile = tmp_path / "area.json"
    for u_extent, s_extent in ((3000, 0.0003), (0.1, 0.1)):
        pfile.write_text(json.dumps({
            "matrix": [[2, 1], [1, 1]],
            "rectangles": [{"id": "A", "corner": [0, 0],
                            "u_extent": u_extent, "s_extent": s_extent}],
        }))
        r = subprocess.run([sys.executable, "-m", "margulis.cli", "torus", "validate",
                            "--partition", str(pfile)],
                           capture_output=True, text=True, timeout=30)
        assert r.returncode == 1
        assert json.loads(r.stdout)["ok"] is False
        assert "area of union" in r.stderr


def test_partition_validate_names_an_empty_rectangle(tmp_path, capsys):
    pfile = tmp_path / "empty.json"
    pfile.write_text(json.dumps({
        "matrix": [[2, 1], [1, 1]],
        "rectangles": [{"id": "A", "corner": [0, 0], "u_extent": 0, "s_extent": 1.2}],
    }))
    assert main(["torus", "validate", "--partition", str(pfile)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invalid Markov partition: A: empty rectangle",
        "invalid Markov partition: area of union = 0.000000000000 != 1",
    ]


def test_partition_validate_long_rectangle_is_fast(tmp_path):
    # a 1e6-long rectangle: the strip walk pulls its boxes back by A^k, so the
    # cost no longer grows with the length (a walk over every column took ~15 s)
    pfile = tmp_path / "long.json"
    pfile.write_text(json.dumps({
        "matrix": [[2, 1], [1, 1]],
        "rectangles": [{"id": "A", "corner": [0, 0], "u_extent": 1e6, "s_extent": 9e-7}],
    }))
    start = time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "margulis.cli", "torus", "validate",
                        "--partition", str(pfile)],
                       capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 1.0
    assert r.returncode == 1
    # the verdict and witnesses of the column-by-column walk, in its order
    assert json.loads(r.stdout) == {"area": 0.8999999999999999, "edges": [],
                                    "max_s_fit_err": 1.8351486923580245e-07,
                                    "max_u_cross_err": 978121.6826351413, "ok": False}
    assert r.stderr.splitlines() == [
        "invalid Markov partition: area of union = 0.900000000000 != 1",
        "invalid Markov partition: interiors of A and A+(-832040, -514229) overlap",
        "invalid Markov partition: interiors of A and A+(-514229, -317811) overlap",
        "invalid Markov partition: interiors of A and A+(514229, 317811) overlap",
        "invalid Markov partition: interiors of A and A+(832040, 514229) overlap",
        "invalid Markov partition: Markov violation A->A+(-832040, -514229): "
        "u_err=9.781e+05 s_err=0.000e+00",
        "invalid Markov partition: Markov violation A->A+(514229, 317811): "
        "u_err=0.000e+00 s_err=1.835e-07",
        "invalid Markov partition: Markov violation A->A+(2178309, 1346269): "
        "u_err=9.427e+05 s_err=1.749e-07",
        "invalid Markov partition: A->A: 2 crossings; refine the partition",
    ]


def _usage_error(capsys, argv):
    """Run ``main`` in process; it must exit 2 with one error line and no output."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("argv", [
    ["shift", "validate", "--graph"],
    ["measure", "verify", "--family"],
    ["torus", "validate", "--partition"],
], ids=["graph", "family", "partition"])
def test_an_input_path_that_is_a_directory_exits_2(tmp_path, capsys, argv):
    err = _usage_error(capsys, [*argv, str(tmp_path)])
    assert "Is a directory" in err and "Traceback" not in err


def test_classify_rejects_a_nan_h(capsys):
    err = _usage_error(capsys, ["thermo", "classify", "--fixture", "renewal", "--base", "b",
                                "--h", "nan", "--n", "20"])
    assert "h must be positive and finite; h = nan" in err


def test_classify_rejects_a_negative_threshold(capsys):
    err = _usage_error(capsys, ["thermo", "classify", "--fixture", "ladder", "--base", "(0,1)",
                                "--h", "1.0397207708399179", "--n", "20", "--threshold", "-1"])
    assert "threshold must be positive and finite; threshold = -1.0" in err


def test_harmonic_cyr_rejects_a_nan_h(capsys):
    ray = ",".join(f"({k},1)" for k in range(10))
    err = _usage_error(capsys, ["thermo", "harmonic", "--fixture", "ladder", "--method", "cyr",
                                "--base", "(0,1)", "--h", "nan", "--ray", ray, "--radius", "3"])
    assert "h must be positive and finite; h = nan" in err


def test_harmonic_sarig_rejects_a_nan_h(capsys):
    err = _usage_error(capsys, ["thermo", "harmonic", "--fixture", "renewal", "--method",
                                "sarig", "--h", "nan", "--n", "20", "--radius", "4"])
    assert "h must be positive and finite; h = nan" in err


@pytest.mark.parametrize("argv", [
    ["thermo", "entropy", "--fixture", "full-2", "--base", "0"],
    ["shift", "count", "--fixture", "full-2", "--origin", "0", "--target", "1"],
])
def test_a_horizon_past_the_cap_exits_2(capsys, argv):
    from margulis.counting import _MAX_HORIZON
    err = _usage_error(capsys, [*argv, "--n", str(_MAX_HORIZON + 1)])
    assert err == f"error: n_max must be >= 0 and <= {_MAX_HORIZON}; n_max = {_MAX_HORIZON + 1}\n"


def test_suite_rejects_a_nan_threshold(tmp_path, capsys):
    err = _usage_error(capsys, ["suite", "run", "--fixture", "all", "--threshold", "nan",
                                "--out", str(tmp_path / "report.json")])
    assert "threshold must be positive and finite; threshold = nan" in err


_NO_CYCLE = "error: graph has no cycle: its adjacency is nilpotent, so it has no positive Perron root\n"


def test_harmonic_eigen_numerical_failure_exits_2(tmp_path, capsys):
    # one state and no edge: the adjacency is 0, so there is no Perron root
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"kind": "finite", "states": ["a"], "edges": []}))
    err = _usage_error(capsys, ["thermo", "harmonic", "--graph", str(path), "--method", "eigen"])
    assert err == _NO_CYCLE


def test_harmonic_eigen_rejects_a_graph_with_no_cycle_before_it_iterates(tmp_path, capsys):
    # a -> b: A is nilpotent but not 0, so the power iteration would creep
    # towards its limit like 1/k through all of its iterations
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"kind": "finite", "states": ["a", "b"], "edges": [["a", "b"]]}))
    start = time.perf_counter()
    err = _usage_error(capsys, ["thermo", "harmonic", "--graph", str(path), "--method", "eigen"])
    assert time.perf_counter() - start < 0.5
    assert err == _NO_CYCLE


@pytest.mark.parametrize("fixture,target,label", [
    ("renewal", "b", "l(03,1)"), ("renewal", "b", "l( 3,1)"), ("renewal", "b", "l(+3,1)"),
    ("renewal", "b", "l(3,x)"), ("renewal", "b", "l(3)"), ("ladder", "(0,1)", "(01,1)"),
], ids=["leading-zero", "space", "sign", "not-a-number", "one-number", "ladder-leading-zero"])
def test_a_label_that_is_not_canonical_is_an_unknown_state(capsys, fixture, target, label):
    # "l(03,1)" would be a phantom state: l(3,2) does not list it as a predecessor
    argv = ["shift", "count", "--fixture", fixture, "--origin", label, "--target", target, "--n", "3"]
    assert _usage_error(capsys, argv) == f"error: unknown state {label!r}\n"


@pytest.mark.parametrize("argv", [
    ["suite", "run", "--fixture", "cat", "--depth", "0"],
    ["suite", "run", "--fixture", "all", "--depth", "0"],
    ["torus", "verify", "--depth", "0"],
], ids=["suite-cat", "suite-all", "torus-verify"])
def test_suite_rejects_a_depth_below_1(tmp_path, capsys, argv):
    err = _usage_error(capsys, [*argv, "--out", str(tmp_path / "report.json")])
    assert "depth must be >= 1" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["torus", "verify", "--samples", "1"],
    ["suite", "run", "--fixture", "cat", "--samples", "1"],
], ids=["torus-verify", "suite-cat"])
def test_a_cover_depth_past_the_cap_exits_2(tmp_path, capsys, argv):
    # it recursed into a RecursionError traceback from depth ~996
    from margulis.torus import _MAX_COVER_DEPTH
    depth = str(_MAX_COVER_DEPTH + 1)
    err = _usage_error(capsys, [*argv, "--depth", depth, "--out", str(tmp_path / "report.json")])
    assert err == f"error: depth must be <= {_MAX_COVER_DEPTH}; got {depth}\n"
    assert not (tmp_path / "report.json").exists()
