import json
import subprocess
import sys

from margulis.report import Report, trace_csv, write_text


def test_empty_report_is_valid_json(tmp_path):
    rep = Report("empty")
    text = write_text(rep.to_json(), str(tmp_path / "r.json"))
    payload = json.loads(text)
    assert payload["entries"] == []
    assert payload["exit_code"] == 0


def test_emit_identical_bytes(tmp_path):
    rep = Report("s", environment={"seed": 1})
    rep.check_leq("a", 0.5, 1.0)
    a = write_text(rep.to_json(), str(tmp_path / "a.json"))
    b = write_text(rep.to_json(), str(tmp_path / "b.json"))
    assert a == b
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_exit_code_contract():
    rep = Report("s")
    rep.check_leq("ok", 1.0, 2.0)
    assert rep.exit_code == 0
    rep.check_leq("bad", 3.0, 2.0)
    assert rep.exit_code == 1


def test_trace_csv_header():
    text = trace_csv([1.0, 1.5, 2.0])
    lines = text.splitlines()
    assert lines[0] == "n,partial_sum"
    assert lines[1] == "0,1.0"
    assert len(lines) == 4


def test_cli_check_failure_exits_1(tmp_path):
    # a family with perturbed psi fails the measure verification
    fam = {"graph": {"kind": "finite", "states": ["0", "1"],
                     "edges": [["0", "0"], ["0", "1"], ["1", "0"]]},
           "h": 0.4812118250596035,
           "psi": {"0": 1.65, "1": 1.0}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    r = subprocess.run([sys.executable, "-m", "margulis.cli", "measure", "verify",
                        "--family", str(path), "--root", "0", "--depth", "5"],
                       capture_output=True, text=True)
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["conformality_max_err"] > 1e-3
