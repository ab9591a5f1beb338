import ast
import json
import math
from pathlib import Path

import pytest

from margulis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_python_block_runs_and_its_comments_hold():
    # run the block statement by statement, keeping the value of each bare
    # expression: the values the block's comments state
    ns: dict = {}
    values = []
    for stmt in ast.parse(_python_block()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), ns)
    entropy, verdict, measure = values
    assert entropy == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
    assert verdict == "Recurrent"
    assert measure == ns["fam"].psi_of("R1")


def test_readme_ladder_family_is_the_closed_form(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("```json\n", text.index("The ladder's family")) + len("```json\n")
    doc = json.loads(text[start:text.index("```", start)])
    assert doc["graph"] == {"kind": "generator", "name": "ladder", "params": {}}
    assert doc["h"] == 1.5 * math.log(2.0)
    assert doc["psi"] == {f"({n},{c})": (n + 1) * 2.0 ** (-n / 2)
                          for n in range(12) for c in (1, 2)}
    family = tmp_path / "L.json"
    family.write_text(json.dumps(doc))
    assert main(["measure", "verify", "--family", str(family), "--depth", "8"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "conformality_max_err": 2.220446049250313e-16, "consistency_max_err": 0.0,
        "support_ok": True}
    # the table ends at n = 11, so a walk to depth 12 reaches states it misses
    assert main(["measure", "verify", "--family", str(family), "--depth", "12"]) == 1
    assert json.loads(capsys.readouterr().out)["support_ok"] is False
