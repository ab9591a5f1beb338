import ast
import math
from pathlib import Path

import pytest

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
