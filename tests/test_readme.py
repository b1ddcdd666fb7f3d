"""The README's "Library use" example runs and returns what its comments show."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import PINNED_NUMPY

ROOT = Path(__file__).resolve().parent.parent
# A comment shows a result when it opens with a call-like repr or a number.
# "..." in it stands for any text; prose after a number is not compared.
SHOWN = re.compile(r"#\s*(\w+\(.*\)|[\d.]+)")


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_returns_what_it_shows(monkeypatch):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"results pinned with numpy {PINNED_NUMPY}, running {np.__version__}")
    monkeypatch.chdir(ROOT)  # the example loads scenario.example.ini by a relative path
    code = library_block()
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(code).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not comment and node.end_lineno < len(lines):
            comment = lines[node.end_lineno].strip()
        shown = SHOWN.match(comment)
        if shown is None:
            continue  # a comment in prose, like the one on result.flags
        pattern = ".*".join(map(re.escape, shown.group(1).split("...")))
        assert re.fullmatch(pattern, repr(value)), (ast.unparse(node), shown.group(1), value)
        checked.append(ast.unparse(node))
    assert checked == [
        "result.rows.clicks[-1]",
        "gsp_allocate(ranked, auction)[0]",
        "alpha.estimate(60000)",
        "last20.estimate(60000)",
    ]
