"""The package's certificates are checks that raise, never ``assert``.

``python -O`` strips ``assert`` statements, and with them any certificate
written as one; an ``assert`` that fails otherwise escapes the CLI as a
traceback instead of exit 3.  This test reads every module under
``src/maxmix`` and fails on any ``assert`` statement.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maxmix"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
