"""Source hygiene that a linter would check: every name a module imports is read in it."""

import ast
from pathlib import Path

import pytest

import fiberquant

MODULES = sorted(p for p in Path(fiberquant.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` (``__future__`` aside) that no expression reads."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).partition(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_modules_are_found():
    assert {"gauge.py", "transport.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_caught():
    assert unread_imports("from .gauge import ChartData, connection_rep\nconnection_rep()\n") == ["ChartData"]
