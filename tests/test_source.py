"""Source hygiene that a linter would check: every import sits at module level and every name it binds is
read in its module, and every module-level symbol is read somewhere in the package or exported by it."""

import ast
from pathlib import Path

import pytest

import fiberquant

PACKAGE = Path(fiberquant.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def function_imports(source: str) -> list[str]:
    """``function: module`` for each import inside a function body of ``source``, nested functions included."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found += [f"{func.name}: {alias.name}" for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append(f"{func.name}: {'.' * node.level}{node.module or ''}")
    return found


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # a module-level import is seen by test_every_import_is_read; one inside a function is not
    assert function_imports(path.read_text()) == []


def test_a_function_import_is_caught():
    source = "import os\ndef f():\n    from .fiberq import build_basis\n    def g():\n        import math\n"
    assert sorted(function_imports(source)) == ["f: .fiberq", "f: math", "g: math"]


def test_an_unread_import_is_caught():
    assert unread_imports("from .gauge import ChartData, connection_rep\nconnection_rep()\n") == ["ChartData"]


def defined_symbols(source: str) -> list[str]:
    """The module-level functions, classes and constants that ``source`` defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def unused_symbols(sources: dict[str, str], exported: set[str]) -> list[str]:
    """``module.symbol`` for each module-level symbol of ``sources`` (module name -> source) that no
    expression in any of them reads, by name or as an attribute, and that is not ``exported``."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}.{name}" for module, source in sources.items() for name in defined_symbols(source)
            if name not in read | exported]


def test_every_symbol_is_read_or_exported():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert unused_symbols({p.stem: p.read_text() for p in MODULES}, exported) == []


def test_an_unused_symbol_is_caught():
    sources = {"a": "LIMIT = 3\n_SPARE = 4\ndef f():\n    return LIMIT\n\ndef _g():\n    return 0\n",
               "b": "from . import a\nclass C:\n    x = a._g()\n"}
    assert unused_symbols(sources, exported={"f"}) == ["a._SPARE", "b.C"]


FIBER_BUILDERS = ("build_basis", "build_rep", "quadrature_rep")


def fiber_builder_calls(sources: dict[str, str]) -> list[str]:
    """``module.definition: name`` for each call of a fiber builder in ``sources`` (module name -> source),
    by name, import alias or attribute, outside ``scenario.Fiber``; module-level code is ``<module>``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name in FIBER_BUILDERS} | set(FIBER_BUILDERS)
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (module, owner) != ("scenario", "Fiber"):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    found += [f"{module}.{owner}: {name}"] if name in names else []
    return found


def test_only_the_fiber_builds_a_fiber():
    # every basis and generator set is read from one scenario.Fiber per spin, which builds each once
    assert fiber_builder_calls({p.stem: p.read_text() for p in MODULES}) == []


def test_a_fiber_builder_call_is_caught():
    sources = {"scenario": "class Fiber:\n    def m(self):\n        return build_basis(1)\n"
                           "def f(basis):\n    return build_rep(basis)\n",
               "cli": "from . import gauge\nREP = gauge.quadrature_rep(b)\ndef build_basis():\n    pass\n",
               "verify": "from .gauge import build_rep as rep_of\ndef g(b):\n    return rep_of(b)\n"}
    assert fiber_builder_calls(sources) == ["scenario.f: build_rep", "cli.<module>: quadrature_rep", "verify.g: rep_of"]
