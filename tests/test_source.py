"""Source hygiene of the package, checked with the standard library alone
(no linter is needed): no module imports a name it never uses.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chemostokes"


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that nothing reads.  A name
    listed in the module's __all__ counts as read (a re-export)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from .grid import Grid, axslice\n"
              "from .errors import ConfigError\n"
              "__all__ = ['ConfigError']\n"
              "def f(g: Grid):\n"
              "    return np.zeros(3)\n")
    assert unused_imports(source) == ["axslice (line 3)", "os (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in
                                          PACKAGE.glob("*.py")))
def test_module_imports_no_unused_name(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
