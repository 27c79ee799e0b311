"""Source hygiene of the package, checked with the standard library alone
(no linter is needed): no module imports a name it never uses, no
function takes a parameter it never reads, and importing the package
leaves the heavy parts of scipy unloaded.
"""

import ast
import os
import subprocess
import sys
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


def unread_parameters(source: str) -> list:
    """Parameters of the functions (and lambdas) in `source` that their
    bodies never read.  Names starting with `_` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({p}) (line {node.lineno})" for p in params
                  if p not in read and not p.startswith("_")]
    return sorted(found)


def test_unread_parameters_are_found():
    source = ("def f(grid, state, *rest, _spare, key=1, **kw):\n"
              "    def g(x):\n"
              "        return state\n"
              "    state = kw\n"
              "    return g\n"
              "h = lambda a, b: a\n"
              "class C:\n"
              "    def m(self, n):\n"
              "        return self\n")
    assert unread_parameters(source) == [
        "<lambda>(b) (line 6)", "f(grid) (line 1)", "f(key) (line 1)",
        "f(rest) (line 1)", "g(x) (line 2)", "m(n) (line 8)"]


# parameters nobody reads that stay, each with the reason
UNREAD_ALLOWED = {
    "solver.py": {"init_state(model)": "perfbench/child.py::_setup passes "
                                       "it positionally"},
    "snapshots.py": {"load_snapshot(dim)": "perfbench/workloads.py passes "
                                           "it positionally"},
}


@pytest.mark.parametrize("module", sorted(p.name for p in
                                          PACKAGE.glob("*.py")))
def test_module_functions_read_every_parameter(module):
    allowed = UNREAD_ALLOWED.get(module, {})
    found = {entry.split(" ")[0]: entry for entry in unread_parameters(
        (PACKAGE / module).read_text())}
    assert [entry for name, entry in found.items() if name not in allowed] \
        == []
    # an entry whose parameter is read again, or gone, leaves the list
    assert set(allowed) <= set(found)


def test_import_leaves_scipy_fft_unloaded():
    """The transforms come from scipy's pocketfft kernel alone; a stray
    top-level scipy import would bring back the 0.3 s that ``scipy.fft``
    adds to the import."""
    code = ("import sys\n"
            "import chemostokes, chemostokes.cli, chemostokes.sweep\n"
            "print(sorted(m for m in ('scipy.fft', 'scipy.special',\n"
            "                         'scipy._lib._array_api')\n"
            "             if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
