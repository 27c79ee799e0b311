"""The names the benchmark's tracer patches still exist in the package.

perfbench/tracer.py wraps each function where its caller looks the name
up (``solver.full_faces``, ``spectral.dctn``, ...).  A rename or deletion
in the package would only surface when a traced benchmark run installs
the tracer; this test surfaces it in the test suite instead.  The tracer
is loaded by path (it imports only the standard library) and is never
installed.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracer = _load_tracer()
    missing = []
    for target, attr, span in tracer.PATCHES:
        owner = tracer._resolve(target)
        # install() reads a class attribute from the class __dict__
        names = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if not callable(names.get(attr)):
            missing.append(f"chemostokes.{target}.{attr} ({span})")
    if not callable(getattr(tracer._resolve("sweep"), "run_one", None)):
        missing.append("chemostokes.sweep.run_one")
    assert not missing, missing
