"""The names `bench/traced.py` wraps still exist in orbichern.

The tracer looks its functions and `GradedClass` methods up by name when a
traced benchmark run starts; a deleted or renamed one fails only there, so
this reads its lists (without running anything) and resolves each name.
"""

import importlib
from pathlib import Path

from orbichern.ring import GradedClass

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def test_traced_functions_and_methods_resolve():
    traced = {"__name__": "traced"}  # definitions only: main() is not run
    exec(compile(TRACED.read_text(), str(TRACED), "exec"), traced)
    functions, methods = traced["FUNCTIONS"], traced["METHODS"]
    missing = [(module, attr) for module, attr, _, _ in functions
               if not callable(getattr(importlib.import_module(
                   "orbichern." + module), attr, None))]
    missing += [name for name in methods
                if not callable(getattr(GradedClass, name, None))]
    assert functions and methods and missing == []
