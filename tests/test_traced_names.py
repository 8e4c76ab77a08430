"""`bench/traced.py` still runs on orbichern.

The tracer looks its functions and `GradedClass` methods up by name when a
traced benchmark run starts, and finds the modules that bind them in
`sys.modules`; a deleted or renamed name, or a module the package no longer
imports up front, fails only there.  So one test reads its lists (without
running anything) and resolves each name, and one runs it on a command.
"""

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from orbichern.cli import run
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


def test_traced_run_matches_untraced_run(tmp_path):
    argv = ["minmult", "--d", "12"]
    trace = tmp_path / "trace.bin"
    env = dict(os.environ, PYTHONPATH=str(TRACED.parents[1] / "src"))
    result = subprocess.run([sys.executable, str(TRACED), str(trace)] + argv,
                            env=env, capture_output=True, text=True, timeout=60)
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert (result.returncode, result.stdout, result.stderr) == (
        0, out.getvalue(), "")
    with open(trace, "rb") as fh:
        header = json.loads(fh.readline())
    assert "cli.run" in header["names"] and header["spans"] > 0
