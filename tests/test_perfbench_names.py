"""The benchmark's tracer and worker name qopuc functions by string.

A rename or deletion would surface only as a KeyError in a traced run
(``perfbench/run.py --trace 1``), so the names are checked here.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracer = _tracer()
    names = {name for entries, _ in tracer.SCOPES.values() for name in entries}
    names |= set(tracer.INCLUSIVE)
    worker = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    names |= set(re.findall(r'calls\["([\w.]+)"\]', worker))
    for args in re.findall(r'per_job\("[\w-]+", ([^)]*)\)', worker):
        names |= set(re.findall(r'"([\w.]+)"', args))
    return tracer, names


def test_traced_function_names_exist():
    tracer, names = _traced_names()
    assert "matrix_opuc.schur_step" in names
    methods = {f"{layer}.{cls}.{meth}" for layer, cls, meth in tracer.METHODS}
    for name in sorted(names):
        layer, *path = name.split(".")
        assert layer in tracer.LAYERS, name
        obj = importlib.import_module(f"qopuc.{layer}")
        for attr in path:
            assert hasattr(obj, attr), f"{name} no longer exists"
            obj = getattr(obj, attr)
        if name in methods:
            assert callable(obj), name
        else:
            # the tracer wraps public functions defined in their own layer only
            assert inspect.isfunction(obj) and obj.__module__ == f"qopuc.{layer}", name
