"""The traced benchmark's wrappers name package attributes that exist.

``perfbench/workloads.py`` looks every traced function up with ``getattr``
on the module through which the package calls it, so a renamed or removed
name only fails once a traced run starts.  The benchmark's files are loaded
by path and only read; no bytecode is written next to them.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_wrappers_install_and_restore(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    tracer = spans.Tracer()
    try:
        workloads.install_wrappers(tracer)
        patches = list(tracer._patches)
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
