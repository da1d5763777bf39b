"""The repository benchmark's tracer still finds every entry point it wraps.

``perfbench/spans.py`` times each layer by swapping functions for
wrappers, and it reads each original as ``owner.__dict__[name]``. A
method that moves off the class that defines it today (inherited instead
of defined, renamed, deleted) would make every traced benchmark run fail
at install with a ``KeyError``; the benchmark's own self-tests are not
part of this suite. So this test installs the tracer, undoes it, and
checks that every entry the install replaced holds its original again.
It only reads ``perfbench/``.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _namespaces() -> dict:
    """Every loaded ``repro`` module and the classes it defines, by name."""
    spaces = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        spaces[name] = module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                spaces[f"{name}.{value.__qualname__}"] = value
    return spaces


def _entries() -> dict:
    return {
        (space_name, key): value
        for space_name, space in _namespaces().items()
        for key, value in list(vars(space).items())
    }


def test_tracer_installs_and_undoes_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    importlib.import_module("checks")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    spans.install(tracer)()  # loads every module the tracer wraps
    before = _entries()

    undo = spans.install(tracer)
    during = _entries()
    patched = [key for key, value in before.items() if during[key] is not value]
    undo()
    after = _entries()

    assert ("repro.rdbms.uda.MultiSGDUDA", "transition_batch") in patched
    assert [key for key in patched if after[key] is not before[key]] == []
