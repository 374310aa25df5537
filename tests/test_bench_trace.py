"""`bench/run.py --trace 1` wraps package functions by module and name; every
one of those names must exist, and uninstalling must restore the originals."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_installs_every_wrapper(monkeypatch):
    run, recorder = _load("run", monkeypatch), _load("recorder", monkeypatch)
    rec = recorder.Recorder()
    try:
        run.install_tracing(rec)
        installed = list(rec._installed)
        assert len(installed) == 28
        for module, attr, original in installed:
            assert getattr(module, attr).__wrapped__ is original
    finally:
        rec.uninstall()
    for module, attr, original in installed:
        assert getattr(module, attr) is original
