"""The benchmark's span tracer still finds every name it wraps.

``e2ebench/tracer.py`` rebinds package functions by name; a refactor that
drops or renames one makes ``install`` fail.  This runs install and
uninstall once, so that failure shows up here rather than in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import ergokit.cli  # noqa: F401  (install wraps the cli module too)

TRACER = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def _package_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "ergokit" or name.startswith("ergokit.")
        for attr, value in vars(mod).items()
    }


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)
    spec.loader.exec_module(tracer_mod)
    before = _package_bindings()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        wrapped = _package_bindings()
        for mod, attr, _ in tracer_mod.TRACED:
            key = (f"ergokit.{mod}", attr)
            assert wrapped[key] is not before[key], key
        assert wrapped[("ergokit.verification", "CHECKS")] is not before[
            ("ergokit.verification", "CHECKS")
        ]
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
