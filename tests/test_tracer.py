"""The benchmark's span tracer still finds every name it wraps.

``e2ebench/tracer.py`` rebinds package functions by name; a refactor that
drops or renames one makes ``install`` fail.  This runs install and
uninstall once, so that failure shows up here rather than in a traced
benchmark run.  A reader that ``analyze`` or ``verify`` reaches only
through an unwrapped helper records no span, which the second test catches.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ergokit.cli  # noqa: F401  (install wraps the cli module too)

TRACER = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def _package_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "ergokit" or name.startswith("ergokit.")
        for attr, value in vars(mod).items()
    }


@pytest.fixture
def tracer_mod(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_binding(tracer_mod):
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


TWO_STATE = {
    "space": {"type": "simplex", "dim": 2},
    "operator": [[0.7, 0.1], [0.3, 0.9]],
    "projection": {"type": "rank_one", "y": [0.25, 0.75]},
}


def test_verify_and_analyze_reach_the_traced_readers(tracer_mod, tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_STATE))
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        codes = [
            ergokit.cli.main(["verify", "--format", "structured"]),
            ergokit.cli.main(["analyze", "--format", "structured", str(path)]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    spans = {span[0] for span in tracer.spans}
    readers = {
        "spectral.tensor_rate_bound",
        "spectral.gelfand_trail",
        "spectral.rate_profile",
        "spectral.best_rate",
        "spectral.spectrum_shift_check",
        "coefficients.coefficient_inequalities",
        "coefficients.eigenvalue_bound_check",
    }
    assert readers - spans == set()


def test_embedded_lower_bound_records_one_ratio_scan(tracer_mod):
    # the sampling kernel reads the space's norm, so an embedded space takes
    # the same traced scan as a simplex, once per bound
    from ergokit import coefficients, corpus

    inst = corpus.embedded_fixture()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        coefficients.coefficient_lower_bound(inst.T, inst.P, samples=700, seed=3)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("backend.mc_max_ratio") == 1
    assert tracer.counts["backend.mc_max_ratio.samples"] == 700


def test_block_projection_records_one_pair_scan(tracer_mod):
    # block P takes the same traced pair scan as rank-one P, once per call
    import numpy as np

    from ergokit import as_markov, block_projection, ergodicity_coefficient, make_simplex

    s = make_simplex(5)
    T = as_markov(np.random.default_rng(4).dirichlet(np.ones(5), size=5).T, s)
    P = block_projection(s, [[0, 1, 2], [3, 4]])
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        result = ergodicity_coefficient(T, P)
    finally:
        tracer.uninstall()
    assert result.method == "pair-formula"
    names = [span[0] for span in tracer.spans]
    assert names.count("backend.max_pair_half_l1") == 1
