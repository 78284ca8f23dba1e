"""The compiled kernels and the numpy fallback must be interchangeable."""

import os

import numpy as np
import pytest

from ergokit import BACKEND
from ergokit import _kernels_py

compiled = pytest.importorskip(
    "ergokit._kernels", reason="compiled extension not built"
)


@pytest.mark.skipif(
    bool(os.environ.get("ERGOKIT_PURE")), reason="fallback forced via environment"
)
def test_backend_reports_compiled_when_extension_present():
    assert BACKEND == "compiled"


@pytest.mark.parametrize("n,m", [(2, 100), (5, 1000), (9, 500)])
def test_mc_max_ratio_agrees(n, m, rng):
    T = rng.dirichlet(np.ones(n), size=n).T
    P = np.full((n, n), 1.0 / n)
    K = np.eye(n) - P
    Z = rng.standard_normal((m, n))
    args = (np.ascontiguousarray(T @ K), np.ascontiguousarray(K), Z)
    rp, ip = _kernels_py.mc_max_ratio(*args)
    rc, ic = compiled.mc_max_ratio(*args)
    assert ip == ic
    assert rp == pytest.approx(rc, abs=1e-12)


def test_mc_max_ratio_all_degenerate():
    # every direction lands in the kernel's kernel: both backends must
    # signal it with the (-1.0, -1) sentinel instead of dividing by zero
    Z = np.zeros((4, 3))
    K = np.eye(3)
    assert _kernels_py.mc_max_ratio(K, K, Z) == (-1.0, -1)
    assert compiled.mc_max_ratio(K, K, Z) == (-1.0, -1)


def test_mc_max_ratio_min_den_skips_small_rows():
    # a nearly annihilated row would win on ratio; min_den must drop it
    TK = np.array([[2.0, 0.0], [0.0, 1.0]])
    K = np.eye(2)
    Z = np.array([[1e-6, 0.0], [0.0, 1.0]])
    for fn in (_kernels_py.mc_max_ratio, compiled.mc_max_ratio):
        assert fn(TK, K, Z) == (2.0, 0)
        assert fn(TK, K, Z, 1e-4) == (1.0, 1)
        assert fn(TK, K, Z, 10.0) == (-1.0, -1)


@pytest.mark.parametrize("k,n", [(2, 3), (7, 4), (40, 6)])
def test_max_pair_half_l1_agrees(k, n, rng):
    R = rng.standard_normal((k, n))
    vp, ip, jp = _kernels_py.max_pair_half_l1(R)
    vc, ic, jc = compiled.max_pair_half_l1(np.ascontiguousarray(R))
    assert (ip, jp) == (ic, jc)
    assert vp == pytest.approx(vc, abs=1e-12)


def test_max_pair_half_l1_single_row():
    R = np.ones((1, 4))
    assert _kernels_py.max_pair_half_l1(R) == (0.0, -1, -1)
    assert compiled.max_pair_half_l1(R) == (0.0, -1, -1)


def test_pure_env_flag_selects_python(tmp_path):
    # a fresh interpreter honours ERGOKIT_PURE=1 even with the extension built;
    # it gets the directory this ergokit was imported from, so the test holds
    # for a source checkout on PYTHONPATH as well as for an installed package
    import subprocess
    import sys

    import ergokit

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ergokit.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "from ergokit import BACKEND; print(BACKEND)"],
        env={"ERGOKIT_PURE": "1", "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "python"
