"""Contracts of the two NumPy kernels in ergokit._backend."""

import numpy as np
import pytest

from ergokit import BACKEND, _backend, coefficients, make_embedded, make_simplex


def test_backend_is_numpy():
    assert BACKEND == "python"


def test_mc_max_ratio_all_degenerate():
    # every direction lands in the kernel's kernel: the kernel must signal
    # it with the (-1.0, -1) sentinel instead of dividing by zero
    Z = np.zeros((4, 3))
    K = np.eye(3)
    best, idx, ratios = _backend.mc_max_ratio(K, K, Z)
    assert (best, idx) == (-1.0, -1)
    assert (ratios == -1.0).all()


def test_mc_max_ratio_min_den_skips_small_rows():
    # a nearly annihilated row would win on ratio; min_den must drop it
    TK = np.array([[2.0, 0.0], [0.0, 1.0]])
    K = np.eye(2)
    Z = np.array([[1e-6, 0.0], [0.0, 1.0]])
    assert _backend.mc_max_ratio(TK, K, Z)[:2] == (2.0, 0)
    best, idx, ratios = _backend.mc_max_ratio(TK, K, Z, 1e-4)
    assert (best, idx) == (1.0, 1)
    assert ratios.tolist() == [-1.0, 1.0]
    assert _backend.mc_max_ratio(TK, K, Z, 10.0)[:2] == (-1.0, -1)


@pytest.mark.parametrize("n,m", [(2, 100), (5, 1000), (9, 500)])
def test_mc_ratios_match_two_pass_reference(n, m, rng):
    # the ratios the kernel returns, and the polish starts ranked from them,
    # equal bit for bit the second pass the caller used to make after it
    T = rng.dirichlet(np.ones(n), size=n).T
    Z = rng.standard_normal((m, n))
    Z /= np.abs(Z).sum(axis=1)[:, None]
    D = coefficients._deflector(None, make_simplex(n))
    TD = T @ D
    floor = coefficients.MC_DEN_FLOOR
    best, idx, ratios = _backend.mc_max_ratio(TD, D, Z, floor)

    den = np.abs(Z @ D.T).sum(axis=1)
    num = np.abs(Z @ TD.T).sum(axis=1)
    reference = np.where(den > floor, num / np.maximum(den, floor), -1.0)
    assert ratios.tobytes() == reference.tobytes()
    assert (best, idx) == (float(reference.max()), int(np.argmax(reference)))
    starts = np.argsort(ratios)[::-1][:4]
    assert starts.tolist() == np.argsort(reference)[::-1][:4].tolist()


def test_max_pair_half_l1_single_row():
    norm_rows = make_simplex(4).norm_rows
    assert _backend.max_pair_half_l1(np.ones((1, 4)), norm_rows) == (0.0, -1, -1)


def test_max_pair_half_l1_reads_the_given_norm():
    # (1, 1, 1) - (1, -1, -1) = (0, 2, 2): half of it has norm 1 under the
    # embedded linf norm max(|alpha|, max|x|), and 2 under l1
    R = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
    assert _backend.max_pair_half_l1(R, make_embedded(2, "linf").norm_rows) == (1.0, 0, 1)
    assert _backend.max_pair_half_l1(R, make_simplex(3).norm_rows) == (2.0, 0, 1)

