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
    best, idx, ratios = _backend.mc_max_ratio(K, K, Z, make_simplex(3).norm_rows)
    assert (best, idx) == (-1.0, -1)
    assert (ratios == -1.0).all()


def test_mc_max_ratio_min_den_skips_small_rows():
    # a nearly annihilated row would win on ratio; min_den must drop it
    TK = np.array([[2.0, 0.0], [0.0, 1.0]])
    K = np.eye(2)
    Z = np.array([[1e-6, 0.0], [0.0, 1.0]])
    l1 = make_simplex(2).norm_rows
    assert _backend.mc_max_ratio(TK, K, Z, l1)[:2] == (2.0, 0)
    best, idx, ratios = _backend.mc_max_ratio(TK, K, Z, l1, 1e-4)
    assert (best, idx) == (1.0, 1)
    assert ratios.tolist() == [-1.0, 1.0]
    assert _backend.mc_max_ratio(TK, K, Z, l1, 10.0)[:2] == (-1.0, -1)


@pytest.mark.parametrize("n,m", [(2, 100), (5, 1000), (9, 500)])
def test_mc_ratios_match_two_pass_reference(n, m, rng):
    # the ratios the kernel returns, and the polish starts ranked from them,
    # equal bit for bit the second pass the caller used to make after it
    T = rng.dirichlet(np.ones(n), size=n).T
    Z = rng.standard_normal((m, n))
    Z /= np.abs(Z).sum(axis=1)[:, None]
    D = np.eye(n) - coefficients._ker_f_projection(make_simplex(n)).matrix
    TD = T @ D
    floor = coefficients.MC_DEN_FLOOR
    best, idx, ratios = _backend.mc_max_ratio(TD, D, Z, make_simplex(n).norm_rows, floor)

    den = np.abs(Z @ D.T).sum(axis=1)
    num = np.abs(Z @ TD.T).sum(axis=1)
    reference = np.where(den > floor, num / np.maximum(den, floor), -1.0)
    assert ratios.tobytes() == reference.tobytes()
    assert (best, idx) == (float(reference.max()), int(np.argmax(reference)))
    starts = np.argsort(ratios)[::-1][:4]
    assert starts.tolist() == np.argsort(reference)[::-1][:4].tolist()


def _two_pass(TK, K, Z, norm_rows, floor):
    num = norm_rows(Z @ TK.T)
    den = norm_rows(Z @ K.T)
    return np.where(den > floor, num / np.maximum(den, floor), -1.0)


@pytest.mark.parametrize("m,ball", [(1, "l1"), (3, "l1"), (2, "linf"), (5, "linf")])
def test_mc_ratios_on_an_embedded_space_match_two_pass_reference(m, ball, rng):
    # the one scan reads the embedded norm max(|alpha|, ||x||_inner), and
    # equals the scan coefficient_lower_bound used to write out for it
    space = make_embedded(m, ball)
    n = space.dim
    T = rng.standard_normal((n, n))
    Z = rng.standard_normal((700, n))
    Z /= np.abs(Z).sum(axis=1)[:, None]
    D = np.eye(n) - coefficients._ker_f_projection(space).matrix
    floor = coefficients.MC_DEN_FLOOR
    best, idx, ratios = _backend.mc_max_ratio(T @ D, D, Z, space.norm_rows, floor)

    reference = _two_pass(T @ D, D, Z, space.norm_rows, floor)
    assert ratios.tobytes() == reference.tobytes()
    assert (best, idx) == (float(reference.max()), int(np.argmax(reference)))
    l1 = _two_pass(T @ D, D, Z, make_simplex(n).norm_rows, floor)
    assert ratios.tobytes() != l1.tobytes()


BLOCK = _backend._BLOCK_ROWS


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_mc_ratio_blocks_cover_every_row(rows, rng):
    # small integer data keeps every product exact, so the blocked scan and a
    # whole-array pass agree bit for bit whatever the BLAS; zero rows are
    # degenerate and sit on each side of every block boundary
    TK = rng.integers(-3, 4, (3, 3)).astype(float)
    K = np.eye(3)
    Z = rng.integers(-2, 3, (rows, 3)).astype(float)
    Z[:, 0] = 0.0
    edges = [e for e in (0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK) if e < rows - 1]
    Z[edges] = 0.0
    Z[rows - 1] = (1.0, 0.0, 0.0)
    TK[:, 0] = 100.0  # the last row has the one largest ratio
    norm_rows = make_simplex(3).norm_rows
    best, idx, ratios = _backend.mc_max_ratio(TK, K, Z, norm_rows, 0.5)

    reference = _two_pass(TK, K, Z, norm_rows, 0.5)
    assert ratios.shape == (rows,)
    assert ratios.tobytes() == reference.tobytes()
    assert (ratios[edges] == -1.0).all()
    assert (best, idx) == (300.0, rows - 1)


def test_max_pair_half_l1_single_row():
    norm_rows = make_simplex(4).norm_rows
    assert _backend.max_pair_half_l1(np.ones((1, 4)), norm_rows) == (0.0, -1, -1)


def test_max_pair_half_l1_reads_the_given_norm():
    # (1, 1, 1) - (1, -1, -1) = (0, 2, 2): half of it has norm 1 under the
    # embedded linf norm max(|alpha|, max|x|), and 2 under l1
    R = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
    assert _backend.max_pair_half_l1(R, make_embedded(2, "linf").norm_rows) == (1.0, 0, 1)
    assert _backend.max_pair_half_l1(R, make_simplex(3).norm_rows) == (2.0, 0, 1)

