"""Contracts of the NumPy kernels in ergokit._backend."""

import numpy as np
import pytest

from ergokit import BACKEND, _backend, coefficients, make_embedded, make_simplex
from ergokit._backend import _group_pairs


def _all_states(k):
    """The one group of every row, the type of a rank-one P on k states."""
    return (tuple(range(k)),)


def _all_pairs(k):
    """The pair list of ``_all_states(k)``, as the pair scan reads it."""
    return _group_pairs(_all_states(k))


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


@pytest.mark.parametrize(
    "n,m", [(2, 100), (5, 1000), (9, 500), (3, 20_000), (7, 20_000), (10, 20_000), (13, 9000)]
)
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
    assert _backend.max_pair_half_l1(np.ones((1, 4)), _all_pairs(1), norm_rows) == (0.0, -1, -1)


def test_max_pair_half_l1_reads_the_given_norm():
    # (1, 1, 1) - (1, -1, -1) = (0, 2, 2): half of it has norm 1 under the
    # embedded linf norm max(|alpha|, max|x|), and 2 under l1
    R = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
    assert _backend.max_pair_half_l1(R, _all_pairs(2), make_embedded(2, "linf").norm_rows) == (1.0, 0, 1)
    assert _backend.max_pair_half_l1(R, _all_pairs(2), make_simplex(3).norm_rows) == (2.0, 0, 1)


def _row_by_row_pairs(R, norm_rows):
    # the reference: one norm_rows call per row i over the rows j > i
    best, bi, bj = -1.0, -1, -1
    for i in range(len(R) - 1):
        d = 0.5 * norm_rows(R[i + 1 :] - R[i])
        j = int(np.argmax(d))
        if d[j] > best:
            best, bi, bj = float(d[j]), i, i + 1 + j
    return (best, bi, bj) if bi >= 0 else (0.0, -1, -1)


@pytest.mark.parametrize("k, cols", [(2, 2), (7, 7), (33, 33), (60, 60), (100, 100), (64, 7), (300, 3)])
def test_pair_scan_equals_the_row_by_row_scan(k, cols, rng):
    # same value bit for bit and the same pair, on the simplex and under the
    # embedded linf norm, in one gather and in many
    R = rng.standard_normal((k, cols)) * 10.0 ** rng.uniform(-8, 8, (k, cols))
    spaces = [make_simplex(cols)] + ([make_embedded(cols - 1, "linf")] if cols <= 13 else [])
    for s in spaces:
        want = _row_by_row_pairs(R, s.norm_rows)
        got = _backend.max_pair_half_l1(R, _all_pairs(k), s.norm_rows)
        assert got[1:] == want[1:] and got[0].hex() == want[0].hex(), (k, cols, s)


@pytest.mark.parametrize("k", [2, 3, 7, 45, 46, 60, 100])
@pytest.mark.parametrize("cols", [1, 60])
def test_pair_blocks_are_the_upper_triangle_in_row_order(k, cols):
    # the one group's pairs, read in the scan's gathers of 2 x step rows of
    # a k x cols R and laid end to end, are np.triu_indices(k, 1), read-only
    JI = _group_pairs(_all_states(k))
    assert not JI.flags.writeable
    step = _backend._PAIR_BLOCK_ENTRIES // (2 * cols)
    blocks = [JI[:, s : s + step] for s in range(0, JI.shape[1], step)]
    I, J = np.triu_indices(k, 1)
    assert np.array_equal(np.concatenate(blocks, axis=1), [J, I])


def _pair_scan_case():
    # k = 60 rows of 60 columns: 1770 pairs over several gathers.  Every row
    # is 0 but in column 0, so the distance of a pair is |x_i - x_j|.
    k = 60
    step = _backend._PAIR_BLOCK_ENTRIES // (2 * k)
    I, J = np.triu_indices(k, 1)
    assert len(I) > 2 * step
    last = np.flatnonzero(J == k - 1)  # the position of (i, k - 1), per row i
    u = int(np.flatnonzero(last < step)[-1])
    assert last[u + 1] >= step  # (u, k - 1) ends the first gather, (u + 1, k - 1) does not
    return k, u, np.zeros((k, k))


def test_pair_scan_tie_across_a_block_boundary_goes_to_the_first_pair():
    # x = 1 at row k - 1 and -1 at rows u and u + 1: the two largest pairs,
    # (u, k - 1) and (u + 1, k - 1), lie on both sides of a gather boundary
    k, u, R = _pair_scan_case()
    R[k - 1, 0] = 1.0
    R[[u, u + 1], 0] = -1.0
    l1 = make_simplex(k).norm_rows
    assert _backend.max_pair_half_l1(R, _all_pairs(k), l1) == (1.0, u, k - 1)
    assert _backend.max_pair_half_l1(R[::-1].copy(), _all_pairs(k), l1) == (1.0, 0, k - 1 - u - 1)


def test_pair_scan_finds_a_maximum_in_the_last_block():
    # x = -1 at row k - 2 and 1 at row k - 1: the largest pair is the last one
    k, _, R = _pair_scan_case()
    R[k - 2, 0], R[k - 1, 0] = -1.0, 1.0
    R[0, 0] = 0.25  # earlier pairs reach 1.25, not 2
    assert _backend.max_pair_half_l1(R, _all_pairs(k), make_simplex(k).norm_rows) == (1.0, k - 2, k - 1)


def _group_scan_reference(R, groups, norm_rows):
    # one row-by-row scan per group, ties to the earlier group
    best = (0.0, -1, -1)
    for g in groups:
        v, i, j = _row_by_row_pairs(R[list(g)], norm_rows)
        if i >= 0 and (best[1] < 0 or v > best[0]):
            best = (v, g[i], g[j])
    return best


@pytest.mark.parametrize(
    "groups",
    [((0, 3, 5), (1, 2), (4,), tuple(range(6, 13))), ((12, 0, 7), (3,), (1, 2, 4, 5, 6, 8, 9, 10, 11))],
    ids=["in order", "permuted"],
)
def test_group_scan_is_a_scan_per_group(groups, rng):
    R = rng.standard_normal((13, 13))
    l1 = make_simplex(13).norm_rows
    want = _group_scan_reference(R, groups, l1)
    assert _backend.max_pair_half_l1(R, _group_pairs(groups), l1) == want


def test_group_scan_ties_go_to_the_earlier_group_across_blocks():
    # two groups of 30 rows of 60 columns: 870 pairs, several gathers; each
    # group's largest pair is its last one, equal in both groups
    k = 60
    assert 2 * 435 > 2 * (_backend._PAIR_BLOCK_ENTRIES // (2 * k))
    groups = (tuple(range(30)), tuple(range(30, 60)))
    R = np.zeros((k, k))
    R[[28, 58], 0], R[[29, 59], 0] = -1.0, 1.0
    l1 = make_simplex(k).norm_rows
    assert _backend.max_pair_half_l1(R, _group_pairs(groups), l1) == (1.0, 28, 29)
    assert _backend.max_pair_half_l1(R, _group_pairs(groups[::-1]), l1) == (1.0, 58, 59)
    R[59, 0] = 1.5  # the larger pair now lies in the last gather
    assert _backend.max_pair_half_l1(R, _group_pairs(groups), l1) == (1.25, 58, 59)


def test_group_scan_without_pairs():
    l1 = make_simplex(3).norm_rows
    singletons = _group_pairs(((0,), (1,), (2,)))
    assert _backend.max_pair_half_l1(np.eye(3), singletons, l1) == (0.0, -1, -1)


def test_pair_scan_keeps_a_nan_distance():
    # a NaN distance comes out as NaN at its pair, as an argmax over all pairs
    # gives it, never as a smaller finite value or as "no pair"
    R = np.zeros((60, 60))
    R[40, 3] = np.nan
    R[0, 0] = 5.0
    l1 = make_simplex(60).norm_rows
    value, i, j = _backend.max_pair_half_l1(R, _all_pairs(60), l1)
    assert np.isnan(value) and (i, j) == (0, 40)
    halves = _group_pairs((tuple(range(30)), tuple(range(30, 60))))
    value, i, j = _backend.max_pair_half_l1(R, halves, l1)
    assert np.isnan(value) and (i, j) == (30, 40)
