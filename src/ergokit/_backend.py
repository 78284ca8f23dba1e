"""The package's hot kernels, in NumPy, each under a space's norm.

``mc_max_ratio`` scans Monte-Carlo sample directions for the best ratio,
``max_pair_half_l1`` the row pairs inside groups of rows for the largest
half distance, and ``max_combination_norm`` weighted sums of rows for the
largest norm, each in the ``norm_rows`` it is given (l1 on a simplex).
The ratio scan reads Z in blocks of ``_BLOCK_ROWS`` rows, the blocks in
which ``_unit_samples`` draws exponentials, signs them and normalizes the
rows onto the unit l1 sphere; a block is tall enough for the column-wise l1
row sums of ``spaces._abs_row_sums``.  The
pair scan reads the cached pair list of its groups (``_group_pairs``; k
rows in one group take k(k - 1) indices) and gathers the differences of at
most ``_PAIR_BLOCK_ENTRIES`` entries at a time, with one ``norm_rows`` call
per gather.  It takes any ``norm_rows``, but the package runs it on the
simplex only, over the types of P (one group of every state for rank-one
P, the blocks for block P); the combination scan reads the cross-type
candidates of an explicit P there, in gathers of the same bound.
``BACKEND`` is always "python".  The kernels keep a module of their own
because the benchmark tracer rebinds them by module name.
"""

from __future__ import annotations

import functools

import numpy as np

BACKEND = "python"
# Z rows per draw and ratio-scan block; bounds norm_rows' |W| copy.  A
# multiple of 64, so that a full block's signs take whole raw words
_BLOCK_ROWS = 8192
# entries of one gather of the pair scan (2 x step rows of R): 256 KB.  µs
# per scan of an n x n R at n = 46 / 60 / 100 on a 2-CPU x86 host: 2^13
# entries 191/294/1191, 2^15 126/204/779, 2^16 121/184/725, 2^17 118/196/1372;
# 2^15 keeps clear of the cliff where a gather falls out of cache
_PAIR_BLOCK_ENTRIES = 1 << 15


def mc_max_ratio(TK, K, Z, norm_rows, min_den=1e-300):
    """Best ratio norm_rows(TK z) / norm_rows(K z) over the rows z of Z.

    TK and K are (n, n); Z is (m, n) of raw sample directions.  Rows whose
    deflected image K z has norm at or below min_den are skipped: a near
    annihilated row carries the deflection's absolute float error as a large
    relative error, which can push its ratio past the true supremum.
    Returns (ratio, row_index, ratios), where ratios holds every row's ratio
    and -1.0 for each skipped row; (-1.0, -1, ratios) when every row is
    degenerate.
    """
    ratios = np.empty(len(Z))
    for s in range(0, len(Z), _BLOCK_ROWS):
        B = Z[s : s + _BLOCK_ROWS]
        num = norm_rows(B @ TK.T)
        den = norm_rows(B @ K.T)
        good = den > min_den
        ratios[s : s + len(B)] = np.where(good, num / np.where(good, den, 1.0), -1.0)
    if (ratios == -1.0).all():
        return -1.0, -1, ratios
    idx = int(np.argmax(ratios))
    return float(ratios[idx]), idx, ratios


@functools.lru_cache(maxsize=128)
def _group_pairs(groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The pairs inside each group, J in row 0 and I in row 1, read-only.

    Groups in their order, each group's pairs (g[a], g[b]), a < b, in row
    order of its own members."""
    parts = [np.zeros((2, 0), dtype=np.intp)]
    for g in groups:
        I, J = np.triu_indices(len(g), 1)
        g = np.asarray(g, dtype=np.intp)
        parts.append(np.array((g[J], g[I])))
    JI = np.concatenate(parts, axis=1)
    JI.flags.writeable = False
    return JI


def max_pair_half_l1(R, groups, norm_rows):
    """Max of half norm_rows(R_i - R_j) over the pairs (i, j) inside each group.

    ``groups`` is a tuple of tuples of row indices: one group of every row,
    ``((0, 1, ..., k - 1),)``, for a rank-one projection, its blocks for a
    block projection; a group g's pairs are (g[a], g[b]), a < b.  Returns
    (value, i, j), ties to the earlier group and within a group to its first
    pair in row order of its members; (0.0, -1, -1) when no group has two
    rows.  The pairs are read ``step`` at a time, so that one gather of
    2 x step rows of R holds at most ``_PAIR_BLOCK_ENTRIES`` entries (every
    pair of an n x n R with n <= 32 fits in one); a gather is one indexing
    call and one ``norm_rows`` call.  Halving after the max is exact, so the
    value is the float that a row-by-row scan gives.  A NaN distance ends
    the scan as NaN at its pair, as an argmax over all pairs takes it.
    """
    R = np.asarray(R)
    JI = _group_pairs(groups)
    step = max(1, _PAIR_BLOCK_ENTRIES // (2 * max(1, R.shape[1])))
    best, at = -1.0, None
    for start in range(0, JI.shape[1], step):
        cols = JI[:, start : start + step]
        X = R.take(cols, axis=0)  # X[0] holds the rows R_j, X[1] the rows R_i
        D = X[0]
        D -= X[1]
        d = norm_rows(D)
        t = d.argmax()
        v = float(d[t])
        if not v <= best:  # a tie keeps the earlier gather's pair
            best, at = v, cols[:, t]
            if v != v:  # NaN, as argmax takes it: no later pair replaces it
                break
    if at is None:
        return 0.0, -1, -1
    j, i = at.tolist()
    return 0.5 * best, i, j


def max_combination_norm(R, members, coefs, norm_rows):
    """Max of norm_rows(sum_a coefs[k, a] R[members[k, a]]) over the rows k.

    ``members`` and ``coefs`` are (N, s).  Returns (value, k), ties to the
    first row, or (-1.0, -1) for N = 0.  One gather holds at most
    ``_PAIR_BLOCK_ENTRIES`` entries of R; a NaN ends the scan at its row,
    as in ``max_pair_half_l1``.
    """
    R = np.asarray(R)
    step = max(1, _PAIR_BLOCK_ENTRIES // (members.shape[1] * max(1, R.shape[1])))
    best, at = -1.0, -1
    for start in range(0, len(members), step):
        X = R.take(members[start : start + step].T, axis=0)  # X[a] holds the rows R[members[:, a]]
        X *= coefs[start : start + step].T[:, :, None]
        d = norm_rows(X.sum(axis=0))
        t = int(d.argmax())
        v = float(d[t])
        if not v <= best:
            best, at = v, start + t
            if v != v:
                break
    return best, at
