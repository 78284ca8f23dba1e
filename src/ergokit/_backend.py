"""The package's two hot kernels, in NumPy, both under a space's norm.

``mc_max_ratio`` scans Monte-Carlo sample directions for the best ratio
and ``max_pair_half_l1`` rows for the largest half distance, each in the
``norm_rows`` it is given (l1 on a simplex).  The ratio scan reads Z in
blocks of ``_BLOCK_ROWS`` rows, the blocks in which ``_unit_samples`` draws
and normalizes it; a block is tall enough for the column-wise l1 row sums of
``spaces._abs_row_sums``.  ``BACKEND`` is always "python".  The kernels
keep a module of their own because the benchmark tracer rebinds them by
module name.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"
_BLOCK_ROWS = 8192  # Z rows per draw and ratio-scan block; bounds norm_rows' |W| copy


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


def max_pair_half_l1(R, norm_rows):
    """Max over row pairs i < j of half the distance norm_rows(R_i - R_j) / 2.

    Returns (value, i, j), ties to the first (i, j) in row order; (0.0, -1, -1)
    when R has fewer than two rows.
    """
    R = np.asarray(R)
    k = R.shape[0]
    if k < 2:
        return 0.0, -1, -1
    best, bi, bj = -1.0, -1, -1
    for i in range(k - 1):
        d = 0.5 * norm_rows(R[i + 1 :] - R[i])
        j = int(np.argmax(d))
        if d[j] > best:
            best, bi, bj = float(d[j]), i, i + 1 + j
    return best, bi, bj
