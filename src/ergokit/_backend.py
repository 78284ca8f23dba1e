"""The package's two hot kernels, in NumPy.

``mc_max_ratio`` scans Monte-Carlo sample directions for the best l1
ratio, and ``max_pair_half_l1`` the largest half distance between rows
under a space's ``norm_rows`` (l1 on a simplex).  ``BACKEND`` names the
implementation; it is always "python".
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def mc_max_ratio(TK, K, Z, min_den=1e-300):
    """Best l1 ratio ||TK z||_1 / ||K z||_1 over the rows z of Z.

    TK and K are (n, n); Z is (m, n) of raw sample directions.  Rows whose
    deflected image K z has l1 norm at or below min_den are skipped: a near
    annihilated row carries the deflection's absolute float error as a large
    relative error, which can push its ratio past the true supremum.
    Returns (ratio, row_index, ratios), where ratios holds every row's ratio
    and -1.0 for each skipped row; (-1.0, -1, ratios) when every row is
    degenerate.
    """
    # the (m, n) images are the largest arrays here; both pass through one
    # buffer, so at most one is alive beside Z
    buf = Z @ TK.T
    num = np.abs(buf, out=buf).sum(axis=1)
    np.matmul(Z, K.T, out=buf)
    den = np.abs(buf, out=buf).sum(axis=1)
    good = den > min_den
    ratios = np.where(good, num / np.where(good, den, 1.0), -1.0)
    if not good.any():
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
