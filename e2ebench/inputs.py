"""Seeded input generator for the end-to-end benchmark.

Every instance document is built here from the workload seed with plain
NumPy, so the program under test receives only generated JSON files (or,
for ``oracle-mc``, parsed instances) and its own generators never shape
the inputs.  Instance ``i`` of a workload draws from
``default_rng([seed, i])``: changing one entry leaves the others alone.

The shapes (dimensions, block sizes, ball types) are fixed per workload;
the seed only changes the numbers.  That keeps the work per pass close to
constant across seeds, which the run-to-run spread of the timings needs.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# chain builders (column-stochastic, columns act on states)


def smoothed_target(n: int, rng: np.random.Generator) -> np.ndarray:
    """A stationary law kept away from zero, so reversible chains mix well."""
    pi = rng.dirichlet(np.full(n, 3.0))
    return 0.8 * pi + 0.2 / n


def metropolis(pi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reversible chain for ``pi`` under a random symmetric proposal."""
    n = len(pi)
    if n == 1:
        return np.ones((1, 1))
    M = rng.uniform(0.2, 1.0, size=(n, n))
    q = 0.5 * (M + M.T)
    np.fill_diagonal(q, 0.0)
    q /= 1.05 * q.sum(axis=1).max()
    accept = np.minimum(1.0, pi[None, :] / pi[:, None])  # [i, j] = min(1, pi_j/pi_i)
    T = (q * accept).T  # T[j, i] = q[i, j] min(1, pi_j/pi_i)
    np.fill_diagonal(T, 0.0)
    T[np.diag_indices(n)] = 1.0 - T.sum(axis=0)
    return T


def stationary(A: np.ndarray) -> np.ndarray:
    """Perron vector of a positive column-stochastic matrix."""
    n = A.shape[0]
    _, _, vt = np.linalg.svd(A - np.eye(n))
    pi = vt[-1] / vt[-1].sum()
    for _ in range(3):
        pi = A @ pi
        pi = pi / pi.sum()
    return pi


def block_chain(sizes: list[int], rng: np.random.Generator):
    """Block-diagonal reversible chain with its per-block stationary anchors."""
    n = sum(sizes)
    T = np.zeros((n, n))
    blocks, anchors = [], []
    start = 0
    for size in sizes:
        idx = list(range(start, start + size))
        pi_b = smoothed_target(size, rng) if size > 1 else np.ones(1)
        T[np.ix_(idx, idx)] = metropolis(pi_b, rng)
        blocks.append(idx)
        anchors.append(pi_b)
        start += size
    return T, blocks, anchors


def block_matrix(n: int, blocks, anchors) -> np.ndarray:
    Pm = np.zeros((n, n))
    for b, a in zip(blocks, anchors):
        for j in b:
            Pm[b, j] = a
    return Pm


# ---------------------------------------------------------------------------
# instance documents (the on-disk format of ``ergokit analyze``)


def _mat(A) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(A)]


def _vec(v) -> list[float]:
    return [float(x) for x in np.asarray(v)]


def simplex_doc(T, projection: dict) -> dict:
    return {
        "space": {"type": "simplex", "dim": int(T.shape[0])},
        "operator": _mat(T),
        "projection": projection,
    }


def rank_one(y) -> dict:
    return {"type": "rank_one", "y": _vec(y)}


def block(blocks, anchors) -> dict:
    return {"type": "block", "blocks": [list(b) for b in blocks],
            "anchors": [_vec(a) for a in anchors]}


def fixtures() -> list[tuple[str, dict]]:
    """The package's four reference fixtures, written out by value."""
    return [
        ("two-state", simplex_doc(np.array([[0.7, 0.1], [0.3, 0.9]]),
                                  rank_one([0.25, 0.75]))),
        ("two-state-fast", simplex_doc(np.array([[0.6, 0.4], [0.4, 0.6]]),
                                       rank_one([0.5, 0.5]))),
        ("block-2+2", simplex_doc(
            np.array([[0.7, 0.3, 0, 0], [0.3, 0.7, 0, 0],
                      [0, 0, 0.9, 0.1], [0, 0, 0.1, 0.9]]),
            block([[0, 1], [2, 3]], [[0.5, 0.5], [0.5, 0.5]]))),
        ("embedded-half", {
            "space": {"type": "embedded", "inner_dim": 1, "inner_ball": "l1"},
            "operator": [[1.0, 0.0], [0.0, 0.5]],
            "projection": rank_one([1.0, 0.0]),
        }),
    ]


def dirichlet_doc(n: int, rng) -> dict:
    A = rng.dirichlet(np.ones(n), size=n).T
    return simplex_doc(A, rank_one(stationary(A)))


def metropolis_doc(n: int, rng) -> dict:
    pi = smoothed_target(n, rng)
    return simplex_doc(metropolis(pi, rng), rank_one(pi))


def block_doc(sizes: list[int], rng, as_matrix: bool = False) -> dict:
    T, blocks, anchors = block_chain(sizes, rng)
    if as_matrix:
        proj = {"type": "matrix", "entries": _mat(block_matrix(T.shape[0], blocks, anchors))}
    else:
        proj = block(blocks, anchors)
    return simplex_doc(T, proj)


def embedded_doc(m: int, ball: str, rng) -> dict:
    """T = diag(1, A) on R + R^m with A a strict contraction of the inner ball.

    The induced norm of A is its largest row l1 sum on the linf ball and its
    largest column l1 sum on the l1 ball; scaling it to 0.9 keeps the image
    of the base inside the base and makes the chain uniformly ergodic.
    """
    A = rng.uniform(-1.0, 1.0, size=(m, m))
    axis = 1 if ball == "linf" else 0
    A *= 0.9 / np.abs(A).sum(axis=axis).max()
    T = np.zeros((m + 1, m + 1))
    T[0, 0] = 1.0
    T[1:, 1:] = A
    y = np.zeros(m + 1)
    y[0] = 1.0
    return {
        "space": {"type": "embedded", "inner_dim": m, "inner_ball": ball},
        "operator": _mat(T),
        "projection": rank_one(y),
    }


# ---------------------------------------------------------------------------
# workload mixes


def analyze_mix(seed: int) -> list[tuple[str, dict]]:
    """Every exact-path layer plus both edges of the exact route.

    A class with ``count`` draws contributes instances ``<class>.0`` to
    ``<class>.<count-1>``, and the classes are interleaved, so that each
    class's ops are spread over a pass.  Averaging over several draws keeps
    a class's time close to constant across seeds.  The counts put 14
    instances below the eight Dirichlet n = 30 draws and 14 above them, so
    the median op falls inside that class, which varies least with the seed.
    """
    # the four one-draw classes sit three apart, so they are spread evenly
    # over a pass, apart from each other
    specs = [
        ("dirichlet-100", 1, lambda r: dirichlet_doc(100, r)),
        ("dirichlet-10", 2, lambda r: dirichlet_doc(10, r)),
        ("dirichlet-30", 8, lambda r: dirichlet_doc(30, r)),
        # past the enumeration cap of 12 states
        ("matrix-block-13", 1, lambda r: block_doc([6, 7], r, as_matrix=True)),
        ("block-4+4+4", 2, lambda r: block_doc([4, 4, 4], r)),
        ("block-10+10+10", 2, lambda r: block_doc([10, 10, 10], r)),
        ("linf-10", 1, lambda r: embedded_doc(10, "linf", r)),
        # under the enumeration cap
        ("matrix-block-10", 5, lambda r: block_doc([5, 5], r, as_matrix=True)),
        ("linf-6", 2, lambda r: embedded_doc(6, "linf", r)),
        ("linf-12", 1, lambda r: embedded_doc(12, "linf", r)),
        ("linf-8", 5, lambda r: embedded_doc(8, "linf", r)),
        ("l1-20", 2, lambda r: embedded_doc(20, "l1", r)),
    ]
    slots = []
    for i, (name, count, make) in enumerate(specs):
        for k in range(count):
            doc = make(np.random.default_rng([seed, i, k]))
            slots.append(((k + (i + 0.5) / len(specs)) / count, i, f"{name}.{k}", doc))
    slots.sort(key=lambda t: t[:2])
    return fixtures() + [(label, doc) for _, _, label, doc in slots]


def oracle_mc(seed: int, dims=range(2, 11), per_dim: int = 24) -> list[tuple[str, dict]]:
    """The A01 oracle loop widened to dims 2..10, cycling three chain kinds."""
    out = []
    for d in dims:
        for c in range(per_dim):
            rng = np.random.default_rng([seed, d, c])
            kind = c % 3
            if kind == 0:
                out.append((f"metropolis-{d}-{c}", metropolis_doc(d, rng)))
            elif kind == 1:
                out.append((f"block-{d}-{c}", block_doc(_block_sizes(d, rng), rng)))
            else:
                out.append((f"dirichlet-{d}-{c}", dirichlet_doc(d, rng)))
    return out


def _block_sizes(n: int, rng) -> list[int]:
    """Two or three contiguous blocks, at least one of them with two states
    (all singletons would make P the identity, whose kernel is empty)."""
    if n == 2:
        return [2]
    while True:
        k = int(rng.integers(2, min(n, 3) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if max(sizes) > 1:
            return sizes
