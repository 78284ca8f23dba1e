"""Random and fixed test instances with commutation guaranteed by construction.

The verification suite needs (T, P) pairs with TP = PT = P.  Rejection
sampling is wasteful, so the generators build the property in: Metropolis
chains are reversible for their target, hence fix the rank-one projection
onto it; block instances use block-diagonal dynamics with per-block
stationary anchors; negative instances (permutations, reducible chains)
also commute with their projections but have residual spectral radius 1.

The fixed instances at the bottom are the reference points used across
the test suite; their exact values are hand-derivable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    MarkovOperator,
    MarkovProjection,
    as_markov,
    block_projection,
    rank_one_projection,
)
from .spaces import make_embedded, make_simplex


@dataclass(frozen=True, eq=False)
class Instance:
    """One corpus entry: an operator, its projection, an optional second
    operator sharing the projection (for two-operator property checks),
    and the generator's promise about uniform ergodicity."""

    label: str
    T: MarkovOperator
    P: MarkovProjection
    S: MarkovOperator | None = None
    expect_uniform: bool = True


def smoothed_target(n: int, rng: np.random.Generator) -> np.ndarray:
    # mix toward uniform: keeps min(pi) bounded away from 0, which keeps the
    # similarity constants of reversible chains moderate
    pi = rng.dirichlet(np.full(n, 3.0))
    return 0.8 * pi + 0.2 / n


def metropolis_matrix(pi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reversible column-stochastic chain with stationary distribution pi.

    Metropolis rule under a random symmetric proposal: acceptance
    min(1, pi_j/pi_i) gives detailed balance pi_i T_ji = pi_j T_ij, so
    pi is stationary up to float rounding and the rank-one projection
    onto pi commutes with T.
    """
    n = len(pi)
    M = rng.uniform(0.2, 1.0, size=(n, n))
    q = 0.5 * (M + M.T)
    np.fill_diagonal(q, 0.0)
    if n > 1:
        q /= 1.05 * q.sum(axis=1).max()
    T = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j != i:
                T[j, i] = q[i, j] * min(1.0, pi[j] / pi[i])
        T[i, i] = 1.0 - T[:, i].sum()
    return T


def dirichlet_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic (non-reversible) column-stochastic matrix, columns Dirichlet."""
    return rng.dirichlet(np.ones(n), size=n).T


def stationary_distribution(T: np.ndarray) -> np.ndarray:
    """Perron vector of a strictly positive column-stochastic matrix."""
    n = T.shape[0]
    _, _, vt = np.linalg.svd(T - np.eye(n))
    pi = vt[-1]
    pi = pi / pi.sum()
    if pi.min() <= 0:
        raise ValueError("matrix does not have a strictly positive fixed point")
    for _ in range(3):  # contract the null-space residual a little further
        pi = T @ pi
        pi = pi / pi.sum()
    return pi


def random_partition(n: int, rng: np.random.Generator) -> list[list[int]]:
    """Contiguous partition of range(n) into 2..min(n,3) nonempty blocks."""
    k = int(rng.integers(2, min(n, 3) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
    edges = [0] + cuts + [n]
    return [list(range(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def rank_one_instance(n: int, rng: np.random.Generator, label: str) -> Instance:
    space = make_simplex(n)
    pi = smoothed_target(n, rng)
    T = as_markov(metropolis_matrix(pi, rng), space)
    S = as_markov(metropolis_matrix(pi, rng), space)
    return Instance(label, T, rank_one_projection(space, pi), S)


def dirichlet_instance(n: int, rng: np.random.Generator, label: str) -> Instance:
    space = make_simplex(n)
    A = dirichlet_matrix(n, rng)
    pi = stationary_distribution(A)
    return Instance(label, as_markov(A, space), rank_one_projection(space, pi))


def block_instance(
    block_sizes: list[int], rng: np.random.Generator, label: str
) -> Instance:
    n = sum(block_sizes)
    space = make_simplex(n)
    T = np.zeros((n, n))
    S = np.zeros((n, n))
    blocks, anchors = [], []
    start = 0
    for size in block_sizes:
        idx = list(range(start, start + size))
        if size == 1:
            pi_b = np.ones(1)
            T[start, start] = 1.0
            S[start, start] = 1.0
        else:
            pi_b = smoothed_target(size, rng)
            T[np.ix_(idx, idx)] = metropolis_matrix(pi_b, rng)
            S[np.ix_(idx, idx)] = metropolis_matrix(pi_b, rng)
        blocks.append(idx)
        anchors.append(pi_b)
        start += size
    P = block_projection(space, blocks, anchors)
    return Instance(label, as_markov(T, space), P, as_markov(S, space))


def permutation_instance(n: int) -> Instance:
    """Cyclic shift: commutes with the uniform projection but never mixes."""
    space = make_simplex(n)
    T = np.zeros((n, n))
    for i in range(n):
        T[(i + 1) % n, i] = 1.0
    P = rank_one_projection(space, np.full(n, 1.0 / n))
    return Instance(f"perm-{n}", as_markov(T, space), P, expect_uniform=False)


def reducible_instance(
    block_sizes: list[int], rng: np.random.Generator, label: str
) -> Instance:
    """Disconnected ergodic components under a rank-one projection.

    Any mixture of the per-component stationary distributions is fixed, so
    TP = PT = P holds, but the extra stationary direction survives in
    T - P as an eigenvalue 1: not uniformly ergodic.
    """
    n = sum(block_sizes)
    space = make_simplex(n)
    T = np.zeros((n, n))
    pi = np.zeros(n)
    start = 0
    for size in block_sizes:
        idx = list(range(start, start + size))
        pi_b = smoothed_target(size, rng) if size > 1 else np.ones(1)
        if size == 1:
            T[start, start] = 1.0
        else:
            T[np.ix_(idx, idx)] = metropolis_matrix(pi_b, rng)
        pi[idx] = pi_b / len(block_sizes)
        start += size
    P = rank_one_projection(space, pi)
    return Instance(label, as_markov(T, space), P, expect_uniform=False)


def build_corpus(
    seed: int = 0,
    dims=(2, 3, 4, 5, 6),
    chains_per_dim: int = 3,
) -> list[Instance]:
    """The standard verification corpus; deterministic in the seed.

    Per dimension the generator cycles through reversible rank-one,
    block-projected, and generic non-reversible chains so both structured
    projection families and complex spectra all stay covered; two
    permutation and two reducible chains close it as non-ergodic cases.
    """
    rng = np.random.default_rng(seed)
    out: list[Instance] = []
    for d in dims:
        for c in range(chains_per_dim):
            kind = c % 3
            if kind == 1 and d >= 4:
                sizes = [len(b) for b in random_partition(d, rng)]
                tag = "+".join(map(str, sizes))
                out.append(block_instance(sizes, rng, f"block-{d}-{tag}-{c}"))
            elif kind == 2:
                out.append(dirichlet_instance(d, rng, f"dirichlet-{d}-{c}"))
            else:
                out.append(rank_one_instance(d, rng, f"mh-{d}-{c}"))
    out.append(permutation_instance(min(dims)))
    out.append(permutation_instance(max(dims)))
    rngn = np.random.default_rng(seed + 1)
    out.append(reducible_instance([2, 2], rngn, "reducible-2+2"))
    out.append(reducible_instance([2, 3], rngn, "reducible-2+3"))
    return out


# ---------------------------------------------------------------------------
# fixed reference instances


def two_state_fixture() -> Instance:
    """Off-diagonal jump rates (0.3, 0.1): coefficient, rate and subdominant
    eigenvalue all equal 0.6; stationary distribution (0.25, 0.75)."""
    space = make_simplex(2)
    T = as_markov(np.array([[0.7, 0.1], [0.3, 0.9]]), space)
    P = rank_one_projection(space, np.array([0.25, 0.75]))
    return Instance("two-state", T, P)


def fast_two_state_fixture() -> Instance:
    """Symmetric chain with rate 0.2, used as the fast tensor factor."""
    space = make_simplex(2)
    T = as_markov(np.array([[0.6, 0.4], [0.4, 0.6]]), space)
    P = rank_one_projection(space, np.array([0.5, 0.5]))
    return Instance("two-state-fast", T, P)


def block_fixture() -> Instance:
    """Two symmetric blocks with rates 0.4 and 0.8 under block averaging."""
    space = make_simplex(4)
    T = np.zeros((4, 4))
    T[:2, :2] = [[0.7, 0.3], [0.3, 0.7]]
    T[2:, 2:] = [[0.9, 0.1], [0.1, 0.9]]
    P = block_projection(space, [[0, 1], [2, 3]])
    return Instance("block-2+2", as_markov(T, space), P)


def embedded_fixture() -> Instance:
    """(alpha, x) -> (alpha, 0.5 x) on the embedded interval-ball space;
    coefficient and rate are both 0.5."""
    space = make_embedded(1)
    T = as_markov(np.diag([1.0, 0.5]), space)
    P = rank_one_projection(space, np.array([1.0, 0.0]))
    return Instance("embedded-half", T, P)


def recorded_nonmultiplicative_instance() -> Instance:
    """A corpus-search find where the coefficient strictly exceeds the
    residual spectral radius and, accordingly, the power coefficients
    multiply strictly submultiplicatively.  Recorded verbatim so the
    both-false side of the multiplicativity equivalence stays covered."""
    space = make_simplex(3)
    A = np.array(
        [
            [0.30745014424701217, 0.19956610730481678, 0.00287352929376971],
            [0.4454924156641316, 0.04604679204904698, 0.827626900077458],
            [0.24705744008885633, 0.7543871006461362, 0.16949957062877244],
        ]
    )
    pi = stationary_distribution(A)
    return Instance("recorded-nonmultiplicative", as_markov(A, space),
                    rank_one_projection(space, pi))
