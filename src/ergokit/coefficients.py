"""Ergodicity coefficients of Markov operators restricted to projection kernels.

The central quantity is the contraction coefficient of an operator on the
kernel N_P of a Markov projection P: the sup of norm(T x)/norm(x) over
nonzero x with P x = 0.  With P omitted (P = None) the kernel is
{ f = 0 }, which is the kernel shared by every rank-one projection, and
the value is the classical Dobrushin coefficient: every routine reads
P = None as the rank-one projection onto the first base vertex, so ker f
takes the same code as any other kernel.  A P on another space than the
operator's is refused with a ValueError.  On the polytopal spaces built
here the kernel unit ball is itself a polytope, so the sup is a finite
maximum over its vertices and can be computed exactly.

Three routes are provided and cross-checked by the tests: an exact scan
over the types of P, vertex enumeration of the kernel ball (rows built
from the same candidates, evaluated by one product), and a Monte-Carlo
lower bound with LP refinement; the tests keep an independent
support-pattern search as the referee.  On the simplex
``ergodicity_coefficient`` takes one route for every P (P =
None included), ``_type_route``: states whose columns of P are equal form a
type (``MarkovProjection.types``), and a kernel-ball vertex is either a
half difference inside one type, Dobrushin's pair formula, or a cross-type
candidate from the null vector of 2 to rank P + 1 type columns
(``_type_circuits``).  A P with cross-type candidates, an explicit P
with more types than its rank, prints "type-formula"; every other P,
rank-one and block P among them, "pair-formula".  Embedded spaces take
the vertex route for rank-one P and the identity.  A Monte-Carlo bracket
is left for any other P on an embedded space and for a P past
CANDIDATE_BUDGET;
``method="vertices"`` forces the enumeration, the cross-checks' reference.
The ratio scan (every space), the pair scan and the combination scan
(simplex only) are ``_backend`` kernels that read a ``norm_rows``.  The
refinement runs on the simplex; its LPs have a closed form (a half-range
over each type) for rank-one and block P, and go to HiGHS for an explicit
P.  A matrix-written P that is rank-one or a partition is built in its
structured form (``explicit_projection``).  P = identity (kernel {0}, as
for ker f on one state) needs no convention: the sup over no x is 0, which
every exact route returns from its empty candidate set.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import _backend
from .errors import DimensionTooLargeError, PreconditionError, UnsupportedSpaceError
from .operators import MarkovOperator, MarkovProjection, commutes, operator_norm
from .spaces import StateSpace, _abs_row_sums, _frozen, same_space

KERNEL_TOL = 1e-10
# the most cross-type candidates (``_type_circuits``) the exact route builds
# for one P, counted before any array; every P on 13 states fits.  At the
# budget a first call takes up to about 100 ms (one-state types on 13 to 36
# states, a 2-CPU x86 host), about what the Monte-Carlo bracket that a P past
# it gets costs at that size (50 to 120 ms)
CANDIDATE_BUDGET = 1 << 13
# skip sampled directions whose deflected image keeps less than this share
# of their l1 mass: deflection roundoff is absolute, and dividing by a tiny
# image norm would turn it into a relative error above the bound tolerances
MC_DEN_FLOOR = 1e-2
# the polish ascends from up to POLISH_STARTS draws with distinct sign
# patterns, taken from the START_POOL best kept draws by ratio.  Cases left
# over verify's 1e-4 slack bound on four seeded verify corpora (dims 2..10 at
# seed 0, 2..12 at seeds 1-3, 6 chains a dim): top 4 draws by ratio 2/5/3/4,
# top 64 0/0/1/0, 4 distinct patterns 1/3/2/2, 8 distinct 0/1/1/0, 16 none
POLISH_STARTS = 16
START_POOL = 256


@dataclass(frozen=True, eq=False)
class CoefficientResult:
    """Outcome of a coefficient computation.

    ``value`` is exact when ``certified_exact``; otherwise it is a lower
    bound and ``upper_bound`` completes the bracket.  ``witness`` is a
    maximizing kernel element (None when the kernel is {0}), and
    ``pair`` records base-vertex indices when the pair route produced it.
    """

    value: float
    method: str
    witness: np.ndarray | None
    certified_exact: bool
    upper_bound: float
    pair: tuple[int, int] | None = None

    def __repr__(self) -> str:
        tag = "exact" if self.certified_exact else f"<= {self.upper_bound:.6g}"
        return f"CoefficientResult({self.value:.12g}, {self.method}, {tag})"


def _ker_f_projection(space: StateSpace) -> MarkovProjection:
    """x -> f(x) b0 for the first base vertex b0, a rank-one P with ker P = ker f.

    f(b0) = 1 makes it an exact Markov idempotent, so it is built without
    the checks of ``rank_one_projection``."""
    b0 = space.base_vertices[0]
    matrix = _frozen(np.outer(b0, space.f_coefficients))
    return MarkovProjection(matrix, space, "rank_one", y=b0)


def _on_space(P: MarkovProjection | None, space: StateSpace) -> MarkovProjection:
    """P on ``space``: the ker f projection for None, a ValueError off the space."""
    if P is None:
        return _ker_f_projection(space)
    if not same_space(P.space, space):
        raise ValueError(f"projection on {P.space!r} read on {space!r}")
    return P


def _resolve(T, P: MarkovProjection | None, space: StateSpace | None):
    """T's matrix, the kernel's projection (``_on_space``) and their space."""
    if isinstance(T, (MarkovOperator, MarkovProjection)):
        return np.asarray(T.matrix, dtype=float), _on_space(P, T.space), T.space
    A = np.asarray(T, dtype=float)
    if space is None and P is not None:
        space = P.space
    if space is None:
        raise ValueError("raw matrices need an explicit space or a projection")
    if A.shape != (space.dim, space.dim):
        raise ValueError("matrix shape does not match the space dimension")
    return A, _on_space(P, space), space


def _lex_rows(V: np.ndarray) -> np.ndarray:
    if len(V) == 0:
        return V
    order = np.lexsort(V.T[::-1])
    return V[order]


def _pair_diff_vertices(space: StateSpace, groups) -> np.ndarray:
    """Rows (b_i - b_j)/2 over the pairs of ``_backend._group_pairs``, both ways."""
    J, I = _backend._group_pairs(groups)
    first, second = np.concatenate((I, J)), np.concatenate((J, I))
    B = space.base_vertices
    out = B[first] - B[second]
    out *= 0.5
    return out


# per-projection caches (kernel vertices, or per space for ker f; cross-type
# candidates); weak keys, so an entry lives exactly as long as its key
_KERNEL_VERTICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CIRCUITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CACHE_LOCK = threading.Lock()


def _cached(cache: weakref.WeakKeyDictionary, key, build):
    """cache[key], from ``build()`` on a miss; the first value stored wins."""
    with _CACHE_LOCK:
        got = cache.get(key)
    if got is None:
        got = build()
        with _CACHE_LOCK:
            got = cache.setdefault(key, got)
    return got


def _type_circuits(P: MarkovProjection) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The cross-type candidates of P on the simplex, one (members, coefs) per size.

    At a vertex of {z : P z = 0, l1(z) <= 1} with support S the kernel of
    P's columns on S is one-dimensional (else the vertex is a proper convex
    combination), so |S| <= rank P + 1.  S is a pair inside a type, or one
    member m_k of each of 2 to rank P + 1 types whose columns have a
    one-dimensional null space, spanned by an l1-normalized c: the vertices
    +-sum_k c_k e_{m_k}.  Row t of ``members`` holds one choice of the m_k,
    row t of ``coefs`` its c.  Every size is searched, so each vertex comes
    from its own support: a c with an entry within KERNEL_TOL of 0 belongs
    to a smaller subset and is dropped, and no vertex repeats or multiplies
    its member choices by a type that drops out.  Rank-one and block P have
    independent type columns.  The member choices are counted before any
    array is built; past CANDIDATE_BUDGET, DimensionTooLargeError.  Built
    once per P.
    """
    if P.structured:
        return ()
    return _cached(_CIRCUITS, P, lambda: _circuits(P))


def _circuits(P: MarkovProjection):
    types, rank, n = P.types, P.rank(), P.space.dim
    if len(types) <= rank:  # independent type columns, as for P = identity
        return ()
    choices = [1] + [0] * (rank + 1)  # choices[s]: member choices over s types
    for g in types:
        for s in range(rank + 1, 0, -1):
            choices[s] += len(g) * choices[s - 1]
    if sum(choices[2:]) > CANDIDATE_BUDGET:
        raise DimensionTooLargeError(
            f"{sum(choices[2:])} cross-type candidates, past the budget of {CANDIDATE_BUDGET}"
        )
    Q = np.asarray(P.matrix)[:, [g[0] for g in types]]  # one column per type
    out = []
    for s in range(2, min(len(types), rank + 1) + 1):
        subsets = itertools.combinations(range(len(types)), s)
        step = max(1, _backend._PAIR_BLOCK_ENTRIES // (n * s))
        members, coefs = [], []
        while chunk := list(itertools.islice(subsets, step)):
            cols = Q[:, chunk].transpose(1, 0, 2)
            sv = np.linalg.svd(cols, compute_uv=False)
            keep = (sv <= n * 1e-9 * np.maximum(1.0, sv[:, :1])).sum(axis=1) == 1
            if keep.any():
                c = np.linalg.svd(cols[keep], full_matrices=False)[2][:, -1]
                c /= np.abs(c).sum(axis=1, keepdims=True)
                full = (np.abs(c) > KERNEL_TOL).all(axis=1)
                for K, ck in zip(np.array(chunk)[keep][full], c[full]):
                    choice = list(itertools.product(*(types[k] for k in K)))
                    members += choice
                    coefs += [ck] * len(choice)
        if members:
            members = np.array(members, dtype=np.intp)
            members.flags.writeable = False
            out.append((members, _frozen(coefs)))
    return tuple(out)


def kernel_ball_vertices(
    P: MarkovProjection | None, space: StateSpace | None = None
) -> np.ndarray:
    """Extreme points of the unit ball of the kernel N_P, rows of the result.

    P = None means the kernel of f, read as the rank-one projection onto
    the first base vertex (every rank-one P has that kernel); a P whose
    space is not ``space`` is a ValueError.  On the simplex the rows are the
    half differences (e_i - e_j)/2 inside each type of P, both ways, and
    the cross-type candidates of ``_type_circuits``, both signs: the same
    candidates the exact route scans.  Past CANDIDATE_BUDGET that is a
    DimensionTooLargeError.  On an embedded space rank-one P has the closed
    form {0} x inner ball and the identity has no vertex (ker P = {0}); any
    other P there has no exact route (UnsupportedSpaceError), and callers
    fall back to bounds.

    The result is a shared read-only array: it is built once per P, or once
    per space for ker f (P = None and every rank-one P), and later calls
    return the same object until that P or space is garbage-collected.
    """
    if space is None:
        if P is None:
            raise ValueError("need a space when P is None")
        space = P.space
    P = _on_space(P, space)
    key = space if P.variant == "rank_one" else P
    return _cached(_KERNEL_VERTICES, key, lambda: _kernel_ball_vertices(P, space))


def _kernel_ball_vertices(P: MarkovProjection, space: StateSpace) -> np.ndarray:
    n = space.dim
    if space.is_lattice:
        V = _pair_diff_vertices(space, P.types)
        for members, coefs in _type_circuits(P):
            Z = np.zeros((len(members), n))
            np.put_along_axis(Z, members, coefs, axis=1)
            V = np.concatenate((V, Z, -Z))
        V = _lex_rows(V)
    elif P.structured:
        # embedded (P rank-one): ker f = {(0, x)}, its ball section {0} x inner ball
        inner = space.base_vertices[:, 1:]  # base vertices are (1, w)
        V = np.zeros((inner.shape[0], n))
        V[:, 1:] = inner
        V = _lex_rows(V)
    elif P.rank() == n:  # an idempotent of full rank is the identity: ker P = {0}
        V = np.zeros((0, n))
    else:
        raise UnsupportedSpaceError(
            "no exact kernel enumeration for unstructured projections on "
            "embedded spaces; use the Monte-Carlo bounds"
        )
    V.flags.writeable = False
    return V


def _exact_from_vertices(A, V, space, method) -> CoefficientResult:
    if len(V) == 0:  # ker P = {0}: the sup over no x is 0
        return CoefficientResult(0.0, method, None, True, 0.0)
    vals = space.norm_rows(V @ A.T)
    i = int(np.argmax(vals))
    v = float(vals[i])
    return CoefficientResult(v, method, V[i].copy(), True, v)


def _type_route(A, P, space) -> CoefficientResult:
    """The largest image norm over the kernel-ball vertices from P's types.

    On the simplex a vertex is a half difference (e_i - e_j)/2 inside a
    type of P, the pair formula (Seneta, Non-negative Matrices and Markov
    Chains, 2006, ch. 3), or a cross-type candidate of ``_type_circuits``.
    So the coefficient is the larger of two scans of the images T e_i: the
    pair scan over the types, O(n^3) where the vertex route's product with
    the n(n - 1) x n pair-vertex matrix is O(n^4) (both give the same float),
    and the scan of the candidates, which rank-one and block P (P = None
    included) do not have.  A P with candidates prints "type-formula", any
    other "pair-formula"; past CANDIDATE_BUDGET, DimensionTooLargeError
    before either scan.  Ties go to the pairs, then to the earlier
    candidate; ``pair`` is set when a pair gives the value.
    """
    circuits = _type_circuits(P)
    images = A.T  # row i = T e_i, the image of base vertex i
    best, bi, bj = _backend.max_pair_half_l1(images, P.types, space.norm_rows)
    w = None
    if bi >= 0:
        w = np.zeros(space.dim)  # (e_i - e_j)/2, entry by entry
        w[bi], w[bj] = 0.5, -0.5
    for members, coefs in circuits:
        v, k = _backend.max_combination_norm(images, members, coefs, space.norm_rows)
        if k >= 0 and best == best and (w is None or not v <= best):
            best, bi, w = v, -1, np.zeros(space.dim)
            w[members[k]] = coefs[k]
    method = "type-formula" if circuits else "pair-formula"
    if w is None:
        return CoefficientResult(0.0, method, None, True, 0.0)
    return CoefficientResult(best, method, w, True, best, pair=(bi, bj) if bi >= 0 else None)


def ergodicity_coefficient(
    T,
    P: MarkovProjection | None = None,
    *,
    space: StateSpace | None = None,
    method: str = "auto",
    seed: int = 0,
) -> CoefficientResult:
    """Contraction coefficient of T on the kernel of P.

    T may be a MarkovOperator or a raw matrix (the functional extends to
    arbitrary operators, which property checks on differences need).
    method: "auto" or "vertices".  "auto" takes the exact route: on the
    simplex, for every P, the scans of ``_type_route`` over P's types; on
    an embedded space the vertex route.  Where neither is exact (an
    explicit P on an embedded space other than the identity, or past
    CANDIDATE_BUDGET) it gets a Monte-Carlo bracket.  "vertices" is the enumeration reference the
    cross-checks compare "auto" against; it raises where no vertex set can
    be built.
    P = None is ker f (the classical coefficient), and P = identity
    (ker P = {0}: on the simplex n one-state types, no candidate) gives 0
    on every exact route.  The bracket's lower side samples 100_000 directions
    (``coefficient_lower_bound``).
    """
    A, P, space = _resolve(T, P, space)
    if method not in ("auto", "vertices"):
        raise ValueError(f"unknown method {method!r}")
    try:
        if method == "auto" and space.is_lattice:
            return _type_route(A, P, space)
        V = kernel_ball_vertices(P, space)
    except (DimensionTooLargeError, UnsupportedSpaceError):
        if method == "vertices":
            raise
        # a bracket: ker P lies in ker f, so the classical coefficient bounds it
        lower = coefficient_lower_bound(A, P, space=space, seed=seed)
        upper = ergodicity_coefficient(A, None, space=space).value
        return CoefficientResult(lower.value, lower.method, lower.witness, False, upper)
    return _exact_from_vertices(A, V, space, "kernel-vertex-enumeration")


def _polish_step(P: MarkovProjection, space: StateSpace):
    """The polish's LP, c -> a maximizer of c.z over {P z = 0, l1(z) <= 1}.

    For rank-one P (ker f, which P = None stands for) and block P on the
    simplex the kernel is {z : z sums to 0 on each type of P}.  By LP duality the optimum is then the
    largest half-range (max c - min c)/2 over the groups, reached at (e_i - e_j)/2 with i = argmax and
    j = argmin of c on the best group: the dual form of Dobrushin's
    coefficient (Seneta, Non-negative Matrices and Markov Chains, 2006,
    ch. 3).  An explicit P has no closed form and goes to HiGHS; the step
    returns None when the solver fails.
    """
    n = space.dim
    if P.structured:
        groups = [np.asarray(g) for g in P.types]

        def half_range(c):
            best, bi, bj = -1.0, 0, 0
            for g in groups:
                cg = c[g]
                a, b = cg.argmax(), cg.argmin()
                if cg[a] - cg[b] > best:
                    best, bi, bj = cg[a] - cg[b], g[a], g[b]
            z = np.zeros(n)
            z[bi] += 0.5
            z[bj] -= 0.5  # z = 0 when c is constant on every group
            return z

        return half_range

    E = np.asarray(P.matrix)
    A_eq = np.hstack([E, -E])
    b_eq = np.zeros(n)
    A_ub = np.ones((1, 2 * n))

    def highs(c):
        res = linprog(
            -np.concatenate([c, -c]), A_ub=A_ub, b_ub=[1.0], A_eq=A_eq, b_eq=b_eq,
            method="highs",
        )
        return res.x[:n] - res.x[n:] if res.success else None

    return highs


def _lp_polish(A, D, z0, step):
    """Sign-relinearized ascent of z -> l1(A z) over {z in ker P, l1(z) <= 1}.

    Each LP ``step`` maximizes s.(A z) for the current sign pattern s; the
    previous iterate is feasible and the relinearized objective
    underestimates l1(A z), so the true objective never decreases.  Each
    LP maximizer is pushed through the exact deflector D = I - P before its
    ratio is taken.  A HiGHS solution satisfies P z = 0 only to solver
    tolerance, enough to let the ratio overshoot the kernel sup by ~1e-11,
    so this keeps the output a sound lower bound.  On the simplex only (l1
    geometry).
    """
    best_z = z0 / np.abs(z0).sum()
    y = A @ best_z
    best_val = float(np.abs(y).sum())
    for _ in range(30):
        s = np.where(y >= 0, 1.0, -1.0)  # sign(A best_z), 0 read as +1
        x = step(A.T @ s)
        if x is None:
            break
        z = D @ x
        nz = float(np.abs(z).sum())
        if nz <= 1e-12:
            break
        val = float(np.abs(A @ z).sum()) / nz
        if val <= best_val + 1e-13:
            break
        best_val, best_z = val, z / nz
        y = A @ best_z
    return best_val, best_z


def _polish_starts(ratios: np.ndarray, TK: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Rows of Z that seed an ascent each: up to POLISH_STARTS, best ratio first.

    The candidates are the START_POOL best kept rows by ratio, in ratio
    order; rows the scan skipped (ratio -1) are never candidates.  The
    ascent's first step depends only on the sign pattern of A z0, which is
    sign(TK z) for the start z0 = D z (TK = A D), with 0 read as +1 as the
    ascent reads it, so two rows with one pattern take the same step: of
    each pattern only its best row is kept.  The patterns are packed into
    bytes and deduplicated by ``np.unique``.
    """
    m = len(ratios)
    k = min(START_POOL, m)
    top = np.argpartition(ratios, m - k)[m - k:]
    top = top[np.argsort(ratios[top])[::-1]]
    top = top[ratios[top] >= 0]
    patterns = np.packbits(Z[top] @ TK.T >= 0, axis=1)
    # one void scalar per row: a 1-d unique, several times cheaper than axis=0
    _, first = np.unique(patterns.view(f"V{patterns.shape[1]}").ravel(), return_index=True)
    return top[np.sort(first)[:POLISH_STARTS]]


# the last sample draw, weakly keyed on the space it was drawn for: at most
# one draw is held, and it is freed with its space or before the next draw
_SAMPLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SAMPLES_LOCK = threading.Lock()
# the byte of a float64 that holds its sign bit, as the top bit
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def _unit_samples(space: StateSpace, seed: int, samples: int) -> np.ndarray:
    """The seeded sample directions, uniform on the unit l1 sphere, read-only.

    With E_i i.i.d. standard exponential and independent signs e_i = +-1,
    (e_i E_i) / sum E_i is uniform on the unit l1 sphere (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. 5), the unit sphere of
    the simplex's own norm; a signed exponential costs less than a Gaussian.
    Unit l1 rows make MC_DEN_FLOOR a relative threshold.  The signs are bit
    by bit the first ceil(samples * dim / 64) raw words of the seed's PCG64,
    as ``np.unpackbits`` unpacks them, and the magnitudes are the exponential
    stream that follows those words, so Z has the bits of one whole-array
    draw in that order.  It is drawn and normalized in blocks of
    ``_backend._BLOCK_ROWS`` rows while each block is in cache, with no
    temporary larger than a block.  Repeated calls on one space with the same
    seed and sample count, as the power scans make, share one draw.
    """
    key = (seed, samples)
    with _SAMPLES_LOCK:
        held = _SAMPLES.get(space)
        if held is not None and held[0] == key:
            return held[1]
        _SAMPLES.clear()
    Z = np.empty((samples, space.dim))
    signs = np.random.PCG64(seed)
    rng = np.random.Generator(np.random.PCG64(seed).advance(-(-Z.size // 64)))
    for s in range(0, samples, _backend._BLOCK_ROWS):
        B = Z[s : s + _backend._BLOCK_ROWS]
        rng.standard_exponential(out=B)
        row_l1 = _abs_row_sums(B)
        # a full block takes a whole number of words (_BLOCK_ROWS is a multiple of 64)
        bits = np.unpackbits(signs.random_raw(-(-B.size // 64)).view(np.uint8), count=B.size)
        bits <<= 7
        sign_bytes = B.view(np.uint8)[:, _SIGN_BYTE::8]
        sign_bytes ^= bits.reshape(B.shape)
        B /= np.where(row_l1 > 0, row_l1, 1.0)[:, None]
    Z.flags.writeable = False
    with _SAMPLES_LOCK:
        _SAMPLES.clear()
        _SAMPLES[space] = (key, Z)
    return Z


def coefficient_lower_bound(
    T,
    P: MarkovProjection | None = None,
    *,
    space: StateSpace | None = None,
    samples: int = 100_000,
    seed: int = 0,
) -> CoefficientResult:
    """Monte-Carlo lower bound for the coefficient, independent of enumeration.

    Random directions are deflected into the kernel and the best ratio
    norm(T z)/norm(z) in the space's norm is kept; the draws are uniform on
    the unit l1 sphere (``_unit_samples``).  On the simplex up to
    POLISH_STARTS top draws with distinct sign patterns of T z
    (``_polish_starts``) seed a sign-relinearized LP ascent each
    (``_lp_polish``) that sharpens the bound without leaving the kernel, so
    the result stays a certified lower bound throughout.  Its LPs are solved
    in closed form for rank-one and block P (so for P = None, ker f), and
    by HiGHS for an explicit P (``_polish_step``).
    """
    A, P, space = _resolve(T, P, space)
    D = np.eye(space.dim) - np.asarray(P.matrix)  # onto ker P
    TK = A @ D
    Z = _unit_samples(space, seed, max(1, samples))
    best, idx, ratios = _backend.mc_max_ratio(TK, D, Z, space.norm_rows, MC_DEN_FLOOR)
    if idx < 0:
        return CoefficientResult(0.0, "monte-carlo-lower-bound", None, False, np.inf)
    best_z = D @ Z[idx]
    best_z /= space.norm(best_z)
    if space.is_lattice:
        step = _polish_step(P, space)
        for k in _polish_starts(ratios, TK, Z):  # one ascent per distinct sign pattern
            val, z = _lp_polish(A, D, D @ Z[k], step)
            if val > best:
                best, best_z = val, z
    return CoefficientResult(float(best), "monte-carlo-lower-bound", best_z, False, np.inf)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    applicable: bool
    holds: bool
    details: dict

    @property
    def ok(self) -> bool:
        return self.holds or not self.applicable


def coefficient_inequalities(
    T: MarkovOperator,
    S: MarkovOperator,
    P: MarkovProjection,
    H: np.ndarray | None = None,
    tol: float = 1e-9,
    *, delta: CoefficientResult | None = None, seed: int = 0,
) -> list[PropertyCheck]:
    """Numerical checks of the five basic coefficient inequalities.

    (range) the coefficient of a Markov operator lies in [0, 1], the lower
    side at or above 0 and the upper side at or below 1;
    (difference-lipschitz) |c(T) - c(S)| <= c(T-S) <= ||T-S||;
    (commuting-factor) HP = PH implies c(TH) <= c(T) ||H||;
    (annihilated-factor) PH = 0 implies ||TH|| <= c(T) ||H||;
    (submultiplicative) S Markov commuting with P implies
    c(TS) <= c(T) c(S).  H defaults to I - P, which satisfies the
    hypotheses of both factor checks.  Checks whose hypothesis fails are
    reported with applicable=False rather than skipped silently.  With
    P = I (kernel {0}) every coefficient and H = I - P are 0, so all five
    hold as 0 <= 0.

    ``delta``: the caller's ``ergodicity_coefficient(T, P)``, if it holds
    one; ``seed`` seeds the sampling fallback of the other coefficients.
    The factor checks build each rhs from the upper sides of c(T) and c(S),
    and difference-lipschitz compares the lower side of |c(T) - c(S)|,
    max(0, lT - uS, lS - uT) from the brackets [lT, uT] and [lS, uS], with
    the upper side of c(T-S), so a Monte-Carlo bracket never fails a true
    inequality.
    """
    space = T.space
    Pm = np.asarray(P.matrix)
    if H is None:
        H = np.eye(space.dim) - Pm
    H = np.asarray(H, dtype=float)

    cT = delta if delta is not None else ergodicity_coefficient(T, P, seed=seed)
    cS = cT if S is T else ergodicity_coefficient(S, P, seed=seed)
    dT, dS = cT.value, cS.value
    upT, upS = cT.upper_bound, cS.upper_bound
    out = []

    out.append(
        PropertyCheck(
            "range",
            True,
            -tol <= dT and upT <= 1.0 + tol and -tol <= dS and upS <= 1.0 + tol,
            {"value_T": dT, "value_S": dS},
        )
    )

    diff = T.matrix - S.matrix
    if S is T:  # T - T = 0 has coefficient 0 on every route
        d_diff = up_diff = 0.0
    else:
        c_diff = ergodicity_coefficient(diff, P, space=space, seed=seed)
        d_diff, up_diff = c_diff.value, c_diff.upper_bound
    nrm_diff = operator_norm(diff, space)
    # the least |c(T) - c(S)| can be, over every point of the two brackets
    low_gap = max(0.0, dT - upS, dS - upT)
    out.append(
        PropertyCheck(
            "difference-lipschitz",
            True,
            low_gap <= up_diff + tol and d_diff <= nrm_diff + tol,
            {"lhs": abs(dT - dS), "mid": d_diff, "rhs": nrm_diff},
        )
    )

    nH = operator_norm(H, space)
    commute_defect = operator_norm(H @ Pm - Pm @ H, space)
    applicable = commute_defect <= KERNEL_TOL
    d_TH = ergodicity_coefficient(T.matrix @ H, P, space=space, seed=seed).value
    out.append(
        PropertyCheck(
            "commuting-factor",
            applicable,
            d_TH <= upT * nH + tol,
            {"lhs": d_TH, "rhs": upT * nH, "commute_defect": commute_defect},
        )
    )

    annihilate_defect = operator_norm(Pm @ H, space)
    applicable = annihilate_defect <= KERNEL_TOL
    n_TH = operator_norm(T.matrix @ H, space)
    out.append(
        PropertyCheck(
            "annihilated-factor",
            applicable,
            n_TH <= upT * nH + tol,
            {"lhs": n_TH, "rhs": upT * nH, "annihilate_defect": annihilate_defect},
        )
    )

    s_comm, s_defect = commutes(S, P)
    d_TS = ergodicity_coefficient(T.matrix @ S.matrix, P, space=space, seed=seed).value
    out.append(
        PropertyCheck(
            "submultiplicative",
            s_comm,
            d_TS <= upT * upS + tol,
            {"lhs": d_TS, "rhs": upT * upS, "commute_defect": s_defect},
        )
    )
    return out


@dataclass(frozen=True)
class EigenBoundReport:
    eigenvalues: tuple
    coefficient: float  # the upper side of delta_P(S), which bounds every |eig|
    max_excess: float
    ok: bool


def eigenvalue_bound_check(
    S: MarkovOperator, P: MarkovProjection, tol: float = 1e-9,
    *, delta: CoefficientResult | None = None,
) -> EigenBoundReport:
    """Every eigenvalue of S on ker P is bounded by the coefficient.

    Requires S to commute with P (then ker P = range(I-P) is S-invariant);
    the restriction is compressed with an orthonormal kernel basis, the
    n - rank P leading left singular vectors of I - P, so its eigenvalues
    are exactly those of S on ker P.  delta_P(S) is the norm of S there, so
    |eig| <= delta_P(S) holds for an eigenvalue 1 too, and each |eig| is
    read against the bracket's upper side.
    ``delta``: the caller's ``ergodicity_coefficient(S, P)``, if it holds one.
    """
    ok_c, defect = commutes(S, P)
    if not ok_c:
        raise PreconditionError(
            f"operator does not commute with the projection (defect {defect:.3e})"
        )
    upper = (delta if delta is not None else ergodicity_coefficient(S, P)).upper_bound
    n = S.space.dim
    U, _, _ = np.linalg.svd(np.eye(n) - np.asarray(P.matrix))
    B = U[:, :n - P.rank()]  # P = I leaves no eigenvalue to bound
    eigs = np.linalg.eigvals(B.T @ S.matrix @ B)
    max_excess = max((abs(z) - upper for z in eigs), default=-np.inf)
    return EigenBoundReport(
        tuple(sorted(eigs, key=lambda z: (-abs(z), z.real, z.imag))),
        upper,
        max_excess,
        max_excess <= tol,
    )
