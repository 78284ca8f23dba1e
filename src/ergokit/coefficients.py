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

Three independent routes are provided and cross-checked by the tests:
vertex enumeration of the kernel ball, the half-distance formula over
admissible base-vertex pairs, and a Monte-Carlo lower bound with LP
refinement.  The pair scan and the ratio scan are ``_backend`` kernels
that read the space's ``norm_rows``, one scan each on every space.  The
refinement runs on the simplex; its LPs have a closed form (a half-range
over each block) for rank-one and block P, and go to HiGHS only for
explicit projections.  A matrix-written P that is rank-one
or a partition is built in its structured form (``explicit_projection``),
so only a P with neither form, such as one absorbing a transient state
into two classes, takes the explicit routes: support-pattern enumeration
up to dim 12, a Monte-Carlo bracket past it.  P = identity (kernel {0},
as for ker f on one state) needs no convention: the sup over no x is 0,
which every exact route returns from its empty vertex or pair set.
"""

from __future__ import annotations

import itertools
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
ENUMERATION_CAP = 12
# skip sampled directions whose deflected image keeps less than this share
# of their l1 mass: deflection roundoff is absolute, and dividing by a tiny
# image norm would turn it into a relative error above the bound tolerances
MC_DEN_FLOOR = 1e-2


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
    """Rows (b_i - b_j)/2 over the pairs i != j of each group, in row order."""
    n = space.dim
    out = np.empty((sum(len(g) * (len(g) - 1) for g in groups), n))
    start = 0
    for g in groups:
        k, B = len(g), space.base_vertices[g]
        D = B[:, None, :] - B[None, :, :]
        D *= 0.5
        # off the diagonal without a mask's copy: past row (0, 0), each
        # diagonal row closes a run of k + 1, led by k rows (i, j), i != j
        rows = D.reshape(k * k, n)[1:].reshape(k - 1, k + 1, n)[:, :k]
        out[start : start + k * (k - 1)].reshape(k - 1, k, n)[...] = rows
        start += k * (k - 1)
    return out


def _support_pattern_vertices(P_mat: np.ndarray, n: int) -> np.ndarray:
    # Vertices of {z : P z = 0, l1(z) <= 1}.  At a vertex with support S the
    # column-restricted kernel of P must be one-dimensional: a second kernel
    # direction supported on S gives a sign-preserving perturbation writing
    # the point as a proper convex combination of feasible points.  Then
    # |S| = rank(P[:,S]) + 1 <= rank(P) + 1.  Every candidate below is
    # feasible, so a convex objective maximized over this superset of the
    # vertex set attains exactly the max over the polytope.
    if n > ENUMERATION_CAP:
        raise DimensionTooLargeError(
            f"support-pattern enumeration capped at dim {ENUMERATION_CAP}, got {n}"
        )
    rank = int(round(float(np.trace(P_mat))))
    seen = {}
    for size in range(1, min(n, rank + 1) + 1):
        for S in itertools.combinations(range(n), size):
            cols = P_mat[:, S]
            s = np.linalg.svd(cols, compute_uv=False)
            tol = n * 1e-9 * max(1.0, float(s[0]))
            if int((s <= tol).sum()) != 1:
                continue
            _, _, vt = np.linalg.svd(cols)
            z = np.zeros(n)
            z[list(S)] = vt[-1]
            z /= np.abs(z).sum()
            for cand in (z, -z):
                seen.setdefault(tuple(np.round(cand, 10)), cand)
    if not seen:
        return np.zeros((0, n))
    return np.array(list(seen.values()))


# kernel vertices per projection, or per space for ker f; weak keys, so an
# entry lives exactly as long as the P or space it was built for
_KERNEL_VERTICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_KERNEL_VERTICES_LOCK = threading.Lock()


def kernel_ball_vertices(
    P: MarkovProjection | None, space: StateSpace | None = None
) -> np.ndarray:
    """Extreme points of the unit ball of the kernel N_P, rows of the result.

    P = None means the kernel of f, read as the rank-one projection onto
    the first base vertex (every rank-one P has that kernel); a P whose
    space is not ``space`` is a ValueError.  Closed forms cover rank-one
    and block projections; explicit projections (neither form) on the
    simplex go through support-pattern enumeration, capped at dim 12
    (DimensionTooLargeError beyond, callers fall back to bounds), and have
    no exact route on embedded spaces.

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
    with _KERNEL_VERTICES_LOCK:
        V = _KERNEL_VERTICES.get(key)
    if V is None:
        V = _kernel_ball_vertices(P, space)
        V.flags.writeable = False
        with _KERNEL_VERTICES_LOCK:
            V = _KERNEL_VERTICES.setdefault(key, V)
    return V


def _kernel_ball_vertices(P: MarkovProjection, space: StateSpace) -> np.ndarray:
    n = space.dim
    if P.structured:
        if space.is_lattice:
            return _lex_rows(_pair_diff_vertices(space, _admissible_pair_groups(P, space)))
        # embedded (P rank-one): ker f = {(0, x)}, its ball section {0} x inner ball
        inner = space.base_vertices[:, 1:]  # base vertices are (1, w)
        V = np.zeros((inner.shape[0], n))
        V[:, 1:] = inner
        return _lex_rows(V)

    # explicit
    if P.is_identity():
        return np.zeros((0, n))
    if not space.is_lattice:
        raise UnsupportedSpaceError(
            "no exact kernel enumeration for unstructured projections on "
            "embedded spaces; use the Monte-Carlo bounds"
        )
    return _lex_rows(_support_pattern_vertices(np.asarray(P.matrix), n))


def _exact_from_vertices(A, V, space, method) -> CoefficientResult:
    if len(V) == 0:  # ker P = {0}: the sup over no x is 0
        return CoefficientResult(0.0, method, None, True, 0.0)
    vals = space.norm_rows(V @ A.T)
    i = int(np.argmax(vals))
    v = float(vals[i])
    return CoefficientResult(v, method, V[i].copy(), True, v)


def _admissible_pair_groups(P: MarkovProjection, space: StateSpace):
    if P.variant == "rank_one":
        return [np.arange(len(space.base_vertices))]
    if P.variant == "block":
        return [np.asarray(b) for b in P.blocks]
    raise UnsupportedSpaceError("the pair formula needs a rank-one or block projection")


def _pair_route(A, P, space) -> CoefficientResult:
    images = space.base_vertices @ A.T  # row i = image of base vertex i
    best, bi, bj = -1.0, -1, -1
    for g in _admissible_pair_groups(P, space):
        val, i, j = _backend.max_pair_half_l1(images[g], space.norm_rows)
        if i >= 0 and val > best:
            best, bi, bj = val, int(g[i]), int(g[j])
    if bi < 0:
        return CoefficientResult(0.0, "pair-formula", None, True, 0.0)
    w = 0.5 * (space.base_vertices[bi] - space.base_vertices[bj])
    return CoefficientResult(best, "pair-formula", w, True, best, pair=(bi, bj))


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
    method: "auto" (exact when possible, Monte-Carlo bracket otherwise),
    "vertices", or "pairs" (rank-one or block P only; an explicit P raises
    UnsupportedSpaceError).  P = None is ker f (the classical coefficient),
    and P = identity (ker P = {0}) gives 0 on every exact route.  The
    bracket's lower side samples 100_000 directions (``coefficient_lower_bound``).
    """
    A, P, space = _resolve(T, P, space)
    if method == "pairs":
        return _pair_route(A, P, space)
    if method not in ("auto", "vertices"):
        raise ValueError(f"unknown method {method!r}")
    try:
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
    simplex the kernel is {z : z sums to 0 on each group of
    ``_admissible_pair_groups``}.  By LP duality the optimum is then the
    largest half-range (max c - min c)/2 over the groups, reached at (e_i - e_j)/2 with i = argmax and
    j = argmin of c on the best group: the dual form of Dobrushin's
    coefficient (Seneta, Non-negative Matrices and Markov Chains, 2006,
    ch. 3).  An explicit P has no closed form and goes to HiGHS; the step
    returns None when the solver fails.
    """
    n = space.dim
    if P.structured:
        groups = _admissible_pair_groups(P, space)

        def half_range(c):
            best, bi, bj = -1.0, 0, 0
            for g in groups:
                i, j = g[np.argmax(c[g])], g[np.argmin(c[g])]
                if c[i] - c[j] > best:
                    best, bi, bj = c[i] - c[j], i, j
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
    z = z0 / np.abs(z0).sum()
    best_val = float(np.abs(A @ z).sum())
    best_z = z
    for _ in range(30):
        s = np.sign(A @ best_z)
        s[s == 0] = 1.0
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
    return best_val, best_z


def _polish_starts(ratios: np.ndarray) -> np.ndarray:
    """Rows of the four best kept ratios, best first, without sorting them all.

    Rows the scan skipped (ratio -1) are never starts: with fewer than four
    kept rows, fewer starts are returned.
    """
    k = min(4, len(ratios))
    top = np.argpartition(ratios, len(ratios) - k)[len(ratios) - k:]
    top = top[np.argsort(ratios[top])[::-1]]
    return top[ratios[top] >= 0]


# the last sample draw, weakly keyed on the space it was drawn for: at most
# one draw is held, and it is freed with its space or before the next draw
_SAMPLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SAMPLES_LOCK = threading.Lock()


def _unit_samples(space: StateSpace, seed: int, samples: int) -> np.ndarray:
    """The seeded Gaussian sample directions, l1-normalized, read-only.

    Unit l1 rows make MC_DEN_FLOOR a relative threshold; direction and
    magnitude of the deflected image are independent for isotropic draws,
    so the skipped rows cost no direction coverage.  The draw is made and
    normalized in blocks of ``_backend._BLOCK_ROWS`` rows while each block is
    in cache; consecutive blocks of one Generator are the stream of a single
    (samples, dim) draw, so Z has the bits of that draw.  Repeated calls on
    one space with the same seed and sample count, as the power scans make,
    share one draw.
    """
    key = (seed, samples)
    with _SAMPLES_LOCK:
        held = _SAMPLES.get(space)
        if held is not None and held[0] == key:
            return held[1]
        _SAMPLES.clear()
    rng = np.random.default_rng(seed)
    Z = np.empty((samples, space.dim))
    for s in range(0, samples, _backend._BLOCK_ROWS):
        B = Z[s : s + _backend._BLOCK_ROWS]
        rng.standard_normal(out=B)
        row_l1 = _abs_row_sums(B)
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
    norm(T z)/norm(z) in the space's norm is kept.  On the simplex
    the four top draws seed a sign-relinearized LP ascent each
    (``_lp_polish``) that sharpens the bound without leaving the kernel, so
    the result stays a certified lower bound throughout.  Its LPs are solved
    in closed form for rank-one and block P (so for P = None, ker f), and
    by HiGHS for an explicit P (``_polish_step``).
    """
    A, P, space = _resolve(T, P, space)
    D = np.eye(space.dim) - np.asarray(P.matrix)  # onto ker P
    Z = _unit_samples(space, seed, max(1, samples))
    best, idx, ratios = _backend.mc_max_ratio(A @ D, D, Z, space.norm_rows, MC_DEN_FLOOR)
    if idx < 0:
        return CoefficientResult(0.0, "monte-carlo-lower-bound", None, False, np.inf)
    best_z = D @ Z[idx]
    best_z /= space.norm(best_z)
    if space.is_lattice:
        step = _polish_step(P, space)
        for k in _polish_starts(ratios):  # the top four draws seed an ascent each
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

    (range) the coefficient of a Markov operator lies in [0, 1];
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
    so a Monte-Carlo bracket never fails a true inequality.
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
            -tol <= dT <= 1.0 + tol and -tol <= dS <= 1.0 + tol,
            {"value_T": dT, "value_S": dS},
        )
    )

    diff = T.matrix - S.matrix
    # T - T = 0 has coefficient 0 on every route
    d_diff = (
        0.0 if S is T else ergodicity_coefficient(diff, P, space=space, seed=seed).value
    )
    nrm_diff = operator_norm(diff, space)
    out.append(
        PropertyCheck(
            "difference-lipschitz",
            True,
            abs(dT - dS) <= d_diff + tol and d_diff <= nrm_diff + tol,
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
