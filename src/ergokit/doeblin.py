"""Doeblin-type minorization certificates for simplex Markov operators.

Two certificate families witness uniform ergodicity.  The minorization
certificate exhibits tau, n0, a sub-projection Q of P and small cone
correctors phi_x with T^n0 x + phi_x >= tau Q x and sup norm(phi_x) <=
tau/4; its existence is equivalent to uniform P-ergodicity and implies
the coefficient bound delta_P(T^n0) <= 1 - tau/2.  The overlap
certificate exhibits common lower bounds u_x <= T^n0 x, u_x <= Q x of
mass above 1/2; it is sufficient (not necessary) and implies
delta_P(T^n0) <= 2(1 - lambda).

Both conditions quantify over every state x in K; everything here reduces
that to the finitely many base vertices, with the convexity/concavity
justification stated at the reduction site.  The coordinate lattice is
essential (positive parts, componentwise minima), so these routines are
simplex-only and refuse embedded spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .coefficients import ergodicity_coefficient
from .errors import PreconditionError, UnsupportedSpaceError
from .operators import (
    MarkovOperator,
    MarkovProjection,
    membership,
    operator_norm,
    rank_one_projection,
    sub_projection,
)
from .spectral import powers

TAU_FLOOR = 1e-6
CONE_SLACK = 1e-10
# entries per stacked (power, Q) array in one chunk of the certificate search
_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True, eq=False)
class DoeblinCertificate:
    """Minorization witness; phi_table row i is the corrector at vertex i."""

    tau: float
    n0: int
    Q: MarkovProjection
    phi_table: np.ndarray
    sup_phi_norm: float


@dataclass(frozen=True, eq=False)
class DStarCertificate:
    """Overlap witness; u_table row i is the common minorant at vertex i."""

    overlap: float
    n0: int
    Q: MarkovProjection
    u_table: np.ndarray


@dataclass(frozen=True, eq=False)
class MinorizationOutcome:
    feasible: bool
    tau: float
    certificate: DoeblinCertificate | None
    implied_bound: float  # 1 - tau/2
    actual_coefficient: float  # delta_P(T^n0)
    bound_holds: bool


@dataclass(frozen=True, eq=False)
class OverlapOutcome:
    feasible: bool
    overlap: float
    certificate: DStarCertificate | None
    implied_bound: float  # 2(1 - lambda)
    actual_coefficient: float
    bound_holds: bool


def _require_simplex(space) -> None:
    if not space.is_lattice:
        raise UnsupportedSpaceError(
            "Doeblin certificates need the coordinate lattice (simplex-like space)"
        )


def _require_membership(T: MarkovOperator, P: MarkovProjection) -> None:
    ok, fd, cd = membership(T, P)
    if not ok:
        raise PreconditionError(
            f"need TP=PT=P (defects: fix {fd:.2e}, commute {cd:.2e})"
        )


def _gap(tau, Qm: np.ndarray, Tn: np.ndarray):
    """g(tau) = max over vertices of norm((tau Q e_i - T^n0 e_i)_+) - tau/4.

    Batched over leading axes: tau of shape S needs Qm and Tn broadcasting
    to S + (n, n).  Every batch entry sums its columns over the same axis in
    the same order, so it is the float a lone (n, n) call gives.
    """
    tau = np.asarray(tau, dtype=float)
    excess = np.subtract(tau[..., None, None] * Qm, Tn)
    return np.maximum(excess, 0.0, out=excess).sum(axis=-2).max(axis=-1) - 0.25 * tau


def _max_tau(Tc: np.ndarray, Qm: np.ndarray) -> np.ndarray:
    """Largest sound tau in [0, 1] for each (power, Q) pair, shape (c, K).

    Tc stacks c powers and Qm stacks K candidates, each (n, n).
    """
    # Vertex reduction: for fixed tau, x -> norm((tau Qx - T^n0 x)_+) is convex
    # on K (positive part of an affine image, summed), so its sup over K is
    # attained at a base vertex and checking columns suffices.
    #
    # Column i's gap h(tau) = sum_j (tau q_j - t_j)_+ - tau/4 equals the max
    # over subsets S of tau (q_S - 1/4) - t_S, so h <= 0 exactly when
    # tau <= t_S / (q_S - 1/4) for every S with q_S > 1/4.  At any tau the
    # maximizing S is {j : t_j / q_j < tau}, a prefix of the breakpoints
    # t_j / q_j in sorted order (rows with q_j = 0 sort last), so the prefix
    # constraints alone decide h <= 0: tau_i* = min over prefixes k with
    # Q_k > 1/4 of T_k / (Q_k - 1/4), from the prefix sums Q_k and T_k.
    # Then tau* = min(1, min_i tau_i*), with no bisection.
    Tt = np.swapaxes(Tc, -1, -2)[:, None]  # row i: column i of the power
    Qt = np.swapaxes(Qm, -1, -2)[None]
    Tb, Qb = np.broadcast_arrays(Tt, Qt)
    ratio = np.divide(Tb, Qb, out=np.full(Tb.shape, np.inf), where=Qb > 0.0)
    order = np.argsort(ratio, axis=-1, kind="stable")
    Tk = np.take_along_axis(Tb, order, axis=-1)
    Qk = np.take_along_axis(Qb, order, axis=-1)
    np.cumsum(Tk, axis=-1, out=Tk)
    np.cumsum(Qk, axis=-1, out=Qk)
    Qk -= 0.25
    ratio.fill(np.inf)  # now the roots T_k / (Q_k - 1/4)
    np.divide(Tk, Qk, out=ratio, where=Qk > 0.0)
    tau = np.minimum(ratio.min(axis=(-2, -1)), 1.0)
    tau[_gap(1.0, Qm, Tc[:, None]) <= 0.0] = 1.0
    # The rounded root can sit a few ulps past the float boundary of g, so
    # step each such tau down until g(tau) <= 0 holds as computed; after 16
    # ulps the step doubles, and g(0) = 0 ends the walk in any case.
    ci, ki = np.nonzero(_gap(tau, Qm, Tc[:, None]) > 0.0)
    step = 0
    while ci.size:
        t = tau[ci, ki]
        if step < 16:
            t = np.nextafter(t, 0.0)
        else:
            t = np.maximum(t - np.spacing(t) * 2.0 ** (step - 15), 0.0)
        tau[ci, ki] = t
        keep = _gap(t, Qm[ki], Tc[ci]) > 0.0
        ci, ki = ci[keep], ki[keep]
        step += 1
    return tau


def _minorization_outcome(
    Tn: np.ndarray, delta: float, Q: MarkovProjection, n0: int, tau: float
) -> MinorizationOutcome:
    if tau <= TAU_FLOOR:
        return MinorizationOutcome(False, tau, None, 1.0, delta, True)
    # row i: the corrector at vertex i
    phi = np.maximum(tau * np.asarray(Q.matrix) - Tn, 0.0).T
    cert = DoeblinCertificate(tau, n0, Q, phi, float(phi.sum(axis=1).max()))
    implied = 1.0 - 0.5 * tau
    return MinorizationOutcome(True, tau, cert, implied, delta, delta <= implied + 1e-9)


def _power_and_delta(
    T: MarkovOperator, P: MarkovProjection, Q: MarkovProjection, n0: int
) -> tuple[np.ndarray, float]:
    """T^n0 and delta_P(T^n0), after the checks both single-power entry points make."""
    _require_simplex(T.space)
    _require_membership(T, P)
    if not sub_projection(Q, P):
        raise PreconditionError("Q is not a sub-projection of P (QP = PQ = Q fails)")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    Tn = np.linalg.matrix_power(np.asarray(T.matrix), n0)
    return Tn, ergodicity_coefficient(Tn, P, space=T.space).value


def max_minorization_weight(
    T: MarkovOperator, P: MarkovProjection, Q: MarkovProjection, n0: int
) -> MinorizationOutcome:
    """Largest tau in (0, 1] making the minorization condition hold at power n0.

    Requires Q <= P in the projection order and TP = PT = P.  Infeasible
    below tau = 1e-6 is reported, not raised.
    """
    Tn, delta = _power_and_delta(T, P, Q, n0)
    tau = float(_max_tau(Tn[None], np.asarray(Q.matrix)[None])[0, 0])
    return _minorization_outcome(Tn, delta, Q, n0, tau)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    ok: bool
    violations: tuple[str, ...]
    implied_bound: float
    actual_coefficient: float
    bound_holds: bool
    power: np.ndarray  # the recomputed T^n0, which the audit read


def verify_certificate(
    cert: DoeblinCertificate, T: MarkovOperator, P: MarkovProjection, *, seed: int = 0
) -> CertificateReport:
    """Re-verify a minorization certificate from scratch.

    Recomputes the power, the cone inequalities, the corrector budget and
    the sub-projection order independently of how the certificate was
    produced, and checks the implied coefficient bound against the exact
    coefficient (``seed`` seeds its sampling fallback, past the exact routes).
    """
    _require_simplex(T.space)
    violations = []
    if not (0.0 < cert.tau <= 1.0):
        violations.append(f"tau {cert.tau!r} outside (0, 1]")
    if cert.n0 < 1:
        violations.append(f"n0 {cert.n0!r} not a positive integer")
    if not sub_projection(cert.Q, P):
        violations.append("Q is not a sub-projection of P")
    Tn = np.linalg.matrix_power(np.asarray(T.matrix), max(cert.n0, 1))
    Qm = np.asarray(cert.Q.matrix)
    phi = np.asarray(cert.phi_table)
    if phi.shape != (T.space.dim, T.space.dim):
        violations.append("phi_table has the wrong shape")
    else:
        if phi.min() < -CONE_SLACK:
            violations.append("a corrector phi_x leaves the cone")
        slack = (Tn + phi.T - cert.tau * Qm).min()
        if slack < -CONE_SLACK:
            violations.append(
                f"minorization inequality fails at a vertex (worst entry {slack:.3e})"
            )
        sup_phi = float(phi.sum(axis=1).max())
        if abs(sup_phi - cert.sup_phi_norm) > 1e-9:
            violations.append("recorded sup_phi_norm does not match the table")
        if sup_phi > 0.25 * cert.tau + CONE_SLACK:
            violations.append(
                f"corrector budget exceeded: sup norm(phi) = {sup_phi:.3e} "
                f"> tau/4 = {0.25 * cert.tau:.3e}"
            )
    delta = ergodicity_coefficient(Tn, P, space=T.space, seed=seed).value
    implied = 1.0 - 0.5 * cert.tau
    bound_holds = delta <= implied + 1e-9
    if not bound_holds:
        violations.append("implied coefficient bound 1 - tau/2 fails")
    return CertificateReport(
        not violations, tuple(violations), implied, delta, bound_holds, Tn
    )


def _overlap_given_power(
    Tn: np.ndarray, delta: float, Q: MarkovProjection, n0: int
) -> OverlapOutcome:
    Qm = np.asarray(Q.matrix)
    # The best common minorant of T^n0 x and Qx in the lattice is their
    # componentwise minimum; x -> f(min(T^n0 x, Qx)) is concave on K (a sum
    # of minima of linear functionals), so its minimum over K sits at a base
    # vertex and scanning columns is exact.
    U = np.minimum(Tn, Qm)
    lam = float(U.sum(axis=0).min())
    implied = 2.0 * (1.0 - lam)
    if lam > 0.5 + CONE_SLACK:
        cert = DStarCertificate(lam, n0, Q, U.T)
        return OverlapOutcome(True, lam, cert, implied, delta, delta <= implied + 1e-9)
    return OverlapOutcome(False, lam, None, implied, delta, True)


def overlap_certificate(
    T: MarkovOperator, P: MarkovProjection, Q: MarkovProjection, n0: int
) -> OverlapOutcome:
    """Best overlap mass at power n0, with a certificate when it beats 1/2.

    The threshold is strict: lambda must exceed 1/2 (the sufficiency proof
    needs 2(1 - lambda) < 1).
    """
    Tn, delta = _power_and_delta(T, P, Q, n0)
    return _overlap_given_power(Tn, delta, Q, n0)


def certificate_from_convergence(
    T: MarkovOperator, P: MarkovProjection, n0_cap: int = 200
) -> DoeblinCertificate:
    """Build a certificate from uniform ergodicity (tau = 1, Q = P).

    Takes the first power whose columns are within 1/4 of the projection
    columns (x -> norm(T^n0 x - Px) is convex, so the vertex max bounds the
    sup over K) and absorbs the deviation into phi_x, the negative part of
    T^n0 x - Px.
    Only membership TP = PT = P is checked up front: for a member, the stop
    norm(T^n0 - P) <= 1/4 gives norm(T^(k n0) - P) <= 4^-k, so reaching it
    witnesses uniform ergodicity.
    """
    _require_simplex(T.space)
    _require_membership(T, P)
    Pm = np.asarray(P.matrix)
    for n0, Tn in powers(np.asarray(T.matrix), n0_cap):
        resid = Tn - Pm
        if operator_norm(resid, T.space) <= 0.25:
            phi = np.maximum(-resid, 0.0).T
            return DoeblinCertificate(1.0, n0, P, phi, float(phi.sum(axis=1).max()))
    raise PreconditionError(
        f"power norms did not reach 1/4 within n0_cap={n0_cap}: the instance is "
        "not uniformly ergodic, or mixes too slowly for this cap (raise the cap)"
    )


def default_q_candidates(P: MarkovProjection) -> list[MarkovProjection]:
    """P itself plus the rank-one projections onto its distinct column images."""
    space = P.space
    out = [P]
    seen = set()
    for i in range(space.dim):
        y = np.asarray(P.matrix)[:, i]
        key = tuple(np.round(y, 12))
        if key in seen:
            continue
        seen.add(key)
        Q = rank_one_projection(space, y)
        if np.abs(Q.matrix - P.matrix).max() > 1e-12:
            out.append(Q)
    return out


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    minorization: MinorizationOutcome | None
    overlap: OverlapOutcome | None
    exhausted_minorization: bool
    exhausted_overlap: bool
    n0_cap: int
    diagnostic: str


def _better(best, scores: np.ndarray, chunk: list) -> tuple:
    """best, or the chunk's first top (power, Q) pair if it scores strictly higher."""
    i, k = np.unravel_index(np.argmax(scores), scores.shape)
    if scores[i, k] > best[0]:
        n0, Tn = chunk[i]
        return float(scores[i, k]), n0, int(k), Tn
    return best


def search_certificates(
    T: MarkovOperator,
    P: MarkovProjection,
    n0_cap: int = 200,
    Q_candidates: list[MarkovProjection] | None = None,
    *,
    seed: int = 0,
) -> SearchOutcome:
    """Grid search over powers and sub-projections for both certificates.

    Returns the minorization outcome maximizing tau and the overlap outcome
    maximizing lambda; ties resolve to the smaller n0, then to the earlier
    Q candidate, so results are deterministic.

    The powers are scanned in chunks of at most _CHUNK_ELEMENTS entries per
    stacked (power, Q) array (and at least one power), each chunk in one
    vectorized pass: lambda is the least column mass of min(T^n0, Q), and
    tau comes from the breakpoint prefixes of ``_max_tau``.  Once a chunk
    reaches tau = 1 no later power can beat it, since ties go to the
    smaller n0, so later chunks solve lambda only.  delta_P(T^n0) is
    computed for the winning powers alone, the only ones an outcome prints;
    ``seed`` seeds its sampling fallback, past the exact routes.
    """
    _require_simplex(T.space)
    _require_membership(T, P)
    if Q_candidates is None:
        Q_candidates = default_q_candidates(P)
    for Q in Q_candidates:
        if not sub_projection(Q, P):
            raise PreconditionError("a Q candidate is not a sub-projection of P")
    # the winners so far, as (score, n0, Q index, T^n0)
    best_min = best_over = (-np.inf, 0, 0, None)
    if Q_candidates:
        Qm = np.stack([np.asarray(Q.matrix) for Q in Q_candidates])
        per_chunk = max(1, _CHUNK_ELEMENTS // Qm.size)
        scan = powers(np.asarray(T.matrix), n0_cap)
        while chunk := list(islice(scan, per_chunk)):
            Tc = np.stack([Tn for _, Tn in chunk])
            lam = np.minimum(Tc[:, None], Qm).sum(axis=-2).min(axis=-1)
            best_over = _better(best_over, lam, chunk)
            if best_min[0] < 1.0:
                best_min = _better(best_min, _max_tau(Tc, Qm), chunk)
    deltas: dict[int, float] = {}

    def delta(n0: int, Tn: np.ndarray) -> float:
        if n0 not in deltas:
            deltas[n0] = ergodicity_coefficient(Tn, P, space=T.space, seed=seed).value
        return deltas[n0]

    m = o = None
    tau, n0, k, Tn = best_min
    if tau > TAU_FLOOR:
        m = _minorization_outcome(Tn, delta(n0, Tn), Q_candidates[k], n0, tau)
    lam, n0, k, Tn = best_over
    if lam > 0.5 + CONE_SLACK:
        o = _overlap_given_power(Tn, delta(n0, Tn), Q_candidates[k], n0)
    if m is None:
        diagnostic = (
            f"no minorization certificate up to n0_cap={n0_cap}; the instance "
            "is either not uniformly ergodic or mixes too slowly for this cap "
            "(try a larger n0_cap)"
        )
    else:
        diagnostic = "ok"
    return SearchOutcome(m, o, m is None, o is None, n0_cap, diagnostic)

