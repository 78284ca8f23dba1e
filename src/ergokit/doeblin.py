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

import numpy as np

from .coefficients import ergodicity_coefficient
from .errors import PreconditionError, UnsupportedSpaceError
from .operators import (
    MarkovOperator,
    MarkovProjection,
    membership,
    rank_one_projection,
    sub_projection,
)
from .spectral import powers

TAU_FLOOR = 1e-6
CONE_SLACK = 1e-10


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


def _gap(tau: float, Qm: np.ndarray, Tn: np.ndarray) -> float:
    """g(tau) = max over vertices of norm((tau Q e_i - T^n0 e_i)_+) - tau/4."""
    excess = np.maximum(tau * Qm - Tn, 0.0)
    return float(excess.sum(axis=0).max()) - 0.25 * tau


def _max_tau_given_power(
    Tn: np.ndarray, delta: float, Q: MarkovProjection, n0: int
) -> MinorizationOutcome:
    Qm = np.asarray(Q.matrix)
    # Vertex reduction: for fixed tau, x -> norm((tau Qx - T^n0 x)_+) is convex
    # on K (positive part of an affine image, summed), so its sup over K is
    # attained at a base vertex and checking columns suffices.
    #
    # In tau, each entry tau -> (tau q - t)_+ is convex and g(0) = 0 because
    # Markov columns are already in the cone; so {g <= 0} is an interval
    # [0, tau*] and bisection against its boundary is exact.
    if _gap(1.0, Qm, Tn) <= 0.0:
        tau = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _gap(mid, Qm, Tn) <= 0.0:
                lo = mid
            else:
                hi = mid
        tau = lo
    if tau <= TAU_FLOOR:
        return MinorizationOutcome(False, tau, None, 1.0, delta, True)
    phi = np.maximum(tau * Qm - Tn, 0.0).T  # row i: corrector at vertex i
    cert = DoeblinCertificate(tau, n0, Q, phi, float(phi.sum(axis=1).max()))
    implied = 1.0 - 0.5 * tau
    return MinorizationOutcome(True, tau, cert, implied, delta, delta <= implied + 1e-9)


def max_minorization_weight(
    T: MarkovOperator, P: MarkovProjection, Q: MarkovProjection, n0: int
) -> MinorizationOutcome:
    """Largest tau in (0, 1] making the minorization condition hold at power n0.

    Requires Q <= P in the projection order and TP = PT = P.  Infeasible
    below tau = 1e-6 is reported, not raised.
    """
    _require_simplex(T.space)
    _require_membership(T, P)
    if not sub_projection(Q, P):
        raise PreconditionError("Q is not a sub-projection of P (QP = PQ = Q fails)")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    Tn = np.linalg.matrix_power(np.asarray(T.matrix), n0)
    delta = ergodicity_coefficient(Tn, P, space=T.space).value
    return _max_tau_given_power(Tn, delta, Q, n0)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    ok: bool
    violations: tuple[str, ...]
    implied_bound: float
    actual_coefficient: float
    bound_holds: bool
    power: np.ndarray  # the recomputed T^n0, which the audit read


def verify_certificate(
    cert: DoeblinCertificate, T: MarkovOperator, P: MarkovProjection
) -> CertificateReport:
    """Re-verify a minorization certificate from scratch.

    Recomputes the power, the cone inequalities, the corrector budget and
    the sub-projection order independently of how the certificate was
    produced, and checks the implied coefficient bound against the exact
    coefficient.
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
    delta = ergodicity_coefficient(Tn, P, space=T.space).value
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
    _require_simplex(T.space)
    _require_membership(T, P)
    if not sub_projection(Q, P):
        raise PreconditionError("Q is not a sub-projection of P (QP = PQ = Q fails)")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    Tn = np.linalg.matrix_power(np.asarray(T.matrix), n0)
    delta = ergodicity_coefficient(Tn, P, space=T.space).value
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
        if float(np.abs(resid).sum(axis=0).max()) <= 0.25:
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


def search_certificates(
    T: MarkovOperator,
    P: MarkovProjection,
    n0_cap: int = 200,
    Q_candidates: list[MarkovProjection] | None = None,
) -> SearchOutcome:
    """Grid search over powers and sub-projections for both certificates.

    Returns the minorization outcome maximizing tau and the overlap outcome
    maximizing lambda; ties resolve to the smaller n0, then to the earlier
    Q candidate, so results are deterministic.
    """
    _require_simplex(T.space)
    _require_membership(T, P)
    if Q_candidates is None:
        Q_candidates = default_q_candidates(P)
    for Q in Q_candidates:
        if not sub_projection(Q, P):
            raise PreconditionError("a Q candidate is not a sub-projection of P")
    best_min: MinorizationOutcome | None = None
    best_over: OverlapOutcome | None = None
    for n0, Tn in powers(np.asarray(T.matrix), n0_cap):
        delta = ergodicity_coefficient(Tn, P, space=T.space).value
        for Q in Q_candidates:
            m = _max_tau_given_power(Tn, delta, Q, n0)
            if m.feasible and (best_min is None or m.tau > best_min.tau):
                best_min = m
            o = _overlap_given_power(Tn, delta, Q, n0)
            if o.feasible and (best_over is None or o.overlap > best_over.overlap):
                best_over = o
    if best_min is None:
        diagnostic = (
            f"no minorization certificate up to n0_cap={n0_cap}; the instance "
            "is either not uniformly ergodic or mixes too slowly for this cap "
            "(try a larger n0_cap)"
        )
    else:
        diagnostic = "ok"
    return SearchOutcome(
        best_min,
        best_over,
        best_min is None,
        best_over is None,
        n0_cap,
        diagnostic,
    )
