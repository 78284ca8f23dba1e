"""Spectral side of ergodicity: eigenvalues, rates, and classification.

Uniform ergodicity of a Markov operator T toward a Markov projection P is
characterized three ways, checked independently: the power norms
norm(T^n - P) go to 0; some power has kernel coefficient below 1; the
spectral radius of T - P is below 1.  The subdominant eigenvalue modulus
of T equals that spectral radius for uniformly ergodic instances, which
is what makes eigenvalues usable as convergence-rate predictions.

Eigenvalues come from LAPACK's dense unsymmetric solver (balancing,
Hessenberg reduction, shifted QR); failures surface as EigenSolverError,
never silently.  Everything else is exact polytope-norm arithmetic.

Which eigenvalues belong to P is a count, not a tolerance.  For a member
(TP = PT = P), spec T = {1}^rank P + spec(T on ker P) and
spec(T - P) = {0}^rank P + spec(T on ker P), so ``_without_nearest`` drops
the rank P = trace P eigenvalues nearest 1 (or 0) and keeps the rest; an
eigenvalue at 1 beyond rank P stays in view as a subdominant modulus of 1.

``classify`` gives an instance's one ``(verdict, report)``: the report
holds the spectra of T and T - P, the verdict the membership defects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .coefficients import CoefficientResult, ergodicity_coefficient
from .errors import EigenSolverError, PreconditionError
from .operators import (
    MarkovOperator,
    MarkovProjection,
    VALIDATION_TOL,
    commutes,
    fixes_projection,
    operator_norm,
)

UNIT_EIG_TOL = 1e-8  # "this number reads as 1": one_isolated and at_tolerance
RADIUS_THRESHOLD = 1 - 1e-10  # strictly-below-one cutoff for classification
SQUARING_CAP = 48


def eigenvalues(matrix) -> np.ndarray:
    """All complex eigenvalues with multiplicity."""
    try:
        return np.linalg.eigvals(np.asarray(matrix, dtype=float))
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise EigenSolverError(f"eigenvalue computation failed: {exc}") from exc


def spectral_radius(matrix) -> float:
    e = eigenvalues(matrix)
    return float(np.abs(e).max()) if e.size else 0.0


def powers(A: np.ndarray, N: int):
    """Yield (n, A^n) for n = 1..N, each power the product A^(n-1) @ A.

    The step-by-step power loops read this one scan, so all see the same
    floats; a consumer that breaks off builds nothing past its last power.
    """
    Tn = A.copy()
    for n in range(1, N + 1):
        yield n, Tn
        if n < N:
            Tn = Tn @ A


def _scaled_power_logs(E: np.ndarray, scale, N: int):
    """Yield log scale(E^n) for n = 1..N, or None from the first zero power on.

    The powers are normalized products E (E^(n-1) / s) with the positive
    homogeneous scale s carried in logs, so magnitudes far below the float
    resolution of the raw powers stay accurate.
    """
    Y = E.copy()
    log_scale = 0.0
    for n in range(1, N + 1):
        s = scale(Y)
        if s <= 0.0:
            # nilpotent restriction: every later power is exactly zero too
            for _ in range(n, N + 1):
                yield None
            return
        yield log_scale + math.log(s)
        if n < N:
            Y = E @ (Y / s)
            log_scale += math.log(s)


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: tuple
    residual_radius: float  # spectral radius of T - P
    subdominant_radius: float  # max |eig| of T without its rank P eigenvalues nearest 1
    one_isolated: bool
    isolation_distance: float
    gap_norm: float  # norm of T(I - P)
    spectrum_T: tuple  # eigenvalues of T, in LAPACK's order
    spectrum_T_minus_P: tuple  # eigenvalues of T - P, in LAPACK's order


@dataclass(frozen=True)
class ClauseResult:
    name: str
    applicable: bool
    holds: bool | None
    detail: dict


@dataclass(frozen=True)
class ErgodicityVerdict:
    uniform: bool | None
    weak: bool | None
    witness_n0: int | None
    clauses: tuple[ClauseResult, ...]
    consistent: bool
    fixes_defect: float  # norm of TP - P
    commute_defect: float  # norm of TP - PT

    @property
    def member(self) -> bool:
        """TP = PT = P, read off the two defects as ``membership`` decides it."""
        return self.fixes_defect <= VALIDATION_TOL and self.commute_defect <= VALIDATION_TOL


Classification = tuple[ErgodicityVerdict, SpectralReport]  # what ``classify`` returns


def _without_nearest(spec: np.ndarray, target: float, k: int) -> np.ndarray:
    """``spec`` without its k entries nearest ``target``; the rest keep their order.

    With k = rank P this is the one place that decides which eigenvalues
    are P's."""
    drop = np.argsort(np.abs(spec - target), kind="stable")[:k]
    return np.delete(spec, drop)


def spectral_report(T: MarkovOperator, P: MarkovProjection) -> SpectralReport:
    A = np.asarray(T.matrix)
    Pm = np.asarray(P.matrix)
    eigs = eigenvalues(A)
    shifted = eigenvalues(A - Pm)
    away = _without_nearest(eigs, 1.0, P.rank())
    sub = float(np.abs(away).max(initial=0.0))
    iso = float(np.abs(away - 1.0).min(initial=math.inf))
    comp = np.eye(T.space.dim) - Pm
    return SpectralReport(
        eigenvalues=tuple(sorted(eigs, key=lambda z: (-abs(z), z.real, z.imag))),
        residual_radius=float(np.abs(shifted).max()),
        subdominant_radius=sub,
        one_isolated=iso > UNIT_EIG_TOL,
        isolation_distance=iso,
        gap_norm=operator_norm(A @ comp, T.space),
        spectrum_T=tuple(eigs),
        spectrum_T_minus_P=tuple(shifted),
    )


def _dips(log_norm: float, d: float, power: int, theta: float) -> bool:
    """The squaring extension's dip test on delta_P(T^power) = exp(log_norm) * d.

    Its per-power rate below log(theta) still implies a value below 1.
    """
    return d == 0.0 or (log_norm + math.log(max(d, 1e-300))) / power < math.log(theta)


def classify(
    T: MarkovOperator,
    P: MarkovProjection,
    tolerance: float = 1e-9,
    max_power: int = 64,
    *, delta: CoefficientResult | None = None,
) -> Classification:
    """Evaluate the three equivalent ergodicity clauses independently.

    Clause power-norms follows the trail norm(T^n - P) for n <= max_power;
    when T fixes and commutes with P this extends by repeated squaring of
    T^max_power - P (valid because then (T - P)^n = T^n - P), with norms
    tracked in log scale to survive underflow.  Clause coefficient-dip
    searches for a power whose kernel coefficient drops below 1, reading the
    upper side of a Monte-Carlo bracket; a bracket straddling the threshold
    leaves the clause undecided (None) and ends the search.  Clause
    residual-radius tests r(T - P) < 1.  Disagreements beyond tolerance
    are flagged via ``consistent``, never reconciled silently.  ``delta``,
    the caller's ``ergodicity_coefficient(T, P)``, is read as the scan's
    n = 1 term in place of a second computation.
    """
    space = T.space
    A = np.asarray(T.matrix)
    Pm = np.asarray(P.matrix)
    report = spectral_report(T, P)

    fixes_ok, fix_defect = fixes_projection(T, P)
    comm_ok, comm_defect = commutes(T, P)
    member = fixes_ok and comm_ok
    theta = RADIUS_THRESHOLD

    norms = []
    converged_n = None
    geometric_n = None
    dip_n = None
    # a dip needs the bracket's upper side below theta; one that straddles
    # theta leaves the clause undecided and ends the coefficient scan
    dip_undecided = False
    dip_done = False
    for n, Tn in powers(A, max_power):
        nrm = operator_norm(Tn - Pm, space)
        norms.append(nrm)
        if converged_n is None and nrm <= tolerance:
            converged_n = n
        if geometric_n is None and nrm < theta:
            geometric_n = n
        if not dip_done and fixes_ok:
            d = (delta if n == 1 and delta is not None
                 else ergodicity_coefficient(Tn, P, space=space))
            if d.upper_bound < theta:
                dip_n = n
            elif d.value < theta:
                dip_undecided = True
            dip_done = dip_n is not None or dip_undecided
        if converged_n is not None and (dip_done or not fixes_ok):
            break

    need_extension = member and converged_n is None and (
        geometric_n is None or not dip_done
    )
    extension_floor = None
    if need_extension:
        # T^max_power may not have been reached if we broke early; it cannot
        # happen here because breaking early requires converged_n.
        E = Tn - Pm
        scale = norms[-1]
        if scale > 0:
            log_norm = math.log(scale)
            e = E / scale
            power = max_power
            for _ in range(SQUARING_CAP):
                e2 = e @ e
                m = operator_norm(e2, space)
                power *= 2
                if m == 0.0:
                    converged_n = converged_n or power
                    dip_n = dip_n or power
                    break
                log_norm = 2.0 * log_norm + math.log(m)
                e = e2 / m
                # Squaring compounds rounding multiplicatively: comparing the
                # accumulated log against log(theta) directly would misread a
                # radius-1 instance as decaying once the ~eps deficit has been
                # squared often enough.  The per-power rate estimate keeps
                # that drift at ~eps/max_power per unit power, far inside
                # theta's margin, and rate < theta still implies a genuine
                # norm (or coefficient) value below 1 at this power.
                if geometric_n is None and log_norm / power < math.log(theta):
                    geometric_n = power
                if not dip_done:
                    d = ergodicity_coefficient(e, P, space=space)
                    if _dips(log_norm, d.upper_bound, power, theta):
                        dip_n = power
                    elif _dips(log_norm, d.value, power, theta):
                        dip_undecided = True
                    dip_done = dip_n is not None or dip_undecided
                if tolerance > 0 and log_norm < math.log(tolerance):
                    converged_n = converged_n or power
                if geometric_n is not None and dip_done:
                    break
            else:
                extension_floor = math.exp(log_norm / power)

    if converged_n is not None or (member and geometric_n is not None):
        clause1_holds = True
    elif member:
        clause1_holds = False
    else:
        clause1_holds = None  # trail inconclusive, no power identity to extend with
    clause1 = ClauseResult(
        "power-norms",
        True,
        clause1_holds,
        {
            "trail_min": min(norms),
            "converged_at": converged_n,
            "below_one_at": geometric_n,
            "extension_radius_floor": extension_floor,
            "at_tolerance": extension_floor is not None
            and abs(extension_floor - 1.0) <= UNIT_EIG_TOL,
        },
    )

    clause2 = ClauseResult(
        "coefficient-dip",
        fixes_ok,
        None if not fixes_ok or (dip_undecided and dip_n is None)
        else dip_n is not None,
        {"witness_n0": dip_n, "fixes_defect": fix_defect},
    )

    r = report.residual_radius
    clause3 = ClauseResult(
        "residual-radius",
        True,
        fixes_ok and r < theta,
        {"residual_radius": r, "fixes_defect": fix_defect,
         "at_tolerance": abs(r - 1.0) <= UNIT_EIG_TOL},
    )

    votes = [c.holds for c in (clause1, clause2, clause3) if c.applicable and c.holds is not None]
    consistent = len(set(votes)) <= 1
    uniform = votes[0] if votes and consistent else None
    if uniform is True:
        weak = True
    elif member:
        weak = r < theta
    else:
        weak = uniform
    verdict = ErgodicityVerdict(
        uniform=uniform,
        weak=weak,
        witness_n0=dip_n,
        clauses=(clause1, clause2, clause3),
        consistent=consistent,
        fixes_defect=fix_defect,
        commute_defect=comm_defect,
    )
    return verdict, report


def best_rate(
    T: MarkovOperator, P: MarkovProjection,
    *, classification: Classification | None = None,
) -> float:
    """Optimal geometric convergence rate of norm(T^n - P).

    Computed twice, as the subdominant eigenvalue modulus of T and as the
    spectral radius of T - P; the two must agree within 1e-8 (that identity
    is what licenses reading rates off the spectrum), and EigenSolverError
    reports a mismatch.  Refuses instances that are not uniformly ergodic,
    where the quantity has no rate meaning.  ``classification``: the
    caller's ``classify(T, P)``, if it holds one.
    """
    verdict, report = classification or classify(T, P)
    if verdict.uniform is not True:
        raise PreconditionError(
            "best_rate is only meaningful for uniformly ergodic instances"
        )
    a, b = report.subdominant_radius, report.residual_radius
    if abs(a - b) > 1e-8:
        raise EigenSolverError(
            f"rate mismatch: subdominant modulus {a!r} vs residual radius {b!r}"
        )
    return report.residual_radius


@dataclass(frozen=True)
class GelfandTrail:
    """The one trail of d_n = delta_P(T^n): Gelfand reads its roots,
    multiplicativity reads d_n against d_1^n."""

    coefficients: tuple   # d_n = delta_P(T^n) for n = 1..N
    values: tuple         # d_n^(1/n) for n = 1..N
    residual_radius: float
    all_above: bool       # every root >= r - 1e-9 (r is also the infimum)

    def multiplicativity(self, N: int | None = None) -> MultiplicativityReport:
        """d_n = d_1^n for n <= N (default: all) iff d_1 = r(T - P); both
        sides are read independently, each within 1e-8, and ``agree`` says
        whether they match."""
        ds = self.coefficients[:N]
        d1, r = ds[0], self.residual_radius
        left = abs(d1 - r) <= 1e-8
        worst = max(abs(dn - d1**n) for n, dn in enumerate(ds, start=1))
        right = worst <= 1e-8
        return MultiplicativityReport(d1, r, left, right, left == right, worst)


def gelfand_trail(
    T: MarkovOperator, P: MarkovProjection, N: int = 30,
    *, classification: Classification | None = None,
) -> GelfandTrail:
    """The trail d_n = delta_P(T^n), n = 1..N, whose roots decrease to r(T-P).

    The powers are accumulated as normalized products of T - P with the
    scale carried in logs: raw powers of a fast-mixing chain reach their
    float fixed point (all columns bitwise equal) long before n = 30, and
    the trail would then read an exact 0 far above the true magnitude.
    Membership TP = PT = P makes the normalized product equal T^n - P,
    which agrees with T^n on ker P, so it is also the precondition here
    (PreconditionError otherwise).  ``classification`` as in ``best_rate``.
    """
    verdict, report = classification or classify(T, P)
    fd, cd = verdict.fixes_defect, verdict.commute_defect
    if not verdict.member:
        raise PreconditionError(
            f"gelfand_trail needs TP=P and PT=TP (defects {fd:.2e}, {cd:.2e})"
        )
    E = np.asarray(T.matrix) - np.asarray(P.matrix)
    r = report.residual_radius
    logs = list(
        _scaled_power_logs(E, lambda Y: ergodicity_coefficient(Y, P, space=T.space).value, N)
    )
    ds = tuple(math.exp(v) if v is not None else 0.0 for v in logs)
    vals = tuple(math.exp(v / n) if v is not None else 0.0 for n, v in enumerate(logs, start=1))
    return GelfandTrail(ds, vals, r, all(v >= r - 1e-9 for v in vals))


@dataclass(frozen=True)
class SpectrumShiftReport:
    max_match_distance: float
    ok: bool


def spectrum_shift_check(
    T: MarkovOperator, P: MarkovProjection,
    *, classification: Classification | None = None,
) -> SpectrumShiftReport:
    """Subtracting P only moves P's eigenvalues, from 1 to 0.

    spec T without its rank P eigenvalues nearest 1 must coincide, as a
    multiset, with spec(T - P) without its rank P eigenvalues nearest 0;
    matching is a min-cost assignment on pairwise distances in the complex
    plane, judged by the largest matched distance (at most 1e-7).
    ``classification`` as in ``best_rate``: its report holds both spectra.
    """
    _, report = classification or classify(T, P)
    k = P.rank()
    a = _without_nearest(np.asarray(report.spectrum_T), 1.0, k)
    b = _without_nearest(np.asarray(report.spectrum_T_minus_P), 0.0, k)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max(initial=0.0))
    return SpectrumShiftReport(worst, worst <= 1e-7)


@dataclass(frozen=True)
class MultiplicativityReport:
    coefficient: float
    residual_radius: float
    coefficient_equals_radius: bool
    powers_multiplicative: bool
    agree: bool
    worst_power_gap: float


def multiplicativity_test(
    T: MarkovOperator, P: MarkovProjection, N: int = 10
) -> MultiplicativityReport:
    """The coefficient powers multiply exactly iff the coefficient equals r(T-P).

    Reads ``gelfand_trail(T, P, N)``, so it needs TP = PT = P and raises
    PreconditionError otherwise; see ``GelfandTrail.multiplicativity``.
    """
    return gelfand_trail(T, P, N).multiplicativity()


@dataclass(frozen=True)
class TensorRateReport:
    lhs: float  # r(S x T - Q x P)
    rhs: float  # max of factor rates
    factor_rates: tuple
    ok: bool
    tight: bool


def tensor_rate_bound(
    S: MarkovOperator,
    Q: MarkovProjection,
    T: MarkovOperator,
    P: MarkovProjection,
    tol: float = 1e-9,
    *, classifications: tuple[Classification, Classification] | None = None,
) -> TensorRateReport:
    """Product-chain rate never exceeds the worst factor rate.

    Requires both factors uniformly ergodic; the proof's annihilation
    identities ((S-Q)Q = Q(S-Q) = 0 and likewise for T, P) are rechecked
    here since they are exactly the membership conditions SQ=QS=Q and
    TP=PT=P.  Each factor's defects and rate come from its classification,
    the caller's ``classifications=(classify(S, Q), classify(T, P))`` if given.
    The product radius is read from the Kronecker matrices
    ``np.kron(S, T) - np.kron(Q, P)`` alone, so any two member factors serve:
    no product space and no structured form of Q (x) P is needed.
    """
    left, right = classifications or (classify(S, Q), classify(T, P))
    rates = []
    for op, proj, (verdict, report), tag in ((S, Q, left, "left"), (T, P, right, "right")):
        if verdict.uniform is not True:
            raise PreconditionError(f"{tag} factor is not uniformly ergodic")
        fd, cd = verdict.fixes_defect, verdict.commute_defect
        rev = operator_norm(
            np.asarray(proj.matrix) @ np.asarray(op.matrix) - np.asarray(proj.matrix),
            op.space,
        )
        if not verdict.member or rev > VALIDATION_TOL:
            raise PreconditionError(
                f"{tag} factor breaks the annihilation identities "
                f"(defects {fd:.2e}, {cd:.2e}, {rev:.2e})"
            )
        rates.append(report.residual_radius)
    rS, rT = rates
    lhs = spectral_radius(np.kron(S.matrix, T.matrix) - np.kron(Q.matrix, P.matrix))
    rhs = max(rS, rT)
    return TensorRateReport(lhs, rhs, (rS, rT), lhs <= rhs + tol, abs(lhs - rhs) <= tol)


@dataclass(frozen=True)
class RateProfile:
    norms: tuple    # norm(T^n - P) for n = 1..N
    alphas: tuple   # norm(T^n - P)^(1/n) - rate, converging to 0 for members
    rate: float     # r(T - P)
    fitted_C: float | None  # log-least-squares prefactor over the tail; None off members


def rate_profile(
    T: MarkovOperator, P: MarkovProjection, N: int = 40,
    *, classification: Classification | None = None,
) -> RateProfile:
    """Empirical power-norm decay against the spectral rate prediction.

    Members (TP = PT = P) get their power norms from normalized products
    of T - P with the scale tracked in logs (``_scaled_power_logs``), and a
    prefactor fitted to them against r(T - P).  For a non-member r(T - P)
    is no rate of T^n - P (the product identity is unavailable), so the
    norms come from direct powers of T and no prefactor is fitted.
    ``classification`` as in ``best_rate``.
    """
    verdict, report = classification or classify(T, P)
    A = np.asarray(T.matrix)
    Pm = np.asarray(P.matrix)
    E = A - Pm
    r = report.residual_radius
    # None encodes an exactly zero power
    member = verdict.member
    if member:
        log_norms = list(_scaled_power_logs(E, lambda Y: operator_norm(Y, T.space), N))
    else:
        direct = (operator_norm(Tn - Pm, T.space) for _, Tn in powers(A, N))
        log_norms = [math.log(m) if m > 0 else None for m in direct]
    norms = tuple(math.exp(v) if v is not None else 0.0 for v in log_norms)
    alphas = tuple(
        math.exp(v / n) - r if v is not None else -r
        for n, v in enumerate(log_norms, start=1)
    )
    if not member:
        return RateProfile(norms, alphas, r, None)
    tail = [
        v - n * math.log(r)
        for n, v in enumerate(log_norms, start=1)
        if n >= max(1, N // 2) and v is not None and r > 0
    ]
    fitted_C = math.exp(sum(tail) / len(tail)) if tail else 0.0
    return RateProfile(norms, alphas, r, fitted_C)
