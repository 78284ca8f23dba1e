"""Named theorem checks over a seeded corpus, with a fault-injection hook.

One loop, in ``_check``, runs every check over its cases.  A case is an
instance (with its position, in mc-lower-bound), except in eigenvalue-bound,
whose cases are (instance, operator) pairs, and tensor-bound, whose cases
are adjacent (left, right) pairs of instances.  A check's verdict maps one
case to nothing or to the detail of that case's one failure, and an
ErgokitError raised for a case fails that case alone, so
``passed + failed`` is the number of cases.  The checks named in
``_POOLED`` run their cases on a thread pool.

Each check validates its hypotheses before trusting any conclusion: the
operator must pass Markov validation, commutation-based results insist on
small membership defects, and the pair formula is refereed over the groups
of equal columns of the projection's own matrix, not over its declared
variant.  That discipline is also what makes the ``corrupt`` hook work:
corrupting a named check appends an instance that silently violates the
generator contract (an unvalidated operator, a mislabeled projection, a
non-mixing chain promised to be ergodic), and a healthy suite must catch
it and report the named check as failing.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .coefficients import (
    CoefficientResult,
    coefficient_inequalities,
    coefficient_lower_bound,
    eigenvalue_bound_check,
    ergodicity_coefficient,
)
from .corpus import (
    Instance,
    block_fixture,
    build_corpus,
    metropolis_matrix,
    permutation_instance,
    recorded_nonmultiplicative_instance,
)
from .doeblin import (
    _overlap_given_power,
    certificate_from_convergence,
    search_certificates,
    verify_certificate,
)
from .errors import ErgokitError, PreconditionError, ValidationError
from .operators import (
    MarkovOperator,
    MarkovProjection,
    _column_types,
    markov_violations,
    operator_norm,
    rank_one_projection,
)
from .spaces import make_simplex
from .spectral import (
    ErgodicityVerdict,
    SpectralReport,
    best_rate,
    classify,
    gelfand_trail,
    powers,
    spectrum_shift_check,
    tensor_rate_bound,
)

MAX_MESSAGES = 8
N0_CAP = 200  # power cap of the convergence certificates
NEGATIVE_CAP = 25  # power cap of the search on chains expected not to mix
TOL = 1e-9  # slack of the theorem inequalities


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; ``passed`` and ``failed`` count its cases."""

    name: str
    passed: int
    failed: int
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def vacuous(self) -> bool:
        """No case met the check's hypotheses, so nothing was tested."""
        return self.passed == 0 and self.failed == 0


@dataclass(frozen=True)
class VerifyContext:
    samples: int = 20_000
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def shared(self, kind: str, inst: Instance):
        """This run's ``_SHARED[kind]`` for inst, or the error it raised, which
        every reader gets; keyed on the Instance object, so a fresh poison
        instance shares none.  The first caller computes, the others wait."""
        held = Future()
        if self._memo.setdefault((kind, inst), held) is held:
            try:
                held.set_result(_SHARED[kind](self, inst))
            except BaseException as exc:  # as an executor does; result() raises it
                held.set_exception(exc)
        return self._memo[kind, inst].result()


# per-instance results several checks read; an N = 20 trail starts with the N = 10
# one, the audit raises again any error the certificate raised, and the Markov
# check raises ValidationError to every reader of a non-Markov operator
_SHARED = {
    "markov": lambda ctx, i: _require_markov(i),
    "delta": lambda ctx, i: ergodicity_coefficient(i.T, i.P),
    "trail": lambda ctx, i: gelfand_trail(
        i.T, i.P, N=20 if i.expect_uniform else 10, classification=ctx.shared("classify", i)
    ),
    "certificate": lambda ctx, i: certificate_from_convergence(i.T, i.P, n0_cap=N0_CAP),
    "audit": lambda ctx, i: verify_certificate(ctx.shared("certificate", i), i.T, i.P),
    "search": lambda ctx, i: search_certificates(i.T, i.P, n0_cap=NEGATIVE_CAP),
    "classify": lambda ctx, i: classify(i.T, i.P, delta=ctx.shared("delta", i)),
}


# The checks whose cases run on the thread pool.  Their cases are BLAS-bound
# (Monte-Carlo products, certificate power scans and audits), which release
# the GIL; the other checks are Python-bound and would contend for it.  On a
# 2-CPU VM (verify-corpus, seed 7, 4 alternating 20 s pairs against this set),
# pooling all 14 checks cut ops_per_s by 12-23%, and pooling none by 6-10%.
_POOLED = frozenset({"mc-lower-bound", "doeblin-equivalence", "overlap-soundness"})


def _parallel_map(fn, items: list) -> list:
    """Ordered map over independent cases on a small thread pool.

    BLAS and the LP solver release the GIL, so this buys real concurrency,
    and merging in submission order keeps reports deterministic.  The pool
    has one worker per CPU this process may run on, at most 8.
    """
    if len(items) <= 1:
        return [fn(x) for x in items]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(8, cpus)) as pool:
        return list(pool.map(fn, items))


def _label(case) -> str:
    """An instance's label; a tuple case joins the labels of its instances."""
    parts = case if isinstance(case, tuple) else (case,)
    return " x ".join(p.label for p in parts if isinstance(p, Instance))


_REGISTERED: list = []


def _check(name: str, cases=list):
    """Make ``verdict(ctx, case)`` the check ``name`` over ``cases(instances)``.

    A verdict returns nothing (None or "") when its case passes, else the
    detail of the case's one failure; an ErgokitError it raises is that
    detail.  The check labels each detail with its case, counts one verdict
    per case and keeps the first MAX_MESSAGES messages.  It is registered
    in ``CHECKS`` in definition order, which is the order runs report.
    """

    def register(verdict):
        def check(instances, ctx) -> CheckResult:
            def one(case):
                try:
                    detail = verdict(ctx, case)
                except ErgokitError as exc:
                    detail = str(exc)
                return f"{_label(case)}: {detail}" if detail else None

            todo = cases(instances)
            msgs = _parallel_map(one, todo) if name in _POOLED else map(one, todo)
            fails = [m for m in msgs if m]
            return CheckResult(
                name, len(todo) - len(fails), len(fails), tuple(fails[:MAX_MESSAGES])
            )

        _REGISTERED.append((name, check))
        return check

    return register


def _require_markov(inst: Instance) -> None:
    if markov_violations(np.asarray(inst.T.matrix), inst.T.space):
        raise ValidationError("operator fails Markov validation")


def _require_member(verdict: ErgodicityVerdict) -> None:
    if not verdict.member:
        fd, cd = verdict.fixes_defect, verdict.commute_defect
        raise PreconditionError(f"membership defects fix={fd:.2e} commute={cd:.2e}")


def _uniform(instances) -> list:
    return [i for i in instances if i.expect_uniform]


def _lattice(instances) -> list:
    return [i for i in instances if i.T.space.is_lattice]


# ---------------------------------------------------------------------------
# individual checks


@_check("coefficient-properties")
def _check_coefficient_properties(ctx, inst):
    ctx.shared("markov", inst)
    S = inst.S if inst.S is not None else inst.T
    checks = coefficient_inequalities(inst.T, S, inst.P, tol=TOL, delta=ctx.shared("delta", inst))
    return "; ".join(f"{chk.name}: {chk.details}" for chk in checks if not chk.ok)


@_check("pair-formula", cases=lambda instances: [
    i for i in _lattice(instances) if i.P.structured
])
def _check_pair_formula(ctx, inst):
    ok, a, b = _pair_formula(inst.T, inst.P, ctx.shared("delta", inst))
    return None if ok else f"pair {a!r} vs overlap {b!r}"


# a case is (k, instance): the k-th instance samples with seed 1000 + k
@_check("mc-lower-bound", cases=lambda instances: list(enumerate(instances)))
def _check_mc_lower_bound(ctx, case):
    k, inst = case
    ctx.shared("markov", inst)
    exact = ctx.shared("delta", inst).value
    low = coefficient_lower_bound(inst.T, inst.P, samples=ctx.samples, seed=1000 + k).value
    if low > exact + 1e-12:
        return f"lower bound {low} exceeds exact {exact}"
    if exact - low > 1e-4:
        return f"bound is slack by {exact - low:.2e}"
    return None


# a case is (instance, operator), for T and, where given, S
@_check("eigenvalue-bound", cases=lambda instances: [
    (i, op) for i in instances for op in (i.T, i.S) if op is not None
])
def _check_eigenvalue_bound(ctx, case):
    inst, op = case
    delta = ctx.shared("delta", inst) if op is inst.T else None
    rep = eigenvalue_bound_check(op, inst.P, tol=TOL, delta=delta)
    return None if rep.ok else f"excess {rep.max_excess:.2e}"


@_check("classification-equivalence")
def _check_classification(ctx, inst):
    verdict, _ = ctx.shared("classify", inst)
    if not verdict.consistent:
        return "clauses disagree"
    if verdict.uniform is not inst.expect_uniform:
        return f"verdict {verdict.uniform} vs expected {inst.expect_uniform}"
    return None


@_check("rate-identity", cases=_uniform)
def _check_rate_identity(ctx, inst):
    r = best_rate(inst.T, inst.P, classification=ctx.shared("classify", inst))
    return None if 0.0 <= r < 1.0 else f"rate {r} outside [0, 1)"


@_check("gelfand-trail", cases=_uniform)
def _check_gelfand_trail(ctx, inst):
    trail = ctx.shared("trail", inst)
    if not trail.all_above:
        worst = min(v - trail.residual_radius for v in trail.values)
        return f"trail dips below the rate by {-worst:.2e}"
    return None


@_check("spectrum-shift")
def _check_spectrum_shift(ctx, inst):
    classification = ctx.shared("classify", inst)
    _require_member(classification[0])
    rep = spectrum_shift_check(inst.T, inst.P, classification=classification)
    return None if rep.ok else f"spectra mismatch (distance {rep.max_match_distance:.2e})"


@_check("multiplicativity")
def _check_multiplicativity(ctx, inst):
    _require_member(ctx.shared("classify", inst)[0])
    rep = ctx.shared("trail", inst).multiplicativity(N=10)
    if not rep.agree:
        return (
            f"equality {rep.coefficient_equals_radius} but "
            f"powers multiplicative {rep.powers_multiplicative}"
        )
    return None


@_check("power-norm-chain")
def _check_power_norm_chain(ctx, inst):
    # norm(T^n (I-P)) <= 2 delta_P(T^n) <= 2 norm(T^n - P), power by power: the
    # lower side of delta_P(T^n) shows the first, its upper side the second
    ctx.shared("markov", inst)
    Pm = np.asarray(inst.P.matrix)
    eye = np.eye(inst.T.space.dim)
    for n, Tn in powers(np.asarray(inst.T.matrix), 15):
        gap = operator_norm(Tn @ (eye - Pm), inst.T.space)
        delta = (ctx.shared("delta", inst) if n == 1
                 else ergodicity_coefficient(Tn, inst.P, space=inst.T.space))
        resid = operator_norm(Tn - Pm, inst.T.space)
        if gap > 2 * delta.value + TOL or delta.upper_bound > resid + TOL:
            return f"chain broken at n={n}"
    return None


# a case is an adjacent (left, right) pair of uniform chains of dimension <= 6
@_check("tensor-bound", cases=lambda instances: list(
    pairwise(i for i in _uniform(instances) if i.T.space.dim <= 6)
))
def _check_tensor_bound(ctx, case):
    left, right = case
    factors = ctx.shared("classify", left), ctx.shared("classify", right)
    rep = tensor_rate_bound(left.T, left.P, right.T, right.P, tol=TOL, classifications=factors)
    return None if rep.ok else f"product rate {rep.lhs} exceeds factor max {rep.rhs}"


@_check("doeblin-equivalence", cases=_lattice)
def _check_doeblin_equivalence(ctx, inst):
    if not inst.expect_uniform:
        out = ctx.shared("search", inst)
        return None if out.exhausted_minorization else "non-ergodic chain got a certificate"
    report = ctx.shared("audit", inst)
    if not report.ok:
        return f"audit failed: {report.violations}"
    return None if report.bound_holds else "implied bound fails"


@_check("overlap-soundness", cases=_lattice)
def _check_overlap_soundness(ctx, inst):
    if not inst.expect_uniform:
        out = ctx.shared("search", inst)
        return None if out.exhausted_overlap else "overlap certificate on a non-mixing chain"
    # the shared audit holds T^n0 and delta_P(T^n0) of this certificate
    n0 = ctx.shared("certificate", inst).n0
    audit = ctx.shared("audit", inst)
    out = _overlap_given_power(audit.power, audit.actual_coefficient, inst.P, n0)
    # columns within 1/4 of the projection overlap by >= 7/8
    if not out.feasible or out.overlap < 0.875 - 1e-12:
        return f"expected overlap at n0={n0}"
    verdict, _ = ctx.shared("classify", inst)
    return None if verdict.uniform is True else "certificate issued but not ergodic"


@_check("certificate-audit", cases=lambda instances: _uniform(_lattice(instances)))
def _check_certificate_audit(ctx, inst):
    cert = ctx.shared("certificate", inst)
    faults = []
    if not ctx.shared("audit", inst).ok:
        faults.append("honest certificate rejected")
    forged = dataclasses.replace(cert, tau=1.2)
    if verify_certificate(forged, inst.T, inst.P).ok:
        faults.append("forged tau accepted")
    padded = dataclasses.replace(cert, sup_phi_norm=cert.sup_phi_norm + 1.0)
    if verify_certificate(padded, inst.T, inst.P).ok:
        faults.append("padded corrector norm accepted")
    return "; ".join(faults)


CHECKS = tuple(_REGISTERED)  # (name, check), in the order the checks are defined above
CHECK_NAMES = tuple(name for name, _ in CHECKS)


# entries of one np.minimum block of the overlap form (rows i x columns j x
# states k), 1 MB.  ms per call at n = 100, one group, on a 2-CPU x86 host
# (min of 30): 2^15 entries 1.06, 2^16 0.88, 2^17 0.76, 2^18 0.94
_OVERLAP_BLOCK_ENTRIES = 1 << 17


def _overlap_form(A: np.ndarray, groups) -> float:
    """Max over pairs i < j inside a group of half l1(A e_i - A e_j), by overlaps.

    Dobrushin's overlap form: half l1(a - b) = (sum a + sum b)/2 - sum_k
    min(a_k, b_k), since |x - y| = x + y - 2 min(x, y) (Seneta, Non-negative
    Matrices and Markov Chains, 2006, ch. 3).  It holds for any real columns,
    not only columns summing to 1, and it shares no arithmetic with the pair
    route's norms of differences, so each referees the other.  ``groups``
    holds index sequences (``_pair_formula`` passes P's equal-column groups);
    a state in no group has no pair, and with no pair the value is 0.0.
    Rows i are read in blocks against the columns j > i, each block's
    np.minimum at most ``_OVERLAP_BLOCK_ENTRIES`` entries: O(n^3) work.  A
    NaN overlap is returned as NaN.
    """
    C = np.asarray(A).T  # row i = A e_i
    n = len(C)
    idx = np.arange(n)
    label = -1 - idx  # distinct, below every group's label
    for k, g in enumerate(groups):
        label[list(g)] = k
    pairs = (label[:, None] == label) & (idx[:, None] < idx)
    half = 0.5 * C.sum(axis=1)
    step = max(1, _OVERLAP_BLOCK_ENTRIES // (n * n))
    best = 0.0
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        d = half[a:b, None] + half[a + 1 :]
        d -= np.minimum(C[a:b, None, :], C[a + 1 :]).sum(axis=2)
        v = float(np.where(pairs[a:b, a + 1 :], d, 0.0).max())
        if not v <= best:
            best = v
            if v != v:
                break
    return best


def _pair_formula(T, P, delta) -> tuple[bool, float, float]:
    """The one pair-formula referee of analyze and verify: whether ``delta``
    is the overlap form over the equal-column groups of P's own matrix (never
    ``P.types`` or the route's pair list) within 1e-12, with both values."""
    b = _overlap_form(np.asarray(T.matrix), _column_types(np.asarray(P.matrix)))
    return abs(delta.value - b) <= 1e-12, delta.value, b


def instance_theorems(
    T: MarkovOperator, P: MarkovProjection, verdict: ErgodicityVerdict,
    report: SpectralReport, delta: CoefficientResult, tol: float = 1e-9, *, seed: int = 0,
) -> list[tuple[str, bool, str]]:
    """Per-instance theorem scoreboard for analysis reports.

    Scores the caller's ``classify(T, P)`` and ``ergodicity_coefficient(T, P)``
    (``delta``), the ones its report prints, and reads membership off the verdict's
    two defects.  Expectation-free: the classification entry judges internal clause
    agreement, not a generator promise, so it applies to arbitrary input.  For
    rank-one and block P on the simplex the pair-formula entry is verify's
    ``_pair_formula`` referee.  ``seed`` seeds the sampling fallback of the
    other coefficients, those of T(I - P) and T².
    """
    out: list[tuple[str, bool, str]] = []
    for chk in coefficient_inequalities(T, T, P, tol=tol, delta=delta, seed=seed):
        detail = chk.details if chk.applicable else f"not applicable: {chk.details}"
        out.append((f"coefficient-{chk.name}", chk.ok, detail))
    if P.structured and T.space.is_lattice:
        ok, a, b = _pair_formula(T, P, delta)
        out.append(("pair-formula", ok, f"gap {abs(a - b):.2e}"))
    try:
        rep = eigenvalue_bound_check(T, P, tol=tol, delta=delta)
        out.append(("eigenvalue-bound", rep.ok, f"max excess {rep.max_excess:.2e}"))
    except ErgokitError as exc:
        out.append(("eigenvalue-bound", False, str(exc)))
    out.append(
        (
            "classification-consistent",
            verdict.consistent,
            f"clauses {[c.holds for c in verdict.clauses]}",
        )
    )
    # one delta_P(T^n) trail serves both trail theorems; a uniform
    # non-member still asks for it below, and gets PreconditionError
    trail = None
    classification = verdict, report
    if verdict.member:
        srep = spectrum_shift_check(T, P, classification=classification)
        out.append(
            ("spectrum-shift", srep.ok, f"match distance {srep.max_match_distance:.2e}")
        )
        trail = gelfand_trail(
            T, P, N=15 if verdict.uniform is True else 10, classification=classification
        )
        mrep = trail.multiplicativity(N=10)
        out.append(
            (
                "multiplicativity",
                mrep.agree,
                f"equality {mrep.coefficient_equals_radius}, "
                f"powers {mrep.powers_multiplicative}",
            )
        )
    if verdict.uniform is True:
        try:
            r = best_rate(T, P, classification=classification)
            out.append(("rate-identity", 0.0 <= r < 1.0, f"rate {r:.6g}"))
        except ErgokitError as exc:
            out.append(("rate-identity", False, str(exc)))
        trail = trail or gelfand_trail(T, P, N=15, classification=classification)
        out.append(
            ("gelfand-trail", trail.all_above, f"residual radius {trail.residual_radius:.6g}")
        )
    return out


# ---------------------------------------------------------------------------
# fault injection


def _poison_invalid_operator() -> Instance:
    space = make_simplex(3)
    # constructed directly, skipping as_markov: column sums are wrong
    bad = MarkovOperator(np.diag([1.3, 1.0, 1.0]), space)
    P = rank_one_projection(space, np.full(3, 1.0 / 3.0))
    return Instance("poison-invalid-operator", bad, P, S=bad)


def _poison_noncommuting() -> Instance:
    rng = np.random.default_rng(12345)
    space = make_simplex(3)
    T = MarkovOperator(metropolis_matrix(np.array([0.6, 0.3, 0.1]), rng), space)
    # projection onto the wrong target: TP = P fails by a visible margin
    P = rank_one_projection(space, np.full(3, 1.0 / 3.0))
    return Instance("poison-noncommuting", T, P, S=T)


def _poison_false_positive() -> Instance:
    inst = permutation_instance(4)
    return dataclasses.replace(
        inst, label="poison-false-positive", expect_uniform=True
    )


def _poison_lying_projection() -> Instance:
    base = block_fixture()
    lying = MarkovProjection(
        np.asarray(base.P.matrix), base.P.space, "rank_one", y=np.full(4, 0.25)
    )
    return Instance("poison-lying-projection", base.T, lying)


_POISON = {
    "coefficient-properties": _poison_invalid_operator,
    "mc-lower-bound": _poison_invalid_operator,
    "power-norm-chain": _poison_invalid_operator,
    "pair-formula": _poison_lying_projection,
    "eigenvalue-bound": _poison_noncommuting,
    "gelfand-trail": _poison_noncommuting,
    "spectrum-shift": _poison_noncommuting,
    "multiplicativity": _poison_noncommuting,
    "tensor-bound": _poison_noncommuting,
    "classification-equivalence": _poison_false_positive,
    "rate-identity": _poison_false_positive,
    "doeblin-equivalence": _poison_false_positive,
    "overlap-soundness": _poison_false_positive,
    "certificate-audit": _poison_false_positive,
}


def run_verification(
    seed: int = 0,
    dims=(2, 3, 4, 5, 6),
    count: int = 3,
    samples: int = 20_000,
    corrupt: str | None = None,
) -> list[CheckResult]:
    """Run every named check over the seeded corpus.

    ``corrupt`` names a check whose instance stream gets a contract-breaking
    entry appended; the named check must then fail, which is how the test
    hook distinguishes a working harness from one that cannot detect faults.
    An empty ``dims`` is a ValueError.
    """
    if not dims:
        raise ValueError("dims must name at least one dimension")
    if corrupt is not None and corrupt not in _POISON:
        raise ValueError(
            f"unknown check {corrupt!r}; expected one of {', '.join(CHECK_NAMES)}"
        )
    base = build_corpus(seed, dims=dims, chains_per_dim=count)
    base.append(recorded_nonmultiplicative_instance())
    ctx = VerifyContext(samples=samples)
    results = []
    for name, fn in CHECKS:
        instances = list(base)
        if corrupt == name:
            instances.append(_POISON[name]())
        results.append(fn(instances, ctx))
    return results
