"""Spectral classification, rates, trails, and the product-chain bound."""

import math

import numpy as np
import pytest

from ergokit import (
    EigenSolverError,
    GelfandTrail,
    PreconditionError,
    as_markov,
    best_rate,
    block_projection,
    certificate_from_convergence,
    classify,
    ergodicity_coefficient,
    explicit_projection,
    gelfand_trail,
    make_simplex,
    multiplicativity_test,
    rank_one_projection,
    rate_profile,
    run_verification,
    search_certificates,
    spectral_radius,
    spectral_report,
    spectrum_shift_check,
    tensor_rate_bound,
)
from ergokit.corpus import (
    build_corpus,
    permutation_instance,
    recorded_nonmultiplicative_instance,
    reducible_instance,
)


def test_classify_at_tolerance_zero(two_state):
    # zero is a legal slack: the squaring extension of a chain that never
    # converges reads no log(0), and a contracting chain stays uniform
    s = make_simplex(3)
    T = as_markov(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), s)
    P = rank_one_projection(s, np.full(3, 1 / 3))
    verdict, _ = classify(T, P, tolerance=0.0)
    power = verdict.clauses[0]
    assert (verdict.uniform, power.holds) == (False, False)
    assert power.detail["converged_at"] is None
    assert power.detail["extension_radius_floor"] == pytest.approx(1.0)
    verdict, _ = classify(two_state.T, two_state.P, tolerance=0.0)
    assert verdict.uniform is True and verdict.consistent


def test_classify_two_state(two_state):
    verdict, report = classify(two_state.T, two_state.P)
    assert verdict.uniform is True
    assert verdict.weak is True
    assert verdict.consistent
    assert verdict.witness_n0 == 1
    assert all(c.holds for c in verdict.clauses if c.applicable)
    assert report.residual_radius == pytest.approx(0.6, abs=1e-12)
    assert report.subdominant_radius == pytest.approx(0.6, abs=1e-12)
    # norm(T(I - P)) = norm(T - P) = 0.9 for this chain
    assert report.gap_norm == pytest.approx(0.9, abs=1e-12)
    assert report.one_isolated


def test_classify_identity_dips_at_the_first_power():
    # T = I = P: ker P = {0} makes delta_P(T) = 0, so all three clauses hold at n0 = 1
    s = make_simplex(2)
    T = as_markov(np.eye(2), s)
    verdict, _ = classify(T, explicit_projection(s, np.eye(2)))
    dip = next(c for c in verdict.clauses if c.name == "coefficient-dip")
    assert dip.applicable and dip.holds is True
    assert dip.detail["witness_n0"] == 1
    assert [c.holds for c in verdict.clauses] == [True, True, True]
    assert verdict.uniform and verdict.consistent and verdict.witness_n0 == 1


def test_classify_permutation_negative():
    inst = permutation_instance(4)
    verdict, report = classify(inst.T, inst.P)
    assert verdict.uniform is False
    assert verdict.consistent
    assert report.residual_radius == pytest.approx(1.0, abs=1e-12)
    # the length-4 cycle keeps i and -i in the residual spectrum
    assert not report.one_isolated or report.isolation_distance < 1.5


def test_classify_reducible_negative(rng):
    inst = reducible_instance([2, 3], rng, "reducible-2+3")
    verdict, report = classify(inst.T, inst.P)
    assert verdict.uniform is False
    assert verdict.consistent
    # two closed classes: eigenvalue 1 with multiplicity 2, one surviving in T - P
    assert report.residual_radius == pytest.approx(1.0, abs=1e-10)


def test_classify_embedded(embedded):
    verdict, report = classify(embedded.T, embedded.P)
    assert verdict.uniform is True
    assert report.residual_radius == pytest.approx(0.5, abs=1e-14)


def test_classify_nonmember_is_not_silently_decided():
    # the swap chain does not fix this skewed projection, so the power trail
    # cannot be extended; clause flags must degrade honestly
    s = make_simplex(2)
    T = as_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), s)
    P = rank_one_projection(s, np.array([0.3, 0.7]))
    verdict, _ = classify(T, P)
    assert verdict.fixes_defect > 0.1
    clause2 = verdict.clauses[1]
    assert not clause2.applicable


def test_classify_deterministic_drift_uses_extension():
    # conveyor with a scatter state: two starts keep disjoint supports for
    # k - 2 steps, so the coefficient sits at exactly 1 through all 64
    # direct powers and only the squaring extension can certify the verdict
    k = 70
    s = make_simplex(k)
    T = np.zeros((k, k))
    for x in range(k - 1):
        T[x + 1, x] = 1.0
    T[:, k - 1] = 1.0 / k
    from ergokit.corpus import stationary_distribution

    pi = stationary_distribution(T)
    P = rank_one_projection(s, pi)
    d1 = ergodicity_coefficient(T, P, space=s).value
    assert d1 == pytest.approx(1.0, abs=1e-12)
    verdict, report = classify(as_markov(T, s), P)
    assert report.residual_radius < 1.0 - 1e-3
    assert verdict.uniform is True
    assert verdict.consistent
    assert verdict.witness_n0 is not None and verdict.witness_n0 > 64


def test_best_rate_fixtures(two_state, fast_two_state, embedded):
    assert best_rate(two_state.T, two_state.P) == pytest.approx(0.6, abs=1e-12)
    assert best_rate(fast_two_state.T, fast_two_state.P) == pytest.approx(0.2, abs=1e-12)
    assert best_rate(embedded.T, embedded.P) == pytest.approx(0.5, abs=1e-14)


def test_best_rate_refuses_nonergodic():
    inst = permutation_instance(3)
    with pytest.raises(PreconditionError):
        best_rate(inst.T, inst.P)


def test_best_rate_on_corpus_members(small_corpus):
    for inst in small_corpus:
        if not inst.expect_uniform:
            continue
        r = best_rate(inst.T, inst.P)
        _, report = classify(inst.T, inst.P)
        assert r == pytest.approx(report.subdominant_radius, abs=1e-8), inst.label


def test_gelfand_trail_multiplicative_case(two_state):
    trail = gelfand_trail(two_state.T, two_state.P, N=30)
    assert trail.residual_radius == pytest.approx(0.6, abs=1e-12)
    assert trail.all_above
    for v in trail.values:
        assert v == pytest.approx(0.6, abs=1e-9)


def test_gelfand_trail_strictly_decreasing_case():
    inst = recorded_nonmultiplicative_instance()
    trail = gelfand_trail(inst.T, inst.P, N=30)
    d1 = ergodicity_coefficient(inst.T, inst.P).value
    assert trail.values[0] == pytest.approx(d1, abs=1e-12)
    assert d1 > trail.residual_radius + 1e-3
    assert trail.all_above
    # the trail must close most of the gap to r by n = 30
    assert trail.values[-1] - trail.residual_radius < 0.05
    assert trail.values[-1] <= trail.values[0]


def test_gelfand_trail_requires_membership():
    s = make_simplex(2)
    T = as_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), s)
    P = rank_one_projection(s, np.array([0.3, 0.7]))
    with pytest.raises(PreconditionError):
        gelfand_trail(T, P)
    with pytest.raises(PreconditionError):  # it reads the same trail
        multiplicativity_test(T, P)


def test_gelfand_trail_survives_underflow(fast_two_state):
    # 0.2^30 = 1e-21 is far below the float fixed point of repeated matrix
    # products; the log-scaled accumulation must still show 0.2, not 0
    trail = gelfand_trail(fast_two_state.T, fast_two_state.P, N=30)
    assert trail.values[-1] == pytest.approx(0.2, abs=1e-6)
    assert trail.all_above


def test_spectrum_shift_on_members(small_corpus):
    for inst in small_corpus:
        rep = spectrum_shift_check(inst.T, inst.P)
        assert rep.ok, (inst.label, rep.max_match_distance)


def test_spectrum_shift_two_state(two_state):
    rep = spectrum_shift_check(two_state.T, two_state.P)
    # P swallows the unit eigenvalue: sigma(T - P) = (sigma(T) - {1}) + {0}
    assert rep.max_match_distance < 1e-10


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
@pytest.mark.parametrize("n", [4, 7, 10])
def test_p_eigenvalues_by_count_near_one(coupled_blocks, n, eps):
    # the eigenvalue 1 - 2 eps is T's on ker P however close to 1 it lies:
    # only the rank P = 1 eigenvalue nearest 1 is P's
    T, P = coupled_blocks(n, eps)
    report = spectral_report(T, P)
    assert report.subdominant_radius == pytest.approx(report.residual_radius, abs=1e-12)
    assert report.isolation_distance == pytest.approx(2 * eps, abs=1e-12)
    assert spectrum_shift_check(T, P).ok


def test_best_rate_near_one(coupled_blocks):
    T, P = coupled_blocks(4, 1e-9)
    assert best_rate(T, P) == pytest.approx(1 - 2e-9, abs=1e-12)


def test_reducible_keeps_its_second_unit_eigenvalue():
    # rank P = 1 takes one of the two unit eigenvalues; the other is T's on ker P
    inst = next(i for i in build_corpus(0) if i.label == "reducible-2+2")
    report = spectral_report(inst.T, inst.P)
    assert report.subdominant_radius == pytest.approx(1.0, abs=1e-12)
    assert not report.one_isolated


def test_identity_projection_owns_every_eigenvalue(two_state):
    # P = I as a matrix: all rank P = 2 eigenvalues are P's, none is left
    P = explicit_projection(two_state.T.space, np.eye(2))
    report = spectral_report(two_state.T, P)
    assert report.subdominant_radius == 0.0
    assert report.isolation_distance == math.inf


def test_multiplicativity_both_true(two_state):
    rep = multiplicativity_test(two_state.T, two_state.P)
    assert rep.coefficient_equals_radius
    assert rep.powers_multiplicative
    assert rep.agree
    assert rep.worst_power_gap < 1e-10


def test_multiplicativity_both_false():
    inst = recorded_nonmultiplicative_instance()
    rep = multiplicativity_test(inst.T, inst.P)
    assert not rep.coefficient_equals_radius
    assert not rep.powers_multiplicative
    assert rep.agree
    assert rep.worst_power_gap > 1e-4


@pytest.mark.parametrize("call, argument", [
    (lambda i, trail: classify(i.T, i.P, max_power=0), "max_power"),
    (lambda i, trail: multiplicativity_test(i.T, i.P, N=0), "N"),
    (lambda i, trail: GelfandTrail((), (), trail.residual_radius, True).multiplicativity(), "N"),
    (lambda i, trail: trail.multiplicativity(N=0), "N"),
    (lambda i, trail: trail.multiplicativity(N=20), "N"),
    (lambda i, trail: gelfand_trail(i.T, i.P, N=0), "N"),
    (lambda i, trail: gelfand_trail(i.T, i.P, N=-3), "N"),
    (lambda i, trail: rate_profile(i.T, i.P, N=0), "N"),
    (lambda i, trail: certificate_from_convergence(i.T, i.P, n0_cap=0), "n0_cap"),
    (lambda i, trail: search_certificates(i.T, i.P, n0_cap=0), "n0_cap"),
    (lambda i, trail: run_verification(dims=()), "dims"),
], ids=["classify", "multiplicativity_test", "empty-trail", "trail-at-N-0", "trail-past-its-end",
        "gelfand_trail", "gelfand_trail-at-N-minus-3", "rate_profile",
        "certificate_from_convergence", "search_certificates", "run_verification"])
def test_an_empty_range_is_refused_before_any_work(call, argument, two_state, count_calls):
    # an empty range of powers or dimensions, or more powers than a trail
    # holds, is a ValueError that names its argument, raised before a
    # spectrum, a power, a membership test or a corpus is built
    trail = gelfand_trail(two_state.T, two_state.P, N=3)
    calls = count_calls("eigenvalues", "powers", "membership", "build_corpus")
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        call(two_state, trail)
    assert calls == {"eigenvalues": [], "powers": [], "membership": [], "build_corpus": []}


def test_multiplicativity_agrees_on_corpus(small_corpus):
    for inst in small_corpus:
        rep = multiplicativity_test(inst.T, inst.P)
        assert rep.agree, inst.label


def _raw_power_multiplicativity(T, P, N=10, tol=1e-8):
    # reference: delta_P of the raw powers T^n, one product at a time
    A = np.asarray(T.matrix)
    ds, Tn = [], A.copy()
    for _ in range(N):
        ds.append(ergodicity_coefficient(Tn, P, space=T.space).value)
        Tn = Tn @ A
    d1 = ds[0]
    r = spectral_radius(A - np.asarray(P.matrix))
    worst = max(abs(dn - d1**n) for n, dn in enumerate(ds, start=1))
    return d1, abs(d1 - r) <= tol, worst <= tol, worst


def test_multiplicativity_matches_raw_powers(small_corpus):
    # the trail's normalized products of T - P give the same d_n as raw powers
    for inst in small_corpus + [recorded_nonmultiplicative_instance()]:
        rep = multiplicativity_test(inst.T, inst.P)
        d1, left, right, worst = _raw_power_multiplicativity(inst.T, inst.P)
        assert rep.coefficient_equals_radius is left, inst.label
        assert rep.powers_multiplicative is right, inst.label
        assert rep.agree is (left == right), inst.label
        assert rep.coefficient == pytest.approx(d1, abs=1e-12), inst.label
        assert rep.worst_power_gap == pytest.approx(worst, abs=1e-12), inst.label


def test_tensor_bound_fixture(two_state, fast_two_state):
    rep = tensor_rate_bound(
        two_state.T, two_state.P, fast_two_state.T, fast_two_state.P
    )
    assert rep.ok
    assert rep.factor_rates == pytest.approx((0.6, 0.2), abs=1e-12)
    assert rep.lhs == pytest.approx(0.6, abs=1e-10)
    assert rep.tight


def test_tensor_bound_refuses_nonergodic_factor(two_state):
    perm = permutation_instance(3)
    with pytest.raises(PreconditionError):
        tensor_rate_bound(two_state.T, two_state.P, perm.T, perm.P)


def test_tensor_bound_refuses_a_uniform_non_member_factor(two_state):
    # T fixes P's range but does not commute with P (TP = P, PT != P): the
    # classification still reads T as uniform and consistent, and the
    # annihilation identities of the product bound fail
    s = make_simplex(3)
    T = as_markov(np.array([[1, 0.5, 0], [0, 0, 0], [0, 0.5, 1]]), s)
    P = block_projection(s, [[0, 1], [2]], [np.array([1.0, 0.0]), np.array([1.0])])
    verdict, _ = classify(T, P)
    assert (verdict.uniform, verdict.consistent, verdict.member) == (True, True, False)
    assert verdict.commute_defect == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionError, match="right factor breaks the annihilation identities"):
        tensor_rate_bound(two_state.T, two_state.P, T, P)


def _half_absorbed_member():
    """Two 2-state classes (rates 0.6 and 0.8) and a transient state absorbed
    half and half: a member P with neither normal form, so it stays explicit."""
    s = make_simplex(5)
    T = np.zeros((5, 5))
    T[:2, :2] = [[0.7, 0.1], [0.3, 0.9]]
    T[2:4, 2:4] = [[0.9, 0.1], [0.1, 0.9]]
    T[:, 4] = [0.1, 0.25, 0.2, 0.15, 0.3]
    piA, piB = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    P = np.zeros((5, 5))
    P[:2, :2] = piA[:, None]
    P[2:4, 2:4] = piB[:, None]
    P[:4, 4] = np.concatenate([0.5 * piA, 0.5 * piB])
    E = explicit_projection(s, P)
    assert E.variant == "explicit"
    return as_markov(T, s), E


def test_tensor_bound_takes_an_explicit_member_factor(two_state):
    T, E = _half_absorbed_member()
    rep = tensor_rate_bound(T, E, two_state.T, two_state.P)
    assert rep.ok
    assert rep.factor_rates == pytest.approx((0.8, 0.6), abs=1e-12)
    assert rep.lhs == pytest.approx(max(rep.factor_rates), abs=1e-12)


def test_tensor_bound_takes_an_embedded_factor(two_state, embedded):
    rep = tensor_rate_bound(two_state.T, two_state.P, embedded.T, embedded.P)
    assert rep.ok
    assert rep.factor_rates == pytest.approx((0.6, 0.5), abs=1e-12)
    assert rep.lhs == pytest.approx(max(rep.factor_rates), abs=1e-12)


def test_rate_profile_closed_form(two_state):
    # norm(T^n - P) = 0.9 * 0.6^(n-1) exactly for this chain
    prof = rate_profile(two_state.T, two_state.P, N=40)
    assert prof.rate == pytest.approx(0.6, abs=1e-12)
    for n, nrm in enumerate(prof.norms, start=1):
        assert nrm == pytest.approx(0.9 * 0.6 ** (n - 1), rel=1e-10), n
    assert abs(prof.alphas[39]) < 0.01
    assert prof.alphas[39] == pytest.approx(0.6 * (1.5 ** (1 / 40) - 1), rel=1e-6)
    assert prof.fitted_C == pytest.approx(1.5, rel=1e-9)


def test_rate_profile_alphas_decrease(small_corpus):
    for inst in small_corpus:
        if not inst.expect_uniform:
            continue
        prof = rate_profile(inst.T, inst.P, N=30)
        assert abs(prof.alphas[-1]) <= abs(prof.alphas[4]) + 1e-12, inst.label


def test_spectral_radius_of_markov_is_one(small_corpus):
    for inst in small_corpus:
        assert spectral_radius(inst.T.matrix) == pytest.approx(1.0, abs=1e-10)


def test_best_rate_detects_route_mismatch():
    # a forged "projection" breaks the spectrum identity behind best_rate;
    # feeding classify-bypassing inputs must raise, not return a number
    s = make_simplex(2)
    T = as_markov(np.array([[0.7, 0.1], [0.3, 0.9]]), s)
    P = rank_one_projection(s, np.array([0.25, 0.75]))
    r = best_rate(T, P)
    assert r == pytest.approx(0.6)
    # EigenSolverError is reserved for genuine route disagreement, which no
    # honest instance triggers; assert the type exists and is distinct
    assert issubclass(EigenSolverError, Exception)


def test_best_rate_raises_on_route_mismatch(two_state):
    # best_rate and instance_theorems share this check; a report whose two
    # radii disagree must raise with the message the rate-identity detail
    # strings carry
    from dataclasses import replace

    verdict, rep = classify(two_state.T, two_state.P)
    assert best_rate(two_state.T, two_state.P, classification=(verdict, rep)) == (
        rep.residual_radius
    )
    forged = replace(rep, subdominant_radius=0.5)
    with pytest.raises(EigenSolverError) as exc:
        best_rate(two_state.T, two_state.P, classification=(verdict, forged))
    assert str(exc.value) == (
        f"rate mismatch: subdominant modulus 0.5 vs residual radius "
        f"{rep.residual_radius!r}"
    )


def test_spectral_report_counts_unit_eigenvalues(blocky):
    rep = spectral_report(blocky.T, blocky.P)
    # two diagonal blocks mean a double eigenvalue at 1 in T but not T - P
    unit = [z for z in rep.eigenvalues if abs(z - 1.0) < 1e-9]
    assert len(unit) == 2
    assert rep.residual_radius == pytest.approx(0.8, abs=1e-12)


def test_powers_equal_the_product_loop_bit_for_bit(blocky):
    from ergokit.spectral import powers

    A = np.asarray(blocky.T.matrix)
    expect = []
    Tn = A.copy()
    for _ in range(12):
        expect.append(Tn)
        Tn = Tn @ A
    got = list(powers(A, 12))
    assert [n for n, _ in got] == list(range(1, 13))
    for (_, Tn), ref in zip(got, expect):
        assert Tn.tobytes() == ref.tobytes()
    assert list(powers(A, 0)) == []


class _CountingMatrix(np.ndarray):
    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return super().__matmul__(other)


def test_powers_build_nothing_past_the_consumer(two_state):
    from ergokit.spectral import powers

    A = np.asarray(two_state.T.matrix).copy().view(_CountingMatrix)
    _CountingMatrix.products = 0
    for n, _ in powers(A, 50):
        if n == 3:
            break
    assert _CountingMatrix.products == 2
    _CountingMatrix.products = 0
    assert len(list(powers(A, 5))) == 5
    assert _CountingMatrix.products == 4  # none after the last power


def test_nilpotent_trail_reads_exact_zeros(two_state):
    # T = P makes T - P the zero matrix: every power norm and every root
    # coefficient is exactly 0, not a log of 0
    P = two_state.P
    T = as_markov(np.asarray(P.matrix), P.space)
    prof = rate_profile(T, P, N=6)
    assert prof.norms == (0.0,) * 6
    assert prof.rate == 0.0
    assert prof.fitted_C == 0.0
    trail = gelfand_trail(T, P, N=6)
    assert trail.values == (0.0,) * 6
    assert trail.all_above
