"""Minorization and overlap certificates: construction, search, auditing."""

import dataclasses

import numpy as np
import pytest

from ergokit import (
    PreconditionError,
    UnsupportedSpaceError,
    certificate_from_convergence,
    default_q_candidates,
    ergodicity_coefficient,
    make_simplex,
    max_minorization_weight,
    overlap_certificate,
    rank_one_projection,
    search_certificates,
    verify_certificate,
)
from ergokit import corpus, doeblin
from ergokit.corpus import permutation_instance
from ergokit.operators import block_projection
from ergokit.spectral import powers


def test_minorization_fixture_value(two_state):
    # g(tau) = 0.5 tau - 0.3 for this chain at n0 = 1, so tau* = 0.6
    out = max_minorization_weight(two_state.T, two_state.P, two_state.P, 1)
    assert out.feasible
    assert out.tau == pytest.approx(0.6, abs=1e-15)
    assert out.implied_bound == pytest.approx(0.7, abs=1e-12)
    assert out.actual_coefficient == pytest.approx(0.6, abs=1e-12)
    assert out.bound_holds


def test_minorization_certificate_internals(two_state):
    out = max_minorization_weight(two_state.T, two_state.P, two_state.P, 1)
    cert = out.certificate
    assert cert.n0 == 1
    # correctors live in the cone and respect the tau/4 budget
    assert cert.phi_table.min() >= 0.0
    assert cert.sup_phi_norm <= 0.25 * cert.tau + 1e-12
    rep = verify_certificate(cert, two_state.T, two_state.P)
    assert rep.ok, rep.violations


def test_overlap_fixture_value(two_state):
    # columnwise min masses against P are 0.55 and 0.85
    out = overlap_certificate(two_state.T, two_state.P, two_state.P, 1)
    assert out.feasible
    assert out.overlap == pytest.approx(0.55, abs=1e-14)
    assert out.implied_bound == pytest.approx(0.9, abs=1e-12)
    assert out.bound_holds
    u = out.certificate.u_table
    np.testing.assert_allclose(u[0], [0.25, 0.3], atol=1e-14)
    np.testing.assert_allclose(u[1], [0.1, 0.75], atol=1e-14)


def test_overlap_threshold_is_strict(blocky):
    # the block fixture mixes within blocks only; against the block
    # projection at n0 = 1 the overlap stays at 0.6 > 1/2 in the slow block
    out = overlap_certificate(blocky.T, blocky.P, blocky.P, 1)
    assert out.overlap == pytest.approx(0.6, abs=1e-12)
    assert out.feasible


def test_convergence_constructor(two_state):
    # power norms 0.9 * 0.6^(n-1) first fall below 1/4 at n = 4
    cert = certificate_from_convergence(two_state.T, two_state.P)
    assert cert.tau == 1.0
    assert cert.n0 == 4
    assert cert.sup_phi_norm == pytest.approx(0.0972, abs=1e-12)
    rep = verify_certificate(cert, two_state.T, two_state.P)
    assert rep.ok
    assert rep.implied_bound == pytest.approx(0.5)
    assert rep.actual_coefficient == pytest.approx(0.6**4, abs=1e-12)


def test_convergence_constructor_refuses_nonergodic():
    perm = permutation_instance(3)
    with pytest.raises(PreconditionError):
        certificate_from_convergence(perm.T, perm.P)


def test_forged_tau_rejected(two_state):
    cert = certificate_from_convergence(two_state.T, two_state.P)
    forged = dataclasses.replace(cert, tau=1.2)
    rep = verify_certificate(forged, two_state.T, two_state.P)
    assert not rep.ok
    assert any("outside (0, 1]" in v for v in rep.violations)


def test_padded_sup_phi_rejected(two_state):
    cert = certificate_from_convergence(two_state.T, two_state.P)
    forged = dataclasses.replace(cert, sup_phi_norm=cert.sup_phi_norm + 1.0)
    rep = verify_certificate(forged, two_state.T, two_state.P)
    assert not rep.ok
    assert any("does not match the table" in v for v in rep.violations)


def test_zeroed_correctors_rejected(two_state):
    cert = max_minorization_weight(two_state.T, two_state.P, two_state.P, 1).certificate
    forged = dataclasses.replace(cert, phi_table=np.zeros_like(cert.phi_table))
    rep = verify_certificate(forged, two_state.T, two_state.P)
    assert not rep.ok
    assert any("minorization inequality" in v for v in rep.violations)


def test_wrong_shape_phi_rejected(two_state):
    cert = certificate_from_convergence(two_state.T, two_state.P)
    forged = dataclasses.replace(cert, phi_table=np.zeros((3, 3)))
    rep = verify_certificate(forged, two_state.T, two_state.P)
    assert not rep.ok
    assert any("wrong shape" in v for v in rep.violations)


def _forge(cert, space, how):
    """The honest two-state certificate (tau = 1, n0 = 4) with one field broken."""
    phi = cert.phi_table.copy()
    if how == "n0":
        return dataclasses.replace(cert, n0=0)
    if how == "Q":
        return dataclasses.replace(cert, Q=rank_one_projection(space, np.array([0.5, 0.5])))
    if how == "cone":
        phi[0, 0] -= 1e-6
        return dataclasses.replace(cert, phi_table=phi)
    if how == "budget":
        phi[0] += 0.15
        return dataclasses.replace(cert, phi_table=phi, sup_phi_norm=float(phi.sum(axis=1).max()))
    return dataclasses.replace(cert, n0=1)  # tau = 1 claimed at the first power


@pytest.mark.parametrize("how, message", [
    ("n0", "n0 0 not a positive integer"),
    ("Q", "Q is not a sub-projection of P"),
    ("cone", "a corrector phi_x leaves the cone"),
    ("budget", "corrector budget exceeded"),
    ("power", "implied coefficient bound 1 - tau/2 fails"),
], ids=["n0", "Q", "cone", "budget", "power"])
def test_audit_names_each_broken_field(two_state, how, message):
    cert = certificate_from_convergence(two_state.T, two_state.P)
    assert (cert.tau, cert.n0) == (1.0, 4)
    assert verify_certificate(cert, two_state.T, two_state.P).ok
    rep = verify_certificate(_forge(cert, two_state.T.space, how), two_state.T, two_state.P)
    assert not rep.ok
    assert any(v.startswith(message) for v in rep.violations), rep.violations
    if how == "n0":  # no power to judge: only the broken field is reported
        assert rep.violations == (message,)


@pytest.mark.parametrize("n0", [0, -2, 2.5, True, 4.0], ids=repr)
def test_audit_without_a_positive_integer_n0_reads_no_power(two_state, n0):
    # T^1 is not the certificate's power: its inequality and delta are not judged
    cert = certificate_from_convergence(two_state.T, two_state.P)
    rep = verify_certificate(dataclasses.replace(cert, n0=n0), two_state.T, two_state.P)
    assert rep.violations == (f"n0 {n0!r} not a positive integer",)
    assert not rep.ok and not rep.bound_holds
    assert rep.power is None and np.isnan(rep.actual_coefficient)
    assert rep.implied_bound == 0.5
    # the checks that need no power still run
    broken = dataclasses.replace(cert, n0=n0, tau=1.5, phi_table=np.zeros((3, 3)))
    rep = verify_certificate(broken, two_state.T, two_state.P)
    assert rep.violations == (
        "tau 1.5 outside (0, 1]", f"n0 {n0!r} not a positive integer",
        "phi_table has the wrong shape",
    )


def test_audit_takes_a_numpy_integer_n0(two_state):
    cert = certificate_from_convergence(two_state.T, two_state.P)
    rep = verify_certificate(dataclasses.replace(cert, n0=np.int64(4)), two_state.T, two_state.P)
    assert rep.ok and rep.power.shape == (2, 2)


NAN_TABLE_VIOLATIONS = (
    "a corrector phi_x leaves the cone",
    "minorization inequality fails at a vertex",
    "recorded sup_phi_norm does not match the table",
    "corrector budget exceeded",
)


@pytest.mark.parametrize("how, messages", [
    ("all-nan-table", NAN_TABLE_VIOLATIONS),
    ("one-nan-entry", NAN_TABLE_VIOLATIONS),
    ("nan-record", ("recorded sup_phi_norm does not match the table",)),
], ids=["all-nan-table", "one-nan-entry", "nan-record"])
@pytest.mark.parametrize("make", [corpus.two_state_fixture, corpus.block_fixture],
                         ids=lambda f: f.__name__)
def test_audit_fails_a_nan_in_the_table_or_the_record(make, how, messages):
    # a NaN compares False both ways: each test of the audit must fail on it
    inst = make()
    cert = certificate_from_convergence(inst.T, inst.P)
    assert verify_certificate(cert, inst.T, inst.P).ok
    phi = cert.phi_table.copy()
    if how == "all-nan-table":
        forged = dataclasses.replace(cert, phi_table=np.full_like(phi, np.nan))
    elif how == "one-nan-entry":
        phi[0, -1] = np.nan
        forged = dataclasses.replace(cert, phi_table=phi)
    else:
        forged = dataclasses.replace(cert, sup_phi_norm=float("nan"))
    rep = verify_certificate(forged, inst.T, inst.P)
    assert not rep.ok
    assert len(rep.violations) == len(messages)
    assert all(v.startswith(m) for v, m in zip(rep.violations, messages)), rep.violations


def test_search_two_state(two_state):
    out = search_certificates(two_state.T, two_state.P, n0_cap=40)
    assert not out.exhausted_minorization
    assert out.minorization.tau == pytest.approx(1.0, abs=1e-12)
    assert out.minorization.certificate.n0 == 3
    # overlap mass grows toward 1 with the power, so the best sits at the cap
    assert out.overlap.certificate.n0 == 40
    assert out.overlap.overlap > 0.99
    assert out.diagnostic == "ok"


def test_search_exhausts_on_permutation():
    perm = permutation_instance(4)
    out = search_certificates(perm.T, perm.P, n0_cap=25)
    assert out.exhausted_minorization
    assert out.exhausted_overlap
    assert out.minorization is None and out.overlap is None
    assert "n0_cap=25" in out.diagnostic


def test_search_on_corpus_members(small_corpus):
    for inst in small_corpus:
        out = search_certificates(inst.T, inst.P, n0_cap=60)
        if inst.expect_uniform:
            assert not out.exhausted_minorization, inst.label
            rep = verify_certificate(out.minorization.certificate, inst.T, inst.P)
            assert rep.ok, (inst.label, rep.violations)
            assert out.minorization.bound_holds, inst.label
        else:
            assert out.exhausted_minorization, inst.label


def test_default_q_candidates_block(blocky):
    cands = default_q_candidates(blocky.P)
    # P itself plus one rank-one projection per distinct block anchor image
    assert cands[0] is blocky.P
    assert len(cands) == 3
    for q in cands[1:]:
        assert q.variant == "rank_one"


def test_sub_projection_precondition(blocky):
    s = blocky.P.space
    stray = rank_one_projection(s, np.array([0.4, 0.1, 0.25, 0.25]))
    with pytest.raises(PreconditionError, match="sub-projection"):
        max_minorization_weight(blocky.T, blocky.P, stray, 1)


def test_membership_precondition():
    s = make_simplex(2)
    from ergokit import as_markov

    T = as_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), s)
    P = rank_one_projection(s, np.array([0.3, 0.7]))
    with pytest.raises(PreconditionError, match="TP=PT=P"):
        max_minorization_weight(T, P, P, 1)


def test_embedded_space_refused(embedded):
    with pytest.raises(UnsupportedSpaceError):
        max_minorization_weight(embedded.T, embedded.P, embedded.P, 1)
    with pytest.raises(UnsupportedSpaceError):
        overlap_certificate(embedded.T, embedded.P, embedded.P, 1)


def test_n0_must_be_positive(two_state):
    with pytest.raises(ValueError):
        max_minorization_weight(two_state.T, two_state.P, two_state.P, 0)
    with pytest.raises(ValueError):
        overlap_certificate(two_state.T, two_state.P, two_state.P, -2)


def test_convergence_constructor_refuses_nonmember():
    s = make_simplex(2)
    from ergokit import as_markov

    T = as_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), s)
    P = rank_one_projection(s, np.array([0.3, 0.7]))
    with pytest.raises(PreconditionError, match="need TP=PT=P"):
        certificate_from_convergence(T, P)


def test_convergence_constructor_names_both_causes_at_the_cap():
    perm = permutation_instance(3)
    with pytest.raises(PreconditionError) as exc:
        certificate_from_convergence(perm.T, perm.P, n0_cap=7)
    msg = str(exc.value)
    assert "n0_cap=7" in msg
    assert "not uniformly ergodic" in msg and "mixes too slowly" in msg


def test_search_computes_the_coefficient_once_per_winning_power(blocky, monkeypatch):
    calls = []
    real = doeblin.ergodicity_coefficient

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(doeblin, "ergodicity_coefficient", counted)
    cands = default_q_candidates(blocky.P)
    assert len(cands) == 3
    out = search_certificates(blocky.T, blocky.P, n0_cap=7, Q_candidates=cands)
    winners = {out.minorization.certificate.n0, out.overlap.certificate.n0}
    assert len(calls) == len(winners) <= 2
    Tn = dict(powers(np.asarray(blocky.T.matrix), 7))
    assert all(any(np.array_equal(a, Tn[n0]) for a in calls) for n0 in winners)


def _bisection_tau(Tn, Qm):
    """The 60-step bisection against the boundary of {g <= 0}, for reference."""
    if doeblin._gap(1.0, Qm, Tn) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if doeblin._gap(mid, Qm, Tn) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _random_qs(n, rng):
    """A rank-one and a block projection with random anchors, as matrices."""
    rank_one = np.outer(rng.dirichlet(np.ones(n)), np.ones(n))
    blocks = corpus.random_partition(n, rng)
    anchors = [rng.dirichlet(np.ones(len(b))) for b in blocks]
    return [rank_one, np.asarray(block_projection(make_simplex(n), blocks, anchors).matrix)]


def test_exact_tau_matches_the_bisection():
    rng = np.random.default_rng(11)
    below_one = 0
    for n in range(2, 13):
        for _ in range(10):
            T = corpus.dirichlet_matrix(n, rng)
            Tc = np.stack([Tn for _, Tn in powers(T, 3)])
            Qm = np.stack(_random_qs(n, rng))
            batch = doeblin._max_tau(Tc, Qm)
            for c in range(3):
                for k in range(2):
                    tau = batch[c, k]
                    # one pair alone gives the float the batch gives
                    assert doeblin._max_tau(Tc[c:c + 1], Qm[k:k + 1])[0, 0] == tau
                    assert doeblin._gap(tau, Qm[k], Tc[c]) <= 0.0
                    assert abs(tau - _bisection_tau(Tc[c], Qm[k])) <= 1e-15
                    below_one += tau < 1.0
    assert below_one > 600  # most pairs are not at the clip


def test_exact_tau_with_zero_entries_in_q():
    # Q's last row is zero, so that row's breakpoint t/q is infinite and sorts last
    T = np.array([[0.6, 0.1, 0.3], [0.3, 0.7, 0.2], [0.1, 0.2, 0.5]])
    for y in ([0.5, 0.5, 0.0], [1.0, 0.0, 0.0]):
        Qm = np.outer(y, np.ones(3))
        tau = doeblin._max_tau(T[None], Qm[None])[0, 0]
        assert 0.0 < tau < 1.0
        assert doeblin._gap(tau, Qm, T) <= 0.0
        assert abs(tau - _bisection_tau(T, Qm)) <= 1e-15
    # block Q, zero off its blocks
    anchors = [np.array([0.5, 0.5]), np.ones(1)]
    Qm = np.asarray(block_projection(make_simplex(3), [[0, 1], [2]], anchors).matrix)
    tau = doeblin._max_tau(T[None], Qm[None])[0, 0]
    assert doeblin._gap(tau, Qm, T) <= 0.0
    assert abs(tau - _bisection_tau(T, Qm)) <= 1e-15


def test_exact_tau_is_one_when_the_gap_at_one_is_not_positive(two_state):
    Pm = np.asarray(two_state.P.matrix)
    # T^n0 = Q: g(1) = -1/4
    assert doeblin._gap(1.0, Pm, Pm) <= 0.0
    assert doeblin._max_tau(Pm[None], Pm[None])[0, 0] == 1.0
    T3 = np.linalg.matrix_power(np.asarray(two_state.T.matrix), 3)
    assert doeblin._gap(1.0, Pm, T3) <= 0.0
    out = max_minorization_weight(two_state.T, two_state.P, two_state.P, 3)
    assert out.tau == 1.0 and out.feasible
    # a column whose root is exactly 1, where the rounded root T_1/(Q_1 - 1/4)
    # lands 1 ulp below it but the computed g(1) is still <= 0
    q, t = 0.32868146675533627, 0.07868146675533624
    Qm = np.outer([q, 1.0 - q], np.ones(2))
    Tn = np.outer([t, 1.0 - t], np.ones(2))
    assert t / (q - 0.25) < 1.0 and doeblin._gap(1.0, Qm, Tn) <= 0.0
    assert doeblin._max_tau(Tn[None], Qm[None])[0, 0] == 1.0


def test_exact_tau_on_a_permutation_is_infeasible():
    perm = permutation_instance(4)
    for n0 in (1, 2, 3):
        out = max_minorization_weight(perm.T, perm.P, perm.P, n0)
        assert out.tau <= doeblin.TAU_FLOOR
        assert not out.feasible and out.certificate is None


def test_search_with_no_candidates_exhausts_both_halves(two_state):
    out = search_certificates(two_state.T, two_state.P, n0_cap=5, Q_candidates=[])
    assert out.exhausted_minorization and out.exhausted_overlap
    assert out.minorization is None and out.overlap is None
    assert "n0_cap=5" in out.diagnostic


def _per_power_search(T, P, n0_cap):
    """Reference: one (power, Q) pair at a time; (score, n0, Q index, T^n0) per half."""
    best_min = best_over = None
    for n0, Tn in powers(np.asarray(T.matrix), n0_cap):
        for k, Q in enumerate(default_q_candidates(P)):
            tau = float(doeblin._max_tau(Tn[None], np.asarray(Q.matrix)[None])[0, 0])
            lam = doeblin._overlap_given_power(Tn, 0.0, Q, n0).overlap
            if tau > doeblin.TAU_FLOOR and (best_min is None or tau > best_min[0]):
                best_min = (tau, n0, k, Tn)
            if lam > 0.5 + doeblin.CONE_SLACK and (best_over is None or lam > best_over[0]):
                best_over = (lam, n0, k, Tn)
    return best_min, best_over


def test_search_stops_solving_tau_after_the_chunk_that_reaches_one(monkeypatch):
    inst = corpus.block_instance([25] * 4, np.random.default_rng(4), "b")
    cands = default_q_candidates(inst.P)
    ref_min, ref_over = _per_power_search(inst.T, inst.P, 200)

    chunks = []
    real = doeblin._max_tau

    def counted(Tc, Qm):
        chunks.append(len(Tc))
        # the memory bound: a chunk holds one power, or fits the element budget
        assert len(Tc) == 1 or Tc.shape[0] * Qm.size <= doeblin._CHUNK_ELEMENTS
        return real(Tc, Qm)

    monkeypatch.setattr(doeblin, "_max_tau", counted)
    out = search_certificates(inst.T, inst.P, n0_cap=200)
    m, o = out.minorization, out.overlap
    assert m.tau == ref_min[0] == 1.0
    assert (m.certificate.n0, o.certificate.n0) == (ref_min[1], ref_over[1])
    assert np.array_equal(m.certificate.Q.matrix, cands[ref_min[2]].matrix)
    assert np.array_equal(o.certificate.Q.matrix, cands[ref_over[2]].matrix)
    assert o.overlap == ref_over[0]
    for outcome, ref in ((m, ref_min), (o, ref_over)):
        assert outcome.actual_coefficient == ergodicity_coefficient(ref[3], inst.P).value
    # the tau solver saw powers 1..sum(chunks), and the last chunk held the winner
    seen = sum(chunks)
    assert seen - chunks[-1] < m.certificate.n0 <= seen < 200
    # the overlap half still scans to the cap
    assert o.certificate.n0 > seen
