"""Minorization and overlap certificates: construction, search, auditing."""

import dataclasses

import numpy as np
import pytest

from ergokit import (
    PreconditionError,
    UnsupportedSpaceError,
    certificate_from_convergence,
    default_q_candidates,
    make_simplex,
    max_minorization_weight,
    overlap_certificate,
    rank_one_projection,
    search_certificates,
    verify_certificate,
)
from ergokit.corpus import permutation_instance


def test_minorization_fixture_value(two_state):
    # g(tau) = 0.5 tau - 0.3 for this chain at n0 = 1, so tau* = 0.6
    out = max_minorization_weight(two_state.T, two_state.P, two_state.P, 1)
    assert out.feasible
    assert out.tau == pytest.approx(0.6, abs=1e-12)
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


def test_search_computes_the_coefficient_once_per_power(blocky, monkeypatch):
    from ergokit import doeblin

    calls = []
    real = doeblin.ergodicity_coefficient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(doeblin, "ergodicity_coefficient", counted)
    cands = default_q_candidates(blocky.P)
    assert len(cands) == 3
    search_certificates(blocky.T, blocky.P, n0_cap=7, Q_candidates=cands)
    assert len(calls) == 7
