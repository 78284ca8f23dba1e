"""Self-check battery: every named check runs, and corruption is caught."""

import numpy as np
import pytest

from ergokit import CHECK_NAMES, run_verification


def test_all_checks_pass_on_small_corpus():
    results = run_verification(count=1, dims=(2, 3), samples=2000)
    assert [r.name for r in results] == list(CHECK_NAMES)
    for r in results:
        assert r.failed == 0, (r.name, r.messages)
        assert r.passed > 0, r.name


def test_unknown_corruption_target_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_verification(count=1, dims=(2,), corrupt="no-such-check")


def _corpus():
    from ergokit.corpus import build_corpus, recorded_nonmultiplicative_instance

    corpus = build_corpus(0, dims=(2, 3), chains_per_dim=1)
    corpus.append(recorded_nonmultiplicative_instance())
    return corpus


def _case_count(name, instances):
    # the cases each check counts one verdict for, selected independently here
    uniform = [i for i in instances if i.expect_uniform]
    lattice = [i for i in instances if i.T.space.is_lattice]
    return {
        "pair-formula": sum(i.P.variant in ("rank_one", "block") for i in lattice),
        "eigenvalue-bound": sum(1 + (i.S is not None) for i in instances),
        "rate-identity": len(uniform),
        "gelfand-trail": len(uniform),
        "tensor-bound": max(0, sum(i.T.space.dim <= 6 for i in uniform) - 1),
        "doeblin-equivalence": len(lattice),
        "overlap-soundness": len(lattice),
        "certificate-audit": sum(i.expect_uniform for i in lattice),
    }.get(name, len(instances))


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_corruption_fails_exactly_the_named_check(name):
    from ergokit.verification import _POISON

    results = run_verification(count=1, dims=(2, 3), samples=2000, corrupt=name)
    broken = [r.name for r in results if r.failed]
    assert broken == [name]
    bad = next(r for r in results if r.name == name)
    assert bad.messages
    for r in results:
        instances = _corpus() + ([_POISON[name]()] if r.name == name else [])
        assert r.passed >= 0, r
        assert r.passed + r.failed == _case_count(r.name, instances), r


def test_a_case_failing_two_inequalities_is_one_failed_case(monkeypatch):
    # one verdict per case: both failed inequalities share one message
    import dataclasses

    from ergokit import verification

    real = verification.coefficient_inequalities

    def two_fail(*args, **kwargs):
        checks = real(*args, **kwargs)
        broken = [dataclasses.replace(c, applicable=True, holds=False) for c in checks[:2]]
        return broken + checks[2:]

    monkeypatch.setattr(verification, "coefficient_inequalities", two_fail)
    results = run_verification(count=1, dims=(2, 3), samples=2000)
    corpus = _corpus()
    res = next(r for r in results if r.name == "coefficient-properties")
    assert (res.passed, res.failed) == (0, len(corpus))
    assert [r.name for r in results if r.failed] == ["coefficient-properties"]
    checks = real(corpus[0].T, corpus[0].S, corpus[0].P, tol=verification.TOL)
    a, b = checks[:2]
    assert res.messages[0] == (
        f"{corpus[0].label}: {a.name}: {a.details}; {b.name}: {b.details}"
    )
    assert len(res.messages) == min(len(corpus), verification.MAX_MESSAGES)


def test_an_error_in_one_case_fails_that_case_alone(monkeypatch):
    # a classification that raises for one instance fails that instance in
    # each check that reads it; the run and the other checks go on
    from ergokit import verification
    from ergokit.errors import PreconditionError

    target = _corpus()[0].label
    real = verification._SHARED["classify"]

    def refuse_one(ctx, inst):
        if inst.label == target:
            raise PreconditionError("refused")
        return real(ctx, inst)

    monkeypatch.setitem(verification._SHARED, "classify", refuse_one)
    results = run_verification(count=1, dims=(2, 3), samples=2000)
    assert [r.name for r in results] == list(CHECK_NAMES)
    res = next(r for r in results if r.name == "classification-equivalence")
    assert (res.passed, res.failed) == (len(_corpus()) - 1, 1)
    assert res.messages == (f"{target}: refused",)
    for r in results:
        assert r.passed >= 0 and r.passed + r.failed == _case_count(r.name, _corpus())
        assert all(m.startswith(target) for m in r.messages), r
    assert "coefficient-properties" not in [r.name for r in results if r.failed]


def test_only_the_blas_bound_checks_use_the_pool(monkeypatch):
    # pooling the Python-bound checks measured slower; see verification._POOLED
    from ergokit import verification

    current, pooled = [], []
    real_map = verification._parallel_map

    def counted(fn, items):
        pooled.append(current[-1])
        return real_map(fn, items)

    def named(name, check):
        def run(instances, ctx):
            current.append(name)
            return check(instances, ctx)

        return run

    monkeypatch.setattr(verification, "_parallel_map", counted)
    monkeypatch.setattr(
        verification, "CHECKS", tuple((n, named(n, c)) for n, c in verification.CHECKS)
    )
    results = run_verification(count=1, dims=(2, 3), samples=2000)
    assert all(r.ok for r in results)
    assert current == list(CHECK_NAMES)
    assert pooled == ["mc-lower-bound", "doeblin-equivalence", "overlap-soundness"]


def test_checks_share_each_instance_result(count_calls):
    # the trail, the convergence certificate, the negative search and the
    # classification are each computed once per instance and run; every
    # spectrum comes from the classification, and the overlap check reads the
    # shared audit's power and coefficient
    from ergokit.corpus import build_corpus, recorded_nonmultiplicative_instance
    from ergokit.operators import membership

    calls = count_calls(
        "gelfand_trail", "certificate_from_convergence", "search_certificates", "classify",
        "eigenvalues", "overlap_certificate",
    )
    results = run_verification(count=1, dims=(2, 3, 4), samples=2000)
    assert all(r.ok for r in results)
    corpus = build_corpus(0, dims=(2, 3, 4), chains_per_dim=1)
    corpus.append(recorded_nonmultiplicative_instance())
    lattice = [i for i in corpus if i.T.space.is_lattice]
    negatives = [i for i in lattice if not i.expect_uniform]
    assert negatives

    def per_instance(group):
        # (calls, distinct operators called on)
        seen = [np.asarray(args[0].matrix).tobytes() for _, args, _ in group]
        return len(seen), len(set(seen))

    uniform = len(lattice) - len(negatives)
    members = sum(1 for i in corpus if membership(i.T, i.P)[0])
    tensor_pairs = sum(1 for i in corpus if i.expect_uniform and i.T.space.dim <= 6) - 1
    assert per_instance(calls["search_certificates"]) == (len(negatives),) * 2
    assert per_instance(calls["certificate_from_convergence"]) == (uniform,) * 2
    assert per_instance(calls["gelfand_trail"]) == (members,) * 2
    assert per_instance(calls["classify"]) == (len(corpus),) * 2
    # T and T - P per instance, and the product chain of each tensor pair
    assert len(calls["eigenvalues"]) == 2 * len(corpus) + tensor_pairs
    assert calls["overlap_certificate"] == []


def test_shared_result_is_computed_once_under_contention(monkeypatch):
    # many threads ask for one instance's result at once: one computes it,
    # the others wait for it, and an error reaches every reader
    import sys
    import threading
    import time

    from ergokit import verification
    from ergokit.corpus import two_state_fixture
    from ergokit.errors import PreconditionError

    computed = []

    def slow(ctx, inst):
        computed.append(inst)
        time.sleep(0.01)
        return object()

    def failing(ctx, inst):
        computed.append(inst)
        raise PreconditionError("refused")

    monkeypatch.setitem(verification._SHARED, "classify", slow)
    monkeypatch.setitem(verification._SHARED, "search", failing)
    ctx = verification.VerifyContext()
    inst = two_state_fixture()
    got, errors = [], []

    def read():
        got.append(ctx.shared("classify", inst))
        try:
            ctx.shared("search", inst)
        except PreconditionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(computed) == 2
    assert len(got) == 16 and all(g is got[0] for g in got)
    assert len(errors) == 16 and all(e is errors[0] for e in errors)


def test_each_honest_certificate_is_audited_once(count_calls):
    # doeblin-equivalence and certificate-audit read one shared audit of the
    # honest certificate; the forged and padded ones are audited on their own
    calls = count_calls("verify_certificate")
    results = run_verification(seed=36, dims=range(2, 11), count=2)
    assert all(r.ok for r in results)
    callers = [caller for caller, _, _ in calls["verify_certificate"]]
    assert len(callers) == 57
    assert callers.count("<lambda>") == 19  # the shared honest audits


def test_shared_audit_raises_the_certificate_error_again():
    from ergokit import verification
    from ergokit.errors import ErgokitError
    from ergokit.verification import _poison_false_positive

    ctx = verification.VerifyContext()
    inst = _poison_false_positive()
    with pytest.raises(ErgokitError) as first:
        ctx.shared("certificate", inst)
    with pytest.raises(ErgokitError) as again:
        ctx.shared("audit", inst)
    assert again.value is first.value
