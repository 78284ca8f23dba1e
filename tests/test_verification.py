"""Self-check battery: every named check runs, and corruption is caught."""

import dataclasses

import numpy as np
import pytest

from ergokit import CHECK_NAMES, run_verification, spectral_radius


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


@pytest.mark.parametrize("affinity,cpu_count,workers", [
    (3, 64, 3),  # the process may run on 3 of the host's 64 CPUs
    (20, 64, 8),
    (None, 5, 5),  # no affinity call on this platform: count the host's
    (None, None, 1),
])
def test_pool_is_sized_from_the_cpus_this_process_may_use(
    affinity, cpu_count, workers, monkeypatch
):
    from ergokit import verification

    sizes = []
    real_pool = verification.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(verification, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(verification.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            verification.os, "sched_getaffinity", lambda pid: set(range(affinity)),
            raising=False,
        )
    assert verification._parallel_map(lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]
    assert sizes == [workers]


def test_checks_share_each_instance_result(count_calls):
    # the trail, the convergence certificate, the negative search, the
    # classification, delta_P(T) and the Markov check are each computed once
    # per instance and run; every spectrum comes from the classification, and
    # the overlap check reads the shared audit's power and coefficient
    from ergokit.corpus import build_corpus, recorded_nonmultiplicative_instance
    from ergokit.operators import membership

    calls = count_calls(
        "gelfand_trail", "certificate_from_convergence", "search_certificates", "classify",
        "eigenvalues", "overlap_certificate", "ergodicity_coefficient", "markov_violations",
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
    # delta_P(T) at "auto" on the run's own (T, P), which classify was called on
    own = {(id(args[0]), id(args[1])) for _, args, _ in calls["classify"]}
    deltas = [
        (caller, args, kwargs) for caller, args, kwargs in calls["ergodicity_coefficient"]
        if (id(args[0]), id(args[1] if len(args) > 1 else None)) in own and "method" not in kwargs
    ]
    assert per_instance(deltas) == (len(corpus),) * 2
    validations = [
        (args[0], args[1]) for caller, args, _ in calls["markov_violations"]
        if caller == "_require_markov"
    ]
    assert len(validations) == len({A.tobytes() for A, _ in validations}) == len(corpus)
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


@pytest.mark.parametrize("route", ["_type_route", "_exact_from_vertices", "_overlap_form"])
def test_pair_formula_theorem_kills_a_mutant_of_either_route(route, monkeypatch):
    # analyze's pair-formula theorem and verify's pair-formula check run one
    # referee, the type route (auto) against the overlap form: a 1e-6
    # inflation of either fails the theorem and every case of the check, and
    # one of the vertex route, which neither harness runs, fails neither
    import dataclasses

    from ergokit import classify, coefficients, ergodicity_coefficient, verification
    from ergokit.corpus import block_instance, dirichlet_instance
    from ergokit.verification import instance_theorems

    rng = np.random.default_rng(0)
    corpus = [
        dirichlet_instance(7, rng, "dirichlet-7"),
        block_instance([3, 4], rng, "block-7"),
        dirichlet_instance(3, rng, "d-3"),
    ]
    assert [i.P.variant for i in corpus] == ["rank_one", "block", "rank_one"]
    assert all(i.T.space.is_lattice for i in corpus)

    def pair_formula(inst):
        verdict, report = classify(inst.T, inst.P)
        delta = ergodicity_coefficient(inst.T, inst.P)
        theorems = instance_theorems(inst.T, inst.P, verdict, report, delta)
        return next(ok for name, ok, _ in theorems if name == "pair-formula")

    def pair_formula_check():
        check = dict(verification.CHECKS)["pair-formula"]
        return check(corpus, verification.VerifyContext())

    assert all(pair_formula(i) for i in corpus)
    honest = pair_formula_check()
    assert (honest.passed, honest.failed) == (len(corpus), 0)
    module = verification if route == "_overlap_form" else coefficients
    real = getattr(module, route)
    scale = 1 + 1e-6

    def mutant(*args, **kwargs):
        res = real(*args, **kwargs)
        if route == "_overlap_form":
            return res * scale
        return dataclasses.replace(res, value=res.value * scale, upper_bound=res.upper_bound * scale)

    monkeypatch.setattr(module, route, mutant)
    dies = route != "_exact_from_vertices"
    assert [pair_formula(i) for i in corpus] == [not dies] * len(corpus)
    broken = pair_formula_check()
    expected = (0, len(corpus)) if dies else (len(corpus), 0)
    assert (broken.passed, broken.failed) == expected, broken.messages


def _random_blocks(n, rng):
    # 2 to 4 blocks of a random permutation, so the blocks interleave
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(1, 4))), replace=False))
    perm = rng.permutation(n)
    edges = [0, *cuts, n]
    return [sorted(perm[a:b].tolist()) for a, b in zip(edges[:-1], edges[1:])]


# the overlap form and the pair route agree within this many units in the
# last place of 1 (every value here is at most 1); 1.5 was the largest gap
# seen over 1800 draws at n <= 100
OVERLAP_ULPS = 4


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 13, 30, 100])
def test_overlap_form_matches_the_pair_route(n):
    from ergokit import ergodicity_coefficient, make_simplex, rank_one_projection
    from ergokit.corpus import dirichlet_matrix
    from ergokit.operators import block_projection, explicit_projection
    from ergokit.verification import _overlap_form

    rng = np.random.default_rng(n)
    space = make_simplex(n)
    tol = OVERLAP_ULPS * np.finfo(float).eps
    for draw in range(12 if n < 30 else 3):
        A = dirichlet_matrix(n, rng) if draw % 2 else rng.dirichlet(np.full(n, 0.05), n).T
        rank_one = rank_one_projection(space, rng.dirichlet(np.ones(n)))
        block = block_projection(space, _random_blocks(n, rng))
        written = explicit_projection(space, np.asarray(block.matrix))
        assert written.variant == "block" and sorted(written.blocks) == sorted(block.blocks)
        for P, groups in ((rank_one, (range(n),)), (block, block.blocks), (written, written.blocks)):
            pair = ergodicity_coefficient(A, P, space=space)
            assert pair.method == "pair-formula"
            assert abs(_overlap_form(A, groups) - pair.value) <= tol, (P.variant, draw)


def test_overlap_form_reads_column_sums_off_one():
    # columns summing to 1 +- VALIDATION_TOL pass the Markov check; the form
    # (s_i + s_j)/2 - sum min is the half l1 distance for them, where
    # 1 - sum min is off by the columns' own excess and fails the theorem's 1e-12
    from ergokit import as_markov, ergodicity_coefficient, make_simplex, rank_one_projection
    from ergokit.corpus import dirichlet_matrix
    from ergokit.operators import VALIDATION_TOL
    from ergokit.verification import _overlap_form

    rng = np.random.default_rng(3)
    for n, excess in ((3, 0.9), (10, -0.9), (30, 0.9)):
        space = make_simplex(n)
        A = dirichlet_matrix(n, rng) * (1 + excess * VALIDATION_TOL)
        as_markov(A, space)
        assert np.abs(A.sum(axis=0) - 1).min() > 0.8 * VALIDATION_TOL
        pair = ergodicity_coefficient(A, rank_one_projection(space, np.full(n, 1 / n))).value
        assert abs(_overlap_form(A, (range(n),)) - pair) <= OVERLAP_ULPS * np.finfo(float).eps
        overlaps = np.minimum(A.T[:, None, :], A.T[None, :, :]).sum(axis=2)
        i, j = np.triu_indices(n, 1)
        assert abs((1 - overlaps[i, j]).max() - pair) > 1e-12


def test_overlap_form_gives_singletons_no_pair():
    from ergokit.corpus import dirichlet_matrix
    from ergokit.verification import _overlap_form

    rng = np.random.default_rng(5)
    A = dirichlet_matrix(6, rng)
    assert _overlap_form(A, [(k,) for k in range(6)]) == 0.0
    assert _overlap_form(np.ones((1, 1)), [(0,)]) == 0.0
    # singletons next to a pair: only the pair counts, and a state in no
    # group is a singleton too
    pair = 0.5 * np.abs(A[:, 1] - A[:, 4]).sum()
    got = _overlap_form(A, [(0,), (1, 4), (2,), (3,), (5,)])
    assert got == pytest.approx(pair, abs=1e-15)
    assert _overlap_form(A, [(1, 4)]) == got


@pytest.mark.parametrize("mutant", ["types", "_group_pairs"])
def test_pair_formula_theorem_catches_a_pair_route_that_drops_a_group(mutant, monkeypatch):
    # the pair route and the vertex route both read P.types and the pair
    # list of _backend._group_pairs; the referee's overlap form reads the
    # equal-column groups of P's matrix itself, so a bug in either that drops
    # the group holding the maximizing pair fails analyze's theorem and
    # verify's check alike
    from ergokit import _backend, classify, ergodicity_coefficient, verification
    from ergokit.corpus import block_instance
    from ergokit.operators import MarkovProjection
    from ergokit.verification import instance_theorems

    inst = block_instance([3, 4, 2], np.random.default_rng(1), "block-9")
    # the honest value comes from a twin of P with a memo of its own, so that
    # inst.P builds its pair list and vertices under the mutant
    honest = ergodicity_coefficient(inst.T, dataclasses.replace(inst.P))
    assert honest.value > 0
    top = next(k for k, g in enumerate(inst.P.blocks) if honest.pair[0] in g)

    def drop_top(groups):
        return groups[:top] + groups[top + 1 :]

    if mutant == "types":
        monkeypatch.setattr(MarkovProjection, "types", property(lambda P: drop_top(P.blocks)))
    else:
        real = _backend._group_pairs
        monkeypatch.setattr(_backend, "_group_pairs", lambda groups: real(drop_top(groups)))
    delta = ergodicity_coefficient(inst.T, inst.P)
    assert delta.value < honest.value
    assert ergodicity_coefficient(inst.T, inst.P, method="vertices").value == delta.value
    verdict, report = classify(inst.T, inst.P)
    theorems = {name: ok for name, ok, _ in instance_theorems(inst.T, inst.P, verdict, report, delta)}
    assert theorems["pair-formula"] is False
    check = dict(verification.CHECKS)["pair-formula"]([inst], verification.VerifyContext())
    assert (check.passed, check.failed) == (0, 1), check.messages


@pytest.mark.parametrize("lower_by, upper_by, holds", [
    (0.0, 0.0, True),  # exact: [delta, delta]
    (None, 0.0, False),  # [0, delta] does not show norm(T^n (I - P)) <= 2 delta
    (0.0, 0.1, False),  # [delta, norm(T^n - P) + 0.1] does not show delta <= norm(T^n - P)
])
def test_power_norm_chain_reads_each_side_of_a_bracket(lower_by, upper_by, holds, monkeypatch):
    from ergokit import CoefficientResult, verification
    from ergokit.corpus import two_state_fixture

    real = verification.ergodicity_coefficient

    def bracket(*args, **kwargs):
        exact = real(*args, **kwargs)
        value = 0.0 if lower_by is None else exact.value - lower_by
        return CoefficientResult(
            value, "monte-carlo-lower-bound", None, False, exact.upper_bound + upper_by
        )

    monkeypatch.setattr(verification, "ergodicity_coefficient", bracket)
    check = dict(verification.CHECKS)["power-norm-chain"]
    res = check([two_state_fixture()], verification.VerifyContext())
    assert (res.passed, res.failed) == ((1, 0) if holds else (0, 1)), res.messages


def test_mc_lower_bound_is_tight_on_the_dims_2_to_10_corpus():
    # four top-ratio polish starts ended at local optima on 3 of these 59
    # cases (slacks 8e-3 to 2.4e-2); starts with distinct sign patterns
    # reach the exact value within the check's 1e-4 bound on every case; the
    # other 13 checks pass on this corpus too (verify --dims 2..10 --count 6)
    results = run_verification(seed=0, dims=range(2, 11), count=6)
    mc = next(r for r in results if r.name == "mc-lower-bound")
    assert (mc.passed, mc.failed) == (59, 0), mc.messages
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert all(r.ok for r in results), [(r.name, r.messages) for r in results if not r.ok]


def _mc_scaled_up(real):
    def lower_bound(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, value=res.value * 1.001)
    return lower_bound


def _radius_of_T(real):
    def report(T, P):
        rep = real(T, P)
        return dataclasses.replace(rep, residual_radius=float(np.abs(rep.spectrum_T).max()))
    return report


def _powers_one_ahead(real):
    def powers(A, N):  # (n, A^(n + 1)) for n = 1..N
        for n, An in real(A, N + 1):
            if n > 1:
                yield n - 1, An
    return powers


def _powers_one_behind(real):
    def powers(A, N):  # (n, A^(n - 1)) for n = 1..N
        yield 1, np.eye(len(A))
        for n, An in real(A, N - 1):
            yield n + 1, An
    return powers


def _n0_one_early(real):
    def certificate(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, n0=cert.n0 - 1)
    return certificate


def _skip_last_group(real):
    def group_pairs(groups):  # the pair list of every group but the last
        return real(groups[:-1])
    return group_pairs


def _tensor_crosswise(real):
    def bound(S, Q, T, P, tol=1e-9, **kwargs):  # subtracts P (x) Q, not Q (x) P
        rep = real(S, Q, T, P, tol, **kwargs)
        lhs = spectral_radius(np.kron(S.matrix, T.matrix) - np.kron(P.matrix, Q.matrix))
        return dataclasses.replace(rep, lhs=lhs, ok=lhs <= rep.rhs + tol)
    return bound


@pytest.mark.parametrize("name, mutant, killer", [
    ("coefficient_lower_bound", _mc_scaled_up, "mc-lower-bound"),
    ("spectral_report", _radius_of_T, "classification-equivalence"),
    ("powers", _powers_one_ahead, "power-norm-chain"),
    ("powers", _powers_one_behind, "power-norm-chain"),
    ("certificate_from_convergence", _n0_one_early, "certificate-audit"),
    ("_group_pairs", _skip_last_group, "pair-formula"),
    ("tensor_rate_bound", _tensor_crosswise, "tensor-bound"),
], ids=["mc-lower-side-x1.001", "radius-off-eig-T", "powers-one-ahead", "powers-one-behind",
        "n0-one-early", "pair-route-skips-last-group", "tensor-crosswise"])
def test_verify_at_the_defaults_kills_each_code_mutant(name, mutant, killer, monkeypatch):
    # the mutant replaces every binding of the function in the package (a
    # from-import copies it into each module that uses it); an honest run
    # passes every check (test_cli.py's test_verify_runs_every_check_at_the_usual_flags),
    # so any failed check is the mutant's doing, and ``killer`` is one that must fail
    import sys

    mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ergokit"]
    real = next(getattr(m, name) for m in mods
                if getattr(getattr(m, name, None), "__module__", None) == m.__name__)
    fake = mutant(real)
    for mod in mods:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, fake)
    failed = [r.name for r in run_verification() if not r.ok]
    assert killer in failed, f"{name} mutant survived {killer} at the defaults: {failed}"
