"""Acceptance gate: twelve numbered criteria, one [Axx] PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; under default capture they appear in the captured-output section of
any failing test.  Each criterion is a separate test so a regression names
the exact guarantee it broke.
"""

import json
import math
import time

import numpy as np
import pytest

import ergokit as ek
from ergokit.corpus import (
    block_instance,
    dirichlet_instance,
    random_partition,
    rank_one_instance,
)

# float-comparison allowance when two routes compute the same real number:
# the polished Monte-Carlo ratio and the vertex maximum can land on the same
# optimizer yet round differently in the last couple of ulps
ORDER_EPS = 1e-12


def report(tag, problems):
    ok = not problems
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}"
    if problems:
        line += f"  ({len(problems)} problem(s); first: {problems[0]})"
    print(line, flush=True)
    assert ok, f"{tag}: {problems[:5]}"


@pytest.fixture(scope="module")
def corpus():
    return ek.build_corpus(seed=0)


def _block_sizes(n, rng):
    # a partition into singletons makes P the identity, whose kernel is
    # empty: both sides are 0 and the oracle comparison checks nothing;
    # redraw until some block aggregates at least two states
    if n == 2:
        return [2]
    while True:
        sizes = [len(b) for b in random_partition(n, rng)]
        if max(sizes) > 1:
            return sizes


def test_a01_oracle_agreement_and_budget():
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(100):
        n = int(rng.integers(2, 7))
        instances.append(rank_one_instance(n, rng, f"rank-one-{i}"))
    for i in range(100):
        n = int(rng.integers(2, 7))
        instances.append(block_instance(_block_sizes(n, rng), rng, f"block-{i}"))

    problems = []
    t0 = time.monotonic()
    for k, inst in enumerate(instances):
        exact = ek.ergodicity_coefficient(inst.T, inst.P)
        low = ek.coefficient_lower_bound(inst.T, inst.P, samples=100_000, seed=k)
        if low.value > exact.value + ORDER_EPS:
            problems.append(f"{inst.label}: bound {low.value} above exact {exact.value}")
        if exact.value - low.value > 1e-4:
            problems.append(f"{inst.label}: gap {exact.value - low.value:.3e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s budget")
    report("A01", problems)


def test_a02_pair_formula_matches_enumeration(corpus):
    problems = []
    for inst in corpus:
        a = ek.ergodicity_coefficient(inst.T, inst.P)
        b = ek.ergodicity_coefficient(inst.T, inst.P, method="vertices")
        if a.method != "pair-formula":
            problems.append(f"{inst.label}: auto took {a.method}")
        if abs(a.value - b.value) > 1e-12:
            problems.append(f"{inst.label}: |{a.value} - {b.value}|")
    report("A02", problems)


def test_a03_coefficient_properties(corpus):
    problems = []
    for inst in corpus:
        S = inst.S if inst.S is not None else inst.T
        for c in ek.coefficient_inequalities(inst.T, S, inst.P, tol=1e-9):
            if not c.ok:
                problems.append(f"{inst.label}/{c.name}: {c.details}")
        # the annihilated-factor inequality with the canonical deflector
        Pm = np.asarray(inst.P.matrix)
        H = np.eye(Pm.shape[0]) - Pm
        checks = {
            c.name: c
            for c in ek.coefficient_inequalities(inst.T, S, inst.P, H=H, tol=1e-9)
        }
        fac = checks["annihilated-factor"]
        if not (fac.applicable and fac.holds):
            problems.append(f"{inst.label}: I-P factor rejected ({fac.details})")
    report("A03", problems)


def test_a04_classification_clauses_agree(corpus):
    problems = []
    for inst in corpus:
        verdict, _ = ek.classify(inst.T, inst.P)
        holds = {c.holds for c in verdict.clauses if c.holds is not None}
        if len(holds) != 1 or not verdict.consistent:
            problems.append(
                f"{inst.label}: {[(c.name, c.holds) for c in verdict.clauses]}"
            )
        elif verdict.uniform != inst.expect_uniform:
            problems.append(f"{inst.label}: verdict {verdict.uniform}")
    report("A04", problems)


def test_a05_rate_equals_residual_radius(corpus):
    problems = []
    for inst in corpus:
        if not inst.expect_uniform:
            continue
        r = ek.spectral_report(inst.T, inst.P).residual_radius
        br = ek.best_rate(inst.T, inst.P)
        if abs(br - r) > 1e-8:
            problems.append(f"{inst.label}: |{br} - {r}|")
    two = ek.two_state_fixture()
    br = ek.best_rate(two.T, two.P)
    r = ek.spectral_report(two.T, two.P).residual_radius
    if abs(br - 0.6) > 1e-12 or abs(r - 0.6) > 1e-12:
        problems.append(f"two-state fixture: rate {br}, radius {r}")
    report("A05", problems)


def test_a06_power_roots_bracket_the_radius(corpus):
    problems = []
    for inst in corpus:
        trail = ek.gelfand_trail(inst.T, inst.P, N=30)
        r = trail.residual_radius
        if not trail.all_above or min(trail.values) < r - 1e-9:
            problems.append(f"{inst.label}: root below radius {r}")
        if r >= 0.1 and abs(trail.values[-1] - r) > 0.05:
            problems.append(f"{inst.label}: n=30 root {trail.values[-1]} vs r={r}")
    report("A06", problems)


def test_a07_log_rate_overshoot_decays():
    two = ek.two_state_fixture()
    prof = ek.rate_profile(two.T, two.P, N=40)
    problems = []
    if not abs(prof.alphas[39]) < 0.01:
        problems.append(f"alpha_40 = {prof.alphas[39]}")
    report("A07", problems)


def test_a08_multiplicativity_dichotomy(corpus):
    problems = []
    two = ek.two_state_fixture()
    rep = ek.multiplicativity_test(two.T, two.P)
    if not (rep.coefficient_equals_radius and rep.powers_multiplicative):
        problems.append("two-state fixture should satisfy both sides")
    recorded = ek.recorded_nonmultiplicative_instance()
    rep = ek.multiplicativity_test(recorded.T, recorded.P)
    if rep.coefficient_equals_radius or rep.powers_multiplicative:
        problems.append("recorded instance should fail both sides")
    both_false = 0
    for inst in corpus + [recorded]:
        rep = ek.multiplicativity_test(inst.T, inst.P)
        if not rep.agree:
            problems.append(f"{inst.label}: sides disagree (gap {rep.worst_power_gap})")
        if not rep.coefficient_equals_radius and not rep.powers_multiplicative:
            both_false += 1
    if both_false == 0:
        problems.append("no instance with both sides false")
    report("A08", problems)


def test_a09_doeblin_equivalence(corpus):
    problems = []
    for inst in corpus:
        if not inst.expect_uniform:
            out = ek.search_certificates(inst.T, inst.P, n0_cap=40)
            if not (out.exhausted_minorization and out.minorization is None):
                problems.append(f"{inst.label}: certificate on a non-ergodic chain")
            continue
        prof = ek.rate_profile(inst.T, inst.P)
        r, C = prof.rate, prof.fitted_C
        # smallest n with C * r^n <= 1/4 guarantees a converse certificate;
        # pad it so the search never rides the boundary
        cap = max(1, math.ceil(math.log(0.25 / C) / math.log(r))) + 10
        out = ek.search_certificates(inst.T, inst.P, n0_cap=cap)
        mino = out.minorization
        if mino is None or not mino.feasible:
            problems.append(f"{inst.label}: no certificate within cap {cap}")
            continue
        audit = ek.verify_certificate(mino.certificate, inst.T, inst.P)
        if not audit.ok:
            problems.append(f"{inst.label}: audit violations {audit.violations}")
        if not audit.bound_holds:
            problems.append(
                f"{inst.label}: implied bound {audit.implied_bound} "
                f"vs actual {audit.actual_coefficient}"
            )
    report("A09", problems)


def test_a10_overlap_certificates_are_sound(corpus):
    problems = []
    two = ek.two_state_fixture()
    out = ek.overlap_certificate(two.T, two.P, two.P, 1)
    if not out.feasible or abs(out.overlap - 0.55) > 1e-12:
        problems.append(f"fixture overlap {out.overlap}")
    issued = 0
    for inst in corpus:
        res = ek.search_certificates(inst.T, inst.P, n0_cap=40)
        if res.overlap is not None and res.overlap.feasible:
            issued += 1
            verdict, _ = ek.classify(inst.T, inst.P)
            if not verdict.uniform:
                problems.append(f"{inst.label}: certificate on a non-ergodic chain")
    if issued == 0:
        problems.append("no overlap certificate issued anywhere")
    report("A10", problems)


def test_a11_product_rate_bound():
    problems = []
    rng = np.random.default_rng(11)
    for k in range(50):
        na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        if k % 2:
            a = rank_one_instance(na, rng, f"a{k}")
            b = dirichlet_instance(nb, rng, f"b{k}")
        else:
            a = dirichlet_instance(na, rng, f"a{k}")
            b = rank_one_instance(nb, rng, f"b{k}")
        rep = ek.tensor_rate_bound(a.T, a.P, b.T, b.P, tol=1e-9)
        if not rep.ok:
            problems.append(f"pair {k}: lhs {rep.lhs} rhs {rep.rhs}")
    two = ek.two_state_fixture()
    fast = ek.fast_two_state_fixture()
    rep = ek.tensor_rate_bound(two.T, two.P, fast.T, fast.P)
    if not (rep.ok and rep.tight and abs(rep.lhs - 0.6) < 1e-10):
        problems.append(f"0.6 x 0.2 fixture: lhs {rep.lhs} tight {rep.tight}")
    report("A11", problems)


def test_a12_embedded_space_end_to_end():
    doc = {
        "space": {"type": "embedded", "inner_dim": 1},
        "operator": [[1.0, 0.0], [0.0, 0.5]],
        "projection": {"type": "rank_one", "y": [1.0, 0.0]},
    }
    inst = ek.parse_instance(json.dumps(doc))
    problems = []
    coef = ek.ergodicity_coefficient(inst.operator, inst.projection)
    if abs(coef.value - 0.5) > 1e-12 or not coef.certified_exact:
        problems.append(f"coefficient {coef.value} ({coef.method})")
    r = ek.spectral_report(inst.operator, inst.projection).residual_radius
    if abs(r - 0.5) > 1e-12:
        problems.append(f"residual radius {r}")
    br = ek.best_rate(inst.operator, inst.projection)
    if abs(br - 0.5) > 1e-12:
        problems.append(f"best rate {br}")
    report("A12", problems)
