"""Contraction coefficients against independent oracles.

The exact routes (kernel-vertex enumeration, pair formula) are checked
against a sign-pattern LP oracle that shares no code with them: maximizing
norm(Az)_1 over the kernel-restricted unit ball equals the max over sign
vectors s of the LP max s.(Az), and for dims <= 5 all 2^n patterns are
cheap to solve.
"""

import gc
import itertools
import json
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from ergokit import (
    DimensionTooLargeError,
    MarkovProjection,
    UnsupportedSpaceError,
    as_markov,
    block_projection,
    coefficient_inequalities,
    coefficient_lower_bound,
    eigenvalue_bound_check,
    ergodicity_coefficient,
    explicit_projection,
    kernel_ball_vertices,
    make_embedded,
    make_simplex,
    parse_instance,
    rank_one_projection,
)
from ergokit import _backend, coefficients
from ergokit._backend import _group_pairs
from ergokit.coefficients import _SAMPLES, _unit_samples
from ergokit.corpus import (
    block_fixture,
    block_instance,
    build_corpus,
    metropolis_matrix,
    smoothed_target,
    stationary_distribution,
)


def lp_oracle(A, P_mat):
    """Exact sup of norm(Az)_1 over {Pz = 0, norm(z)_1 <= 1} via 2^n LPs."""
    n = A.shape[0]
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        s = np.array((1.0,) + signs)  # -s gives the same value, fix s[0]
        c = A.T @ s
        # z = u - v with u, v >= 0 and sum(u + v) <= 1
        res = linprog(
            np.concatenate([-c, c]),
            A_ub=np.ones((1, 2 * n)),
            b_ub=[1.0],
            A_eq=np.hstack([P_mat, -P_mat]),
            b_eq=np.zeros(n),
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
        assert res.success
        best = max(best, -res.fun)
    return best


def random_chain(n, rng):
    pi = smoothed_target(n, rng)
    T = metropolis_matrix(pi, rng)
    return T, pi


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_matches_lp_oracle_rank_one(n, rng):
    T, pi = random_chain(n, rng)
    s = make_simplex(n)
    P = rank_one_projection(s, pi)
    exact = ergodicity_coefficient(T, P, space=s)
    assert exact.certified_exact
    assert exact.value == pytest.approx(lp_oracle(T, np.asarray(P.matrix)), abs=1e-9)


def test_exact_matches_lp_oracle_block(rng):
    s = make_simplex(4)
    T = np.zeros((4, 4))
    T[:2, :2] = metropolis_matrix(smoothed_target(2, rng), rng)
    T[2:, 2:] = metropolis_matrix(smoothed_target(2, rng), rng)
    P = block_projection(s, [[0, 1], [2, 3]])
    exact = ergodicity_coefficient(T, P, space=s)
    assert exact.value == pytest.approx(lp_oracle(T, np.asarray(P.matrix)), abs=1e-9)


def test_two_state_coefficient_frozen(two_state):
    # hand value: (1/2) norm(T(e0 - e1))_1 = (1/2)(0.6 + 0.6) = 0.6
    res = ergodicity_coefficient(two_state.T, two_state.P)
    assert res.value == pytest.approx(0.6, abs=1e-14)
    assert res.certified_exact


def test_block_fixture_coefficient_frozen(blocky):
    # within-block pair rates are 0.4 and 0.8; the slow block wins
    res = ergodicity_coefficient(blocky.T, blocky.P)
    assert res.value == pytest.approx(0.8, abs=1e-14)


def test_embedded_fixture_coefficient_frozen(embedded):
    # kernel of P is {(0, x)}; T halves it, so the ratio is exactly 1/2
    res = ergodicity_coefficient(embedded.T, embedded.P)
    assert res.value == pytest.approx(0.5, abs=1e-15)
    assert res.certified_exact


def test_pair_formula_equals_enumeration(small_corpus):
    for inst in small_corpus:
        a = ergodicity_coefficient(inst.T, inst.P, method="vertices")
        b = ergodicity_coefficient(inst.T, inst.P)
        assert b.method == "pair-formula", inst.label
        assert a.value == pytest.approx(b.value, abs=1e-12), inst.label


def test_pair_witness_annihilated(two_state):
    res = ergodicity_coefficient(two_state.T, two_state.P)
    assert res.method == "pair-formula" and res.pair is not None
    assert np.abs(np.asarray(two_state.P.matrix) @ res.witness).max() < 1e-12


def test_classical_coefficient_no_projection(two_state):
    # P = None contracts on ker f; for rank-one P both kernels coincide
    a = ergodicity_coefficient(two_state.T)
    b = ergodicity_coefficient(two_state.T, two_state.P)
    assert a.value == pytest.approx(b.value, abs=1e-14)


def test_projected_never_exceeds_classical(small_corpus):
    for inst in small_corpus:
        dP = ergodicity_coefficient(inst.T, inst.P).value
        d = ergodicity_coefficient(inst.T, space=inst.T.space).value
        assert dP <= d + 1e-12, inst.label


def test_identity_projection_has_coefficient_zero():
    # ker P = {0}: the sup over no x is 0 on both exact routes
    s = make_simplex(3)
    P = explicit_projection(s, np.eye(3))
    res = ergodicity_coefficient(np.eye(3), P, space=s)
    assert (res.value, res.method, res.certified_exact) == (0.0, "pair-formula", True)
    assert res.witness is None


@pytest.mark.parametrize(
    "space", [make_simplex(4), make_embedded(3, "l1"), make_embedded(3, "linf")],
    ids=["simplex", "l1", "linf"],
)
def test_ker_f_projection_is_the_rank_one_projection_onto_base_vertex_0(space):
    # built without rank_one_projection's checks, yet the same matrix bit for bit
    b0 = space.base_vertices[0]
    P = coefficients._ker_f_projection(space)
    assert P.variant == "rank_one" and P.space is space
    want = rank_one_projection(space, b0)
    assert np.asarray(P.matrix).tobytes() == np.asarray(want.matrix).tobytes()
    assert np.asarray(P.y).tobytes() == np.asarray(want.y).tobytes()
    # the matrix is built once per space, read-only
    again = coefficients._ker_f_projection(space)
    assert again.matrix is P.matrix and again.space is space
    assert not P.matrix.flags.writeable


def test_ker_f_matrix_dies_with_its_space():
    # the cache holds the matrix, which does not reach the space, so the
    # space is freed by reference counting alone, and its entry with it
    s = make_simplex(5)
    M = weakref.ref(coefficients._ker_f_projection(s).matrix)
    ergodicity_coefficient(np.eye(5), None, space=s)
    by_space = weakref.ref(s)
    gc.disable()
    try:
        del s
        assert by_space() is None and M() is None
    finally:
        gc.enable()


def test_ker_f_on_one_state_is_the_empty_kernel():
    # one state: ker f = {0}, so the classical coefficient is 0 on both exact
    # routes, and every sampled direction deflects to 0: the bracket [0, inf)
    s = make_simplex(1)
    T = as_markov(np.eye(1), s)
    res = ergodicity_coefficient(T)
    assert (res.value, res.method, res.certified_exact) == (0.0, "pair-formula", True)
    low = coefficient_lower_bound(T, None)
    assert (low.value, low.upper_bound, low.witness) == (0.0, np.inf, None)
    assert kernel_ball_vertices(None, s).shape == (0, 1)


@pytest.mark.parametrize(
    "space", [make_simplex(5), make_simplex(3), make_embedded(3)],
    ids=["simplex-5", "simplex-3", "embedded-4"],
)
def test_a_projection_on_another_space_is_refused(space):
    P = block_projection(make_simplex(4), [[0, 1], [2, 3]])
    A = np.eye(space.dim)
    with pytest.raises(ValueError, match="projection on"):
        ergodicity_coefficient(A, P, space=space)
    with pytest.raises(ValueError, match="projection on"):
        coefficient_lower_bound(A, P, space=space, samples=100)
    with pytest.raises(ValueError, match="projection on"):
        kernel_ball_vertices(P, space)
    if space.is_lattice:
        with pytest.raises(ValueError, match="projection on"):
            ergodicity_coefficient(as_markov(A, space), P)


def test_a_projection_on_an_equal_space_is_accepted(rng):
    P = block_projection(make_simplex(4), [[0, 1], [2, 3]])
    other = make_simplex(4)
    V = kernel_ball_vertices(P)
    assert kernel_ball_vertices(P, other) is V
    A = rng.standard_normal((4, 4))
    want = ergodicity_coefficient(A, P)
    got = ergodicity_coefficient(A, P, space=other)
    assert (got.value, got.method) == (want.value, want.method)


def test_identity_projection_meets_every_inequality_at_zero(two_state):
    # ker P = {0}: delta_P = 0, and H = I - P = 0 makes every side 0
    s = two_state.T.space
    P = explicit_projection(s, np.eye(2))
    checks = coefficient_inequalities(two_state.T, two_state.T, P)
    assert [c.name for c in checks] == [
        "range", "difference-lipschitz", "commuting-factor",
        "annihilated-factor", "submultiplicative",
    ]
    for c in checks:
        assert c.applicable and c.holds, c.name
        assert all(v == 0.0 for v in c.details.values()), c.name


def test_kernel_vertices_are_kernel_unit_vectors(small_corpus):
    for inst in small_corpus:
        V = kernel_ball_vertices(inst.P)
        s = inst.P.space
        for v in V:
            assert s.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(np.asarray(inst.P.matrix) @ v).max() < 1e-10


def test_kernel_vertices_are_shared_and_read_only(blocky):
    V = kernel_ball_vertices(blocky.P)
    assert V.flags.writeable is False
    with pytest.raises(ValueError):
        V[0, 0] = 1.0
    assert kernel_ball_vertices(blocky.P) is V
    assert kernel_ball_vertices(blocky.P, blocky.T.space) is V


def test_rank_one_projections_share_the_ker_f_entry(two_state):
    s = two_state.P.space
    V = kernel_ball_vertices(None, s)
    assert kernel_ball_vertices(two_state.P) is V
    other = rank_one_projection(s, np.array([0.5, 0.5]))
    assert kernel_ball_vertices(other) is V


def test_kernel_vertex_entries_die_with_their_key():
    s = make_simplex(6)
    P = block_projection(s, [[0, 1, 2], [3, 4, 5]])
    by_P = weakref.ref(kernel_ball_vertices(P))
    by_space = weakref.ref(kernel_ball_vertices(rank_one_projection(s, np.full(6, 1 / 6))))
    gc.collect()
    assert by_P() is not None and by_space() is not None
    del P
    gc.collect()
    assert by_P() is None  # the space is still alive, the block entry is not
    assert by_space() is not None
    del s
    gc.collect()
    assert by_space() is None


def test_kernel_vertex_cache_under_threads():
    # all workers miss on the same projections at once; each must still get
    # the one shared array, which an unlocked check-then-set would break
    s = make_simplex(40)
    projections = [block_projection(s, [list(range(k)), list(range(k, 40))])
                   for k in range(10, 30, 4)]
    workers = 8
    barrier = threading.Barrier(workers, timeout=60)

    def lookup_all(_):
        barrier.wait()
        return [(P, kernel_ball_vertices(P)) for P in projections]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(lookup_all, k) for k in range(workers)]
            seen = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for lookups in seen:
        for P, V in lookups:
            assert V is kernel_ball_vertices(P)


@pytest.mark.parametrize("space_kind", ["simplex", "embedded"])
def test_lower_bound_same_with_warm_and_cleared_samples(space_kind, blocky, embedded):
    inst = blocky if space_kind == "simplex" else embedded
    s = inst.T.space
    _SAMPLES.clear()
    cold = coefficient_lower_bound(inst.T, inst.P, samples=5000, seed=9)
    Z = _unit_samples(s, 9, 5000)
    warm = coefficient_lower_bound(inst.T, inst.P, samples=5000, seed=9)
    assert _unit_samples(s, 9, 5000) is Z  # the warm call reused the draw
    assert Z.flags.writeable is False
    assert warm.value == cold.value
    assert np.array_equal(warm.witness, cold.witness)


@pytest.mark.parametrize("m,ball", [(2, "l1"), (3, "linf")])
def test_embedded_lower_bound_witness_is_a_unit_kernel_vector(m, ball, rng):
    # no polish off the lattice: the value is the best sampled ratio, and
    # the witness is that draw's kernel image scaled to unit space norm
    s = make_embedded(m, ball)
    V = s.base_vertices
    T = np.column_stack([V[k] for k in rng.integers(0, len(V), s.dim)])
    P = rank_one_projection(s, V[0])
    low = coefficient_lower_bound(T, P, space=s, samples=3000, seed=4)
    w = low.witness
    assert s.norm(w) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(np.asarray(P.matrix) @ w).max() <= 1e-14
    assert low.value == pytest.approx(s.norm(T @ w), rel=1e-14)
    assert 0.0 < low.value <= ergodicity_coefficient(T, P, space=s).value + 1e-12


def test_sample_draw_is_released_with_its_space_or_the_next_draw():
    s = make_simplex(5)
    first = weakref.ref(_unit_samples(s, 1, 100))
    second = weakref.ref(_unit_samples(s, 2, 100))
    assert first() is None  # one draw is held at a time
    del s
    gc.collect()
    assert second() is None
    assert len(_SAMPLES) == 0


def support_pattern_vertices(P):
    """The referee: vertices of {z : P z = 0, l1(z) <= 1} by a search over supports.

    At a vertex with support S the column-restricted kernel of P must be
    one-dimensional: a second kernel direction supported on S gives a
    sign-preserving perturbation writing the point as a proper convex
    combination of feasible points.  Then |S| = rank(P[:, S]) + 1 <=
    rank(P) + 1.  Every candidate is feasible, so a convex objective
    maximized over this superset of the vertex set attains exactly the max
    over the polytope.  Two SVDs per subset of states: kept for n <= 13.
    """
    n = P.space.dim
    P_mat = np.asarray(P.matrix)
    seen = {}
    for size in range(1, min(n, P.rank() + 1) + 1):
        for S in itertools.combinations(range(n), size):
            cols = P_mat[:, S]
            sv = np.linalg.svd(cols, compute_uv=False)
            tol = n * 1e-9 * max(1.0, float(sv[0]))
            if int((sv <= tol).sum()) != 1:
                continue
            _, _, vt = np.linalg.svd(cols)
            z = np.zeros(n)
            z[list(S)] = vt[-1]
            z /= np.abs(z).sum()
            for cand in (z, -z):
                seen.setdefault(tuple(np.round(cand, 10)), cand)
    if not seen:
        return np.zeros((0, n))
    return np.array(list(seen.values()))


def _rows(X):
    return sorted(map(tuple, np.round(X, 10)))


def _referee_value(T, P):
    V = support_pattern_vertices(P)
    A = np.asarray(getattr(T, "matrix", T))
    return float(np.abs(V @ A.T).sum(axis=1).max()) if len(V) else 0.0


def _assert_route_matches_the_referee(T, E):
    # auto, the vertex route and the vertex set, against the support search
    ref = _referee_value(T, E)
    auto = ergodicity_coefficient(T, E)
    assert (auto.method, auto.certified_exact) == ("type-formula", True)
    assert abs(auto.value - ref) <= 1e-15
    assert abs(ergodicity_coefficient(T, E, method="vertices").value - ref) <= 1e-15
    assert _rows(kernel_ball_vertices(E)) == _rows(support_pattern_vertices(E))
    if auto.witness is not None:  # a feasible kernel point that attains the value
        assert np.abs(np.asarray(E.matrix) @ auto.witness).max() <= 1e-9
        assert np.abs(auto.witness).sum() == pytest.approx(1.0, abs=1e-15)
        assert np.abs(np.asarray(T.matrix) @ auto.witness).sum() == pytest.approx(
            auto.value, abs=1e-15)


def _absorption_case(n, rank, rng):
    """``rank`` closed classes of one or two states and transient types of
    one or two states, each absorbed into two or more classes with random
    weights: an explicit P of rank ``rank``; T is a random chain."""
    while True:
        class_sizes = rng.integers(1, 3, size=rank)
        if class_sizes.sum() < n:
            break
    s = make_simplex(n)
    P = np.zeros((n, n))
    start, laws = 0, []
    for size in class_sizes:
        idx = np.arange(start, start + size)
        laws.append((idx, smoothed_target(int(size), rng)))
        P[np.ix_(idx, idx)] = laws[-1][1][:, None]
        start += size
    while start < n:
        k = min(int(rng.integers(1, 3)), n - start)
        into = rng.choice(rank, size=int(rng.integers(2, rank + 1)), replace=False)
        for c, w in zip(into, rng.dirichlet(np.ones(len(into)))):
            idx, pi = laws[c]
            P[np.ix_(idx, range(start, start + k))] = w * pi[:, None]
        start += k
    E = explicit_projection(s, P)
    assert (E.variant, E.rank()) == ("explicit", rank)
    return as_markov(rng.dirichlet(np.ones(n), size=n).T, s), E


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_type_route_matches_the_support_pattern_referee(rank):
    rng = np.random.default_rng(rank)
    for _ in range(20):
        n = int(rng.integers(rank + 2, 13))
        _assert_route_matches_the_referee(*_absorption_case(n, rank, rng))


def _two_transients(w3, w4):
    # states 0, 1, 2 absorb; 3 and 4 are absorbed into 0 and 1 only, with
    # weights w3 and w4 on state 0
    P = np.zeros((5, 5))
    P[0, 0] = P[1, 1] = P[2, 2] = 1.0
    P[:2, 3] = w3, 1 - w3
    P[:2, 4] = w4, 1 - w4
    return explicit_projection(make_simplex(5), P)


@pytest.mark.parametrize("gap", [0.3, 1e-7, 1e-11])
def test_type_route_on_degenerate_and_near_equal_types(gap, rng):
    # the type columns of 0, 1, 3 and 4 span two dimensions, so every
    # subset of four types holding them has a two-dimensional null space;
    # at gaps of 1e-7 and 1e-11, just above NORMAL_FORM_TOL, columns 3 and
    # 4 are distinct types and the SVD tolerance decides as the referee does
    E = _two_transients(0.3, 0.3 + gap)
    assert len(E.types) == 5
    s = E.space
    for _ in range(10):
        _assert_route_matches_the_referee(as_markov(rng.dirichlet(np.ones(5), size=5).T, s), E)


def test_type_route_merges_columns_within_the_normal_form_tolerance(rng):
    # 1e-13 apart, states 3 and 4 are one type: the route takes the exact
    # half difference, where the referee's SVD null vector of the two
    # columns is off by about 1e-13
    E = _two_transients(0.4, 0.4 + 1e-13)
    assert E.types == ((0,), (1,), (2,), (3, 4))
    T = as_markov(rng.dirichlet(np.ones(5), size=5).T, E.space)
    assert ergodicity_coefficient(T, E).value == pytest.approx(_referee_value(T, E), abs=1e-12)


def _typed_absorption(class_sizes, type_sizes, rng):
    """Closed classes of the given sizes, then transient types whose members
    share one column, absorbed into every class; T is a random chain."""
    n = sum(class_sizes) + sum(type_sizes)
    P = np.zeros((n, n))
    laws, start = [], 0
    for size in class_sizes:
        idx = np.arange(start, start + size)
        laws.append((idx, smoothed_target(size, rng)))
        P[np.ix_(idx, idx)] = laws[-1][1][:, None]
        start += size
    for size in type_sizes:
        for (idx, pi), w in zip(laws, rng.dirichlet(np.ones(len(laws)))):
            P[np.ix_(idx, range(start, start + size))] = w * pi[:, None]
        start += size
    s = make_simplex(n)
    return as_markov(rng.dirichlet(np.ones(n), size=n).T, s), explicit_projection(s, P)


@pytest.mark.parametrize("class_sizes,type_sizes", [
    ((3, 4), (5, 6, 6, 6)),  # n = 30, rank 2
    ((3, 3, 4), (10, 10)),  # n = 30, rank 3
    ((2, 2), (16, 80)),  # n = 100, rank 2
    ((1, 1, 2), (6, 90)),  # n = 100, rank 3
])
def test_type_route_past_twelve_states(class_sizes, type_sizes):
    # no referee reaches these sizes: the witness must be a unit kernel
    # point that attains the value, and every sampled bound stays below it
    rng = np.random.default_rng(sum(type_sizes))
    T, E = _typed_absorption(class_sizes, type_sizes, rng)
    assert E.rank() == len(class_sizes)
    assert len(E.types) == len(class_sizes) + len(type_sizes)
    auto = ergodicity_coefficient(T, E)
    assert (auto.method, auto.certified_exact) == ("type-formula", True)
    w = auto.witness
    assert np.abs(np.asarray(E.matrix) @ w).max() <= 1e-12
    assert np.abs(w).sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(np.asarray(T.matrix) @ w).sum() == pytest.approx(auto.value, abs=1e-15)
    low = coefficient_lower_bound(T, E, samples=2000, seed=1)
    assert low.value <= auto.value + 1e-12
    if T.space.dim <= 30:
        vertices = ergodicity_coefficient(T, E, method="vertices")
        assert vertices.value == pytest.approx(auto.value, abs=1e-15)


@pytest.mark.parametrize("n", [4, 20])
def test_identity_as_an_explicit_projection(n):
    # n one-state types and rank n: no pair and no cross-type subset, at
    # any n, so the kernel ball has no vertex and the coefficient is 0
    s = make_simplex(n)
    E = MarkovProjection(np.eye(n), s, "explicit")
    assert E.types == tuple((i,) for i in range(n))
    T = np.full((n, n), 1.0 / n)
    auto = ergodicity_coefficient(T, E, space=s)
    assert (auto.value, auto.method, auto.witness) == (0.0, "pair-formula", None)
    assert auto.certified_exact
    assert ergodicity_coefficient(T, E, space=s, method="vertices").value == 0.0
    assert kernel_ball_vertices(E).shape == (0, n)
    if n <= 12:
        assert len(support_pattern_vertices(E)) == 0


@pytest.mark.parametrize("inner", ["l1", "linf"])
def test_identity_on_an_embedded_space_is_exact(inner, rng):
    # no enumeration covers an explicit P on an embedded space, but the
    # identity (full rank) has kernel {0}: 0 on both methods, not a bracket
    s = make_embedded(3, inner)
    E = explicit_projection(s, np.eye(s.dim))
    assert (E.variant, E.rank()) == ("explicit", s.dim)
    T = rng.standard_normal((s.dim, s.dim))
    for method in ("auto", "vertices"):
        res = ergodicity_coefficient(T, E, space=s, method=method)
        assert (res.value, res.upper_bound, res.certified_exact) == (0.0, 0.0, True)
        assert (res.method, res.witness) == ("kernel-vertex-enumeration", None)
    assert kernel_ball_vertices(E).shape == (0, s.dim)


@pytest.mark.parametrize("n", [4, 12])
def test_explicit_projection_enumeration_matches_block(rng, n):
    # dual route: the same matrix as a structured block projection and
    # stripped of its structure, where the types are found from the columns
    # and agree with the support-pattern referee.
    # explicit_projection would recover the blocks, so the unstructured
    # twin is built directly
    h = n // 2
    s = make_simplex(n)
    T = np.zeros((n, n))
    T[:h, :h] = metropolis_matrix(smoothed_target(h, rng), rng)
    T[h:, h:] = metropolis_matrix(smoothed_target(n - h, rng), rng)
    P = block_projection(s, [list(range(h)), list(range(h, n))])
    assert explicit_projection(s, np.asarray(P.matrix)).variant == "block"
    E = MarkovProjection(P.matrix, s, "explicit")
    a = ergodicity_coefficient(T, P, space=s)
    b = ergodicity_coefficient(T, E, space=s)
    assert b.certified_exact
    assert b.method == "pair-formula"  # no cross-type candidate
    assert E.types == P.types
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert b.value == pytest.approx(_referee_value(T, E), abs=1e-15)
    # structured P keep their method name
    assert a.method == "pair-formula"


def test_pair_route_refuses_a_kernel_no_pair_spans():
    # P sends state 2 half to state 0 and half to state 1, so ker P is
    # spanned by e2 - (e0 + e1)/2 and no difference e_i - e_j lies in it:
    # the pair maximum would be an empty 0, not the coefficient 0.4
    s = make_simplex(3)
    E = explicit_projection(s, np.array([[1, 0, 0.5], [0, 1, 0.5], [0, 0, 0]]))
    T = np.array([[1, 0, 0.3], [0, 1, 0.3], [0, 0, 0.4]])
    exact = ergodicity_coefficient(T, E, space=s, method="vertices")
    assert exact.value == pytest.approx(0.4, abs=1e-12)
    # auto scans the cross-type candidate as well as the (absent) pairs
    auto = ergodicity_coefficient(T, E, space=s)
    assert (auto.value, auto.method) == (exact.value, "type-formula")
    assert auto.pair is None


def test_pair_route_on_explicit_rank_one_embedded():
    # a rank-one P written as a matrix on an embedded space is built as
    # rank-one: every base vertex pair is admissible, and the pair scan of
    # the base-vertex images matches the vertices
    s = make_embedded(2, "linf")
    T = as_markov(np.array([[1, 0, 0], [0.1, 0.5, 0.2], [0, -0.1, 0.3]]), s)
    R = rank_one_projection(s, np.array([1.0, 0.2, -0.1]))
    E = explicit_projection(s, np.asarray(R.matrix))
    assert E.variant == "rank_one"
    a = ergodicity_coefficient(T, E, method="vertices")
    every = _group_pairs((tuple(range(len(s.base_vertices))),))
    b, _, _ = _backend.max_pair_half_l1(s.base_vertices @ T.matrix.T, every, s.norm_rows)
    assert a.certified_exact
    assert b == pytest.approx(a.value, abs=1e-12)
    assert a.value == pytest.approx(ergodicity_coefficient(T, R).value, abs=1e-12)


@pytest.mark.parametrize("sizes", [(2,), (7,), (12,), (1, 3), (4, 4, 4), (2, 3, 1, 6)])
def test_pair_group_vertices_match_the_support_pattern_search(sizes, rng):
    # the half-differences inside P's pair groups are every vertex of the
    # kernel ball: the generic search over supports finds the same set
    n = sum(sizes)
    s = make_simplex(n)
    if len(sizes) == 1:
        P = rank_one_projection(s, rng.dirichlet(np.ones(n)))
    else:
        cuts = np.cumsum((0,) + sizes)
        blocks = [list(range(a, b)) for a, b in zip(cuts, cuts[1:])]
        P = block_projection(s, blocks, [rng.dirichlet(np.ones(k)) for k in sizes])
    assert _rows(kernel_ball_vertices(P)) == _rows(support_pattern_vertices(P))


def test_embedded_pair_route_matches_the_vertices(rng):
    # linf m = 8: 256 base vertices, every pair admissible for a rank-one P,
    # scanned under the space's norm max(|alpha|, max |x|)
    m = 8
    s = make_embedded(m, "linf")
    A = rng.uniform(-1.0, 1.0, size=(m, m))
    A *= 0.9 / np.abs(A).sum(axis=1).max()
    M = np.zeros((m + 1, m + 1))
    M[0, 0] = 1.0
    M[1:, 1:] = A
    T = as_markov(M, s)
    P = rank_one_projection(s, np.eye(m + 1)[0])
    a = ergodicity_coefficient(T, P, method="vertices")
    B = s.base_vertices
    b, i, j = _backend.max_pair_half_l1(B @ M.T, _group_pairs((tuple(range(len(B))),)), s.norm_rows)
    assert b == pytest.approx(a.value, abs=1e-12)
    assert 0.5 * s.norm(M @ (B[i] - B[j])) == pytest.approx(b, abs=1e-12)


def _linf_referee_inputs(m, rng):
    """Matrices on embedded linf m whose ker f coefficient the closed form
    must read as the vertex route does: random, with exact zeros (a zero row
    among them) and all zero, two maximal rows that tie, integer entries,
    magnitudes spanning e^-40 to e^40 (the small terms are absorbed), and
    the normalized powers of T - P that ``gelfand_trail`` scans."""
    n, s = m + 1, make_embedded(m, "linf")
    out = [rng.standard_normal((n, n))]
    Z = rng.standard_normal((n, n))
    Z[rng.random((n, n)) < 0.5] = 0.0
    Z[rng.integers(n)] = 0.0
    out += [Z, np.zeros((n, n))]
    for _ in range(2):  # row j: row i with flipped signs, the same aligned sum
        tie = rng.uniform(-0.5, 0.5, (n, n))
        i, j = rng.choice(n, 2, replace=False)
        tie[i, 1:] *= 2.0
        tie[j] = tie[i] * rng.choice((-1.0, 1.0), n)
        out.append(tie)
    out.append(rng.integers(-3, 4, (n, n)).astype(float))
    out += [rng.standard_normal((n, n)) * np.exp(rng.uniform(-40, 40, (n, n)))
            for _ in range(4)]
    A = rng.uniform(-1.0, 1.0, (m, m))
    A *= 0.5 / np.abs(A).sum(axis=1).max()
    c = rng.uniform(-1.0, 1.0, m)
    c *= 0.4 / np.abs(c).max()
    T = np.eye(n)
    T[1:, 0], T[1:, 1:] = c, A
    y = np.concatenate([[1.0], np.linalg.solve(np.eye(m) - A, c)])
    E = T - np.outer(y, np.eye(n)[0])
    Y = E.copy()
    for _ in range(6):  # the scan of spectral._scaled_power_logs
        out.append(Y)
        Y = E @ (Y / ergodicity_coefficient(Y, None, space=s).value)
    return out, rank_one_projection(s, y)


@pytest.mark.parametrize("m", range(1, 13))
def test_linf_ker_f_closed_form_equals_the_vertices_bit_for_bit(m, rng):
    # auto on ker f of embedded linf reads its value and witness off A; the
    # vertex route is the reference, every field of the result bit for bit
    s = make_embedded(m, "linf")
    mats, P = _linf_referee_inputs(m, rng)
    for A in mats:
        for proj in (None, P):
            want = ergodicity_coefficient(A, proj, space=s, method="vertices")
            got = ergodicity_coefficient(A, proj, space=s)
            assert (got.value, got.method, got.certified_exact, got.upper_bound) == (
                want.value, want.method, want.certified_exact, want.upper_bound)
            assert got.witness.tobytes() == want.witness.tobytes()
            assert got.pair is None


def test_linf_ker_f_builds_no_vertex_set(count_calls, rng):
    s = make_embedded(12, "linf")
    calls = count_calls("kernel_ball_vertices")
    ergodicity_coefficient(rng.standard_normal((13, 13)), None, space=s)
    assert calls["kernel_ball_vertices"] == []


ROUTE_DIMS = (1, 2, 3, 7, 10, 13, 30, 60, 100)


def _route_case(n, kind):
    # a random column-stochastic T on n states, and P = None, a rank-one P
    # or a two-block P (one block for n = 1)
    rng = np.random.default_rng(n)
    s = make_simplex(n)
    T = as_markov(rng.dirichlet(np.ones(n), size=n).T, s)
    if kind == "none":
        return T, None
    if kind == "rank-one":
        return T, rank_one_projection(s, rng.dirichlet(np.ones(n)))
    h = max(1, n // 2)
    return T, block_projection(s, [b for b in (range(h), range(h, n)) if len(b)])


@pytest.mark.parametrize("kind", ["none", "rank-one", "block"])
@pytest.mark.parametrize("n", ROUTE_DIMS)
def test_auto_takes_the_pair_route_with_the_vertex_floats(n, kind, count_calls):
    # auto reads rank-one and block P on the simplex by the pair formula and
    # never builds the kernel vertices; the value and upper side are the
    # vertex route's floats, bit for bit
    T, P = _route_case(n, kind)
    calls = count_calls("kernel_ball_vertices")
    auto = ergodicity_coefficient(T, P)
    assert calls["kernel_ball_vertices"] == []
    vertices = ergodicity_coefficient(T, P, method="vertices")
    assert (auto.method, auto.certified_exact) == ("pair-formula", True)
    assert auto.value.hex() == vertices.value.hex()
    assert auto.upper_bound.hex() == vertices.upper_bound.hex()
    if auto.pair is None:  # no pair in any group: ker P = {0}
        assert auto.value == 0.0 and auto.witness is None
        assert len(kernel_ball_vertices(P, T.space)) == 0
    else:
        i, j = auto.pair
        B = T.space.base_vertices
        assert np.array_equal(auto.witness, 0.5 * (B[i] - B[j]))


def test_pairs_is_an_unknown_method(two_state):
    # method is "auto" or "vertices": auto is the pair route wherever the
    # pair formula holds
    with pytest.raises(ValueError, match="unknown method 'pairs'"):
        ergodicity_coefficient(two_state.T, two_state.P, method="pairs")


def _absorbing_chain(n, rank, seed):
    """An absorbing chain on n states with its member projection.

    States 0..rank - 1 absorb; the others are transient, each column drawn
    from Dirichlet(1) over all n states.  P sends a transient state to its
    absorption probabilities B = R (I - Q)^-1, so TP = PT = P and, for
    generic draws, every state is its own type of P (an explicit P)."""
    rng = np.random.default_rng(seed)
    m = n - rank
    RQ = rng.dirichlet(np.ones(n), size=m).T  # the transient columns of T
    B = np.linalg.solve(np.eye(m) - RQ[rank:].T, RQ[:rank].T).T
    T, P = np.eye(n), np.zeros((n, n))
    T[:, rank:] = RQ
    P[:rank, :rank] = np.eye(rank)
    P[:rank, rank:] = B
    s = make_simplex(n)
    return as_markov(T, s), explicit_projection(s, P)


def test_candidate_budget_edge():
    # one-state types: 13 states at rank 11 count sum C(13, s), s = 2..12,
    # = 8177 candidates, inside the budget, and 37 states at rank 2
    # (s = 2, 3) 8436, past it, counted before any SVD
    assert coefficients.CANDIDATE_BUDGET == 8192
    T, E = _absorbing_chain(13, 11, 0)
    assert (len(E.types), E.rank()) == (13, 11)
    exact = ergodicity_coefficient(T, E)
    assert (exact.method, exact.certified_exact) == ("type-formula", True)
    low = coefficient_lower_bound(T, E, samples=5000, seed=1)
    assert low.value <= exact.value + 1e-12
    T, E = _absorbing_chain(37, 2, 0)
    with pytest.raises(DimensionTooLargeError, match="8436 cross-type candidates"):
        ergodicity_coefficient(T, E, method="vertices")
    with pytest.raises(DimensionTooLargeError):
        kernel_ball_vertices(E)
    bracket = ergodicity_coefficient(T, E, seed=3)
    assert (bracket.method, bracket.certified_exact) == ("monte-carlo-lower-bound", False)
    assert bracket.value <= bracket.upper_bound


def test_mc_bracket_contains_exact(embedded_bracket_doc):
    # an explicit P on an embedded space has no exact route: auto gives a
    # bracket, which must contain the value 0.8 known in closed form
    inst = parse_instance(json.dumps(embedded_bracket_doc))
    T, E = inst.operator, inst.projection
    assert E.variant == "explicit"
    bracket = ergodicity_coefficient(T, E, seed=3)
    assert not bracket.certified_exact
    assert bracket.method == "monte-carlo-lower-bound"
    assert bracket.upper_bound == 1.0
    assert 0.79 < bracket.value <= 0.8 + 1e-12
    with pytest.raises(UnsupportedSpaceError):
        ergodicity_coefficient(T, E, method="vertices")


def test_lower_bound_close_after_polish(small_corpus):
    for inst in small_corpus[:6]:
        exact = ergodicity_coefficient(inst.T, inst.P).value
        low = coefficient_lower_bound(inst.T, inst.P, samples=20_000, seed=11)
        assert low.value <= exact + 1e-12, inst.label
        assert exact - low.value <= 1e-4, inst.label


def test_lower_bound_witness_stays_in_kernel(two_state):
    low = coefficient_lower_bound(two_state.T, two_state.P, samples=1000, seed=5)
    assert np.abs(np.asarray(two_state.P.matrix) @ low.witness).max() < 1e-10


def _highs_optimum(c, E):
    """max c.z over {E z = 0, l1(z) <= 1}, by HiGHS."""
    n = len(c)
    res = linprog(
        np.concatenate([-c, c]), A_ub=np.ones((1, 2 * n)), b_ub=[1.0],
        A_eq=np.hstack([E, -E]), b_eq=np.zeros(len(E)), method="highs",
    )
    assert res.success
    return -res.fun


@pytest.mark.parametrize(
    "sizes", [None, [7], [1, 3], [2, 1, 4], [1, 1, 2], [3, 3, 3]]
)
def test_closed_form_polish_step_matches_highs(sizes, rng):
    # None: ker f (P omitted); [n]: rank-one; the rest blocks, with singletons
    n = 6 if sizes is None else sum(sizes)
    s = make_simplex(n)
    if sizes is None:
        P, E = coefficients._ker_f_projection(s), np.ones((1, n))
    elif len(sizes) == 1:
        P = rank_one_projection(s, rng.dirichlet(np.ones(n)))
        E = np.asarray(P.matrix)
    else:
        starts = np.cumsum([0] + sizes)
        P = block_projection(s, [list(range(a, b)) for a, b in zip(starts, starts[1:])])
        E = np.asarray(P.matrix)
    step = coefficients._polish_step(P, s)
    for trial in range(200):
        c = rng.standard_normal(n)
        if trial % 2:
            c = np.round(2 * c)  # integers: ties in the max, the min, across blocks
        z = step(c)
        assert np.abs(z).sum() <= 1.0
        assert np.abs(E @ z).max() <= 1e-15
        assert c @ z == pytest.approx(_highs_optimum(c, E), abs=1e-12)


def _highs_lower_bound(T, P, samples, seed):
    """coefficient_lower_bound's lattice branch with its former HiGHS polish."""
    A, space = np.asarray(T.matrix), T.space
    n = space.dim
    kernel = coefficients._ker_f_projection(space) if P is None else P
    D = np.eye(n) - np.asarray(kernel.matrix)
    Z = _unit_samples(space, seed, samples)
    best, idx, ratios = _backend.mc_max_ratio(
        A @ D, D, Z, space.norm_rows, coefficients.MC_DEN_FLOOR
    )
    best_z = D @ Z[idx]
    best_z /= np.abs(best_z).sum()
    E = space.f_coefficients.reshape(1, -1) if P is None else np.asarray(P.matrix)
    for k in coefficients._polish_starts(ratios, A @ D, Z):
        z = D @ Z[k]
        z_best = z / np.abs(z).sum()
        val = float(np.abs(A @ z_best).sum())
        for _ in range(30):
            sgn = np.sign(A @ z_best)
            sgn[sgn == 0] = 1.0
            c = -np.concatenate([A.T @ sgn, -(A.T @ sgn)])
            res = linprog(
                c, A_ub=np.ones((1, 2 * n)), b_ub=[1.0], A_eq=np.hstack([E, -E]),
                b_eq=np.zeros(E.shape[0]), method="highs",
            )
            if not res.success:
                break
            z = D @ (res.x[:n] - res.x[n:])
            nz = float(np.abs(z).sum())
            if nz <= 1e-12:
                break
            v = float(np.abs(A @ z).sum()) / nz
            if v <= val + 1e-13:
                break
            val, z_best = v, z / nz
        if val > best:
            best, best_z = val, z_best
    return best, best_z


def test_closed_form_lower_bound_equals_the_highs_polish(small_corpus, rng):
    blocks = [
        block_instance(sizes, rng, "block")
        for sizes in ([1, 3], [2, 2, 1], [4, 1, 3], [3, 3], [1, 1, 5])
    ]
    for inst in list(small_corpus) + blocks:
        for P in (inst.P, None):
            want, witness = _highs_lower_bound(inst.T, P, 2000, 7)
            got = coefficient_lower_bound(inst.T, P, samples=2000, seed=7)
            assert got.value == want, inst.label
            assert got.witness.tobytes() == witness.tobytes(), inst.label


def test_polish_calls_highs_only_for_explicit_projections(count_calls, blocky, two_state):
    calls = count_calls("linprog")
    for inst in (blocky, two_state):
        for P in (inst.P, None):
            coefficient_lower_bound(inst.T, P, samples=500, seed=1)
    # a block P written as a matrix is built as a block projection
    E = explicit_projection(blocky.P.space, np.asarray(blocky.P.matrix))
    coefficient_lower_bound(blocky.T, E, samples=500, seed=1)
    assert calls["linprog"] == []
    s = make_simplex(3)
    E = explicit_projection(s, np.array([[1, 0, 0.5], [0, 1, 0.5], [0, 0, 0]]))
    T = np.array([[1, 0, 0.3], [0, 1, 0.3], [0, 0, 0.4]])
    coefficient_lower_bound(T, E, space=s, samples=500, seed=1)
    assert calls["linprog"]
    assert {caller for caller, _, _ in calls["linprog"]} == {"highs"}


@pytest.mark.parametrize("space_kind", ["rank_one", "block"])
def test_lower_bound_on_an_annihilated_kernel(space_kind, two_state, blocky):
    # T = P: A z = 0 on the kernel, so every sign pattern gives a constant c
    inst = two_state if space_kind == "rank_one" else blocky
    T = as_markov(np.asarray(inst.P.matrix), inst.P.space)
    exact = ergodicity_coefficient(T, inst.P).value
    low = coefficient_lower_bound(T, inst.P, samples=1000, seed=2)
    assert low.value <= exact + 1e-12


def _reference_starts(ratios, TK, Z):
    """The start rule, row by row: of the START_POOL best kept rows, in ratio
    order, each row whose sign pattern of TK z (0 read as +1) is new."""
    order = [k for k in sorted(range(len(ratios)), key=lambda k: -ratios[k]) if ratios[k] >= 0]
    seen, starts = set(), []
    for k in order[: coefficients.START_POOL]:
        s = np.sign(TK @ Z[k])
        s[s == 0] = 1.0
        if tuple(s) not in seen and len(starts) < coefficients.POLISH_STARTS:
            seen.add(tuple(s))
            starts.append(k)
    return starts


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_polish_starts_are_the_best_row_of_each_sign_pattern(n, rng):
    # m = 300 > START_POOL; rank-one TK leaves at most two patterns, so the
    # pattern count, not the cap, bounds the starts
    for m in (1, 3, 16, 17, 300):
        for rank in (1, n):
            TK = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
            Z = rng.standard_normal((m, n))
            ratios = np.where(rng.random(m) < 0.2, -1.0, rng.random(m))
            starts = coefficients._polish_starts(ratios, TK, Z)
            assert len(starts) <= coefficients.POLISH_STARTS
            assert (ratios[starts] >= 0).all()  # a skipped row is never a start
            assert (np.diff(ratios[starts]) <= 0).all()  # descending ratio order
            patterns = {tuple(row) for row in Z[starts] @ TK.T >= 0}
            assert len(patterns) == len(starts)  # no two share a sign pattern
            assert starts.tolist() == _reference_starts(ratios, TK, Z)


def test_polish_starts_read_a_zero_as_plus():
    # the ascent reads sign 0 as +1, so (0, 1) and (1, 1) take the same step
    Z = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    starts = coefficients._polish_starts(np.array([0.9, 0.8, 0.7]), np.eye(2), Z)
    assert starts.tolist() == [0, 2]


def test_polish_starts_skip_the_rows_the_scan_skipped():
    # a skipped row (ratio -1) is a near annihilated draw: it seeds no ascent
    Z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    assert coefficients._polish_starts(np.array([0.5, -1.0, 0.3]), np.eye(2), Z).tolist() == [0, 2]
    assert coefficients._polish_starts(np.array([-1.0, -1.0]), np.eye(2), Z[:2]).tolist() == []


def test_two_samples_polish_only_the_kept_draw(two_state, count_calls):
    # a seed whose two draws keep one row: the skipped draw seeds no ascent
    s = two_state.T.space
    D = np.eye(2) - coefficients._ker_f_projection(s).matrix
    for seed in range(5000):
        Z = _unit_samples(s, seed, 2)
        kept = s.norm_rows(Z @ D.T) > coefficients.MC_DEN_FLOOR
        if kept.sum() == 1:
            break
    else:
        pytest.fail("no seed below 5000 keeps exactly one of two draws")
    calls = count_calls("_lp_polish")
    low = coefficient_lower_bound(two_state.T, samples=2, seed=seed)
    starts = [args[2] for _, args, _ in calls["_lp_polish"]]
    assert len(starts) == 1
    assert np.array_equal(starts[0], D @ Z[np.argmax(kept)])
    assert 0.0 < low.value <= ergodicity_coefficient(two_state.T).value + 1e-12


B = _backend._BLOCK_ROWS


def _one_shot_draw(seed, samples, dim):
    """The draw rule in one pass: the signs are the bits of the seed's first
    ceil(samples * dim / 64) raw words, the magnitudes the exponentials that
    follow, and each row is divided by its l1 norm."""
    rng = np.random.default_rng(seed)
    words = rng.bit_generator.random_raw(-(-samples * dim // 64))
    E = rng.standard_exponential((samples, dim))
    negative = np.unpackbits(words.view(np.uint8), count=E.size).reshape(E.shape) == 1
    Z = np.where(negative, -E, E)
    l1 = np.abs(Z).sum(axis=1)
    return Z / np.where(l1 > 0, l1, 1.0)[:, None]


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 13])
def test_blocked_draw_equals_one_shot_draw(dim):
    # the draw is made, signed and normalized block by block; it keeps the
    # bits of one (samples, dim) draw signed and normalized in one pass
    s = make_simplex(dim)
    for samples in (1, B - 1, B, B + 1, 100_000):
        _SAMPLES.clear()
        Z = _unit_samples(s, 17, samples)
        assert Z.tobytes() == _one_shot_draw(17, samples, dim).tobytes(), samples
        assert Z.flags.writeable is False


@pytest.mark.parametrize("dim", [1, 2, 7, 13])
def test_sample_rows_have_unit_l1_norm(dim):
    _SAMPLES.clear()
    Z = _unit_samples(make_simplex(dim), 5, 20_000)
    # dim quotients, each rounded once, summed with dim - 1 roundings
    assert np.abs(np.abs(Z).sum(axis=1) - 1.0).max() <= 2 * dim * np.finfo(float).eps


def test_sample_signs_are_balanced():
    # each sign is a fair coin: a share of negatives more than 6 binomial
    # standard deviations (0.5 / sqrt(N)) from 1/2 has probability < 2e-9
    _SAMPLES.clear()
    Z = _unit_samples(make_simplex(10), 23, 100_000)
    negative = np.signbit(Z)
    assert abs(negative.mean() - 0.5) <= 6 * 0.5 / np.sqrt(Z.size)
    assert (np.abs(negative.mean(axis=0) - 0.5) <= 6 * 0.5 / np.sqrt(len(Z))).all()


def test_draw_holds_no_temporary_past_two_blocks():
    # the draw's temporaries (sign words, unpacked bits, row sums) are
    # per block: a whole-array temporary would double the draw's memory
    s = make_simplex(10)
    _SAMPLES.clear()
    tracemalloc.start()
    try:
        Z = _unit_samples(s, 3, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = B * 10 * Z.itemsize
    assert Z.nbytes <= peak < Z.nbytes + 2 * block


def test_five_properties_on_corpus(small_corpus):
    for inst in small_corpus:
        S = inst.S if inst.S is not None else inst.T
        checks = coefficient_inequalities(inst.T, S, inst.P)
        assert [c.name for c in checks] == [
            "range",
            "difference-lipschitz",
            "commuting-factor",
            "annihilated-factor",
            "submultiplicative",
        ]
        for c in checks:
            assert c.ok, (inst.label, c.name, c.details)


def test_properties_with_custom_annihilated_factor(two_state):
    # H = (I - P) D keeps PH = 0 while breaking the Markov structure
    Pm = np.asarray(two_state.P.matrix)
    H = (np.eye(2) - Pm) @ np.diag([0.3, -1.2])
    checks = {c.name: c for c in coefficient_inequalities(two_state.T, two_state.T, two_state.P, H=H)}
    assert checks["annihilated-factor"].applicable
    assert checks["annihilated-factor"].holds


def test_property_hypothesis_failure_is_flagged(two_state, rng):
    # a random H will commute with P only by accident
    H = rng.standard_normal((2, 2))
    checks = {c.name: c for c in coefficient_inequalities(two_state.T, two_state.T, two_state.P, H=H)}
    assert not checks["commuting-factor"].applicable
    assert checks["commuting-factor"].ok  # vacuous, not silently dropped


def test_factor_inequalities_read_the_upper_side_of_a_bracket(two_state):
    # delta_P(T) = 0.6 and delta_P(T^2) = 0.36 exactly.  A Monte-Carlo
    # bracket [0.56, 0.6] for delta_P(T) has a lower side whose square
    # (0.3136) is below delta_P(T^2), as a polish stopping short of the
    # maximum leaves it; the rhs must come from the upper side 0.6.
    from ergokit import CoefficientResult

    T, P = two_state.T, two_state.P
    bracket = CoefficientResult(0.56, "monte-carlo-lower-bound", None, False, 0.6)
    checks = {c.name: c for c in coefficient_inequalities(T, T, P, delta=bracket)}
    assert all(c.ok for c in checks.values()), checks
    assert checks["range"].details["value_T"] == 0.56
    sub = checks["submultiplicative"].details
    assert sub["lhs"] == pytest.approx(0.36, abs=1e-15)
    assert sub["rhs"] == pytest.approx(0.36, abs=1e-15)
    # an upper side below the true value still fails: 0.36 > 0.5 * 0.5
    low = CoefficientResult(0.5, "monte-carlo-lower-bound", None, False, 0.5)
    checks = {c.name: c for c in coefficient_inequalities(T, T, P, delta=low)}
    assert not checks["submultiplicative"].ok


def test_range_reads_the_lower_side_for_zero_and_the_upper_side_for_one(two_state):
    # delta_P(T) in [0, 1] is shown by a lower side >= 0 and an upper side <= 1
    from ergokit import CoefficientResult

    T, P = two_state.T, two_state.P

    def range_holds(value, upper):
        bracket = CoefficientResult(value, "monte-carlo-lower-bound", None, False, upper)
        checks = {c.name: c for c in coefficient_inequalities(T, T, P, delta=bracket)}
        return checks["range"].holds

    assert range_holds(0.56, 0.6)
    assert range_holds(0.0, 1.0)
    assert not range_holds(0.56, 1.0 + 1e-6)  # delta <= 1 is not shown
    assert not range_holds(-1e-6, 0.6)  # delta >= 0 is not shown


def test_difference_lipschitz_reads_the_sound_side_of_each_bracket(two_state, monkeypatch):
    # |c(T) - c(S)| <= c(T - S) is shown by max(0, lT - uS, lS - uT) against
    # the upper side of c(T - S); c(T - S) <= ||T - S|| by its lower side
    from ergokit import CoefficientResult

    T, P = two_state.T, two_state.P
    # c(T) = 0.6, c(S) = 0.64, c(T - S) = 0.04 and ||T - S|| = 0.06, all exact
    S = as_markov(0.9 * T.matrix + 0.1 * np.eye(2), T.space)
    real = coefficients.ergodicity_coefficient
    diff_bracket = None

    def bracket(low, up):
        return CoefficientResult(low, "monte-carlo-lower-bound", None, False, up)

    def with_diff_bracket(A, P, **kw):
        if diff_bracket is not None and isinstance(A, np.ndarray) and np.array_equal(
            A, T.matrix - S.matrix
        ):
            return diff_bracket
        return real(A, P, **kw)

    monkeypatch.setattr(coefficients, "ergodicity_coefficient", with_diff_bracket)

    def holds(t_side, diff=None):
        nonlocal diff_bracket
        diff_bracket = diff
        checks = {c.name: c for c in coefficient_inequalities(T, S, P, delta=bracket(*t_side))}
        return checks["difference-lipschitz"].holds

    assert holds((0.6, 0.6))
    assert holds((0.0, 0.6))  # the lower sides alone read |0.0 - 0.64| > 0.04
    assert not holds((0.7, 0.8))  # 0.7 - 0.64 > 0.04 on every point of the bracket
    assert holds((0.6, 0.6), bracket(0.01, 0.05))  # the lower side alone reads 0.04 > 0.01
    assert not holds((0.6, 0.6), bracket(0.01, 0.03))
    assert not holds((0.6, 0.6), bracket(0.061, 0.07))  # c(T - S) > ||T - S|| shown


def test_eigenvalue_bound_on_corpus(small_corpus):
    for inst in small_corpus:
        rep = eigenvalue_bound_check(inst.T, inst.P)
        assert rep.ok, (inst.label, rep.max_excess)
        if inst.S is not None:
            assert eigenvalue_bound_check(inst.S, inst.P).ok, inst.label


def test_eigenvalue_bound_two_state(two_state):
    rep = eigenvalue_bound_check(two_state.T, two_state.P)
    # the kernel restriction has the single eigenvalue 0.6 = coefficient
    assert rep.coefficient == pytest.approx(0.6, abs=1e-12)
    assert max(abs(z) for z in rep.eigenvalues) == pytest.approx(0.6, abs=1e-12)


def test_eigenvalue_bound_reads_the_upper_side_of_a_bracket(two_state):
    # |0.6| exceeds the lower side 0.56 of the bracket, not its upper side 0.6
    from ergokit import CoefficientResult

    bracket = CoefficientResult(0.56, "monte-carlo-lower-bound", None, False, 0.6)
    assert eigenvalue_bound_check(two_state.T, two_state.P, delta=bracket).ok


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
@pytest.mark.parametrize("n", [4, 7, 10])
def test_eigenvalue_bound_keeps_eigenvalues_near_one(coupled_blocks, n, eps):
    # 1 - 2 eps lies on ker P, dim ker P = n - rank P, and no filter drops
    # it: delta_P(T) = 1 - 2 eps is met with equality
    rep = eigenvalue_bound_check(*coupled_blocks(n, eps))
    assert rep.ok
    assert rep.max_excess >= -1e-12


@settings(max_examples=40, deadline=None)
@given(
    raw=arrays(np.float64, (3, 3), elements=st.floats(0.05, 1.0)),
)
def test_coefficient_range_property(raw):
    T = raw / raw.sum(axis=0, keepdims=True)
    s = make_simplex(3)
    pi = stationary_distribution(T)
    P = rank_one_projection(s, pi)
    val = ergodicity_coefficient(T, P, space=s).value
    assert -1e-12 <= val <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a=arrays(np.float64, (3, 3), elements=st.floats(0.05, 1.0)),
    b=arrays(np.float64, (3, 3), elements=st.floats(0.05, 1.0)),
)
def test_classical_coefficient_submultiplicative(a, b):
    T = a / a.sum(axis=0, keepdims=True)
    S = b / b.sum(axis=0, keepdims=True)
    s = make_simplex(3)
    dTS = ergodicity_coefficient(T @ S, space=s).value
    dT = ergodicity_coefficient(T, space=s).value
    dS = ergodicity_coefficient(S, space=s).value
    assert dTS <= dT * dS + 1e-12
