"""Operator validation, norms, powers, products and projection builders."""

import numpy as np
import pytest

from ergokit import (
    MarkovProjection,
    ViolationReport,
    as_markov,
    block_projection,
    commutes,
    explicit_projection,
    fixes_projection,
    kronecker,
    kronecker_projection,
    make_embedded,
    make_simplex,
    markov_violations,
    operator_norm,
    power,
    rank_one_projection,
    sub_projection,
    tensor_space,
    validate_markov,
)
from ergokit.corpus import stationary_distribution
from ergokit.operators import NORMAL_FORM_TOL


def random_stochastic(n, rng):
    return rng.dirichlet(np.ones(n), size=n).T


def test_validate_accepts_stochastic(rng):
    s = make_simplex(5)
    T = validate_markov(random_stochastic(5, rng), s)
    assert not isinstance(T, ViolationReport)
    assert T.matrix.flags.writeable is False


def test_validate_rejects_negative_entry():
    s = make_simplex(2)
    rep = validate_markov(np.array([[1.1, 0.0], [-0.1, 1.0]]), s)
    assert isinstance(rep, ViolationReport)
    assert not rep.ok
    assert rep.violations[0].vertex_index == 0
    assert rep.violations[0].cone_defect == pytest.approx(0.1)
    assert "cone defect" in rep.describe()


def test_validate_rejects_bad_column_sum():
    s = make_simplex(2)
    rep = validate_markov(np.array([[0.5, 0.0], [0.3, 1.0]]), s)
    assert isinstance(rep, ViolationReport)
    assert rep.violations[0].f_defect == pytest.approx(0.2)


def test_as_markov_raises_with_description():
    s = make_simplex(2)
    with pytest.raises(ValueError, match="base escapes K"):
        as_markov(np.array([[0.5, 0.0], [0.3, 1.0]]), s)


def test_markov_violations_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        markov_violations(np.eye(3), make_simplex(2))


def test_markov_operator_has_unit_norm(rng):
    # Markov operators have norm one: they preserve the base, and the base
    # spans the ball
    s = make_simplex(4)
    for _ in range(5):
        T = as_markov(random_stochastic(4, rng), s)
        assert operator_norm(T.matrix, s) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_embedded():
    s = make_embedded(1)
    # (alpha, x) -> (alpha, 2x) doubles the inner part: norm 2
    assert operator_norm(np.diag([1.0, 2.0]), s) == pytest.approx(2.0)
    assert operator_norm(np.diag([1.0, 0.5]), s) == pytest.approx(1.0)


def test_operator_norm_is_exact_on_column_sums(rng):
    # on the simplex the induced norm is the max column l1 norm
    s = make_simplex(5)
    A = rng.standard_normal((5, 5))
    assert operator_norm(A, s) == pytest.approx(np.abs(A).sum(axis=0).max())


def loop_norm(x, space):
    """The scalar closed-form base norm, written out independently."""
    if space.is_lattice:
        return float(np.abs(x).sum())
    inner = np.abs(x[1:])
    inner = inner.sum() if space.inner_ball == "l1" else inner.max()
    return max(abs(float(x[0])), float(inner))


def loop_operator_norm(matrix, space):
    """The induced norm as a Python loop over every ball vertex."""
    ball = np.vstack([space.base_vertices, -space.base_vertices])
    images = np.asarray(matrix, dtype=float) @ ball.T
    return float(max(loop_norm(images[:, j], space) for j in range(images.shape[1])))


def embedded_markov(m, inner_ball, rng):
    """A Markov operator (alpha, x) -> (alpha, alpha c + A x) and its
    rank-one projection: c and A each take at most half of the inner ball."""
    s = make_embedded(m, inner_ball)
    A = rng.standard_normal((m, m))
    c = rng.standard_normal(m)
    if inner_ball == "l1":
        A *= 0.5 / np.abs(A).sum(axis=0).max()
        c *= 0.5 / np.abs(c).sum()
    else:
        A *= 0.5 / np.abs(A).sum(axis=1).max()
        c *= 0.5 / np.abs(c).max()
    M = np.zeros((m + 1, m + 1))
    M[0, 0] = 1.0
    M[1:, 0] = c
    M[1:, 1:] = A
    y = np.linalg.solve(np.eye(m) - A, c)  # the fixed point (1, y) of T
    return as_markov(M, s), rank_one_projection(s, np.concatenate([[1.0], y]))


def simplex_markov(space, rng):
    T = as_markov(random_stochastic(space.dim, rng), space)
    return T, rank_one_projection(space, stationary_distribution(T.matrix))


@pytest.mark.parametrize(
    "make_case",
    [
        lambda rng: simplex_markov(make_simplex(2), rng),
        lambda rng: simplex_markov(make_simplex(9), rng),
        lambda rng: simplex_markov(make_simplex(30), rng),
        lambda rng: simplex_markov(tensor_space(make_simplex(3), make_simplex(4)), rng),
        lambda rng: embedded_markov(20, "l1", rng),
        lambda rng: embedded_markov(6, "linf", rng),
        lambda rng: embedded_markov(12, "linf", rng),
    ],
    ids=["simplex-2", "simplex-9", "simplex-30", "tensor-3x4", "l1-20", "linf-6", "linf-12"],
)
def test_operator_norm_equals_ball_vertex_loop_bit_for_bit(make_case, rng):
    for _ in range(3):
        T, P = make_case(rng)
        s = T.space
        A, Pm = np.asarray(T.matrix), np.asarray(P.matrix)
        U = as_markov(random_stochastic(s.dim, rng), s).matrix if s.is_lattice else A @ A
        for M in (A, A - Pm, A @ Pm - Pm @ A, A @ A - Pm, A - U, rng.standard_normal(A.shape)):
            assert operator_norm(M, s) == loop_operator_norm(M, s)


def loop_violations(matrix, space, tol=1e-10):
    """Markov validation as a loop of matrix-vector products, one per vertex."""
    out = []
    for i, v in enumerate(space.base_vertices):
        image = matrix @ v
        if space.is_lattice:
            cone = max(0.0, -float(image.min()))
        else:
            inner = np.abs(image[1:])
            inner = inner.sum() if space.inner_ball == "l1" else inner.max()
            cone = max(0.0, float(inner) - float(image[0]))
        f_defect = abs(float(np.dot(space.f_coefficients, image)) - 1.0)
        if cone > tol or f_defect > tol:
            out.append((i, cone, f_defect))
    return out


@pytest.mark.parametrize(
    "make_case",
    [
        lambda rng: simplex_markov(make_simplex(7), rng),
        lambda rng: embedded_markov(5, "l1", rng),
        lambda rng: embedded_markov(8, "linf", rng),
    ],
    ids=["simplex-7", "l1-5", "linf-8"],
)
def test_markov_violations_match_vertex_loop(make_case, rng):
    for _ in range(3):
        T, _ = make_case(rng)
        s = T.space
        A = np.asarray(T.matrix)
        noise = rng.standard_normal(A.shape)
        for M in (A, A + 1e-3 * noise, A * 1.01, noise, 3.0 * A - 2.0 * np.eye(s.dim)):
            got = [(v.vertex_index, v.cone_defect, v.f_defect)
                   for v in markov_violations(M, s)]
            assert got == loop_violations(M, s)
            if M is not A:
                assert got  # every perturbed matrix escapes somewhere


def test_nan_entries_fail_markov_validation():
    # NaN > tol is False, so a defect test must ask for defect <= tol instead
    nan = float("nan")
    for space in (make_simplex(2), make_embedded(1, "l1")):
        rep = validate_markov(np.full((2, 2), nan), space)
        assert isinstance(rep, ViolationReport)
        assert [v.vertex_index for v in rep.violations] == list(range(len(space.base_vertices)))
    s = make_simplex(2)
    assert markov_violations(np.array([[nan, 0.5], [nan, 0.5]]), s)
    with pytest.raises(ValueError, match="not Markov"):
        block_projection(s, [[0, 1]], anchors=[np.array([nan, 0.5])])
    with pytest.raises(ValueError, match="not Markov"):
        explicit_projection(s, np.array([[nan, 0.5], [0.5, 0.5]]))


def test_power_matches_matrix_power(rng):
    s = make_simplex(3)
    T = as_markov(random_stochastic(3, rng), s)
    T5 = power(T, 5)
    np.testing.assert_allclose(T5.matrix, np.linalg.matrix_power(T.matrix, 5))


def test_kronecker_is_markov_and_ordered(rng):
    sa, sb = make_simplex(2), make_simplex(3)
    A = as_markov(random_stochastic(2, rng), sa)
    B = as_markov(random_stochastic(3, rng), sb)
    K = kronecker(A, B)
    assert K.space.dim == 6
    np.testing.assert_allclose(K.matrix, np.kron(A.matrix, B.matrix))


def test_rank_one_projection_is_idempotent():
    s = make_simplex(3)
    y = np.array([0.2, 0.3, 0.5])
    P = rank_one_projection(s, y)
    np.testing.assert_allclose(P.matrix @ P.matrix, P.matrix, atol=1e-14)
    assert P.variant == "rank_one"
    np.testing.assert_allclose(P.matrix @ np.array([1.0, 0.0, 0.0]), y)


def test_rank_one_projection_requires_base_point():
    s = make_simplex(3)
    with pytest.raises(ValueError):
        rank_one_projection(s, np.array([0.5, 0.2, 0.2]))


def test_block_projection_uniform_anchors():
    s = make_simplex(4)
    P = block_projection(s, [[0, 1], [2, 3]])
    assert P.variant == "block"
    x = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(P.matrix @ x, [0.5, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(P.matrix @ P.matrix, P.matrix, atol=1e-14)


def test_block_projection_custom_anchors():
    s = make_simplex(4)
    P = block_projection(
        s, [[0, 1], [2, 3]], anchors=[np.array([0.25, 0.75]), np.array([0.5, 0.5])]
    )
    np.testing.assert_allclose(P.matrix @ np.eye(4)[1], [0.25, 0.75, 0.0, 0.0])


def test_block_projection_rejects_bad_partition():
    s = make_simplex(4)
    with pytest.raises(ValueError):
        block_projection(s, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        block_projection(s, [[0, 1], [2]])


@pytest.mark.parametrize("space", [make_simplex(4), make_embedded(2, "linf")],
                         ids=["simplex", "embedded"])
def test_explicit_projection_recovers_rank_one(space):
    y = np.array([0.1, 0.2, 0.3, 0.4]) if space.is_lattice else np.array([1.0, 0.2, -0.1])
    R = rank_one_projection(space, y)
    E = explicit_projection(space, np.asarray(R.matrix))
    assert E.variant == "rank_one"
    assert np.asarray(E.y).tobytes() == np.asarray(R.y).tobytes()
    assert np.asarray(E.matrix).tobytes() == np.asarray(R.matrix).tobytes()


def test_explicit_projection_recovers_a_fully_absorbed_transient_state():
    # closed classes {0, 1} and {2}; state 3 is transient, absorbed into {0, 1}
    s = make_simplex(4)
    M = np.array([[0.3, 0.3, 0.0, 0.3],
                  [0.7, 0.7, 0.0, 0.7],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0]])
    E = explicit_projection(s, M)
    assert E.variant == "block"
    assert E.blocks == ((0, 1, 3), (2,))
    assert [a.tolist() for a in E.anchors] == [[0.3, 0.7, 0.0], [1.0]]
    assert np.asarray(E.matrix).tobytes() == M.tobytes()


def test_explicit_projection_keeps_a_half_absorbed_state_explicit():
    # state 2 goes half to class {0} and half to class {1}: fractional weights
    s = make_simplex(3)
    M = np.array([[1, 0, 0.5], [0, 1, 0.5], [0, 0, 0]])
    E = explicit_projection(s, M)
    assert E.variant == "explicit"
    assert np.array_equal(E.matrix, M)


@pytest.mark.parametrize("scale,variant", [(0.5, "block"), (2.0, "explicit")])
@pytest.mark.parametrize("columns", [[1], [0, 1]], ids=["equal-columns", "zero-entries"])
def test_normal_form_tolerance(columns, scale, variant):
    # move delta of mass out of block {0, 1} in the given columns.  Within
    # NORMAL_FORM_TOL column 1 still equals column 0 (whose anchor rebuilds
    # the block) and the stray entry still counts as zero.  Beyond it,
    # column 0 is a group of its own, or its group has mass outside it
    s = make_simplex(4)
    P = block_projection(s, [[0, 1], [2, 3]], [np.array([0.25, 0.75]), np.array([0.5, 0.5])])
    delta = scale * NORMAL_FORM_TOL
    M = np.array(P.matrix)
    M[1, columns] -= delta
    M[2, columns] += delta
    E = explicit_projection(s, M)
    assert E.variant == variant
    if variant == "explicit":
        assert np.array_equal(E.matrix, M)
    elif columns == [1]:
        assert np.asarray(E.matrix).tobytes() == np.asarray(P.matrix).tobytes()
    else:  # column 0's anchor lost the stray delta
        assert E.blocks == P.blocks
        assert np.abs(np.asarray(E.matrix) - M).max() == delta


def test_a_matrix_accepted_at_a_loose_tol_stays_explicit():
    # block-shaped, but the anchor of block {0, 1} is (1 + 5e-10, -5e-10):
    # explicit_projection's 1e-9 Markov check accepts it, block_projection's
    # own -1e-10 anchor check refuses it
    s = make_simplex(3)
    M = np.array([[1 + 5e-10, 1 + 5e-10, 0.0], [-5e-10, -5e-10, 0.0], [0.0, 0.0, 1.0]])
    E = explicit_projection(s, M)
    assert E.variant == "explicit"
    assert np.array_equal(E.matrix, M)


def test_explicit_projection_checks_idempotence():
    s = make_simplex(2)
    with pytest.raises(ValueError, match="idempotent"):
        explicit_projection(s, np.array([[0.7, 0.1], [0.3, 0.9]]))


def test_membership_checks(two_state):
    ok_f, fd = fixes_projection(two_state.T, two_state.P)
    ok_c, cd = commutes(two_state.T, two_state.P)
    assert ok_f and ok_c
    assert fd < 1e-12 and cd < 1e-12


def test_membership_combines_both_tests(two_state):
    from ergokit.operators import membership

    assert membership(two_state.T, two_state.P) == (
        True,
        fixes_projection(two_state.T, two_state.P)[1],
        commutes(two_state.T, two_state.P)[1],
    )
    s = make_simplex(2)
    T = as_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), s)
    ok, fd, cd = membership(T, rank_one_projection(s, np.array([0.3, 0.7])))
    assert not ok and fd > 0.1 and cd > 0.1


def test_membership_defects_reported():
    s = make_simplex(2)
    T = as_markov(np.array([[0.0, 1.0], [1.0, 0.0]]), s)  # period-2 swap
    P = rank_one_projection(s, np.array([0.3, 0.7]))
    ok_f, fd = fixes_projection(T, P)
    # the swap fixes only the uniform anchor, so TP != P here
    assert not ok_f
    assert fd > 0.1


def test_projection_powers_stabilize(two_state):
    # T^n P = P for all n once TP = P
    T, P = two_state.T, two_state.P
    acc = np.asarray(P.matrix)
    for _ in range(4):
        acc = T.matrix @ acc
        np.testing.assert_allclose(acc, P.matrix, atol=1e-14)


def test_sub_projection_order(blocky):
    P = blocky.P
    s = P.space
    pi = np.full(4, 0.25)
    full = rank_one_projection(s, pi)
    # averaging within blocks refines averaging over everything
    assert sub_projection(full, P)
    assert not sub_projection(P, full)
    assert sub_projection(P, P)


def test_kronecker_projection_matches_matrix_kron(two_state, fast_two_state):
    Q, P = two_state.P, fast_two_state.P
    K = kronecker_projection(Q, P)
    assert isinstance(K, MarkovProjection)
    np.testing.assert_allclose(K.matrix, np.kron(Q.matrix, P.matrix))
    assert K.space.kind == "simplex"


def test_kronecker_respects_tensor_space(two_state, fast_two_state):
    K = kronecker(two_state.T, fast_two_state.T)
    t = tensor_space(two_state.T.space, fast_two_state.T.space)
    assert K.space.dim == t.dim


def test_stationary_distribution_agrees_with_projection(rng):
    s = make_simplex(4)
    T = random_stochastic(4, rng)
    pi = stationary_distribution(T)
    np.testing.assert_allclose(T @ pi, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert (pi > 0).all()
