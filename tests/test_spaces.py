"""Geometry of the base-norm spaces: norms, cones, vertex data."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergokit import make_embedded, make_simplex, same_space, spaces


def ball_vertices(s):
    """The unit ball's extreme points: the base vertices and their negatives."""
    return np.vstack([s.base_vertices, -s.base_vertices])


def test_simplex_shapes():
    s = make_simplex(4)
    assert s.dim == 4
    assert s.base_vertices.shape == (4, 4)
    assert ball_vertices(s).shape == (8, 4)
    assert s.is_lattice
    np.testing.assert_array_equal(s.f_coefficients, np.ones(4))


def test_simplex_norm_is_l1():
    s = make_simplex(3)
    x = np.array([1.0, -2.0, 0.5])
    assert s.norm(x) == pytest.approx(3.5, abs=0)


def test_simplex_rejects_dim_zero():
    with pytest.raises(ValueError):
        make_simplex(0)


def test_base_vertices_lie_in_base():
    for s in (make_simplex(3), make_embedded(2, "l1"), make_embedded(2, "linf")):
        for v in s.base_vertices:
            assert s.in_base(v)
            assert s.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_ball_vertices_have_unit_norm():
    for s in (make_simplex(5), make_embedded(3, "l1"), make_embedded(2, "linf")):
        for v in ball_vertices(s):
            assert s.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_embedded_norm_closed_form():
    s = make_embedded(2, "l1")
    assert s.norm(np.array([0.3, 0.1, -0.2])) == pytest.approx(0.3)
    assert s.norm(np.array([0.1, 0.5, -0.2])) == pytest.approx(0.7)
    t = make_embedded(2, "linf")
    assert t.norm(np.array([0.1, 0.5, -0.2])) == pytest.approx(0.5)


def test_embedded_cone_defect():
    s = make_embedded(1)
    assert s.cone_defect(np.array([1.0, 0.5])) == 0.0
    assert s.cone_defect(np.array([0.5, 1.0])) == pytest.approx(0.5)
    assert not s.in_cone(np.array([0.5, 1.0]))


def test_embedded_linf_vertex_count():
    s = make_embedded(3, "linf")
    # 2 signs for alpha times 2^3 inner sign patterns
    assert ball_vertices(s).shape == (16, 4)
    with pytest.raises(ValueError):
        make_embedded(17, "linf")


@pytest.mark.parametrize("m", range(1, 11))
def test_embedded_linf_vertices_in_product_order(m):
    # the inner vertices are the sign rows of itertools.product, in its order
    want = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    B = make_embedded(m, "linf").base_vertices
    assert B[:, 1:].tobytes() == want.tobytes()
    assert (B[:, 0] == 1.0).all()


def test_embedded_rejects_unknown_inner_ball():
    with pytest.raises(ValueError):
        make_embedded(2, "l2")


def test_same_space():
    assert same_space(make_simplex(3), make_simplex(3))
    assert not same_space(make_simplex(3), make_simplex(4))
    assert not same_space(make_embedded(2, "l1"), make_embedded(2, "linf"))


def test_vertex_data_is_readonly():
    s = make_simplex(3)
    with pytest.raises(ValueError):
        s.base_vertices[0, 0] = 2.0


@given(
    x=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    y=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    c=st.floats(-5, 5),
)
def test_simplex_norm_axioms(x, y, c):
    s = make_simplex(4)
    assert s.norm(x + y) <= s.norm(x) + s.norm(y) + 1e-9
    assert s.norm(c * x) == pytest.approx(abs(c) * s.norm(x), abs=1e-9)


@given(
    x=arrays(np.float64, 4, elements=st.floats(0, 10)),
    y=arrays(np.float64, 4, elements=st.floats(0, 10)),
)
def test_norm_additive_on_cone(x, y):
    # the defining property of a base norm: additivity on the positive cone
    s = make_simplex(4)
    assert s.norm(x + y) == pytest.approx(s.norm(x) + s.norm(y), abs=1e-12)


@settings(max_examples=50)
@given(
    alpha=st.floats(-3, 3),
    v=arrays(np.float64, 2, elements=st.floats(-3, 3)),
    inner=st.sampled_from(["l1", "linf"]),
)
def test_embedded_ball_membership_matches_norm(alpha, v, inner):
    # unit ball == conv(+-base vertices): every point of norm <= 1 must be a
    # convex combination of the listed vertices (LP feasibility)
    s = make_embedded(2, inner)
    x = np.concatenate([[alpha], v])
    n = s.norm(x)
    if n > 0:
        x = x / n
    V = ball_vertices(s)
    from scipy.optimize import linprog

    res = linprog(
        np.zeros(V.shape[0]),
        A_eq=np.vstack([V.T, np.ones(V.shape[0])]),
        b_eq=np.concatenate([x, [1.0]]),
        bounds=[(0, None)] * V.shape[0],
        method="highs",
    )
    assert res.success


ROWS = spaces._COLUMN_SUM_ROWS


def _spread(rng, shape):
    """Signed entries whose magnitudes spread over 1e-8..1e8."""
    return rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-8, 8, shape)


@pytest.mark.parametrize("rows", [ROWS - 1, ROWS, 8192, 20_000])
def test_abs_row_sums_equal_numpy_bit_for_bit(rows, rng):
    # the column-wise sums mirror NumPy's summation order on either side of
    # 8 and of 16 columns; a NumPy that changes its order fails here
    for n in range(1, 32):
        W = _spread(rng, (rows, n))
        Y = _spread(rng, (rows, 2 * n))
        for layout, X in (("C", W), ("column slice", Y[:, :n]), ("F", np.asfortranarray(W))):
            want = np.abs(X).sum(axis=1).tobytes()
            assert spaces._abs_row_sums(X).tobytes() == want, (n, layout)
            assert make_simplex(n).norm_rows(X).tobytes() == want, (n, layout)
        inner = np.maximum(np.abs(W[:, 0]), np.abs(W[:, 1:]).sum(axis=1))
        if n > 1:
            got = make_embedded(n - 1, "l1").norm_rows(W)
            assert got.tobytes() == inner.tobytes(), n


@pytest.mark.parametrize("n", [2, 7, 8, 13, 15])
def test_norm_of_a_row_is_its_entry_in_norm_rows(n, rng):
    # norm_rows' docstring: each value is the float norm gives that row alone,
    # also where the tall array's row sums are added column by column
    W = _spread(rng, (8192, n))
    for s in (make_simplex(n), make_embedded(n - 1, "l1")):
        rows = s.norm_rows(W)
        for i in range(0, len(W), 37):
            assert s.norm(W[i]) == rows[i], (s, i)


@pytest.mark.parametrize("rows", [1, ROWS - 1, ROWS, 8192])
def test_abs_row_max_equals_numpy_bit_for_bit(rows, rng):
    # the column fold of the linf row max, with signed zeros among the entries,
    # on the layouts norm_rows hands it (a column slice of the embedded W)
    for m in range(1, 17):
        W = _spread(rng, (rows, m + 1))
        W[rng.random(W.shape) < 0.2] = 0.0
        W[rng.random(W.shape) < 0.2] = -0.0
        for layout, X in (("C", W[:, 1:].copy()), ("column slice", W[:, 1:]),
                          ("F", np.asfortranarray(W[:, 1:]))):
            want = np.abs(X).max(axis=1).tobytes()
            assert spaces._abs_row_max(X).tobytes() == want, (m, layout)
        want = np.maximum(np.abs(W[:, 0]), np.abs(W[:, 1:]).max(axis=1)).tobytes()
        assert make_embedded(m, "linf").norm_rows(W).tobytes() == want, m
