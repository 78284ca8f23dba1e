"""Geometry of the base-norm spaces: norms, cones, vertex data."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergokit import (
    UnsupportedSpaceError,
    make_embedded,
    make_simplex,
    same_space,
    tensor_space,
)


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


def test_tensor_space_is_product_simplex():
    t = tensor_space(make_simplex(2), make_simplex(3))
    assert t.dim == 6
    assert t.is_lattice
    assert t.kind == "simplex"
    assert same_space(t, make_simplex(6))
    # tensoring again is again the simplex on the product index set
    tt = tensor_space(t, make_simplex(2))
    assert same_space(tt, make_simplex(12))
    assert tt.dim == 12


def test_tensor_rejects_embedded_factor():
    with pytest.raises(UnsupportedSpaceError):
        tensor_space(make_simplex(2), make_embedded(1))


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
