"""Finite-dimensional base-norm state spaces.

A space here is an ordered real vector space with a distinguished cone, a
strictly positive functional f, and the base K = {x in cone : f(x) = 1}.
The norm is the gauge of conv(K u -K).  A space is fixed by f and the
vertices of K; two polytopal instances are supported, both of them
"strong" (the unit ball is exactly the convex hull of +-K):

* the probability simplex on n coordinates (cone = nonnegative orthant,
  f = coordinate sum, norm = l1),
* an embedded-ball space R + R^m with coordinates (alpha, x), functional
  f(alpha, x) = alpha, cone {||x||_inner <= alpha} and norm
  max(|alpha|, ||x||_inner) for a polytopal inner norm (l1 or linf).

A Kronecker product of simplices is canonically the simplex on the
product index set, and is built as that simplex (``tensor_space``).

Only polytopal instances are supported: every exact coefficient
computation in this package reduces to a finite maximum over vertex sets.
All values are immutable after construction and every operation is a pure
function, so spaces can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSpaceError

CONE_TOL = 1e-10

SIMPLEX = "simplex"
EMBEDDED = "embedded"


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only contiguous float copy; the caller's array stays writable."""
    a = np.ascontiguousarray(a, dtype=float).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A finite-dimensional base-norm space with explicit vertex data.

    ``base_vertices`` are the extreme points of the base K (rows); the unit
    ball conv(K u -K) has them and their negatives as its extreme points.
    ``f_coefficients`` represents the strictly positive functional as a
    coordinate functional.
    """

    kind: str
    dim: int
    f_coefficients: np.ndarray
    base_vertices: np.ndarray
    inner_ball: str | None = None
    inner_dim: int | None = None

    @property
    def is_lattice(self) -> bool:
        """True on the simplex, whose coordinates form a vector lattice."""
        return self.kind == SIMPLEX

    def f(self, x: np.ndarray) -> float:
        return float(np.dot(self.f_coefficients, x))

    def norm(self, x: np.ndarray) -> float:
        """Base norm of an arbitrary coordinate vector (closed form)."""
        return float(self.norm_rows(np.asarray(x, dtype=float)[None, :])[0])

    def norm_rows(self, W: np.ndarray) -> np.ndarray:
        """Base norm of each row of W; the one norm implementation.

        A C-ordered W is reduced along its contiguous axis, so each value is
        the same float that ``norm`` gives for that row alone.
        """
        W = np.asarray(W, dtype=float)
        if self.is_lattice:
            return np.abs(W).sum(axis=1)
        return np.maximum(np.abs(W[:, 0]), self._inner_norm_rows(W[:, 1:]))

    def _inner_norm_rows(self, V: np.ndarray) -> np.ndarray:
        inner = np.abs(V)
        return inner.sum(axis=1) if self.inner_ball == "l1" else inner.max(axis=1)

    def in_cone(self, x: np.ndarray, tol: float = CONE_TOL) -> bool:
        return self.cone_defect(x) <= tol

    def cone_defect(self, x: np.ndarray) -> float:
        """How far x is from the cone: 0 for members, positive otherwise."""
        return float(self.cone_defect_rows(np.asarray(x, dtype=float)[None, :])[0])

    def cone_defect_rows(self, X: np.ndarray) -> np.ndarray:
        """cone_defect of each row of X."""
        X = np.asarray(X, dtype=float)
        if self.is_lattice:
            return np.maximum(0.0, -X.min(axis=1))
        return np.maximum(0.0, self._inner_norm_rows(X[:, 1:]) - X[:, 0])

    def in_base(self, x: np.ndarray, tol: float = CONE_TOL) -> bool:
        return self.in_cone(x, tol) and abs(self.f(x) - 1.0) <= tol

    def __repr__(self) -> str:  # keep matrices out of reprs
        extra = f", inner_ball={self.inner_ball!r}" if self.kind == EMBEDDED else ""
        return f"StateSpace(kind={self.kind!r}, dim={self.dim}{extra})"


def same_space(a: StateSpace, b: StateSpace) -> bool:
    return (
        a.kind == b.kind
        and a.dim == b.dim
        and a.inner_ball == b.inner_ball
        and a.inner_dim == b.inner_dim
    )


def make_simplex(n: int) -> StateSpace:
    """The probability simplex on n coordinates; base norm is l1."""
    if n < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {n}")
    return StateSpace(
        kind=SIMPLEX,
        dim=n,
        f_coefficients=_frozen(np.ones(n)),
        base_vertices=_frozen(np.eye(n)),
    )


def _inner_ball_vertices(m: int, inner_ball: str) -> np.ndarray:
    if inner_ball == "l1":
        eye = np.eye(m)
        return np.vstack([eye, -eye])
    if inner_ball == "linf":
        if m > 16:
            raise ValueError(f"linf inner ball has 2^{m} vertices; m must be <= 16")
        # row k holds the bits of k, highest first, as signs 0 -> 1, 1 -> -1:
        # the order of itertools.product((1.0, -1.0), repeat=m)
        bits = np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1) & 1
        return 1.0 - 2.0 * bits
    raise ValueError(f"inner_ball must be 'l1' or 'linf', got {inner_ball!r}")


def make_embedded(m: int, inner_ball: str = "l1") -> StateSpace:
    """The space R + R^m with f(alpha, x) = alpha and a polytopal inner ball.

    The base is K = {(1, x) : ||x||_inner <= 1}.  The unit ball
    conv(K u -K) works out to {(alpha, x) : max(|alpha|, ||x||_inner) <= 1}:
    both K and -K lie inside it, and any such (alpha, x) is the convex
    combination t(1, x) + (1-t)(-1, x) with t = (1+alpha)/2.  Its vertices
    are therefore (s, w) with s = +-1 and w an inner-ball vertex, which are
    the base vertices (1, w) and their negatives.
    """
    if m < 1:
        raise ValueError(f"inner dimension must be >= 1, got {m}")
    w = _inner_ball_vertices(m, inner_ball)
    base = np.hstack([np.ones((w.shape[0], 1)), w])
    f = np.zeros(1 + m)
    f[0] = 1.0
    return StateSpace(
        kind=EMBEDDED,
        dim=1 + m,
        f_coefficients=_frozen(f),
        base_vertices=_frozen(base),
        inner_ball=inner_ball,
        inner_dim=m,
    )


def tensor_space(a: StateSpace, b: StateSpace) -> StateSpace:
    """Kronecker product of two simplex spaces.

    The product of simplices on m and n points is canonically the simplex
    on the m*n product index set, with the l1 norm.  Mixed products are
    not supported: they would force a choice among inequivalent
    cross-norms.
    """
    if not (a.is_lattice and b.is_lattice):
        raise UnsupportedSpaceError(
            "tensor products are only defined for simplex-like factors"
        )
    return make_simplex(a.dim * b.dim)
