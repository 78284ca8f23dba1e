"""Markov operators and Markov projections as validated dense matrices.

Matrices act on coordinates by left multiplication; column i is the image
of the i-th coordinate basis vector (the classical column-stochastic
convention on the simplex).  A matrix is Markov when it maps the base K
into K, which for a polytopal base reduces to checking every base vertex.
Validation failure is a first-class result (a report of which vertex
escapes and by how much), not an exception, so callers can surface it.

All values are immutable after validation, apart from a projection's
``_memo`` of data derived from it, and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedSpaceError
from .spaces import StateSpace, _abs_row_sums_in_order, _cached, _frozen, same_space

VALIDATION_TOL = 1e-10
# explicit_projection counts two columns as equal, and an entry as zero,
# within this: far above the roundoff of sums of n probabilities (~n * 1e-16),
# and small enough that its rebuilt normal form moves each column by at most
# 2n * 1e-12 in l1 (2e-10 at n = 100), inside the 1e-9 to which it checks
# that the matrix is idempotent and Markov
NORMAL_FORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MarkovOperator:
    """A dense matrix certified to map the base K into itself."""

    matrix: np.ndarray
    space: StateSpace

    def __repr__(self) -> str:
        return f"MarkovOperator(dim={self.space.dim}, kind={self.space.kind!r})"


@dataclass(frozen=True)
class VertexViolation:
    """One base vertex escaping the base under the candidate matrix."""

    vertex_index: int
    cone_defect: float
    f_defect: float


@dataclass(frozen=True)
class ViolationReport:
    """Structured result of a failed Markov validation."""

    violations: tuple[VertexViolation, ...]

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        parts = [
            f"vertex {v.vertex_index}: cone defect {v.cone_defect:.3e}, "
            f"f defect {v.f_defect:.3e}"
            for v in self.violations
        ]
        return "base escapes K at " + "; ".join(parts)


def markov_violations(
    matrix: np.ndarray, space: StateSpace, tol: float = VALIDATION_TOL
) -> list[VertexViolation]:
    """Check T(K) <= K at every base vertex; empty list means valid."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (space.dim, space.dim):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match space dimension {space.dim}"
        )
    # a stacked matmul runs one matrix-vector product per vertex, so every
    # image and f value is the same float the product T v alone gives
    images = np.matmul(matrix, space.base_vertices[:, :, None])[:, :, 0]
    cone_defects = space.cone_defect_rows(images)
    f_defects = np.abs(np.matmul(space.f_coefficients, images[:, :, None])[:, 0] - 1.0)
    # not "> tol": a NaN defect compares False both ways and must fail
    bad = np.flatnonzero(~((cone_defects <= tol) & (f_defects <= tol)))
    return [
        VertexViolation(int(i), float(cone_defects[i]), float(f_defects[i]))
        for i in bad
    ]


def validate_markov(matrix: np.ndarray, space: StateSpace) -> MarkovOperator | ViolationReport:
    """Certify a matrix as Markov within VALIDATION_TOL, or report how it fails."""
    bad = markov_violations(matrix, space)
    if bad:
        return ViolationReport(tuple(bad))
    return MarkovOperator(_frozen(matrix), space)


def as_markov(matrix: np.ndarray, space: StateSpace) -> MarkovOperator:
    """validate_markov for callers that want an exception on failure."""
    result = validate_markov(matrix, space)
    if isinstance(result, ViolationReport):
        raise ValueError(f"matrix is not Markov: {result.describe()}")
    return result


def operator_norm(matrix: np.ndarray, space: StateSpace) -> float:
    """Induced operator norm, exact: the unit ball is conv(K u -K).

    Its vertices are the base vertices and their negatives, and the norm is
    even, so the maximum over the base vertices' images is the maximum over
    the whole ball.  On the simplex the images of the base vertices e_j are
    the columns of M, read as the rows of a contiguous M.T: the largest
    column l1 sum.  On embedded linf the ball is the linf ball of R^(m+1),
    so the norm is the largest absolute row sum (Horn & Johnson, Matrix
    Analysis, 2nd ed., 5.6), each row added left to right: the order in
    which the product with the 2^m base vertices accumulates the image of
    its sign-aligned vertex, so for a finite M it is the float that the
    vertex maximum gives.  Embedded l1 takes the product with its 2m base
    vertices.
    """
    M = np.asarray(matrix, dtype=float)
    if space.is_lattice:
        return float(space.norm_rows(np.ascontiguousarray(M.T)).max())
    if space.inner_ball == "linf":
        return float(_abs_row_sums_in_order(M).max())
    return float(space.norm_rows(space.base_vertices @ M.T).max())


@dataclass(frozen=True, eq=False)
class MarkovProjection:
    """An idempotent Markov operator.

    Structured variants keep enough data for exact coefficient work:
    ``rank_one`` realizes x -> f(x) y for a base element y, and ``block``
    averages each coordinate block onto a per-block anchor distribution.
    ``explicit`` is an idempotent Markov matrix with neither form, such as
    one that absorbs a transient state into two classes.  A matrix with
    one of the forms is built as that variant (``explicit_projection``).
    On the simplex every variant has ``types``, the groups of states whose
    columns of P are equal, from which the exact coefficient is computed.
    ``_memo`` holds what is derived from P once (``spaces._cached``): an
    explicit P's types, and the pair list, cross-type candidates and
    kernel-ball vertices of every P that is not rank-one.
    """

    matrix: np.ndarray
    space: StateSpace
    variant: str  # "rank_one" | "block" | "explicit"
    y: np.ndarray | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    anchors: tuple[np.ndarray, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def structured(self) -> bool:
        """Whether ker P has pair groups: rank-one or block, not explicit."""
        return self.variant in ("rank_one", "block")

    @property
    def types(self) -> tuple[tuple[int, ...], ...]:
        """The groups of states with equal columns of P, on the simplex.

        One group of every state for rank-one P and the blocks for block P;
        for an explicit P the groups of ``_column_types``, in order of their
        first member, found once per projection and kept in its ``_memo``
        (``explicit_projection`` puts there the groups it found building P).
        """
        if self.variant == "block":
            return self.blocks
        if self.variant == "rank_one":
            return (tuple(range(self.space.dim)),)
        return _cached(self, "types", lambda: _column_types(np.asarray(self.matrix)))

    def rank(self) -> int:
        # trace of an idempotent is its rank
        return int(round(float(np.trace(self.matrix))))

    def __repr__(self) -> str:
        return f"MarkovProjection(variant={self.variant!r}, dim={self.space.dim})"


def _check_projection(matrix: np.ndarray, space: StateSpace, tol: float) -> None:
    if np.abs(matrix @ matrix - matrix).max() > tol:
        raise ValueError("projection matrix is not idempotent")
    bad = markov_violations(matrix, space, tol)
    if bad:
        raise ValueError(
            "projection is not Markov: " + ViolationReport(tuple(bad)).describe()
        )


def rank_one_projection(space: StateSpace, y: np.ndarray) -> MarkovProjection:
    """The projection x -> f(x) y onto the ray of a base element y."""
    y = np.asarray(y, dtype=float)
    if not space.in_base(y, 1e-8):
        raise ValueError("rank-one anchor must lie in the base K")
    matrix = np.outer(y, space.f_coefficients)
    _check_projection(matrix, space, 1e-8)
    m = _frozen(matrix)
    return MarkovProjection(m, space, "rank_one", y=_frozen(y))


def block_projection(
    space: StateSpace,
    blocks: list[list[int]] | tuple[tuple[int, ...], ...],
    anchors: list[np.ndarray] | None = None,
) -> MarkovProjection:
    """Conditional-expectation projection onto per-block anchors.

    ``blocks`` must partition the coordinate set; ``anchors`` gives one
    probability vector per block (in block-local coordinates), defaulting
    to the uniform distribution on each block.
    """
    if not space.is_lattice:
        raise UnsupportedSpaceError("block projections require a simplex-like space")
    blocks = tuple(tuple(int(i) for i in b) for b in blocks)
    flat = [i for b in blocks for i in b]
    if sorted(flat) != list(range(space.dim)):
        raise ValueError("blocks must partition the coordinate indices")
    if anchors is None:
        anchors = [np.full(len(b), 1.0 / len(b)) for b in blocks]
    anchors = [np.asarray(a, dtype=float) for a in anchors]
    if len(anchors) != len(blocks):
        raise ValueError("need exactly one anchor per block")
    matrix = np.zeros((space.dim, space.dim))
    for b, a in zip(blocks, anchors):
        if a.shape != (len(b),):
            raise ValueError("anchor length must match its block")
        if a.min() < -VALIDATION_TOL or abs(a.sum() - 1.0) > 1e-8:
            raise ValueError("anchors must be probability vectors")
        for j in b:
            matrix[list(b), j] = a
    _check_projection(matrix, space, 1e-8)
    return MarkovProjection(
        _frozen(matrix),
        space,
        "block",
        blocks=blocks,
        anchors=tuple(_frozen(a) for a in anchors),
    )


def explicit_projection(space: StateSpace, matrix: np.ndarray) -> MarkovProjection:
    """An idempotent Markov matrix, in its structured normal form when it has one.

    P = y f^T is returned as ``rank_one_projection(space, y)``, on any space.
    On the simplex, a P whose equal columns are each supported
    inside their own group (a partition, where a transient state may be
    wholly absorbed into one class) is returned as ``block_projection``
    with those groups as blocks and each group's column as its anchor.
    Columns count as equal within NORMAL_FORM_TOL.  The structured matrix
    is rebuilt from (y) or (blocks, anchors), so it differs from the input
    by at most 2 * NORMAL_FORM_TOL per entry and equals the matrix of a P
    written in structured form bit for bit.  Any other P is ``explicit``,
    as is one that is idempotent and Markov within 1e-9 but fails the
    structured form's own checks; on the simplex its equal-column groups
    are its ``types``, and it takes the same exact route as the others.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (space.dim, space.dim):
        raise ValueError("projection matrix has the wrong shape")
    _check_projection(matrix, space, 1e-9)
    y = matrix @ space.base_vertices[0]
    types = ()
    try:
        if np.abs(matrix - np.outer(y, space.f_coefficients)).max() <= NORMAL_FORM_TOL:
            return rank_one_projection(space, y)
        types = _column_types(matrix) if space.is_lattice else ()
        # a partition: no type's column has mass outside the type (a
        # fractional absorption has)
        if types and all(np.abs(np.delete(matrix[:, g[0]], g)).max(initial=0.0)
                         <= NORMAL_FORM_TOL for g in types):
            return block_projection(space, types, [matrix[g, g[0]] for g in types])
    except ValueError:
        pass  # e.g. an anchor entry in [-1e-9, -1e-10): block_projection's bound
    P = MarkovProjection(_frozen(matrix), space, "explicit")
    if types:  # the groups P.types would find again
        P._memo["types"] = types
    return P


def _column_types(matrix: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Groups of equal columns, within NORMAL_FORM_TOL, partitioning the indices.

    A group is the first unassigned column with every unassigned column
    within NORMAL_FORM_TOL of it.
    """
    unassigned = np.ones(len(matrix), dtype=bool)
    groups = []
    for j in range(len(matrix)):
        if unassigned[j]:
            col = matrix[:, j]
            members = unassigned & (np.abs(matrix - col[:, None]).max(axis=0) <= NORMAL_FORM_TOL)
            unassigned &= ~members
            groups.append(tuple(np.flatnonzero(members).tolist()))
    return tuple(groups)


def power(T: MarkovOperator, n: int) -> MarkovOperator:
    """T^n by repeated squaring; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("power requires n >= 0")
    result = np.linalg.matrix_power(T.matrix, n)
    return MarkovOperator(_frozen(result), T.space)


def sub_projection(Q: MarkovProjection, P: MarkovProjection) -> bool:
    """Whether Q <= P in the projection order, i.e. QP = PQ = Q."""
    if not same_space(Q.space, P.space):
        raise ValueError("projections live on different spaces")
    qp = operator_norm(Q.matrix @ P.matrix - Q.matrix, Q.space)
    pq = operator_norm(P.matrix @ Q.matrix - Q.matrix, Q.space)
    return qp <= VALIDATION_TOL and pq <= VALIDATION_TOL


def commutes(T: MarkovOperator, P: MarkovProjection) -> tuple[bool, float]:
    """Commutation test TP = PT with the exact defect norm ||TP - PT||."""
    if not same_space(T.space, P.space):
        raise ValueError("operator and projection live on different spaces")
    defect = operator_norm(T.matrix @ P.matrix - P.matrix @ T.matrix, T.space)
    return defect <= VALIDATION_TOL, defect


def fixes_projection(T: MarkovOperator, P: MarkovProjection) -> tuple[bool, float]:
    """Whether TP = P, with the exact defect norm."""
    defect = operator_norm(T.matrix @ P.matrix - P.matrix, T.space)
    return defect <= VALIDATION_TOL, defect


def membership(T: MarkovOperator, P: MarkovProjection) -> tuple[bool, float, float]:
    """Whether TP = PT = P, with the defect norms ||TP - P|| and ||TP - PT||."""
    ok_f, fix_defect = fixes_projection(T, P)
    ok_c, commute_defect = commutes(T, P)
    return ok_f and ok_c, fix_defect, commute_defect
