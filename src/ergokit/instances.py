"""Instance files: parsing, validation and canonical serialization.

The on-disk format is JSON with four top-level keys::

    {
      "space":      {"type": "simplex", "dim": 3}
                    | {"type": "embedded", "inner_dim": 2, "inner_ball": "l1"},
      "operator":   [[...], ...],                  # row-major, dim x dim
      "projection": {"type": "rank_one", "y": [...]}
                    | {"type": "block", "blocks": [[0,1],[2]], "anchors": [...]?}
                    | {"type": "matrix", "entries": [[...], ...]},
      "sub_projection": { same shapes as projection }   # optional
    }

Structural problems (syntax, shapes, indices) raise ParseError; a
well-formed file whose numbers fail mathematical validation raises
ValidationError.  The distinction drives the CLI exit codes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedSpaceError, ValidationError
from .operators import (
    MarkovOperator,
    MarkovProjection,
    block_projection,
    explicit_projection,
    rank_one_projection,
    validate_markov,
)
from .spaces import StateSpace, make_embedded, make_simplex


@dataclass(frozen=True)
class ParsedInstance:
    space: StateSpace
    operator: MarkovOperator
    projection: MarkovProjection
    sub: MarkovProjection | None = None


def _require(cond: bool, message: str, location: str):
    if not cond:
        raise ParseError(message, location)


def _get(doc: dict, key: str, location: str):
    _require(isinstance(doc, dict), "expected an object", location)
    _require(key in doc, f"missing key {key!r}", location)
    return doc[key]


def _number(v, location: str) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             "expected a number", location)
    try:
        return float(v)
    except OverflowError:  # an integer past the float range
        raise ParseError("number out of float range", location) from None


def _require_rows(entries, dim: int, location: str):
    _require(isinstance(entries, list) and len(entries) == dim,
             f"expected {dim} rows", location)


def _as_matrix(entries, dim: int, location: str) -> np.ndarray:
    _require_rows(entries, dim, location)
    rows = []
    for i, row in enumerate(entries):
        _require(isinstance(row, list) and len(row) == dim,
                 f"expected {dim} entries", f"{location}[{i}]")
        rows.append([_number(v, f"{location}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _as_vector(entries, dim: int, location: str) -> np.ndarray:
    _require(isinstance(entries, list) and len(entries) == dim,
             f"expected {dim} entries", location)
    return np.array([_number(v, f"{location}[{j}]") for j, v in enumerate(entries)])


def _positive_int(doc, key: str) -> int:
    v = _get(doc, key, "space")
    _require(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
             f"{key} must be a positive integer", f"space.{key}")
    return v


def _parse_space(doc, operator) -> StateSpace:
    """The space of ``doc``, built once ``operator`` has a row per coordinate.

    A space holds dim x dim arrays, so a dim that the operator does not
    match is refused before any array of that size exists."""
    kind = _get(doc, "type", "space")
    if kind == "simplex":
        dim = _positive_int(doc, "dim")
        _require_rows(operator, dim, "operator")
        return make_simplex(dim)
    if kind == "embedded":
        m = _positive_int(doc, "inner_dim")
        ball = doc.get("inner_ball", "l1")
        _require(ball in ("l1", "linf"), "inner_ball must be 'l1' or 'linf'",
                 "space.inner_ball")
        _require_rows(operator, 1 + m, "operator")
        try:
            return make_embedded(m, ball)
        except ValueError as exc:  # the inner ball's vertex cap
            raise ParseError(str(exc), "space.inner_dim") from exc
    raise ParseError(f"unknown space type {kind!r}", "space.type")


def _parse_projection(doc, space: StateSpace, location: str) -> MarkovProjection:
    kind = _get(doc, "type", location)
    try:
        if kind == "rank_one":
            y = _as_vector(_get(doc, "y", location), space.dim, f"{location}.y")
            return rank_one_projection(space, y)
        if kind == "block":
            blocks = _get(doc, "blocks", location)
            _require(isinstance(blocks, list) and blocks, "expected a list of blocks",
                     f"{location}.blocks")
            seen: set[int] = set()
            for b, block in enumerate(blocks):
                _require(isinstance(block, list) and block, "expected an index list",
                         f"{location}.blocks[{b}]")
                for k, idx in enumerate(block):
                    here = f"{location}.blocks[{b}][{k}]"
                    _require(isinstance(idx, int) and not isinstance(idx, bool),
                             "expected an integer index", here)
                    _require(0 <= idx < space.dim, "index out of range", here)
                    _require(idx not in seen, "index repeated across blocks", here)
                    seen.add(idx)
            _require(len(seen) == space.dim, "blocks do not cover every coordinate",
                     f"{location}.blocks")
            anchors = None
            if "anchors" in doc:
                raw = doc["anchors"]
                _require(isinstance(raw, list) and len(raw) == len(blocks),
                         "expected one anchor per block", f"{location}.anchors")
                anchors = [
                    _as_vector(a, len(blocks[b]), f"{location}.anchors[{b}]")
                    for b, a in enumerate(raw)
                ]
            return block_projection(space, [list(b) for b in blocks], anchors)
        if kind == "matrix":
            entries = _as_matrix(_get(doc, "entries", location), space.dim,
                                 f"{location}.entries")
            return explicit_projection(space, entries)
    except UnsupportedSpaceError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{location}: {exc}") from exc
    raise ParseError(f"unknown projection type {kind!r}", f"{location}.type")


def parse_instance(text: str) -> ParsedInstance:
    """Parse and validate one instance document from its JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}", "$") from exc
    _require(isinstance(doc, dict), "top level must be an object", "$")
    space_doc = _get(doc, "space", "$")
    operator = _get(doc, "operator", "$")
    space = _parse_space(space_doc, operator)
    matrix = _as_matrix(operator, space.dim, "operator")
    got = validate_markov(matrix, space)
    if not isinstance(got, MarkovOperator):
        raise ValidationError("operator: " + got.describe())
    projection = _parse_projection(_get(doc, "projection", "$"), space, "projection")
    sub = None
    if "sub_projection" in doc:
        sub = _parse_projection(doc["sub_projection"], space, "sub_projection")
    return ParsedInstance(space, got, projection, sub)


def load_instance(path: str) -> ParsedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path) from exc
    return parse_instance(text)


# ---------------------------------------------------------------------------
# canonical serialization


def _space_doc(space: StateSpace) -> dict:
    if space.kind == "embedded":
        return {"type": "embedded", "inner_dim": space.inner_dim,
                "inner_ball": space.inner_ball}
    return {"type": "simplex", "dim": space.dim}


def _projection_doc(P: MarkovProjection) -> dict:
    if P.variant == "rank_one":
        return {"type": "rank_one", "y": [float(v) for v in P.y]}
    if P.variant == "block":
        return {
            "type": "block",
            "blocks": [list(b) for b in P.blocks],
            "anchors": [[float(v) for v in a] for a in P.anchors],
        }
    return {"type": "matrix",
            "entries": [[float(v) for v in row] for row in np.asarray(P.matrix)]}


def instance_document(inst: ParsedInstance) -> dict:
    doc = {
        "space": _space_doc(inst.space),
        "operator": [[float(v) for v in row] for row in np.asarray(inst.operator.matrix)],
        "projection": _projection_doc(inst.projection),
    }
    if inst.sub is not None:
        doc["sub_projection"] = _projection_doc(inst.sub)
    return doc


def serialize_instance(inst: ParsedInstance) -> str:
    """Canonical text: sorted keys, full float precision, trailing newline.

    json round-trips Python floats through repr, so parse(serialize(x))
    reproduces every matrix bit for bit.
    """
    return json.dumps(instance_document(inst), indent=2, sort_keys=True) + "\n"


def instance_hash(inst: ParsedInstance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# decimal-string helpers for structured reports


def fnum(x) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(x))


def cnum(z) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}j"


def jsonable(obj):
    """Recursively coerce a report fragment to JSON-safe builtins.

    Enforces the decimal-string policy on the way: every float (builtin or
    numpy) becomes its repr string, numpy bools and ints shed their
    wrappers, arrays become nested lists.
    """
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return fnum(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return cnum(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def dumps_structured(doc: dict) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"
