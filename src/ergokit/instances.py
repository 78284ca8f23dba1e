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

Structural problems (syntax, a key repeated in one object, shapes, indices,
numbers that are not finite) raise ParseError; a well-formed file whose
numbers fail mathematical validation raises ValidationError.  The
distinction drives the CLI exit codes.

Canonical form.  Every document this module writes, an instance or a
structured report, is the text ``json.dumps(doc, indent=2,
sort_keys=True) + "\n"``: two-space indents, sorted keys, non-ASCII
characters as ``\\uXXXX`` escapes.  One walk writes both, reading NumPy
scalars and arrays as the builtins they hold; only its float rule
differs.  Report floats are shortest-repr strings (``repr(float(x))``);
instance floats are JSON numbers in the same shortest repr.  The instance
hash is the first 16 hex digits of the sha256 of ``serialize_instance``'s
UTF-8 bytes; ``json.loads`` and ``json.dumps`` give that text back
unchanged, so the standard library alone recomputes the hash from a
canonical file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain

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
        x = float(v)
    except OverflowError:  # an integer past the float range
        raise ParseError("number out of float range", location) from None
    # json reads NaN, Infinity and a literal past the float range such as 1e400
    _require(math.isfinite(x), "expected a finite number", location)
    return x


def _require_rows(entries, dim: int, location: str):
    _require(isinstance(entries, list) and len(entries) == dim,
             f"expected {dim} rows", location)


_NUMBER_TYPES = {int, float}  # bool is a subclass of int, not int itself


def _floats(entries, flat, name) -> np.ndarray:
    """``entries`` as a float array, when every entry is a finite number.

    One type test over ``flat`` (the entries in order), one conversion and
    one finiteness test.  Otherwise ``_number`` walks the entries in
    order and names the first bad one (``name(k)`` is the location of the
    k-th); the walk serves only to raise.
    """
    if set(map(type, flat)) <= _NUMBER_TYPES:
        try:
            a = np.array(entries, dtype=float)
        except OverflowError:  # an integer past the float range
            pass
        else:
            if np.isfinite(a).all():
                return a
    for k, v in enumerate(flat):
        _number(v, name(k))
    raise AssertionError("every entry is a finite number, yet the array is not")


def _as_matrix(entries, dim: int, location: str) -> np.ndarray:
    _require_rows(entries, dim, location)
    for i, row in enumerate(entries):
        if not (isinstance(row, list) and len(row) == dim):
            raise ParseError(f"expected {dim} entries", f"{location}[{i}]")
    return _floats(entries, list(chain.from_iterable(entries)),
                   lambda k: f"{location}[{k // dim}][{k % dim}]")


def _as_vector(entries, dim: int, location: str) -> np.ndarray:
    _require(isinstance(entries, list) and len(entries) == dim,
             f"expected {dim} entries", location)
    return _floats(entries, entries, lambda k: f"{location}[{k}]")


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


class _Repeated(dict):
    """A JSON object in which ``key`` appeared more than once."""

    def __init__(self, pairs, key):
        super().__init__(pairs)
        self.key = key


def _first_repeat(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return key
        seen.add(key)


def _refuse_repeats(node, location: str) -> None:
    """Raise for the first object, in document order, that repeats a key."""
    if isinstance(node, _Repeated):
        raise ParseError(f"duplicate key {node.key!r}", location)
    if isinstance(node, dict):
        for key, value in node.items():
            _refuse_repeats(value, key if location == "$" else f"{location}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _refuse_repeats(value, f"{location}[{i}]")


def parse_instance(text: str) -> ParsedInstance:
    """Parse and validate one instance document from its JSON text."""
    repeats = []

    def to_object(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            doc = _Repeated(doc, _first_repeat(pairs))
            repeats.append(doc)
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=to_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}", "$") from exc
    if repeats:
        _refuse_repeats(doc, "$")
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

_string = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dumps


def _encode(obj, indent: str, quote: str) -> str:
    """``obj`` in canonical form, its nested lines indented past ``indent``.

    ``quote`` is the float rule: ``'"'`` writes each float as its quoted
    shortest repr (reports), ``""`` as a JSON number (instances).  NumPy
    scalars and arrays are read as the builtins they hold, complex numbers
    as ``cnum`` strings, object keys as ``str(key)``, and any other object
    as ``str(obj)``.  Each flat list of strings or floats is one
    ``str.join`` in C.
    """
    if isinstance(obj, str):  # most report values
        return _string(obj)
    if isinstance(obj, float):  # np.float64 too
        r = float.__repr__(obj)
        return quote + r + quote if quote else _NON_FINITE.get(r, r)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            obj = {str(k): v for k, v in obj.items()}
        inner = indent + "  "
        body = (",\n" + inner).join(
            [_string(k) + ": " + _encode(obj[k], inner, quote) for k in sorted(obj)]
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), indent, quote)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        kinds = set(map(type, obj))
        if kinds == {str}:
            body = sep.join(map(_string, obj))
        elif kinds == {float} and (quote or all(map(math.isfinite, obj))):
            body = quote + (quote + sep + quote).join(map(float.__repr__, obj)) + quote
        else:
            body = sep.join([_encode(v, inner, quote) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, np.floating):
        return _encode(float(obj), indent, quote)
    if isinstance(obj, (complex, np.complexfloating)):
        return _string(cnum(obj))
    return _string(str(obj))


def _canonical(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    when every object key is a string.

    ``json.dumps`` falls back to its pure-Python encoder whenever ``indent``
    is set; ``_encode`` writes the same text with its flat lists joined in C.
    """
    return _encode(doc, "", "") + "\n"


def dumps_structured(doc: dict) -> str:
    """A structured report in canonical form, every float a repr string."""
    return _encode(doc, "", '"') + "\n"


def cnum(z) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}j"


def _floats_doc(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _space_doc(space: StateSpace) -> dict:
    if space.kind == "embedded":
        return {"type": "embedded", "inner_dim": space.inner_dim,
                "inner_ball": space.inner_ball}
    return {"type": "simplex", "dim": space.dim}


def _projection_doc(P: MarkovProjection) -> dict:
    if P.variant == "rank_one":
        return {"type": "rank_one", "y": _floats_doc(P.y)}
    if P.variant == "block":
        return {
            "type": "block",
            "blocks": [list(b) for b in P.blocks],
            "anchors": [_floats_doc(a) for a in P.anchors],
        }
    return {"type": "matrix", "entries": _floats_doc(P.matrix)}


def instance_document(inst: ParsedInstance) -> dict:
    doc = {
        "space": _space_doc(inst.space),
        "operator": _floats_doc(inst.operator.matrix),
        "projection": _projection_doc(inst.projection),
    }
    if inst.sub is not None:
        doc["sub_projection"] = _projection_doc(inst.sub)
    return doc


def serialize_instance(inst: ParsedInstance) -> str:
    """Canonical text: sorted keys, full float precision, trailing newline.

    Floats are written in repr, so parse(serialize(x)) reproduces every
    matrix bit for bit.
    """
    return _canonical(instance_document(inst))


def instance_hash(inst: ParsedInstance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:16]
