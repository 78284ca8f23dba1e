"""Instance document parsing, canonical serialization, structured numbers."""

import json

import numpy as np
import pytest

from ergokit import (
    ParseError,
    UnsupportedSpaceError,
    ValidationError,
    instance_hash,
    load_instance,
    parse_instance,
    serialize_instance,
)
from ergokit.instances import cnum, dumps_structured, fnum, instance_document, jsonable

TWO_STATE_DOC = {
    "space": {"type": "simplex", "dim": 2},
    "operator": [[0.7, 0.1], [0.3, 0.9]],
    "projection": {"type": "rank_one", "y": [0.25, 0.75]},
}


def test_parse_minimal_instance():
    inst = parse_instance(json.dumps(TWO_STATE_DOC))
    assert inst.space.kind == "simplex"
    assert inst.space.dim == 2
    np.testing.assert_allclose(inst.operator.matrix, [[0.7, 0.1], [0.3, 0.9]])
    assert inst.projection.variant == "rank_one"
    assert inst.sub is None


def test_parse_block_projection():
    doc = {
        "space": {"type": "simplex", "dim": 4},
        "operator": np.eye(4).tolist(),
        "projection": {"type": "block", "blocks": [[0, 1], [2, 3]]},
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.projection.variant == "block"
    assert inst.projection.blocks == ((0, 1), (2, 3))


def test_parse_embedded_space():
    doc = {
        "space": {"type": "embedded", "inner_dim": 1},
        "operator": [[1.0, 0.0], [0.0, 0.5]],
        "projection": {"type": "rank_one", "y": [1.0, 0.0]},
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.space.kind == "embedded"
    assert inst.space.inner_ball == "l1"


def test_parse_sub_projection():
    doc = dict(TWO_STATE_DOC)
    doc["sub_projection"] = {"type": "rank_one", "y": [0.25, 0.75]}
    inst = parse_instance(json.dumps(doc))
    assert inst.sub is not None


def test_bad_json_is_parse_error_with_location():
    with pytest.raises(ParseError, match="line"):
        parse_instance("{not json")


def test_wrong_row_length_location():
    doc = dict(TWO_STATE_DOC, operator=[[0.7], [0.3, 0.9]])
    with pytest.raises(ParseError, match=r"operator\[0\]: expected 2 entries"):
        parse_instance(json.dumps(doc))


def test_non_number_entry_location():
    doc = dict(TWO_STATE_DOC, operator=[[0.7, "x"], [0.3, 0.9]])
    with pytest.raises(ParseError, match=r"operator\[0\]\[1\]: expected a number"):
        parse_instance(json.dumps(doc))


def test_boolean_entry_rejected():
    # json booleans are ints in Python; they must not sneak in as 0/1
    doc = dict(TWO_STATE_DOC, operator=[[0.7, True], [0.3, 0.9]])
    with pytest.raises(ParseError, match="expected a number"):
        parse_instance(json.dumps(doc))


def test_unknown_space_type():
    doc = dict(TWO_STATE_DOC, space={"type": "hilbert", "dim": 2})
    with pytest.raises(ParseError, match="unknown space type"):
        parse_instance(json.dumps(doc))


def test_blocks_must_partition():
    doc = {
        "space": {"type": "simplex", "dim": 4},
        "operator": np.eye(4).tolist(),
        "projection": {"type": "block", "blocks": [[0, 1], [1, 2, 3]]},
    }
    with pytest.raises(ParseError, match="index repeated"):
        parse_instance(json.dumps(doc))
    doc["projection"]["blocks"] = [[0, 1], [2]]
    with pytest.raises(ParseError, match="cover every coordinate"):
        parse_instance(json.dumps(doc))


def test_invalid_operator_is_validation_error():
    doc = dict(TWO_STATE_DOC, operator=[[0.5, 0.0], [0.3, 1.0]])
    with pytest.raises(ValidationError, match="base escapes K"):
        parse_instance(json.dumps(doc))


def test_bad_projection_vector_is_validation_error():
    doc = dict(TWO_STATE_DOC, projection={"type": "rank_one", "y": [0.5, 0.2]})
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_matrix_projection_parses_as_explicit():
    # state 2 is absorbed half into state 0 and half into state 1: neither
    # rank-one nor a partition
    doc = {
        "space": {"type": "simplex", "dim": 3},
        "operator": [[1.0, 0.0, 0.3], [0.0, 1.0, 0.3], [0.0, 0.0, 0.4]],
        "projection": {"type": "matrix",
                       "entries": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]]},
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.projection.variant == "explicit"
    assert json.loads(serialize_instance(inst))["projection"]["type"] == "matrix"


def test_rank_one_matrix_projection_parses_as_rank_one():
    # P = y f^T with y = (1, 0.5) on the embedded cone, where f reads coordinate 0
    doc = {
        "space": {"type": "embedded", "inner_dim": 1},
        "operator": [[1.0, 0.0], [0.0, 0.5]],
        "projection": {"type": "matrix", "entries": [[1.0, 0.0], [0.5, 0.0]]},
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.projection.variant == "rank_one"
    assert inst.projection.y.tolist() == [1.0, 0.5]


def test_block_projection_on_embedded_unsupported():
    # blocks index coordinates of a simplex; the embedded cone has none
    doc = {
        "space": {"type": "embedded", "inner_dim": 1},
        "operator": [[1.0, 0.0], [0.0, 0.5]],
        "projection": {"type": "block", "blocks": [[0], [1]]},
    }
    with pytest.raises(UnsupportedSpaceError):
        parse_instance(json.dumps(doc))


def test_serialize_round_trip_is_bitwise():
    inst = parse_instance(json.dumps(TWO_STATE_DOC))
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert np.asarray(again.operator.matrix).tobytes() == np.asarray(
        inst.operator.matrix
    ).tobytes()
    assert serialize_instance(again) == text
    assert instance_hash(again) == instance_hash(inst)


def test_matrix_written_block_projection_serializes_as_its_block_twin():
    blocks, anchors = [[0, 1, 2], [3, 4]], [[0.2, 0.3, 0.5], [0.6, 0.4]]
    P = np.zeros((5, 5))
    for b, a in zip(blocks, anchors):
        P[np.ix_(b, b)] = np.array(a)[:, None]
    T = np.eye(5)
    twin = parse_instance(json.dumps({
        "space": {"type": "simplex", "dim": 5}, "operator": T.tolist(),
        "projection": {"type": "block", "blocks": blocks, "anchors": anchors},
    }))
    inst = parse_instance(json.dumps({
        "space": {"type": "simplex", "dim": 5}, "operator": T.tolist(),
        "projection": {"type": "matrix", "entries": P.tolist()},
    }))
    assert np.asarray(inst.projection.matrix).tobytes() == P.tobytes()
    text = serialize_instance(inst)
    assert text == serialize_instance(twin)
    assert instance_hash(inst) == instance_hash(twin)
    again = parse_instance(text)
    assert np.asarray(again.projection.matrix).tobytes() == P.tobytes()
    assert serialize_instance(again) == text


def test_serialize_preserves_awkward_floats():
    third = 1.0 / 3.0
    doc = {
        "space": {"type": "simplex", "dim": 2},
        "operator": [[third, 1 - third], [1 - third, third]],
        "projection": {"type": "rank_one", "y": [0.5, 0.5]},
    }
    inst = parse_instance(json.dumps(doc))
    again = parse_instance(serialize_instance(inst))
    assert float(np.asarray(again.operator.matrix)[0, 0]) == third


def test_load_instance(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(TWO_STATE_DOC))
    inst = load_instance(str(p))
    assert inst.space.dim == 2


def test_instance_hash_is_stable_and_sensitive():
    a = parse_instance(json.dumps(TWO_STATE_DOC))
    doc = dict(TWO_STATE_DOC, operator=[[0.7, 0.2], [0.3, 0.8]])
    b = parse_instance(json.dumps(doc))
    assert instance_hash(a) != instance_hash(b)
    assert len(instance_hash(a)) == 16


def test_instance_document_includes_sub():
    doc = dict(TWO_STATE_DOC)
    doc["sub_projection"] = {"type": "rank_one", "y": [0.25, 0.75]}
    inst = parse_instance(json.dumps(doc))
    out = instance_document(inst)
    assert "sub_projection" in out


def test_fnum_round_trips():
    for x in (0.1, 1 / 3, 1e-300, 123456.789, float(np.float64(0.6) ** 40)):
        assert float(fnum(x)) == x


def test_cnum_formats_signs():
    assert cnum(complex(0.5, -0.25)) == "0.5-0.25j"
    assert cnum(complex(-1.0, 2.0)) == "-1.0+2.0j"


def test_jsonable_sanitizes_numpy_scalars():
    doc = {
        "a": np.float64(0.5),
        "b": np.bool_(True),
        "c": np.int64(3),
        "d": np.array([[1.5, 2.5]]),
        "e": complex(1, 1),
        "f": {1: "one"},
    }
    out = jsonable(doc)
    assert out["a"] == "0.5"
    assert out["b"] is True
    assert out["c"] == 3
    assert out["d"] == [["1.5", "2.5"]]
    assert out["e"] == "1.0+1.0j"
    assert out["f"] == {"1": "one"}
    json.dumps(out)  # must be plain-json clean


def test_dumps_structured_deterministic():
    doc = {"z": np.float64(1.0), "a": [np.bool_(False), np.int32(2)]}
    s1 = dumps_structured(doc)
    s2 = dumps_structured({"a": [False, 2], "z": 1.0})
    assert s1 == s2
    assert s1.endswith("\n")



ROW_MISMATCHES = [
    ({"type": "simplex", "dim": 5}, "make_simplex", 5),
    ({"type": "embedded", "inner_dim": 4}, "make_embedded", 5),
    ({"type": "simplex", "dim": 10**9}, "make_simplex", 10**9),
    ({"type": "embedded", "inner_dim": 10**9}, "make_embedded", 10**9 + 1),
]


@pytest.mark.parametrize(
    "space,builder,rows", ROW_MISMATCHES, ids=[f"{b}-{r}" for _, b, r in ROW_MISMATCHES]
)
def test_operator_rows_are_checked_before_the_space_is_built(space, builder, rows, count_calls):
    # a space holds dim x dim arrays: a huge dim must be refused before any exists
    calls = count_calls(builder)
    doc = dict(TWO_STATE_DOC, space=space)
    with pytest.raises(ParseError, match=rf"^operator: expected {rows} rows$"):
        parse_instance(json.dumps(doc))
    assert calls[builder] == []


HUGE_INTEGERS = [
    ("operator", 400, "operator[0][0]", "number out of float range"),
    ("projection.y", 400, "projection.y[0]", "number out of float range"),
    ("operator", 5001, "$", "invalid JSON: Exceeds the limit"),
    ("projection.y", 5001, "$", "invalid JSON: Exceeds the limit"),
]


@pytest.mark.parametrize(
    "key,digits,location,message", HUGE_INTEGERS,
    ids=[f"{k}-{d}" for k, d, _, _ in HUGE_INTEGERS],
)
def test_an_integer_no_float_holds_is_a_parse_error(key, digits, location, message):
    # past the float range, or past the integer digit limit of json.loads
    old, new = {"operator": ("[[0.7,", "[["), "projection.y": ("[0.25,", "[")}[key]
    literal = "1" + "0" * (digits - 1)
    text = json.dumps(TWO_STATE_DOC).replace(old, f"{new}{literal},", 1)
    with pytest.raises(ParseError, match=message) as info:
        parse_instance(text)
    assert info.value.location == location
