"""Instance document parsing, canonical serialization, structured numbers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit import (
    ParseError,
    UnsupportedSpaceError,
    ValidationError,
    as_markov,
    corpus,
    instance_hash,
    load_instance,
    make_simplex,
    parse_instance,
    rank_one_projection,
    serialize_instance,
)
from ergokit.instances import (
    ParsedInstance,
    _as_matrix,
    _as_vector,
    _canonical,
    _number,
    cnum,
    dumps_structured,
    instance_document,
)

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


def test_structured_floats_round_trip():
    for x in (0.1, 1 / 3, 1e-300, 123456.789, float(np.float64(0.6) ** 40)):
        assert float(json.loads(dumps_structured({"x": x}))["x"]) == x


def test_cnum_formats_signs():
    assert cnum(complex(0.5, -0.25)) == "0.5-0.25j"
    assert cnum(complex(-1.0, 2.0)) == "-1.0+2.0j"


def test_structured_writer_reads_numpy_scalars():
    doc = {
        "a": np.float64(0.5),
        "b": np.bool_(True),
        "c": np.int64(3),
        "d": np.array([[1.5, 2.5]]),
        "e": complex(1, 1),
        "f": {1: "one"},
    }
    out = json.loads(dumps_structured(doc))
    assert out["a"] == "0.5"
    assert out["b"] is True
    assert out["c"] == 3
    assert out["d"] == [["1.5", "2.5"]]
    assert out["e"] == "1.0+1.0j"
    assert out["f"] == {"1": "one"}


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


# ---------------------------------------------------------------------------
# the vectorized parse against the per-entry walk


def _per_entry(rows, location):
    """The parse entry by entry: ``_number`` of each, in row-major order."""
    return np.array([
        [_number(v, f"{location}[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ])


NEAR_LIMITS = [base + d for base in (2**53, 2**63, 2**64) for d in (-3, -1, 0, 1, 3)]


@pytest.mark.parametrize("value", NEAR_LIMITS + [-v for v in NEAR_LIMITS] + [-0.0, 0, 7])
def test_vectorized_parse_reads_each_number_as_the_walk_does(value):
    # mixed int and float rows, the value at three places, -0.0 beside it
    rows = [[value, 0.5, 1], [2**53 + 1, -0.0, value], [3, value, 0.25]]
    want = _per_entry(rows, "operator")
    got = _as_matrix(rows, 3, "operator")
    assert got.dtype == want.dtype == np.float64
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
    got = _as_vector(rows[1], 3, "projection.y")
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want[1].tolist()]


BAD_ENTRIES = [True, False, "0.5", None, [0.5], float("nan"), float("inf"),
               float("-inf"), 1e400, 10**400, -(10**400)]


@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)], ids=str)
@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_vectorized_parse_names_the_first_bad_entry_as_the_walk_does(bad, where):
    rows = [[0.5, 1, 0.25], [0, 2**64, 0.5], [0.125, 3, -0.0]]
    rows[where[0]][where[1]] = bad
    rows[2][2] = 10**400  # a later bad entry is not the one named
    with pytest.raises(ParseError) as want:
        _per_entry(rows, "operator")
    assert want.value.location == "operator[%d][%d]" % where
    with pytest.raises(ParseError) as got:
        _as_matrix(rows, 3, "operator")
    assert (str(got.value), got.value.location) == (str(want.value), want.value.location)
    with pytest.raises(ParseError) as want:
        _per_entry([rows[where[0]]], "y")
    with pytest.raises(ParseError) as got:
        _as_vector(rows[where[0]], 3, "y[0]")
    assert (str(got.value), got.value.location) == (str(want.value), want.value.location)


# ---------------------------------------------------------------------------
# duplicate keys


def test_a_repeated_top_level_key_is_a_parse_error():
    # json.loads keeps the last value: the second operator would be read and hashed
    text = json.dumps(TWO_STATE_DOC)[:-1] + ', "operator": [[0.5, 0.5], [0.5, 0.5]]}'
    assert json.loads(text)["operator"] == [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == "$: duplicate key 'operator'"


def test_a_repeated_nested_key_is_a_parse_error():
    text = json.dumps(TWO_STATE_DOC).replace(
        '"type": "rank_one"', '"type": "block", "type": "rank_one"'
    )
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == "projection: duplicate key 'type'"


def test_the_first_repeat_in_document_order_is_named():
    doc = dict(TWO_STATE_DOC, sub_projection={"type": "rank_one", "y": [0.25, 0.75]})
    text = json.dumps(doc).replace('"dim": 2', '"dim": 2, "dim": 2')
    text = text.replace('"y": [0.25, 0.75]}', '"y": [0.25, 0.75], "y": [0.5, 0.5]}')
    with pytest.raises(ParseError, match=r"^space: duplicate key 'dim'$"):
        parse_instance(text)
    text = text.replace('"dim": 2, "dim": 2', '"dim": 2')
    with pytest.raises(ParseError, match=r"^projection: duplicate key 'y'$"):
        parse_instance(text)


# ---------------------------------------------------------------------------
# the canonical writer and the public identifiers

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       float("nan"), float("inf"), float("-inf"), 1e16, 1e-5])
)
FLAT_LISTS = (
    st.lists(st.text(max_size=6), max_size=6)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
    | st.lists(st.floats(), max_size=6)
)
JSON_DOCS = st.recursive(
    JSON_SCALARS | FLAT_LISTS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_canonical_writer_is_json_dumps_byte_for_byte(doc):
    assert _canonical(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], (), "", {"": []}, [[], {}, ()], {"é": "ü\u2028\x00", "a": {"b": [{}]}},
    [0.1, -0.0, 5e-324, 1e308], [0.1, float("nan")], [1, 1.5], [True, 1], ["a", None],
    {"z": [float("-inf"), 2**64], "a": (1.0, "x")},
], ids=repr)
def test_canonical_writer_edge_cases(doc):
    assert _canonical(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _pinned_instances():
    out = [(f.__name__, f()) for f in (
        corpus.two_state_fixture, corpus.fast_two_state_fixture,
        corpus.block_fixture, corpus.embedded_fixture,
    )]
    insts = [(name, ParsedInstance(i.T.space, i.T, i.P)) for name, i in out]
    # seeded Dirichlet columns: a draw free of BLAS, so equal bits on every host
    space = make_simplex(100)
    T = as_markov(corpus.dirichlet_matrix(100, np.random.default_rng(0)), space)
    insts.append(("dirichlet-100", ParsedInstance(
        space, T, rank_one_projection(space, np.full(100, 0.01)))))
    return insts


PINNED_HASHES = {
    "two_state_fixture": "ab12901062855743",
    "fast_two_state_fixture": "9ce374c5509d5ce6",
    "block_fixture": "01b7e063c622de5c",
    "embedded_fixture": "27aa4a8b429ffafd",
    "dirichlet-100": "6f94849c59aed912",
}


def test_instance_hashes_are_pinned():
    got = {name: instance_hash(inst) for name, inst in _pinned_instances()}
    assert got == PINNED_HASHES


def test_instance_hash_is_recomputed_by_the_standard_library():
    import hashlib

    for _, inst in _pinned_instances():
        text = serialize_instance(inst)
        assert text == json.dumps(instance_document(inst), indent=2, sort_keys=True) + "\n"
        # the canonical file itself, read and written back by json alone
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert instance_hash(inst) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_structured_float_arrays_read_as_repr_strings():
    a = np.array([[0.1, -0.0, 5e-324], [np.nan, np.inf, 1 / 3]])
    want = [[repr(float(v)) for v in row] for row in a]

    def written(x):
        return json.loads(dumps_structured({"x": x}))["x"]

    assert written(a) == want
    assert written(a[0]) == want[0]
    assert written(np.zeros((2, 0))) == [[], []]
    assert written(np.array([1, 2])) == [1, 2]


# ---------------------------------------------------------------------------
# the referee: the two-pass report writer that ``_encode`` replaced.  It
# first converts a whole report to builtins, every float a repr string, and
# then writes the copy with the standard library.


def _referee_jsonable(obj):
    if isinstance(obj, float):
        return float.__repr__(obj)
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.floating):
        return repr(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return cnum(obj)
    if isinstance(obj, np.ndarray):
        return [_referee_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _referee_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_referee_jsonable(v) for v in obj]
    return str(obj)


def referee_structured(doc) -> str:
    """What ``dumps_structured`` wrote before it walked a report once."""
    return json.dumps(_referee_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _arrays(dtype, elements):
    return st.integers(0, 3).flatmap(lambda rows: st.one_of(
        st.lists(elements, min_size=rows, max_size=rows),
        st.integers(0, 3).flatmap(lambda cols: st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)),
    )).map(lambda entries: np.array(entries, dtype=dtype))


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
FLOAT32S = st.floats(width=32, allow_nan=True, allow_infinity=True)
COMPLEXES = st.complex_numbers(allow_nan=True, allow_infinity=True)
NUMPY_LEAVES = st.one_of(
    FLOATS.map(np.float64), FLOAT32S.map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_), COMPLEXES.map(np.complex128),
    COMPLEXES, st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    _arrays(np.float64, FLOATS), _arrays(np.float32, FLOAT32S),
    _arrays(np.int64, st.integers(-(2**63), 2**63 - 1)), _arrays(bool, st.booleans()),
    _arrays(np.complex128, COMPLEXES),
)
REPORT_FRAGMENTS = st.recursive(
    JSON_SCALARS | FLAT_LISTS | NUMPY_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(
        st.text(max_size=4) | st.integers(-3, 3) | st.booleans() | st.none(), inner,
        max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(REPORT_FRAGMENTS)
def test_report_writer_matches_the_two_pass_referee(doc):
    assert dumps_structured(doc) == referee_structured(doc)


@pytest.mark.parametrize("doc", [
    {"empty": [np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)), np.array([], dtype=int)]},
    {"f32": np.float32(0.1), "f32s": np.array([0.1, np.nan], dtype=np.float32),
     "f32-list": [np.float32(0.1), np.float32(-np.inf)]},
    {"ints": [np.int8(-1), np.uint64(2**64 - 1)], "bools": np.array([[True], [False]])},
    {1: "one", "1": "string one", 2.5: None, None: (), True: np.complex64(1 - 2j)},
    (np.float64(np.nan), np.inf, -np.inf, float("nan"), "nan", [np.nan, 0.5]),
    {"mixed": [1.5, np.float64(2.5)], "np": [np.float64(-0.0), np.float64(np.inf)]},
], ids=["empty-arrays", "float32", "ints-and-bools", "non-string-keys", "non-finite",
        "mixed-floats"])
def test_report_writer_edge_cases_match_the_referee(doc):
    assert dumps_structured(doc) == referee_structured(doc)


def test_instance_writer_reads_numpy_values_as_json_numbers():
    doc = {"a": np.float64(0.5), "b": [np.float64(np.nan), np.inf], "c": np.array([[1, 2]]),
           "d": np.float32(0.25), "e": np.bool_(False)}
    plain = {"a": 0.5, "b": [float("nan"), float("inf")], "c": [[1, 2]], "d": 0.25, "e": False}
    assert _canonical(doc) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
