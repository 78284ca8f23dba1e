"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergokit import __version__, block_projection, cli, corpus, make_simplex, parse_instance
from ergokit.instances import ParsedInstance, instance_document

TWO_STATE = {
    "space": {"type": "simplex", "dim": 2},
    "operator": [[0.7, 0.1], [0.3, 0.9]],
    "projection": {"type": "rank_one", "y": [0.25, 0.75]},
}
SLOW = {
    "space": {"type": "simplex", "dim": 2},
    "operator": [[0.9, 0.4], [0.1, 0.6]],
    "projection": {"type": "rank_one", "y": [0.8, 0.2]},
}
EMBEDDED = {
    "space": {"type": "embedded", "inner_dim": 1},
    "operator": [[1.0, 0.0], [0.0, 0.5]],
    "projection": {"type": "rank_one", "y": [1.0, 0.0]},
}
CYCLE = {
    "space": {"type": "simplex", "dim": 3},
    "operator": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    "projection": {"type": "rank_one", "y": [1 / 3, 1 / 3, 1 / 3]},
}

ONE_STATE = {
    "space": {"type": "simplex", "dim": 1},
    "operator": [[1.0]],
    "projection": {"type": "rank_one", "y": [1.0]},
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_analyze_text(tmp_path, capsys):
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, err = run(capsys, ["analyze", p])
    assert code == 0
    assert "delta_P    = 0.6" in out
    assert "uniform=True" in out
    assert err == ""


def test_analyze_one_state_reads_both_empty_kernels_as_zero(tmp_path, capsys):
    # ker f = ker P = {0}: delta and delta_P are both the sup over no x, 0
    p = write(tmp_path, "one.json", ONE_STATE)
    code, out, _ = run(capsys, ["analyze", p])
    assert code == 0
    assert "delta      = 0  [pair-formula; exact]" in out
    assert "delta_P    = 0  [pair-formula; exact]" in out
    assert "[FAIL]" not in out
    assert "audit ok" in out
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    coefficients = json.loads(out)["coefficients"]
    for name in ("classical", "kernel"):
        assert coefficients[name]["method"] == "pair-formula", name
        assert coefficients[name]["certified_exact"] is True, name
        assert float(coefficients[name]["value"]) == 0.0, name


def test_analyze_identity_on_two_states_fails_no_check(tmp_path, capsys):
    # T = I = P: ker P = {0}, so delta_P = 0, and T is uniformly P-ergodic
    doc = {
        "space": {"type": "simplex", "dim": 2},
        "operator": np.eye(2).tolist(),
        "projection": {"type": "matrix", "entries": np.eye(2).tolist()},
    }
    code, out, _ = run(capsys, ["analyze", write(tmp_path, "identity.json", doc)])
    assert code == 0
    assert "delta_P    = 0  [pair-formula; exact]" in out
    assert "[FAIL]" not in out
    assert "audit ok" in out
    assert "theorems: 12/12 ok" in out


def test_analyze_structured_is_json_and_deterministic(tmp_path, capsys):
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out1, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    doc = json.loads(out1)
    kern = doc["coefficients"]["kernel"]
    assert float(kern["value"]) == pytest.approx(0.6)
    assert kern["certified_exact"] is True
    # second invocation must produce the same bytes (no timestamps, no
    # locale-dependent float text)
    code, out2, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    assert out1 == out2


def test_doeblin_two_state(tmp_path, capsys):
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["doeblin", p])
    assert code == 0
    assert "tau = 1 at n0 = 3" in out
    assert "audit ok" in out


def test_doeblin_which_flag(tmp_path, capsys):
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["doeblin", "--which", "DP", p])
    assert code == 0
    assert "minorization" in out
    assert "overlap" not in out


def test_doeblin_embedded_space_unsupported(tmp_path, capsys):
    p = write(tmp_path, "emb.json", EMBEDDED)
    code, out, err = run(capsys, ["doeblin", p])
    assert code == 4
    assert "unsupported space" in err


def test_doeblin_reports_exhaustion_for_cycle(tmp_path, capsys):
    p = write(tmp_path, "cycle.json", CYCLE)
    code, out, _ = run(capsys, ["doeblin", "--n0-cap", "30", p])
    assert code == 0
    assert "exhausted up to n0 = 30" in out
    assert "diagnostic" in out


def test_tensor_bound(tmp_path, capsys):
    a = write(tmp_path, "two.json", TWO_STATE)
    b = write(tmp_path, "slow.json", SLOW)
    code, out, _ = run(capsys, ["tensor", a, b])
    assert code == 0
    assert "product rate = 0.6" in out
    assert "tight: True" in out


def test_tensor_reads_a_matrix_written_partition_as_its_block_twin(tmp_path, capsys):
    # a [2, 3] partition with uniform anchors; T is doubly stochastic per block
    T = np.zeros((5, 5))
    T[:2, :2] = [[0.7, 0.3], [0.3, 0.7]]
    T[2:, 2:] = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
    blocks = [[0, 1], [2, 3, 4]]
    P = block_projection(make_simplex(5), blocks)
    space = {"type": "simplex", "dim": 5}
    block_doc = {"space": space, "operator": T.tolist(), "projection": {
        "type": "block", "blocks": blocks, "anchors": [a.tolist() for a in P.anchors]}}
    matrix_doc = {"space": space, "operator": T.tolist(),
                  "projection": {"type": "matrix", "entries": np.asarray(P.matrix).tolist()}}
    two = write(tmp_path, "two.json", TWO_STATE)
    outs = []
    for name, doc in (("block.json", block_doc), ("matrix.json", matrix_doc)):
        p = write(tmp_path, name, doc)
        code, out, err = run(capsys, ["tensor", "--format", "structured", p, two])
        assert code == 0, err
        outs.append(out.replace(name, "factor.json"))
    assert outs[0] == outs[1]


def test_tensor_rejects_embedded_factor(tmp_path, capsys):
    a = write(tmp_path, "two.json", TWO_STATE)
    b = write(tmp_path, "emb.json", EMBEDDED)
    code, _, err = run(capsys, ["tensor", a, b])
    assert code == 4
    assert "right factor" in err


def test_verify_empty(capsys):
    code, out, _ = run(capsys, ["verify", "--count", "0"])
    assert code == 0
    assert "nothing to check" in out


def test_verify_small_corpus(capsys):
    code, out, _ = run(
        capsys, ["verify", "--count", "1", "--dims", "2,3", "--samples", "2000"]
    )
    assert code == 0
    assert "14/14 checks passed" in out


def test_verify_corrupt_hook_fails_named_check(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--count",
            "1",
            "--dims",
            "2,3",
            "--samples",
            "2000",
            "--corrupt",
            "pair-formula",
        ],
    )
    assert code == 1
    assert "FAIL pair-formula" in out
    assert "13/14 checks passed" in out


def test_verify_check_without_cases_is_vacuous_not_failed(capsys):
    # no instance has dim <= 6, so tensor-bound has no pair to test
    argv = ["verify", "--count", "1", "--dims", "7", "--samples", "2000"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "VACUOUS tensor-bound (no applicable cases)" in out
    assert "14/14 checks passed (1 vacuous)" in out
    code, out, _ = run(capsys, argv + ["--format", "structured"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["tensor-bound"]["vacuous"] is True
    assert checks["tensor-bound"]["ok"] is True
    assert [name for name, c in checks.items() if "vacuous" in c] == ["tensor-bound"]


def test_verify_default_dims_run_tensor_pairs(capsys):
    code, out, _ = run(capsys, ["verify", "--count", "1", "--samples", "2000",
                                "--format", "structured"])
    assert code == 0
    tensor = next(c for c in json.loads(out)["checks"] if c["name"] == "tensor-bound")
    assert tensor["passed"] > 0
    assert "vacuous" not in tensor


@pytest.mark.parametrize("dims", ["2,3,4,5,6", "7"])
def test_verify_corrupt_tensor_bound_still_fails(dims, capsys):
    code, out, _ = run(capsys, ["verify", "--count", "1", "--dims", dims,
                                "--samples", "2000", "--corrupt", "tensor-bound"])
    assert code == 1
    assert "FAIL tensor-bound" in out
    assert "VACUOUS" not in out


def test_missing_file_is_parse_error(tmp_path, capsys):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert code == 2
    assert "parse error" in err


def test_malformed_json_is_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{]")
    code, _, err = run(capsys, ["analyze", str(p)])
    assert code == 2
    assert "parse error" in err


def test_invalid_operator_is_validation_error(tmp_path, capsys):
    doc = dict(TWO_STATE, operator=[[0.5, 0.0], [0.3, 1.0]])
    p = write(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, ["analyze", str(p)])
    assert code == 3
    assert "validation error" in err


BOOL_SPACES = [
    ({"type": "simplex", "dim": True}, "space.dim"),
    ({"type": "embedded", "inner_dim": True}, "space.inner_dim"),
]


@pytest.mark.parametrize("space,key", BOOL_SPACES, ids=[k for _, k in BOOL_SPACES])
def test_boolean_space_size_is_parse_error(space, key, tmp_path, capsys):
    # json true is an int in Python; it must not reach the space builders
    p = write(tmp_path, "bool.json", dict(TWO_STATE, space=space))
    code, out, err = run(capsys, ["analyze", p])
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {key}: ")


def _linf_doc(m):
    n = m + 1
    return {
        "space": {"type": "embedded", "inner_dim": m, "inner_ball": "linf"},
        "operator": np.eye(n).tolist(),
        "projection": {"type": "rank_one", "y": [1.0] + [0.0] * m},
    }


def test_linf_inner_dim_cap_is_a_parse_error(tmp_path, capsys):
    # m = 16 is the largest l-infinity inner ball spaces.py builds
    assert parse_instance(json.dumps(_linf_doc(16))).space.inner_dim == 16
    code, out, err = run(capsys, ["analyze", write(tmp_path, "big.json", _linf_doc(17))])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: space.inner_dim: linf inner ball has 2^17 vertices")


HUGE_INTEGERS = [("operator", "[[0.7,", "[["), ("projection.y", "[0.25,", "[")]


@pytest.mark.parametrize("digits", [400, 5001])
@pytest.mark.parametrize("key,old,new", HUGE_INTEGERS, ids=[k for k, _, _ in HUGE_INTEGERS])
def test_an_integer_no_float_holds_is_a_parse_error(key, old, new, digits, tmp_path, capsys):
    # past the float range, or past the integer digit limit of json.loads
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(TWO_STATE).replace(old, f"{new}1{'0' * (digits - 1)},", 1))
    code, out, err = run(capsys, ["analyze", str(p)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


NON_FINITE = [
    ("operator[0][0]", "[[0.7,", "[[{},", v) for v in ("1e400", "-1e400", "NaN", "Infinity")
] + [
    ("projection.y[0]", "[0.25,", "[{},", "NaN"),
    ("projection.entries[0][0]", '{"type": "rank_one", "y": [0.25, 0.75]}',
     '{{"type": "matrix", "entries": [[{}, 0.5], [0.5, 0.5]]}}', "NaN"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "location,old,new,value", NON_FINITE, ids=[f"{k.split('[')[0]}-{v}" for k, _, _, v in NON_FINITE]
)
def test_a_number_that_is_not_finite_is_a_parse_error(location, old, new, value, tmp_path, capsys):
    # json reads NaN and Infinity, and 1e400 as inf; none reaches validation
    p = tmp_path / "nonfinite.json"
    text = json.dumps(TWO_STATE)
    assert old in text
    p.write_text(text.replace(old, new.format(value), 1))
    code, out, err = run(capsys, ["analyze", str(p)])
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {location}: expected a finite number")


@pytest.mark.parametrize("dims", ["x", "2..y", "1e2", "5..3"])
def test_malformed_dims_is_parse_error(dims, capsys):
    code, out, err = run(capsys, ["verify", "--count", "1", "--dims", dims])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: --dims: ")
    assert repr(dims) in err


# (flag, lowest legal value, leading argv without the value)
FLAG_FLOORS = [
    ("--max-power", 1, ["analyze"]),
    ("--n0-cap", 1, ["doeblin"]),
    ("--samples", 1, ["verify", "--count", "1", "--dims", "2"]),
    ("--count", 0, ["verify"]),
    ("--seed", 0, ["analyze"]),
    ("--seed", 0, ["doeblin"]),
    ("--seed", 0, ["tensor"]),
    ("--seed", 0, ["verify", "--count", "1", "--dims", "2"]),
]


@pytest.mark.parametrize("flag,low,argv", FLAG_FLOORS)
def test_integer_flag_floor(flag, low, argv, tmp_path, capsys):
    if argv[0] != "verify":
        argv = argv + [write(tmp_path, "two.json", TWO_STATE)] * (2 if argv[0] == "tensor" else 1)
    code, out, err = run(capsys, argv + [flag, str(low)])
    assert (code, err) == (0, "")
    assert out
    code, out, err = run(capsys, argv + [flag, str(low - 1)])
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {flag}: must be an integer >= {low}")


@pytest.mark.parametrize("command,paths", [("analyze", 1), ("tensor", 2)])
def test_tolerance_must_be_finite_and_nonnegative(command, paths, tmp_path, capsys):
    # a negative or NaN slack fails true theorems, and an infinite one passes
    # every theorem vacuously, so none of them is a tolerance
    argv = [command] + [write(tmp_path, "two.json", TWO_STATE)] * paths
    for good in ("0", "1e-9"):
        code, out, err = run(capsys, argv + ["--tolerance", good])
        assert (code, err) == (0, "")
        assert out
    for bad in ("-1", "nan", "inf"):
        code, out, err = run(capsys, argv + ["--tolerance", bad])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: --tolerance: must be a finite number >= 0")


def test_analyze_at_tolerance_zero_extends_the_trail_of_a_periodic_chain(tmp_path, capsys):
    # the 3-cycle never converges, so classify extends its trail by squaring;
    # a zero slack there compares with no log(0) and reports in full
    p = write(tmp_path, "cycle.json", CYCLE)
    code, out, err = run(capsys, ["analyze", "--tolerance", "0", "--format", "structured", p])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["flags"]["tolerance"] == "0.0"
    assert doc["verdict"]["uniform"] is False
    power = doc["verdict"]["clauses"][0]
    assert power["name"] == "power-norms" and power["holds"] is False
    assert power["detail"]["converged_at"] is None
    assert float(power["detail"]["extension_radius_floor"]) == pytest.approx(1.0)
    assert len(doc["theorems"]) == 10


# (subcommand argv, one flag the subcommand does not read)
IGNORED_FLAGS = [
    (["tensor", "a.json", "b.json"], ["--max-power", "3"]),
    (["doeblin", "a.json"], ["--tolerance", "0.5"]),
    (["verify", "--count", "0"], ["--n0-cap", "5"]),
]


@pytest.mark.parametrize("argv,flag", IGNORED_FLAGS, ids=lambda v: v[0])
def test_subcommand_rejects_flags_it_does_not_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flag)
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in cap.err


def test_analyze_exits_3_when_the_certificate_misses_n0_cap(tmp_path, capsys):
    # the two-state chain's honest certificate needs n0 = 4: one power less
    # is a precondition failure, not a report
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, err = run(capsys, ["analyze", "--n0-cap", "3", p])
    assert (code, out) == (3, "")
    assert err.startswith(
        "precondition failed: power norms did not reach 1/4 within n0_cap=3: "
    )
    code, out, err = run(capsys, ["analyze", "--format", "structured", "--n0-cap", "4", p])
    assert (code, err) == (0, "")
    cert = json.loads(out)["certificate"]
    assert (cert["n0"], cert["audit_ok"]) == (4, True)


def test_analyze_classifies_once(tmp_path, capsys, count_calls):
    calls = count_calls("classify")
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    assert json.loads(out)["certificate"]["audit_ok"] is True
    assert len(calls["classify"]) == 1


def test_analyze_builds_one_trail(tmp_path, capsys, count_calls):
    # the trail is built once, from analyze's classification
    calls = count_calls("gelfand_trail", "multiplicativity_test")
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    names = [t["name"] for t in json.loads(out)["theorems"]]
    assert "multiplicativity" in names and "gelfand-trail" in names
    assert {k: len(v) for k, v in calls.items()} == {
        "gelfand_trail": 1, "multiplicativity_test": 0,
    }


def test_analyze_reads_spectra_and_defects_off_its_classification(
    tmp_path, capsys, count_calls
):
    # classify's report holds the spectra of T and T - P, its verdict both
    # membership defects; only the certificate's precondition tests membership
    calls = count_calls("eigenvalues", "membership")
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    assert json.loads(out)["certificate"]["audit_ok"] is True
    assert [caller for caller, _, _ in calls["eigenvalues"]] == ["spectral_report"] * 2
    assert [caller for caller, _, _ in calls["membership"]] == ["_require_membership"]


def test_analyze_computes_the_kernel_coefficient_once(tmp_path, capsys, count_calls):
    # classify and the theorems read the delta_P(T) that analyze prints,
    # T - T = 0 has no coefficient to compute, and the inequality suite asks
    # only for those of T(I - P) and T^2
    calls = count_calls("ergodicity_coefficient")
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    assert any(t["name"] == "pair-formula" for t in json.loads(out)["theorems"])
    T = np.array(TWO_STATE["operator"])
    Pm = np.outer(TWO_STATE["projection"]["y"], np.ones(2))
    own_delta, inequality_args = [], []
    for caller, args, kwargs in calls["ergodicity_coefficient"]:
        A = np.asarray(getattr(args[0], "matrix", args[0]))
        assert A.any(), f"{caller} asked for the coefficient of the zero matrix"
        assert caller != "eigenvalue_bound_check"
        if caller == "coefficient_inequalities":
            inequality_args.append(A)
        if caller == "instance_theorems":
            assert kwargs.get("method") == "vertices"
        P = args[1] if len(args) > 1 else kwargs.get("P")
        if P is not None and np.array_equal(A, T) and kwargs.get("method") != "vertices":
            own_delta.append(caller)
    assert own_delta == ["cmd_analyze"]
    assert len(inequality_args) == 2
    assert np.allclose(inequality_args[0], T @ (np.eye(2) - Pm), atol=1e-15)
    assert np.allclose(inequality_args[1], T @ T, atol=1e-15)


def test_analyze_identity_projection_scores_every_theorem_ok(tmp_path, capsys):
    # ker P = {0} and H = I - P = 0: each coefficient inequality holds as 0 <= 0
    doc = {
        "space": {"type": "simplex", "dim": 3},
        "operator": [[0.5, 0.2, 0.1], [0.3, 0.6, 0.2], [0.2, 0.2, 0.7]],
        "projection": {"type": "matrix", "entries": np.eye(3).tolist()},
    }
    p = write(tmp_path, "identity.json", doc)
    code, out, _ = run(capsys, ["analyze", p])
    assert code == 0
    assert "[FAIL]" not in out
    assert "delta_P    = 0  [pair-formula; exact]" in out
    assert out.count("[ok] coefficient-") == 5
    assert "theorems: 8/8 ok" in out


def _past_cap_doc():
    # 13 states: two 6-state blocks and a transient state absorbed half and
    # half, with P written as a matrix, so P stays explicit
    from ergokit import corpus

    rng = np.random.default_rng(5)
    T, P = np.zeros((13, 13)), np.zeros((13, 13))
    for idx in (np.arange(6), np.arange(6, 12)):
        pi = corpus.smoothed_target(6, rng)
        T[np.ix_(idx, idx)] = corpus.metropolis_matrix(pi, rng)
        P[np.ix_(idx, idx)] = pi[:, None]
        P[idx, 12] = 0.5 * pi
    T[12, 12] = 0.3
    T[:6, 12] = 0.35 * rng.dirichlet(np.ones(6))
    T[6:12, 12] = 0.35 * rng.dirichlet(np.ones(6))
    return {
        "space": {"type": "simplex", "dim": 13},
        "operator": T.tolist(),
        "projection": {"type": "matrix", "entries": P.tolist()},
    }


def test_past_cap_instance_is_exact_and_decides_the_dip_clause(tmp_path, capsys):
    # 13 states with a fractional absorption: the type route gives delta_P(T)
    # exactly, below 1, so T itself witnesses the coefficient dip
    p = write(tmp_path, "past-cap.json", _past_cap_doc())
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    doc = json.loads(out)
    kernel = doc["coefficients"]["kernel"]
    assert (kernel["certified_exact"], kernel["method"]) == (True, "type-formula")
    assert kernel["value"] == kernel["upper_bound"] == "0.6014728164622822"
    verdict = doc["verdict"]
    clauses = {c["name"]: c for c in verdict["clauses"]}
    assert clauses["coefficient-dip"]["holds"] is True
    assert verdict["witness_n0"] == 1
    assert (verdict["uniform"], verdict["consistent"]) == (True, True)
    assert all(t["ok"] for t in doc["theorems"])


def test_analyze_computes_the_seeded_bracket_once(tmp_path, capsys, count_calls, embedded_bracket_doc):
    # an explicit P off the simplex gives a 100k-sample bracket: analyze
    # draws it once, with --seed, and classify's n = 1 term reads that one
    calls = count_calls("ergodicity_coefficient")
    doc = embedded_bracket_doc
    p = write(tmp_path, "bracket.json", doc)
    code, out, _ = run(capsys, ["analyze", "--seed", "5", "--format", "structured", p])
    assert code == 0
    assert json.loads(out)["coefficients"]["kernel"]["certified_exact"] is False
    T = np.array(doc["operator"])
    own_delta = [
        (caller, kwargs.get("seed"))
        for caller, args, kwargs in calls["ergodicity_coefficient"]
        if (args[1] if len(args) > 1 else kwargs.get("P")) is not None
        and np.array_equal(np.asarray(getattr(args[0], "matrix", args[0])), T)
    ]
    assert own_delta == [("cmd_analyze", 5)]


def test_a_straddling_bracket_leaves_the_dip_clause_undecided(tmp_path, capsys, embedded_bracket_doc):
    # delta_P(T) is a bracket [0.79, 1.0] that straddles the threshold 1, so
    # no power is a witness; T keeps x1, which keeps the upper side, the
    # classical coefficient, at 1 for every power
    p = write(tmp_path, "bracket.json", embedded_bracket_doc)
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    doc = json.loads(out)
    kernel = doc["coefficients"]["kernel"]
    assert kernel["certified_exact"] is False
    assert 0.79 < float(kernel["value"]) <= 0.8 < 1.0 == float(kernel["upper_bound"])
    verdict = doc["verdict"]
    clauses = {c["name"]: c for c in verdict["clauses"]}
    assert clauses["coefficient-dip"]["holds"] is None
    assert verdict["witness_n0"] is None
    assert clauses["power-norms"]["holds"] is True
    assert clauses["residual-radius"]["holds"] is True
    assert verdict["uniform"] is True
    assert verdict["consistent"] is True


def test_analyze_theorems_read_the_seeded_kernel_coefficient(tmp_path, capsys, embedded_bracket_doc):
    p = write(tmp_path, "bracket.json", embedded_bracket_doc)
    code, out, _ = run(capsys, ["analyze", "--seed", "5", "--format", "structured", p])
    assert code == 0
    doc = json.loads(out)
    kernel = doc["coefficients"]["kernel"]
    assert kernel["certified_exact"] is False
    rng = next(t for t in doc["theorems"] if t["name"] == "coefficient-range")
    assert kernel["value"] == rng["detail"]["value_T"]


def test_analyze_inequalities_draw_with_the_seed(tmp_path, capsys, embedded_bracket_doc):
    # T(I - P) equals T on ker P, so the commuting-factor lhs is the kernel
    # coefficient again, and its bracket follows --seed as the kernel's does
    p = write(tmp_path, "bracket.json", embedded_bracket_doc)
    lhs = {}
    for seed in (0, 5):
        code, out, _ = run(capsys, ["analyze", "--seed", str(seed), "--format", "structured", p])
        assert code == 0
        doc = json.loads(out)
        kernel = float(doc["coefficients"]["kernel"]["value"])
        th = next(t for t in doc["theorems"] if t["name"] == "coefficient-commuting-factor")
        lhs[seed] = float(th["detail"]["lhs"])
        assert lhs[seed] == pytest.approx(kernel, abs=1e-15)
    assert lhs[0] != lhs[5]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_analyze_fits_no_prefactor_off_members(tmp_path, capsys):
    # doubly stochastic T with P = I: TP = T != P, and ||T^n - P|| never
    # decays, so r(T - P) = 0.755 is no rate and no prefactor is fitted
    doc = {
        "space": {"type": "simplex", "dim": 3},
        "operator": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        "projection": {"type": "matrix", "entries": np.eye(3).tolist()},
    }
    p = write(tmp_path, "nonmember.json", doc)
    code, out, _ = run(capsys, ["analyze", p])
    assert code == 0
    assert "rate profile: TP = PT = P fails, so there is no spectral rate" in out
    assert "fitted prefactor =" not in out
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    profile = json.loads(out)["rate_profile"]
    assert profile["fitted_prefactor"] is None
    assert float(profile["rate"]) == pytest.approx(0.57 ** 0.5, abs=1e-12)


def test_analyze_member_keeps_its_fitted_prefactor(tmp_path, capsys):
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["analyze", p])
    assert "rate profile: r = 0.6, fitted prefactor = 1.5, alpha_40" in out
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert float(json.loads(out)["rate_profile"]["fitted_prefactor"]) == pytest.approx(1.5)


def test_doeblin_audits_draw_with_the_seed(tmp_path, capsys, monkeypatch):
    # at n0 = 1 both certificates print delta_P(T).  Certificates need the
    # simplex, where a bracket comes only past the candidate budget; a
    # budget of 0 sends this 13-state explicit P there, and each certificate
    # reads --seed as analyze's kernel coefficient does
    from ergokit import coefficients

    monkeypatch.setattr(coefficients, "CANDIDATE_BUDGET", 0)
    p = write(tmp_path, "past-cap.json", _past_cap_doc())
    for seed in (0, 5):
        argv = ["--seed", str(seed), "--format", "structured", p]
        code, out, _ = run(capsys, ["analyze", *argv])
        assert code == 0
        kernel = json.loads(out)["coefficients"]["kernel"]
        assert kernel["certified_exact"] is False
        code, out, _ = run(capsys, ["doeblin", "--n0-cap", "1", *argv])
        assert code == 0
        doc = json.loads(out)
        assert doc["minorization"]["certificate"]["n0"] == 1
        assert doc["overlap"]["n0"] == 1
        assert doc["minorization"]["certificate"]["actual_coefficient"] == kernel["value"]
        assert doc["overlap"]["actual_coefficient"] == kernel["value"]


FIXTURES = ("two_state_fixture", "fast_two_state_fixture", "block_fixture", "embedded_fixture")


def _fixture_files(tmp_path):
    paths = {}
    for name in FIXTURES:
        inst = getattr(corpus, name)()
        doc = instance_document(ParsedInstance(inst.T.space, inst.T, inst.P))
        paths[name] = write(tmp_path, f"{name}.json", doc)
    return paths


def test_structured_output_is_in_canonical_form(tmp_path, capsys):
    # canonical: what the standard library writes from the same document
    paths = _fixture_files(tmp_path)
    lattice = [p for name, p in paths.items() if name != "embedded_fixture"]
    runs = [["analyze", p] for p in paths.values()]
    runs += [["doeblin", p] for p in lattice]
    runs += [["tensor", a, b] for a, b in zip(lattice, lattice[1:])]
    runs += [["verify", "--count", "1", "--dims", "2..3"]]
    for argv in runs:
        code, out, err = run(capsys, [*argv, "--format", "structured"])
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    p = write(tmp_path, "two.json", TWO_STATE)
    code, out, _ = run(capsys, ["analyze", "--format", "structured", "--seed", "5",
                                "--n0-cap", "3", p])
    assert (code, out) == (3, "")
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--no-such-flag", p])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["analyze", "--format", "structured", p])
    assert code == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    fresh = subprocess.run(
        [sys.executable, "-m", "ergokit.cli", "analyze", "--format", "structured", p],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out == fresh.stdout
    assert cli.build_parser() is cli.build_parser()
