import json
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from paraquat import scenario
from paraquat.catalog import STD_J1, STD_J2, STD_J3, load_catalog_scenario, scenario_names
from paraquat.structures import check_hermitian
from paraquat.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_writes_report_to_stdout(capsys):
    rc = main(["run", "flat-lhpk"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["overall"] and report["final"]


def test_run_with_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "flat-pqk-rotated", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["scenario"] == "flat-pqk-rotated"


def test_expected_failure_scenario_exits_zero(capsys):
    assert main(["run", "sasaki-over-conformal"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["final"] and not report["overall"]


def test_genuine_failure_exits_one(tmp_path, capsys):
    doc = {
        "name": "broken",
        "description": "a definite metric cannot pass the hermitian check",
        "expect": "pass",
        "geometry": {"dim": 4, "metric": "euclidean4", "triple": "standard4"},
        "checks": [{"check": "hermitian", "tol": 1e-10}],
    }
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f)]) == 1


def test_a_metric_without_a_finite_derivative_exits_one_naming_the_node(tmp_path, capsys):
    # g is finite, but (x1 - x1)^0.5 has no finite derivative at 0: the
    # exact jets raise EvaluationError, and numpy prints no warning
    entries = ["1 + (x1 - x1)^0.5", "1", "-1", "-1"]
    doc = {
        "name": "no-derivative",
        "geometry": {"dim": 4, "metric": {"matrix": [[entries[r] if r == c else "0" for c in range(4)] for r in range(4)]}},
        "checks": [{"check": "hermitian", "tol": 1e-10}, {"check": "flatness"}],
    }
    f = tmp_path / "no-derivative.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(f), "--out", str(tmp_path / "r.json")]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  flatness  (non-finite derivative from '(x1 - x1)^0.5')" in out
    assert "PASS  hermitian" in out and not err
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["checks"][1]["data"] == {"error": "EvaluationError"}


def test_unknown_scenario_exits_two(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "no-such-scenario" in capsys.readouterr().err


def test_unknown_check_exits_two(tmp_path, capsys):
    doc = {
        "name": "bad-check",
        "description": "",
        "expect": "pass",
        "geometry": {"dim": 4, "metric": "neutral4", "triple": "standard4"},
        "checks": [{"check": "frobnicate"}],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f)]) == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    f = tmp_path / "mangled.json"
    f.write_text("{not json")
    assert main(["run", str(f)]) == 2


def test_catalog_lists_shipped_scenarios(capsys):
    assert main(["catalog"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == scenario_names()
    assert len(listed) == 8


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from paraquat import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    outs = []
    for _ in range(2):
        assert main(["catalog"]) == 0
        with pytest.raises(SystemExit):
            main([])
        assert main(["explain", "oneill"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(built) == 1


def test_explain(capsys):
    assert main(["explain", "oneill"]) == 0
    out = capsys.readouterr().out
    assert "identity:" in out
    assert "antisymmetry_tol=1e-05" in out and "a_below (optional)" in out
    assert main(["explain", "frobnicate"]) == 2


def test_run_options_recorded_in_environment(capsys):
    rc = main(["run", "flat-lhpk", "--seed", "42", "--points", "3", "--step", "1e-4"])
    assert rc == 0
    env = json.loads(capsys.readouterr().out)["environment"]
    assert env["seed"] == 42
    assert env["points"] == 3
    assert env["step"] == 1e-4


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--step", "nan"), ("--step", "inf"), ("--step", "0"), ("--step", "0.2")],
)
def test_bad_override_exits_two(flag, value, capsys):
    # 0.2 is a valid step, but its 10-step sampling margin leaves no interior
    assert main(["run", "flat-lhpk", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_sample_too_large_to_form_exits_two_with_one_line(tmp_path, capsys):
    # numpy refuses 10**18 draws before it allocates anything, from the
    # flag and from a document's "points" alike
    doc = {"points": 10**18, "geometry": {"dim": 4}, "checks": [{"check": "hermitian"}]}
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc))
    for argv in (["run", "flat-lhpk", "--points", str(10**18)], ["run", str(f)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: a sample of {10**18} points in 4 dimensions is too large to form\n"


def test_large_step_keeps_the_sample_inside_its_margin(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "sasaki-over-flat", "--step", "2e-2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["checks"]) == 10
    assert all(c["passed"] for c in report["checks"])


def test_errored_check_is_not_an_expected_failure(tmp_path, capsys):
    diagonal = ["1/(x1 - x1)", "1", "-1", "-1"]  # not finite at any sampled point
    doc = {
        "name": "errored-negative-control",
        "description": "a metric that is not finite at the sample errors instead of failing",
        "expect": "fail",
        "geometry": {
            "dim": 4,
            "metric": {"matrix": [[diagonal[r] if r == c else "0" for c in range(4)] for r in range(4)]},
            "triple": "standard4",
        },
        "checks": [{"check": "hermitian"}],
    }
    f = tmp_path / "errored.json"
    f.write_text(json.dumps(doc))
    assert main(["run", str(f)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["data"] == {"error": "EvaluationError"}
    assert not report["overall"] and not report["final"]


def _overflowing_document(expect):
    """exp(x1) eta over x1 in [708, 709.7] with twice standard4: 2 exp(x1)
    overflows where x1 > 709.09, and there J^T g + g J reads inf - inf."""
    eta = [1, 1, -1, -1]
    matrices = [[[str(2 * v) for v in row] for row in J.tolist()] for J in (STD_J1, STD_J2, STD_J3)]
    return {
        "name": "overflowing-hermitian",
        "expect": expect,
        "points": 5,
        "geometry": {
            "dim": 4,
            "domain": [[708, 709.7], [-1, 1], [-1, 1], [-1, 1]],
            "metric": {"matrix": [[f"{eta[r]}*exp(x1)" if r == c else "0" for c in range(4)] for r in range(4)]},
            "triple": {"matrices": matrices},
        },
        "checks": [{"check": "hermitian"}],
    }


@pytest.mark.parametrize("seed", range(8))
def test_a_residual_that_is_not_finite_is_a_numerical_failure(seed, tmp_path, capsys):
    # a NaN point is neither skipped by the sample maximum nor written into
    # the report, and a negative control does not read it as the failure it
    # documents; every sample but seed 1's has such a point
    ctx = scenario.build_context(_overflowing_document("pass"), seed=seed)
    with np.errstate(all="ignore"):
        nan_points = np.isnan(check_hermitian(ctx.metric, ctx.triple, ctx.points)).any()
    assert nan_points == (seed != 1)
    for expect in ("pass", "fail"):
        f, out = tmp_path / f"{expect}.json", tmp_path / f"{expect}-report.json"
        f.write_text(json.dumps(_overflowing_document(expect)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(f), "--seed", str(seed), "--out", str(out)])
        assert not capsys.readouterr().err
        text = out.read_text()
        assert "NaN" not in text
        data = json.loads(text)["checks"][0]["data"]
        if nan_points:
            assert code == 1 and data == {"error": "EvaluationError"}
        elif expect == "pass":
            assert code == 0 and data["max_residual"] == 0.0


def _fiber_document(fiber):
    """product-submersion-rotated with its descend-oneforms fiber replaced."""
    doc = load_catalog_scenario("product-submersion-rotated")
    for spec in doc["checks"]:
        if spec["check"] == "descend-oneforms":
            spec["fiber"] = fiber
    return doc


@pytest.mark.parametrize(
    "fiber, says",
    [
        ([[0.1, 0.2, -0.1, 0.05, 1.5, 0.0, 0.0, 0.0], [0.1, 0.2, -0.1, 0.05, 1.7, 0.0, 0.0, 0.0]], "not a point of"),
        ([[0.1, 0.2, -0.1, 0.05, 0.2, 0.0, 0.0], [0.1, 0.2, -0.1, 0.05, 0.4, 0.0, 0.0]], "not a point of"),
        ([[0.1, 0.2, -0.1, 0.05, 0.2, 0.0, 0.0, 0.0]] * 3, "two distinct fiber points"),
        ([[0.1, 0.2, -0.1, 0.05, 0.2, 0.0, 0.0, 0.0]], "two distinct fiber points"),
    ],
    ids=["outside the box", "a row of the wrong length", "one point three times", "one point"],
)
def test_a_fiber_off_the_box_or_of_one_point_exits_two(fiber, says, monkeypatch, tmp_path, capsys):
    f = tmp_path / "fiber.json"
    f.write_text(json.dumps(_fiber_document(fiber)))
    ran = []  # the document's first check, classify, records each run
    classify = scenario.classify_structure
    monkeypatch.setattr(scenario, "classify_structure", lambda *a, **k: ran.append(1) or classify(*a, **k))
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err
    # a box or length problem is found before any check runs
    assert ran == ([] if says == "not a point of" else [1])


def test_a_fiber_point_within_a_step_of_the_wall_is_used_as_given(tmp_path, capsys):
    # the jets at the point are exact there, so the catalog fiber with one
    # coordinate half a step from the wall descends as the shipped one does
    fiber = next(spec for spec in load_catalog_scenario("product-submersion-rotated")["checks"] if "fiber" in spec)["fiber"]
    fiber[0][5] = 1.0 - 0.5e-3
    f = tmp_path / "near-wall.json"
    f.write_text(json.dumps(_fiber_document(fiber)))
    out = tmp_path / "report.json"
    assert main(["run", str(f), "--out", str(out)]) == 0
    data = next(c["data"] for c in json.loads(out.read_text())["checks"] if c["name"] == "descend-oneforms")
    assert data["constancy_residual"] < 1e-12 and data["downstairs_match_error"] < 1e-12


def _no_geometry(*args, **kwargs):
    raise AssertionError("the geometry was built before the scenario was validated")


@pytest.mark.parametrize("check", ["hermitian", "kahler-fit", "flatness"])
@pytest.mark.parametrize("cap", [0, -1])
def test_bad_points_cap_exits_two_before_any_work(check, cap, monkeypatch, tmp_path, capsys):
    # at 0 a check would look at no point at all, at -1 it would drop the last
    doc = {
        "name": "bad-cap",
        "description": "",
        "expect": "pass",
        "points": 3,
        "geometry": {"dim": 4, "metric": "neutral4", "triple": "standard4"},
        "checks": [{"check": check, "points": cap}],
    }
    f = tmp_path / "cap.json"
    f.write_text(json.dumps(doc))
    monkeypatch.setattr(scenario, "make_chart", _no_geometry)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "points" in err


def test_bad_expect_exits_two_before_any_work(monkeypatch, tmp_path, capsys):
    doc = load_catalog_scenario("sasaki-over-flat")
    doc["expect"] = "pas"
    f = tmp_path / "typo.json"
    f.write_text(json.dumps(doc))
    monkeypatch.setattr(scenario, "make_chart", _no_geometry)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expect" in err


def _inline(**changes):
    doc = {
        "name": "inline",
        "description": "",
        "expect": "pass",
        "points": 2,
        "geometry": {"dim": 4, "metric": "neutral4", "triple": "standard4"},
        "checks": [{"check": "hermitian"}],
    }
    doc.update(changes)
    return doc


MALFORMED = {
    "top-level list": [_inline()],
    "checks null": _inline(checks=None),
    "check as a bare name": _inline(checks=["hermitian"]),
    "step not a number": _inline(step="abc"),
    "seed not a number": _inline(seed="x"),
    "dim not a number": _inline(geometry={"dim": "four", "metric": "neutral4", "triple": "standard4"}),
    "points not an integer": _inline(points=2.7),
    "misspelt parameter": _inline(checks=[{"check": "hermitian", "tl": 1e-300}]),
    "parameter the check does not read": _inline(checks=[{"check": "oneill", "t_above": 1e9}]),
    "expect_flat as a string": _inline(checks=[{"check": "flatness", "expect_flat": "false"}]),
    "unknown classify class": _inline(checks=[{"check": "classify", "expected": "PQKK"}]),
    "classify class in a list": _inline(checks=[{"check": "classify", "expected": ["PQK"]}]),
    "domain not numbers": _inline(geometry={"dim": 4, "domain": "abc"}),
    "u_box not numbers": _inline(geometry={"dim": 4, "sasaki": True, "u_box": "ab"}),
    "coords not a list": _inline(geometry={"dim": 4, "coords": 5}),
    "submersion not an object": _inline(geometry={"dim": 4, "submersion": "x"}),
    "fiber not numbers": _inline(checks=[{"check": "descend-oneforms", "fiber": "abc"}]),
    "points on a check that does not sample": _inline(
        checks=[{"check": "descend-oneforms", "fiber": [[0.0] * 8], "points": 1}]
    ),
    "structure missing": _inline(checks=[{"check": "sigma-invariance"}]),
    "fiber missing": _inline(checks=[{"check": "descend-oneforms"}]),
    "transition missing": _inline(checks=[{"check": "parallel-witness"}]),
    "misspelt geometry key": _inline(geometry={"dim": 4, "metrc": "euclidean4", "triple": "standard4"}),
    "misspelt top-level key": {"chekcs" if k == "checks" else k: v for k, v in _inline().items()},
    # the report's scenario and description fields are strings
    "name a number": _inline(name=5),
    "name a list": _inline(name=["x"]),
    "name null": _inline(name=None),
    "description a number": _inline(description=5),
    "description a list": _inline(description=["x"]),
    "description null": _inline(description=None),
    "unknown target key": _inline(
        geometry={
            "dim": 8,
            "submersion": {"components": ["x1", "x2", "x3", "x4"]},
            "target": {"dim": 4, "metrc": "neutral4"},
        }
    ),
    "unknown submersion key": _inline(
        geometry={
            "dim": 8,
            "submersion": {"components": ["x1", "x2", "x3", "x4"], "map": "projection"},
            "target": {"dim": 4},
        }
    ),
    "sasaki as a string": _inline(geometry={"dim": 4, "sasaki": "false"}),
    "sasaki and submersion together": _inline(
        geometry={"dim": 4, "sasaki": True, "submersion": {"components": ["x1", "x2"]}}
    ),
    "submersion without a target": _inline(
        geometry={"dim": 8, "submersion": {"components": ["x1", "x2", "x3", "x4"]}}
    ),
    "no checks": _inline(checks=[]),
    "oneform_values of the wrong shape": _inline(
        checks=[{"check": "kahler-fit", "oneform_values": [0, 0, 0]}]
    ),
    "oneform_values one row for all members": _inline(
        checks=[{"check": "kahler-fit", "oneform_values": [0, 0, 0, 0]}]
    ),
    "oneform_values on the base of a sasaki geometry": _inline(
        geometry={"dim": 4, "sasaki": True},
        checks=[{"check": "kahler-fit", "oneform_values": [[0, 0, 0, 0]] * 3}],
    ),
    "unknown parallel-equivalence expect": _inline(
        checks=[{"check": "parallel-equivalence", "structure": "split8", "expect": "nonparallel"}]
    ),
    # geometry keys that nothing reads
    "target without a submersion": _inline(
        geometry={"dim": 4, "u_box": [-5, 5], "target": {"dim": 2, "metric": "nonsense-metric"}}
    ),
    "target beside sasaki": _inline(
        geometry={"dim": 4, "sasaki": True, "target": {"dim": 4, "metric": "euclidean4"}},
        checks=[{"check": "semi-riemannian"}],
    ),
    "u_box without sasaki": _inline(geometry={"dim": 4, "u_box": [-5, 5]}),
    # check parameters that the entry's own switch turns off
    "flatness tol with expect_flat false": _inline(
        checks=[{"check": "flatness", "expect_flat": False, "tol": 1e-6}]
    ),
    "flatness threshold with expect_flat true": _inline(checks=[{"check": "flatness", "threshold": 1e30}]),
    "kahler-fit value_tol without oneform_values": _inline(checks=[{"check": "kahler-fit", "value_tol": -1}]),
    "parallel-equivalence failing_above with expect parallel": _inline(
        checks=[{"check": "parallel-equivalence", "structure": "split8", "failing_above": 1e-3}]
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_two_before_any_work(case, monkeypatch, tmp_path, capsys):
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(MALFORMED[case]))
    monkeypatch.setattr(scenario, "make_chart", _no_geometry)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "check, key, value",
    [
        ("hermitian", "tol", "1e-6"),
        ("hermitian", "tol", True),
        ("hermitian", "tol", float("nan")),
        ("flatness", "threshold", None),
        ("oneill", "a_below", "small"),
        ("oneill", "antisymmetry_tol", [1e-5]),
        ("product-structure", "nijenhuis_above", float("inf")),
        ("parallel-equivalence", "failing_above", False),
        ("bracket", "flip_above", "1"),
        # a residual is >= 0: a ceiling <= 0 never holds, a floor < 0 always does
        ("hermitian", "tol", -1),
        ("hermitian", "tol", 0),
        ("kahler-fit", "value_tol", 0),
        ("oneill", "a_below", 0.0),
        ("oneill", "antisymmetry_tol", -1e-5),
        ("product-structure", "involution_tol", 0),
        ("product-structure", "nijenhuis_above", -1e-9),
        ("flatness", "threshold", -1),
        ("parallel-equivalence", "failing_above", -1e-3),
        ("bracket", "flip_above", -1),
    ],
)
def test_non_numeric_or_vacuous_bound_exits_two_before_any_work(check, key, value, monkeypatch, tmp_path, capsys):
    f = tmp_path / "bound.json"
    f.write_text(json.dumps(_inline(checks=[{"check": check, key: value}])))
    monkeypatch.setattr(scenario, "make_chart", _no_geometry)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize(
    "pairs",
    [[[0, 1]], [[1, 9]], [[1, 2, 3]], [[1.0, 2]], []],
    ids=["index 0", "past the base", "three indices", "float index", "no pair"],
)
def test_bracket_pairs_must_be_base_indices(pairs, monkeypatch, tmp_path, capsys):
    # at 0 the index would wrap round to the last base direction; the base
    # dimension is known from the document, so no geometry is built
    doc = _inline(
        points=1,
        geometry={"dim": 4, "metric": "neutral4", "triple": "standard4", "sasaki": True},
        checks=[{"check": "bracket", "pairs": pairs}],
    )
    f = tmp_path / "pairs.json"
    f.write_text(json.dumps(doc))
    monkeypatch.setattr(scenario, "make_chart", _no_geometry)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pairs" in err


@pytest.mark.parametrize("check", sorted(name for name, c in scenario.CHECKS.items() if c.needs))
def test_check_without_its_geometry_exits_two_before_any_work(check, monkeypatch, tmp_path, capsys):
    entry = {"check": check, "fiber": [[0.0] * 4]} if check == "descend-oneforms" else {"check": check}
    f = tmp_path / "needs.json"
    f.write_text(json.dumps(_inline(checks=[{"check": "hermitian"}, entry])))
    monkeypatch.setattr(scenario, "make_chart", _no_geometry)
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert check in err


def _metric(first_entry):
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    rows[0][0] = first_entry
    return {"dim": 4, "metric": {"matrix": rows}, "triple": "standard4"}


SUBMERSION = {
    "dim": 8,
    "metric": "neutral8",
    "triple": "product8",
    "target": {"dim": 4, "metric": "neutral4", "triple": "standard4"},
}

MALFORMED_CONTENTS = {
    "unknown symbol in the metric": _inline(geometry=_metric("y1")),
    "metric entry not an expression": _inline(geometry=_metric("1+")),
    "number literal out of range": _inline(geometry=_metric("1e400")),
    "metric matrix not a list": _inline(geometry={"dim": 4, "metric": {"matrix": 5}}),
    "triple matrices not a list": _inline(geometry={"dim": 4, "triple": {"matrices": 5}}),
    "components not a list": _inline(geometry=dict(SUBMERSION, submersion={"components": 5})),
    "transition not a list": _inline(checks=[{"check": "parallel-witness", "transition": 5}]),
    # no pair would check nothing and pass
    "bracket with no pair": _inline(
        geometry={"dim": 4, "metric": "conformal-neutral4", "triple": "standard4", "sasaki": True},
        checks=[{"check": "bracket", "pairs": []}],
    ),
}


@pytest.mark.parametrize("entry,character,position", [("é + x1", "é", 0), ("exp(x1²)", "²", 6)])
def test_a_non_ascii_character_in_an_expression_exits_two(entry, character, position, tmp_path, capsys):
    f = tmp_path / "non-ascii.json"
    f.write_text(json.dumps(_inline(geometry=_metric(entry))))
    assert main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: unexpected character {character!r} (at position {position})\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("case", sorted(MALFORMED_CONTENTS))
def test_malformed_contents_exit_two(case, tmp_path, capsys):
    # these are found while the geometry is built or the check starts
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(MALFORMED_CONTENTS[case]))
    assert main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
