"""End-to-end runs of the scenario layer against the shipped catalog."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from paraquat import (
    ParseError,
    ValidationError,
    load_scenario,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    run_scenario,
)
from paraquat import sasaki
from paraquat.catalog import scenario_names
from paraquat.scenario import build_context

from conftest import SPACE_FORM_ROWS

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)

EXPECTED_FAIL = {"sasaki-over-conformal"}


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_scenario_verdicts(name):
    report = run_scenario(name)
    assert report.final, f"{name} did not reach its expected verdict"
    assert report.overall is (name not in EXPECTED_FAIL)
    jsonschema.validate(json.loads(report.to_json()), SCHEMA)


def test_expected_failure_scenario_fails_where_it_should():
    report = run_scenario("sasaki-over-conformal")
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"classify", "kahler-fit", "flatness"}


def _inline(**overrides):
    base = {
        "name": "inline",
        "description": "built in a test",
        "expect": "pass",
        "geometry": {"dim": 4, "metric": "neutral4", "triple": "standard4"},
        "checks": [{"check": "triple-algebra", "tol": 1e-12}],
    }
    base.update(overrides)
    return base


def test_inline_scenario_failure_verdict():
    cfg = _inline(
        geometry={"dim": 4, "metric": "euclidean4", "triple": "standard4"},
        checks=[{"check": "classify", "expected": "PQK"}],
    )
    report = run_scenario(cfg, points=3)
    assert not report.overall
    assert not report.final  # expected pass, got failure
    (check,) = report.checks
    assert check.data["got"] == "NotHermitian"


def test_inline_expression_metric():
    diag = [
        ["cosh(x1)", "0", "0", "0"],
        ["0", "cosh(x1)", "0", "0"],
        ["0", "0", "-cosh(x1)", "0"],
        ["0", "0", "0", "-cosh(x1)"],
    ]
    cfg = _inline(
        geometry={"dim": 4, "metric": {"matrix": diag}, "triple": "standard4"},
        checks=[
            {"check": "hermitian", "tol": 1e-10},
            {"check": "flatness", "expect_flat": False, "threshold": 1e-3},
        ],
    )
    report = run_scenario(cfg, points=3, seed=2)
    assert report.overall and report.final


def test_sasaki_nabla_j_holds_over_a_curved_base():
    doc = _inline(
        geometry={"dim": 4, "metric": "conformal-neutral4", "triple": "standard4", "sasaki": True},
        checks=[
            {"check": "sasaki-nabla-j", "tol": 1e-6},
            {"check": "sasaki-consistency", "tol": 1e-6},
            {"check": "bracket", "pairs": [[1, 2], [2, 3]], "tol": 1e-6, "flip_above": 1e-2},
        ],
    )
    report = run_scenario(doc)
    assert report.overall and report.final
    nabla_j, consistency, bracket = report.checks
    assert nabla_j.data["max_residual"] < 1e-9
    assert consistency.data["max_residual"] < 1e-9
    assert bracket.data["max_residual"] < 1e-9
    assert bracket.data["max_flipped_residual"] > 1e-2
    # the agreement is not vacuous: the curvature terms of the closed forms,
    # their (v, h) blocks and the horizontal parts of their (h, v) blocks,
    # and the vertical part of nabla~ on (h, h), are large
    ctx = build_context(doc)
    for xi in ctx.points[:2]:
        C = oracle_tilde_nabla_J(ctx.bundle, xi)
        assert np.abs(C[:, 4:, :, :4]).max() > 1e-2
        assert np.abs(C[:, :4, :4, 4:]).max() > 1e-2
        C = oracle_tilde_nabla(ctx.bundle, xi)
        assert np.abs(C[:4, 4:, :4]).max() > 1e-2
        assert np.abs(C[4:, :4, :4]).max() > 1e-2


def test_reports_are_deterministic():
    a = run_scenario("flat-lhpk", seed=5).to_json(omit_timestamp=True)
    b = run_scenario("flat-lhpk", seed=5).to_json(omit_timestamp=True)
    c = run_scenario("flat-lhpk", seed=6).to_json(omit_timestamp=True)
    assert a == b
    assert a != c
    # pinning the timestamp makes the full document reproducible
    t = "2026-01-01T00:00:00Z"
    assert run_scenario("flat-lhpk", timestamp=t).to_json() == run_scenario(
        "flat-lhpk", timestamp=t
    ).to_json()


def test_load_scenario_sources(tmp_path):
    doc = _inline()
    assert load_scenario(doc) == doc
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert load_scenario(str(f)) == doc
    assert load_scenario("flat-lhpk")["name"] == "flat-lhpk"
    with pytest.raises(ParseError):
        load_scenario("no-such-scenario")
    with pytest.raises(ParseError):
        load_scenario(str(tmp_path / "missing.json"))


def test_config_errors_are_parse_errors():
    with pytest.raises(ParseError):
        run_scenario({"name": "x", "expect": "pass", "checks": []})  # no geometry
    with pytest.raises(ParseError):
        run_scenario(_inline(checks=[{"check": "no-such-check"}]))
    with pytest.raises(ParseError):
        run_scenario(_inline(expect="maybe"))
    geom = {
        "dim": 4,
        "metric": "neutral4",
        "triple": "standard4",
        "sasaki": True,
        "submersion": {"components": ["x1", "x2"]},
    }
    with pytest.raises(ParseError):
        run_scenario(_inline(geometry=geom))  # sasaki and submersion together
    geom2 = {
        "dim": 8,
        "metric": "neutral8",
        "triple": "product8",
        "submersion": {"components": ["x1", "x2", "x3", "x4"]},
    }
    with pytest.raises(ParseError):
        run_scenario(_inline(geometry=geom2))  # submersion without target
    geom3 = dict(
        geom2,
        submersion={"components": ["x1", "x2"]},
        target={"dim": 4, "metric": "neutral4", "triple": "standard4"},
    )
    with pytest.raises(ParseError):
        run_scenario(_inline(geometry=geom3))  # two components onto a 4-dim target


def test_precondition_failure_becomes_failed_check():
    # the split structure does not commute with the standard triple after a
    # one-axis flip, so the equivalence check cannot even start
    cfg = _inline(
        geometry={"dim": 8, "metric": "neutral8", "triple": "product8"},
        checks=[
            {
                "check": "parallel-equivalence",
                "structure": {
                    "matrix": [
                        ["-1" if (i == j == 1) else "1" if i == j else "0" for j in range(8)]
                        for i in range(8)
                    ]
                },
                "expect": "parallel",
            }
        ],
    )
    report = run_scenario(cfg, points=3)
    (check,) = report.checks
    assert not check.passed
    assert check.data["error"] == "PreconditionFailedError"
    assert check.note


def test_bundle_checks_require_sasaki_geometry():
    cfg = _inline(checks=[{"check": "bracket"}])
    with pytest.raises(ValidationError):
        run_scenario(cfg, points=2)


def test_a_run_validates_its_document_once(monkeypatch):
    from paraquat import scenario

    calls = []
    real = scenario._validate

    def counted(config):
        calls.append(config.get("name"))
        return real(config)

    monkeypatch.setattr(scenario, "_validate", counted)
    assert run_scenario("flat-lhpk").final
    assert calls == ["flat-lhpk"]
    # a direct caller of build_context is still validated
    doc = load_scenario("flat-lhpk")
    doc["geometry"]["metrc"] = "euclidean4"
    with pytest.raises(ParseError):
        scenario.build_context(doc)
    assert len(calls) == 2


def test_a_run_builds_each_product_structure_once(monkeypatch):
    from paraquat import scenario

    built = []
    real = scenario.structure_from_config

    def counted(spec, chart):
        built.append(spec)
        return real(spec, chart)

    monkeypatch.setattr(scenario, "structure_from_config", counted)
    assert run_scenario("product-8d").final
    # five checks name two structures: the equivalence checks reuse the
    # derivatives the product checks memoised on the run's metric
    assert built == ["split8", "split8-rotated"]


# The paper's example over a curved PQK base: the projection of the tangent
# bundle of the neutral space form, with the Sasaki metric.
SPACE_FORM_SASAKI = {
    "points": 3,
    "geometry": {"dim": 4, "metric": {"matrix": SPACE_FORM_ROWS}, "triple": "standard4", "sasaki": True},
    "checks": [
        {"check": "sasaki-nabla-j"},
        {"check": "sasaki-consistency", "tol": 1e-6},
        {"check": "bracket", "pairs": [[1, 2], [2, 3]], "tol": 1e-6, "flip_above": 1e-2},
        {"check": "flatness", "expect_flat": False},
        {"check": "classify", "expected": "HermitianOnly"},
    ],
}


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_sasaki_closed_forms_hold_to_roundoff_over_the_space_form(seed):
    # exact jets through the lift leave no truncation error to hide under
    # a tolerance: the default 1e-6 of sasaki-nabla-j has 1e-12 to spare
    report = run_scenario(SPACE_FORM_SASAKI, seed=seed)
    assert report.overall and report.final
    nabla_j, consistency, bracket, flatness, classify = report.checks
    for check in (nabla_j, consistency, bracket):
        assert check.data["max_residual"] <= 1e-12, check.name
    assert nabla_j.data["tol"] == 1e-6
    assert bracket.data["max_flipped_residual"] > 1e-2
    # the total space is curved and not PQK, as the theorem forces
    assert flatness.data["max_residual"] > 0.1
    assert classify.data["fit_residual_max"] > 0.1


def test_the_space_form_scenario_fails_without_the_half_on_a_commutator(monkeypatch):
    real = sasaki.oracle_tilde_nabla_J

    def without_half(bundle, xi):  # the (v, h) block is all of (1/2)[R(u, X), J_a]
        C = real(bundle, xi).copy()
        n = bundle.base_dim
        C[:, n:, :, :n] *= 2.0
        return C

    monkeypatch.setattr(sasaki, "oracle_tilde_nabla_J", without_half)
    for seed in range(1, 9):
        nabla_j = run_scenario(SPACE_FORM_SASAKI, seed=seed).checks[0]
        assert not nabla_j.passed and nabla_j.data["max_residual"] > 1e-3
