"""End-to-end runs of the scenario layer against the shipped catalog."""

import dataclasses
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from paraquat import (
    EmptyDomainError,
    LocalBasisTriple,
    MetricField,
    ParseError,
    TransitionMap,
    ValidationError,
    apply_transition,
    covariant_derivative_11,
    load_scenario,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    run_scenario,
    sample_points,
)
from paraquat import catalog, connection, sasaki, scenario
from paraquat.algebra import doubled
from paraquat.catalog import expression_array, scenario_names
from paraquat.connection import covariant_derivatives
from paraquat.fields import eval_batch
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


@pytest.mark.parametrize("name", scenario_names())
def test_every_bound_an_entry_sets_is_in_its_data(name):
    doc = catalog.load_catalog_scenario(name)
    for spec, result in zip(doc["checks"], run_scenario(doc).checks):
        bounds = {
            key: value for key, value in spec.items()
            if key in ("tol", "threshold") or key.endswith(("_tol", "_below", "_above"))
        }
        assert {key: result.data.get(key, "missing") for key in bounds} == bounds, f"{name} {result.name}"


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
        C = oracle_tilde_nabla_J(ctx.bundle, [xi])[0]
        assert np.abs(C[:, 4:, :, :4]).max() > 1e-2
        assert np.abs(C[:, :4, :4, 4:]).max() > 1e-2
        C = oracle_tilde_nabla(ctx.bundle, [xi])[0]
        assert np.abs(C[:4, 4:, :4]).max() > 1e-2
        assert np.abs(C[4:, :4, :4]).max() > 1e-2


def test_reports_are_deterministic():
    # pinning the timestamp makes the full document reproducible
    t = "2026-01-01T00:00:00Z"
    a = run_scenario("flat-lhpk", seed=5, timestamp=t).to_json()
    b = run_scenario("flat-lhpk", seed=5, timestamp=t).to_json()
    c = run_scenario("flat-lhpk", seed=6, timestamp=t).to_json()
    assert a == b
    assert a != c
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


@pytest.mark.parametrize("where", ["document", "argument"])
@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_a_step_that_is_not_finite_and_positive_is_a_configuration_error(where, step):
    doc = load_scenario("flat-lhpk")
    if where == "document":
        doc["step"] = step
    with pytest.raises(ValidationError, match="finite"):
        build_context(doc, step=step if where == "argument" else None)


@pytest.mark.parametrize("override,message", [
    ({"seed": 2.5}, "'seed' must be an integer >= 0, got 2.5"),
    ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
    ({"seed": True}, "'seed' must be an integer >= 0, got True"),
    ({"points": 2.7}, "'points' must be an integer >= 1, got 2.7"),
    ({"points": 0}, "'points' must be an integer >= 1, got 0"),
    ({"step": "1e-3"}, "'step' must be a finite number, got '1e-3'"),
])
def test_a_library_override_is_checked_as_the_document_value_is(override, message):
    # an override is not rounded to an integer: seed 2.5 ran seed 2
    with pytest.raises(ValidationError) as exc:
        run_scenario("flat-lhpk", **override)
    assert str(exc.value) == message


def test_an_override_replaces_the_document_value_before_the_check():
    doc = load_scenario("flat-lhpk")
    doc.update(seed=2.5, points=0, step="x")
    ctx = build_context(doc, seed=3, step=2e-3, points=2)
    assert (ctx.seed, ctx.step, len(ctx.points)) == (3, 2e-3, 2)
    with pytest.raises(ValidationError, match="'seed' must be an integer >= 0, got 2.5"):
        build_context(doc)


def test_a_sample_is_drawn_before_any_geometry_is_built(monkeypatch):
    # an empty sample is found before the metric, the triple or the lift
    # is built, and a sasaki sample lives on the bundle's own chart object,
    # which the bundle's memos compare by identity
    built = []
    for module, name in ((sasaki, "build_tangent_bundle"), (scenario, "metric_from_config"), (scenario, "triple_from_config")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: built.append(name) or real(*a, **k))
    doc = load_scenario("sasaki-over-flat")
    with pytest.raises(EmptyDomainError, match="at step 0.5"):
        build_context(doc, step=0.5)
    assert built == []
    ctx = build_context(doc, seed=3, step=2e-2)
    assert built == ["metric_from_config", "triple_from_config", "build_tangent_bundle"]
    assert ctx.chart is ctx.bundle.spec and all(q.chart is ctx.bundle.spec for q in ctx.points)
    drawn = sample_points(ctx.bundle.spec, len(ctx.points), 3, 2e-2)
    assert np.array_equal([q.coords for q in ctx.points], [q.coords for q in drawn])


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
        {"check": "oneill", "t_below": 1e-12, "antisymmetry_tol": 1e-12, "a_above": 1e-3},
    ],
}


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_sasaki_closed_forms_hold_to_roundoff_over_the_space_form(seed):
    # exact jets through the lift leave no truncation error to hide under
    # a tolerance: the default 1e-6 of sasaki-nabla-j has 1e-12 to spare
    report = run_scenario(SPACE_FORM_SASAKI, seed=seed)
    assert report.overall and report.final
    nabla_j, consistency, bracket, flatness, classify, oneill = report.checks
    for check in (nabla_j, consistency, bracket):
        assert check.data["max_residual"] <= 1e-12, check.name
    assert nabla_j.data["tol"] == 1e-6
    assert bracket.data["max_flipped_residual"] > 1e-2
    # the total space is curved and not PQK, as the theorem forces
    assert flatness.data["max_residual"] > 0.1
    assert classify.data["fit_residual_max"] > 0.1
    # the fibres are totally geodesic, and A is antisymmetric and non-zero
    assert oneill.data["max_t"] <= 1e-14 and oneill.data["antisymmetry_residual"] <= 1e-14
    assert oneill.data["max_a_horizontal"] > 0.1


def test_the_space_form_scenario_fails_without_the_half_on_a_commutator(monkeypatch):
    real = sasaki.oracle_tilde_nabla_J  # the stacked closed form the check reads

    def without_half(bundle, xis):  # the (v, h) block is all of (1/2)[R(u, X), J_a]
        C = real(bundle, xis).copy()
        n = bundle.base_dim
        C[:, :, n:, :, :n] *= 2.0
        return C

    monkeypatch.setattr(sasaki, "oracle_tilde_nabla_J", without_half)
    for seed in range(1, 9):
        nabla_j = run_scenario(SPACE_FORM_SASAKI, seed=seed).checks[0]
        assert not nabla_j.passed and nabla_j.data["max_residual"] > 1e-3


# ----------------------------------------------------- the triple as a stack


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _per_member_nabla(g, T, pts):
    """nabla J_a of each member alone, stacked [c, a, i, k, j], as the
    per-member code formed it: Gamma on a fresh memo of g, J_a from one
    ``eval_batch``, dJ_a from J_a's own jets and two matrix products of one
    member, Gamma flattened over (i, k) on the left of J_a and over (i, j)
    on its right."""
    gam = np.array(connection._christoffels(MetricField(g.field), pts))
    c, n = gam.shape[:2]
    members = []
    for f in T.fields:
        V, dT = eval_batch(f, pts), f.jets(pts, 1)[1]
        left = (gam.transpose(0, 2, 1, 3).reshape(c, n * n, n) @ V).reshape(c, n, n, n)
        right = (V @ gam.reshape(c, n, n * n)).reshape(c, n, n, n).transpose(0, 2, 1, 3)
        members.append(dT + left - right)
    return np.stack(members, axis=1)


def _per_member_transition(A, s, pts):
    """The values and first partials of each member of A turned by s, one
    member at a time: s_ab J_b and ds_ab J_b + s_ab dJ_b over the points,
    the row of s or ds times J flattened over (i, j) and dJ over (m, i, j)."""
    S, AJ = np.ascontiguousarray(s.matrices(pts)), A.values(pts)
    dS = np.ascontiguousarray(s.jets(pts, 1)[1])
    J, dJ = (np.stack(X, axis=1) for X in zip(*(f.jets(pts, 1) for f in A.fields)))
    c = len(S)
    values = [(S[:, a, None] @ AJ.reshape(c, 3, -1)).reshape(AJ.shape[:1] + AJ.shape[2:]) for a in range(3)]
    partials = [
        (dS[:, :, a, None] @ J.reshape(c, 1, 3, -1)).reshape(dJ.shape[:1] + dJ.shape[2:])
        + (S[:, a, None] @ dJ.reshape(c, 3, -1)).reshape(dJ.shape[:1] + dJ.shape[2:])
        for a in range(3)
    ]
    return np.stack(values, axis=1), np.stack(partials, axis=1)


def _per_member_lift(bundle, xis):
    """The values and first partials of each lifted member, one member at a
    time: L diag(J_a, J_a) L^-1 and the blocks d_A J_a and d_A J_a M + J_a
    d_A M - d_A M J_a - M d_A J_a from J_a's own values and jets."""
    n, M, dM = bundle.base_dim, bundle.shift(xis), bundle.shift_partials(xis)[0]
    L, Linv = sasaki._frames(M)
    xs = [bundle.base_point(xi) for xi in xis]
    values, partials = [], []
    for f in bundle.base_triple.fields:
        values.append(L @ doubled(eval_batch(f, xs)) @ Linv)
        J, dJ = f.jets(xs, 1)
        JA = np.zeros((len(xis), 2 * n, n, n))
        JA[:, :n] = dJ
        C = JA @ M[:, None] + J[:, None] @ dM - dM @ J[:, None] - M[:, None] @ JA
        dJt = np.zeros((len(xis), 2 * n, 2 * n, 2 * n))
        dJt[:, :, :n, :n] = dJt[:, :, n:, n:] = JA
        dJt[:, :, n:, :n] = C
        partials.append(dJt)
    return np.stack(values, axis=1), np.stack(partials, axis=1)


@pytest.mark.parametrize("seed", [1, 6, 7, 600])
@pytest.mark.parametrize("name", scenario_names())
def test_the_triple_stacks_are_the_per_member_forms_bit_for_bit(name, seed):
    # nabla J of all three members in one batch, the lifted triple's values
    # and jets and a witness transition's, each against the member-by-member
    # form, at the sample of a shipped scenario
    config = load_scenario(name)
    ctx = build_context(config, seed=seed)
    g, T, pts = ctx.metric, ctx.triple, ctx.points
    D = np.array(covariant_derivatives(g, T, pts))
    _same_bits(D, _per_member_nabla(g, T, pts))
    for a, f in enumerate(T.fields):
        _same_bits(D[:, a], covariant_derivative_11(MetricField(g.field), f, pts))
    if ctx.bundle is not None:
        V, dV = _per_member_lift(ctx.bundle, pts)
        _same_bits(T.values(pts), V)
        _same_bits(T.jets(pts)[1], dV)
    for spec in config["checks"]:
        if spec["check"] == "parallel-witness":
            values, jets = expression_array(spec["transition"], (3, 3), ctx.chart, "witness")
            s = TransitionMap(lambda qs: values(np.array([q.coords for q in qs])), label="witness", jets=jets)
            W = apply_transition(T, s)
            V, dV = _per_member_transition(T, s, pts)
            _same_bits(W.values(pts), V)
            _same_bits(W.jets(pts)[1], dV)
            _same_bits(covariant_derivatives(g, W, pts), _per_member_nabla(g, W, pts))


def _counting_triples(monkeypatch):
    """Every triple a run builds from its document, with members that record
    the coordinates of each point they are evaluated at, per member."""
    seen = []

    def counted(f, points_seen):
        def components(points):
            points_seen.extend(q.coords.tobytes() for q in points)
            return f.components(points)

        return dataclasses.replace(f, components=components)

    def triple_from_config(spec, chart):
        T = catalog.triple_from_config(spec, chart)
        seen.append([[] for _ in T.fields])
        return LocalBasisTriple(*map(counted, T.fields, seen[-1]), label=T.label)

    monkeypatch.setattr(scenario, "triple_from_config", triple_from_config)
    return seen


@pytest.mark.parametrize("name", scenario_names())
def test_a_run_evaluates_each_distinct_point_of_a_triple_once(name, monkeypatch):
    seen = _counting_triples(monkeypatch)
    assert run_scenario(name, seed=7).final
    assert seen and all(points for members in seen for points in members)
    for first, *others in seen:
        assert len(first) == len(set(first)) and all(points == first for points in others)
