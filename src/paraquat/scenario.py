"""Scenario files, the check registry, and verification reports.

A scenario is a JSON document: a geometry block naming catalog ingredients
(or giving expression matrices), a sample size and seed, and a list of named
checks with tolerances.  ``run_scenario`` builds the geometry once, samples
points deterministically, runs every check, and returns a report whose
``overall`` field is the raw conjunction of check outcomes and whose ``final``
field applies the scenario's ``expect`` ("fail" flips it — used for scenarios
that document what must *not* hold — unless a check errored).

Each registered check carries an anchor: the identity or definition it
verifies, quoted in reports so a reader can tell what a residual measures
without consulting the code.
"""

from __future__ import annotations

import datetime as _dt
import inspect
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

from ._version import __version__
from .algebra import LocalBasisTriple, TransitionMap, _triple_algebras, apply_transition
from .catalog import (
    expression_array,
    load_catalog_scenario,
    make_chart,
    metric_from_config,
    structure_from_config,
    triple_from_config,
)
from .connection import MetricField, _covariant_derivatives, is_flat
from .errors import ParaquatError, ParseError, ValidationError
from .fields import MARGIN_STEPS, FdConfig, ManifoldSpec, Point, sample_points
from .sasaki import (
    SasakiBundle,
    build_tangent_bundle,
    check_bracket,
    check_connection_oracle,
    check_nabla_j_oracle,
)
from .structures import (
    ProductStructureField,
    StructureClass,
    _fits,
    _hermitians,
    check_parallel_equivalence,
    check_product_structure,
    check_sigma_invariant_operator,
    classify_structure,
    fit_kahler_oneforms,
)
from .submersion import (
    SubmersionMap,
    check_paraholomorphic,
    check_semi_riemannian,
    check_vh_invariance,
    descend_one_forms,
    oneill_tensors,
)

DEFAULT_POINTS = 5


@dataclass
class ScenarioContext:
    """Everything a check runner may need, built once per run."""

    chart: ManifoldSpec
    metric: MetricField
    triple: LocalBasisTriple
    points: list[Point]
    cfg: FdConfig
    seed: int
    bundle: SasakiBundle | None = None
    submersion: SubmersionMap | None = None
    target_metric: MetricField | None = None
    target_triple: LocalBasisTriple | None = None
    _structures: dict = field(default_factory=dict, repr=False)

    def structure(self, spec) -> ProductStructureField:
        """The product structure ``spec`` describes, built once per run, so
        that the checks of a run share the derivatives memoised for it."""
        key = json.dumps(spec, sort_keys=True)
        if key not in self._structures:
            self._structures[key] = structure_from_config(spec, self.chart)
        return self._structures[key]


@dataclass
class CheckResult:
    name: str
    anchor: str
    passed: bool
    data: dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "anchor": self.anchor, "passed": self.passed}
        out.update({"data": self.data})
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    scenario: str
    description: str
    expect: str
    environment: dict
    generated_at: str
    checks: list[CheckResult]
    overall: bool
    final: bool

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "expect": self.expect,
            "environment": self.environment,
            "generated_at": self.generated_at,
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "final": self.final,
        }

    def to_json(self, omit_timestamp: bool = False) -> str:
        d = self.to_dict()
        if omit_timestamp:
            d.pop("generated_at")
        return json.dumps(d, indent=2) + "\n"


def _f(x) -> float:
    return float(x)


def _integer(value, what: str, least: int) -> int:
    # bool is a subclass of int, and JSON gives 2.7 as a float
    if type(value) is not int or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _real(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _numbers(value, what: str) -> None:
    # the shape is checked where the array is used
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim < 1 or not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be a list of finite numbers, got {value!r}")


def _index_pairs(value, n: int, what: str) -> None:
    # a 0 would wrap round to the last direction
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(q, (list, tuple)) and len(q) == 2 and all(type(i) is int and 1 <= i <= n for i in q)
        for q in value
    ):
        raise ValidationError(f"{what} must be [i, j] with 1 <= i, j <= {n}, got {value!r}")


# ---------------------------------------------------------------- runners
# A runner's parameters after ``ctx`` are the keys its check entry accepts;
# a ``points`` cap of None checks the whole sample.


def _run_triple_algebra(ctx: ScenarioContext, points=None, tol=1e-12) -> tuple[bool, dict]:
    reps = _triple_algebras(ctx.triple, ctx.points[:points])
    worst_sq = max(rep.square_residual for rep in reps)
    worst_pr = max(rep.product_residual for rep in reps)
    worst_ac = max(rep.anticommute_residual for rep in reps)
    min_gram = min(abs(rep.gram_det) for rep in reps)
    worst = max(worst_sq, worst_pr, worst_ac)
    return worst < tol, {
        "tol": tol,
        "max_residual": _f(worst),
        "square_residual": _f(worst_sq),
        "product_residual": _f(worst_pr),
        "anticommute_residual": _f(worst_ac),
        "min_gram_det": _f(min_gram),
    }


def _run_classify(ctx: ScenarioContext, expected, points=None, tol=1e-6) -> tuple[bool, dict]:
    v = classify_structure(ctx.metric, ctx.triple, ctx.points[:points], tol=tol, cfg=ctx.cfg)
    return v.cls.value == expected, {
        "tol": tol,
        "expected": expected,
        "got": v.cls.value,
        "hermitian_max": _f(v.hermitian_max),
        "nabla_max": _f(v.nabla_max),
        "fit_residual_max": _f(v.fit_residual_max),
    }


def _run_kahler_fit(
    ctx: ScenarioContext, points=None, tol=1e-6, oneform_values=None, value_tol=1e-5
) -> tuple[bool, dict]:
    fits = _fits(ctx.metric, ctx.triple, ctx.points[:points], ctx.cfg)
    worst_fit = max(residual for _, residual, _ in fits)
    worst_val = 0.0
    if oneform_values is not None:
        expected = np.asarray(oneform_values, dtype=float)
        worst_val = max(float(np.abs(omega - expected).max()) for omega, _, _ in fits)
    passed = worst_fit < tol and (oneform_values is None or worst_val < value_tol)
    data = {"tol": tol, "max_fit_residual": _f(worst_fit)}
    if oneform_values is not None:
        data["value_tol"] = value_tol
        data["max_value_error"] = _f(worst_val)
    return passed, data


def _run_flatness(
    ctx: ScenarioContext, points=None, expect_flat=True, tol=1e-6, threshold=1e-2
) -> tuple[bool, dict]:
    verdict = is_flat(ctx.metric, ctx.points[:points], cfg=ctx.cfg)
    if expect_flat:
        passed = verdict.max_residual < tol
        data = {"expect_flat": True, "tol": tol, "max_residual": _f(verdict.max_residual)}
    else:
        passed = verdict.max_residual > threshold
        data = {"expect_flat": False, "threshold": threshold, "max_residual": _f(verdict.max_residual)}
    return passed, data


def _run_product_structure(
    ctx: ScenarioContext, structure, points=None, involution_tol=1e-10, metric_tol=1e-10,
    nijenhuis_below=None, nijenhuis_above=None, parallel_below=None, parallel_above=None,
) -> tuple[bool, dict]:
    F = ctx.structure(structure)
    inv = met = nij = par = 0.0
    for pt in ctx.points[:points]:
        rep = check_product_structure(ctx.metric, F, pt, ctx.cfg)
        inv = max(inv, rep.involution_residual)
        met = max(met, rep.metric_residual)
        nij = max(nij, rep.nijenhuis_residual)
        par = max(par, rep.parallel_residual)
    conditions = [inv < involution_tol, met < metric_tol]
    bounds = ((nij, nijenhuis_below, nijenhuis_above), (par, parallel_below, parallel_above))
    for value, below, above in bounds:
        if below is not None:
            conditions.append(value < below)
        if above is not None:
            conditions.append(value > above)
    return all(conditions), {
        "structure": structure,
        "involution_residual": _f(inv),
        "metric_residual": _f(met),
        "nijenhuis_residual": _f(nij),
        "parallel_residual": _f(par),
    }


def _run_sigma_invariance(ctx: ScenarioContext, structure, points=None, tol=1e-10) -> tuple[bool, dict]:
    F = ctx.structure(structure)
    worst = max(check_sigma_invariant_operator(F, ctx.triple, pt) for pt in ctx.points[:points])
    return worst < tol, {
        "structure": structure, "tol": tol, "max_residual": _f(worst),
    }


def _run_parallel_equivalence(
    ctx: ScenarioContext, structure, points=None, tol=1e-6, expect="parallel", failing_above=1e-3
) -> tuple[bool, dict]:
    F = ctx.structure(structure)
    rep = check_parallel_equivalence(ctx.metric, F, ctx.triple, ctx.points[:points], ctx.cfg, tol)
    if expect == "parallel":
        passed = rep.agree and all(rep.flags)
    else:
        residuals = (rep.parallel_residual, rep.nijenhuis_residual, rep.mixed_residual)
        passed = rep.agree and not any(rep.flags) and min(residuals) > failing_above
    return passed, {
        "structure": structure,
        "tol": tol,
        "expect": expect,
        "flags": list(rep.flags),
        "flags_agree": rep.agree,
        "parallel_residual": _f(rep.parallel_residual),
        "nijenhuis_residual": _f(rep.nijenhuis_residual),
        "mixed_residual": _f(rep.mixed_residual),
    }


def _run_vh_invariance(ctx: ScenarioContext, points=None, tol=1e-6) -> tuple[bool, dict]:
    rep = check_vh_invariance(ctx.submersion, ctx.metric, ctx.triple, ctx.target_triple, ctx.points[:points], ctx.cfg, tol)
    worst = max(rep.v_residual, rep.h_residual)
    return worst < tol, {
        "tol": tol, "v_residual": _f(rep.v_residual), "h_residual": _f(rep.h_residual),
    }


def _run_oneill(
    ctx: ScenarioContext, points=3, antisymmetry_tol=1e-5, a_below=None, a_above=None, t_below=None
) -> tuple[bool, dict]:
    max_a = anti = max_t = 0.0
    for pt in ctx.points[:points]:
        rep = oneill_tensors(ctx.submersion, ctx.metric, pt, ctx.cfg)
        max_a = max(max_a, rep.max_a_horizontal)
        anti = max(anti, rep.antisymmetry_residual)
        max_t = max(max_t, float(np.abs(rep.t_full).max()))
    conditions = [anti < antisymmetry_tol]
    if a_below is not None:
        conditions.append(max_a < a_below)
    if a_above is not None:
        conditions.append(max_a > a_above)
    if t_below is not None:
        conditions.append(max_t < t_below)
    return all(conditions), {
        "max_a_horizontal": _f(max_a),
        "antisymmetry_residual": _f(anti),
        "max_t": _f(max_t),
    }


def _run_descend_oneforms(ctx: ScenarioContext, fiber, constancy_tol=1e-6, match_tol=1e-5) -> tuple[bool, dict]:
    rep = descend_one_forms(ctx.submersion, ctx.metric, ctx.triple, [Point(ctx.chart, c) for c in fiber], ctx.cfg)
    data = {
        "constancy_tol": constancy_tol,
        "constancy_residual": _f(rep.constancy_residual),
        "fit_residual_max": _f(rep.fit_residual_max),
        "image": [_f(v) for v in rep.image.coords],
        "omega_base": [[_f(v) for v in row] for row in rep.omega_base],
    }
    passed = rep.constancy_residual < constancy_tol
    if ctx.target_triple is not None and ctx.target_metric is not None:
        down = fit_kahler_oneforms(ctx.target_metric, ctx.target_triple, rep.image, ctx.cfg)
        match = float(np.abs(rep.omega_base - down.omega).max())
        data["match_tol"] = match_tol
        data["downstairs_match_error"] = _f(match)
        passed = passed and match < match_tol
    return passed, data


def _run_bracket(
    ctx: ScenarioContext, points=2, pairs=((1, 2), (2, 3)), tol=1e-3, flip_above=None
) -> tuple[bool, dict]:
    bundle = ctx.bundle
    n = bundle.base_dim
    worst = 0.0
    flipped = 0.0
    for pt in ctx.points[:points]:
        for i, j in pairs:
            rep = check_bracket(bundle, np.eye(n)[i - 1], np.eye(n)[j - 1], pt)
            worst = max(worst, rep.max_residual)
            flipped = max(flipped, rep.hh_flipped_residual)
    passed = worst < tol and (flip_above is None or flipped > flip_above)
    data = {
        "tol": tol, "pairs": [list(q) for q in pairs],
        "max_residual": _f(worst), "max_flipped_residual": _f(flipped),
    }
    if flip_above is not None:
        data["flip_above"] = flip_above
    return passed, data


def _run_lifted_oneforms(ctx: ScenarioContext, points=3, tol=1e-5) -> tuple[bool, dict]:
    bundle = ctx.bundle
    n = bundle.base_dim
    pts = ctx.points[:points]
    fits = _fits(bundle.metric, bundle.triple, pts, ctx.cfg)
    base_fits = _fits(bundle.base_metric, bundle.base_triple, [bundle.base_point(pt) for pt in pts], ctx.cfg)
    max_u = max(float(np.abs(omega[:, n:]).max()) for omega, _, _ in fits)
    max_pull = max(float(np.abs(up[:, :n] - down).max()) for (up, _, _), (down, _, _) in zip(fits, base_fits))
    return max(max_u, max_pull) < tol, {
        "tol": tol, "max_fiber_component": _f(max_u), "max_pullback_error": _f(max_pull),
    }


def _run_parallel_witness(ctx: ScenarioContext, transition, points=3, tol=1e-6) -> tuple[bool, dict]:
    values, jets = expression_array(transition, (3, 3), ctx.chart, "parallel-witness 'transition'")
    trans = TransitionMap(s=lambda pt: values(pt.coords), label="witness transition", jets=jets)
    witness = apply_transition(ctx.triple, trans, label="witness")
    pts = ctx.points[:points]
    worst = max(
        float(np.abs(D).max()) for member in witness.fields for D in _covariant_derivatives(ctx.metric, member, pts, ctx.cfg)
    )
    return worst < tol, {"tol": tol, "max_nabla": _f(worst), "transition": transition}


def _max_residual(
    default_tol: float,
    residual: Callable[[ScenarioContext, list[Point]], float],
    default_points: int | None = None,
) -> Callable[..., tuple[bool, dict]]:
    """Runner for a check whose verdict is one residual below a tolerance."""

    def run(ctx: ScenarioContext, points=default_points, tol=default_tol) -> tuple[bool, dict]:
        worst = residual(ctx, ctx.points[:points])
        return worst < tol, {"tol": tol, "max_residual": _f(worst)}

    return run


@dataclass(frozen=True)
class CheckDef:
    name: str
    anchor: str
    description: str
    runner: Callable[..., tuple[bool, dict]]
    # what the runner reads from the geometry besides the base pair: "bundle"
    # (a sasaki geometry) or "submersion" (a submersion or a sasaki geometry,
    # whose projection is used); _validate rejects a geometry without it
    needs: str | None = None

    @cached_property
    def params(self) -> dict[str, Any]:
        """The keys a check entry accepts besides ``check``: the runner's
        parameters after the context, each with its default
        (``inspect.Parameter.empty`` when the key is required)."""
        parameters = list(inspect.signature(self.runner).parameters.values())[1:]
        return {q.name: q.default for q in parameters}


CHECKS: dict[str, CheckDef] = {
    c.name: c
    for c in (
        CheckDef(
            "triple-algebra",
            "J_a^2 = -tau_a I;  J_a J_b = tau_c J_c = -J_b J_a  (cyclic abc)",
            "Pointwise relations of the basis triple, with tau = (-1, -1, 1); "
            "also records the Frobenius Gram determinant as an independence witness.",
            _run_triple_algebra,
        ),
        CheckDef(
            "hermitian",
            "g(J_a X, Y) + g(X, J_a Y) = 0",
            "Skew-symmetry of each J_a with respect to the metric.",
            _max_residual(1e-10, lambda ctx, pts: max(_hermitians(ctx.metric, ctx.triple, pts))),
        ),
        CheckDef(
            "classify",
            "ladder: NotHermitian -> LhPK-basis -> PQK -> HermitianOnly",
            "Classifies the pair over the sample and compares with the expected class.",
            _run_classify,
        ),
        CheckDef(
            "kahler-fit",
            "nabla J_1 = -w3 x J_2 + w2 x J_3  (cyclic)",
            "Fits the connection 1-forms and checks the off-span residual; "
            "optionally compares the fitted coefficients with expected values.",
            _run_kahler_fit,
        ),
        CheckDef(
            "flatness",
            "R^l_{kij} = 0",
            "Max curvature component over the sample, against a flat or "
            "deliberately non-flat expectation.",
            _run_flatness,
        ),
        CheckDef(
            "product-structure",
            "F^2 = I;  g(F X, F Y) = g(X, Y)",
            "Involution and isometry residuals of an almost product structure, "
            "with optional bounds on its Nijenhuis tensor and covariant derivative.",
            _run_product_structure,
        ),
        CheckDef(
            "sigma-invariance",
            "F J_a = J_a F  (a = 1, 2, 3)",
            "Whether the operator commutes with the whole triple, i.e. preserves "
            "the structure bundle.",
            _run_sigma_invariance,
        ),
        CheckDef(
            "parallel-equivalence",
            "nabla F = 0  <=>  N_F = 0  <=>  (nabla_{J_a X} F) Y = (nabla_X F)(J_a Y)",
            "The three conditions must stand or fall together for a "
            "sigma-invariant operator on a PQK pair.",
            _run_parallel_equivalence,
        ),
        CheckDef(
            "semi-riemannian",
            "g(X, Y) = g'(df X, df Y)  for horizontal X, Y",
            "The differential restricted to horizontal spaces is a linear isometry.",
            _max_residual(1e-10, lambda ctx, pts: check_semi_riemannian(
                ctx.submersion, ctx.metric, ctx.target_metric, pts, ctx.cfg
            )),
            needs="submersion",
        ),
        CheckDef(
            "paraholomorphic",
            "df o J_a = J'_a o df",
            "The map intertwines the upstairs and downstairs triples.",
            _max_residual(1e-6, lambda ctx, pts: check_paraholomorphic(
                ctx.submersion, ctx.triple, ctx.target_triple, pts, ctx.cfg
            )),
            needs="submersion",
        ),
        CheckDef(
            "vh-invariance",
            "J_a(V) subset V;  J_a(H) subset H",
            "Each J_a preserves the vertical and horizontal distributions.",
            _run_vh_invariance,
            needs="submersion",
        ),
        CheckDef(
            "oneill",
            "A_X Y = h nabla_{hX} vY + v nabla_{hX} hY;  T_X Y = h nabla_{vX} vY + v nabla_{vX} hY",
            "Computes both fundamental tensors, from the exact derivative of the "
            "vertical projector; bounds the A-tensor on horizontal pairs (its "
            "antisymmetry is always enforced) and optionally the T-tensor.",
            _run_oneill,
            needs="submersion",
        ),
        CheckDef(
            "descend-oneforms",
            "w_a(basic lift of e'_alpha) is constant along each fiber",
            "Evaluates the fitted 1-forms on basic lifts at explicit fiber points "
            "and, when a target pair is present, compares with the downstairs fit.",
            _run_descend_oneforms,
            needs="submersion",
        ),
        CheckDef(
            "bracket",
            "[X^v, Y^v] = 0;  [X^h, Y^v] = (nabla_X Y)^v;  [X^h, Y^h] = -(R(X, Y) u)^v",
            "Bracket identities on the lifted frame, from the frame's exact "
            "derivative; the deliberately sign-flipped curvature comparison must "
            "stay large when curvature is present.",
            _run_bracket,
            needs="bundle",
        ),
        CheckDef(
            "sasaki-consistency",
            "nabla~ on lifts: (h,h) -> (nabla_X Y)^h - (1/2)(R(X,Y)u)^v;  "
            "(h,v) -> (nabla_X Y)^v + (1/2)(R(u,Y)X)^h;  (v,h) -> (1/2)(R(u,X)Y)^h;  (v,v) -> 0",
            "The lifted metric's own connection, exact, against the closed form on "
            "the lifted frame, in all four kind combinations.",
            _max_residual(1e-3, lambda ctx, pts: max(
                check_connection_oracle(ctx.bundle, q) for q in pts
            ), 2),
            needs="bundle",
        ),
        CheckDef(
            "sasaki-nabla-j",
            "nabla~ Jt_a on lifts: (h,h) -> ((nabla_X J_a)Y)^h - (1/2)(R(X,J_aY)u - J_a R(X,Y)u)^v;  "
            "(h,v) -> ((nabla_X J_a)Y)^v + (1/2)(R(u,J_aY)X - J_a R(u,Y)X)^h;  "
            "(v,h) -> (1/2)(R(u,X)J_aY - J_a R(u,X)Y)^h;  (v,v) -> 0",
            "The lifted triple's exact derivative under the lifted metric's own "
            "connection against the closed form on the lifted frame, for all "
            "three members.",
            _max_residual(1e-6, lambda ctx, pts: max(
                check_nabla_j_oracle(ctx.bundle, q) for q in pts
            ), 2),
            needs="bundle",
        ),
        CheckDef(
            "lifted-oneforms",
            "w~_a = pi^* w_a",
            "Fits the 1-forms upstairs and checks they are the pullbacks: fiber "
            "components vanish, base components match the downstairs fit.",
            _run_lifted_oneforms,
            needs="bundle",
        ),
        CheckDef(
            "parallel-witness",
            "exists s(p) in GL(3): the rotated triple s . J is parallel",
            "Applies the supplied transition to the triple and verifies the "
            "result is parallel — the witness that a PQK pair is parallelizable "
            "after a basis rotation.",
            _run_parallel_witness,
        ),
    )
}

# The keys each block of a scenario document may hold; a check entry holds
# ``check`` and its runner's parameters.
DOCUMENT_KEYS: dict[str, tuple[str, ...]] = {
    "scenario": ("name", "description", "expect", "seed", "points", "step", "geometry", "checks"),
    "geometry": ("dim", "coords", "domain", "metric", "triple", "sasaki", "u_box", "submersion", "target"),
    "target": ("dim", "coords", "domain", "metric", "triple"),
    "submersion": ("components",),
}


# ---------------------------------------------------------------- assembly


def load_scenario(source) -> dict:
    """Accepts a dict, a path to a JSON file, or a catalog scenario name."""
    if isinstance(source, dict):
        return source
    s = str(source)
    if os.path.exists(s):
        with open(s) as fh:
            return json.load(fh)
    if s.endswith(".json") or os.path.sep in s:
        raise ParseError(f"scenario file not found: {s}")
    return load_catalog_scenario(s)


def _known_keys(block: dict, where: str) -> None:
    for key in block:
        if key not in DOCUMENT_KEYS[where]:
            raise ParseError(f"{where} has no key {key!r}; it takes {list(DOCUMENT_KEYS[where])}")


def _validate(config) -> None:
    """Reject a malformed scenario document before any geometry is built."""
    if not isinstance(config, dict):
        raise ParseError(f"a scenario must be a JSON object, got {type(config).__name__}")
    _known_keys(config, "scenario")
    checks = config.get("checks")
    if not isinstance(checks, list) or not checks or not all(isinstance(spec, dict) for spec in checks):
        raise ParseError("'checks' must be a non-empty list of objects, one per check")
    classes = [c.value for c in StructureClass]
    for spec in checks:
        name = spec.get("check")
        if not isinstance(name, str) or name not in CHECKS:
            raise ParseError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        params = CHECKS[name].params
        for key, value in spec.items():
            if key != "check" and key not in params:
                raise ParseError(f"{name} has no parameter {key!r}; it reads {list(params)}")
            if key == "points":
                _integer(value, "a check's 'points'", 1)
            elif key in ("tol", "threshold") or key.endswith(("_tol", "_below", "_above")):
                _real(value, f"{name} '{key}'")
            elif key == "expect_flat" and not isinstance(value, bool):
                raise ParseError(f"flatness 'expect_flat' must be true or false, got {value!r}")
            elif key in ("fiber", "oneform_values"):
                _numbers(value, f"{name} '{key}'")
            elif key == "expected" and value not in classes:
                raise ParseError(f"classify 'expected' must be one of {classes}, got {value!r}")
            elif key == "expect" and value not in ("parallel", "non-parallel"):
                raise ParseError(f"{name} 'expect' must be 'parallel' or 'non-parallel', got {value!r}")
        for key, default in params.items():
            if default is inspect.Parameter.empty and key not in spec:
                raise ParseError(f"{name} needs the parameter {key!r}")
    if config.get("expect", "pass") not in ("pass", "fail"):
        raise ParseError("expect must be 'pass' or 'fail'")
    geo = config.get("geometry")
    if not isinstance(geo, dict):
        raise ParseError("scenario needs a 'geometry' block")
    for block, where in ((geo, "geometry"), (geo.get("target"), "target")):
        if block is not None:
            if not isinstance(block, dict) or "dim" not in block:
                raise ParseError(f"{where} needs a 'dim'")
            _known_keys(block, where)
            _integer(block["dim"], f"{where} 'dim'", 1)
            coords = block.get("coords", [])
            if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
                raise ParseError(f"{where} 'coords' must be a list of names, got {coords!r}")
            if "domain" in block:
                _numbers(block["domain"], f"{where} 'domain'")
    if "u_box" in geo:
        _numbers(geo["u_box"], "'u_box'")
    if not isinstance(geo.get("sasaki", False), bool):
        raise ParseError(f"'sasaki' must be true or false, got {geo['sasaki']!r}")
    if not isinstance(geo.get("submersion", {}), dict):
        raise ParseError("'submersion' must be an object {\"components\": [expr, ...]}")
    _known_keys(geo.get("submersion", {}), "submersion")
    sasaki = geo.get("sasaki", False)
    if sasaki and "submersion" in geo:
        raise ParseError("a geometry cannot set both 'sasaki' and 'submersion'")
    if "submersion" in geo and "target" not in geo:
        raise ParseError("a submersion geometry needs a 'target' block")
    n = geo["dim"]  # the base dimension of a sasaki geometry
    for spec in checks:
        name, cdef = spec["check"], CHECKS[spec["check"]]
        if cdef.needs == "bundle" and not sasaki:
            raise ValidationError(f"check {name!r} needs a geometry with \"sasaki\": true")
        if cdef.needs == "submersion" and not (sasaki or "submersion" in geo):
            raise ValidationError(
                f"check {name!r} needs a submersion (or a sasaki geometry, whose projection is used)"
            )
        if "pairs" in cdef.params:
            _index_pairs(spec.get("pairs", cdef.params["pairs"]), n, f"{name} 'pairs'")
        if "oneform_values" in spec:
            # one 1-form per member, on the working chart (the bundle's for sasaki)
            dim = 2 * n if sasaki else n
            if np.shape(spec["oneform_values"]) != (3, dim):
                raise ValidationError(
                    f"{name} 'oneform_values' must be 3 rows of {dim} numbers, got {spec['oneform_values']!r}"
                )
    for key, least in (("seed", 0), ("points", 1)):
        if key in config:
            _integer(config[key], f"'{key}'", least)
    if "step" in config:
        _real(config["step"], "'step'")


def build_context(
    config: dict,
    seed: int | None = None,
    step: float | None = None,
    points: int | None = None,
) -> ScenarioContext:
    """The geometry, sample and step of a scenario document; seed,
    step and points override the document's.  The document is validated
    first."""
    _validate(config)
    geo = config["geometry"]
    chart = make_chart(int(geo["dim"]), geo.get("coords"), geo.get("domain"))
    metric = metric_from_config(geo.get("metric", "neutral4"), chart)
    triple = triple_from_config(geo.get("triple", "standard4"), chart)
    seed = int(config.get("seed", 0)) if seed is None else int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    step = float(config.get("step", FdConfig().step)) if step is None else float(step)
    n_points = int(config.get("points", DEFAULT_POINTS)) if points is None else int(points)
    cfg = FdConfig(step=step)

    bundle = None
    submersion = None
    target_metric = None
    target_triple = None
    working_chart, working_metric, working_triple = chart, metric, triple

    if geo.get("sasaki"):
        bundle = build_tangent_bundle(
            metric, triple, u_box=geo.get("u_box", (-1.0, 1.0)), cfg=cfg
        )
        working_chart = bundle.spec
        working_metric = bundle.metric
        working_triple = bundle.triple
        submersion = bundle.projection
        target_metric, target_triple = metric, triple
    elif "submersion" in geo:
        sub = geo["submersion"]
        tgt = geo["target"]
        target_chart = make_chart(int(tgt["dim"]), tgt.get("coords"), tgt.get("domain"))
        target_metric = metric_from_config(tgt.get("metric", "neutral4"), target_chart)
        target_triple = triple_from_config(tgt.get("triple", "standard4"), target_chart)
        components, jets = expression_array(
            sub.get("components"), (target_chart.dim,), chart, "submersion 'components'"
        )
        submersion = SubmersionMap(
            source=chart,
            target=target_chart,
            components=components,
            label=config.get("name", "submersion"),
            jets=jets,
        )

    return ScenarioContext(
        chart=working_chart,
        metric=working_metric,
        triple=working_triple,
        points=sample_points(working_chart, n_points, seed, margin=MARGIN_STEPS * cfg.step),
        cfg=cfg,
        seed=seed,
        bundle=bundle,
        submersion=submersion,
        target_metric=target_metric,
        target_triple=target_triple,
    )


def run_scenario(
    source,
    seed: int | None = None,
    step: float | None = None,
    points: int | None = None,
    timestamp: str | None = None,
) -> VerificationReport:
    config = load_scenario(source)
    ctx = build_context(config, seed, step, points)
    expect = config.get("expect", "pass")
    results: list[CheckResult] = []
    for spec in config["checks"]:
        cdef = CHECKS[spec["check"]]
        params = {k: v for k, v in spec.items() if k != "check"}
        try:
            passed, data = cdef.runner(ctx, **params)
            note = ""
        except (ParseError, ValidationError):
            # malformed check parameters are a configuration problem, not a
            # verification outcome — let the caller exit with a usage error
            raise
        except ParaquatError as exc:
            passed, data, note = False, {"error": type(exc).__name__}, str(exc)
        results.append(CheckResult(cdef.name, cdef.anchor, passed, data, note))
    overall = all(r.passed for r in results)
    # an error is never the failure a negative control documents
    errored = any("error" in r.data for r in results)
    final = overall if expect == "pass" else not (overall or errored)
    env = {
        "package": f"paraquat {__version__}",
        "seed": ctx.seed,
        "step": ctx.cfg.step,
        "points": len(ctx.points),
    }
    generated = timestamp or _dt.datetime.now(_dt.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
    return VerificationReport(
        scenario=config.get("name", "unnamed"),
        description=config.get("description", ""),
        expect=expect,
        environment=env,
        generated_at=generated,
        checks=results,
        overall=overall,
        final=final,
    )
