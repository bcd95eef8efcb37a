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
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from ._version import __version__
from .algebra import LocalBasisTriple, TransitionMap, apply_transition, check_triple_algebra
from .catalog import (
    _coords,
    expression_array,
    load_catalog_scenario,
    make_chart,
    metric_from_config,
    structure_from_config,
    triple_from_config,
)
from .connection import MetricField, covariant_derivatives, riemann
from .errors import EvaluationError, ParaquatError, ParseError, ValidationError
from .fields import DEFAULT_STEP, ManifoldSpec, Point, _point, sample_points
from .structures import (
    ProductStructureField,
    StructureClass,
    check_hermitian,
    check_parallel_equivalence,
    check_product_structure,
    check_sigma_invariant_operator,
    classify_structure,
    fit_kahler_oneforms,
)

if TYPE_CHECKING:
    from .sasaki import SasakiBundle
    from .submersion import SubmersionMap

# sasaki and submersion load with the first geometry or check that needs
# them: a base or expression run never imports them.  Each runner imports
# what it calls in its own body, so a call reads the module attribute and
# never keeps a stale binding in this module.

DEFAULT_POINTS = 5


class ScenarioContext(NamedTuple):
    """Everything a check runner may need, a NamedTuple built once per run
    by ``build_context``; only its ``structures`` memo fills as checks ask."""

    chart: ManifoldSpec
    metric: MetricField
    triple: LocalBasisTriple
    points: list[Point]
    step: float  # the sampling margin's unit, and the report's step
    seed: int
    structures: dict  # the run's product structures by spec, filled by ``structure``
    bundle: SasakiBundle | None = None
    submersion: SubmersionMap | None = None
    target_metric: MetricField | None = None
    target_triple: LocalBasisTriple | None = None

    def structure(self, spec) -> ProductStructureField:
        """The product structure ``spec`` describes, built once per run, so
        that the checks of a run share the derivatives memoised for it."""
        key = json.dumps(spec, sort_keys=True)
        if key not in self.structures:
            self.structures[key] = structure_from_config(spec, self.chart)
        return self.structures[key]


class CheckResult(NamedTuple):
    """One check of a report: its verdict, its data and any error note."""

    name: str
    anchor: str
    passed: bool
    data: dict[str, Any]
    note: str = ""

    def to_dict(self) -> dict:
        out = self._asdict()  # the fields in report order
        if not self.note:
            del out["note"]
        return out


class VerificationReport(NamedTuple):
    """A run's report, one JSON document (``to_json``); a NamedTuple, read by name."""

    scenario: str
    description: str
    expect: str
    environment: dict
    generated_at: str
    checks: list[CheckResult]
    overall: bool
    final: bool

    def to_dict(self) -> dict:
        # the fields in report order; "checks" keeps its place
        return {**self._asdict(), "checks": [c.to_dict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _integer(value, what: str, least: int) -> int:
    # bool is a subclass of int, and JSON gives 2.7 as a float
    if type(value) is not int or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _real(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _from_below(key: str) -> bool:
    """Whether a check entry's bound is a floor its value must exceed
    (``threshold``, ``*_above``) rather than a ceiling it must stay under
    (``tol``, ``*_tol``, ``*_below``)."""
    return key == "threshold" or key.endswith("_above")


def _numbers(value, what: str) -> None:
    # the shape is checked where the array is used
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim < 1 or not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be a list of finite numbers, got {value!r}")


def _index_pairs(value, n: int, what: str) -> None:
    # a 0 would wrap round to the last direction, and no pair would check
    # nothing and pass; [i, i] is a pair, whose (h, v) bracket reads Gamma^k_ii
    if not isinstance(value, (list, tuple)) or not value or not all(
        isinstance(q, (list, tuple)) and len(q) == 2 and all(type(i) is int and 1 <= i <= n for i in q)
        for q in value
    ):
        raise ValidationError(f"{what} must be a non-empty list of [i, j] with 1 <= i, j <= {n}, got {value!r}")


# ---------------------------------------------------------------- runners
# A runner's parameters after ``ctx`` are the keys its check entry accepts;
# a ``points`` cap of None checks the whole sample.  Each runner returns the
# verdict and data that ``_judge`` makes of its report entries.


def _judge(*entries) -> tuple[bool, dict]:
    """A check entry's verdict and data from its report entries, in report
    order: ``(key, value)`` records a value, and ``(key, bound, value)``
    records a bound on the value, which holds when the value exceeds it
    (``threshold``, ``*_above``) or stays under it (``tol``, ``*_tol``,
    ``*_below``).  An entry whose bound or value is None is left out, and
    the check passes when every bound it records holds.  A value that is not
    finite, nested lists included, raises EvaluationError naming its key."""
    passed, data = True, {}
    for key, *rest in entries:
        if any(x is None for x in rest):
            continue
        if not _finite(rest[-1]):
            raise EvaluationError(f"non-finite value at {key!r}: {rest[-1]}")
        data[key] = rest[0]
        if len(rest) == 2:
            bound, value = rest
            passed = passed and (value > bound if _from_below(key) else value < bound)
    return passed, data


def _finite(value) -> bool:
    """Whether every float in a value, nested lists and tuples included, is finite."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _worst(report, *names: str) -> list[float]:
    """The largest value over the sample of each named residual stack of a report."""
    return [float(getattr(report, name).max()) for name in names]


def _run_triple_algebra(ctx: ScenarioContext, points=None, tol=1e-12) -> tuple[bool, dict]:
    rep = check_triple_algebra(ctx.triple, ctx.points[:points])
    worst, sq, pr, ac = _worst(rep, "max_residual", "square_residual", "product_residual", "anticommute_residual")
    return _judge(
        ("tol", tol, worst), ("max_residual", worst),
        ("square_residual", sq), ("product_residual", pr), ("anticommute_residual", ac),
        ("min_gram_det", float(np.abs(rep.gram_det).min())),
    )


def _run_classify(ctx: ScenarioContext, expected, points=None, tol=1e-6) -> tuple[bool, dict]:
    v = classify_structure(ctx.metric, ctx.triple, ctx.points[:points], tol=tol)
    _, data = _judge(
        ("tol", tol), ("expected", expected), ("got", v.cls.value),
        ("hermitian_max", float(v.hermitian_max)), ("nabla_max", float(v.nabla_max)),
        ("fit_residual_max", float(v.fit_residual_max)),
    )
    return v.cls.value == expected, data


def _run_kahler_fit(
    ctx: ScenarioContext, points=None, tol=1e-6, oneform_values=None, value_tol=1e-5
) -> tuple[bool, dict]:
    fit = fit_kahler_oneforms(ctx.metric, ctx.triple, ctx.points[:points])
    (worst_fit,) = _worst(fit, "residual")
    worst_val = None
    if oneform_values is not None:
        worst_val = float(np.abs(fit.omega - np.asarray(oneform_values, dtype=float)).max())
    return _judge(
        ("tol", tol, worst_fit), ("max_fit_residual", worst_fit),
        ("value_tol", value_tol, worst_val), ("max_value_error", worst_val),
    )


def _run_flatness(
    ctx: ScenarioContext, points=None, expect_flat=True, tol=1e-6, threshold=1e-2
) -> tuple[bool, dict]:
    worst = float(np.abs(riemann(ctx.metric, ctx.points[:points])).max())
    return _judge(
        ("expect_flat", expect_flat),
        ("tol", tol if expect_flat else None, worst), ("threshold", None if expect_flat else threshold, worst),
        ("max_residual", worst),
    )


def _run_product_structure(
    ctx: ScenarioContext, structure, points=None, involution_tol=1e-10, metric_tol=1e-10,
    nijenhuis_below=None, nijenhuis_above=None, parallel_below=None, parallel_above=None,
) -> tuple[bool, dict]:
    rep = check_product_structure(ctx.metric, ctx.structure(structure), ctx.points[:points])
    inv, met, nij, par = _worst(
        rep, "involution_residual", "metric_residual", "nijenhuis_residual", "parallel_residual"
    )
    return _judge(
        ("structure", structure),
        ("involution_tol", involution_tol, inv), ("involution_residual", inv),
        ("metric_tol", metric_tol, met), ("metric_residual", met),
        ("nijenhuis_below", nijenhuis_below, nij), ("nijenhuis_above", nijenhuis_above, nij),
        ("nijenhuis_residual", nij),
        ("parallel_below", parallel_below, par), ("parallel_above", parallel_above, par),
        ("parallel_residual", par),
    )


def _run_sigma_invariance(ctx: ScenarioContext, structure, points=None, tol=1e-10) -> tuple[bool, dict]:
    worst = float(check_sigma_invariant_operator(ctx.structure(structure), ctx.triple, ctx.points[:points]).max())
    return _judge(("structure", structure), ("tol", tol, worst), ("max_residual", worst))


def _run_parallel_equivalence(
    ctx: ScenarioContext, structure, points=None, tol=1e-6, expect="parallel", failing_above=1e-3
) -> tuple[bool, dict]:
    F = ctx.structure(structure)
    rep = check_parallel_equivalence(ctx.metric, F, ctx.triple, ctx.points[:points], tol)
    par, nij, mix = float(rep.parallel_residual), float(rep.nijenhuis_residual), float(rep.mixed_residual)
    passed, data = _judge(
        ("structure", structure), ("tol", tol), ("expect", expect),
        ("flags", list(rep.flags)), ("flags_agree", rep.agree),
        ("failing_above", failing_above if expect == "non-parallel" else None, min(par, nij, mix)),
        ("parallel_residual", par), ("nijenhuis_residual", nij), ("mixed_residual", mix),
    )
    # the three flags stand or fall together, as expected
    return passed and set(rep.flags) == {expect == "parallel"}, data


def _run_vh_invariance(ctx: ScenarioContext, points=None, tol=1e-6) -> tuple[bool, dict]:
    from .submersion import check_vh_invariance

    rep = check_vh_invariance(ctx.submersion, ctx.metric, ctx.triple, ctx.target_triple, ctx.points[:points], tol)
    v, h = _worst(rep, "v_residual", "h_residual")
    return _judge(("tol", tol, max(v, h)), ("v_residual", v), ("h_residual", h))


def _run_oneill(
    ctx: ScenarioContext, points=3, antisymmetry_tol=1e-5, a_below=None, a_above=None, t_below=None
) -> tuple[bool, dict]:
    from .submersion import oneill_tensors

    rep = oneill_tensors(ctx.submersion, ctx.metric, ctx.points[:points])
    max_a, anti, max_t = _worst(rep, "max_a_horizontal", "antisymmetry_residual", "max_t")
    return _judge(
        ("a_below", a_below, max_a), ("a_above", a_above, max_a), ("max_a_horizontal", max_a),
        ("antisymmetry_tol", antisymmetry_tol, anti), ("antisymmetry_residual", anti),
        ("t_below", t_below, max_t), ("max_t", max_t),
    )


def _run_descend_oneforms(ctx: ScenarioContext, fiber, constancy_tol=1e-6, match_tol=1e-5) -> tuple[bool, dict]:
    from .submersion import descend_one_forms

    rep = descend_one_forms(ctx.submersion, ctx.metric, ctx.triple, [Point(ctx.chart, c) for c in fiber])
    down = fit_kahler_oneforms(ctx.target_metric, ctx.target_triple, [rep.image])
    match = float(np.abs(rep.omega_base - down.omega[0]).max())
    return _judge(
        ("constancy_tol", constancy_tol, rep.constancy_residual), ("constancy_residual", float(rep.constancy_residual)),
        ("fit_residual_max", float(rep.fit_residual_max)),
        ("image", [float(v) for v in rep.image.coords]),
        ("omega_base", [[float(v) for v in row] for row in rep.omega_base]),
        ("match_tol", match_tol, match), ("downstairs_match_error", match),
    )


def _run_bracket(
    ctx: ScenarioContext, points=2, pairs=((1, 2), (2, 3)), tol=1e-3, flip_above=None
) -> tuple[bool, dict]:
    from .sasaki import check_bracket

    e = np.eye(ctx.bundle.base_dim)
    rep = check_bracket(ctx.bundle, [(e[i - 1], e[j - 1]) for i, j in pairs], ctx.points[:points])
    worst, flipped = _worst(rep, "max_residual", "hh_flipped_residual")
    return _judge(
        ("tol", tol, worst), ("pairs", [list(q) for q in pairs]), ("max_residual", worst),
        ("max_flipped_residual", flipped), ("flip_above", flip_above, flipped),
    )


def _run_lifted_oneforms(ctx: ScenarioContext, points=3, tol=1e-5) -> tuple[bool, dict]:
    bundle = ctx.bundle
    n = bundle.base_dim
    pts = ctx.points[:points]
    up = fit_kahler_oneforms(bundle.metric, bundle.triple, pts).omega
    down = fit_kahler_oneforms(bundle.base_metric, bundle.base_triple, [bundle.base_point(pt) for pt in pts]).omega
    max_u = float(np.abs(up[:, :, n:]).max())
    max_pull = float(np.abs(up[:, :, :n] - down).max())
    return _judge(
        ("tol", tol, max(max_u, max_pull)), ("max_fiber_component", max_u), ("max_pullback_error", max_pull)
    )


def _run_parallel_witness(ctx: ScenarioContext, transition, points=3, tol=1e-6) -> tuple[bool, dict]:
    values, jets = expression_array(transition, (3, 3), ctx.chart, "parallel-witness 'transition'")
    trans = TransitionMap(s=lambda pts: values(_coords(pts)), label="witness transition", jets=jets)
    witness = apply_transition(ctx.triple, trans, label="witness")
    pts = ctx.points[:points]
    worst = float(np.abs(covariant_derivatives(ctx.metric, witness, pts)).max())
    return _judge(("tol", tol, worst), ("max_nabla", worst), ("transition", transition))


def _semi_riemannian_residual(ctx: ScenarioContext, pts: list[Point]) -> np.ndarray:
    from .submersion import check_semi_riemannian

    return check_semi_riemannian(ctx.submersion, ctx.metric, ctx.target_metric, pts)


def _paraholomorphic_residual(ctx: ScenarioContext, pts: list[Point]) -> np.ndarray:
    from .submersion import check_paraholomorphic

    return check_paraholomorphic(ctx.submersion, ctx.triple, ctx.target_triple, pts)


def _connection_oracle_residual(ctx: ScenarioContext, pts: list[Point]) -> np.ndarray:
    from .sasaki import check_connection_oracle

    return check_connection_oracle(ctx.bundle, pts)


def _nabla_j_oracle_residual(ctx: ScenarioContext, pts: list[Point]) -> np.ndarray:
    from .sasaki import check_nabla_j_oracle

    return check_nabla_j_oracle(ctx.bundle, pts)


def _max_residual(
    default_tol: float,
    residual: Callable[[ScenarioContext, list[Point]], np.ndarray],
    default_points: int | None = None,
) -> Callable[..., tuple[bool, dict]]:
    """Runner for a check whose verdict is its largest per-point residual
    below a tolerance."""

    def run(ctx: ScenarioContext, points=default_points, tol=default_tol) -> tuple[bool, dict]:
        worst = float(residual(ctx, ctx.points[:points]).max())
        return _judge(("tol", tol, worst), ("max_residual", worst))

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
            _max_residual(1e-10, lambda ctx, pts: check_hermitian(ctx.metric, ctx.triple, pts)),
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
            _max_residual(1e-10, _semi_riemannian_residual),
            needs="submersion",
        ),
        CheckDef(
            "paraholomorphic",
            "df o J_a = J'_a o df",
            "The map intertwines the upstairs and downstairs triples.",
            _max_residual(1e-6, _paraholomorphic_residual),
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
            _max_residual(1e-3, _connection_oracle_residual, 2),
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
            _max_residual(1e-6, _nabla_j_oracle_residual, 2),
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
    for key in ("name", "description"):
        if not isinstance(config.get(key, ""), str):
            raise ParseError(f"'{key}' must be a string, got {config[key]!r}")
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
                # a residual is >= 0: a ceiling <= 0 never holds, a floor < 0 always does
                floor = _from_below(key)
                if value < 0 or (value == 0 and not floor):
                    raise ValidationError(f"{name} '{key}' must be {'>= 0' if floor else '> 0'}, got {value!r}")
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
        # a bound that the entry's own switch turns off is never read
        flat = spec.get("expect_flat", True)
        switched = {
            ("flatness", "tol"): (not flat, '"expect_flat": true'),
            ("flatness", "threshold"): (flat, '"expect_flat": false'),
            ("kahler-fit", "value_tol"): ("oneform_values" not in spec, "'oneform_values'"),
            ("parallel-equivalence", "failing_above"): (
                spec.get("expect") != "non-parallel", '"expect": "non-parallel"'
            ),
        }
        for (check, key), (off, setting) in switched.items():
            if name == check and key in spec and off:
                raise ParseError(f"{name} reads '{key}' only with {setting}")
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
    if "target" in geo and "submersion" not in geo:
        raise ParseError("a 'target' block is read only beside a 'submersion' (a sasaki geometry's target is its base)")
    if "u_box" in geo and not sasaki:
        raise ParseError("'u_box' is read only with \"sasaki\": true")
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


def build_context(
    config: dict,
    seed: int | None = None,
    step: float | None = None,
    points: int | None = None,
) -> ScenarioContext:
    """The geometry, sample and step of a scenario document; seed,
    step and points override the document's.  The step sets the sampling
    margin (10 steps from every wall) and nothing else.  The document is
    validated first, and each of the three values, the override, else the
    document's, else the default, is checked once (an integer seed >= 0
    and size >= 1, a finite step > 0).  The sample is then drawn on the
    working chart before any geometry is built, so a step or size that
    leaves no sample, or a check's ``points`` cap above the size, is a
    configuration error before any numerics; the explicit fiber points are
    checked against the working chart once the geometry is built."""
    _validate(config)
    seed = _integer(config.get("seed", 0) if seed is None else seed, "'seed'", 0)
    n_points = _integer(config.get("points", DEFAULT_POINTS) if points is None else points, "'points'", 1)
    for spec in config["checks"]:
        if spec.get("points", 0) > n_points:
            raise ValidationError(
                f"check {spec['check']!r} caps 'points' at {spec['points']}, above the sample size {n_points}"
            )
    step = config.get("step", DEFAULT_STEP) if step is None else step
    _real(step, "'step'")
    step = float(step)
    if step <= 0:
        raise ValidationError(f"step must be finite and positive, got {step}")
    geo = config["geometry"]
    chart = make_chart(int(geo["dim"]), geo.get("coords"), geo.get("domain"))
    u_box = geo.get("u_box", (-1.0, 1.0))
    working_chart = chart
    if geo.get("sasaki"):
        from .sasaki import tangent_bundle_chart

        working_chart = tangent_bundle_chart(chart, u_box)
    sample = sample_points(working_chart, n_points, seed, step)
    metric = metric_from_config(geo.get("metric", "neutral4"), chart)
    triple = triple_from_config(geo.get("triple", "standard4"), chart)

    bundle = submersion = target_metric = target_triple = None
    working_metric, working_triple = metric, triple

    if geo.get("sasaki"):
        from .sasaki import build_tangent_bundle

        bundle = build_tangent_bundle(metric, triple, u_box=u_box)
        # the same coordinates on the bundle's own chart, whose memos compare charts by identity
        working_chart = bundle.spec
        sample = [_point(working_chart, q.coords) for q in sample]
        working_metric = bundle.metric
        working_triple = bundle.triple
        submersion = bundle.projection
        target_metric, target_triple = metric, triple
    elif "submersion" in geo:
        from .submersion import SubmersionMap

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

    # an explicit fiber point is used anywhere in the working chart's closed
    # box; one outside it is rejected before any check runs
    for spec in config["checks"]:
        if spec["check"] == "descend-oneforms":
            for row in spec["fiber"]:
                if np.shape(row) != (working_chart.dim,) or not working_chart.contains([row])[0]:
                    raise ValidationError(f"descend-oneforms fiber point {row!r} is not a point of {working_chart}")
    return ScenarioContext(
        chart=working_chart,
        metric=working_metric,
        triple=working_triple,
        points=sample,
        step=step,
        seed=seed,
        structures={},
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
    with np.errstate(all="ignore"):  # a NaN or inf is for _judge or a precondition to report
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
        "step": ctx.step,
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
