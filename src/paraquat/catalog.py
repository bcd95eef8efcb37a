"""Named geometry ingredients and the shipped scenario files.

Scenario JSON refers to metrics, triples and product structures by the names
registered here, or supplies component matrices of expression strings (see
:mod:`paraquat.exprlang`).  Every constructor validates the chart dimension it
is instantiated on.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .algebra import LocalBasisTriple, doubled
from .connection import MetricField
from .errors import ParseError, ValidationError
from .exprlang import Expr, compile_with_jets, parse_expr
from .fields import ManifoldSpec, Point, TensorField, _check_list, constant_field
from .structures import ProductStructureField

ETA4 = np.diag([1.0, 1.0, -1.0, -1.0])
ETA8 = doubled(ETA4)

# The standard triple on R^{2,2}: J3 rotates the (12) and (34) planes in
# opposite senses, J1 swaps the factors, J2 = J1 J3.  All three are
# eta-skew, J1^2 = J2^2 = I, J3^2 = -I.
STD_J3 = np.array(
    [[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
)
STD_J1 = np.array(
    [[0.0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
)
STD_J2 = STD_J1 @ STD_J3


def make_chart(
    dim: int,
    coords: Sequence[str] | None = None,
    domain: Sequence[Sequence[float]] | None = None,
) -> ManifoldSpec:
    """Chart with default names x1..xn and default box [-1, 1]^n."""
    names = tuple(coords) if coords is not None else tuple(f"x{i + 1}" for i in range(dim))
    if len(names) != dim:
        raise ValidationError(f"{len(names)} coordinate names for dim {dim}")
    box = (
        np.asarray(domain, dtype=float)
        if domain is not None
        else np.array([[-1.0, 1.0]] * dim)
    )
    return ManifoldSpec(names, box)


def _require_dim(chart: ManifoldSpec, dim: int, what: str) -> None:
    if chart.dim != dim:
        raise ValidationError(f"{what} needs a {dim}-dim chart, got {chart.dim}")


def _turning(chart: ManifoldSpec, coord: int, rate: float, A: np.ndarray, B: np.ndarray, label: str) -> TensorField:
    """The (1,1) field cos(t) A + sin(t) B with t = rate x_coord, with exact
    jets: its k-th partial along x_coord is rate^k (cos(t + k pi/2) A +
    sin(t + k pi/2) B), and every other partial is 0."""
    n = chart.dim

    def angles(points: Sequence[Point]) -> np.ndarray:
        _check_list(points)
        return rate * np.array([p.coords[coord] for p in points])[:, None, None]

    def at(t: np.ndarray) -> np.ndarray:
        return np.cos(t) * A + np.sin(t) * B

    def jets(points: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        t = angles(points)
        out = []
        for k in range(order + 1):
            D = np.zeros((len(points),) + (n,) * k + (n, n))
            D[(slice(None),) + (coord,) * k] = rate**k * at(t + k * np.pi / 2)
            out.append(D)
        return tuple(out)

    return TensorField(chart, 1, 1, lambda points: at(angles(points)), label, jets=jets)


def _rotated_triple(chart: ManifoldSpec, coord: int, product: bool) -> LocalBasisTriple:
    """standard4, doubled for a product, rotated in the span of (J1, J2) by
    the coordinate ``coord``; J3 stays constant."""
    J1, J2, J3 = (doubled(J) if product else J for J in (STD_J1, STD_J2, STD_J3))
    label = (lambda a: f"J{a}'+J{a}'") if product else (lambda a: f"J{a}'")
    return LocalBasisTriple(
        _turning(chart, coord, 1.0, J1, J2, label(1)),
        _turning(chart, coord, 1.0, J2, -J1, label(2)),
        constant_field(chart, 1, 1, J3, label(3)),
    )


def _metric_neutral4(chart: ManifoldSpec) -> MetricField:
    _require_dim(chart, 4, "neutral4")
    return MetricField(constant_field(chart, 0, 2, ETA4, "neutral4"))


def _metric_euclidean4(chart: ManifoldSpec) -> MetricField:
    _require_dim(chart, 4, "euclidean4")
    return MetricField(constant_field(chart, 0, 2, np.eye(4), "euclidean4"))


def _metric_conformal_neutral4(chart: ManifoldSpec) -> MetricField:
    """exp(2 x1) eta, as an expression metric."""
    _require_dim(chart, 4, "conformal-neutral4")
    f = f"exp(2*{chart.coords[0]})"
    rows = [[(f if r < 2 else f"-{f}") if r == c else "0" for c in range(4)] for r in range(4)]
    return MetricField(_expression_field(rows, chart, 0, 2, "conformal-neutral4"))


def _metric_neutral8(chart: ManifoldSpec) -> MetricField:
    _require_dim(chart, 8, "neutral8")
    return MetricField(constant_field(chart, 0, 2, ETA8, "neutral8"))


METRICS: dict[str, Callable[[ManifoldSpec], MetricField]] = {
    "neutral4": _metric_neutral4,
    "euclidean4": _metric_euclidean4,
    "conformal-neutral4": _metric_conformal_neutral4,
    "neutral8": _metric_neutral8,
}


def _triple_standard4(chart: ManifoldSpec) -> LocalBasisTriple:
    _require_dim(chart, 4, "standard4")
    return LocalBasisTriple(
        constant_field(chart, 1, 1, STD_J1, "J1"),
        constant_field(chart, 1, 1, STD_J2, "J2"),
        constant_field(chart, 1, 1, STD_J3, "J3"),
    )


def _triple_rotated4(chart: ManifoldSpec) -> LocalBasisTriple:
    """standard4 rotated in the span of (J1, J2) by the first coordinate."""
    _require_dim(chart, 4, "rotated4")
    return _rotated_triple(chart, 0, product=False)


def _triple_product8(chart: ManifoldSpec) -> LocalBasisTriple:
    _require_dim(chart, 8, "product8")
    return LocalBasisTriple(
        constant_field(chart, 1, 1, doubled(STD_J1), "J1+J1"),
        constant_field(chart, 1, 1, doubled(STD_J2), "J2+J2"),
        constant_field(chart, 1, 1, doubled(STD_J3), "J3+J3"),
    )


def _triple_product8_rotated(chart: ManifoldSpec) -> LocalBasisTriple:
    """Both factors rotated by the first base coordinate; descends through the
    first-factor projection onto rotated4."""
    _require_dim(chart, 8, "product8-rotated")
    return _rotated_triple(chart, 0, product=True)


def _triple_product8_fiber_rotated(chart: ManifoldSpec) -> LocalBasisTriple:
    """Rotation angle taken from the fifth coordinate — a fiber coordinate of
    the first-factor projection, so the pair upstairs stays PQK while nothing
    downstairs matches it."""
    _require_dim(chart, 8, "product8-fiber-rotated")
    return _rotated_triple(chart, 4, product=True)


TRIPLES: dict[str, Callable[[ManifoldSpec], LocalBasisTriple]] = {
    "standard4": _triple_standard4,
    "rotated4": _triple_rotated4,
    "product8": _triple_product8,
    "product8-rotated": _triple_product8_rotated,
    "product8-fiber-rotated": _triple_product8_fiber_rotated,
}


def _structure_split8(chart: ManifoldSpec) -> ProductStructureField:
    _require_dim(chart, 8, "split8")
    F = np.diag([1.0] * 4 + [-1.0] * 4)
    return ProductStructureField(constant_field(chart, 1, 1, F, "split8"), "split8")


def _structure_split8_rotated(chart: ManifoldSpec) -> ProductStructureField:
    """split8 conjugated by a factor-mixing rotation of angle 0.1 x2, that is
    [[c, s], [s, -c]] blockwise with (c, s) = (cos, sin)(0.2 x2): still an
    isometric involution commuting with the product triple, no longer
    parallel or integrable."""
    _require_dim(chart, 8, "split8-rotated")
    eye, zero = np.eye(4), np.zeros((4, 4))
    A, B = np.block([[eye, zero], [zero, -eye]]), np.block([[zero, eye], [eye, zero]])
    return ProductStructureField(_turning(chart, 1, 0.2, A, B, "split8-rotated"), "split8-rotated")


STRUCTURES: dict[str, Callable[[ManifoldSpec], ProductStructureField]] = {
    "split8": _structure_split8,
    "split8-rotated": _structure_split8_rotated,
}


def _parsed(entries, shape: tuple[int, ...], what: str):
    """The expression trees of a nested list of strings, in order; the
    nesting is checked against ``shape`` as the trees are taken.  Each
    distinct text is parsed once, at its first entry: a symmetric matrix
    repeats its off-diagonal texts, and a diagonal one its zeros."""
    trees: dict[str, Expr] = {}

    def leaves(node, dims: tuple[int, ...]):
        if not dims:
            text = str(node)
            if text not in trees:
                trees[text] = parse_expr(text)
            yield trees[text]
            return
        if not isinstance(node, (list, tuple)) or len(node) != dims[0]:
            raise ParseError(f"{what} must be nested lists of expressions of shape {shape}")
        for item in node:
            yield from leaves(item, dims[1:])

    return leaves(entries, shape)


def _coords(points: Sequence[Point]) -> np.ndarray:
    """The coordinates of a list of points, one row each; a bare Point
    raises ValidationError (``fields._check_list``)."""
    _check_list(points)
    return np.array([q.coords for q in points])


def expression_array(
    entries, shape: tuple[int, ...], chart: ManifoldSpec, what: str
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable]:
    """A nested list of expression strings as (values, jets).

    ``values`` maps an (N, dim) stack of the chart's coordinate vectors to
    the entries there, an (N, *shape) array, each row the same bit for bit
    as alone; ``jets`` gives their exact partials to order 3 from the same
    trees (no Hessian for order 1).  Both come from ``compile_with_jets``.
    ``jets`` is called as ``jets(points, order)`` with ``TensorField.jets``'
    convention: order + 1 stacked arrays, the partial axes first, then
    ``shape``.

    The nesting is checked against ``shape`` and every entry is parsed and
    bound here, in order, so a malformed array fails with ParseError at
    scenario-build time rather than mid-run.
    """
    n = chart.dim
    walk, jets = compile_with_jets(_parsed(entries, shape, what), chart.coords)

    def values(C: np.ndarray) -> np.ndarray:
        return walk(C).reshape(len(C), *shape)

    def point_jets(points, order):
        arrays = jets(_coords(points), max(order, 1))[: order + 1]
        return tuple(A.reshape(len(points), *(n,) * k, *shape) for k, A in enumerate(arrays))

    return values, point_jets


def _expression_field(rows, chart: ManifoldSpec, r: int, s: int, label: str) -> TensorField:
    """A (r, s) field of expression matrices, its components at a list of
    points from one walk and its exact jets to order 3
    (``expression_array``)."""
    values, jets = expression_array(rows, (chart.dim, chart.dim), chart, label)
    return TensorField(chart, r, s, lambda points: values(_coords(points)), label, jets=jets)


def metric_from_config(spec, chart: ManifoldSpec) -> MetricField:
    if isinstance(spec, str):
        if spec not in METRICS:
            raise ParseError(f"unknown metric {spec!r}; catalog has {sorted(METRICS)}")
        return METRICS[spec](chart)
    if isinstance(spec, dict) and "matrix" in spec:
        return MetricField(_expression_field(spec["matrix"], chart, 0, 2, "expression metric"))
    raise ParseError("metric must be a catalog name or {'matrix': [[expr, ...], ...]}")


def triple_from_config(spec, chart: ManifoldSpec) -> LocalBasisTriple:
    if isinstance(spec, str):
        if spec not in TRIPLES:
            raise ParseError(f"unknown triple {spec!r}; catalog has {sorted(TRIPLES)}")
        return TRIPLES[spec](chart)
    if isinstance(spec, dict) and "matrices" in spec:
        matrices = spec["matrices"]
        if not isinstance(matrices, list) or len(matrices) != 3:
            raise ParseError("a triple needs exactly three matrices")
        return LocalBasisTriple(
            *(_expression_field(m, chart, 1, 1, f"J{a + 1} (expression)") for a, m in enumerate(matrices))
        )
    raise ParseError("triple must be a catalog name or {'matrices': [m1, m2, m3]}")


def structure_from_config(spec, chart: ManifoldSpec) -> ProductStructureField:
    if isinstance(spec, str):
        if spec not in STRUCTURES:
            raise ParseError(f"unknown structure {spec!r}; catalog has {sorted(STRUCTURES)}")
        return STRUCTURES[spec](chart)
    if isinstance(spec, dict) and "matrix" in spec:
        return ProductStructureField(
            _expression_field(spec["matrix"], chart, 1, 1, "expression structure"), "expression structure"
        )
    raise ParseError("structure must be a catalog name or {'matrix': [[expr, ...], ...]}")


def scenario_names() -> list[str]:
    """Names of the shipped scenario files, sorted."""
    root = resources.files("paraquat").joinpath("catalog_data")
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def load_catalog_scenario(name: str) -> dict:
    path = resources.files("paraquat").joinpath("catalog_data", f"{name}.json")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ParseError(
            f"no catalog scenario named {name!r}; available: {scenario_names()}"
        ) from None
    return json.loads(text)
