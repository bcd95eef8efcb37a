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
from .exprlang import compile_exprs, compile_with_jets, parse_expr
from .fields import ManifoldSpec, Point, TensorField, constant_field
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


def _rotated(angle: float, a: int) -> np.ndarray:
    """Member a of standard4 rotated by ``angle`` in the span of (J1, J2);
    only that member is built."""
    if a == 2:
        return STD_J3
    c, s = np.cos(angle), np.sin(angle)
    return c * STD_J1 + s * STD_J2 if a == 0 else -s * STD_J1 + c * STD_J2


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

    def member(a: int) -> TensorField:
        return TensorField(
            chart, 1, 1, lambda p, a=a: _rotated(p.coords[0], a), f"J{a + 1}'"
        )

    return LocalBasisTriple(member(0), member(1), member(2))


def _triple_product8(chart: ManifoldSpec) -> LocalBasisTriple:
    _require_dim(chart, 8, "product8")
    return LocalBasisTriple(
        constant_field(chart, 1, 1, doubled(STD_J1), "J1+J1"),
        constant_field(chart, 1, 1, doubled(STD_J2), "J2+J2"),
        constant_field(chart, 1, 1, doubled(STD_J3), "J3+J3"),
    )


def _product_rotated_member(chart: ManifoldSpec, a: int, coord: int) -> TensorField:
    return TensorField(
        chart,
        1,
        1,
        lambda p: doubled(_rotated(p.coords[coord], a)),
        f"J{a + 1}'+J{a + 1}'",
    )


def _triple_product8_rotated(chart: ManifoldSpec) -> LocalBasisTriple:
    """Both factors rotated by the first base coordinate; descends through the
    first-factor projection onto rotated4."""
    _require_dim(chart, 8, "product8-rotated")
    return LocalBasisTriple(*(_product_rotated_member(chart, a, 0) for a in range(3)))


def _triple_product8_fiber_rotated(chart: ManifoldSpec) -> LocalBasisTriple:
    """Rotation angle taken from the fifth coordinate — a fiber coordinate of
    the first-factor projection, so the pair upstairs stays PQK while nothing
    downstairs matches it."""
    _require_dim(chart, 8, "product8-fiber-rotated")
    return LocalBasisTriple(*(_product_rotated_member(chart, a, 4) for a in range(3)))


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
    """split8 conjugated by a factor-mixing rotation of angle 0.1 x2: still an
    isometric involution commuting with the product triple, no longer
    parallel or integrable."""
    _require_dim(chart, 8, "split8-rotated")

    def comp(p: Point) -> np.ndarray:
        th = 0.1 * p.coords[1]
        c, s = np.cos(2.0 * th), np.sin(2.0 * th)
        eye = np.eye(4)
        F = np.empty((8, 8))
        F[:4, :4], F[:4, 4:] = c * eye, s * eye
        F[4:, :4], F[4:, 4:] = s * eye, -c * eye
        return F

    return ProductStructureField(TensorField(chart, 1, 1, comp, "split8-rotated"), "split8-rotated")


STRUCTURES: dict[str, Callable[[ManifoldSpec], ProductStructureField]] = {
    "split8": _structure_split8,
    "split8-rotated": _structure_split8_rotated,
}


def _parsed(entries, shape: tuple[int, ...], what: str):
    """The expression trees of a nested list of strings, in order; the
    nesting is checked against ``shape`` as the trees are taken."""

    def leaves(node, dims: tuple[int, ...]):
        if not dims:
            yield parse_expr(str(node))
            return
        if not isinstance(node, (list, tuple)) or len(node) != dims[0]:
            raise ParseError(f"{what} must be nested lists of expressions of shape {shape}")
        for item in node:
            yield from leaves(item, dims[1:])

    return leaves(entries, shape)


def expression_array(
    entries, shape: tuple[int, ...], chart: ManifoldSpec, what: str
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a nested list of expression strings into one function of the
    chart's coordinate vector returning their values as an array of ``shape``.

    The nesting is checked against ``shape`` and every entry is parsed and
    bound here, in order, so a malformed array fails with ParseError at
    scenario-build time rather than mid-run.
    """
    values = compile_exprs(_parsed(entries, shape, what), chart.coords)
    return lambda c: np.array(values(c)).reshape(shape)


def expression_array_with_jets(
    entries, shape: tuple[int, ...], chart: ManifoldSpec, what: str
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable | None]:
    """``expression_array``, and the exact jets of its entries to order 3
    from the same trees (``compile_with_jets``), called as ``jets(points,
    order)`` with ``TensorField.jets``' convention: order + 1 stacked
    arrays, the partial axes first, then ``shape``.  A '^' or pow with a
    coordinate in its exponent leaves the array without jets (None), so
    its derivatives stay finite differences."""
    n = chart.dim
    values, jets = compile_with_jets(_parsed(entries, shape, what), chart.coords)

    def point_jets(points, order):
        arrays = jets(np.array([q.coords for q in points]), max(order, 2))[: order + 1]
        return tuple(A.reshape(len(points), *(n,) * k, *shape) for k, A in enumerate(arrays))

    return (lambda c: np.array(values(c)).reshape(shape)), (None if jets is None else point_jets)


def _expression_field(rows, chart: ManifoldSpec, r: int, s: int, label: str) -> TensorField:
    """A (r, s) field of expression matrices, carrying exact jets to order 3
    unless an exponent holds a coordinate (``expression_array_with_jets``)."""
    values, jets = expression_array_with_jets(rows, (chart.dim, chart.dim), chart, label)
    return TensorField(chart, r, s, lambda p: values(p.coords), label, jets=jets)


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
