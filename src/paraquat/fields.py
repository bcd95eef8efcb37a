"""Charts, points, tensor fields and finite differences.

A chart is a single coordinate box on R^n.  Tensor fields are callables
returning component arrays at a point; all derivatives in the package are
second-order central differences with a fixed step, so every numerical
statement downstream is explicit about its stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyDomainError,
    EvaluationError,
    OutOfDomainError,
    ShapeError,
    StencilOutOfDomainError,
    ValidationError,
)

DEFAULT_STEP = 1e-3
# sampled points keep MARGIN_STEPS FD steps from the box walls so that nested
# central-difference stencils (up to a few steps deep) never leave the domain
MARGIN_STEPS = 10
INTERIOR_MARGIN = MARGIN_STEPS * DEFAULT_STEP


@dataclass(frozen=True, eq=False)
class ManifoldSpec:
    """A coordinate chart: names and a closed domain box, one interval per
    coordinate."""

    coords: tuple[str, ...]
    domain: np.ndarray  # shape (dim, 2), rows [lo, hi]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        dom = np.array(self.domain, dtype=float)
        if len(self.coords) < 1:
            raise ValidationError("chart needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ValidationError(f"coordinate names must be distinct: {self.coords}")
        if dom.shape != (len(self.coords), 2):
            raise ValidationError(
                f"domain must be ({len(self.coords)}, 2), got {dom.shape}"
            )
        if not np.all(dom[:, 0] < dom[:, 1]):
            raise ValidationError("every domain interval needs lo < hi")
        dom.flags.writeable = False
        object.__setattr__(self, "domain", dom)
        # (lo, hi) as Python floats: contains compares lists, not arrays
        object.__setattr__(self, "_bounds", (dom[:, 0].tolist(), dom[:, 1].tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, ManifoldSpec)
            and self.coords == other.coords
            and np.array_equal(self.domain, other.domain)
        )

    def __hash__(self):
        return hash((self.coords, self.domain.tobytes()))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def contains(self, coords: np.ndarray, margin: float = 0.0) -> bool:
        """Whether every coordinate lies in its interval shrunk by ``margin``;
        a NaN coordinate lies in none."""
        lows, highs = self._bounds
        c = np.asarray(coords, dtype=float)
        if c.shape != (len(lows),):
            raise ValidationError(f"chart needs {len(lows)} coordinates, got {c.shape}")
        for x, lo, hi in zip(c.tolist(), lows, highs):
            if not lo + margin <= x <= hi - margin:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Point:
    """A point of a chart.  Coordinates are copied and frozen."""

    chart: ManifoldSpec
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float).reshape(-1)
        if c.shape != (self.chart.dim,):
            raise ValidationError(
                f"point needs {self.chart.dim} coordinates, got {c.shape}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def shifted(self, k: int, delta: float) -> "Point":
        """This point moved by ``delta`` along coordinate k; the coordinates
        are already validated, so the new point skips ``__post_init__``."""
        c = self.coords.copy()
        c[k] += delta
        c.flags.writeable = False
        q = object.__new__(Point)
        object.__setattr__(q, "chart", self.chart)
        object.__setattr__(q, "coords", c)
        return q

    def __repr__(self):  # keeps pytest output readable
        vals = ", ".join(f"{n}={v:.4g}" for n, v in zip(self.chart.coords, self.coords))
        return f"Point({vals})"


@dataclass(frozen=True)
class TensorField:
    """A (r, s) tensor field given by a component callable.

    ``components(p)`` must return an ndarray of shape ``(dim,) * (r + s)``
    (contravariant slots first).  Evaluation is deterministic: same point,
    same array.
    """

    chart: ManifoldSpec
    r: int
    s: int
    components: Callable[[Point], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValidationError("tensor valences must be nonnegative")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.chart.dim,) * (self.r + self.s)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference parameters of the 2nd-order central scheme."""

    step: float = DEFAULT_STEP

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValidationError(f"FD step must be finite and positive, got {self.step}")


def eval_field(field: TensorField, p: Point) -> np.ndarray:
    """Evaluate a tensor field, enforcing domain, shape and finiteness."""
    _check_point(field, p)
    return _checked_values(field, p, field.components(p))


def eval_batch(
    field: TensorField,
    points: Sequence[Point],
    components: Callable[[Sequence[Point]], Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """``eval_field(field, q)`` at each point, with the components of all
    the points from one call ``components(points)``; every value gets
    ``eval_field``'s checks.  When anything raises, the points are evaluated
    again one at a time with ``eval_field``, so the error is the one the
    first failing point raises alone."""
    try:
        for q in points:
            _check_point(field, q)
        return [_checked_values(field, q, v) for q, v in zip(points, components(points), strict=True)]
    except Exception:
        for q in points:
            eval_field(field, q)
        raise


def _check_point(field: TensorField, p: Point) -> None:
    """The checks ``eval_field`` makes before evaluating: p lies on the
    field's chart and inside its domain."""
    if p.chart is not field.chart and p.chart != field.chart:
        raise ValidationError("point and field live on different charts")
    if not field.chart.contains(p.coords):
        raise OutOfDomainError(f"{p} outside the chart domain")


def _checked_values(field: TensorField, p: Point, values) -> np.ndarray:
    """The checks ``eval_field`` makes after evaluating: ``values``, the
    components at p, as a float array of the field's shape, all finite."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != field.shape:
        raise ShapeError(
            f"field {field.label or '<unnamed>'}: expected {field.shape}, got {vals.shape}"
        )
    if not np.isfinite(vals).all():
        raise EvaluationError(
            f"field {field.label or '<unnamed>'} returned non-finite components at {p}"
        )
    return vals


def central_difference(
    f: Callable[[list[Point]], Sequence[np.ndarray]],
    p: Point | Sequence[Point],
    cfg: FdConfig = FdConfig(),
) -> np.ndarray:
    """Second-order central differences of ``f`` along every coordinate,
    stacked: ``out[m] = (f(p + h e_m) - f(p - h e_m)) / 2h`` with h = cfg.step.

    ``f`` gets the whole stencil in one call, as the list p + h e_1,
    p - h e_1, p + h e_2, ..., and returns the values there in that order,
    as a list of equal-shape arrays or as one array stacked along its first
    axis.  ``p`` may also be a sequence of centres: their stencils go to
    ``f`` in one call, one after the other, and the result is stacked per
    centre, ``out[c, m]``.

    Exact for affine f; O(h^2) otherwise.  Every stencil must lie in its
    centre's chart, else StencilOutOfDomainError, raised before ``f`` sees
    that stencil; the stencils of the centres before it are evaluated first,
    so a failure there surfaces first.  This is the package's one derivative
    stencil.
    """
    h = cfg.step
    centres = [p] if isinstance(p, Point) else list(p)
    stencil: list[Point] = []
    for c in centres:
        if not c.chart.contains(c.coords, margin=h):
            if stencil:
                f(stencil)
            raise StencilOutOfDomainError(f"stencil of step {h} around {c} leaves the domain")
        for m in range(c.chart.dim):
            stencil += (c.shifted(m, +h), c.shifted(m, -h))
    F = np.asarray(f(stencil))
    F = F.reshape(len(centres), -1, 2, *F.shape[1:])
    out = (F[:, :, 0] - F[:, :, 1]) / (2.0 * h)
    return out[0] if isinstance(p, Point) else out


def fd_gradient(field: TensorField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Central differences of a tensor field's components, stacked: out[m] = d_m."""
    return central_difference(lambda qs: [eval_field(field, q) for q in qs], p, cfg)


def sample_points(
    spec: ManifoldSpec,
    count: int,
    seed: int,
    margin: float = INTERIOR_MARGIN,
) -> list[Point]:
    """Deterministic interior sample of the domain box.

    Points stay ``margin`` away from every wall so that nested FD stencils
    remain inside.  Same (spec, count, seed) -> identical points.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    lo = spec.domain[:, 0] + margin
    hi = spec.domain[:, 1] - margin
    if np.any(lo >= hi):
        raise EmptyDomainError(
            f"domain box has no interior at margin {margin}"
        )
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=(count, spec.dim))
    return [Point(spec, row) for row in draws]


def constant_field(chart: ManifoldSpec, r: int, s: int, value: np.ndarray, label: str = "") -> TensorField:
    """Field whose components are the same array everywhere: a read-only copy
    of ``value``, so later changes to the caller's array do not reach it."""
    vals = np.array(value, dtype=float)
    vals.flags.writeable = False
    return TensorField(chart, r, s, lambda p: vals, label=label)
