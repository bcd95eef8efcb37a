"""Charts, points, tensor fields and their derivatives.

A chart is a single coordinate box on R^n.  Tensor fields are callables
returning component arrays at a point.  Every derivative the package takes
comes from a field's exact jets (``TensorField.jets``): an expression or
constant field, a catalog field, or a Sasaki lift over a base that has them.
A derivative asked of a field without jets raises ValidationError
(``_jets_of``).  A derivative at a point still requires the stencil of the
step around it to lie in the chart (``_require_stencils``), so every
numerical statement downstream is explicit about its stencil.  Second-order
central differences (``central_difference``, ``fd_gradient``) stay as the
reference the jets are tested against.
"""

from __future__ import annotations

import functools
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
# sampled points keep MARGIN_STEPS steps from the box walls so that the
# stencils a derivative requires (nested up to two deep) never leave the domain
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

    def contains_rows(self, C: np.ndarray) -> np.ndarray:
        """``contains`` of each row of the 2-D array C, at margin 0."""
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        return ((lo <= C) & (C <= hi)).all(axis=1)

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
        c = np.array(self.coords, dtype=float)
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
        return _point(self.chart, c)

    def __repr__(self):  # keeps pytest output readable
        vals = ", ".join(f"{n}={v:.4g}" for n, v in zip(self.chart.coords, self.coords))
        return f"Point({vals})"


def _point(chart: ManifoldSpec, coords: np.ndarray) -> Point:
    """A Point at ``coords``, a read-only float vector of the chart's
    dimension, made without ``__post_init__``'s copy and checks."""
    q = object.__new__(Point)
    q.__dict__.update(chart=chart, coords=coords)  # past the frozen __setattr__
    return q


@dataclass(frozen=True)
class TensorField:
    """A (r, s) tensor field given by a component callable.

    ``components(p)`` must return an ndarray of shape ``(dim,) * (r + s)``
    (contravariant slots first).  Evaluation is deterministic: same point,
    same array.  ``batch``, when given, returns the components at a list of
    points in one call, each equal to ``components`` there.  ``jets`` is
    called as ``jets(points, order)`` and returns exact derivatives at a
    list of points in one call, as order + 1 stacked arrays: the components
    (to roundoff), their first partials ``[c, i, ...]``, their second
    partials ``[c, i, j, ...]`` and so on.  The connection reads a metric's
    derivatives from it (order 2) and a (1,1) field's (order 1); the base
    metric of a Sasaki lift is asked for order 3.  An expression field, a
    constant field and a catalog field have jets to order 3, a lifted metric
    to order 2, and a lifted member and the member of a transition to order
    1.  A field without jets (None) can be evaluated but not differentiated.
    """

    chart: ManifoldSpec
    r: int
    s: int
    components: Callable[[Point], np.ndarray]
    label: str = ""
    batch: Callable[[Sequence[Point]], Sequence[np.ndarray]] | None = field(
        default=None, repr=False, compare=False
    )
    jets: Callable[[Sequence[Point], int], tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValidationError("tensor valences must be nonnegative")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.chart.dim,) * (self.r + self.s)


@dataclass(frozen=True)
class FdConfig:
    """The step h: a derivative at p needs the stencil of h around p inside
    the chart, and ``central_difference`` differences with it."""

    step: float = DEFAULT_STEP

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValidationError(f"FD step must be finite and positive, got {self.step}")


def eval_field(field: TensorField, p: Point) -> np.ndarray:
    """Evaluate a tensor field, enforcing domain, shape and finiteness."""
    _check_point(field.chart, p)
    return _checked_values(field, p, field.components(p))


def eval_batch(field: TensorField, points: Sequence[Point]) -> np.ndarray:
    """``eval_field(field, q)`` at each point, stacked: every point's chart,
    then the domain of the whole stack in one test, the components of all
    the points from one call ``field.batch(points)`` (one
    ``field.components`` per point for a field without a batch form), and
    their shape and finiteness in one test.  When anything raises, the
    points are evaluated again one at a time with ``eval_field``, so the
    error is the one the first failing point raises alone."""
    chart = field.chart
    if not points:
        return np.empty((0, *field.shape))
    try:
        for q in points:
            if q.chart is not chart:
                _check_chart(chart, q)
        if not chart.contains_rows(np.array([q.coords for q in points])).all():
            raise OutOfDomainError("a point of the batch lies outside the chart domain")
        values = field.batch(points) if field.batch is not None else [field.components(q) for q in points]
        V = np.array(values, dtype=float)
        if V.shape != (len(points), *field.shape) or not np.isfinite(V).all():
            raise EvaluationError(f"field {field.label or '<unnamed>'}: a value of the batch fails its checks")
        return V
    except Exception:
        for q in points:
            eval_field(field, q)
        raise


def _memo_batch(
    memo: dict,
    chart: ManifoldSpec,
    kind,
    step: float | None,
    points: Sequence[Point],
    compute: Callable[[list[Point]], Sequence],
    one: Callable[[Point], object] | None = None,
) -> list:
    """The memo's values under (kind, coordinate bytes, step) at each point:
    the package's one rule for reading and filling a memo.

    Every point's chart is checked, memo hits included, since a key holds
    coordinates alone.  The distinct misses go to ``compute`` in one call,
    which returns their values in order, as objects the memo may own and hand
    out (read-only arrays); they are stored only if the whole batch
    succeeds.  When ``one`` is given and a batch of more than one point
    raises, the points are tried again in order with ``one``, which stores
    nothing, so the error is the one the first failing point raises alone
    (or the batch's own, should no point fail alone).
    """
    keys, fresh = [], {}
    try:
        for q in points:
            if q.chart is not chart:
                _check_chart(chart, q)
            key = (kind, q.coords.tobytes(), step)
            keys.append(key)
            if key not in memo and key not in fresh:
                fresh[key] = q
        if fresh:
            memo.update(dict(zip(fresh, compute(list(fresh.values())), strict=True)))
    except Exception:
        if one is not None and len(points) > 1:
            for q in points:
                one(q)
        raise
    return [memo[key] for key in keys]


def _check_chart(chart: ManifoldSpec, p: Point) -> None:
    if p.chart is not chart and p.chart != chart:
        raise ValidationError("point and field live on different charts")


def _check_point(chart: ManifoldSpec, p: Point) -> None:
    """The checks ``eval_field`` makes before evaluating: p lies on the
    field's chart and inside its domain."""
    _check_chart(chart, p)
    if not chart.contains(p.coords):
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
    stacked: ``out[m] = (f(p + h e_m) - f(p - h e_m)) / 2h`` with h = cfg.step;
    the reference the jets are tested against.

    ``f`` gets the whole stencil in one call, as the list p + h e_1,
    p - h e_1, p + h e_2, ..., and returns the values there in that order,
    as a list of equal-shape arrays or as one array stacked along its first
    axis.  ``p`` may also be a sequence of centres of one dimension: their
    stencils go to ``f`` in one call, one after the other, and the result is
    stacked per centre, ``out[c, m]``.

    The stencil points are built from one coordinate array, adding +h and
    -h to the shifted coordinate only, so their coordinates are bit for bit
    those of ``Point.shifted``, signed zeros included.

    Exact for affine f; O(h^2) otherwise.  Every stencil must lie in its
    centre's chart, else StencilOutOfDomainError for the first centre whose
    stencil leaves, raised before ``f`` is called.
    """
    h = cfg.step
    centres = [p] if isinstance(p, Point) else list(p)
    n = centres[0].chart.dim
    if any(c.chart.dim != n for c in centres):
        raise ValidationError("the centres of one central difference need one dimension")
    _require_stencils(centres, h)
    F = np.asarray(f(_stencil(centres, h)))
    F = F.reshape(len(centres), n, 2, *F.shape[1:])
    out = (F[:, :, 0] - F[:, :, 1]) / (2.0 * h)
    return out[0] if isinstance(p, Point) else out


def _require_stencils(centres: Sequence[Point], h: float, depth: int = 1) -> None:
    """Raise StencilOutOfDomainError for the first centre whose stencil of
    step h leaves its chart; with depth 2, for the first centre
    or stencil point of a stencil nested two deep.  Every derivative keeps
    this rule, though jets read no stencil."""
    for c in centres:
        for q in [c] + (_stencil([c], h) if depth > 1 else []):
            if not q.chart.contains(q.coords, margin=h):
                raise StencilOutOfDomainError(f"stencil of step {h} around {q} leaves the domain")


def _jets_of(obj) -> Callable:
    """The jets of a field or map, ``obj.jets``: the package's one rule for
    a derivative, which raises ValidationError naming an ``obj`` that has
    none."""
    if obj.jets is None:
        raise ValidationError(f"{obj.label or '<unnamed>'} has no jets, and derivatives come only from jets")
    return obj.jets


def _order_at_most(label: str, order: int, top: int) -> None:
    """Raise ValidationError naming a field whose jets stop at order ``top``
    when a higher order is asked of it."""
    if order > top:
        raise ValidationError(f"{label} has jets to order {top} only, not to order {order}")


def _stencil(centres: list[Point], h: float) -> list[Point]:
    """The stencils of the centres, one after the other: c + h e_1,
    c - h e_1, c + h e_2, ... of each centre c, on that centre's chart."""
    n = centres[0].chart.dim
    S = np.array([c.coords for c in centres])[:, None, :] + _stencil_offsets(n, h)
    S.flags.writeable = False
    charts = [c.chart for c in centres for _ in range(2 * n)]
    return [_point(chart, row) for chart, row in zip(charts, S.reshape(-1, n))]


@functools.lru_cache(maxsize=32)
def _stencil_offsets(n: int, h: float) -> np.ndarray:
    """Row 2m is +h e_m and row 2m + 1 is -h e_m, with -0.0 off the shifted
    coordinate: x + (-0.0) is x for every x, -0.0 included, so adding a row
    changes one coordinate exactly as ``Point.shifted`` does."""
    D = np.full((2 * n, n), -0.0)
    m = np.arange(n)
    D[2 * m, m] = h
    D[2 * m + 1, m] = -h
    D.flags.writeable = False
    return D


def fd_gradient(field: TensorField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Central differences of a tensor field's components, stacked: out[m] =
    d_m, with the stencil evaluated in one ``eval_batch``."""
    return central_difference(lambda qs: eval_batch(field, qs), p, cfg)


def sample_points(
    spec: ManifoldSpec,
    count: int,
    seed: int,
    margin: float = INTERIOR_MARGIN,
) -> list[Point]:
    """Deterministic interior sample of the domain box.

    Points stay ``margin`` away from every wall so that nested stencils
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
    of ``value``, so later changes to the caller's array do not reach it.
    Its jets of every order are zero."""
    vals = np.array(value, dtype=float)
    vals.flags.writeable = False

    def jets(points: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        N, n = len(points), chart.dim
        return (np.broadcast_to(vals, (N, *vals.shape)),) + tuple(
            np.zeros((N,) + (n,) * k + vals.shape) for k in range(1, order + 1)
        )

    return TensorField(chart, r, s, lambda p: vals, label=label, jets=jets)
