"""Charts, points, tensor fields and their derivatives.

A chart is a single coordinate box on R^n.  Tensor fields are callables
returning component arrays at a list of points.  Every derivative the
package takes comes from a field's exact jets (``TensorField.jets``): an
expression or constant field, a catalog field, or a Sasaki lift over a base
that has them.  A derivative asked of a field without jets raises
ValidationError (``_jets_of``).  Jets are read at the point itself, so a
derivative is taken anywhere in the closed box, walls included.  Every
memo of the package is read and filled by ``_memo_batch``, whose batches
hand out fresh stacks, row c for point c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyDomainError, EvaluationError, OutOfDomainError, ShapeError, ValidationError

DEFAULT_STEP = 1e-3
# sampled points keep MARGIN_STEPS steps from the box walls; the step is the
# sampling margin's unit and nothing else
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
        # every memo key hashes its chart: the names and the read-only domain
        # are hashed once, here
        object.__setattr__(self, "_hash", hash((self.coords, dom.tobytes())))

    def __eq__(self, other):
        return (
            isinstance(other, ManifoldSpec)
            and self.coords == other.coords
            and np.array_equal(self.domain, other.domain)
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        box = " x ".join(f"[{lo!r}, {hi!r}]" for lo, hi in self.domain.tolist())
        return f"({', '.join(self.coords)}) in {box}"

    @property
    def dim(self) -> int:
        return len(self.coords)

    def contains(self, C: np.ndarray) -> np.ndarray:
        """Whether each row of the (N, dim) stack C lies in the closed box,
        as N booleans; a NaN coordinate lies in no interval.  A C of any
        other shape raises ValidationError."""
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.dim:
            raise ValidationError(f"chart needs an (N, {self.dim}) stack of coordinates, got {C.shape}")
        return ((self.domain[:, 0] <= C) & (C <= self.domain[:, 1])).all(axis=1)


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


def _points(chart: ManifoldSpec, C: np.ndarray) -> list[Point]:
    """The Points at the rows of a fresh (N, dim) float stack C, which they
    own: C is frozen here, and each point's coordinates are a view of it."""
    C.flags.writeable = False
    return [_point(chart, c) for c in C]


@dataclass(frozen=True)
class TensorField:
    """A (r, s) tensor field given by a component callable.

    ``components(points)`` returns the components at a list of points in
    one call, stacked along a first axis or as a list of equal-shape arrays,
    each of shape ``(dim,) * (r + s)`` (contravariant slots first).
    Evaluation is deterministic: a point's components are the same array
    alone or in any list.  ``jets`` is called as ``jets(points, order)`` and
    returns exact derivatives at a list of points in one call, as order + 1
    stacked arrays: the components (to roundoff), their first partials
    ``[c, i, ...]``, their second partials ``[c, i, j, ...]`` and so on.
    The connection reads a metric's derivatives from it (order 2) and a
    (1,1) field's (order 1); the base metric of a Sasaki lift is asked for
    order 3.  An expression field, a constant field and a catalog field have
    jets to order 3, a lifted metric to order 2, and a member of a stacked
    triple (``algebra.stacked_triple``) to order 1.  A field without jets
    (None) can be evaluated but not differentiated.
    """

    chart: ManifoldSpec
    r: int
    s: int
    components: Callable[[Sequence[Point]], Sequence[np.ndarray]]
    label: str = ""
    jets: Callable[[Sequence[Point], int], tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValidationError("tensor valences must be nonnegative")
        # the fit, nabla and derivative memo keys hold the field: the hash
        # of the compared fields, taken once
        object.__setattr__(self, "_hash", hash((self.chart, self.r, self.s, self.components, self.label)))

    def __hash__(self):
        return self._hash

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.chart.dim,) * (self.r + self.s)


def eval_batch(field: TensorField, points: Sequence[Point]) -> np.ndarray:
    """The components at each point, a fresh (len(points), *field.shape)
    float stack: the package's one checked evaluation.  The distinct points
    are checked by ``_check_box``, their components come from one call
    ``field.components(points)``, and the shape and finiteness of the stack
    are tested at once, naming the first point that fails.  It is a batch
    of ``_memo_batch`` on a throwaway memo, so a batch that raises raises
    what its first failing point raises alone.  A bare Point in place of
    the list raises ValidationError."""
    chart, shape, label = field.chart, field.shape, field.label or "<unnamed>"

    def compute(qs: list[Point]) -> np.ndarray:
        _check_box(chart, qs)
        V = np.array(field.components(qs), dtype=float)
        if V.shape != (len(qs), *shape):
            raise ShapeError(f"field {label}: expected {(len(qs), *shape)}, got {V.shape}")
        finite = np.isfinite(V).reshape(len(qs), -1).all(axis=1)
        if not finite.all():
            raise EvaluationError(f"field {label} returned non-finite components at {qs[int(finite.argmin())]}")
        return V

    return _memo_batch({}, chart, None, points, compute).reshape(len(points), *shape)


# True while _memo_batch replays a failing batch, whose memo batches then
# read and fill a throwaway memo
_replaying = False


def _memo_batch(
    memo: dict,
    chart: ManifoldSpec,
    kind,
    points: Sequence[Point],
    compute: Callable[[list[Point]], np.ndarray | tuple[np.ndarray, ...]],
) -> np.ndarray | tuple[np.ndarray, ...]:
    """The memo's values under (kind, coordinate bytes) at each point, as
    fresh stacks, row c for point c: the package's one rule for reading and
    filling a memo.

    Every point's chart is checked, memo hits included, since a key holds
    coordinates alone.  The distinct misses go to ``compute`` in one call,
    which returns one array, or a tuple of arrays, with one row per miss in
    order; its rows are stored only if the whole batch succeeds, and the
    batch returns the same form over the asked points, the memo's rows
    stacked afresh, so they are never handed out.  An empty batch has no
    row to take the form from and returns one empty array.  A batch of
    more than one point that raises is tried again, point by point in
    order: the point's chart check, then ``compute`` of the point alone,
    with every memo batch met on the way reading and filling a throwaway
    memo, so the replay stores nothing and reads no hit.  The batch raises
    what its first failing point raises alone, or its own error should no
    point fail alone.  A bare Point in place of the list raises
    ValidationError.
    """
    global _replaying
    _check_list(points)
    if _replaying:
        memo = {}
    keys, fresh = [], {}
    try:
        for q in points:
            if q.chart is not chart:
                _check_chart(chart, q)
            key = (kind, q.coords.tobytes())
            keys.append(key)
            if key not in memo and key not in fresh:
                fresh[key] = q
        if fresh:
            out = compute(list(fresh.values()))
            memo.update(dict(zip(fresh, zip(*out, strict=True) if isinstance(out, tuple) else out, strict=True)))
    except Exception:
        if len(points) > 1:
            outer, _replaying = _replaying, True
            try:
                for q in points:
                    _check_chart(chart, q)
                    compute([q])
            finally:
                _replaying = outer
        raise
    rows = [memo[key] for key in keys]
    return tuple(map(np.array, zip(*rows))) if rows and isinstance(rows[0], tuple) else np.array(rows)


def _check_list(points) -> None:
    """Raise ValidationError for one bare Point where a list of points is
    expected: every batch takes a list, and a point alone is a list of one."""
    if isinstance(points, Point):
        raise ValidationError(f"expected a list of points, got the single {points}; pass [p]")


def _check_chart(chart: ManifoldSpec, p: Point) -> None:
    if p.chart is not chart and p.chart != chart:
        raise ValidationError(f"different charts: the point lives on {p.chart}, not on {chart}")


def _check_box(chart: ManifoldSpec, points: list[Point]) -> np.ndarray:
    """The (N, dim) stack of the points' coordinates, once every point is
    on the chart and the whole stack inside its closed box, tested at once;
    else the error of the first point off the chart (ValidationError), or
    outside the box (OutOfDomainError)."""
    for q in points:
        if q.chart is not chart:
            _check_chart(chart, q)
    C = np.array([q.coords for q in points])
    inside = chart.contains(C)
    if not inside.all():
        raise OutOfDomainError(f"{points[int(inside.argmin())]} outside the chart domain")
    return C


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


def sample_points(
    spec: ManifoldSpec,
    count: int,
    seed: int,
    margin: float = INTERIOR_MARGIN,
) -> list[Point]:
    """Deterministic interior sample of the domain box.

    Points stay ``margin`` away from every wall (by default 10 steps of
    ``DEFAULT_STEP``); the margin is the step's only job.  Same (spec,
    count, seed) -> identical points.  A count whose draws numpy cannot
    form raises ValidationError: the size is the configuration's.
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
    try:
        draws = rng.uniform(lo, hi, size=(count, spec.dim))
    except (ValueError, MemoryError):
        raise ValidationError(f"a sample of {count} points in {spec.dim} dimensions is too large to form") from None
    return [Point(spec, row) for row in draws]


def constant_field(chart: ManifoldSpec, r: int, s: int, value: np.ndarray, label: str = "") -> TensorField:
    """Field whose components are the same array everywhere: a read-only copy
    of ``value``, so later changes to the caller's array do not reach it.
    Its jets of every order are zero."""
    vals = np.array(value, dtype=float)
    vals.flags.writeable = False

    def components(points: Sequence[Point]) -> list[np.ndarray]:
        _check_list(points)
        return [vals] * len(points)

    def jets(points: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        _check_list(points)
        N, n = len(points), chart.dim
        return (np.broadcast_to(vals, (N, *vals.shape)),) + tuple(
            np.zeros((N,) + (n,) * k + vals.shape) for k in range(1, order + 1)
        )

    return TensorField(chart, r, s, components, label=label, jets=jets)
