import re

import numpy as np
import pytest

from paraquat import (
    FdConfig,
    ManifoldSpec,
    EvaluationError,
    OutOfDomainError,
    Point,
    ShapeError,
    StencilOutOfDomainError,
    TensorField,
    ValidationError,
    central_difference,
    constant_field,
    eval_field,
    fd_gradient,
    sample_points,
)
from paraquat.catalog import make_chart
from paraquat.fields import _memo_batch, eval_batch


def test_chart_validation():
    with pytest.raises(ValidationError):
        ManifoldSpec(("x", "x"), [[-1, 1], [-1, 1]])
    with pytest.raises(ValidationError):
        ManifoldSpec(("x", "y"), [[-1, 1]])
    with pytest.raises(ValidationError):
        ManifoldSpec(("x",), [[2, 1]])  # lo >= hi
    c = ManifoldSpec(("a", "b"), [[0, 1], [0, 2]])
    assert c.dim == 2


@pytest.mark.parametrize(
    "coords, margin, inside",
    [
        ([-1.0, 2.0], 0.0, True),  # on two walls
        ([1.0, 0.0], 0.0, True),
        ([np.nextafter(1.0, 2.0), 1.0], 0.0, False),
        ([-0.75, 1.75], 0.25, True),  # exactly the margin from two walls
        ([0.75, 0.25], 0.25, True),
        ([np.nextafter(-0.75, -1.0), 1.0], 0.25, False),
        ([0.0, np.nextafter(0.25, 0.0)], 0.25, False),
        ([np.nan, 1.0], 0.0, False),
        ([0.0, np.nan], 0.25, False),
    ],
)
def test_contains_truth_table(coords, margin, inside):
    chart = ManifoldSpec(("a", "b"), [[-1, 1], [0, 2]])
    assert chart.contains(np.array(coords), margin=margin) is inside


@pytest.mark.parametrize("coords", [[0.0], [0.0, 1.0, 1.0], [[0.0, 1.0]], 0.5])
def test_contains_rejects_a_vector_of_the_wrong_length(coords):
    chart = ManifoldSpec(("a", "b"), [[-1, 1], [0, 2]])
    with pytest.raises(ValidationError):
        chart.contains(np.array(coords))


def test_shifted_point_is_a_frozen_point_of_the_same_chart(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    q = p.shifted(1, 1e-3)
    assert q.chart is p.chart
    c = p.coords.copy()
    c[1] += 1e-3
    assert q.coords.tobytes() == Point(chart4, c).coords.tobytes()
    assert q.coords.dtype == np.float64 and q.coords.shape == (4,)
    with pytest.raises(ValueError):
        q.coords[0] = 5.0
    # a shift off the box still leaves the chart domain
    f = constant_field(chart4, 0, 0, np.array(1.0), "one")
    assert eval_field(f, q) == 1.0
    with pytest.raises(OutOfDomainError):
        eval_field(f, p.shifted(3, 0.7))


def test_point_validation_and_immutability(chart4):
    with pytest.raises(ValidationError):
        Point(chart4, [1, 2, 3])
    # four numbers, but not as a vector of four coordinates
    for nested in ([[0.1, 0.2], [0.3, 0.4]], np.array([0.1, 0.2, 0.3, 0.4]).reshape(1, 4, 1)):
        with pytest.raises(ValidationError, match="point needs 4 coordinates"):
            Point(chart4, nested)
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0
    q = p.shifted(2, 0.05)
    assert q.coords[2] == pytest.approx(0.35)
    assert p.coords[2] == pytest.approx(0.3)  # original untouched


def test_eval_field_guards(chart4):
    f = constant_field(chart4, 1, 1, np.eye(4), "id")
    p = Point(chart4, [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(eval_field(f, p), np.eye(4))

    outside = Point(chart4, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(OutOfDomainError):
        eval_field(f, outside)

    bad = TensorField(chart4, 1, 1, lambda p: np.zeros((3, 3)), "bad")
    with pytest.raises(ShapeError):
        eval_field(bad, p)


def test_constant_field_keeps_its_own_copy(chart4):
    value = np.eye(4)
    f = constant_field(chart4, 1, 1, value, "id")
    p = Point(chart4, [0.0, 0.0, 0.0, 0.0])
    value[0, 0] = 5.0  # the caller's array changes after construction
    got = eval_field(f, p)
    assert np.array_equal(got, np.eye(4))
    assert not got.flags.writeable
    assert value.flags.writeable


def test_fd_partial_accuracy(chart4, cfg):
    # d/dx1 sin(x1) = cos(x1); the central scheme is O(h^2)
    f = TensorField(chart4, 0, 0, lambda p: np.sin(p.coords[0]), "sin")
    p = Point(chart4, [0.3, 0.0, 0.0, 0.0])
    got = fd_gradient(f, p, cfg)[0]
    assert abs(float(got) - np.cos(0.3)) < 1e-6


def test_fd_partial_exact_for_affine(chart4, cfg):
    f = TensorField(chart4, 1, 0, lambda p: np.array([2 * p.coords[1], 0, 0, 1.0]), "aff")
    p = Point(chart4, [0.0, 0.5, 0.0, 0.0])
    assert np.allclose(fd_gradient(f, p, cfg)[1], [2, 0, 0, 0], atol=1e-12)


def test_fd_partial_stencil_guard(chart4, cfg):
    f = constant_field(chart4, 0, 0, np.array(1.0), "one")
    wall = Point(chart4, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(StencilOutOfDomainError):
        fd_gradient(f, wall, cfg)


def test_fd_gradient_hands_a_batch_form_each_stencil_with_eval_fields_checks(chart4, cfg):
    """A field with a batch form gets each stencil in one call, and every
    value still gets eval_field's checks: a stencil with bad values raises
    what the first bad point raises through eval_field."""
    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    h = cfg.step

    def spoilt(bad):  # a smooth field, but bad[coordinate bytes] at those points
        def components(q):
            x = q.coords
            return bad.get(x.tobytes(), np.array([np.sin(x[0] * x[1]), x[2] ** 2, x[1], x[3]]))

        return components

    nan, short = np.full(4, np.nan), np.zeros(3)
    for bad in [
        {},
        {p.shifted(1, h).coords.tobytes(): nan},
        {p.shifted(2, -h).coords.tobytes(): short, p.shifted(3, h).coords.tobytes(): nan},
        {p.shifted(0, -h).coords.tobytes(): nan, p.shifted(1, h).coords.tobytes(): short},
    ]:
        components, calls = spoilt(bad), []
        batched = TensorField(
            chart4, 1, 0, components, "f", batch=lambda qs: calls.append(len(qs)) or [components(q) for q in qs]
        )
        plain = TensorField(chart4, 1, 0, components, "f")
        if not bad:
            assert fd_gradient(batched, p, cfg).tobytes() == fd_gradient(plain, p, cfg).tobytes()
        else:
            with pytest.raises((EvaluationError, ShapeError)) as expected:
                fd_gradient(plain, p, cfg)
            with pytest.raises(type(expected.value)) as got:
                fd_gradient(batched, p, cfg)
            assert str(got.value) == str(expected.value)
        assert calls == [8]


def test_eval_batch_tests_the_domain_of_the_stack_at_once(chart4, cfg, monkeypatch):
    """One domain test for the whole stack, no per-point ``contains``; a
    batch with a point outside raises that point's own error, by name."""
    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    f = TensorField(chart4, 1, 0, lambda q: q.coords * 2.0, "f")
    stencil = [p.shifted(m, s * cfg.step) for m in range(4) for s in (1, -1)]
    contains = []
    real = ManifoldSpec.contains
    monkeypatch.setattr(ManifoldSpec, "contains", lambda self, *a, **k: contains.append(1) or real(self, *a, **k))
    values = eval_batch(f, stencil)
    assert contains == []
    assert np.stack(values).tobytes() == np.stack([q.coords * 2.0 for q in stencil]).tobytes()
    outside = p.shifted(0, 5.0)
    with pytest.raises(OutOfDomainError) as got:
        eval_batch(f, [p, outside, p.shifted(1, 5.0)])
    assert str(got.value) == f"{outside} outside the chart domain"


def _summed(calls):
    """A compute for _memo_batch that records each call's points and
    returns the sum of each point's coordinates."""

    def compute(pts):
        calls.append([q.coords.tobytes() for q in pts])
        return [float(q.coords.sum()) for q in pts]

    return compute


def test_memo_batch_computes_the_distinct_misses_once_and_checks_every_chart(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    q = p.shifted(0, 0.25)
    memo, calls = {}, []
    out = _memo_batch(memo, chart4, "s", 1e-3, [p, q, p], _summed(calls))
    assert calls == [[p.coords.tobytes(), q.coords.tobytes()]]
    assert out == [p.coords.sum(), q.coords.sum(), p.coords.sum()]
    assert set(memo) == {("s", r.coords.tobytes(), 1e-3) for r in (p, q)}
    # hits compute nothing; a new point is the only miss of its batch
    r = p.shifted(1, 0.25)
    _memo_batch(memo, chart4, "s", 1e-3, [q, r, p], _summed(calls))
    assert calls[1:] == [[r.coords.tobytes()]]
    # kind and step are part of the key
    _memo_batch(memo, chart4, "s", 2e-3, [p], _summed(calls))
    _memo_batch(memo, chart4, "t", 1e-3, [p], _summed(calls))
    assert len(calls) == 4
    # a hit at a point of another chart raises, before any compute
    other = make_chart(4, domain=[[-2.0, 2.0]] * 4)
    with pytest.raises(ValidationError, match="different charts"):
        _memo_batch(memo, chart4, "s", 1e-3, [Point(other, p.coords)], _summed(calls))
    with pytest.raises(ValidationError, match="different charts"):
        _memo_batch(memo, chart4, "s", 1e-3, [p.shifted(2, 0.25), Point(other, p.coords)], _summed(calls))
    assert len(calls) == 4


def test_memo_batch_stores_nothing_when_compute_raises(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    memo = {}
    _memo_batch(memo, chart4, "s", None, [p], _summed([]))
    stored = dict(memo)

    def failing(pts):
        raise EvaluationError("the batch fails")

    with pytest.raises(EvaluationError, match="the batch fails"):
        _memo_batch(memo, chart4, "s", None, [p, p.shifted(0, 0.25), p.shifted(1, 0.25)], failing)
    # a compute that returns a value short stores nothing either
    with pytest.raises(ValueError):
        _memo_batch(memo, chart4, "s", None, [p.shifted(0, 0.25), p.shifted(1, 0.25)], lambda pts: [1.0])
    assert memo == stored


def test_memo_batch_replays_a_failing_batch_point_by_point(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    first, later = p.shifted(1, 0.25), p.shifted(2, 0.25)
    memo, tried = {}, []

    def failing(pts):
        raise EvaluationError("the batch fails")

    def one(q):  # fails alone at first and later, stores nothing
        tried.append(q.coords.tobytes())
        if q is first or q is later:
            raise EvaluationError(f"fails alone at {q}")

    with pytest.raises(EvaluationError) as got:
        _memo_batch(memo, chart4, "s", None, [p, later, first], failing, one=one)
    assert str(got.value) == f"fails alone at {later}"
    assert tried == [p.coords.tobytes(), later.coords.tobytes()]
    # no point fails alone: the batch's own error
    with pytest.raises(EvaluationError, match="the batch fails"):
        _memo_batch(memo, chart4, "s", None, [p, p.shifted(3, 0.25)], failing, one=one)
    # a batch of one raises its own error and is not replayed
    tried.clear()
    with pytest.raises(EvaluationError, match="the batch fails"):
        _memo_batch(memo, chart4, "s", None, [first], failing, one=one)
    assert tried == [] and memo == {}


def test_central_difference_is_the_per_direction_formula(chart4, cfg):
    def f(q):
        x = q.coords
        return np.array([[np.sin(x[0] * x[1]), np.exp(x[2])], [x[3] ** 3, np.cos(x[0] - x[3])]])

    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    h = cfg.step
    explicit = np.stack(
        [(f(p.shifted(m, +h)) - f(p.shifted(m, -h))) / (2.0 * h) for m in range(4)]
    )
    got = central_difference(lambda qs: np.stack([f(q) for q in qs]), p, cfg)
    assert got.shape == (4, 2, 2)
    assert got.tobytes() == explicit.tobytes()


@pytest.mark.parametrize("offset", [0.5, 0.999])
def test_central_difference_checks_the_whole_stencil(chart4, cfg, offset):
    calls = []
    near = Point(chart4, [0.0, 0.0, 0.0, -1.0 + offset * cfg.step])  # inside the box
    inside = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    for centres in (near, [inside, near]):
        with pytest.raises(StencilOutOfDomainError, match=re.escape(repr(near))):
            central_difference(calls.append, centres, cfg)
    assert calls == []  # rejected before any evaluation, the inside centre's stencil too
    edge = Point(chart4, [0.0, 0.0, 0.0, -1.0 + 2 * cfg.step])
    assert central_difference(lambda qs: np.stack([q.coords for q in qs]), edge, cfg).shape == (4, 4)


def test_central_difference_hands_several_stencils_to_one_call(chart4, cfg):
    centres = [Point(chart4, [0.3, -0.2, 0.45, 0.1]), Point(chart4, [-0.5, 0.1, 0.0, 0.7])]
    calls = []

    def f(qs):
        calls.append([q.coords.tolist() for q in qs])
        return [np.array([np.sin(q.coords[0] * q.coords[1]), q.coords[3] ** 3]) for q in qs]

    got = central_difference(f, centres, cfg)
    assert got.shape == (2, 4, 2)
    assert len(calls) == 1
    h = cfg.step
    stencils = [c.shifted(m, s * h) for c in centres for m in range(4) for s in (1, -1)]
    assert calls[0] == [q.coords.tolist() for q in stencils]
    for c, row in zip(centres, got):
        assert row.tobytes() == central_difference(f, c, cfg).tobytes()


def test_central_difference_stencil_is_point_shifted_bit_for_bit(chart4, cfg):
    """Stencil points carry their centre's chart and the coordinates
    Point.shifted gives, bit for bit: a -0.0 stays -0.0 off the shifted
    coordinate, and -h + h is +0.0."""
    h = cfg.step
    other = ManifoldSpec(("a", "b", "c", "d"), chart4.domain)
    centres = [
        Point(chart4, [0.3, -0.0, 0.45, 0.1]),
        Point(other, [-0.0, h, -h, 0.7]),
        Point(chart4, [-0.5, 0.1, -0.0, 1.0 / 3.0]),
    ]
    for p, group in ((centres[0], centres[:1]), (centres, centres)):
        seen = []
        central_difference(lambda qs: seen.extend(qs) or np.zeros(len(qs)), p, cfg)
        expected = [c.shifted(m, s * h) for c in group for m in range(4) for s in (1, -1)]
        assert [q.coords.tobytes() for q in seen] == [q.coords.tobytes() for q in expected]
        assert all(q.chart is e.chart for q, e in zip(seen, expected))
        assert all(not q.coords.flags.writeable and q.coords.shape == (4,) for q in seen)
    assert np.signbit(seen[8 + 2].coords[0])  # the second centre's -0.0, shifted along x2
    with pytest.raises(ValidationError, match="one dimension"):
        central_difference(lambda qs: np.zeros(len(qs)), [centres[0], Point(make_chart(2), [0.0, 0.0])], cfg)


def test_sample_points_deterministic(chart4):
    a = sample_points(chart4, 6, seed=3)
    b = sample_points(chart4, 6, seed=3)
    c = sample_points(chart4, 6, seed=4)
    assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a, b))
    assert any(not np.array_equal(x.coords, y.coords) for x, y in zip(a, c))
    # interior margin keeps nested stencils inside the box
    for p in a:
        assert np.all(p.coords > -1 + 0.0099) and np.all(p.coords < 1 - 0.0099)
    with pytest.raises(ValidationError):
        sample_points(chart4, 0, seed=1)


def test_fdconfig_validation():
    with pytest.raises(ValidationError):
        FdConfig(step=0.0)


def test_chart_with_custom_domain():
    c = make_chart(2, coords=["t", "r"], domain=[[0, 0.5], [1, 2]])
    pts = sample_points(c, 4, seed=0)
    for p in pts:
        assert 0 < p.coords[0] < 0.5 and 1 < p.coords[1] < 2
