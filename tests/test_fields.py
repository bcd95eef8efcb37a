import numpy as np
import pytest

from paraquat import (
    FdConfig,
    ManifoldSpec,
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


def test_central_difference_is_the_per_direction_formula(chart4, cfg):
    def f(q):
        x = q.coords
        return np.array([[np.sin(x[0] * x[1]), np.exp(x[2])], [x[3] ** 3, np.cos(x[0] - x[3])]])

    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    h = cfg.step
    explicit = np.stack(
        [(f(p.shifted(m, +h)) - f(p.shifted(m, -h))) / (2.0 * h) for m in range(4)]
    )
    got = central_difference(f, p, cfg)
    assert got.shape == (4, 2, 2)
    assert got.tobytes() == explicit.tobytes()


@pytest.mark.parametrize("offset", [0.5, 0.999])
def test_central_difference_checks_the_whole_stencil(chart4, cfg, offset):
    calls = []
    near = Point(chart4, [0.0, 0.0, 0.0, -1.0 + offset * cfg.step])  # inside the box
    with pytest.raises(StencilOutOfDomainError):
        central_difference(calls.append, near, cfg)
    assert calls == []  # rejected before any evaluation
    edge = Point(chart4, [0.0, 0.0, 0.0, -1.0 + 2 * cfg.step])
    assert central_difference(lambda q: q.coords, edge, cfg).shape == (4, 4)


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
