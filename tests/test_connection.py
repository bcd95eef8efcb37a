"""Connection, curvature and derived operators against closed-form values.

The conformally scaled neutral metric g = e^{2 x1} eta is the workhorse: its
Christoffel symbols and curvature have simple exact expressions, which pins
every sign and index convention in one place.
"""

import numpy as np
import pytest

from paraquat import (
    DegenerateMetricError,
    FdConfig,
    MetricField,
    OutOfDomainError,
    Point,
    StencilOutOfDomainError,
    TensorField,
    ValidationError,
    christoffel,
    constant_field,
    covariant_derivative_02,
    covariant_derivative_11,
    covariant_derivative_vector,
    curvature_operator,
    is_flat,
    lie_bracket,
    nijenhuis,
    riemann,
    signature,
)
from paraquat.catalog import ETA4, METRICS, make_chart

ETA = np.diag([1.0, 1.0, -1.0, -1.0])


def conformal_christoffel_exact(dim=4):
    # Gamma^k_ij = delta^k_i delta^1_j + delta^k_j delta^1_i - eta_ij eta^{k1}
    # for g = e^{2 x1} eta (indices 0-based, x1 is coordinate 0)
    gam = np.zeros((dim, dim, dim))
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                gam[k, i, j] = (
                    (k == i) * (j == 0) + (k == j) * (i == 0) - ETA[i, j] * (k == 0)
                )
    return gam


def test_flat_christoffel_vanishes(flat4, pts4, cfg):
    for p in pts4:
        assert np.abs(christoffel(flat4, p, cfg)).max() < 1e-12


def test_conformal_christoffel_matches_exact(conformal4, pts4, cfg):
    exact = conformal_christoffel_exact()
    for p in pts4:
        got = christoffel(conformal4, p, cfg)
        assert np.abs(got - exact).max() < 1e-5


def test_christoffel_symmetric_lower_indices(conformal4, pts4, cfg):
    for p in pts4:
        gam = christoffel(conformal4, p, cfg)
        assert np.abs(gam - gam.transpose(0, 2, 1)).max() < 1e-10


def test_metric_compatibility(conformal4, pts4, cfg):
    # nabla g = 0 for the metric's own connection
    for p in pts4:
        D = covariant_derivative_02(conformal4, conformal4.field, p, cfg)
        assert np.abs(D).max() < 1e-5


def test_conformal_curvature_magnitude(conformal4, cfg):
    p = Point(conformal4.chart, [0.2, -0.3, 0.4, 0.1])
    R = riemann(conformal4, p, cfg)
    assert abs(float(np.abs(R).max()) - 1.0) < 1e-4


def test_riemann_antisymmetry_last_pair(conformal4, pts4, cfg):
    for p in pts4[:2]:
        R = riemann(conformal4, p, cfg)
        assert np.abs(R + R.transpose(0, 1, 3, 2)).max() < 1e-4


def test_first_bianchi(conformal4, cfg):
    p = Point(conformal4.chart, [0.1, 0.2, -0.2, 0.3])
    R = riemann(conformal4, p, cfg)  # R[l, k, i, j]
    cyc = R + R.transpose(0, 3, 1, 2) + R.transpose(0, 2, 3, 1)
    assert np.abs(cyc).max() < 1e-4


def test_curvature_operator_values(conformal4, cfg):
    # for g = e^{2 x1} eta the only curvature is in the planes not touching
    # x1, with unit strength: R(e2, e3) e3 = e2 at every point
    p = Point(conformal4.chart, [0.15, -0.1, 0.25, 0.0])
    R = riemann(conformal4, p, cfg)
    e = np.eye(4)
    assert np.allclose(curvature_operator(R, e[1], e[2], e[2]), e[1], atol=1e-4)
    # antisymmetric in the first two slots
    assert np.allclose(
        curvature_operator(R, e[1], e[2], e[2]),
        -curvature_operator(R, e[2], e[1], e[2]),
        atol=1e-10,
    )


def test_is_flat_verdicts(flat4, conformal4, pts4, cfg):
    assert is_flat(flat4, pts4, cfg=cfg).flat
    verdict = is_flat(conformal4, pts4[:2], cfg=cfg)
    assert not verdict.flat
    assert verdict.max_residual > 0.5


def test_signature(flat4, euclidean4, chart4):
    p = Point(chart4, [0, 0, 0, 0])
    assert signature(flat4, p) == (2, 2)
    assert signature(euclidean4, p) == (4, 0)
    degenerate = MetricField(
        constant_field(chart4, 0, 2, np.diag([1.0, 1.0, 1.0, 0.0]), "deg")
    )
    with pytest.raises(DegenerateMetricError):
        signature(degenerate, p)


def test_nijenhuis_hand_case(chart4, cfg):
    # F with F^1_2 = x1 and F^2_1 = x2 (all else zero); at (1/2, 1/2, 0, 0)
    # the only nonvanishing components are N^1_12 = -N^1_21 = 1/2 and
    # N^2_12 = -N^2_21 = -1/2, worked out from
    # N(X,Y) = [FX,FY] - F[FX,Y] - F[X,FY] + F^2 [X,Y].
    F = TensorField(
        chart4,
        1,
        1,
        lambda p: np.array(
            [
                [0.0, p.coords[0], 0, 0],
                [p.coords[1], 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        ),
        "handF",
    )
    p = Point(chart4, [0.5, 0.5, 0.0, 0.0])
    N = nijenhuis(F, p, cfg)
    expected = np.zeros((4, 4, 4))
    expected[0, 0, 1] = 0.5
    expected[0, 1, 0] = -0.5
    expected[1, 0, 1] = -0.5
    expected[1, 1, 0] = 0.5
    assert np.abs(N - expected).max() < 1e-8


def test_covariant_derivative_vector_flat_reduces_to_directional(flat4, chart4, cfg):
    W = TensorField(chart4, 1, 0, lambda p: np.array([p.coords[1] ** 2, 0, 0, 0]), "W")
    p = Point(chart4, [0.0, 0.5, 0.0, 0.0])
    got = covariant_derivative_vector(flat4, W, np.array([0, 1, 0, 0.0]), p, cfg)
    assert np.allclose(got, [1.0, 0, 0, 0], atol=1e-8)


def test_covariant_derivative_vector_gamma_term(conformal4, chart4, cfg):
    # constant W: the derivative is purely Gamma(u, W)
    W = constant_field(chart4, 1, 0, np.array([0, 0, 1.0, 0]), "e3")
    p = Point(chart4, [0.1, 0.2, 0.3, -0.2])
    u = np.array([1.0, 0, 0, 0])
    gam = christoffel(conformal4, p, cfg)
    expected = np.einsum("kml,m,l->k", gam, u, np.array([0, 0, 1.0, 0]))
    got = covariant_derivative_vector(conformal4, W, u, p, cfg)
    assert np.allclose(got, expected, atol=1e-10)


def test_lie_bracket(chart4, cfg):
    U = TensorField(chart4, 1, 0, lambda p: np.array([p.coords[1], 0, 0, 0]), "U")
    W = TensorField(chart4, 1, 0, lambda p: np.array([0, p.coords[0], 0, 0]), "W")
    p = Point(chart4, [0.3, 0.7, 0.0, 0.0])
    assert np.allclose(lie_bracket(U, W, p, cfg), [-0.3, 0.7, 0, 0], atol=1e-10)
    # antisymmetry
    assert np.allclose(
        lie_bracket(U, W, p, cfg), -lie_bracket(W, U, p, cfg), atol=1e-12
    )


def test_covariant_derivative_11_leibniz_against_parts(conformal4, chart4, cfg):
    # nabla of the identity (1,1) field must vanish for any metric connection
    eye = constant_field(chart4, 1, 1, np.eye(4), "id")
    p = Point(chart4, [0.2, 0.1, -0.3, 0.05])
    D = covariant_derivative_11(conformal4, eye, p, cfg)
    assert np.abs(D).max() < 1e-10


# ------------------------------------------------------------------ memo

MEMO_POINT = [0.1, -0.2, 0.3, 0.05]


def _conformal(p):
    return np.exp(2.0 * p.coords[0]) * ETA


def _counted_metric(chart, comps=_conformal):
    """A fresh MetricField and the list its component callable appends to."""
    calls = []

    def counted(p):
        calls.append(p)
        return comps(p)

    return MetricField(TensorField(chart, 0, 2, counted, "counted")), calls


EVALUATIONS = {
    "matrix": lambda g, p, cfg: g.matrix(p),
    "christoffel": christoffel,
    "riemann": riemann,
}


@pytest.mark.parametrize("what", sorted(EVALUATIONS))
def test_memo_hit_is_read_only_and_skips_the_components(chart4, cfg, what):
    evaluate = EVALUATIONS[what]
    g, calls = _counted_metric(chart4)
    p = Point(chart4, MEMO_POINT)
    first = evaluate(g, p, cfg)
    made = len(calls)
    assert made > 0
    again = evaluate(g, Point(chart4, MEMO_POINT), cfg)
    assert len(calls) == made
    assert again.tobytes() == first.tobytes()
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[(0,) * again.ndim] = 1.0
    fresh, _ = _counted_metric(chart4)
    assert evaluate(fresh, p, cfg).tobytes() == first.tobytes()


def test_memo_never_freezes_the_callers_array(chart4):
    value = np.diag([2.0, 1.0, -1.0, -1.0])
    g, _ = _counted_metric(chart4, lambda p: value)
    p = Point(chart4, MEMO_POINT)
    assert not g.matrix(p).flags.writeable
    assert value.flags.writeable
    METRICS["neutral4"](chart4).matrix(p)
    assert ETA4.flags.writeable


@pytest.mark.parametrize("what", ["christoffel", "riemann"])
def test_memo_computes_another_step_afresh(chart4, what):
    evaluate = EVALUATIONS[what]
    g, calls = _counted_metric(chart4)
    p = Point(chart4, MEMO_POINT)
    coarse, fine = FdConfig(step=2e-3), FdConfig(step=1e-3)
    at_coarse = evaluate(g, p, coarse)
    made = len(calls)
    at_fine = evaluate(g, p, fine)
    assert len(calls) > made
    assert not np.array_equal(at_coarse, at_fine)
    fresh, _ = _counted_metric(chart4)
    assert at_fine.tobytes() == evaluate(fresh, p, fine).tobytes()
    assert evaluate(g, p, coarse).tobytes() == at_coarse.tobytes()


@pytest.mark.parametrize("what", sorted(EVALUATIONS))
def test_memo_hit_still_rejects_a_point_of_another_chart(chart4, cfg, what):
    evaluate = EVALUATIONS[what]
    g, _ = _counted_metric(chart4)
    evaluate(g, Point(chart4, MEMO_POINT), cfg)
    other = make_chart(4, coords=("a", "b", "c", "d"))
    with pytest.raises(ValidationError, match="different charts"):
        evaluate(g, Point(other, MEMO_POINT), cfg)


H = FdConfig().step

RAISING = {
    # evaluation, component callable, point, error
    "outside the box": ("matrix", _conformal, [2.0, 0.0, 0.0, 0.0], OutOfDomainError),
    "degenerate": (
        "matrix", lambda p: np.diag([p.coords[0], 1.0, -1.0, -1.0]), [0.0, 0.1, 0.2, 0.3],
        DegenerateMetricError,
    ),
    "not symmetric": (
        "matrix", lambda p: ETA + np.triu(np.ones((4, 4)), 1), MEMO_POINT, ValidationError,
    ),
    "Gamma stencil off the box": (
        "christoffel", _conformal, [1.0 - 0.5 * H, 0.0, 0.0, 0.0], StencilOutOfDomainError,
    ),
    "R stencil off the box": (
        "riemann", _conformal, [1.0 - 1.5 * H, 0.0, 0.0, 0.0], StencilOutOfDomainError,
    ),
}


@pytest.mark.parametrize("case", sorted(RAISING))
def test_memo_stores_nothing_when_an_evaluation_raises(chart4, cfg, case):
    what, comps, coords, error = RAISING[case]
    g, _ = _counted_metric(chart4, comps)
    p = Point(chart4, coords)
    for _ in range(2):
        with pytest.raises(error):
            EVALUATIONS[what](g, p, cfg)
