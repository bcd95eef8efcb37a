import numpy as np
import pytest

from paraquat import (
    NotAFiberError,
    Point,
    PreconditionFailedError,
    RankDeficientError,
    StencilOutOfDomainError,
    SubmersionMap,
    basic_lift,
    check_paraholomorphic,
    check_semi_riemannian,
    check_vh_invariance,
    descend_one_forms,
    fit_kahler_oneforms,
    jacobian,
    oneill_tensors,
    sample_points,
    vh_split,
)
from paraquat.catalog import METRICS, TRIPLES, make_chart


@pytest.fixture(scope="module")
def proj8to4():
    chart8 = make_chart(8)
    chart4 = make_chart(4)
    f = SubmersionMap(chart8, chart4, lambda c: c[:4], "proj")
    return chart8, chart4, f


def test_jacobian_of_projection(proj8to4, cfg):
    chart8, _, f = proj8to4
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    J = jacobian(f, p, cfg)
    expected = np.hstack([np.eye(4), np.zeros((4, 4))])
    assert np.abs(J - expected).max() < 1e-12
    assert J.shape == (4, 8) and J.flags.c_contiguous


def test_jacobian_stencil_must_stay_in_the_source_box(proj8to4, cfg):
    chart8, chart4, _ = proj8to4
    seen = []

    def recording(c):
        seen.append(c.copy())
        return c[:4]

    f = SubmersionMap(chart8, chart4, recording, "recording proj")
    near_wall = Point(chart8, [0.1, -0.2, 0.3, 0.0, 1.0 - 0.5 * cfg.step, -0.5, 0.2, 0.1])
    with pytest.raises(StencilOutOfDomainError):
        jacobian(f, near_wall, cfg)
    assert seen == []  # rejected before the map is evaluated off the box


def test_rank_deficient_map_rejected(proj8to4, cfg):
    chart8, chart4, _ = proj8to4
    bad = SubmersionMap(
        chart8, chart4, lambda c: np.array([c[0], c[0], c[2], c[3]]), "bad"
    )
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    with pytest.raises(RankDeficientError):
        vh_split(bad, METRICS["neutral8"](chart8), p, cfg)


def test_vh_split_projectors(proj8to4, cfg):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    fr = vh_split(f, g8, p, cfg)
    for P in (fr.v, fr.h):
        assert np.abs(P @ P - P).max() < 1e-9  # idempotent
    assert np.abs(fr.v + fr.h - np.eye(8)).max() < 1e-9
    assert np.abs(fr.v @ fr.h).max() < 1e-9
    # vertical space of the coordinate projection is the last four axes
    for k in range(4, 8):
        e = np.zeros(8)
        e[k] = 1.0
        assert np.abs(fr.v @ e - e).max() < 1e-9


def test_semi_riemannian_projection(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    g4 = METRICS["neutral4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    assert check_semi_riemannian(f, g8, g4, pts, cfg) < 1e-8


def test_semi_riemannian_detects_scaling(proj8to4, cfg):
    chart8, chart4, _ = proj8to4
    f = SubmersionMap(
        chart8, chart4, lambda c: np.array([0.5 * c[0], c[1], c[2], c[3]]), "scaled"
    )
    g8 = METRICS["neutral8"](chart8)
    g4 = METRICS["neutral4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    # df(e1) has squared length 0.25 instead of 1
    assert check_semi_riemannian(f, g8, g4, pts, cfg) == pytest.approx(0.75, abs=1e-6)


def test_paraholomorphic_aligned_triples(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    up = TRIPLES["product8-rotated"](chart8)
    down = TRIPLES["rotated4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    assert check_paraholomorphic(f, up, down, pts, cfg) < 1e-10


def test_paraholomorphic_misaligned_triples(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    # fiber-coordinate rotation upstairs is invisible downstairs, so the
    # pushforward disagrees with the standard basis pointwise
    up = TRIPLES["product8-fiber-rotated"](chart8)
    down = TRIPLES["standard4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    assert check_paraholomorphic(f, up, down, pts, cfg) > 0.1


def test_vh_invariance(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8"](chart8)
    down = TRIPLES["standard4"](chart4)
    pts = sample_points(chart8, 3, seed=5)
    rep = check_vh_invariance(f, g8, up, down, pts, cfg)
    assert rep.v_residual < 1e-9
    assert rep.h_residual < 1e-9


def test_vh_invariance_needs_paraholomorphic(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-fiber-rotated"](chart8)
    down = TRIPLES["standard4"](chart4)
    pts = sample_points(chart8, 3, seed=5)
    with pytest.raises(PreconditionFailedError):
        check_vh_invariance(f, g8, up, down, pts, cfg)


def test_oneill_tensors_vanish_for_product(proj8to4, cfg):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    ten = oneill_tensors(f, g8, p, cfg)
    assert ten.max_a_horizontal < 1e-7
    assert np.abs(ten.t_full).max() < 1e-7
    assert ten.antisymmetry_residual < 1e-7


def test_basic_lift(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    X = np.array([1.0, -2.0, 0.5, 0.0])
    lifted = basic_lift(f, g8, p, X, cfg)
    J = jacobian(f, p, cfg)
    assert np.abs(J @ lifted - X).max() < 1e-9  # projects back to X
    assert np.abs(lifted[4:]).max() < 1e-9  # horizontal for this projection


def test_descend_oneforms(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-rotated"](chart8)
    base = np.array([0.1, 0.2, -0.1, 0.05])
    fiber = [
        Point(chart8, np.concatenate([base, [t, 0.3 - t, 0.1 * t, -0.2]]))
        for t in (-0.4, -0.2, 0.0, 0.2, 0.4)
    ]
    rep = descend_one_forms(f, g8, up, fiber, cfg)
    assert rep.constancy_residual < 1e-6
    assert rep.points_used == 5
    # the descended forms agree with a direct fit downstairs
    g4 = METRICS["neutral4"](chart4)
    down = TRIPLES["rotated4"](chart4)
    fit = fit_kahler_oneforms(g4, down, rep.image, cfg)
    assert np.abs(rep.omega_base - fit.omega).max() < 1e-5


def test_descend_rejects_non_fiber(proj8to4, cfg):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8"](chart8)
    pts = [
        Point(chart8, [0.1, 0.2, -0.1, 0.05, 0.0, 0.0, 0.0, 0.0]),
        Point(chart8, [0.3, 0.2, -0.1, 0.05, 0.1, 0.0, 0.0, 0.0]),  # different image
    ]
    with pytest.raises(NotAFiberError):
        descend_one_forms(f, g8, up, pts, cfg)


def test_descend_requires_span_parallel_structure(proj8to4, cfg):
    chart8, _, f = proj8to4
    # positive-definite upstairs metric: triple is not even hermitian
    from paraquat import MetricField, constant_field

    g8 = MetricField(constant_field(chart8, 0, 2, np.eye(8), "euc8"))
    up = TRIPLES["product8"](chart8)
    pts = [Point(chart8, [0.1, 0.2, -0.1, 0.05, t, 0.0, 0.0, 0.0]) for t in (0.0, 0.2)]
    with pytest.raises(PreconditionFailedError):
        descend_one_forms(f, g8, up, pts, cfg)


def test_descend_detects_fiber_twist(proj8to4, cfg):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-fiber-rotated"](chart8)
    base = np.array([0.1, 0.2, -0.1, 0.05])
    fiber = [
        Point(chart8, np.concatenate([base, [t, 0.3 - t, 0.1 * t, -0.2]]))
        for t in (-0.4, -0.2, 0.0, 0.2, 0.4)
    ]
    rep = descend_one_forms(f, g8, up, fiber, cfg)
    # upstairs everything is consistent along the fiber...
    assert rep.constancy_residual < 1e-6
    assert np.abs(rep.omega_base).max() < 1e-6
    # ...but the descended forms do not match the rotated basis downstairs
    g4 = METRICS["neutral4"](chart4)
    down = TRIPLES["rotated4"](chart4)
    fit = fit_kahler_oneforms(g4, down, rep.image, cfg)
    assert np.abs(rep.omega_base - fit.omega).max() > 0.5
