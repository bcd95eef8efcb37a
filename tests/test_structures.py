"""Classification ladder, 1-form fitting, and almost product structures."""

import dataclasses

import numpy as np
import pytest

from paraquat import (
    FdConfig,
    IllConditionedError,
    LocalBasisTriple,
    MetricField,
    Point,
    PreconditionFailedError,
    StencilOutOfDomainError,
    StructureClass,
    TensorField,
    ValidationError,
    check_hermitian,
    connection,
    check_parallel_equivalence,
    check_product_structure,
    check_sigma_invariant_operator,
    classify_structure,
    constant_field,
    fit_kahler_oneforms,
    sample_points,
    structures,
)
from paraquat.catalog import STD_J1, STD_J2, STD_J3, STRUCTURES, TRIPLES, make_chart


def test_hermitian_residuals(flat4, euclidean4, std_triple, pts4):
    for p in pts4:
        assert check_hermitian(flat4, std_triple, p) < 1e-14
    # against the definite metric the swap members are symmetric, not skew
    assert check_hermitian(euclidean4, std_triple, pts4[0]) == pytest.approx(2.0)


def test_classify_flat_standard(flat4, std_triple, pts4, cfg):
    v = classify_structure(flat4, std_triple, pts4, cfg=cfg)
    assert v.cls is StructureClass.LHPK_BASIS
    assert v.nabla_max < 1e-10


def test_classify_flat_rotated(flat4, rot_triple, pts4, cfg):
    v = classify_structure(flat4, rot_triple, pts4, cfg=cfg)
    assert v.cls is StructureClass.PQK
    assert v.nabla_max > 0.1  # the basis itself really is not parallel
    assert v.fit_residual_max < 1e-10


def test_classify_euclidean_not_hermitian(euclidean4, std_triple, pts4, cfg):
    v = classify_structure(euclidean4, std_triple, pts4, cfg=cfg)
    assert v.cls is StructureClass.NOT_HERMITIAN
    assert v.hermitian_max == pytest.approx(2.0)


def test_classify_conformal_is_span_parallel(conformal4, std_triple, pts4, cfg):
    # curvature does not obstruct the span condition here
    v = classify_structure(conformal4, std_triple, pts4, cfg=cfg)
    assert v.cls is StructureClass.PQK


def test_classify_scaled_member_hermitian_only(flat4, chart4, cfg):
    # scaling one member keeps g-skewness but pushes the derivative onto
    # J1 itself, which the span form has no slot for
    scaled = LocalBasisTriple(
        TensorField(chart4, 1, 1, lambda p: (1 + 0.3 * p.coords[1]) * STD_J1, "fJ1"),
        constant_field(chart4, 1, 1, STD_J2, "J2"),
        constant_field(chart4, 1, 1, STD_J3, "J3"),
    )
    pts = sample_points(chart4, 5, seed=9)
    v = classify_structure(flat4, scaled, pts, cfg=cfg)
    assert v.cls is StructureClass.HERMITIAN_ONLY
    assert v.fit_residual_max == pytest.approx(0.3, abs=1e-6)


def test_classify_covariant_under_constant_rotation(flat4, std_triple, chart4, pts4, cfg):
    th = 0.7
    c, s = np.cos(th), np.sin(th)
    rotated = LocalBasisTriple(
        constant_field(chart4, 1, 1, c * STD_J1 + s * STD_J2, "a"),
        constant_field(chart4, 1, 1, -s * STD_J1 + c * STD_J2, "b"),
        constant_field(chart4, 1, 1, STD_J3, "c"),
    )
    v = classify_structure(flat4, rotated, pts4, cfg=cfg)
    assert v.cls is StructureClass.LHPK_BASIS


def test_fit_oneforms_rotated(flat4, rot_triple, pts4, cfg):
    for p in pts4:
        fit = fit_kahler_oneforms(flat4, rot_triple, p, cfg)
        assert fit.residual < 1e-10
        expected = np.zeros((3, 4))
        expected[2, 0] = -1.0  # w3 = -dx1
        assert np.abs(fit.omega - expected).max() < 1e-5


def test_fit_oneforms_conformal(conformal4, std_triple, pts4, cfg):
    expected = np.zeros((3, 4))
    expected[0, 2] = 1.0  # w1 = dx3
    expected[1, 3] = -1.0  # w2 = -dx4
    expected[2, 1] = 1.0  # w3 = dx2
    for p in pts4:
        fit = fit_kahler_oneforms(conformal4, std_triple, p, cfg)
        assert fit.residual < 1e-5
        assert np.abs(fit.omega - expected).max() < 1e-5


def test_fit_oneforms_degenerate_pairing(flat4, chart4, cfg):
    zero_member = LocalBasisTriple(
        constant_field(chart4, 1, 1, STD_J1, "J1"),
        constant_field(chart4, 1, 1, STD_J2, "J2"),
        constant_field(chart4, 1, 1, np.zeros((4, 4)), "zero"),
    )
    with pytest.raises(IllConditionedError):
        fit_kahler_oneforms(flat4, zero_member, Point(chart4, [0, 0, 0, 0]), cfg)


# ------------------------------------------------------------ fit memo


@pytest.fixture
def nabla_calls(monkeypatch):
    """Points at which a fit asks for a covariant derivative of a member."""
    calls = []
    real = structures.covariant_derivative_11

    def counted(g, T, p, cfg=FdConfig()):
        calls.append(p)
        return real(g, T, p, cfg)

    monkeypatch.setattr(structures, "covariant_derivative_11", counted)
    return calls


def _fresh(g):
    return MetricField(g.field)


def test_second_fit_is_the_memoised_one(conformal4, std_triple, cfg, nabla_calls):
    g = _fresh(conformal4)
    p = Point(g.chart, [0.1, -0.2, 0.3, 0.05])
    first = fit_kahler_oneforms(g, std_triple, p, cfg)
    made = len(nabla_calls)
    assert made == 3
    again = fit_kahler_oneforms(g, std_triple, Point(g.chart, p.coords), cfg)
    assert len(nabla_calls) == made
    assert again.omega is first.omega and again.nabla is first.nabla
    assert again.residual == first.residual
    for arr in (again.omega, again.nabla):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    alone = fit_kahler_oneforms(_fresh(conformal4), std_triple, p, cfg)
    assert alone.omega.tobytes() == first.omega.tobytes()
    assert alone.nabla.tobytes() == first.nabla.tobytes()


def test_fit_memo_computes_another_triple_or_step_afresh(conformal4, std_triple, rot_triple, cfg, nabla_calls):
    g = MetricField(dataclasses.replace(conformal4.field, jets=None))  # Gamma from finite differences
    p = Point(g.chart, [0.1, -0.2, 0.3, 0.05])
    std = fit_kahler_oneforms(g, std_triple, p, cfg)
    rot = fit_kahler_oneforms(g, rot_triple, p, cfg)
    assert len(nabla_calls) == 6
    assert not np.array_equal(std.omega, rot.omega)
    coarse = fit_kahler_oneforms(g, std_triple, p, FdConfig(step=2e-3))
    assert len(nabla_calls) == 9
    assert coarse.nabla.tobytes() != std.nabla.tobytes()
    assert fit_kahler_oneforms(g, rot_triple, p, cfg).omega is rot.omega
    assert len(nabla_calls) == 9


def test_fit_memo_hit_still_rejects_a_point_of_another_chart(conformal4, std_triple, cfg):
    g = _fresh(conformal4)
    fit_kahler_oneforms(g, std_triple, Point(g.chart, [0.1, -0.2, 0.3, 0.05]), cfg)
    other = make_chart(4, coords=("a", "b", "c", "d"))
    with pytest.raises(ValidationError, match="different charts"):
        fit_kahler_oneforms(g, std_triple, Point(other, [0.1, -0.2, 0.3, 0.05]), cfg)


def test_raising_fit_stores_nothing(conformal4, std_triple, cfg, nabla_calls):
    g = _fresh(conformal4)
    wall = Point(g.chart, [1.0 - 0.5 * cfg.step, 0.0, 0.0, 0.0])  # stencil leaves the box
    for attempt in (1, 2):
        with pytest.raises(StencilOutOfDomainError):
            fit_kahler_oneforms(g, std_triple, wall, cfg)
        assert len(nabla_calls) == attempt
    assert not [key for key in g._memo if key[0] == ("fit", std_triple)]


# ---------------------------------------------------------------- products


@pytest.fixture(scope="module")
def product_setup():
    chart8 = make_chart(8)
    from paraquat.catalog import METRICS

    return (
        chart8,
        METRICS["neutral8"](chart8),
        TRIPLES["product8"](chart8),
        STRUCTURES["split8"](chart8),
        STRUCTURES["split8-rotated"](chart8),
    )


def test_split8_is_parallel_product(product_setup, cfg):
    chart8, g8, _, split, _ = product_setup
    p = Point(chart8, [0.1, 0.0, -0.2, 0.3, 0.05, -0.1, 0.2, 0.15])
    rep = check_product_structure(g8, split, p, cfg)
    assert rep.max_residual < 1e-12


def test_split8_rotated_fails_both_conditions(product_setup, cfg):
    chart8, g8, _, _, rotated = product_setup
    # at x2 = 0 the derivative magnitudes come out exactly 0.2 and 0.4
    p = Point(chart8, [0.1, 0.0, -0.2, 0.3, 0.05, -0.1, 0.2, 0.15])
    rep = check_product_structure(g8, rotated, p, cfg)
    assert rep.involution_residual < 1e-12
    assert rep.metric_residual < 1e-12
    assert rep.parallel_residual == pytest.approx(0.2, abs=1e-6)
    assert rep.nijenhuis_residual == pytest.approx(0.4, abs=1e-6)


def test_sigma_invariance(product_setup):
    chart8, _, T8, split, rotated = product_setup
    p = Point(chart8, [0.2, 0.4, 0, 0, 0.1, 0, 0, -0.3])
    assert check_sigma_invariant_operator(split, T8, p) < 1e-14
    assert check_sigma_invariant_operator(rotated, T8, p) < 1e-14


def test_equivalence_parallel_case(product_setup, cfg):
    chart8, g8, T8, split, _ = product_setup
    pts = sample_points(chart8, 4, seed=4)
    rep = check_parallel_equivalence(g8, split, T8, pts, cfg)
    assert rep.flags == (True, True, True)
    assert rep.agree


def test_equivalence_non_parallel_case(product_setup, cfg):
    chart8, g8, T8, _, rotated = product_setup
    pts = sample_points(chart8, 4, seed=4)
    rep = check_parallel_equivalence(g8, rotated, T8, pts, cfg)
    assert rep.flags == (False, False, False)
    assert rep.agree
    # all three residuals are far from zero together
    assert min(rep.parallel_residual, rep.nijenhuis_residual, rep.mixed_residual) > 1e-3
    assert rep.parallel_residual == pytest.approx(0.2, abs=1e-3)
    assert rep.nijenhuis_residual == pytest.approx(0.4, abs=1e-3)


def test_equivalence_requires_sigma_invariance(product_setup, cfg):
    chart8, g8, T8, _, _ = product_setup
    from paraquat import ProductStructureField

    # an involution that does not commute with the triple
    F = ProductStructureField(
        constant_field(chart8, 1, 1, np.diag([1.0, -1, 1, 1, 1, 1, 1, 1]), "bad"),
        "bad",
    )
    pts = sample_points(chart8, 3, seed=4)
    with pytest.raises(PreconditionFailedError):
        check_parallel_equivalence(g8, F, T8, pts, cfg)


def test_equivalence_requires_span_parallel_pair(chart4, euclidean4, std_triple, cfg):
    from paraquat import ProductStructureField

    F = ProductStructureField(
        constant_field(chart4, 1, 1, np.diag([1.0, 1, -1, -1]), "split4"), "split4"
    )
    pts = sample_points(chart4, 3, seed=4)
    with pytest.raises(PreconditionFailedError):
        check_parallel_equivalence(euclidean4, F, std_triple, pts, cfg)


def test_product_and_equivalence_checks_compute_nabla_f_and_n_f_once(product_setup, cfg, monkeypatch):
    chart8, g8, T8, _, rotated = product_setup
    g = MetricField(g8.field)  # a fresh memo
    pts = sample_points(chart8, 3, seed=4)
    grads = []
    real = connection.fd_gradient

    def counted(f, p, cfg=FdConfig()):
        if f is rotated.field:
            grads.append(p.coords.tobytes())
        return real(f, p, cfg)

    monkeypatch.setattr(connection, "fd_gradient", counted)
    reps = [check_product_structure(g, rotated, p, cfg) for p in pts]
    # one derivative of F per point, read by nabla F and by N_F
    assert grads == [p.coords.tobytes() for p in pts]
    eq = check_parallel_equivalence(g, rotated, T8, pts, cfg)
    assert len(grads) == len(pts)
    assert eq.parallel_residual == max(r.parallel_residual for r in reps)
    assert eq.nijenhuis_residual == max(r.nijenhuis_residual for r in reps)
    fresh = MetricField(g8.field)
    for p in pts:
        D = connection.covariant_derivative_11(g, rotated.field, p, cfg)
        assert not D.flags.writeable
        assert D.tobytes() == connection.covariant_derivative_11(fresh, rotated.field, p, cfg).tobytes()
        assert D is connection.covariant_derivative_11(g, rotated.field, Point(chart8, p.coords), cfg)
        N = structures._nijenhuis(g, rotated, p, cfg)
        assert not N.flags.writeable
        assert N.tobytes() == connection.nijenhuis(rotated.field, p, cfg).tobytes()


def test_an_inline_expression_triple_has_exact_derivatives(flat4, rot_expr_triple, chart4):
    # rotated4 written inline carries jets, so nabla J_a is exact: the pair
    # classifies PQK with a fit residual at roundoff, and a finite-difference
    # copy of the triple is O(h^2) from it
    assert all(f.jets is not None for f in rot_expr_triple.fields)
    pts = sample_points(chart4, 4, seed=3)
    verdict = classify_structure(MetricField(flat4.field), rot_expr_triple, pts)
    assert verdict.cls is StructureClass.PQK
    assert verdict.fit_residual_max <= 1e-12
    exact = [fit_kahler_oneforms(MetricField(flat4.field), rot_expr_triple, p).nabla for p in pts]
    fd = LocalBasisTriple(*(dataclasses.replace(f, jets=None) for f in rot_expr_triple.fields))
    distance = []
    for h in (1e-3, 5e-4):
        g = MetricField(flat4.field)
        distance.append(max(np.abs(fit_kahler_oneforms(g, fd, p, FdConfig(h)).nabla - e).max() for p, e in zip(pts, exact)))
    assert 1.8 <= np.log2(distance[0] / distance[1]) <= 2.2
