"""Classification ladder, 1-form fitting, and almost product structures."""

import dataclasses

import numpy as np
import pytest

from paraquat import (
    EvaluationError,
    FdConfig,
    IllConditionedError,
    LocalBasisTriple,
    MetricField,
    Point,
    PreconditionFailedError,
    ProductStructureField,
    StencilOutOfDomainError,
    StructureClass,
    TensorField,
    ValidationError,
    algebra,
    build_tangent_bundle,
    check_hermitian,
    connection,
    check_parallel_equivalence,
    check_product_structure,
    check_sigma_invariant_operator,
    classify_structure,
    constant_field,
    fields,
    fit_kahler_oneforms,
    sample_points,
    structures,
)
from paraquat.catalog import (
    METRICS,
    STD_J1,
    STD_J2,
    STD_J3,
    STRUCTURES,
    TRIPLES,
    make_chart,
    structure_from_config,
    triple_from_config,
)
from paraquat.structures import span_combination

from conftest import reference_nabla, rotated4_matrices


def _scaled(M, factor):
    """The (1,1) expression field factor * M."""
    rows = [[f"{M[i, j]}*({factor})" for j in range(M.shape[1])] for i in range(M.shape[0])]
    return structure_from_config({"matrix": rows}, make_chart(M.shape[0])).field


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
        _scaled(STD_J1, "1 + 0.3*x2"),
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
    """Points at which a fit asks for a covariant derivative of a member:
    each point of each batch the fit hands to ``_covariant_derivatives``."""
    calls = []
    real = structures._covariant_derivatives

    def counted(g, T, pts, cfg):
        calls.extend(pts)
        return real(g, T, pts, cfg)

    monkeypatch.setattr(structures, "_covariant_derivatives", counted)
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
    g = _fresh(conformal4)
    p = Point(g.chart, [0.1, -0.2, 0.3, 0.05])
    std = fit_kahler_oneforms(g, std_triple, p, cfg)
    rot = fit_kahler_oneforms(g, rot_triple, p, cfg)
    assert len(nabla_calls) == 6
    assert not np.array_equal(std.omega, rot.omega)
    # exact derivatives do not depend on the step, yet another step is
    # another fit, under its own stencil rule
    coarse = fit_kahler_oneforms(g, std_triple, p, FdConfig(step=2e-3))
    assert len(nabla_calls) == 9
    assert coarse.nabla is not std.nabla and coarse.nabla.tobytes() == std.nabla.tobytes()
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
    # an involution that does not commute with the triple
    F = ProductStructureField(
        constant_field(chart8, 1, 1, np.diag([1.0, -1, 1, 1, 1, 1, 1, 1]), "bad"),
        "bad",
    )
    pts = sample_points(chart8, 3, seed=4)
    with pytest.raises(PreconditionFailedError):
        check_parallel_equivalence(g8, F, T8, pts, cfg)


def test_equivalence_requires_span_parallel_pair(chart4, euclidean4, std_triple, cfg):
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

    def counted(points, order):
        grads.extend(q.coords.tobytes() for q in points)
        return real.jets(points, order)

    real = rotated.field
    rotated = ProductStructureField(dataclasses.replace(real, jets=counted), rotated.label)
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
        reference = connection._nijenhuis_tensor(fields.eval_field(real, p), real.jets([p], 1)[1][0])
        assert N.tobytes() == reference.tobytes()


def test_an_inline_expression_triple_has_exact_derivatives(flat4, rot_expr_triple, chart4):
    # rotated4 written inline carries jets, so nabla J_a is exact: the pair
    # classifies PQK with a fit residual at roundoff, and nabla J_a from
    # central differences of the members is O(h^2) from it
    assert all(f.jets is not None for f in rot_expr_triple.fields)
    pts = sample_points(chart4, 4, seed=3)
    verdict = classify_structure(MetricField(flat4.field), rot_expr_triple, pts)
    assert verdict.cls is StructureClass.PQK
    assert verdict.fit_residual_max <= 1e-12
    exact = [fit_kahler_oneforms(MetricField(flat4.field), rot_expr_triple, p).nabla for p in pts]
    distance = []
    for h in (1e-3, 5e-4):
        fd = [np.stack([reference_nabla(flat4, f, p, FdConfig(h), fd=True) for f in rot_expr_triple.fields]) for p in pts]
        distance.append(max(np.abs(D - e).max() for D, e in zip(fd, exact)))
    assert 1.8 <= np.log2(distance[0] / distance[1]) <= 2.2


# ------------------------------------------------------------ batched fit


def reference_fit(g, T, p, cfg):
    """(omega, residual, nabla) at one point as the one-point fit formed them:
    nabla J_a per member, and each slot one einsum("kj,jk->") over one
    (a, b, i)."""
    n = g.chart.dim
    J = T.matrices(p)
    traces = np.array([np.trace(J[b] @ J[b]) for b in range(3)])
    D = np.stack([reference_nabla(g, f, p, cfg) for f in T.fields])

    def slot(a, b, i):
        return float(np.einsum("kj,jk->", D[a][i], J[b]) / traces[b])

    omega = np.empty((3, n))
    for i in range(n):
        omega[0, i] = 0.5 * (slot(1, 2, i) + slot(2, 1, i))
        omega[1, i] = 0.5 * (slot(0, 2, i) + slot(2, 0, i))
        omega[2, i] = 0.5 * (slot(1, 0, i) - slot(0, 1, i))
    residual = 0.0
    for i in range(n):
        recon = span_combination(omega[:, i], J)
        for a in range(3):
            residual = max(residual, float(np.abs(D[a][i] - recon[a]).max()))
    return omega, residual, D


def _lifted(chart, triple):
    """The lifted pair of the Sasaki lift of (conformal-neutral4, triple)."""
    bundle = build_tangent_bundle(METRICS["conformal-neutral4"](chart), TRIPLES[triple](chart))
    return bundle.metric, bundle.triple


FIT_CASES = {
    # name: (a builder of (metric, triple), the class the pair has)
    "constant over neutral4": (lambda c: (METRICS["neutral4"](c), TRIPLES["standard4"](c)), StructureClass.LHPK_BASIS),
    "constant over conformal-neutral4": (
        lambda c: (METRICS["conformal-neutral4"](c), TRIPLES["standard4"](c)), StructureClass.PQK,
    ),
    "rotated4 over neutral4": (lambda c: (METRICS["neutral4"](c), TRIPLES["rotated4"](c)), StructureClass.PQK),
    "expression over conformal-neutral4": (
        lambda c: (METRICS["conformal-neutral4"](c), triple_from_config({"matrices": rotated4_matrices()}, c)),
        StructureClass.PQK,
    ),
    "sasaki lift of standard4": (lambda c: _lifted(c, "standard4"), StructureClass.HERMITIAN_ONLY),
    "sasaki lift of rotated4": (lambda c: _lifted(c, "rotated4"), StructureClass.HERMITIAN_ONLY),
}


def _fit_points(g):
    pts = sample_points(g.chart, 3, seed=5)
    return pts + [Point(g.chart, np.zeros(g.chart.dim))]


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_batched_fit_is_the_one_point_fit_bit_for_bit(chart4, cfg, name):
    build, cls = FIT_CASES[name]
    g, T = build(chart4)
    pts = _fit_points(g)
    fits = structures._fits(g, T, pts, cfg)
    for p, (omega, residual, D) in zip(pts, fits):
        ref_omega, ref_residual, ref_D = reference_fit(g, T, p, cfg)
        for got, ref in ((omega, ref_omega), (D, ref_D)):
            assert got.tobytes() == ref.tobytes()
            # descend-oneforms prints omega, so a zero keeps its sign too
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert not got.flags.writeable
        assert residual == ref_residual
        fit = fit_kahler_oneforms(g, T, Point(g.chart, p.coords), cfg)
        assert fit.omega is omega and fit.nabla is D
    assert classify_structure(g, T, pts, cfg=cfg).cls is cls
    if cls is StructureClass.LHPK_BASIS:  # nabla J vanishes: every value is a zero
        assert not any(np.abs(D).max() for _, _, D in fits)


def test_classify_hands_the_whole_sample_to_one_evaluation_per_member(conformal4, chart4, cfg, monkeypatch):
    # an expression triple: one jets call per member for the whole sample
    jets_calls = []

    def counted(f):
        def jets(points, order):
            jets_calls.append((f.label, len(points)))
            return f.jets(points, order)

        return dataclasses.replace(f, jets=jets)

    expr = triple_from_config({"matrices": rotated4_matrices()}, chart4)
    T = LocalBasisTriple(*(counted(f) for f in expr.fields))
    pts = sample_points(chart4, 6, seed=3)
    classify_structure(MetricField(conformal4.field), T, pts, cfg=cfg)
    assert sorted(jets_calls) == sorted((f.label, 6) for f in T.fields)
    # a lambda triple: as many evaluation batches for 2 points as for 6
    batches = []
    real = fields.eval_batch

    def counted_batch(field, points):
        batches.append(field)
        return real(field, points)

    for module in (fields, connection, algebra):
        monkeypatch.setattr(module, "eval_batch", counted_batch)
    rot = TRIPLES["rotated4"](chart4)
    counts = []
    for n in (2, 6):
        batches.clear()
        classify_structure(MetricField(conformal4.field), rot, sample_points(chart4, n, seed=3), cfg=cfg)
        counts.append([batches.count(f) for f in rot.fields])
    assert counts[0] == counts[1]


def test_fit_batch_computes_a_repeated_point_once(conformal4, std_triple, cfg, nabla_calls):
    g = _fresh(conformal4)
    p, q = Point(g.chart, [0.1, -0.2, 0.3, 0.05]), Point(g.chart, [-0.4, 0.2, 0.0, 0.6])
    fits = structures._fits(g, std_triple, [p, q, Point(g.chart, p.coords)], cfg)
    assert [r.coords.tobytes() for r in nabla_calls] == [p.coords.tobytes(), q.coords.tobytes()] * 3
    assert fits[2] is fits[0]


def _degenerate_at_second(chart4):
    # J3 scaled by x1, so the trace pairing vanishes where x1 = 0
    return LocalBasisTriple(
        constant_field(chart4, 1, 1, STD_J1, "J1"),
        constant_field(chart4, 1, 1, STD_J2, "J2"),
        _scaled(STD_J3, "x1"),
    )


FAILING_SAMPLES = {
    # name: (triple builder, second point, third point, error); the first
    # point is fine, and the second raises the error alone
    "degenerate trace pairing": (
        _degenerate_at_second, [0.0, 0.2, -0.1, 0.3], [0.4, 0.1, -0.5, 0.2], IllConditionedError,
    ),
    "stencil off the box": (
        lambda c: TRIPLES["rotated4"](c), [0.3, 1.0 - 0.5e-3, 0.0, 0.0], [0.4, 0.1, -0.5, 0.2], StencilOutOfDomainError,
    ),
    # the stacked trace test finds the third point first; the batch still
    # raises what the second raises alone
    "stencil off the box before a degenerate pairing": (
        _degenerate_at_second, [0.3, 1.0 - 0.5e-3, 0.0, 0.0], [0.0, 0.1, -0.5, 0.2], StencilOutOfDomainError,
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING_SAMPLES))
@pytest.mark.parametrize("run", ["fit", "classify"])
def test_a_failing_fit_batch_raises_its_first_failing_point_and_stores_nothing(conformal4, chart4, cfg, case, run):
    build, second, third, error = FAILING_SAMPLES[case]
    T = build(chart4)
    pts = [Point(chart4, [0.1, -0.2, 0.3, 0.05]), Point(chart4, second), Point(chart4, third)]
    with pytest.raises(error) as expected:
        fit_kahler_oneforms(_fresh(conformal4), T, pts[1], cfg)
    g = _fresh(conformal4)
    with pytest.raises(error) as got:
        if run == "fit":
            structures._fits(g, T, pts, cfg)
        else:
            classify_structure(g, T, pts, cfg=cfg)
    assert str(got.value) == str(expected.value)
    kinds = {("fit", T)} | {(kind, f) for kind in ("nabla", "d") for f in T.fields}
    assert not [key for key in g._memo if key[0] in kinds]


def test_batched_hermitian_is_the_one_point_formula_bit_for_bit(conformal4, euclidean4, std_triple, rot_triple, pts4):
    for g, T in ((conformal4, rot_triple), (euclidean4, std_triple)):
        ref = []
        for p in pts4:
            gp, J = g.matrix(p), T.matrices(p)
            ref.append(max(float(np.abs(J[a].T @ gp + gp @ J[a]).max()) for a in range(3)))
        assert structures._hermitians(g, T, pts4) == ref
        assert [check_hermitian(g, T, p) for p in pts4] == ref


def test_a_hermitian_batch_raises_what_its_first_failing_point_raises_alone(chart4, std_triple):
    # the triple is not finite at the second point; the metric is degenerate
    # at the third, which the batch's stacked metric values find first
    g = MetricField(TensorField(chart4, 0, 2, lambda p: np.diag([p.coords[0], 1.0, -1.0, -1.0]), "probe"))
    T = LocalBasisTriple(
        TensorField(chart4, 1, 1, lambda p: STD_J1 * (np.nan if p.coords[1] > 0.5 else 1.0), "J1"),
        std_triple.j2,
        std_triple.j3,
    )
    pts = [Point(chart4, [0.5, 0.0, 0.0, 0.0]), Point(chart4, [0.5, 0.7, 0.0, 0.0]), Point(chart4, [0.0, 0.0, 0.0, 0.0])]
    with pytest.raises(EvaluationError) as expected:
        check_hermitian(MetricField(g.field), T, pts[1])
    with pytest.raises(EvaluationError) as got:
        structures._hermitians(g, T, pts)
    assert str(got.value) == str(expected.value)
