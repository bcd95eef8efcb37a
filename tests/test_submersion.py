import dataclasses

import numpy as np
import pytest

from paraquat import (
    DegenerateFiberMetricError,
    MetricField,
    NotAFiberError,
    OutOfDomainError,
    Point,
    PreconditionFailedError,
    RankDeficientError,
    SubmersionMap,
    TransitionMap,
    ValidationError,
    apply_transition,
    build_tangent_bundle,
    check_bracket,
    check_connection_oracle,
    check_nabla_j_oracle,
    check_paraholomorphic,
    check_parallel_equivalence,
    check_semi_riemannian,
    check_vh_invariance,
    christoffel,
    curvature_operator,
    descend_one_forms,
    eval_batch,
    fit_kahler_oneforms,
    jacobian,
    oneill_tensors,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    riemann,
    sample_points,
    vh_split,
)
from paraquat import algebra, connection, sasaki, submersion
from paraquat.catalog import METRICS, TRIPLES, expression_array, make_chart, metric_from_config
from paraquat.scenario import build_context, load_scenario
from paraquat.submersion import _projector_partials

from fd_reference import H, central_difference
from conftest import BENT_COMPONENTS, SPACE_FORM_ROWS, expression_map, stacked

PROJECTION = ["x1", "x2", "x3", "x4"]


@pytest.fixture(scope="module")
def proj8to4():
    chart8 = make_chart(8)
    chart4 = make_chart(4)
    f = expression_map(chart8, chart4, PROJECTION, "proj")
    return chart8, chart4, f


def test_jacobian_of_projection(proj8to4):
    chart8, _, f = proj8to4
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    J = jacobian(f, [p])[0]
    expected = np.hstack([np.eye(4), np.zeros((4, 4))])
    assert np.abs(J - expected).max() < 1e-12
    assert J.shape == (4, 8) and J.flags.c_contiguous


def test_jacobian_reads_its_point_alone_and_must_stay_in_the_source_box(proj8to4):
    chart8, chart4, proj = proj8to4
    seen = []

    def recording(c):
        seen.append(c.copy())
        return c[..., :4]

    def recording_jets(points, order):
        seen.extend(q.coords.copy() for q in points)
        return proj.jets(points, order)

    f = SubmersionMap(chart8, chart4, recording, "recording proj", jets=recording_jets)
    near_wall = Point(chart8, [0.1, -0.2, 0.3, 0.0, 1.0 - 0.5 * H, -0.5, 0.2, 0.1])
    assert np.array_equal(jacobian(f, [near_wall])[0], np.hstack([np.eye(4), np.zeros((4, 4))]))
    assert [c.tobytes() for c in seen] == [near_wall.coords.tobytes()]  # the jets at the point alone
    seen.clear()
    off = Point(chart8, [0.1, -0.2, 0.3, 0.0, 1.0 + 0.5 * H, -0.5, 0.2, 0.1])
    with pytest.raises(OutOfDomainError, match="outside the chart domain"):
        jacobian(f, [off])
    assert seen == []  # rejected before the map is evaluated off the box


def test_images_test_the_source_box_as_df_does(proj8to4):
    # (3, 0, ..., 0) lies outside [-1, 1]^8: its image is refused with df's
    # error, in a batch too, the map is never evaluated off the box, and
    # nothing is stored
    chart8, chart4, proj = proj8to4
    seen = []

    def recording(c):
        seen.append(c.copy())
        return c[..., :4]

    f = SubmersionMap(chart8, chart4, recording, "recording proj", jets=proj.jets)
    off = Point(chart8, [3.0] + [0.0] * 7)
    with pytest.raises(OutOfDomainError) as df_error:
        jacobian(f, [off])
    with pytest.raises(OutOfDomainError) as alone:
        f.images([off])
    assert str(alone.value) == str(df_error.value)
    with pytest.raises(OutOfDomainError) as got:
        f.images([Point(chart8, [0.1] * 8), off, Point(chart8, [0.0] * 7 + [-4.0])])
    assert str(got.value) == str(alone.value)
    # the replay maps the first point alone, on a copy of the map
    assert not f._memo and all((np.abs(c) <= 1).all() for c in seen)


def test_a_point_on_the_wall_still_maps(proj8to4):
    chart8, chart4, f = proj8to4
    wall = Point(chart8, [1.0, -1.0, 0.3, 0.0, 1.0, 0.0, 0.0, -1.0])
    (image,) = f.images([wall])
    assert image.chart is chart4
    assert image.coords.tolist() == [1.0, -1.0, 0.3, 0.0]


def test_rank_deficient_map_rejected(proj8to4):
    chart8, chart4, _ = proj8to4
    bad = expression_map(chart8, chart4, ["x1", "x1", "x3", "x4"], "bad")
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    with pytest.raises(RankDeficientError):
        vh_split(bad, METRICS["neutral8"](chart8), [p])


SWAP8 = [["1" if abs(r - c) == 4 else "0" for c in range(8)] for r in range(8)]  # [[0, I], [I, 0]]


@pytest.mark.parametrize(
    "case, error",
    [
        ("degenerate fiber metric", DegenerateFiberMetricError),
        ("rank-deficient differential", RankDeficientError),  # then a degenerate fiber metric
        ("off the box", OutOfDomainError),  # then a rank-deficient differential
    ],
)
def test_one_point_split_raises_its_first_failure(case, error):
    # vh_split checks the domain, then the rank of df, then the fiber
    # metric; each case fails its own check and every later one, and
    # oneill_tensors raises what the split raises
    coords = [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1]
    domain = [[-1.0, 1.0]] * 8
    if case == "off the box":
        domain[0] = [-1.0, coords[0] - 0.5 * H]
    chart8 = make_chart(8, domain=domain)
    components = PROJECTION if case == "degenerate fiber metric" else ["x1", "x1", "x3", "x4"]
    f = expression_map(chart8, make_chart(4), components, case)
    g = metric_from_config({"matrix": SWAP8}, chart8)
    p = Point(chart8, coords)
    with pytest.raises(error) as alone:
        vh_split(f, g, [p])
    with pytest.raises(error) as through:
        oneill_tensors(f, g, [p])
    assert str(through.value) == str(alone.value)


def test_vh_split_projectors(proj8to4):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    df, V, H, Pv, Ph = vh_split(f, g8, [p])
    assert (df.shape, V.shape, H.shape, Pv.shape, Ph.shape) == ((1, 4, 8), (1, 8, 4), (1, 8, 4), (1, 8, 8), (1, 8, 8))
    v, h = Pv[0], Ph[0]
    for P in (v, h):
        assert np.abs(P @ P - P).max() < 1e-9  # idempotent
    assert np.abs(v + h - np.eye(8)).max() < 1e-9
    assert np.abs(v @ h).max() < 1e-9
    # vertical space of the coordinate projection is the last four axes
    for k in range(4, 8):
        e = np.zeros(8)
        e[k] = 1.0
        assert np.abs(v @ e - e).max() < 1e-9


def test_semi_riemannian_projection(proj8to4):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    g4 = METRICS["neutral4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    residuals = check_semi_riemannian(f, g8, g4, pts)
    assert len(residuals) == 4 and max(residuals) < 1e-8


def test_semi_riemannian_detects_scaling(proj8to4):
    chart8, chart4, _ = proj8to4
    f = expression_map(chart8, chart4, ["0.5*x1", "x2", "x3", "x4"], "scaled")
    g8 = METRICS["neutral8"](chart8)
    g4 = METRICS["neutral4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    # df(e1) has squared length 0.25 instead of 1
    assert check_semi_riemannian(f, g8, g4, pts) == pytest.approx([0.75] * 4, abs=1e-6)


def test_paraholomorphic_aligned_triples(proj8to4):
    chart8, chart4, f = proj8to4
    up = TRIPLES["product8-rotated"](chart8)
    down = TRIPLES["rotated4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    residuals = check_paraholomorphic(f, up, down, pts)
    assert len(residuals) == 4 and max(residuals) < 1e-10


def test_paraholomorphic_misaligned_triples(proj8to4):
    chart8, chart4, f = proj8to4
    # fiber-coordinate rotation upstairs is invisible downstairs, so the
    # pushforward disagrees with the standard basis pointwise
    up = TRIPLES["product8-fiber-rotated"](chart8)
    down = TRIPLES["standard4"](chart4)
    pts = sample_points(chart8, 4, seed=5)
    assert max(check_paraholomorphic(f, up, down, pts)) > 0.1


def test_vh_invariance(proj8to4):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8"](chart8)
    down = TRIPLES["standard4"](chart4)
    pts = sample_points(chart8, 3, seed=5)
    rep = check_vh_invariance(f, g8, up, down, pts)
    assert rep.v_residual.shape == rep.h_residual.shape == (len(pts),)
    assert rep.v_residual.max() < 1e-9
    assert rep.h_residual.max() < 1e-9


def test_vh_invariance_needs_paraholomorphic(proj8to4):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-fiber-rotated"](chart8)
    down = TRIPLES["standard4"](chart4)
    pts = sample_points(chart8, 3, seed=5)
    with pytest.raises(PreconditionFailedError):
        check_vh_invariance(f, g8, up, down, pts)


def test_the_submersion_checks_of_an_empty_sample(proj8to4):
    # the pointwise checks return no residual; vh-invariance, which reports
    # maxima, rejects the sample rather than read 0.0 from it
    chart8, chart4, f = proj8to4
    g8, up, down = METRICS["neutral8"](chart8), TRIPLES["product8"](chart8), TRIPLES["standard4"](chart4)
    assert len(check_semi_riemannian(f, g8, METRICS["neutral4"](chart4), [])) == 0
    assert len(check_paraholomorphic(f, up, down, [])) == 0
    # the split keeps its five stacks, each empty
    df, V, H, Pv, Ph = vh_split(f, g8, [])
    assert [len(A) for A in (df, V, H, Pv, Ph)] == [0] * 5
    # the O'Neill tensors and the fit keep the shapes of their stacks, with no row
    ten, fit = oneill_tensors(f, g8, []), fit_kahler_oneforms(g8, up, [])
    assert [A.shape for A in (ten.a_full, ten.a_horizontal, ten.max_t, fit.omega)] == [(0, 8, 8, 8), (0, 4, 4, 8), (0,), (0, 3, 8)]
    with pytest.raises(ValidationError, match="at least one point"):
        check_vh_invariance(f, g8, up, down, [])


def test_oneill_tensors_vanish_for_product(proj8to4):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    ten = oneill_tensors(f, g8, [p])
    assert ten.max_a_horizontal[0] < 1e-7
    assert np.abs(ten.t_full).max() < 1e-7
    assert ten.antisymmetry_residual[0] < 1e-7


def test_basic_lift(proj8to4):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    p = Point(chart8, [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1])
    X = np.array([1.0, -2.0, 0.5, 0.0])
    df, _, H, _, _ = vh_split(f, g8, [p])
    lifted = reference_lift(df[0], H[0], X)
    J = jacobian(f, [p])[0]
    assert np.abs(J @ lifted - X).max() < 1e-9  # projects back to X
    assert np.abs(lifted[4:]).max() < 1e-9  # horizontal for this projection


def reference_lift(df, H, w):
    """The basic lift of a target vector w at one point, as the one-point
    code took it: the horizontal vector H x with df H x = w, from one
    ``solve``."""
    return H @ np.linalg.solve(df @ H, w)


def test_descend_oneforms(proj8to4):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-rotated"](chart8)
    base = np.array([0.1, 0.2, -0.1, 0.05])
    fiber = [
        Point(chart8, np.concatenate([base, [t, 0.3 - t, 0.1 * t, -0.2]]))
        for t in (-0.4, -0.2, 0.0, 0.2, 0.4)
    ]
    rep = descend_one_forms(f, g8, up, fiber)
    assert rep.constancy_residual < 1e-6
    # the descended forms agree with a direct fit downstairs
    g4 = METRICS["neutral4"](chart4)
    down = TRIPLES["rotated4"](chart4)
    fit = fit_kahler_oneforms(g4, down, [rep.image])
    assert np.abs(rep.omega_base - fit.omega[0]).max() < 1e-5


@pytest.mark.parametrize(
    "xs",
    [[], [0.2], [0.2, 0.2, 0.2], [0.0, -0.0]],
    ids=["no point", "one point", "one point three times", "0.0 and -0.0"],
)
def test_descend_needs_two_distinct_fiber_points(proj8to4, xs):
    # one point has no spread to measure, so its constancy residual of 0.0
    # would pass vacuously
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    fiber = [Point(chart8, [0.1, 0.2, -0.1, 0.05, x, 0.0, 0.0, 0.0]) for x in xs]
    up = TRIPLES["product8-rotated"](chart8)
    with pytest.raises(ValidationError, match="at least two distinct fiber points"):
        descend_one_forms(f, g8, up, fiber)
    if fiber:  # a second distinct point makes a fiber of it
        rep = descend_one_forms(f, g8, up, fiber + [fiber[0].shifted(4, 0.3)])
        assert rep.constancy_residual < 1e-12


def test_descend_rejects_non_fiber(proj8to4):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8"](chart8)
    pts = [
        Point(chart8, [0.1, 0.2, -0.1, 0.05, 0.0, 0.0, 0.0, 0.0]),
        Point(chart8, [0.3, 0.2, -0.1, 0.05, 0.1, 0.0, 0.0, 0.0]),  # different image
    ]
    with pytest.raises(NotAFiberError):
        descend_one_forms(f, g8, up, pts)


def test_descend_requires_span_parallel_structure(proj8to4):
    chart8, _, f = proj8to4
    # positive-definite upstairs metric: triple is not even hermitian
    from paraquat import MetricField, constant_field

    g8 = MetricField(constant_field(chart8, 0, 2, np.eye(8), "euc8"))
    up = TRIPLES["product8"](chart8)
    pts = [Point(chart8, [0.1, 0.2, -0.1, 0.05, t, 0.0, 0.0, 0.0]) for t in (0.0, 0.2)]
    with pytest.raises(PreconditionFailedError):
        descend_one_forms(f, g8, up, pts)


def test_descend_detects_fiber_twist(proj8to4):
    chart8, chart4, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-fiber-rotated"](chart8)
    base = np.array([0.1, 0.2, -0.1, 0.05])
    fiber = [
        Point(chart8, np.concatenate([base, [t, 0.3 - t, 0.1 * t, -0.2]]))
        for t in (-0.4, -0.2, 0.0, 0.2, 0.4)
    ]
    rep = descend_one_forms(f, g8, up, fiber)
    # upstairs everything is consistent along the fiber...
    assert rep.constancy_residual < 1e-6
    assert np.abs(rep.omega_base).max() < 1e-6
    # ...but the descended forms do not match the rotated basis downstairs
    g4 = METRICS["neutral4"](chart4)
    down = TRIPLES["rotated4"](chart4)
    fit = fit_kahler_oneforms(g4, down, [rep.image])
    assert np.abs(rep.omega_base - fit.omega[0]).max() > 0.5


# ------------------------------------------------------------ stacked O'Neill
#
# The O'Neill tensors as they were first written: one covariant derivative
# per (i, j) and frame kind, from the projector's derivative at p (the
# closed form unless one is given), each read from the matrix products of
# the projector U = h or v whose column i it differentiates along.  The
# engine stacks all of this; it must agree bit for bit.


def reference_oneill(f, g, p, dPv=None):
    n = f.source.dim
    gam = christoffel(g, p)
    df, _, horizontal, v, h = vh_split(f, g, [p])
    if dPv is None:
        dPv = _projector_partials(f, g, [p], df)[0]
    horizontal, v, h = horizontal[0], v[0], h[0]

    def covd(U, i, w_proj_is_v, j):
        sgn = 1.0 if w_proj_is_v else -1.0
        # d_{U e_i} Pv: U^T with dPv flattened over (k, l)
        dW = sgn * (U.T @ dPv.reshape(n, n * n)).reshape(n, n, n)[i, :, j]
        W = v if w_proj_is_v else h
        # Gamma(U e_i, W e_j) as two products, U^T with Gamma flattened over
        # (k, l), summing m, then with W, summing l
        gam_u = (U.T @ gam.transpose(1, 0, 2).reshape(n, n * n)).reshape(n * n, n)
        return dW + (gam_u @ W).reshape(n, n, n)[i, :, j]

    a_full = np.empty((n, n, n))
    t_full = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            a_full[i, j] = h @ covd(h, i, True, j) + v @ covd(h, i, False, j)
            t_full[i, j] = h @ covd(v, i, True, j) + v @ covd(v, i, False, j)
    # H^T over the first slot with a_full flattened over (m, k), then over the second
    a_h = horizontal.T @ (horizontal.T @ a_full.reshape(n, n * n)).reshape(-1, n, n)
    return a_full, t_full, a_h


def _conformal_bundle(chart4):
    return build_tangent_bundle(METRICS["conformal-neutral4"](chart4), TRIPLES["standard4"](chart4))


BUNDLE_POINTS = [
    ([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]),
    ([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1]),
]

ETA8_SIGNS = [1, 1, -1, -1, 1, 1, -1, -1]
# a curved 8-dim expression metric, not a multiple of eta8, with an
# off-diagonal entry, and a nonlinear expression map onto 4 dims
CURVED8_ROWS = [
    [
        (f"exp(0.3*x1 + 0.2*x{r % 4 + 5}^2)" if s > 0 else f"-exp(0.3*x1 - 0.1*x2*x{r % 4 + 5})")
        if r == c else ("0.1*sin(x2)" if {r, c} == {0, 4} else "0")
        for c in range(8)
    ]
    for r, s in enumerate(ETA8_SIGNS)
]


def _curved8(chart8):
    """exp(0.3 x1) eta8 as an expression metric."""
    rows = [[f"{s}*exp(0.3*x1)" if r == c else "0" for c in range(8)] for r, s in enumerate(ETA8_SIGNS)]
    return metric_from_config({"matrix": rows}, chart8)


def _bent(chart8, chart4):
    return expression_map(chart8, chart4, BENT_COMPONENTS, "bent")


def test_stacked_oneill_is_the_per_pair_loop_bit_for_bit(chart4):
    # the Sasaki projection has a genuine A-tensor; its fibers are totally
    # geodesic, so its T-tensor is roundoff, and the bent map supplies one
    bundle, ref = _conformal_bundle(chart4), _conformal_bundle(chart4)
    chart8 = make_chart(8)
    bent, g8 = _bent(chart8, chart4), _curved8(chart8)
    cases = [(bundle.projection, bundle.metric, ref.projection, ref.metric, bundle.point(x, u)) for x, u in BUNDLE_POINTS]
    cases += [(bent, g8, bent, MetricField(g8.field), p) for p in sample_points(chart8, 2, seed=4)]
    largest_a = largest_t = 0.0
    for f, g, f_ref, g_ref, p in cases:
        got = oneill_tensors(f, g, [p])
        a_full, t_full, a_h = reference_oneill(f_ref, g_ref, Point(f_ref.source, p.coords))
        assert np.array_equal(got.a_full[0], a_full)
        assert np.array_equal(got.t_full[0], t_full)
        assert np.array_equal(got.a_horizontal[0], a_h)
        largest_a, largest_t = max(largest_a, np.abs(a_h).max()), max(largest_t, np.abs(t_full).max())
    assert largest_a > 1e-2 and largest_t > 1e-2


# ------------------------------------------------- contractions as products
#
# Every sum over an index that the layers take is a matrix product over the
# stack.  The one-point references above and in the other test files spell
# each product the way the layer does, so that they can hold it bit for
# bit, and an index slip made in both would pass them.  This table holds
# each layer's result to the einsum spelling it replaced, which sums in
# another order, within 1e-13 of the result's scale.  A row takes a context
# and returns (layer, einsum reference, scale), or None where the context
# lacks what the row contracts.


def _lift_case(points=None):
    ctx = build_context(load_scenario("sasaki-over-conformal"), seed=7, points=points)
    return ctx.bundle.projection, ctx.bundle.metric, ctx.bundle, ctx.points


def _bent_case():
    chart8 = make_chart(8)
    return _bent(chart8, make_chart(4)), _curved8(chart8), None, sample_points(chart8, 3, seed=4)


TURN = [["1 + 0.3*sin(x2)", "x1", "0"], ["0", "cos(x3)", "0.2*x4"], ["0.1*x2*x3", "0", "exp(0.1*x1)"]]


def _lift_context(bundle, pts):
    return dict(f=bundle.projection, g=bundle.metric, T=bundle.triple, pts=pts, bundle=bundle, F=None, field=bundle.triple.j2)


def _contraction_contexts():
    """The lift of sasaki-over-conformal at seed 7; the lift over the space
    form, whose Gamma is not constant, for d2Gamma and the shift's
    partials; the bent map over curved8 with product8-rotated; and
    product-8d at seed 7, whose split8-rotated is the one structure that
    varies, for the mixed term of parallel-equivalence."""
    _, _, bundle, pts = _lift_case()
    lift = _lift_context(bundle, pts)
    chart4 = make_chart(4)
    bundle = build_tangent_bundle(metric_from_config({"matrix": SPACE_FORM_ROWS}, chart4), TRIPLES["standard4"](chart4))
    space_form = _lift_context(bundle, sample_points(bundle.spec, 3, seed=7))
    f, g, _, pts = _bent_case()
    bent = dict(f=f, g=g, T=TRIPLES["product8-rotated"](g.chart), pts=pts, bundle=None, F=None, field=None)
    ctx = build_context(load_scenario("product-8d"), seed=7)
    F = ctx.structure("split8-rotated")
    product = dict(f=None, g=ctx.metric, T=ctx.triple, pts=ctx.points, bundle=None, F=F, field=F.field)
    cases = {"sasaki-over-conformal": lift, "lift over the space form": space_form, "bent map over curved8": bent, "product-8d": product}
    for case in cases.values():
        values, jets = expression_array(TURN, (3, 3), case["g"].chart, "turn")
        case["s"] = TransitionMap(lambda qs, values=values: values(np.array([q.coords for q in qs])), "turn", jets=jets)
    return cases


def _array_row(got, ref):
    return got, ref, np.abs(ref).max()


def _christoffel_einsum(g, pts):
    return 0.5 * np.einsum("ckl,clij->ckij", np.linalg.inv(g.matrices(pts)), connection._first_kind(connection._jets(g, pts)[0]))


def _partials_einsum(ginv, gam, D, H):
    ginv_dg = np.einsum("ckp,cmpq->cmkq", ginv, D)
    return -np.einsum("cmkq,cqij->cmkij", ginv_dg, gam) + 0.5 * np.einsum(
        "ckl,cmlij->cmkij", ginv, connection._first_kind(H)
    )


def _riemann_einsum(g, pts):
    gam, ginv = _christoffel_einsum(g, pts), np.linalg.inv(g.matrices(pts))
    dgam = _partials_einsum(ginv, gam, *connection._jets(g, pts))
    return (
        np.einsum("...iljk->...lkij", dgam)
        - np.einsum("...jlik->...lkij", dgam)
        + np.einsum("...lim,...mjk->...lkij", gam, gam)
        - np.einsum("...ljm,...mik->...lkij", gam, gam)
    )


def _row_partials(c):
    g, pts = c["g"], c["pts"]
    ginv, gam, jets = np.linalg.inv(g.matrices(pts)), connection._christoffels(g, pts), connection._jets(g, pts)
    return _array_row(connection._christoffel_partials(ginv, gam, *jets), _partials_einsum(ginv, gam, *jets))


def _row_nabla(c):
    g, T, pts = c["g"], c["T"], c["pts"]
    gam, V, dV = connection._christoffels(g, pts), T.values(pts), T.jets(pts)[1]
    ref = dV + np.einsum("ckil,calj->caikj", gam, V) - np.einsum("clij,cakl->caikj", gam, V)
    return _array_row(connection.covariant_derivatives(g, T, pts), ref)


def _row_nijenhuis(c):
    if c["field"] is None:
        return None
    Fp, dF = eval_batch(c["field"], c["pts"]), connection._gradients(c["g"], c["field"], c["pts"])
    terms = [np.einsum(spec, Fp, dF) for spec in ("...mi,...mkj->...kij", "...mj,...mki->...kij", "...km,...jmi->...kij", "...km,...imj->...kij")]
    # N of a lifted member can vanish, so the scale is that of its terms
    return connection._nijenhuis_tensor(Fp, dF), terms[0] - terms[1] + terms[2] - terms[3], np.abs(terms).max()


def _row_curvature_operator(c):
    R = riemann(c["g"], c["pts"])[0]
    X, Y, Z = np.random.default_rng(3).normal(size=(3, len(R)))
    return _array_row(curvature_operator(R, X, Y, Z), np.einsum("lkij,i,j,k->l", R, X, Y, Z))


def _row_fit(c):
    g, T, pts = c["g"], c["T"], c["pts"]
    D, J = connection.covariant_derivatives(g, T, pts), T.values(pts)
    C = np.einsum("caikj,cbjk->cabi", D, J) / np.trace(J @ J, axis1=-2, axis2=-1)[:, None, :, None]
    omega = np.stack([C[:, 1, 2] + C[:, 2, 1], C[:, 0, 2] + C[:, 2, 0], C[:, 1, 0] - C[:, 0, 1]], axis=1) / 2
    return _array_row(fit_kahler_oneforms(g, T, pts).omega, omega)


def _row_mixed(c):
    if c["F"] is None:
        return None
    g, F, T, pts = c["g"], c["F"], c["T"], c["pts"]
    D, J = connection.covariant_derivatives(g, F.field, pts), T.values(pts)
    ref = np.abs(np.einsum("cami,cmkj->caikj", J, D) - np.einsum("cikm,camj->caikj", D, J)).max()
    return check_parallel_equivalence(g, F, T, pts).mixed_residual, ref, ref


def _lift_inputs(c):
    """(bundle, base metric, base points, u, L) of the lift's points."""
    bundle, pts = c["bundle"], c["pts"]
    n = bundle.base_dim
    xs = sasaki._base_points(bundle.base_metric.chart, pts)
    return bundle, bundle.base_metric, xs, np.array([q.coords[n:] for q in pts]), sasaki._frames(bundle.shift(pts))[0]


def _row_d2_christoffel(c):
    if c["bundle"] is None:
        return None
    _, g0, xs, _, _ = _lift_inputs(c)
    gam, dgam, d2gam = connection._christoffel_jets(g0, xs, 2)
    ginv = np.linalg.inv(g0.matrices(xs))
    D, H, K = connection._jets(g0, xs, 3)
    ref = np.einsum(
        "ckl,cpmlij->cpmkij", ginv,
        0.5 * connection._first_kind(K)
        - np.einsum("cpmlq,cqij->cpmlij", H, gam)
        - np.einsum("cmlq,cpqij->cpmlij", D, dgam)
        - np.einsum("cplq,cmqij->cpmlij", D, dgam),
    )
    return _array_row(d2gam, ref)


def _row_shift(c):
    if c["bundle"] is None:
        return None
    bundle, g0, xs, u, _ = _lift_inputs(c)
    ref = np.einsum("pkji,pj->pki", connection._christoffels(g0, xs), u)
    return _array_row(bundle.shift(c["pts"]), ref)


def _row_shift_partials(c):
    if c["bundle"] is None:
        return None
    bundle, g0, xs, u, _ = _lift_inputs(c)
    _, dgam, d2gam = connection._christoffel_jets(g0, xs, 2)
    n = bundle.base_dim
    dM, d2M = bundle.shift_partials(c["pts"])
    got = np.concatenate([dM[:, :n].ravel(), d2M[:, :n, :n].ravel()])
    ref = np.concatenate([np.einsum("cmkji,cj->cmki", dgam, u).ravel(), np.einsum("cpmkji,cj->cpmki", d2gam, u).ravel()])
    return _array_row(got, ref)


def _row_lifted_metric(c):
    if c["bundle"] is None:
        return None
    bundle, g0, xs, _, _ = _lift_inputs(c)
    pts, n = c["pts"], bundle.base_dim
    M, (dM, d2M) = bundle.shift(pts), bundle.shift_partials(pts)
    gx, (dg, d2g) = g0.matrices(xs), connection._jets(g0, xs)
    gA = np.zeros((len(pts), 2 * n, n, n))
    gA[:, :n] = dg
    gAB = np.zeros((len(pts), 2 * n, 2 * n, n, n))
    gAB[:, :n, :n] = d2g
    P = gx @ M
    PA = np.einsum("cakl,cli->caki", gA, M) + np.einsum("ckl,cali->caki", gx, dM)
    AA = gA + np.einsum("calk,cli->caki", dM, P) + np.einsum("clk,cali->caki", M, PA)
    PAB = (
        np.einsum("cabkl,cli->cabki", gAB, M) + np.einsum("cakl,cbli->cabki", gA, dM)
        + np.einsum("cbkl,cali->cabki", gA, dM) + np.einsum("ckl,cabli->cabki", gx, d2M)
    )
    AAB = (
        gAB + np.einsum("cablk,cli->cabki", d2M, P) + np.einsum("calk,cbli->cabki", dM, PA)
        + np.einsum("cblk,cali->cabki", dM, PA) + np.einsum("clk,cabli->cabki", M, PAB)
    )
    _, dG, d2G = bundle.metric.field.jets(pts, 2)
    ref = np.concatenate([sasaki._blocks(AA, PA, gA).ravel(), sasaki._blocks(AAB, PAB, gAB).ravel()])
    return _array_row(np.concatenate([dG.ravel(), d2G.ravel()]), ref)


def _row_lifted_triple(c):
    if c["bundle"] is None:
        return None
    bundle, _, xs, _, _ = _lift_inputs(c)
    pts, n = c["pts"], bundle.base_dim
    M, dM = bundle.shift(pts), bundle.shift_partials(pts)[0]
    J, dJ = bundle.base_triple.jets(xs)
    JA = np.zeros((len(pts), 3, 2 * n, n, n))
    JA[:, :, :n] = dJ
    ref = (
        np.einsum("cbaki,cil->cbakl", JA, M) + np.einsum("cbki,cail->cbakl", J, dM)
        - np.einsum("caki,cbil->cbakl", dM, J) - np.einsum("cki,cbail->cbakl", M, JA)
    )
    return _array_row(bundle.triple.jets(pts)[1][..., n:, :n], ref)


def _frame_derivative_einsum(c, L):
    bundle, n = c["bundle"], c["bundle"].base_dim
    dL = np.zeros((len(L), 2 * n, 2 * n, 2 * n))
    dL[:, :, n:, :n] = -bundle.shift_partials(c["pts"])[0]
    return np.einsum("caI,cakJ->cIkJ", L, dL)


def _row_frame_derivative(c):
    if c["bundle"] is None:
        return None
    L = _lift_inputs(c)[4]
    return _array_row(sasaki._frame_derivatives(c["bundle"], c["pts"], L), _frame_derivative_einsum(c, L))


def _row_connection_closed_form(c):
    if c["bundle"] is None:
        return None
    bundle, g0, xs, u, L = _lift_inputs(c)
    n = bundle.base_dim
    gam, R = connection._christoffels(g0, xs), riemann(g0, xs)
    B = np.zeros((len(xs), 2 * n, 2 * n, 2 * n))
    B[:, :n, :n, :n] = B[:, :n, n:, n:] = np.einsum("ckij->cikj", gam)
    B[:, :n, n:, :n] = -0.5 * np.einsum("clkij,ck->cilj", R, u)
    B[:, :n, :n, n:] = 0.5 * np.einsum("climj,cm->cilj", R, u)
    B[:, n:, :n, :n] = 0.5 * np.einsum("cljmi,cm->cilj", R, u)
    return _array_row(oracle_tilde_nabla(bundle, c["pts"]), np.einsum("ckl,cIlJ->cIkJ", L, B))


def _row_nabla_j_closed_form(c):
    if c["bundle"] is None:
        return None
    bundle, g0, xs, u, L = _lift_inputs(c)
    n, T = bundle.base_dim, bundle.base_triple
    R, J, nabla = riemann(g0, xs), T.values(xs), connection.covariant_derivatives(g0, T, xs)

    def commutator(A):
        return np.einsum("cilk,cakj->cailj", A, J) - np.einsum("calk,cikj->cailj", J, A)

    B = np.zeros((len(xs), 3, 2 * n, 2 * n, 2 * n))
    B[:, :, :n, :n, :n] = B[:, :, :n, n:, n:] = nabla
    B[:, :, :n, n:, :n] = -0.5 * commutator(np.einsum("clkij,ck->cilj", R, u))
    B[:, :, :n, :n, n:] = 0.5 * commutator(np.einsum("climj,cm->cilj", R, u))
    B[:, :, n:, :n, :n] = 0.5 * commutator(np.einsum("clkmi,cm->cilk", R, u))
    return _array_row(oracle_tilde_nabla_J(bundle, c["pts"]), np.einsum("ckl,caIlJ->caIkJ", L, B))


def _row_connection_oracle(c):
    if c["bundle"] is None:
        return None
    bundle, pts, L = c["bundle"], c["pts"], _lift_inputs(c)[4]
    gamL = np.einsum("ckab,cbJ->ckaJ", connection._christoffels(bundle.metric, pts), L)
    fd = _frame_derivative_einsum(c, L) + np.einsum("ckaJ,caI->cIkJ", gamL, L)
    ref = np.abs(fd - oracle_tilde_nabla(bundle, pts)).max(axis=(1, 2, 3))
    return check_connection_oracle(bundle, pts), ref, np.abs(fd).max()


def _row_nabla_j_oracle(c):
    if c["bundle"] is None:
        return None
    bundle, pts, L = c["bundle"], c["pts"], _lift_inputs(c)[4]
    DL = np.einsum("caAkl,clJ->caAkJ", connection.covariant_derivatives(bundle.metric, bundle.triple, pts), L)
    DLL = np.einsum("caAkJ,cAI->caIkJ", DL, L)
    ref = np.abs(DLL - oracle_tilde_nabla_J(bundle, pts)).max(axis=(1, 2, 3, 4))
    return check_nabla_j_oracle(bundle, pts), ref, np.abs(DLL).max()


def _row_bracket(c):
    if c["bundle"] is None:
        return None
    bundle, g0, xs, u, L = _lift_inputs(c)
    pairs = [(np.eye(4)[1], np.eye(4)[2]), ([0.3, -1.0, 0.5, 0.2], [1.0, 0.4, -0.2, 0.7])]
    X, Y = (np.array(V, dtype=float) for V in zip(*pairs))
    zero = np.zeros_like(X)
    h, v = np.concatenate([X, zero], axis=1), np.concatenate([zero, Y], axis=1)
    hY, vX = np.concatenate([Y, zero], axis=1), np.concatenate([zero, X], axis=1)
    D = sasaki._frame_derivatives(bundle, c["pts"], L)
    K = D - np.einsum("cIkJ->cJkI", D)
    bracket = lambda a, b: np.einsum("pI,cIkJ,pJ->cpk", a, K, b)
    lift_v = lambda W: np.concatenate([np.zeros_like(W), W], axis=2)
    covXY = np.einsum("ckml,pm,pl->cpk", connection._christoffels(g0, xs), X, Y)
    RXYu = np.einsum("clkij,pi,pj,ck->cpl", riemann(g0, xs), X, Y, u)
    hh = bracket(h, hY)
    ref = np.abs(np.stack([bracket(vX, v), bracket(h, v) - lift_v(covXY), hh - lift_v(-RXYu), hh - lift_v(RXYu)])).max(axis=3)
    got = check_bracket(bundle, pairs, c["pts"])
    return stacked(got).transpose(2, 0, 1), ref, np.abs(hh).max()


def _row_oneill(c):
    if c["f"] is None:
        return None
    f, g, pts = c["f"], c["g"], c["pts"]
    gam = connection._christoffels(g, pts)
    df, _, H, v, h = vh_split(f, g, pts)
    dPv = _projector_partials(f, g, pts, df)
    U = np.stack([h, v], axis=1)
    GU = np.einsum("cuikl,cslj->cusikj", np.einsum("ckml,cumi->cuikl", gam, U), np.stack([v, h], axis=1))
    dPu = np.einsum("cmkl,cumi->cuikl", dPv, U)
    cov_v, cov_h = dPu + GU[:, :, 0], -dPu + GU[:, :, 1]
    full = np.einsum("ckl,cuilj->cuijk", h, cov_v) + np.einsum("ckl,cuilj->cuijk", v, cov_h)
    a_h = np.einsum("cli,cmj,clmk->cijk", H, H, full[:, 0])
    got = oneill_tensors(f, g, pts)
    return _array_row(
        np.concatenate([got.a_full.ravel(), got.t_full.ravel(), got.a_horizontal.ravel()]),
        np.concatenate([full[:, 0].ravel(), full[:, 1].ravel(), a_h.ravel()]),
    )


def _row_transition(c):
    T, s, pts = c["T"], c["s"], c["pts"]
    S, dS = s.matrices(pts), s.jets(pts, 1)[1]
    J, dJ = T.jets(pts)
    W = apply_transition(T, s)
    got = np.concatenate([W.values(pts).ravel(), W.jets(pts)[1].ravel()])
    ref = np.concatenate([
        np.einsum("cab,cbij->caij", S, T.values(pts)).ravel(),
        (np.einsum("cmab,cbij->camij", dS, J) + np.einsum("cab,cbmij->camij", S, dJ)).ravel(),
    ])
    return _array_row(got, ref)


def _row_gram(c):
    J = c["T"].values(c["pts"])
    return _array_row(algebra._gram(J), np.einsum("...aij,...bij->...ab", J, J))


CONTRACTIONS = {
    # connection
    "christoffel": lambda c: _array_row(connection._christoffels(c["g"], c["pts"]), _christoffel_einsum(c["g"], c["pts"])),
    "christoffel partials": _row_partials,
    "riemann": lambda c: _array_row(riemann(c["g"], c["pts"]), _riemann_einsum(c["g"], c["pts"])),
    "covariant derivative": _row_nabla,
    "nijenhuis": _row_nijenhuis,
    "curvature operator": _row_curvature_operator,
    # structures
    "kahler fit pairing": _row_fit,
    "parallel-equivalence mixed term": _row_mixed,
    # sasaki
    "d2 christoffel": _row_d2_christoffel,
    "shift": _row_shift,
    "shift partials": _row_shift_partials,
    "lifted metric jets": _row_lifted_metric,
    "lifted triple jets": _row_lifted_triple,
    "frame derivative": _row_frame_derivative,
    "connection closed form": _row_connection_closed_form,
    "nabla J closed form": _row_nabla_j_closed_form,
    "connection oracle": _row_connection_oracle,
    "nabla J oracle": _row_nabla_j_oracle,
    "bracket": _row_bracket,
    # submersion
    "oneill": _row_oneill,
    # algebra
    "transition": _row_transition,
    "gram": _row_gram,
}


def test_each_matrix_product_is_the_einsum_it_replaced_to_roundoff():
    exercised = set()
    for case, context in _contraction_contexts().items():
        for name, row in CONTRACTIONS.items():
            out = row(context)
            if out is None:
                continue
            got, ref, scale = out
            assert np.shape(got) == np.shape(ref), (case, name)
            assert np.abs(np.asarray(got) - ref).max() <= 1e-13 * scale, (case, name)
            if scale > 0:
                exercised.add(name)
    assert exercised == set(CONTRACTIONS)


def test_the_lift_contractions_of_a_sixteen_point_stack_are_each_points_alone_bit_for_bit():
    f, g, bundle, pts = _lift_case(16)
    stacks = riemann(g, pts), oneill_tensors(f, g, pts), check_connection_oracle(bundle, pts), check_nabla_j_oracle(bundle, pts)
    assert len(pts) == 16
    f, g, alone, _ = _lift_case(16)
    for k, xi in enumerate(pts):
        xi = Point(alone.spec, xi.coords)
        assert stacks[0][k].tobytes() == riemann(g, [xi])[0].tobytes()
        ref = oneill_tensors(f, g, [xi])
        for name in ("a_full", "t_full", "a_horizontal"):
            assert getattr(stacks[1], name)[k].tobytes() == getattr(ref, name)[0].tobytes()
        assert stacks[2][k] == check_connection_oracle(alone, [xi])[0]
        assert stacks[3][k] == check_nabla_j_oracle(alone, [xi])[0]


# ------------------------------------------------------ stacked split checks
#
# The submersion checks and the descent as they were first written: one
# point at a time, each from the split of its point alone, and the descent
# one basic lift (one ``solve``) per target direction.  The engine takes
# each of them over the stacks of the split; it must agree bit for bit.


def reference_semi_riemannian(f, g, g_target, p):
    df, _, H, _, _ = (A[0] for A in vh_split(f, g, [p]))
    G, G_target = g.matrices([p])[0], g_target.matrices(f.images([p]))[0]
    down = df @ H
    return float(np.abs(H.T @ G @ H - down.T @ G_target @ down).max())


def reference_paraholomorphic(f, T, T_target, p):
    J, up, dn = jacobian(f, [p])[0], T.values([p])[0], T_target.values(f.images([p]))[0]
    return max(float(np.abs(J @ up[a] - dn[a] @ J).max()) for a in range(3))


def reference_vh_invariance(f, g, T, p):
    _, V, H, v, h = (A[0] for A in vh_split(f, g, [p]))
    J = T.values([p])[0]
    return (
        max(float(np.abs(h @ J[a] @ V).max()) for a in range(3)),
        max(float(np.abs(v @ J[a] @ H).max()) for a in range(3)),
    )


def reference_omega_base(f, g, T, fiber):
    m = f.target.dim
    values = np.empty((len(fiber), 3, m))
    for k, q in enumerate(fiber):
        df, _, H, _, _ = (A[0] for A in vh_split(f, g, [q]))
        omega = fit_kahler_oneforms(g, T, [q]).omega[0]
        for alpha in range(m):
            values[k, :, alpha] = omega @ reference_lift(df, H, np.eye(m)[alpha])
    return values.mean(axis=0)


SUBMERSION_SCENARIOS = ("product-submersion-rotated", "sasaki-over-flat", "sasaki-over-rotated", "sasaki-over-conformal")


@pytest.mark.parametrize("seed", [1, 6, 7, 600])
@pytest.mark.parametrize("name", SUBMERSION_SCENARIOS)
def test_stacked_split_checks_are_the_per_point_loops_bit_for_bit(name, seed):
    doc = load_scenario(name)
    ctx, ref = build_context(doc, seed=seed), build_context(doc, seed=seed)  # the reference on memos of its own
    f, g, T, T_target = ctx.submersion, ctx.metric, ctx.triple, ctx.target_triple
    sample = ctx.points + ctx.points[:1]
    semi = check_semi_riemannian(f, g, ctx.target_metric, sample)
    para = check_paraholomorphic(f, T, T_target, sample)
    vh = stacked(check_vh_invariance(f, g, T, T_target, sample))
    assert len(semi) == len(para) == len(vh) == len(sample)
    for k, p in enumerate(sample):
        p = Point(ref.chart, p.coords)
        assert semi[k] == reference_semi_riemannian(ref.submersion, ref.metric, ref.target_metric, p)
        assert para[k] == reference_paraholomorphic(ref.submersion, ref.triple, ref.target_triple, p)
        assert tuple(vh[k]) == reference_vh_invariance(ref.submersion, ref.metric, ref.triple, p)
    for spec in doc["checks"]:
        if spec["check"] == "descend-oneforms":
            fiber = [Point(ctx.chart, c) for c in spec["fiber"]]
            rep = descend_one_forms(f, g, T, fiber)
            expected = reference_omega_base(ref.submersion, ref.metric, ref.triple, [Point(ref.chart, c) for c in spec["fiber"]])
            assert rep.omega_base.tobytes() == expected.tobytes()


def test_stacked_split_checks_of_a_bent_map_are_the_per_point_loops_bit_for_bit():
    # the catalog's maps are linear, and many of their residuals read 0.0;
    # the bent map over a curved metric leaves every residual nonzero
    chart8, chart4 = make_chart(8), make_chart(4, domain=[[-2.0, 2.0]] * 4)  # the box holds every image
    f, g = _bent(chart8, chart4), _curved8(chart8)
    g4, up, down = METRICS["neutral4"](chart4), TRIPLES["product8-rotated"](chart8), TRIPLES["rotated4"](chart4)
    pts = sample_points(chart8, 3, seed=4)
    semi, para = check_semi_riemannian(f, g, g4, pts), check_paraholomorphic(f, up, down, pts)
    assert min(semi) > 1e-3 and min(para) > 1e-3
    f_ref, g_ref = _bent(chart8, chart4), MetricField(g.field)
    for k, p in enumerate(pts):
        assert semi[k] == reference_semi_riemannian(f_ref, g_ref, g4, p)
        assert para[k] == reference_paraholomorphic(f_ref, up, down, p)


# ------------------------------------------------------------- exact O'Neill
#
# d Pv is a closed form in dG and the map's second partials; central
# differences of the projector are the reference it is tested against.


def _expression_pair(chart8, chart4):
    """The curved metric and the bent map as expressions, each with jets."""
    return metric_from_config({"matrix": CURVED8_ROWS}, chart8), _bent(chart8, chart4)


def test_fd_oneill_converges_to_the_exact_one_at_second_order(chart4):
    # the O'Neill tensors from central differences of the projector field
    # are O(h^2) from the exact ones
    chart8 = make_chart(8)
    g, f = _expression_pair(chart8, chart4)
    for p in sample_points(chart8, 2, seed=11):
        distance = []
        for h in (1e-3, 5e-4, 2.5e-4):
            exact = oneill_tensors(f, g, [p])
            dPv = central_difference(lambda qs: [vh_split(f, g, [q])[3][0] for q in qs], p, h)
            a_full, t_full, _ = reference_oneill(f, g, p, dPv)
            distance.append(max(np.abs(a_full - exact.a_full[0]).max(), np.abs(t_full - exact.t_full[0]).max()))
        assert exact.max_a_horizontal[0] > 1e-2 and np.abs(exact.t_full).max() > 1e-2
        for coarse, fine in zip(distance, distance[1:]):
            assert 1.8 <= np.log2(coarse / fine) <= 2.2, distance


def test_the_fibres_over_the_space_form_are_totally_geodesic_to_roundoff(chart4):
    # the paper's example: T vanishes and A is antisymmetric on horizontal
    # pairs, both exactly, so the exact path reads them at roundoff
    g = metric_from_config({"matrix": SPACE_FORM_ROWS}, chart4)
    bundle = build_tangent_bundle(g, TRIPLES["standard4"](chart4))
    assert bundle.projection.jets is not None and bundle.metric.field.jets is not None
    rep = oneill_tensors(bundle.projection, bundle.metric, sample_points(bundle.spec, 3, seed=1))
    assert np.abs(rep.t_full).max() <= 1e-14
    assert rep.antisymmetry_residual.max() <= 1e-14
    assert rep.max_a_horizontal.min() > 1e-2


def test_the_fibres_over_a_varying_exponent_metric_are_totally_geodesic_to_roundoff():
    # (2 + x1)^x2 eta has jets through the rule of exp(b log|a|), so its
    # lift and projection take the exact path as the space form's do
    f = "(2 + x1)^x2"
    rows = [[(f if r < 2 else f"-{f}") if r == c else "0" for c in range(4)] for r in range(4)]
    chart = make_chart(4)
    bundle = build_tangent_bundle(metric_from_config({"matrix": rows}, chart), TRIPLES["standard4"](chart))
    rep = oneill_tensors(bundle.projection, bundle.metric, sample_points(bundle.spec, 3, seed=1))
    assert np.abs(rep.t_full).max() <= 1e-14
    assert rep.antisymmetry_residual.max() <= 1e-14
    assert rep.max_a_horizontal.min() > 1e-2


@pytest.mark.parametrize(
    "where, error, message",
    [
        ("base wall", OutOfDomainError, "outside the chart domain"),  # x1 half a step beyond its wall
        ("fiber wall", OutOfDomainError, "outside the chart domain"),  # u1 half a step beyond its wall
        ("other chart", ValidationError, "different charts"),
    ],
)
def test_exact_oneill_raises_off_its_box_and_evaluates_within_a_step_of_the_wall(chart4, where, error, message):
    x, u = BUNDLE_POINTS[0]
    coords = np.array(x + u)
    k, wall = {"base wall": (0, 1.0), "fiber wall": (4, -1.0)}.get(where, (0, coords[0]))
    bundle = _conformal_bundle(chart4)
    if where != "other chart":
        coords[k] = wall - np.sign(wall) * H / 2  # inside the box
        rep = oneill_tensors(bundle.projection, bundle.metric, [Point(bundle.spec, coords)])
        assert rep.antisymmetry_residual[0] < 1e-12 and rep.max_a_horizontal[0] > 1e-2
        coords[k] = wall + np.sign(wall) * H / 2
    chart = make_chart(8) if where == "other chart" else bundle.spec
    p = Point(chart, coords)
    with pytest.raises(error, match=message):
        oneill_tensors(bundle.projection, bundle.metric, [p])


def test_exact_oneill_evaluates_the_lift_at_its_own_point_only(chart4, monkeypatch):
    # every new shift and shift partial of the lift begins with the box
    # test of its bundle points
    shifted = []
    real = sasaki._check_box

    def counted(chart, points):
        shifted.extend(q.coords.tobytes() for q in points)
        return real(chart, points)

    monkeypatch.setattr(sasaki, "_check_box", counted)
    bundle = _conformal_bundle(chart4)
    xi = bundle.point(*BUNDLE_POINTS[0])
    oneill_tensors(bundle.projection, bundle.metric, [xi])
    assert set(shifted) == {xi.coords.tobytes()}
    assert {key[1] for key in bundle.metric._memo if key[0] == "g"} == {xi.coords.tobytes()}


# ------------------------------------------------------------ batches and memo
#
# df, the split, the images and the O'Neill tensors are taken a batch at a
# time and memoised; each point of a batch carries the bits it has alone.


def _batch_cases(chart4):
    """(make, points): ``make()`` gives a fresh (map, metric) pair, the bent
    expression map over a curved metric or the bundle projection over its
    Sasaki metric, and the points lie on its source chart."""
    chart8 = make_chart(8)

    def bent():
        g, f = _expression_pair(chart8, chart4)
        return f, g

    def projection():
        bundle = _conformal_bundle(chart4)
        return bundle.projection, bundle.metric

    f, _ = projection()
    return {
        "expression map": (bent, sample_points(chart8, 3, seed=6)),
        "bundle projection": (projection, sample_points(f.source, 3, seed=6)),
    }


BATCH_FORMS = {
    # form: (the batch, one value per point, the arrays of one point's value)
    "df": (lambda f, g, pts: jacobian(f, pts), lambda J: [J]),
    "split": (lambda f, g, pts: list(zip(*vh_split(f, g, pts))), list),
    "images": (lambda f, g, pts: f.images(pts), lambda q: [q.coords]),
    "oneill": (lambda f, g, pts: list(zip(*tuple(oneill_tensors(f, g, pts)))), list),
}


@pytest.mark.parametrize("form", sorted(BATCH_FORMS))
@pytest.mark.parametrize("case", ["expression map", "bundle projection"])
def test_each_batch_form_is_its_one_point_form_bit_for_bit(chart4, case, form):
    # each point of a batch has the bits of its batch of one
    make, pts = _batch_cases(chart4)[case]
    batch_form, arrays = BATCH_FORMS[form]
    f, g = make()
    batch = batch_form(f, g, pts + [pts[0]])
    assert len(batch) == len(pts) + 1
    for p, got in zip(pts + [pts[0]], batch):
        f1, g1 = make()  # nothing shared with the batch, no memo
        alone = batch_form(f1, g1, [Point(f1.source, p.coords)])[0]
        for x, y in zip(arrays(got), arrays(alone), strict=True):
            assert x.tobytes() == y.tobytes()
    if form != "oneill":  # a second batch stacks the memo's rows and stores nothing
        memos = [dict(f._memo), dict(g._memo)]
        again = batch_form(f, g, pts)
        for memo, now in zip(memos, [f._memo, g._memo]):
            assert now.keys() == memo.keys() and all(now[key] is value for key, value in memo.items())
        assert all(x.tobytes() == y.tobytes() for a, b in zip(again, batch) for x, y in zip(arrays(a), arrays(b)))


def _probe(case):
    """(map, metric, points) whose second point fails the given step of the
    split alone and whose first point splits: x1 half a step beyond its
    wall, df of x4*x5 dropping rank where x4 = x5 = 0, or a fiber metric
    diag(x5, 1, -1, -1) over the projection, degenerate where x5 = 0.  In
    "fiber, then off the box" the first point has the degenerate fiber and
    the second lies off the box, so the batch meets the box first but the
    first point's error is the fiber's."""
    ok = [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1]
    bad = {
        "off the box": [1.0 + H / 2] + ok[1:],
        "rank": ok[:3] + [0.0, 0.0] + ok[5:],
        "degenerate fiber": ok[:4] + [0.0] + ok[5:],
    }
    components = PROJECTION
    rows = [[str(sign) if r == c else "0" for c in range(8)] for r, sign in enumerate(ETA8_SIGNS)]
    if case == "rank":
        components = ["x1", "x2", "x3", "x4*x5"]
    if case in ("degenerate fiber", "fiber, then off the box"):
        rows[4][4], rows[0][4], rows[4][0] = "x5", "1", "1"  # det g = (x5 - 1) * ..., never 0 on the box
    if case == "fiber, then off the box":
        pts = [bad["degenerate fiber"], bad["off the box"]]
    else:
        pts = [ok, bad[case]]
    chart8 = make_chart(8)
    f = expression_map(chart8, make_chart(4), components, case)
    return f, metric_from_config({"matrix": rows}, chart8), [Point(chart8, c) for c in pts]


@pytest.mark.parametrize(
    "case, error",
    [
        ("off the box", OutOfDomainError),
        ("rank", RankDeficientError),
        ("degenerate fiber", DegenerateFiberMetricError),
        ("fiber, then off the box", DegenerateFiberMetricError),
    ],
)
def test_a_split_batch_raises_what_its_first_failing_point_raises_alone(case, error):
    f, g, pts = _probe(case)
    failing = pts[0] if case == "fiber, then off the box" else pts[1]
    with pytest.raises(error) as alone:
        vh_split(dataclasses.replace(f), MetricField(g.field), [failing])
    calls = {
        "split": lambda: vh_split(f, g, pts),
        "semi-riemannian": lambda: check_semi_riemannian(f, g, METRICS["neutral4"](f.target), pts),
        "oneill": lambda: oneill_tensors(f, g, pts),
    }
    for name, call in calls.items():
        with pytest.raises(error) as got:
            call()
        assert str(got.value) == str(alone.value), name
        if name == "split":  # a failing split batch stores no split and no df
            assert not [key for key in g._memo if key[0] == ("split", f)]
            if case in ("off the box", "rank"):
                assert not [key for key in f._memo if key[0] == "df"]


def test_a_check_replay_stores_nothing_at_the_point_that_passes_alone():
    # the check's batch fails at its second point and is replayed point by
    # point; the first point's split, df, g and image are computed on
    # throwaway memos, so neither g nor the map keeps anything there
    f, g, pts = _probe("rank")
    with pytest.raises(RankDeficientError):
        check_semi_riemannian(f, g, METRICS["neutral4"](f.target), pts)
    passing = pts[0].coords.tobytes()
    assert [key for key in (*g._memo, *f._memo) if key[1] == passing] == []


@pytest.mark.parametrize("case, error", [("off the box", OutOfDomainError), ("rank", RankDeficientError)])
def test_a_df_batch_raises_what_its_first_failing_point_raises_alone(case, error):
    f, _, pts = _probe(case)
    with pytest.raises(error) as alone:
        jacobian(dataclasses.replace(f), [pts[1]])
    with pytest.raises(error) as got:
        jacobian(f, pts)
    assert str(got.value) == str(alone.value)
    assert f._memo == {}


def test_a_memo_hit_from_another_chart_still_raises(proj8to4):
    chart8, _, f = proj8to4
    g8 = METRICS["neutral8"](chart8)
    coords = [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1]
    jacobian(f, [Point(chart8, coords)])
    vh_split(f, g8, [Point(chart8, coords)])
    f.images([Point(chart8, coords)])
    other = Point(make_chart(8, domain=[[-2.0, 2.0]] * 8), coords)
    for call in (lambda: jacobian(f, [other]), lambda: vh_split(f, g8, [other]), lambda: f.images([other])):
        with pytest.raises(ValidationError, match="different charts"):
            call()


def test_jacobian_rejects_a_point_of_another_chart(proj8to4):
    # the point is outside the map's box; df used to be taken there all the same
    chart8, _, f = proj8to4
    p = Point(make_chart(8, domain=[[-5.0, 5.0]] * 8), [4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    g8 = METRICS["neutral8"](chart8)
    for call in (lambda: jacobian(f, [p]), lambda: vh_split(f, g8, [p]), lambda: f.images([p])):
        with pytest.raises(ValidationError, match="different charts"):
            call()
    assert all(key[1] != p.coords.tobytes() for key in f._memo)


def test_the_chart_error_names_both_domains():
    # two charts with the same names differ only by their domains, which
    # the message must show
    chart8 = make_chart(8)
    f = expression_map(chart8, make_chart(4), PROJECTION, "proj")
    p = Point(make_chart(8, domain=[[-1.0, 1.0]] * 7 + [[-1.0, 3.5]]), [0.0] * 8)
    with pytest.raises(ValidationError) as got:
        f.images([p])
    names = "(x1, x2, x3, x4, x5, x6, x7, x8)"
    assert str(got.value) == (
        f"different charts: the point lives on {names} in {' x '.join(['[-1.0, 1.0]'] * 7)} x [-1.0, 3.5], "
        f"not on {names} in {' x '.join(['[-1.0, 1.0]'] * 8)}"
    )


def test_a_check_raises_what_its_first_failing_point_raises_alone():
    # the first point splits but maps outside the target's box; df drops
    # rank at the second, which the batch meets first
    chart8 = make_chart(8)
    target = make_chart(4, domain=[[0.5, 1.0]] + [[-1.0, 1.0]] * 3)
    f = expression_map(chart8, target, ["x1", "x2", "x3", "x4*x5"], "x4*x5")
    g = METRICS["neutral8"](chart8)
    ok = [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1]
    pts = [Point(chart8, ok), Point(chart8, ok[:4] + [0.0] + ok[5:])]
    up, down = TRIPLES["product8"](chart8), TRIPLES["standard4"](target)
    checks = {
        "semi-riemannian": lambda ps: check_semi_riemannian(f, g, METRICS["neutral4"](target), ps),
        "paraholomorphic": lambda ps: check_paraholomorphic(f, up, down, ps),
    }
    for name, check in checks.items():
        with pytest.raises(OutOfDomainError) as alone:
            check(pts[:1])
        with pytest.raises(OutOfDomainError) as got:
            check(pts)
        assert str(got.value) == str(alone.value), name
