import dataclasses

import numpy as np
import pytest

from paraquat import (
    DegenerateFiberMetricError,
    FdConfig,
    MetricField,
    NotAFiberError,
    ParaquatError,
    Point,
    PreconditionFailedError,
    RankDeficientError,
    StencilOutOfDomainError,
    SubmersionMap,
    TensorField,
    ValidationError,
    basic_lift,
    build_tangent_bundle,
    check_paraholomorphic,
    check_semi_riemannian,
    check_vh_invariance,
    christoffel,
    descend_one_forms,
    eval_field,
    fit_kahler_oneforms,
    jacobian,
    oneill_tensors,
    sample_points,
    vh_split,
)
from paraquat import sasaki
from paraquat.catalog import METRICS, TRIPLES, expression_array_with_jets, make_chart, metric_from_config
from paraquat.fields import central_difference
from paraquat.submersion import _jacobians, _vh_splits

from conftest import SPACE_FORM_ROWS


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


# ------------------------------------------------------------ stacked O'Neill
#
# The O'Neill tensors as they were first written: the projector stencil one
# point at a time, then one covariant derivative per (i, j) and frame kind.
# The engine stacks all of this; it must agree bit for bit and error for error.


def reference_oneill(f, g, p, cfg):
    n = f.source.dim
    gam = christoffel(g, p, cfg)
    fr = vh_split(f, g, p, cfg)
    pv_field = TensorField(
        f.source, 1, 1, lambda q: vh_split(f, g, q, cfg).v, label="vertical projector"
    )
    dPv = central_difference(lambda qs: [eval_field(pv_field, q) for q in qs], p, cfg)

    def covd(u, w_proj_is_v, j):
        sgn = 1.0 if w_proj_is_v else -1.0
        dW = sgn * np.einsum("mkl,m->kl", dPv, u)[:, j]
        wp = (fr.v if w_proj_is_v else fr.h)[:, j]
        return dW + np.einsum("kml,m,l->k", gam, u, wp)

    a_full = np.empty((n, n, n))
    t_full = np.empty((n, n, n))
    for i in range(n):
        he = fr.h[:, i]
        ve = fr.v[:, i]
        for j in range(n):
            a_full[i, j] = fr.h @ covd(he, True, j) + fr.v @ covd(he, False, j)
            t_full[i, j] = fr.h @ covd(ve, True, j) + fr.v @ covd(ve, False, j)
    a_h = np.einsum("li,mj,lmk->ijk", fr.horizontal, fr.horizontal, a_full)
    return a_full, t_full, a_h


def _conformal_bundle(chart4, cfg):
    return build_tangent_bundle(METRICS["conformal-neutral4"](chart4), TRIPLES["standard4"](chart4), cfg=cfg)


BUNDLE_POINTS = [
    ([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]),
    ([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1]),
]


ETA8 = np.diag([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])


def _curved8(chart8):
    return MetricField(TensorField(chart8, 0, 2, lambda p: np.exp(0.3 * p.coords[0]) * ETA8, "conformal8"))


def _bent(chart8, chart4):
    return SubmersionMap(
        chart8,
        chart4,
        lambda c: np.array([c[0] + 0.1 * np.sin(c[4]), c[1] + 0.2 * c[5] ** 2, c[2], c[3] + 0.1 * c[0] * c[6]]),
        "bent",
    )


def test_stacked_oneill_is_the_per_pair_loop_bit_for_bit(chart4, cfg):
    # the Sasaki projection has a genuine A-tensor; its fibers are totally
    # geodesic, so its T-tensor is roundoff, and the bent map supplies one.
    # The projection without its jets keeps the finite-difference path.
    bundle, ref = _conformal_bundle(chart4, cfg), _conformal_bundle(chart4, cfg)
    chart8 = make_chart(8)
    bent, g8 = _bent(chart8, chart4), _curved8(chart8)
    fd_projection = dataclasses.replace(bundle.projection, jets=None)
    cases = [(fd_projection, bundle.metric, ref.projection, ref.metric, bundle.point(x, u)) for x, u in BUNDLE_POINTS]
    cases += [(bent, g8, bent, MetricField(g8.field), p) for p in sample_points(chart8, 2, seed=4)]
    largest_a = largest_t = 0.0
    for f, g, f_ref, g_ref, p in cases:
        got = oneill_tensors(f, g, p, cfg)
        a_full, t_full, a_h = reference_oneill(f_ref, g_ref, Point(f_ref.source, p.coords), cfg)
        assert np.array_equal(got.a_full, a_full)
        assert np.array_equal(got.t_full, t_full)
        assert np.array_equal(got.a_horizontal, a_h)
        largest_a, largest_t = max(largest_a, np.abs(a_h).max()), max(largest_t, np.abs(t_full).max())
    assert largest_a > 1e-2 and largest_t > 1e-2


def test_batched_split_is_the_one_point_split_bit_for_bit(proj8to4, chart4, cfg):
    chart8, target, _ = proj8to4
    bundle = _conformal_bundle(chart4, cfg)
    cases = [
        (_bent(chart8, target), _curved8(chart8), sample_points(chart8, 5, seed=3)),
        (bundle.projection, bundle.metric, [bundle.point(x, u) for x, u in BUNDLE_POINTS]),
    ]
    for f, g, pts in cases:
        J = _jacobians(f, pts, cfg)
        frames = _vh_splits(f, g, pts, cfg)
        for c, p in enumerate(pts):
            alone = vh_split(f, MetricField(g.field), p, cfg)
            assert np.array_equal(J[c], jacobian(f, p, cfg))
            assert np.array_equal(frames[c].df, alone.df)
            for attr in ("vertical", "horizontal", "v", "h"):
                assert np.array_equal(getattr(frames[c], attr), getattr(alone, attr))
            assert frames[c].point is p


# Projector stencils holding two failing points: P + h e1 is the first
# stencil point and P + h e2 the third.  Each case puts a different failure
# at each, so a batch that ran one stage over all points before the next
# would raise the later point's error; the engine must raise the earlier's.
P8 = [0.1, -0.2, 0.3, 0.0, 0.5, -0.5, 0.2, 0.1]
H = FdConfig().step


def _rank_drop(axis, chart8, chart4):
    """The coordinate projection, but constant in x_axis two steps beyond P8:
    its differential at P8 + h e_axis loses that column."""

    def comps(c):
        y = np.array(c[:4])
        if c[axis] > P8[axis] + 1.5 * H:
            y[axis] = P8[axis]
        return y

    return SubmersionMap(chart8, chart4, comps, "rank drop")


def _fiber_degenerate(axis, chart8):
    """neutral8, but [[0, I], [I, 0]] at P8 + h e_axis: nondegenerate, with a
    zero fiber block."""
    swap = np.block([[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]])
    window = (P8[axis] + 0.5 * H, P8[axis] + 1.5 * H)
    return MetricField(
        TensorField(chart8, 0, 2, lambda p: swap if window[0] < p.coords[axis] < window[1] else ETA8, "swap")
    )


def _walled(axis):
    """The box [-1, 1]^8 with its x_axis wall 1.5 steps beyond P8: the
    Jacobian stencil of P8 + h e_axis leaves it."""
    domain = [[-1.0, 1.0]] * 8
    domain[axis] = [-1.0, P8[axis] + 1.5 * H]
    return make_chart(8, domain=domain)


def _projection(chart8, chart4):
    return SubmersionMap(chart8, chart4, lambda c: np.array(c[:4]), "proj")


def _case(name, chart4):
    if name == "rank-deficient differential":  # then a stencil off the box
        chart8 = _walled(1)
        return _rank_drop(0, chart8, chart4), METRICS["neutral8"](chart8), RankDeficientError
    if name == "degenerate fiber metric":  # then a rank-deficient differential
        chart8 = make_chart(8)
        return _rank_drop(1, chart8, chart4), _fiber_degenerate(0, chart8), DegenerateFiberMetricError
    chart8 = _walled(0)  # a stencil off the box, then a degenerate fiber metric
    return _projection(chart8, chart4), _fiber_degenerate(1, chart8), StencilOutOfDomainError


@pytest.mark.parametrize("name", ["rank-deficient differential", "degenerate fiber metric", "stencil off the box"])
def test_projector_batch_raises_what_its_first_failing_point_raises_alone(chart4, cfg, name):
    f, g, error = _case(name, chart4)
    p = Point(f.source, P8)
    first, later = p.shifted(0, H), p.shifted(1, H)
    with pytest.raises(error) as alone:
        vh_split(f, MetricField(g.field), first, cfg)
    with pytest.raises(ParaquatError) as other:
        vh_split(f, MetricField(g.field), later, cfg)
    assert type(other.value) is not error
    # the same first failure, point by point over the stencil in order
    with pytest.raises(error) as per_point:
        reference_oneill(f, MetricField(g.field), p, cfg)
    assert str(per_point.value) == str(alone.value)
    for _ in range(2):
        with pytest.raises(error) as got:
            oneill_tensors(f, g, p, cfg)
        assert str(got.value) == str(alone.value)
    # nothing memoised but metric values, and Gamma (and the metric's jets,
    # where it has them) at the centre
    centre = {"gamma"} | ({"jet"} if g.field.jets is not None else set())
    assert {key[0] for key in g._memo} == {"g"} | centre
    for kind in centre:
        assert [key[1] for key in g._memo if key[0] == kind] == [p.coords.tobytes()]


# ------------------------------------------------------------- exact O'Neill
#
# Where the map and the metric both have jets, d Pv is a closed form in dG
# and the map's second partials; the projector stencil is left to maps or
# metrics without them.

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
BENT_COMPONENTS = ["x1 + 0.1*sin(x5)", "x2 + 0.2*x6^2", "x3", "x4 + 0.1*x1*x7"]


def _expression_pair(chart8, chart4):
    """The curved metric and the bent map as expressions, each with jets."""
    components, jets = expression_array_with_jets(BENT_COMPONENTS, (4,), chart8, "bent")
    return metric_from_config({"matrix": CURVED8_ROWS}, chart8), SubmersionMap(chart8, chart4, components, "bent", jets=jets)


def test_fd_oneill_converges_to_the_exact_one_at_second_order(chart4):
    chart8 = make_chart(8)
    g, f = _expression_pair(chart8, chart4)
    assert g.field.jets is not None and f.jets is not None
    for p in sample_points(chart8, 2, seed=11):
        distance = []
        for h in (1e-3, 5e-4, 2.5e-4):
            cfg = FdConfig(h)
            exact = oneill_tensors(f, g, p, cfg)
            fd = oneill_tensors(dataclasses.replace(f, jets=None), g, p, cfg)
            distance.append(max(np.abs(fd.a_full - exact.a_full).max(), np.abs(fd.t_full - exact.t_full).max()))
        assert exact.max_a_horizontal > 1e-2 and np.abs(exact.t_full).max() > 1e-2
        for coarse, fine in zip(distance, distance[1:]):
            assert 1.8 <= np.log2(coarse / fine) <= 2.2, distance


def test_the_fibres_over_the_space_form_are_totally_geodesic_to_roundoff(chart4, cfg):
    # the paper's example: T vanishes and A is antisymmetric on horizontal
    # pairs, both exactly, so the exact path reads them at roundoff
    g = metric_from_config({"matrix": SPACE_FORM_ROWS}, chart4)
    bundle = build_tangent_bundle(g, TRIPLES["standard4"](chart4), cfg=cfg)
    assert bundle.projection.jets is not None and bundle.metric.field.jets is not None
    for xi in sample_points(bundle.spec, 3, seed=1):
        rep = oneill_tensors(bundle.projection, bundle.metric, xi, cfg)
        assert np.abs(rep.t_full).max() <= 1e-14
        assert rep.antisymmetry_residual <= 1e-14
        assert rep.max_a_horizontal > 1e-2


@pytest.mark.parametrize(
    "where, error",
    [
        ("base wall", StencilOutOfDomainError),  # x1 within one step of its wall
        ("fiber wall", StencilOutOfDomainError),  # u1 within one step of its wall
        ("other chart", ValidationError),
    ],
)
def test_exact_oneill_raises_what_the_projector_stencil_raises(chart4, cfg, where, error):
    x, u = BUNDLE_POINTS[0]
    coords = np.array(x + u)
    if where == "base wall":
        coords[0] = 1.0 - cfg.step / 2
    elif where == "fiber wall":
        coords[4] = -1.0 + cfg.step / 2
    errors = []
    for exact in (True, False):
        bundle = _conformal_bundle(chart4, cfg)
        f = bundle.projection if exact else dataclasses.replace(bundle.projection, jets=None)
        chart = make_chart(8) if where == "other chart" else bundle.spec
        with pytest.raises(error) as got:
            oneill_tensors(f, bundle.metric, Point(chart, coords), cfg)
        errors.append(str(got.value))
    assert errors[0] == errors[1]


def test_exact_oneill_evaluates_the_lift_at_its_own_point_only(chart4, cfg, monkeypatch):
    framed = []
    real = sasaki._frame_batch

    def counted(g, C, cfg):
        framed.extend(c.tobytes() for c in C)
        return real(g, C, cfg)

    monkeypatch.setattr(sasaki, "_frame_batch", counted)
    bundle = _conformal_bundle(chart4, cfg)
    xi = bundle.point(*BUNDLE_POINTS[0])
    oneill_tensors(bundle.projection, bundle.metric, xi, cfg)
    assert framed == [xi.coords.tobytes()]
    assert {key[1] for key in bundle.metric._memo if key[0] == "g"} == {xi.coords.tobytes()}
    # the projector stencil evaluates G and the frames at 16 more points
    framed.clear()
    bundle = _conformal_bundle(chart4, cfg)
    oneill_tensors(dataclasses.replace(bundle.projection, jets=None), bundle.metric, xi, cfg)
    assert len(set(framed)) == 17
    assert len({key[1] for key in bundle.metric._memo if key[0] == "g"}) == 17


def test_a_lift_without_jets_keeps_the_projector_stencil(cfg):
    # the metric x1^x2 eta has no jets, so neither has its lift: the
    # projection's jets alone do not take the exact path
    chart = make_chart(4, domain=[[0.5, 1.5], [-1, 1], [-1, 1], [-1, 1]])
    f = "x1^x2"
    rows = [[(f if r < 2 else f"-{f}") if r == c else "0" for c in range(4)] for r in range(4)]
    bundle, ref = (
        build_tangent_bundle(metric_from_config({"matrix": rows}, chart), TRIPLES["standard4"](chart), cfg=cfg)
        for _ in range(2)
    )
    assert bundle.projection.jets is not None and bundle.metric.field.jets is None
    xi = bundle.point([0.8, 0.3, -0.2, 0.1], [0.2, -0.1, 0.15, 0.3])
    got = oneill_tensors(bundle.projection, bundle.metric, xi, cfg)
    a_full, t_full, a_h = reference_oneill(ref.projection, ref.metric, Point(ref.spec, xi.coords), cfg)
    assert np.array_equal(got.a_full, a_full) and np.array_equal(got.t_full, t_full)
    assert np.array_equal(got.a_horizontal, a_h)
