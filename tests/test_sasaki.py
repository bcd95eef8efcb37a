"""Lifted metrics on tangent bundles and their closed-form oracles."""

import dataclasses
import re

import numpy as np
import pytest

from paraquat import (
    BracketReport,
    DegenerateMetricError,
    FdConfig,
    MetricField,
    OutOfDomainError,
    ParaquatError,
    Point,
    PreconditionFailedError,
    ShapeError,
    StencilOutOfDomainError,
    TensorField,
    ValidationError,
    build_tangent_bundle,
    central_difference,
    check_bracket,
    check_connection_oracle,
    check_nabla_j_oracle,
    check_triple_algebra,
    christoffel,
    constant_field,
    covariant_derivative_11,
    curvature_operator,
    eval_field,
    fd_gradient,
    fit_kahler_oneforms,
    lift,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    riemann,
    sample_points,
    tangent_bundle_chart,
)
from paraquat import connection, sasaki, structures
from paraquat.algebra import doubled
from paraquat.catalog import ETA4, METRICS, make_chart, metric_from_config, triple_from_config
from paraquat.structures import span_combination

from conftest import SPACE_FORM_ROWS, rotated4_matrices


def conformal_shift_exact(xi):
    """M^k_i = Gamma^k_{ji} u^j for g = exp(2 x1) eta, from the closed form."""
    n = 4
    u = xi.coords[n:]
    gam = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gam[k, i, j] = (k == i) * (j == 0) + (k == j) * (i == 0) - ETA4[i, j] * (
                    k == 0
                )
    return np.einsum("kji,j->ki", gam, u)


def reference_shift(g, xi, cfg):
    """M^k_i = Gamma^k_{ji}(x) u^j at xi = (x, u) as the one-point code
    formed it: Gamma at x from one ``christoffel`` call, one ``einsum``."""
    n = g.chart.dim
    return np.einsum("kji,j->ki", christoffel(g, Point(g.chart, xi.coords[:n]), cfg), xi.coords[n:])


def memo_shift(bundle, xi):
    """M at xi from the bundle's frame memo: L^-1 = [[I, 0], [M, I]]."""
    n = bundle.base_dim
    return bundle.frames([xi])[0][1][n:, :n]


def test_bundle_chart_names(chart4):
    tb = tangent_bundle_chart(chart4)
    assert tb.coords == ("x1", "x2", "x3", "x4", "u1", "u2", "u3", "u4")
    assert tb.dim == 8


def test_bundle_chart_rejects_name_collision():
    base = make_chart(2, coords=["x1", "u1"])
    with pytest.raises(ValidationError):
        tangent_bundle_chart(base)


def test_connection_shift(flat4, conformal4, std_triple, cfg):
    flat, conformal = (build_tangent_bundle(g, std_triple, cfg=cfg) for g in (flat4, conformal4))
    x, u = [0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]
    assert np.abs(memo_shift(flat, flat.point(x, u))).max() < 1e-10
    xi = conformal.point(x, u)
    assert np.abs(memo_shift(conformal, xi) - conformal_shift_exact(xi)).max() < 1e-5


def test_horizontal_lift_u_part(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    e1 = np.array([1.0, 0, 0, 0])
    xi = bundle.point(np.zeros(4), e1)
    lifted = lift("h", e1, memo_shift(bundle, xi))
    # at the origin with u = e1 the shift matrix is the identity
    assert np.abs(lifted[:4] - e1).max() < 1e-5
    assert np.abs(lifted[4:] + e1).max() < 1e-5


def test_flat_bundle_metric_is_block_diagonal(flat4, std_triple, cfg):
    bundle = build_tangent_bundle(flat4, std_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    G = bundle.metric.matrix(xi)
    expected = np.block(
        [[ETA4, np.zeros((4, 4))], [np.zeros((4, 4)), ETA4]]
    )
    assert np.abs(G - expected).max() < 1e-9
    ev = np.linalg.eigvalsh(G)
    assert ((ev > 0).sum(), (ev < 0).sum()) == (4, 4)


def test_bundle_rejects_non_hermitian_base(euclidean4, std_triple, cfg):
    with pytest.raises(PreconditionFailedError):
        build_tangent_bundle(euclidean4, std_triple, cfg=cfg)


def test_lifted_metric_on_frames(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    G = bundle.metric.matrix(xi)
    gx = conformal4.matrix(bundle.base_point(xi))
    M = memo_shift(bundle, xi)
    H, V = lift("h", np.eye(4), M), lift("v", np.eye(4))
    assert np.abs(H.T @ G @ H - gx).max() < 1e-9
    assert np.abs(H.T @ G @ V).max() < 1e-9
    assert np.abs(V.T @ G @ V - gx).max() < 1e-9


def test_point_split_roundtrip(flat4, std_triple, cfg):
    bundle = build_tangent_bundle(flat4, std_triple, cfg=cfg)
    x = [0.2, -0.1, 0.4, 0.0]
    u = [0.3, 0.1, -0.2, 0.5]
    xi = bundle.point(x, u)
    assert np.allclose(bundle.base_point(xi).coords, x)
    assert np.allclose(xi.coords[4:], u)


@pytest.mark.parametrize(
    "x, u, bad",
    [
        ([0.1, 0.2, 0.3], [0.4, 0.5, 0.6, 0.7, 0.8], "x has shape (3,), expected (4,)"),
        ([0.1, 0.2, 0.3, 0.4, 0.5], [0.6, 0.7, 0.8], "x has shape (5,), expected (4,)"),
        ([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7], "u has shape (3,), expected (4,)"),
        ([[0.1, 0.2], [0.3, 0.4]], [0.5, 0.6, 0.7, 0.8], "x has shape (2, 2), expected (4,)"),
    ],
)
def test_point_rejects_parts_of_the_wrong_length(flat4, std_triple, cfg, x, u, bad):
    # the total length alone is not enough: (3 + 5) coordinates must not
    # become a bundle point over the base point (0.1, 0.2, 0.3, 0.4)
    bundle = build_tangent_bundle(flat4, std_triple, cfg=cfg)
    with pytest.raises(ShapeError, match=re.escape(bad)):
        bundle.point(x, u)


def test_connection_matches_oracle_flat(flat4, std_triple, cfg):
    bundle = build_tangent_bundle(flat4, std_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    assert check_connection_oracle(bundle, xi) < 1e-10


def test_connection_matches_oracle_conformal(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_connection_oracle(bundle, xi) < 1e-9


def test_nabla_j_matches_oracle(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_nabla_j_oracle(bundle, xi) < 1e-9


def test_oracle_over_a_flat_base_is_the_span_combination(flat4, std_triple, rot_triple, cfg):
    """Over a flat base the closed form reduces to the span combination of the
    lifted triple with the base 1-forms:

        nabla~_{X^h} Jt_1 = -w3(X) Jt_2 + w2(X) Jt_3   (cyclically for 2, 3)
        nabla~_{X^v} Jt_a = 0
    """
    n = 4
    for T in (std_triple, rot_triple):
        bundle = build_tangent_bundle(flat4, T, cfg=cfg)
        xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
        C = oracle_tilde_nabla_J(bundle, xi)
        L = bundle.frames([xi])[0][0]
        omega = fit_kahler_oneforms(flat4, T, bundle.base_point(xi), cfg).omega
        Jt = bundle.triple.matrices(xi)
        for i in range(n):
            for a, predicted in enumerate(span_combination(omega[:, i], Jt)):
                assert np.abs(C[a, i] - predicted @ L).max() < 1e-12
        assert not C[:, n:].any()
        assert check_nabla_j_oracle(bundle, xi) < 1e-9


def test_bracket_flat(flat4, std_triple, cfg):
    bundle = build_tangent_bundle(flat4, std_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    rep = check_bracket(bundle, np.eye(4)[0], np.eye(4)[1], xi)
    assert rep.max_residual < 1e-9


def test_bracket_curvature_sign(conformal4, std_triple, cfg):
    # the vertical part of [X^h, Y^h] carries -R(X, Y)u; flipping the sign in
    # the identity must leave a residual of order |R| |u|
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point(np.zeros(4), [0.0, 0.0, 0.9, 0.0])
    rep = check_bracket(bundle, np.eye(4)[1], np.eye(4)[2], xi)
    assert rep.vv_residual < 1e-9
    assert rep.hv_residual < 1e-9
    assert rep.hh_residual < 1e-9
    assert rep.hh_flipped_residual > 1.0


def test_lifted_triple_algebra(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_triple_algebra(bundle.triple, xi).max_residual < 1e-12


def test_lifted_oneform_components(flat4, rot_triple, cfg):
    # over a flat rotated base the lifted forms are the pullbacks: the x1
    # component of the third form survives, every fiber component dies
    bundle = build_tangent_bundle(flat4, rot_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    fit = fit_kahler_oneforms(bundle.metric, bundle.triple, xi, cfg)
    assert fit.residual < 1e-6
    expected = np.zeros((3, 8))
    expected[2, 0] = -1.0
    assert np.abs(fit.omega - expected).max() < 1e-5


def _textbook_lift(g, T, xi, cfg):
    """G and the three Jt_a at xi from the np.block formulas of the module
    docstring, with no memo in between."""
    x = Point(g.chart, xi.coords[:4])
    M = reference_shift(g, xi, cfg)
    eye, zero = np.eye(4), np.zeros((4, 4))
    L = np.block([[eye, zero], [-M, eye]])
    Linv = np.block([[eye, zero], [M, eye]])
    gx = g.matrix(x)
    G = Linv.T @ np.block([[gx, zero], [zero, gx]]) @ Linv
    Jt = []
    for f in T.fields:
        Jx = eval_field(f, x)
        Jt.append(L @ np.block([[Jx, zero], [zero, Jx]]) @ Linv)
    return G, Jt


@pytest.fixture
def frame_batches(monkeypatch):
    """The bundle points of each frame batch that computes new frames, as
    lists of coordinate bytes, one list per batch."""
    batches = []
    real = sasaki._frame_batch

    def counted(g, C, cfg):
        batches.append([c.tobytes() for c in C])
        return real(g, C, cfg)

    monkeypatch.setattr(sasaki, "_frame_batch", counted)
    return batches


def test_memoised_lift_is_the_block_formula_bit_for_bit(conformal4, rot_triple, cfg):
    bundle = build_tangent_bundle(conformal4, rot_triple, cfg=cfg)
    for x, u in [
        ([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]),
        ([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1]),
        ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.9, 0.0]),
    ]:
        xi = bundle.point(x, u)
        G, Jt = _textbook_lift(conformal4, rot_triple, xi, cfg)
        for _ in range(2):  # a miss, then a hit
            assert eval_field(bundle.metric.field, xi).tobytes() == G.tobytes()
            for f, expected in zip(bundle.triple.fields, Jt):
                assert eval_field(f, xi).tobytes() == expected.tobytes()


def test_repeated_bundle_point_reuses_its_frame(conformal4, std_triple, cfg, frame_batches):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    first = eval_field(bundle.triple.fields[0], xi)
    assert frame_batches == [[xi.coords.tobytes()]]
    again = eval_field(bundle.triple.fields[0], xi)
    for f in bundle.triple.fields[1:]:
        eval_field(f, xi)
    eval_field(bundle.metric.field, xi)
    bundle.metric.matrices([xi])
    assert frame_batches == [[xi.coords.tobytes()]]
    assert again is first
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0] = 0.0


def test_failed_lift_stores_nothing(conformal4, std_triple, cfg, frame_batches):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    # inside the box, but the base stencil of Gamma crosses the x1 wall
    xi = bundle.point([1.0 - cfg.step / 2, 0.0, 0.0, 0.0], [0.2, -0.1, 0.15, 0.3])
    for _ in range(2):
        with pytest.raises(StencilOutOfDomainError):
            eval_field(bundle.triple.fields[0], xi)
    assert frame_batches == 2 * [[xi.coords.tobytes()]]


def test_bundles_over_one_pair_share_no_memo(conformal4, std_triple, cfg, frame_batches):
    one = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    two = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = one.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    a = eval_field(one.triple.fields[2], xi)
    b = eval_field(two.triple.fields[2], Point(two.spec, xi.coords))
    assert frame_batches == 2 * [[xi.coords.tobytes()]]
    assert a is not b
    assert a.tobytes() == b.tobytes()


def _per_vector_reference(bundle, xi, pairs):
    """Both Sasaki checks in their per-vector form, as a reference for the
    frame form: each lift of a base coordinate vector is a lift field of its
    own, with its derivative d_A Y^h = (0, -d_A M Y) from the shift's
    partials; the closed forms are written pair by pair through
    ``curvature_operator``.  Returns the connection residual, the closed
    form of each (kind_x, i, kind_y, j) and the four bracket residuals of
    each pair."""
    cfg = bundle.cfg
    g, n = bundle.base_metric, bundle.base_dim
    e = np.eye(n)
    x, u = bundle.base_point(xi), xi.coords[n:]
    gam, R = christoffel(g, x, cfg), riemann(g, x, cfg)
    gamG = christoffel(bundle.metric, xi, cfg)
    M = memo_shift(bundle, xi)

    def lift_field(kind, Y):
        def jets(qs, order):
            dW = np.zeros((len(qs), 2 * n, 2 * n))
            if kind == "h":
                dW[:, :, n:] = -np.einsum("cAki,i->cAk", np.array([s[1] for s in bundle.shifts(qs)]), Y)
            return np.array([lift(kind, Y, memo_shift(bundle, q)) for q in qs]), dW

        return TensorField(bundle.spec, 1, 0, lambda q: lift(kind, Y, memo_shift(bundle, q)), f"{kind}-lift", jets=jets)

    def derivative(W):
        return W.jets([xi], 1)[1][0]

    def closed(kx, X, ky, Y):
        cov = np.einsum("kml,m,l->k", gam, X, Y)
        if (kx, ky) == ("h", "h"):
            return lift("h", cov, M) + lift("v", -0.5 * curvature_operator(R, X, Y, u))
        if (kx, ky) == ("h", "v"):
            return lift("v", cov) + lift("h", 0.5 * curvature_operator(R, u, Y, X), M)
        if (kx, ky) == ("v", "h"):
            return lift("h", 0.5 * curvature_operator(R, u, X, Y), M)
        return np.zeros(2 * n)

    conn, closed_forms = 0.0, {}
    for ky in ("h", "v"):
        for j, Y in enumerate(e):
            W = lift_field(ky, Y)
            Wxi, dW = eval_field(W, xi), derivative(W)
            for kx in ("h", "v"):
                for i, X in enumerate(e):
                    U = lift(kx, X, M)
                    fd = np.einsum("a,ak->k", U, dW) + np.einsum("kab,a,b->k", gamG, U, Wxi)
                    closed_forms[kx, i, ky, j] = closed(kx, X, ky, Y)
                    conn = max(conn, float(np.abs(fd - closed_forms[kx, i, ky, j]).max()))

    def bracket(A, B):
        return np.einsum("m,mk->k", eval_field(A, xi), derivative(B)) - np.einsum(
            "m,mk->k", eval_field(B, xi), derivative(A)
        )

    brackets = []
    for i, j in pairs:
        X, Y = e[i], e[j]
        RXYu = curvature_operator(R, X, Y, u)
        hh = bracket(lift_field("h", X), lift_field("h", Y))
        brackets.append(BracketReport(
            vv_residual=float(np.abs(bracket(lift_field("v", X), lift_field("v", Y))).max()),
            hv_residual=float(np.abs(
                bracket(lift_field("h", X), lift_field("v", Y)) - lift("v", np.einsum("kml,m,l->k", gam, X, Y))
            ).max()),
            hh_residual=float(np.abs(hh - lift("v", -RXYu)).max()),
            hh_flipped_residual=float(np.abs(hh - lift("v", +RXYu)).max()),
        ))
    return conn, closed_forms, brackets


def _nabla_j_reference(bundle, xi):
    """The nabla-J check with the derivatives of the lifted triple computed
    afresh, not read from its Kähler fit."""
    cfg = bundle.cfg
    e = np.eye(bundle.base_dim)
    M = memo_shift(bundle, xi)
    L = np.hstack([lift("h", e, M), lift("v", e)])
    D = np.stack([covariant_derivative_11(bundle.metric, F, xi, cfg) for F in bundle.triple.fields])
    lifted = np.einsum("aAkl,AI,lJ->aIkJ", D, L, L)
    return float(np.abs(lifted - oracle_tilde_nabla_J(bundle, xi)).max())


def test_oracle_checks_are_the_public_oracles_bit_for_bit(conformal4, rot_triple, cfg):
    """The frame forms of the closed form, of both checks and of the
    bracket residuals are the per-vector loops they replace, bit for bit,
    over the curved conformal-neutral4 base."""
    bundle = build_tangent_bundle(MetricField(conformal4.field), rot_triple, cfg=cfg)
    n = bundle.base_dim
    pairs = [(0, 1), (1, 2), (2, 2), (3, 0)]
    for x, u in [
        ([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]),
        ([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1]),
    ]:
        xi = bundle.point(x, u)
        conn, closed_forms, brackets = _per_vector_reference(bundle, xi, pairs)
        nabla_j = _nabla_j_reference(bundle, xi)
        assert conn > 0 and nabla_j > 0
        assert check_connection_oracle(bundle, xi) == conn
        assert check_nabla_j_oracle(bundle, xi) == nabla_j
        C = oracle_tilde_nabla(bundle, xi)
        offset = {"h": 0, "v": n}
        for (kx, i, ky, j), expected in closed_forms.items():
            assert np.array_equal(C[offset[kx] + i, :, offset[ky] + j], expected)
        for (i, j), expected in zip(pairs, brackets):
            assert check_bracket(bundle, np.eye(n)[i], np.eye(n)[j], xi) == expected
        assert max(rep.hh_flipped_residual for rep in brackets) > 1e-2


def test_bracket_rejects_what_its_lift_fields_rejected(conformal4, std_triple, cfg):
    """A point of another chart and a base vector of the wrong length raise
    their own errors before anything is computed, as evaluating the lift
    fields of the per-vector form did."""
    g = MetricField(conformal4.field)  # a fresh memo
    bundle = build_tangent_bundle(g, std_triple, cfg=cfg)
    built = set(g._memo)  # the metric values of the construction's spot checks
    e = np.eye(4)
    elsewhere = Point(make_chart(8), np.concatenate([[0.1, -0.2, 0.3, 0.05], U]))
    with pytest.raises(ValidationError, match="different charts"):
        check_bracket(bundle, e[0], e[1], elsewhere)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    for X, Y in [(e[0, :3], e[1]), (e[0], e[1, :3])]:
        with pytest.raises(ShapeError, match=r"base vector has shape \(3,\)"):
            check_bracket(bundle, X, Y, xi)
    assert set(g._memo) == built


def test_oracle_checks_ask_for_the_shift_once_per_bundle_point(conformal4, std_triple, cfg, frame_batches):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    check_connection_oracle(bundle, xi)
    check_nabla_j_oracle(bundle, xi)
    framed = [key for batch in frame_batches for key in batch]
    assert framed.count(xi.coords.tobytes()) == 1
    assert len(framed) == len(set(framed))


def test_lifted_derivatives_come_from_the_memoised_fit(chart4, rot_triple, cfg, monkeypatch):
    g = METRICS["conformal-neutral4"](chart4)  # a fresh memo
    bundle = build_tangent_bundle(g, rot_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    fit_kahler_oneforms(bundle.metric, bundle.triple, xi, cfg)
    metrics = []
    real = structures._covariant_derivatives

    def counted(g, T, pts, cfg):
        metrics.append(g)
        return real(g, T, pts, cfg)

    # the batch form, which covariant_derivative_11 calls too
    for module in (connection, structures):
        monkeypatch.setattr(module, "_covariant_derivatives", counted)
    check_nabla_j_oracle(bundle, xi)
    assert not any(m is bundle.metric for m in metrics)
    # the base derivatives too: the closed form reads the fit at the base point
    assert [m is g for m in metrics] == [True] * 3


def test_oracle_checks_leave_one_curvature_in_the_base_memo(chart4, std_triple, cfg):
    g = METRICS["conformal-neutral4"](chart4)
    bundle = build_tangent_bundle(g, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    check_connection_oracle(bundle, xi)
    check_nabla_j_oracle(bundle, xi)
    x = bundle.base_point(xi)
    assert [key for key in g._memo if key[0] == "riem"] == [("riem", x.coords.tobytes(), cfg.step)]
    assert not any(key[0] == "riem" for key in bundle.metric._memo)


# ------------------------------------------------------------ frame batches


def _with_stencil(xi, cfg):
    return [xi] + [xi.shifted(m, s * cfg.step) for m in range(xi.chart.dim) for s in (1, -1)]


def test_frame_batch_is_connection_shift_bit_for_bit(conformal4, rot_triple, cfg, frame_batches, monkeypatch):
    g = MetricField(conformal4.field)  # a fresh memo
    bundle = build_tangent_bundle(g, rot_triple, cfg=cfg)
    batches = []
    real = sasaki._christoffels

    def counted(g, centres, cfg, **kwargs):
        batches.append(len(centres))
        return real(g, centres, cfg, **kwargs)

    monkeypatch.setattr(sasaki, "_christoffels", counted)
    pts = _with_stencil(bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]), cfg)
    G = bundle.metric.matrices(pts)
    # one frame batch over the 17 points, one Gamma batch over their 9 distinct base points
    assert batches == [9]
    assert frame_batches == [[xi.coords.tobytes() for xi in pts]]
    frames = bundle.frames(pts)
    assert batches == [9] and len(frame_batches) == 1
    ref = MetricField(conformal4.field)
    for xi, (L, Linv, x), Gxi in zip(pts, frames, G):
        M = reference_shift(ref, xi, cfg)
        assert np.array_equal(Linv[4:, :4], M) and np.array_equal(L[4:, :4], -M)
        assert np.array_equal(L[:4], np.eye(8)[:4]) and np.array_equal(Linv[4:, 4:], np.eye(4))
        assert np.array_equal(x.coords, xi.coords[:4])
        assert not L.flags.writeable and not Linv.flags.writeable
        assert np.array_equal(Gxi, _textbook_lift(ref, rot_triple, xi, cfg)[0])


def _spotted(chart4):
    """conformal-neutral4, degenerate where x2 lies in a window around 0.7,
    with conformal-neutral4's jets."""
    degenerate = np.diag([0.0, 1.0, -1.0, -1.0])
    real = METRICS["conformal-neutral4"](chart4).field

    def comps(p):
        return degenerate if 0.6995 < p.coords[1] < 0.7005 else real.components(p)

    return MetricField(dataclasses.replace(real, components=comps, label="spotted"))


# base points of bundle points that fail, each for its own reason
FAILING_BASES = {
    "stencil off the box": [1.0 - 0.5e-3, 0.0, 0.0, 0.0],
    "degenerate centre": [0.0, 0.7, 0.0, 0.0],
}
U = [0.2, -0.1, 0.15, 0.3]


@pytest.mark.parametrize(
    "order",
    [
        ("stencil off the box", "degenerate centre"),
        ("degenerate centre", "stencil off the box"),
    ],
)
def test_frame_batch_raises_what_its_first_failing_point_raises_alone(chart4, std_triple, cfg, frame_batches, order):
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple, cfg=cfg)
    good = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    first, later = (bundle.point(FAILING_BASES[name], U) for name in order)
    alone = build_tangent_bundle(MetricField(g.field), std_triple, cfg=cfg)
    with pytest.raises(ParaquatError) as expected:
        alone.frames([first])
    with pytest.raises(ParaquatError) as other:
        alone.frames([later])
    assert str(other.value) != str(expected.value)
    with pytest.raises(type(expected.value)) as got:
        bundle.frames([good, first, later])
    assert str(got.value) == str(expected.value)
    # nothing stored: no frame, no Gamma
    assert not [key for key in g._memo if key[0] != "g"]
    frame_batches.clear()
    bundle.frames([good])
    assert frame_batches == [[good.coords.tobytes()]]
    with pytest.raises(type(expected.value)) as got:
        bundle.metric.matrices([good, first, later])
    assert str(got.value) == str(expected.value)
    assert not bundle.metric._memo


def test_frame_batch_raises_a_failing_frame_before_a_later_point_off_the_box(chart4, std_triple, cfg):
    # the stacked domain test finds the later point first; the batch still
    # raises what the earlier point raises alone
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple, cfg=cfg)
    first = bundle.point(FAILING_BASES["degenerate centre"], U)
    off = bundle.point([0.1, -0.2, 0.3, 0.05], [3.0] + U[1:])
    alone = build_tangent_bundle(MetricField(g.field), std_triple, cfg=cfg)
    with pytest.raises(DegenerateMetricError) as expected:
        alone.frames([first])
    with pytest.raises(OutOfDomainError):
        alone.frames([off])
    for batch in (bundle.frames, bundle.metric.matrices):
        with pytest.raises(DegenerateMetricError) as got:
            batch([first, off])
        assert str(got.value) == str(expected.value)
    assert not [key for key in g._memo if key[0] != "g"]
    assert not bundle.metric._memo


def test_lifted_metric_batch_raises_in_per_point_order(chart4, std_triple, cfg):
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple, cfg=cfg)
    # a point of another 8-dim chart, before a point whose frame fails
    elsewhere = Point(make_chart(8), np.concatenate([[0.1, -0.2, 0.6, 0.05], U]))
    later = bundle.point(FAILING_BASES["stencil off the box"], U)
    alone = build_tangent_bundle(MetricField(g.field), std_triple, cfg=cfg)
    with pytest.raises(ValidationError, match="different charts"):
        alone.frames([elsewhere])
    with pytest.raises(ValidationError) as expected:
        alone.metric.matrix(elsewhere)
    with pytest.raises(StencilOutOfDomainError):
        alone.metric.matrix(later)
    with pytest.raises(ValidationError) as got:
        bundle.metric.matrices([elsewhere, later])
    assert str(got.value) == str(expected.value)
    assert not bundle.metric._memo


def test_lifted_metric_of_a_small_base_metric_evaluates(chart4, std_triple, cfg):
    """The determinant test is scale-free: over g = 0.03 eta, |det g| = 8.1e-7
    and the lifted metric's |det G| = det(g)^2 = 6.6e-13 both pass, while a
    degenerate base metric still raises."""
    small = MetricField(constant_field(chart4, 0, 2, 0.03 * ETA4, "0.03 eta"))
    bundle = build_tangent_bundle(small, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    G = bundle.metric.matrix(xi)
    assert np.linalg.det(G) == pytest.approx(np.linalg.det(small.matrix(bundle.base_point(xi))) ** 2)
    assert abs(np.linalg.det(G)) < 1e-9
    assert check_connection_oracle(bundle, xi) < 1e-6
    degenerate = MetricField(constant_field(chart4, 0, 2, np.diag([0.0, 1.0, -1.0, -1.0]), "degenerate"))
    with pytest.raises(DegenerateMetricError):
        degenerate.matrix(Point(chart4, np.zeros(4)))


@pytest.mark.parametrize("where", ["another chart", "another chart at a memo hit", "fiber outside the box"])
def test_frame_form_oracles_reject_what_the_connection_check_rejects(conformal4, std_triple, cfg, where):
    """The frame memo is keyed by coordinates alone, so every frame batch
    checks the chart of each point, memo hits included, and the domain of
    each new one, with eval_field's errors."""
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    x = [0.1, -0.2, 0.3, 0.05]
    if where == "fiber outside the box":
        xi, error = bundle.point(x, [3.0, -0.1, 0.15, 0.3]), OutOfDomainError
    else:
        xi, error = Point(make_chart(8), np.concatenate([x, U])), ValidationError
        if where == "another chart at a memo hit":
            bundle.frames([bundle.point(x, U)])
    with pytest.raises(error) as expected:
        check_connection_oracle(bundle, xi)
    for oracle in (oracle_tilde_nabla, oracle_tilde_nabla_J, memo_shift):
        with pytest.raises(error) as got:
            oracle(bundle, xi)
        assert str(got.value) == str(expected.value)


def test_stacked_products_are_the_per_point_products_bit_for_bit():
    """The stacked einsum and matrix products of the frame, metric and triple
    batches give each point's one-point product, bit for bit."""
    rng = np.random.default_rng(14)
    for n in range(2, 9):
        for _ in range(20):
            gam, u = rng.normal(size=(17, n, n, n)), rng.normal(size=(17, n))
            A, B, C = (rng.normal(size=(17, 2 * n, 2 * n)) for _ in range(3))
            M = np.einsum("pkji,pj->pki", gam, u)
            G = A.transpose(0, 2, 1) @ B @ A
            J = A @ B @ C
            for p in range(17):
                assert M[p].tobytes() == np.einsum("kji,j->ki", gam[p], u[p]).tobytes()
                assert G[p].tobytes() == (A[p].T @ B[p] @ A[p]).tobytes()
                assert J[p].tobytes() == (A[p] @ B[p] @ C[p]).tobytes()


def test_lifted_metric_batch_is_the_one_point_product_bit_for_bit(conformal4, rot_triple, cfg):
    bundle = build_tangent_bundle(MetricField(conformal4.field), rot_triple, cfg=cfg)
    pts = _with_stencil(bundle.point([0.1, -0.2, 0.3, 0.05], U), cfg)
    pts += _with_stencil(bundle.point([-0.6, 0.4, 0.0, 0.7], [0.9, -0.0, -0.5, 0.1]), cfg) + pts[:2]
    G = bundle.metric.matrices(pts)
    for xi, Gxi in zip(pts, G):
        _, Linv, x = bundle.frames([xi])[0]
        assert Gxi.tobytes() == (Linv.T @ doubled(conformal4.matrix(x)) @ Linv).tobytes()


def test_lifted_triple_batch_is_the_one_point_member_bit_for_bit(conformal4, rot_triple, cfg):
    """Jt_a from the stacked batch that fd_gradient hands a stencil equals
    the member evaluated one point at a time on a bundle of its own, and so
    does its derivative."""
    batched = build_tangent_bundle(conformal4, rot_triple, cfg=cfg)
    alone = build_tangent_bundle(conformal4, rot_triple, cfg=cfg)
    for x, u in [([0.1, -0.2, 0.3, 0.05], U), ([-0.6, 0.4, 0.0, 0.7], [0.9, -0.0, -0.5, 0.1])]:
        xi = batched.point(x, u)
        pts = _with_stencil(xi, cfg)
        for f, one, base in zip(batched.triple.fields, alone.triple.fields, rot_triple.fields):
            for q, v in zip(pts, f.batch(pts)):
                assert v.tobytes() == eval_field(one, q).tobytes()
                L, Linv, y = alone.frames([q])[0]
                assert v.tobytes() == (L @ doubled(eval_field(base, y)) @ Linv).tobytes()
            assert fd_gradient(f, xi, cfg).tobytes() == central_difference(
                lambda qs: [eval_field(one, q) for q in qs], xi, cfg
            ).tobytes()


# --- exact jets through the lift ----------------------------------------------

EXACT_LIFTS = {
    # name: (base metric, triple) on the 4-dim chart; the inline triple's
    # members have jets of their own, so its lift's dJ_a blocks vary
    "space form": (lambda chart: metric_from_config({"matrix": SPACE_FORM_ROWS}, chart), "standard4"),
    "conformal-neutral4": (METRICS["conformal-neutral4"], "rotated4 inline"),
}


def _exact_lift(chart4, name, cfg=FdConfig()):
    build, triple = EXACT_LIFTS[name]
    spec = {"matrices": rotated4_matrices()} if triple == "rotated4 inline" else triple
    return build_tangent_bundle(build(chart4), triple_from_config(spec, chart4), cfg=cfg)


@pytest.mark.parametrize("name", sorted(EXACT_LIFTS))
def test_lift_jets_are_the_limit_of_finite_differences_at_second_order(chart4, name):
    # central differences of G, of Jt_a and of the frame L are O(h^2) from
    # their exact partials, and nested ones of G from d2G; over
    # conformal-neutral4, Gamma is constant and L affine, so its differences
    # are exact to roundoff
    bundle = _exact_lift(chart4, name)
    G, n = bundle.metric.field, 4
    assert G.jets is not None and all(f.jets is not None for f in bundle.triple.fields)
    xis = [bundle.point(x, u) for x, u in [([0.1, -0.2, 0.3, 0.05], U), ([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1])]]
    _, dG, d2G = G.jets(xis, 2)
    exact = {
        "dG": dG, "d2G": d2G,
        "dJ": np.stack([f.jets(xis, 1)[1] for f in bundle.triple.fields]),
        "dL": np.stack([sasaki._frame_derivative(bundle, xi)[1] for xi in xis]),
    }
    frame = lambda qs: [f[0] for f in bundle.frames(qs)]
    distance = {key: [] for key in exact}
    for h in (2e-3, 1e-3):
        cfg = FdConfig(h)
        L = np.array(frame(xis))
        fd = {
            "dG": central_difference(G.batch, xis, cfg),
            "d2G": central_difference(lambda qs: central_difference(G.batch, qs, cfg), xis, cfg),
            "dJ": np.stack([central_difference(f.batch, xis, cfg) for f in bundle.triple.fields]),
            "dL": np.einsum("caI,cakJ->cIkJ", L, central_difference(frame, xis, cfg)),
        }
        for key in exact:
            distance[key].append(np.abs(fd[key] - exact[key]).max())
    for key, (coarse, fine) in distance.items():
        assert np.abs(exact[key]).max() > 1e-2, key
        if (name, key) == ("conformal-neutral4", "dL"):
            assert max(coarse, fine) < 1e-12
        else:
            assert 1.8 <= np.log2(coarse / fine) <= 2.2, (key, coarse, fine)
    # the lower-left block of dL is -dM, and nothing else of L varies
    assert np.abs(exact["dL"]).max() > 0 and not sasaki._frame_derivative(bundle, xis[0])[1][:, :n, :].any()


def test_the_lift_takes_the_base_jets_once_per_base_point(chart4, cfg):
    # the frames' Gamma takes order 3, whose dg and d2g Gamma reads, and the
    # shifts' partials read d3g from the memo: no order-2 pass besides
    base = METRICS["conformal-neutral4"](chart4).field
    calls = []

    def counted(points, order):
        calls.append((order, [q.coords.tobytes() for q in points]))
        return base.jets(points, order)

    g = MetricField(dataclasses.replace(base, jets=counted))
    bundle = build_tangent_bundle(g, triple_from_config("standard4", chart4), cfg=cfg)
    xis = [bundle.point(x, u) for x, u in [([0.1, -0.2, 0.3, 0.05], U), ([-0.6, 0.4, 0.0, 0.7], U)]]
    xis.append(bundle.point(xis[0].coords[:4], [0.9, 0.0, -0.5, 0.1]))  # a second fibre point
    for xi in xis:
        riemann(bundle.metric, xi, cfg)
    assert [order for order, _ in calls] == [3] * len(calls)
    seen = [key for _, keys in calls for key in keys]
    assert sorted(seen) == sorted({xi.coords[:4].tobytes() for xi in xis})


def test_the_lift_over_a_varying_exponent_metric_is_exact(chart4, cfg):
    # (2 + x1)^x2 eta has jets through the rule of exp(b log|a|), so its lift
    # meets its closed forms at roundoff, as over the space form
    f = "(2 + x1)^x2"
    rows = [[(f if r < 2 else f"-{f}") if r == c else "0" for c in range(4)] for r in range(4)]
    bundle = build_tangent_bundle(metric_from_config({"matrix": rows}, chart4), triple_from_config("standard4", chart4), cfg=cfg)
    for xi in sample_points(bundle.spec, 2, seed=5):
        assert check_nabla_j_oracle(bundle, xi) <= 1e-12
        assert check_connection_oracle(bundle, xi) <= 1e-12
        rep = check_bracket(bundle, np.eye(4)[0], np.eye(4)[1], xi)
        assert rep.max_residual <= 1e-12 and rep.hh_flipped_residual > 1e-2
