"""Lifted metrics on tangent bundles and their closed-form oracles."""

import numpy as np
import pytest

from paraquat import (
    FdConfig,
    Point,
    PreconditionFailedError,
    StencilOutOfDomainError,
    TensorField,
    ValidationError,
    build_tangent_bundle,
    check_bracket,
    check_connection_oracle,
    check_nabla_j_oracle,
    check_structure_derivative_span,
    check_triple_algebra,
    christoffel,
    connection_shift,
    covariant_derivative_11,
    eval_field,
    fd_gradient,
    fit_kahler_oneforms,
    lift,
    lifted_field,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    signature,
    tangent_bundle_chart,
)
from paraquat import sasaki, structures
from paraquat.catalog import ETA4, METRICS, TRIPLES, make_chart


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


def test_bundle_chart_names(chart4):
    tb = tangent_bundle_chart(chart4)
    assert tb.coords == ("x1", "x2", "x3", "x4", "u1", "u2", "u3", "u4")
    assert tb.dim == 8


def test_bundle_chart_rejects_name_collision():
    base = make_chart(2, coords=["x1", "u1"])
    with pytest.raises(ValidationError):
        tangent_bundle_chart(base)


def test_connection_shift(flat4, conformal4, cfg):
    tb = tangent_bundle_chart(flat4.chart)
    xi = Point(tb, [0.1, -0.2, 0.3, 0.05, 0.2, -0.1, 0.15, 0.3])
    assert np.abs(connection_shift(flat4, xi, cfg)).max() < 1e-10
    assert np.abs(connection_shift(conformal4, xi, cfg) - conformal_shift_exact(xi)).max() < 1e-5


def test_horizontal_lift_u_part(conformal4, cfg):
    tb = tangent_bundle_chart(conformal4.chart)
    e1 = np.array([1.0, 0, 0, 0])
    xi = Point(tb, np.concatenate([np.zeros(4), e1]))
    lifted = lift("h", e1, connection_shift(conformal4, xi, cfg))
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
    assert signature(bundle.metric, xi) == (4, 4)


def test_bundle_rejects_non_hermitian_base(euclidean4, std_triple, cfg):
    with pytest.raises(PreconditionFailedError):
        build_tangent_bundle(euclidean4, std_triple, cfg=cfg)


def test_lifted_metric_on_frames(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    G = bundle.metric.matrix(xi)
    gx = conformal4.matrix(bundle.base_point(xi))
    M = connection_shift(conformal4, xi, cfg)
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
    assert np.allclose(bundle.fiber_vector(xi), u)


def test_connection_matches_oracle_flat(flat4, std_triple, cfg):
    bundle = build_tangent_bundle(flat4, std_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    assert check_connection_oracle(bundle, xi) < 1e-10


def test_connection_matches_oracle_conformal(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_connection_oracle(bundle, xi) < 1e-9


def test_oracle_accepts_position_dependent_field(conformal4, cfg):
    # the closed form is extension independent: feeding an x-dependent field
    # whose lift is differentiated directly must agree with it
    bundle = build_tangent_bundle(conformal4, TRIPLES["standard4"](conformal4.chart), cfg=cfg)
    base = conformal4.chart
    Y = TensorField(
        base, 1, 0, lambda p: np.array([p.coords[1], p.coords[0], 1 + p.coords[2], 0.0]), "Y"
    )
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    X = np.array([0.0, 1.0, 0.0, 0.0])
    from paraquat import christoffel

    gamG = christoffel(bundle.metric, xi, cfg)
    M = connection_shift(conformal4, xi, cfg)
    for ky in ("h", "v"):
        W = lifted_field(bundle, Y, ky)
        Wxi = eval_field(W, xi)
        dW = fd_gradient(W, xi, cfg)
        U = np.concatenate([X, -M @ X])
        fd = np.einsum("a,ak->k", U, dW) + np.einsum("kab,a,b->k", gamG, U, Wxi)
        closed = oracle_tilde_nabla(bundle, "h", X, ky, Y, xi)
        assert np.abs(fd - closed).max() < 1e-5


def test_nabla_j_matches_oracle(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_nabla_j_oracle(bundle, xi) < 1e-9


def test_structure_derivative_span_flat(flat4, std_triple, rot_triple, cfg):
    xi_coords = ([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    for T in (std_triple, rot_triple):
        bundle = build_tangent_bundle(flat4, T, cfg=cfg)
        xi = bundle.point(*xi_coords)
        assert check_structure_derivative_span(bundle, xi) < 1e-9


def test_structure_derivative_span_needs_flat_base(conformal4, std_triple, cfg):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    with pytest.raises(PreconditionFailedError):
        check_structure_derivative_span(bundle, xi)


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
    M = connection_shift(g, xi, cfg)
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
def shift_calls(monkeypatch):
    """Bundle points at which the bundle's frame asks for the shift M."""
    calls = []
    real = sasaki.connection_shift

    def counted(g, xi, cfg=FdConfig()):
        calls.append(xi.coords.tobytes())
        return real(g, xi, cfg)

    monkeypatch.setattr(sasaki, "connection_shift", counted)
    return calls


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


def test_repeated_bundle_point_reuses_its_frame(conformal4, std_triple, cfg, shift_calls):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    first = eval_field(bundle.triple.fields[0], xi)
    assert len(shift_calls) == 1
    again = eval_field(bundle.triple.fields[0], xi)
    for f in bundle.triple.fields[1:]:
        eval_field(f, xi)
    eval_field(bundle.metric.field, xi)
    assert len(shift_calls) == 1
    assert again is first
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0] = 0.0


def test_failed_lift_stores_nothing(conformal4, std_triple, cfg, shift_calls):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    # inside the box, but the base stencil of Gamma crosses the x1 wall
    xi = bundle.point([1.0 - cfg.step / 2, 0.0, 0.0, 0.0], [0.2, -0.1, 0.15, 0.3])
    for _ in range(2):
        with pytest.raises(StencilOutOfDomainError):
            eval_field(bundle.triple.fields[0], xi)
    assert len(shift_calls) == 2


def test_bundles_over_one_pair_share_no_memo(conformal4, std_triple, cfg, shift_calls):
    one = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    two = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = one.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    a = eval_field(one.triple.fields[2], xi)
    b = eval_field(two.triple.fields[2], Point(two.spec, xi.coords))
    assert len(shift_calls) == 2
    assert a is not b
    assert a.tobytes() == b.tobytes()


def test_h_lift_reads_the_frame_memo(conformal4, std_triple, cfg, shift_calls):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    X = np.array([0.3, -1.0, 0.5, 2.0])
    W = lifted_field(bundle, X, "h")
    first = eval_field(W, xi)
    assert len(shift_calls) == 1
    assert eval_field(W, xi).tobytes() == first.tobytes()
    eval_field(bundle.triple.fields[1], xi)  # the same frame serves the triple
    assert len(shift_calls) == 1
    M = connection_shift(conformal4, xi, cfg)  # the unwrapped function: not counted
    assert first.tobytes() == lift("h", X, M).tobytes()
    assert bundle.shift(xi).tobytes() == M.tobytes()


def _oracle_residuals_from_the_public_oracles(bundle, xi):
    """Both oracle checks written with the public one-call oracles, and with
    the derivatives of the lifted triple computed afresh, not read from its
    Kähler fit."""
    cfg = bundle.cfg
    n = bundle.base_dim
    e = np.eye(n)
    gamG = christoffel(bundle.metric, xi, cfg)
    M = bundle.shift(xi)
    conn = 0.0
    for ky in ("h", "v"):
        for Y in e:
            W = lifted_field(bundle, Y, ky)
            Wxi, dW = eval_field(W, xi), fd_gradient(W, xi, cfg)
            for kx in ("h", "v"):
                for X in e:
                    U = lift(kx, X, M)
                    fd = np.einsum("a,ak->k", U, dW) + np.einsum("kab,a,b->k", gamG, U, Wxi)
                    closed = oracle_tilde_nabla(bundle, kx, X, ky, Y, xi)
                    conn = max(conn, float(np.abs(fd - closed).max()))
    lifts = {k: lift(k, e, M) for k in ("h", "v")}
    nabla_j = 0.0
    for a in range(3):
        D = covariant_derivative_11(bundle.metric, bundle.triple.fields[a], xi, cfg)
        for kx in ("h", "v"):
            for i in range(n):
                matU = np.einsum("akj,a->kj", D, lifts[kx][:, i])
                for ky in ("h", "v"):
                    for j in range(n):
                        closed = oracle_tilde_nabla_J(bundle, a, kx, e[i], ky, e[j], xi)
                        nabla_j = max(nabla_j, float(np.abs(matU @ lifts[ky][:, j] - closed).max()))
    return conn, nabla_j


def test_oracle_checks_are_the_public_oracles_bit_for_bit(conformal4, rot_triple, cfg):
    bundle = build_tangent_bundle(conformal4, rot_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    conn, nabla_j = _oracle_residuals_from_the_public_oracles(bundle, xi)
    assert conn > 0 and nabla_j > 0
    assert check_connection_oracle(bundle, xi) == conn
    assert check_nabla_j_oracle(bundle, xi) == nabla_j


def test_oracle_checks_ask_for_the_shift_once_per_bundle_point(conformal4, std_triple, cfg, shift_calls):
    bundle = build_tangent_bundle(conformal4, std_triple, cfg=cfg)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    check_connection_oracle(bundle, xi)
    check_nabla_j_oracle(bundle, xi)
    assert shift_calls.count(xi.coords.tobytes()) == 1
    assert len(shift_calls) == len(set(shift_calls))


def test_lifted_derivatives_come_from_the_memoised_fit(chart4, rot_triple, cfg, monkeypatch):
    g = METRICS["neutral4"](chart4)  # a fresh memo: flat, so the span check runs
    bundle = build_tangent_bundle(g, rot_triple, cfg=cfg)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    fit_kahler_oneforms(bundle.metric, bundle.triple, xi, cfg)
    metrics = []
    real = covariant_derivative_11

    def counted(g, T, p, cfg=FdConfig()):
        metrics.append(g)
        return real(g, T, p, cfg)

    for module in (sasaki, structures):
        monkeypatch.setattr(module, "covariant_derivative_11", counted, raising=False)
    check_structure_derivative_span(bundle, xi)
    check_nabla_j_oracle(bundle, xi)
    assert not any(m is bundle.metric for m in metrics)
    # the base derivatives too: one fit at the base point serves both checks
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
