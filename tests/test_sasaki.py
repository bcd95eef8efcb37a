"""Lifted metrics on tangent bundles and their closed-form oracles."""

import dataclasses
import re

import numpy as np
import pytest

from paraquat import (
    DegenerateMetricError,
    EvaluationError,
    MetricField,
    OutOfDomainError,
    ParaquatError,
    Point,
    PreconditionFailedError,
    ShapeError,
    TensorField,
    ValidationError,
    build_tangent_bundle,
    check_bracket,
    check_connection_oracle,
    check_nabla_j_oracle,
    check_triple_algebra,
    christoffel,
    constant_field,
    covariant_derivative_11,
    curvature_operator,
    eval_batch,
    fit_kahler_oneforms,
    lift,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    riemann,
    sample_points,
    tangent_bundle_chart,
)
from paraquat import connection, sasaki, structures
from paraquat.algebra import LocalBasisTriple, doubled
from paraquat.catalog import ETA4, METRICS, make_chart, metric_from_config, triple_from_config
from paraquat.scenario import build_context, load_scenario
from paraquat.structures import span_combination

from fd_reference import H, central_difference, fd_gradient, stencil
from conftest import SPACE_FORM_ROWS, rotated4_matrices, stacked


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


def reference_shift(g, xi):
    """M^k_i = Gamma^k_{ji}(x) u^j at xi = (x, u) as the one-point code
    formed it: Gamma at x from one ``christoffel`` call, then u times
    Gamma^k for each k."""
    n = g.chart.dim
    return xi.coords[n:] @ christoffel(g, Point(g.chart, xi.coords[:n]))


def memo_shift(bundle, xi):
    """M at xi from the bundle's shift memo."""
    return bundle.shift([xi])[0]


def test_bundle_chart_names(chart4):
    tb = tangent_bundle_chart(chart4)
    assert tb.coords == ("x1", "x2", "x3", "x4", "u1", "u2", "u3", "u4")
    assert tb.dim == 8


def test_bundle_chart_rejects_name_collision():
    base = make_chart(2, coords=["x1", "u1"])
    with pytest.raises(ValidationError):
        tangent_bundle_chart(base)


def test_connection_shift(flat4, conformal4, std_triple):
    flat, conformal = (build_tangent_bundle(g, std_triple) for g in (flat4, conformal4))
    x, u = [0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]
    assert np.abs(memo_shift(flat, flat.point(x, u))).max() < 1e-10
    xi = conformal.point(x, u)
    assert np.abs(memo_shift(conformal, xi) - conformal_shift_exact(xi)).max() < 1e-5


def test_horizontal_lift_u_part(conformal4, std_triple):
    bundle = build_tangent_bundle(conformal4, std_triple)
    e1 = np.array([1.0, 0, 0, 0])
    xi = bundle.point(np.zeros(4), e1)
    lifted = lift("h", e1, memo_shift(bundle, xi))
    # at the origin with u = e1 the shift matrix is the identity
    assert np.abs(lifted[:4] - e1).max() < 1e-5
    assert np.abs(lifted[4:] + e1).max() < 1e-5


def test_flat_bundle_metric_is_block_diagonal(flat4, std_triple):
    bundle = build_tangent_bundle(flat4, std_triple)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    G = bundle.metric.matrix(xi)
    expected = np.block(
        [[ETA4, np.zeros((4, 4))], [np.zeros((4, 4)), ETA4]]
    )
    assert np.abs(G - expected).max() < 1e-9
    ev = np.linalg.eigvalsh(G)
    assert ((ev > 0).sum(), (ev < 0).sum()) == (4, 4)


def test_bundle_rejects_non_hermitian_base(euclidean4, std_triple):
    with pytest.raises(PreconditionFailedError):
        build_tangent_bundle(euclidean4, std_triple)


def test_lifted_metric_on_frames(conformal4, std_triple):
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    G = bundle.metric.matrix(xi)
    gx = conformal4.matrix(bundle.base_point(xi))
    M = memo_shift(bundle, xi)
    H, V = lift("h", np.eye(4), M), lift("v", np.eye(4))
    assert np.abs(H.T @ G @ H - gx).max() < 1e-9
    assert np.abs(H.T @ G @ V).max() < 1e-9
    assert np.abs(V.T @ G @ V - gx).max() < 1e-9


def test_point_split_roundtrip(flat4, std_triple):
    bundle = build_tangent_bundle(flat4, std_triple)
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
def test_point_rejects_parts_of_the_wrong_length(flat4, std_triple, x, u, bad):
    # the total length alone is not enough: (3 + 5) coordinates must not
    # become a bundle point over the base point (0.1, 0.2, 0.3, 0.4)
    bundle = build_tangent_bundle(flat4, std_triple)
    with pytest.raises(ShapeError, match=re.escape(bad)):
        bundle.point(x, u)


def test_connection_matches_oracle_flat(flat4, std_triple):
    bundle = build_tangent_bundle(flat4, std_triple)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    assert check_connection_oracle(bundle, [xi])[0] < 1e-10


def test_connection_matches_oracle_conformal(conformal4, std_triple):
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_connection_oracle(bundle, [xi])[0] < 1e-9


def test_nabla_j_matches_oracle(conformal4, std_triple):
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_nabla_j_oracle(bundle, [xi])[0] < 1e-9


def test_oracle_over_a_flat_base_is_the_span_combination(flat4, std_triple, rot_triple):
    """Over a flat base the closed form reduces to the span combination of the
    lifted triple with the base 1-forms:

        nabla~_{X^h} Jt_1 = -w3(X) Jt_2 + w2(X) Jt_3   (cyclically for 2, 3)
        nabla~_{X^v} Jt_a = 0
    """
    n = 4
    for T in (std_triple, rot_triple):
        bundle = build_tangent_bundle(flat4, T)
        xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
        C = oracle_tilde_nabla_J(bundle, [xi])[0]
        L = sasaki._frames(bundle.shift([xi]))[0][0]
        omega = fit_kahler_oneforms(flat4, T, [bundle.base_point(xi)]).omega[0]
        Jt = bundle.triple.matrices(xi)
        for i in range(n):
            for a, predicted in enumerate(span_combination(omega[:, i], Jt)):
                assert np.abs(C[a, i] - predicted @ L).max() < 1e-12
        assert not C[:, n:].any()
        assert check_nabla_j_oracle(bundle, [xi])[0] < 1e-9


def test_bracket_flat(flat4, std_triple):
    bundle = build_tangent_bundle(flat4, std_triple)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    rep = check_bracket(bundle, [(np.eye(4)[0], np.eye(4)[1])], [xi])
    assert rep.max_residual.shape == (1, 1)
    assert rep.max_residual[0, 0] < 1e-9


def test_bracket_curvature_sign(conformal4, std_triple):
    # the vertical part of [X^h, Y^h] carries -R(X, Y)u; flipping the sign in
    # the identity must leave a residual of order |R| |u|
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point(np.zeros(4), [0.0, 0.0, 0.9, 0.0])
    rep = check_bracket(bundle, [(np.eye(4)[1], np.eye(4)[2])], [xi])
    assert rep.vv_residual[0, 0] < 1e-9
    assert rep.hv_residual[0, 0] < 1e-9
    assert rep.hh_residual[0, 0] < 1e-9
    assert rep.hh_flipped_residual[0, 0] > 1.0


def test_lifted_triple_algebra(conformal4, std_triple):
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    assert check_triple_algebra(bundle.triple, [xi]).max_residual[0] < 1e-12


def test_lifted_oneform_components(flat4, rot_triple):
    # over a flat rotated base the lifted forms are the pullbacks: the x1
    # component of the third form survives, every fiber component dies
    bundle = build_tangent_bundle(flat4, rot_triple)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    fit = fit_kahler_oneforms(bundle.metric, bundle.triple, [xi])
    assert fit.residual[0] < 1e-6
    expected = np.zeros((3, 8))
    expected[2, 0] = -1.0
    assert np.abs(fit.omega[0] - expected).max() < 1e-5


def _textbook_lift(g, T, xi):
    """G and the three Jt_a at xi from the np.block formulas of the module
    docstring, with no memo in between."""
    x = Point(g.chart, xi.coords[:4])
    M = reference_shift(g, xi)
    eye, zero = np.eye(4), np.zeros((4, 4))
    L = np.block([[eye, zero], [-M, eye]])
    Linv = np.block([[eye, zero], [M, eye]])
    gx = g.matrix(x)
    G = Linv.T @ np.block([[gx, zero], [zero, gx]]) @ Linv
    Jt = []
    for f in T.fields:
        Jx = eval_batch(f, [x])[0]
        Jt.append(L @ np.block([[Jx, zero], [zero, Jx]]) @ Linv)
    return G, Jt


@pytest.fixture
def shift_batches(monkeypatch):
    """The bundle points of each batch that computes new shifts, and of each
    that computes new shift partials, as lists of coordinate bytes, one list
    per batch, under the memo kinds "shift" and "shift partials"; and under
    "reads" the kind of every batch of ``sasaki``, hit or miss."""
    batches = {"shift": [], "shift partials": [], "reads": []}
    real = sasaki._memo_batch

    def counted(memo, chart, kind, points, compute):
        batches["reads"].append(kind)
        if kind in ("shift", "shift partials"):
            def recorded(fresh, compute=compute):
                batches[kind].append([q.coords.tobytes() for q in fresh])
                return compute(fresh)

            compute = recorded
        return real(memo, chart, kind, points, compute)

    monkeypatch.setattr(sasaki, "_memo_batch", counted)
    return batches


def test_memoised_lift_is_the_block_formula_bit_for_bit(conformal4, rot_triple):
    bundle = build_tangent_bundle(conformal4, rot_triple)
    for x, u in [
        ([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]),
        ([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1]),
        ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.9, 0.0]),
    ]:
        xi = bundle.point(x, u)
        G, Jt = _textbook_lift(conformal4, rot_triple, xi)
        for _ in range(2):  # a miss, then a hit
            assert eval_batch(bundle.metric.field, [xi])[0].tobytes() == G.tobytes()
            for f, expected in zip(bundle.triple.fields, Jt):
                assert eval_batch(f, [xi])[0].tobytes() == expected.tobytes()


def test_repeated_bundle_point_reuses_its_frame(conformal4, std_triple, shift_batches):
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    first = eval_batch(bundle.triple.fields[0], [xi])[0]
    assert shift_batches["shift"] == [[xi.coords.tobytes()]]
    again = eval_batch(bundle.triple.fields[0], [xi])[0]
    for f in bundle.triple.fields[1:]:
        eval_batch(f, [xi])[0]
    eval_batch(bundle.metric.field, [xi])[0]
    bundle.metric.matrices([xi])
    assert shift_batches["shift"] == [[xi.coords.tobytes()]]
    # the lifted triple's values, memoised, are a fresh stack per call
    memoised = bundle.triple.values([xi, xi])
    assert again.tobytes() == first.tobytes() == memoised[1, 0].tobytes()
    assert shift_batches["shift"] == [[xi.coords.tobytes()]]
    memoised[...] = np.nan
    assert bundle.triple.values([xi])[0, 0].tobytes() == first.tobytes()


def test_failed_lift_stores_nothing(chart4, std_triple, shift_batches):
    bundle = build_tangent_bundle(_spotted(chart4), std_triple)
    # inside the box, but the base metric is degenerate there, so its Gamma fails
    xi = bundle.point(FAILING_BASES["degenerate centre"], [0.2, -0.1, 0.15, 0.3])
    for _ in range(2):
        with pytest.raises(DegenerateMetricError):
            eval_batch(bundle.triple.fields[0], [xi])[0]
    assert shift_batches["shift"] == 2 * [[xi.coords.tobytes()]]


def test_bundles_over_one_pair_share_no_memo(conformal4, std_triple, shift_batches):
    one = build_tangent_bundle(conformal4, std_triple)
    two = build_tangent_bundle(conformal4, std_triple)
    xi = one.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    a = eval_batch(one.triple.fields[2], [xi])[0]
    b = eval_batch(two.triple.fields[2], [Point(two.spec, xi.coords)])[0]
    assert shift_batches["shift"] == 2 * [[xi.coords.tobytes()]]
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
    g, n = bundle.base_metric, bundle.base_dim
    e = np.eye(n)
    x, u = bundle.base_point(xi), xi.coords[n:]
    gam, R = christoffel(g, x), riemann(g, [x])[0]
    gamG = christoffel(bundle.metric, xi)
    M = memo_shift(bundle, xi)

    def lift_field(kind, Y):
        def jets(qs, order):
            dW = np.zeros((len(qs), 2 * n, 2 * n))
            if kind == "h":
                dW[:, :, n:] = -np.einsum("cAki,i->cAk", bundle.shift_partials(qs)[0], Y)
            return np.array([lift(kind, Y, memo_shift(bundle, q)) for q in qs]), dW

        return TensorField(
            bundle.spec, 1, 0, lambda qs: [lift(kind, Y, memo_shift(bundle, q)) for q in qs], f"{kind}-lift", jets=jets
        )

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
            Wxi, dW = eval_batch(W, [xi])[0], derivative(W)
            for kx in ("h", "v"):
                for i, X in enumerate(e):
                    U = lift(kx, X, M)
                    fd = np.einsum("a,ak->k", U, dW) + np.einsum("kab,a,b->k", gamG, U, Wxi)
                    closed_forms[kx, i, ky, j] = closed(kx, X, ky, Y)
                    conn = max(conn, float(np.abs(fd - closed_forms[kx, i, ky, j]).max()))

    def bracket(A, B):
        return np.einsum("m,mk->k", eval_batch(A, [xi])[0], derivative(B)) - np.einsum(
            "m,mk->k", eval_batch(B, [xi])[0], derivative(A)
        )

    brackets = []
    for i, j in pairs:
        X, Y = e[i], e[j]
        RXYu = curvature_operator(R, X, Y, u)
        hh = bracket(lift_field("h", X), lift_field("h", Y))
        # the vv, hv, hh and flipped hh residuals, in BracketReport's field order
        brackets.append([
            float(np.abs(bracket(lift_field("v", X), lift_field("v", Y))).max()),
            float(np.abs(
                bracket(lift_field("h", X), lift_field("v", Y)) - lift("v", np.einsum("kml,m,l->k", gam, X, Y))
            ).max()),
            float(np.abs(hh - lift("v", -RXYu)).max()),
            float(np.abs(hh - lift("v", +RXYu)).max()),
        ])
    return conn, closed_forms, brackets


def _nabla_j_reference(bundle, xi):
    """The nabla-J check with the derivatives of the lifted triple computed
    afresh, not read from its Kähler fit."""
    e = np.eye(bundle.base_dim)
    M = memo_shift(bundle, xi)
    L = np.hstack([lift("h", e, M), lift("v", e)])
    D = np.stack([covariant_derivative_11(bundle.metric, F, [xi])[0] for F in bundle.triple.fields])
    # L^T D_a[., k, .] L for each member a and component k
    lifted = (L.T @ D.transpose(0, 2, 1, 3) @ L).transpose(0, 2, 1, 3)
    return float(np.abs(lifted - oracle_tilde_nabla_J(bundle, [xi])[0]).max())


def test_oracle_checks_are_the_public_oracles(conformal4, rot_triple):
    """The frame forms of the closed form, of both checks and of the
    bracket residuals are the per-vector loops they replace, over the
    curved conformal-neutral4 base: the nabla-J check bit for bit, its
    reference being the same matrix products, and the rest to roundoff,
    1e-13 of their scale, since the frame forms multiply whole frames,
    whose sums BLAS orders otherwise than the loops' products of vectors."""
    bundle = build_tangent_bundle(MetricField(conformal4.field), rot_triple)
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
        assert check_nabla_j_oracle(bundle, [xi])[0] == nabla_j
        C = oracle_tilde_nabla(bundle, [xi])[0]
        tol = 1e-13 * np.abs(C).max()
        assert abs(check_connection_oracle(bundle, [xi])[0] - conn) <= tol
        offset = {"h": 0, "v": n}
        for (kx, i, ky, j), expected in closed_forms.items():
            assert np.abs(C[offset[kx] + i, :, offset[ky] + j] - expected).max() <= tol
        scale = max(rep[3] for rep in brackets)
        for (i, j), expected in zip(pairs, brackets):
            got = stacked(check_bracket(bundle, [(np.eye(n)[i], np.eye(n)[j])], [xi]))[0, 0]
            assert np.abs(got - expected).max() <= 1e-13 * scale
        assert scale > 1e-2


def test_bracket_rejects_what_its_lift_fields_rejected(conformal4, std_triple):
    """A point of another chart and a base vector of the wrong length raise
    their own errors before anything is computed, as evaluating the lift
    fields of the per-vector form did."""
    g = MetricField(conformal4.field)  # a fresh memo
    bundle = build_tangent_bundle(g, std_triple)
    built = set(g._memo)  # the metric values of the construction's spot checks
    e = np.eye(4)
    elsewhere = Point(make_chart(8), np.concatenate([[0.1, -0.2, 0.3, 0.05], U]))
    with pytest.raises(ValidationError, match="different charts"):
        check_bracket(bundle, [(e[0], e[1])], [elsewhere])
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    for X, Y in [(e[0, :3], e[1]), (e[0], e[1, :3])]:
        with pytest.raises(ShapeError, match=r"base vector has shape \(3,\)"):
            check_bracket(bundle, [(X, Y)], [xi])
    assert set(g._memo) == built


def test_oracle_checks_ask_for_the_shift_once_per_bundle_point(conformal4, std_triple, shift_batches):
    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    check_connection_oracle(bundle, [xi])
    check_nabla_j_oracle(bundle, [xi])
    for kind in ("shift", "shift partials"):
        framed = [key for batch in shift_batches[kind] for key in batch]
        assert framed.count(xi.coords.tobytes()) == 1, kind
        assert len(framed) == len(set(framed)), kind


def test_the_lifted_metric_jets_and_the_bracket_read_the_shift_once_per_call(conformal4, rot_triple, shift_batches):
    bundle = build_tangent_bundle(conformal4, rot_triple)
    xis = [bundle.point([0.1, -0.2, 0.3, 0.05], U), bundle.point([-0.6, 0.4, 0.0, 0.7], [0.9, 0.0, -0.5, 0.1])]
    reads, e = shift_batches["reads"], np.eye(4)
    for order in (1, 2, 2):  # cold, then warm memos
        reads.clear()
        bundle.metric.field.jets(xis, order)
        assert reads.count("shift") == 1 and reads.count("shift partials") == 1
    for _ in range(2):
        reads.clear()
        check_bracket(bundle, [(e[0], e[1]), (e[1], e[2])], xis)
        assert reads.count("shift") == 1 and reads.count("shift partials") == 1


def test_the_shifts_of_an_empty_list_are_empty(conformal4, rot_triple):
    bundle = build_tangent_bundle(conformal4, rot_triple)
    dM, d2M = bundle.shift_partials([])
    assert len(bundle.shift([])) == len(dM) == len(d2M) == 0
    # so are the reports of the checks that read them
    assert check_bracket(bundle, [(np.eye(4)[0], np.eye(4)[1])], []).max_residual.shape == (0, 1)
    assert check_triple_algebra(bundle.triple, []).max_residual.shape == (0,)


def test_lifted_derivatives_come_from_the_memoised_fit(chart4, rot_triple, monkeypatch):
    g = METRICS["conformal-neutral4"](chart4)  # a fresh memo
    bundle = build_tangent_bundle(g, rot_triple)
    xi = bundle.point([0.2, -0.1, 0.4, 0.0], [0.3, 0.1, -0.2, 0.5])
    fit_kahler_oneforms(bundle.metric, bundle.triple, [xi])
    calls = []
    real = LocalBasisTriple.jets

    def counted(T, pts):
        calls.append((T is rot_triple, len(pts)))
        return real(T, pts)

    monkeypatch.setattr(LocalBasisTriple, "jets", counted)
    check_nabla_j_oracle(bundle, [xi])
    # the lifted derivatives are the ones the fit memoised; the closed form
    # takes the base derivatives of all three members from one jets call
    assert calls == [(True, 1)]


def test_oracle_checks_leave_one_curvature_in_the_base_memo(chart4, std_triple):
    g = METRICS["conformal-neutral4"](chart4)
    bundle = build_tangent_bundle(g, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3])
    check_connection_oracle(bundle, [xi])
    check_nabla_j_oracle(bundle, [xi])
    x = bundle.base_point(xi)
    assert [key for key in g._memo if key[0] == "riem"] == [("riem", x.coords.tobytes())]
    assert not any(key[0] == "riem" for key in bundle.metric._memo)


# ------------------------------------------------------------ frame batches


def _with_stencil(xi):
    return [xi] + stencil([xi], H)


def test_shift_batch_is_connection_shift_bit_for_bit(conformal4, rot_triple, shift_batches, monkeypatch):
    g = MetricField(conformal4.field)  # a fresh memo
    bundle = build_tangent_bundle(g, rot_triple)
    computed = []
    real = connection._jets

    def counted(g, pts, order=2):
        computed.append((len(pts), order))
        return real(g, pts, order)

    # Gamma is computed from one jets call over the distinct base points
    monkeypatch.setattr(connection, "_jets", counted)
    pts = _with_stencil(bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]))
    G = bundle.metric.matrices(pts)
    # one shift batch over the 17 points, Gamma computed for their 9 distinct base points
    assert computed == [(9, 3)]
    assert shift_batches["shift"] == [[xi.coords.tobytes() for xi in pts]]
    M = bundle.shift(pts)
    assert computed == [(9, 3)] and len(shift_batches["shift"]) == 1
    frames = zip(*sasaki._frames(M), sasaki._base_points(conformal4.chart, pts))
    M[:] = np.nan  # the stack is the caller's: the memo keeps its own rows
    assert not np.isnan(bundle.shift(pts)).any()
    ref = MetricField(conformal4.field)
    for xi, (L, Linv, x), Gxi in zip(pts, frames, G):
        M = reference_shift(ref, xi)
        assert np.array_equal(Linv[4:, :4], M) and np.array_equal(L[4:, :4], -M)
        assert np.array_equal(L[:4], np.eye(8)[:4]) and np.array_equal(Linv[4:, 4:], np.eye(4))
        assert np.array_equal(x.coords, xi.coords[:4])
        assert np.array_equal(Gxi, _textbook_lift(ref, rot_triple, xi)[0])


def _spotted(chart4):
    """conformal-neutral4, degenerate where x2 lies in a window around 0.7,
    with conformal-neutral4's jets, which raise where x3 lies in the same
    window; the windows are the same in any list of points."""
    degenerate = np.diag([0.0, 1.0, -1.0, -1.0])
    real = METRICS["conformal-neutral4"](chart4).field

    def comps(ps):
        return [degenerate if 0.6995 < p.coords[1] < 0.7005 else real.components([p])[0] for p in ps]

    def jets(ps, order):
        for p in ps:
            if 0.6995 < p.coords[2] < 0.7005:
                raise EvaluationError(f"non-finite jets at {p}")
        return real.jets(ps, order)

    return MetricField(dataclasses.replace(real, components=comps, jets=jets, label="spotted"))


# base points of bundle points that fail, each for its own reason: the
# jets of Gamma, found after the metric values of the batch, or the metric
FAILING_BASES = {
    "jets not finite": [0.0, 0.0, 0.7, 0.0],
    "degenerate centre": [0.0, 0.7, 0.0, 0.0],
}
U = [0.2, -0.1, 0.15, 0.3]


@pytest.mark.parametrize(
    "order",
    [
        ("jets not finite", "degenerate centre"),
        ("degenerate centre", "jets not finite"),
    ],
)
def test_shift_batch_raises_what_its_first_failing_point_raises_alone(chart4, std_triple, shift_batches, order):
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple)
    built = set(g._memo)  # the spot checks of the construction
    good = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    first, later = (bundle.point(FAILING_BASES[name], U) for name in order)
    alone = build_tangent_bundle(MetricField(g.field), std_triple)
    with pytest.raises(ParaquatError) as expected:
        alone.shift([first])
    with pytest.raises(ParaquatError) as other:
        alone.shift([later])
    assert str(other.value) != str(expected.value)
    with pytest.raises(type(expected.value)) as got:
        bundle.shift([good, first, later])
    assert str(got.value) == str(expected.value)
    # nothing stored: no shift, no Gamma
    assert not [key for key in set(g._memo) - built if key[0] != "g"]
    shift_batches["shift"].clear()
    bundle.shift([good])
    assert shift_batches["shift"] == [[good.coords.tobytes()]]
    with pytest.raises(type(expected.value)) as got:
        bundle.metric.matrices([good, first, later])
    assert str(got.value) == str(expected.value)
    assert not bundle.metric._memo


def test_shift_batch_raises_a_failing_shift_before_a_later_point_off_the_box(chart4, std_triple):
    # the stacked domain test finds the later point first; the batch still
    # raises what the earlier point raises alone
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple)
    built = set(g._memo)  # the spot checks of the construction
    first = bundle.point(FAILING_BASES["degenerate centre"], U)
    off = bundle.point([0.1, -0.2, 0.3, 0.05], [3.0] + U[1:])
    alone = build_tangent_bundle(MetricField(g.field), std_triple)
    with pytest.raises(DegenerateMetricError) as expected:
        alone.shift([first])
    with pytest.raises(OutOfDomainError):
        alone.shift([off])
    for batch in (bundle.shift, bundle.metric.matrices):
        with pytest.raises(DegenerateMetricError) as got:
            batch([first, off])
        assert str(got.value) == str(expected.value)
    assert not [key for key in set(g._memo) - built if key[0] != "g"]
    assert not bundle.metric._memo


def test_lifted_metric_batch_raises_in_per_point_order(chart4, std_triple):
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple)
    # a point of another 8-dim chart, before a point whose frame fails
    elsewhere = Point(make_chart(8), np.concatenate([[0.1, -0.2, 0.6, 0.05], U]))
    later = bundle.point(FAILING_BASES["jets not finite"], U)
    alone = build_tangent_bundle(MetricField(g.field), std_triple)
    with pytest.raises(ValidationError, match="different charts"):
        alone.shift([elsewhere])
    with pytest.raises(ValidationError) as expected:
        alone.metric.matrix(elsewhere)
    with pytest.raises(EvaluationError):
        alone.metric.matrix(later)
    with pytest.raises(ValidationError) as got:
        bundle.metric.matrices([elsewhere, later])
    assert str(got.value) == str(expected.value)
    assert not bundle.metric._memo


def test_lifted_metric_of_a_small_base_metric_evaluates(chart4, std_triple):
    """The determinant test is scale-free: over g = 0.03 eta, |det g| = 8.1e-7
    and the lifted metric's |det G| = det(g)^2 = 6.6e-13 both pass, while a
    degenerate base metric still raises."""
    small = MetricField(constant_field(chart4, 0, 2, 0.03 * ETA4, "0.03 eta"))
    bundle = build_tangent_bundle(small, std_triple)
    xi = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    G = bundle.metric.matrix(xi)
    assert np.linalg.det(G) == pytest.approx(np.linalg.det(small.matrix(bundle.base_point(xi))) ** 2)
    assert abs(np.linalg.det(G)) < 1e-9
    assert check_connection_oracle(bundle, [xi])[0] < 1e-6
    degenerate = MetricField(constant_field(chart4, 0, 2, np.diag([0.0, 1.0, -1.0, -1.0]), "degenerate"))
    with pytest.raises(DegenerateMetricError):
        degenerate.matrix(Point(chart4, np.zeros(4)))


@pytest.mark.parametrize("where", ["another chart", "another chart at a memo hit", "fiber outside the box"])
def test_frame_form_oracles_reject_what_the_connection_check_rejects(conformal4, std_triple, where):
    """The shift memo is keyed by coordinates alone, so every shift batch
    checks the chart of each point, memo hits included, and the domain of
    each new one, with eval_batch's errors."""
    bundle = build_tangent_bundle(conformal4, std_triple)
    x = [0.1, -0.2, 0.3, 0.05]
    if where == "fiber outside the box":
        xi, error = bundle.point(x, [3.0, -0.1, 0.15, 0.3]), OutOfDomainError
    else:
        xi, error = Point(make_chart(8), np.concatenate([x, U])), ValidationError
        if where == "another chart at a memo hit":
            bundle.shift([bundle.point(x, U)])
    with pytest.raises(error) as expected:
        check_connection_oracle(bundle, [xi])
    for oracle in (oracle_tilde_nabla, oracle_tilde_nabla_J, lambda b, xis: memo_shift(b, xis[0])):
        with pytest.raises(error) as got:
            oracle(bundle, [xi])
        assert str(got.value) == str(expected.value)


def test_stacked_products_are_the_per_point_products_bit_for_bit():
    """The stacked matrix products of the shift, frame, metric and triple
    batches give each point's one-point product, bit for bit."""
    rng = np.random.default_rng(14)
    for n in range(2, 9):
        for _ in range(20):
            gam, u = rng.normal(size=(17, n, n, n)), rng.normal(size=(17, n))
            A, B, C = (rng.normal(size=(17, 2 * n, 2 * n)) for _ in range(3))
            M = sasaki._along_u(gam, u)
            G = A.transpose(0, 2, 1) @ B @ A
            J = A @ B @ C
            for p in range(17):
                assert M[p].tobytes() == (u[p] @ gam[p]).tobytes()
                assert G[p].tobytes() == (A[p].T @ B[p] @ A[p]).tobytes()
                assert J[p].tobytes() == (A[p] @ B[p] @ C[p]).tobytes()


def test_lifted_metric_batch_is_the_one_point_product_bit_for_bit(conformal4, rot_triple):
    bundle = build_tangent_bundle(MetricField(conformal4.field), rot_triple)
    pts = _with_stencil(bundle.point([0.1, -0.2, 0.3, 0.05], U))
    pts += _with_stencil(bundle.point([-0.6, 0.4, 0.0, 0.7], [0.9, -0.0, -0.5, 0.1])) + pts[:2]
    G = bundle.metric.matrices(pts)
    for xi, Gxi in zip(pts, G):
        Linv = sasaki._frames(bundle.shift([xi]))[1][0]
        assert Gxi.tobytes() == (Linv.T @ doubled(conformal4.matrix(bundle.base_point(xi))) @ Linv).tobytes()


def test_lifted_triple_batch_is_the_one_point_member_bit_for_bit(conformal4, rot_triple):
    """Jt_a from the stacked batch that fd_gradient hands a stencil equals
    the member evaluated one point at a time on a bundle of its own, and so
    does its derivative."""
    batched = build_tangent_bundle(conformal4, rot_triple)
    alone = build_tangent_bundle(conformal4, rot_triple)
    for x, u in [([0.1, -0.2, 0.3, 0.05], U), ([-0.6, 0.4, 0.0, 0.7], [0.9, -0.0, -0.5, 0.1])]:
        xi = batched.point(x, u)
        pts = _with_stencil(xi)
        for f, one, base in zip(batched.triple.fields, alone.triple.fields, rot_triple.fields):
            for q, v in zip(pts, f.components(pts)):
                assert v.tobytes() == eval_batch(one, [q])[0].tobytes()
                L, Linv = (F[0] for F in sasaki._frames(alone.shift([q])))
                y = alone.base_point(q)
                assert v.tobytes() == (L @ doubled(eval_batch(base, [y])[0]) @ Linv).tobytes()
            assert fd_gradient(f, xi, H).tobytes() == central_difference(
                lambda qs: [eval_batch(one, [q])[0] for q in qs], xi, H
            ).tobytes()


# --- exact jets through the lift ----------------------------------------------

EXACT_LIFTS = {
    # name: (base metric, triple) on the 4-dim chart; the inline triple's
    # members have jets of their own, so its lift's dJ_a blocks vary
    "space form": (lambda chart: metric_from_config({"matrix": SPACE_FORM_ROWS}, chart), "standard4"),
    "conformal-neutral4": (METRICS["conformal-neutral4"], "rotated4 inline"),
}


def _exact_lift(chart4, name):
    build, triple = EXACT_LIFTS[name]
    spec = {"matrices": rotated4_matrices()} if triple == "rotated4 inline" else triple
    return build_tangent_bundle(build(chart4), triple_from_config(spec, chart4))


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
        "dL": sasaki._frame_derivatives(bundle, xis, sasaki._frames(bundle.shift(xis))[0]),
    }
    frame = lambda qs: sasaki._frames(bundle.shift(qs))[0]
    distance = {key: [] for key in exact}
    for h in (2e-3, 1e-3):
        L = np.array(frame(xis))
        fd = {
            "dG": central_difference(G.components, xis, h),
            "d2G": central_difference(lambda qs: central_difference(G.components, qs, h), xis, h),
            "dJ": np.stack([central_difference(f.components, xis, h) for f in bundle.triple.fields]),
            "dL": np.einsum("caI,cakJ->cIkJ", L, central_difference(frame, xis, h)),
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
    assert np.abs(exact["dL"]).max() > 0 and not exact["dL"][:, :, :n, :].any()


def test_the_lift_takes_the_base_jets_once_per_base_point(chart4):
    # the shifts' Gamma takes order 3, whose dg and d2g Gamma reads, and the
    # shift partials read d3g from the memo: no order-2 pass besides
    base = METRICS["conformal-neutral4"](chart4).field
    calls = []

    def counted(points, order):
        calls.append((order, [q.coords.tobytes() for q in points]))
        return base.jets(points, order)

    g = MetricField(dataclasses.replace(base, jets=counted))
    bundle = build_tangent_bundle(g, triple_from_config("standard4", chart4))
    xis = [bundle.point(x, u) for x, u in [([0.1, -0.2, 0.3, 0.05], U), ([-0.6, 0.4, 0.0, 0.7], U)]]
    xis.append(bundle.point(xis[0].coords[:4], [0.9, 0.0, -0.5, 0.1]))  # a second fibre point
    for xi in xis:
        riemann(bundle.metric, [xi])
    assert [order for order, _ in calls] == [3] * len(calls)
    seen = [key for _, keys in calls for key in keys]
    assert sorted(seen) == sorted({xi.coords[:4].tobytes() for xi in xis})


def test_the_lift_over_a_varying_exponent_metric_is_exact(chart4):
    # (2 + x1)^x2 eta has jets through the rule of exp(b log|a|), so its lift
    # meets its closed forms at roundoff, as over the space form
    f = "(2 + x1)^x2"
    rows = [[(f if r < 2 else f"-{f}") if r == c else "0" for c in range(4)] for r in range(4)]
    bundle = build_tangent_bundle(metric_from_config({"matrix": rows}, chart4), triple_from_config("standard4", chart4))
    for xi in sample_points(bundle.spec, 2, seed=5):
        assert check_nabla_j_oracle(bundle, [xi])[0] <= 1e-12
        assert check_connection_oracle(bundle, [xi])[0] <= 1e-12
        rep = check_bracket(bundle, [(np.eye(4)[0], np.eye(4)[1])], [xi])
        assert rep.max_residual[0, 0] <= 1e-12 and rep.hh_flipped_residual[0, 0] > 1e-2


# ------------------------------------------------------- checks over a sample
#
# The Sasaki checks take their sample a batch at a time, and each point of a
# batch carries the bits it has in a list of one.

SASAKI_SCENARIOS = ("sasaki-over-flat", "sasaki-over-rotated", "sasaki-over-conformal")


def _scenario_bundle(name, seed):
    """(bundle, sample) of a shipped Sasaki scenario at seed, on fresh memos."""
    ctx = build_context(load_scenario(name), seed=seed)
    return ctx.bundle, ctx.points


@pytest.mark.parametrize("seed", [1, 6, 7, 600])
@pytest.mark.parametrize("name", SASAKI_SCENARIOS)
def test_sasaki_check_batches_are_their_one_point_forms_bit_for_bit(name, seed):
    bundle, pts = _scenario_bundle(name, seed)
    rng = np.random.default_rng(seed)
    e = np.eye(bundle.base_dim)
    # every pair of coordinate vectors, [i, i] included, and two of general vectors
    pairs = [(e[i], e[j]) for i in range(4) for j in range(4)] + [tuple(rng.normal(size=(2, 4))) for _ in range(2)]
    sample = pts + [pts[0]]  # a repeated point is computed once and handed out twice
    batches = {
        "consistency": sasaki.check_connection_oracle(bundle, sample),
        "nabla-j": sasaki.check_nabla_j_oracle(bundle, sample),
        "closed form": list(sasaki.oracle_tilde_nabla(bundle, sample)),
        "closed form of nabla J": list(sasaki.oracle_tilde_nabla_J(bundle, sample)),
        "brackets": stacked(sasaki.check_bracket(bundle, pairs, sample)),
    }
    alone, _ = _scenario_bundle(name, seed)
    for k, xi in enumerate(sample):
        xi = Point(alone.spec, xi.coords)
        assert batches["consistency"][k] == check_connection_oracle(alone, [xi])[0]
        assert batches["nabla-j"][k] == check_nabla_j_oracle(alone, [xi])[0]
        assert batches["closed form"][k].tobytes() == oracle_tilde_nabla(alone, [xi])[0].tobytes()
        assert batches["closed form of nabla J"][k].tobytes() == oracle_tilde_nabla_J(alone, [xi])[0].tobytes()
        assert batches["brackets"][k].tolist() == [stacked(check_bracket(alone, [(X, Y)], [xi]))[0, 0].tolist() for X, Y in pairs]


def test_sasaki_check_batches_read_the_base_in_one_batch_each(monkeypatch):
    """Over a sample of several bundle points, Gamma and R of the base, its
    Kähler fit and the lifted fit are each asked for once, with the whole
    sample."""
    bundle, pts = _scenario_bundle("sasaki-over-conformal", 7)
    bundle.shift(pts)  # their Gamma batch, which the shifts memoise
    calls = []

    def counted(name, where):  # where: the position of the points argument
        real = getattr(sasaki, name)

        def call(*args, **kwargs):
            calls.append((name, len(args[where])))
            return real(*args, **kwargs)

        monkeypatch.setattr(sasaki, name, call)

    for name, where in (("_christoffels", 1), ("riemann", 1), ("covariant_derivatives", 2)):
        counted(name, where)
    n = len(pts)
    sasaki.check_nabla_j_oracle(bundle, pts)
    # the lifted and the base derivatives of all three members; the shift
    # partials the lifted ones read ask for Gamma, memoised with the shifts
    assert [name for name, _ in calls].count("covariant_derivatives") == 2 and ("riemann", n) in calls
    assert {k for _, k in calls} == {n}
    calls.clear()
    sasaki.check_connection_oracle(bundle, pts)
    assert calls == [("_christoffels", n), ("_christoffels", n), ("riemann", n)]


# base points of bundle points whose Sasaki checks fail, each for its own
# reason: the jets of the frame's Gamma, the metric at the base point, or a
# bundle point off the box, which a batch finds before either
FAILING_CHECK_BASES = dict(FAILING_BASES, **{"off the box": [1.0 + 0.5 * H, 0.0, 0.0, 0.0]})

SASAKI_BATCHES = {
    "consistency": check_connection_oracle,
    "nabla-j": check_nabla_j_oracle,
    "closed form": oracle_tilde_nabla,
    "closed form of nabla J": oracle_tilde_nabla_J,
    "bracket": lambda bundle, xis: stacked(check_bracket(bundle, [(np.eye(4)[0], np.eye(4)[1])], xis)),
}


@pytest.mark.parametrize("form", sorted(SASAKI_BATCHES))
@pytest.mark.parametrize(
    "order",
    [
        ("jets not finite", "degenerate centre"),
        ("degenerate centre", "off the box"),
        ("off the box", "jets not finite"),
    ],
)
def test_a_sasaki_check_batch_raises_what_its_first_failing_point_raises_alone(chart4, std_triple, form, order):
    batch = SASAKI_BATCHES[form]
    g = _spotted(chart4)
    bundle = build_tangent_bundle(g, std_triple)
    good = bundle.point([0.1, -0.2, 0.3, 0.05], U)
    first, later = (bundle.point(FAILING_CHECK_BASES[name], U) for name in order)
    alone = build_tangent_bundle(MetricField(g.field), std_triple)
    with pytest.raises(ParaquatError) as expected:
        batch(alone, [first])
    with pytest.raises(ParaquatError) as other:
        batch(alone, [later])
    assert str(other.value) != str(expected.value)
    with pytest.raises(type(expected.value)) as got:
        batch(bundle, [good, first, later])
    assert str(got.value) == str(expected.value)
    # the points that check alone still check
    assert len(batch(bundle, [good])) == 1


def _spot_points(chart4):
    return sample_points(chart4, 3, seed=20)


def test_the_lift_precondition_names_its_first_failing_point(chart4, std_triple):
    """The spot checks run as one algebra and one hermitian batch and still
    name the first point that fails, with the message of the loop they
    replace."""
    spots = _spot_points(chart4)
    real = METRICS["neutral4"](chart4).field
    # euclidean, where the triple is not skew, at the second spot point only
    comps = lambda ps: [np.eye(4) if np.array_equal(p.coords, spots[1].coords) else real.components([p])[0] for p in ps]
    g = MetricField(dataclasses.replace(real, components=comps, label="bent"))
    alg, herm = check_triple_algebra(std_triple, [spots[1]]).max_residual[0], structures.check_hermitian(g, std_triple, [spots[1]])[0]
    with pytest.raises(PreconditionFailedError) as got:
        build_tangent_bundle(g, std_triple)
    assert str(got.value) == (
        f"base pair fails at {spots[1]}: algebra {alg:.3e}, hermitian {herm:.3e}"
    )


def test_the_lift_precondition_raises_what_the_first_spot_point_raises_first(chart4, std_triple):
    """A metric degenerate at the first spot point and a triple not finite at
    the second: the algebra batch meets the triple first, but the per-point
    order is algebra, then hermitian, at each point in turn, so the error is
    the metric's at the first point."""
    spots = _spot_points(chart4)
    real = METRICS["neutral4"](chart4).field
    at = lambda k, p: np.array_equal(p.coords, spots[k].coords)
    g = MetricField(dataclasses.replace(
        real, components=lambda ps: [np.diag([0.0, 1, -1, -1]) if at(0, p) else real.components([p])[0] for p in ps]
    ))
    j1 = std_triple.j1
    T = dataclasses.replace(std_triple, j1=dataclasses.replace(
        j1, components=lambda ps: [j1.components([p])[0] * (np.nan if at(1, p) else 1.0) for p in ps]
    ))
    with pytest.raises(ParaquatError) as algebra_first:
        check_triple_algebra(T, [spots[1]])
    with pytest.raises(DegenerateMetricError) as expected:
        structures.check_hermitian(MetricField(g.field), T, [spots[0]])
    with pytest.raises(DegenerateMetricError) as got:
        build_tangent_bundle(g, T)
    assert str(got.value) == str(expected.value) != str(algebra_first.value)
