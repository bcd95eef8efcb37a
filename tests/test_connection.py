"""Connection, curvature and derived operators against closed-form values.

The conformally scaled neutral metric g = e^{2 x1} eta is the workhorse: its
Christoffel symbols and curvature have simple exact expressions, which pins
every sign and index convention in one place.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from paraquat import (
    DegenerateMetricError,
    EvaluationError,
    LocalBasisTriple,
    MetricField,
    OutOfDomainError,
    Point,
    TensorField,
    TransitionMap,
    ValidationError,
    apply_transition,
    build_tangent_bundle,
    christoffel,
    constant_field,
    covariant_derivative_11,
    curvature_operator,
    eval_batch,
    fit_kahler_oneforms,
    jacobian,
    riemann,
    sample_points,
)
from paraquat import connection, exprlang, fields
from paraquat.catalog import (
    ETA4,
    METRICS,
    STRUCTURES,
    TRIPLES,
    expression_array,
    make_chart,
    metric_from_config,
    scenario_names,
    structure_from_config,
    triple_from_config,
)
from paraquat.scenario import build_context, load_scenario

from fd_reference import H, central_difference, fd_gradient
from conftest import BENT_COMPONENTS, expression_map, pointwise, reference_nabla, rotated4_matrices

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


def test_flat_christoffel_vanishes(flat4, pts4):
    for p in pts4:
        assert np.abs(christoffel(flat4, p)).max() < 1e-12


def test_conformal_christoffel_matches_exact(conformal4, pts4):
    exact = conformal_christoffel_exact()
    for p in pts4:
        got = christoffel(conformal4, p)
        assert np.abs(got - exact).max() < 1e-5


def test_christoffel_symmetric_lower_indices(conformal4, pts4):
    for p in pts4:
        gam = christoffel(conformal4, p)
        assert np.abs(gam - gam.transpose(0, 2, 1)).max() < 1e-10


def test_metric_compatibility(conformal4, pts4):
    # nabla g = 0 for the metric's own connection:
    # (nabla_i g)_{jk} = d_i g_{jk} - Gamma^l_{ij} g_{lk} - Gamma^l_{ik} g_{jl}
    for p in pts4:
        gam = christoffel(conformal4, p)
        gp = eval_batch(conformal4.field, [p])[0]
        D = (
            fd_gradient(conformal4.field, p, H)
            - np.einsum("lij,lk->ijk", gam, gp)
            - np.einsum("lik,jl->ijk", gam, gp)
        )
        assert np.abs(D).max() < 1e-5


def test_conformal_curvature_magnitude(conformal4):
    p = Point(conformal4.chart, [0.2, -0.3, 0.4, 0.1])
    R = riemann(conformal4, [p])[0]
    assert abs(float(np.abs(R).max()) - 1.0) < 1e-4


def test_riemann_antisymmetry_last_pair(conformal4, pts4):
    for p in pts4[:2]:
        R = riemann(conformal4, [p])[0]
        assert np.abs(R + R.transpose(0, 1, 3, 2)).max() < 1e-4


def test_first_bianchi(conformal4):
    p = Point(conformal4.chart, [0.1, 0.2, -0.2, 0.3])
    R = riemann(conformal4, [p])[0]  # R[l, k, i, j]
    cyc = R + R.transpose(0, 3, 1, 2) + R.transpose(0, 2, 3, 1)
    assert np.abs(cyc).max() < 1e-4


def test_curvature_operator_values(conformal4):
    # for g = e^{2 x1} eta the only curvature is in the planes not touching
    # x1, with unit strength: R(e2, e3) e3 = e2 at every point
    p = Point(conformal4.chart, [0.15, -0.1, 0.25, 0.0])
    R = riemann(conformal4, [p])[0]
    e = np.eye(4)
    assert np.allclose(curvature_operator(R, e[1], e[2], e[2]), e[1], atol=1e-4)
    # antisymmetric in the first two slots
    assert np.allclose(
        curvature_operator(R, e[1], e[2], e[2]),
        -curvature_operator(R, e[2], e[1], e[2]),
        atol=1e-10,
    )


def test_max_riemann_verdicts(flat4, conformal4, pts4):
    assert max(float(np.abs(R).max()) for R in riemann(flat4, pts4)) < 1e-3
    assert max(float(np.abs(R).max()) for R in riemann(conformal4, pts4[:2])) > 0.5


def test_signature(flat4, euclidean4, chart4):
    def signature(g, p):  # (n_plus, n_minus) eigenvalue counts of g at p
        ev = np.linalg.eigvalsh(g.matrix(p))
        return int((ev > 0).sum()), int((ev < 0).sum())

    p = Point(chart4, [0, 0, 0, 0])
    assert signature(flat4, p) == (2, 2)
    assert signature(euclidean4, p) == (4, 0)
    degenerate = MetricField(
        constant_field(chart4, 0, 2, np.diag([1.0, 1.0, 1.0, 0.0]), "deg")
    )
    with pytest.raises(DegenerateMetricError):
        signature(degenerate, p)


@pytest.mark.parametrize(
    "value, degenerate",
    [
        (np.diag([1e160, 1.0, -1.0, -1.0]), False),  # a row norm squared overflows
        (1e-100 * ETA, False),  # det underflows to 0
        (1e160 * np.ones((4, 4)), True),
        (np.diag([1e160, 1e160, -1.0, 0.0]), True),  # a zero row
        (1e-100 * np.diag([1.0, 1.0, -1.0, 0.0]), True),
    ],
    ids=["huge row", "tiny eta", "huge and singular", "huge with a zero row", "tiny with a zero row"],
)
def test_the_determinant_test_is_scale_free_at_extreme_scales(chart4, value, degenerate):
    # the Hadamard ratio of each nondegenerate value is exactly 1, and the
    # test reads it without a numpy warning
    g = MetricField(constant_field(chart4, 0, 2, value, "extreme"))
    p = Point(chart4, np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if degenerate:
            with pytest.raises(DegenerateMetricError):
                g.matrix(p)
        else:
            assert np.array_equal(g.matrix(p), value)


def test_the_symmetry_test_is_relative_to_the_largest_entry(chart4):
    p = Point(chart4, np.zeros(4))
    # far from symmetric, however small its entries
    tiny = 1e-100 * (ETA + np.triu(np.ones((4, 4)), 1))
    with pytest.raises(ValidationError, match="metric not symmetric"):
        MetricField(constant_field(chart4, 0, 2, tiny, "tiny")).matrix(p)
    # symmetric to roundoff: g12 and g21 differ by 1e-15 of the largest |entry|
    big = 1e6 * ETA
    big[0, 1] = 1e-9
    assert np.array_equal(MetricField(constant_field(chart4, 0, 2, big, "big")).matrix(p), big)


def test_nijenhuis_hand_case(chart4):
    # F with F^1_2 = x1 and F^2_1 = x2 (all else zero); at (1/2, 1/2, 0, 0)
    # the only nonvanishing components are N^1_12 = -N^1_21 = 1/2 and
    # N^2_12 = -N^2_21 = -1/2, worked out from
    # N(X,Y) = [FX,FY] - F[FX,Y] - F[X,FY] + F^2 [X,Y].
    rows = [["0", "x1", "0", "0"], ["x2", "0", "0", "0"], ["0"] * 4, ["0"] * 4]
    F = structure_from_config({"matrix": rows}, chart4).field
    p = Point(chart4, [0.5, 0.5, 0.0, 0.0])
    N = connection._nijenhuis_tensor(eval_batch(F, [p])[0], F.jets([p], 1)[1][0])
    expected = np.zeros((4, 4, 4))
    expected[0, 0, 1] = 0.5
    expected[0, 1, 0] = -0.5
    expected[1, 0, 1] = -0.5
    expected[1, 1, 0] = 0.5
    assert np.abs(N - expected).max() < 1e-8


def test_covariant_derivative_11_leibniz_against_parts(conformal4, chart4):
    # nabla of the identity (1,1) field must vanish for any metric connection
    eye = constant_field(chart4, 1, 1, np.eye(4), "id")
    p = Point(chart4, [0.2, 0.1, -0.3, 0.05])
    D = covariant_derivative_11(conformal4, eye, [p])[0]
    assert np.abs(D).max() < 1e-10


# ------------------------------------------------------------------ memo

MEMO_POINT = [0.1, -0.2, 0.3, 0.05]


def _conformal(p):
    return np.exp(2.0 * p.coords[0]) * ETA


def _counted_metric(chart, comps=_conformal):
    """A fresh MetricField with the jets of e^{2 x1} eta, and the list its
    component callable appends to."""
    calls = []

    def counted(ps):
        calls.extend(ps)
        return [comps(p) for p in ps]

    jets = METRICS["conformal-neutral4"](chart).field.jets
    return MetricField(TensorField(chart, 0, 2, counted, "counted", jets=jets)), calls


EVALUATIONS = {
    "matrix": lambda g, p: g.matrix(p),
    "christoffel": christoffel,
    "riemann": lambda g, p: riemann(g, [p])[0],
}


@pytest.mark.parametrize("what", sorted(EVALUATIONS))
def test_memo_hit_is_a_fresh_copy_and_skips_the_components(chart4, what):
    evaluate = EVALUATIONS[what]
    g, calls = _counted_metric(chart4)
    p = Point(chart4, MEMO_POINT)
    first = evaluate(g, p)
    made = len(calls)
    assert made > 0
    again = evaluate(g, Point(chart4, MEMO_POINT))
    assert len(calls) == made
    assert again.tobytes() == first.tobytes()
    # the hit is the caller's own copy: writing into it leaves the memo clean
    again[(0,) * again.ndim] = np.nan
    assert evaluate(g, p).tobytes() == first.tobytes()
    assert len(calls) == made
    fresh, _ = _counted_metric(chart4)
    assert evaluate(fresh, p).tobytes() == first.tobytes()


def test_memo_never_freezes_the_callers_array(chart4):
    value = np.diag([2.0, 1.0, -1.0, -1.0])
    g, _ = _counted_metric(chart4, lambda p: value)
    p = Point(chart4, MEMO_POINT)
    assert g.matrix(p).tobytes() == value.tobytes()
    assert value.flags.writeable
    # the memo holds its own copy of the components
    value[0, 0] = 5.0
    assert g.matrix(p)[0, 0] == 2.0
    METRICS["neutral4"](chart4).matrix(p)
    assert ETA4.flags.writeable


@pytest.mark.parametrize("what", ["christoffel", "riemann"])
def test_memo_holds_one_value_per_point_and_no_step(chart4, what):
    # a key is (kind, coordinate bytes): a point half a step from the wall
    # is evaluated once and stored once, and a second call is a hit
    evaluate = EVALUATIONS[what]
    kind = "gamma" if what == "christoffel" else "riem"
    g, calls = _counted_metric(chart4)
    p = Point(chart4, [1.0 - 0.5 * H] + MEMO_POINT[1:])
    first = evaluate(g, p)
    made = len(calls)
    assert [key for key in g._memo if key[0] == kind] == [(kind, p.coords.tobytes())]
    assert evaluate(g, Point(chart4, p.coords)).tobytes() == first.tobytes()
    assert len(calls) == made
    fresh, _ = _counted_metric(chart4)
    assert evaluate(fresh, p).tobytes() == first.tobytes()


@pytest.mark.parametrize("what", sorted(EVALUATIONS))
def test_memo_hit_still_rejects_a_point_of_another_chart(chart4, what):
    evaluate = EVALUATIONS[what]
    g, _ = _counted_metric(chart4)
    evaluate(g, Point(chart4, MEMO_POINT))
    other = make_chart(4, coords=("a", "b", "c", "d"))
    with pytest.raises(ValidationError, match="different charts"):
        evaluate(g, Point(other, MEMO_POINT))


# ------------------------------------------------------------ one-point reference
#
# Gamma and R as one point at a time: the metric's jets at that point alone,
# one inv and the matrix products per point.  The engine
# batches all of this; it must agree bit for bit and error for error.  The
# central differences of one-point metric values, and of Gamma, are the
# reference the jets converge to.


def _first_kind(D):
    return np.einsum("...ilj->...lij", D) + np.einsum("...jli->...lij", D) - D


def _curvature(gam, dgam):
    # both Gamma Gamma terms from P[l, a, b, k] = Gamma^l_{am} Gamma^m_{bk}
    n = len(gam)
    P = (gam.reshape(n * n, n) @ gam.reshape(n, n * n)).reshape(n, n, n, n)
    return (
        np.einsum("iljk->lkij", dgam)
        - np.einsum("jlik->lkij", dgam)
        + P.transpose(0, 3, 1, 2)
        - P.transpose(0, 3, 2, 1)
    )


def _raise(ginv, T):
    """g^{kl} T[..., l, i, j], T flattened over (i, j)."""
    n = len(ginv)
    return (ginv @ T.reshape(T.shape[:-2] + (n * n,))).reshape(T.shape)


def reference_christoffel(g, p):
    ginv = np.linalg.inv(g.matrix(p))
    return 0.5 * _raise(ginv, _first_kind(g.field.jets([p], 2)[1][0]))


def reference_riemann(g, p):
    gam = reference_christoffel(g, p)
    ginv = np.linalg.inv(g.matrix(p))
    _, D, H = (A[0] for A in g.field.jets([p], 2))
    n = len(gam)
    # g^{kp} d_m g_{pq} Gamma^q_{ij} as two products, over p for each m,
    # then over q with Gamma flattened over (i, j)
    ginv_dg = ginv @ D
    dgam = -(ginv_dg.reshape(n * n, n) @ gam.reshape(n, n * n)).reshape(n, n, n, n) + 0.5 * _raise(ginv, _first_kind(H))
    return _curvature(gam, dgam)


def _one_by_one(f):
    return lambda qs: np.stack([f(q) for q in qs])


def fd_christoffel(g, p, h):
    ginv = np.linalg.inv(g.matrix(p))
    return 0.5 * _raise(ginv, _first_kind(central_difference(_one_by_one(g.matrix), p, h)))


def fd_riemann(g, p, h):
    dgam = central_difference(_one_by_one(lambda q: fd_christoffel(g, q, h)), p, h)
    return _curvature(fd_christoffel(g, p, h), dgam)


REFERENCE = {
    "matrix": lambda g, p: g.matrix(p),
    "christoffel": reference_christoffel,
    "riemann": reference_riemann,
}

SWEEP_F = "0.1 + (0.45)*x1 + (-0.5)*x2 + (0.55)*x3 + (-0.4)*x4 + (0.03)*sin(0.7*x2)*cos(0.9*x4)"


def _diagonal_rows(entries):
    return [[entries[r] if r == c else "0" for c in range(4)] for r in range(4)]


def _conformal_rows(f):
    return _diagonal_rows([f"exp(2*({f}))"] * 2 + [f"-exp(2*({f}))"] * 2)


def _expression_metric(chart):
    return metric_from_config({"matrix": _conformal_rows(SWEEP_F)}, chart)


def _sasaki_metric(chart):
    base = METRICS["conformal-neutral4"](chart)
    return build_tangent_bundle(base, TRIPLES["rotated4"](chart)).metric


BIT_METRICS = {
    # name: (metric builder on the 4-dim chart, sample points)
    "neutral4": (METRICS["neutral4"], [MEMO_POINT, [-0.6, 0.4, 0.0, 0.7]]),
    "conformal-neutral4": (METRICS["conformal-neutral4"], [MEMO_POINT, [-0.6, 0.4, 0.0, 0.7]]),
    "sasaki": (_sasaki_metric, [MEMO_POINT + [0.2, -0.1, 0.15, 0.3]]),
}


@pytest.mark.parametrize("name", sorted(BIT_METRICS))
def test_batched_christoffel_and_riemann_equal_the_one_point_formula_bit_for_bit(chart4, name):
    build, coords = BIT_METRICS[name]
    g = build(chart4)
    ref = MetricField(g.field)  # same components, its own memo
    for c in coords:
        p = Point(g.chart, c)
        assert christoffel(g, p).tobytes() == reference_christoffel(ref, p).tobytes()
        R = riemann(g, [p])[0]
        assert R.tobytes() == reference_riemann(ref, p).tobytes()
        assert np.abs(R).max() > 0 or name == "neutral4"


def _sweep_f_derivatives(x):
    """SWEEP_F's gradient and Hessian at x, by hand."""
    s2, c2 = np.sin(0.7 * x[1]), np.cos(0.7 * x[1])
    s4, c4 = np.sin(0.9 * x[3]), np.cos(0.9 * x[3])
    df = np.array([0.45, -0.5 + 0.03 * 0.7 * c2 * c4, 0.55, -0.4 - 0.03 * 0.9 * s2 * s4])
    H = np.zeros((4, 4))
    H[1, 1] = -0.03 * 0.49 * s2 * c4
    H[3, 3] = -0.03 * 0.81 * s2 * c4
    H[1, 3] = H[3, 1] = -0.03 * 0.63 * c2 * s4
    return df, H


def conformal_closed_form(df, H):
    """Gamma and R of g = e^{2f} eta from f's gradient and Hessian:
    Gamma^k_ij = delta^k_i f_j + delta^k_j f_i - eta_ij eta^{kl} f_l, and R
    from d_m Gamma^k_ij, which is the same with f_j, f_i, f_l replaced by
    the Hessian row f_jm, f_im, f_lm."""
    eye, up = np.eye(4), ETA @ df  # up[k] = eta^{kl} f_l (eta is its own inverse)
    gam = np.einsum("ki,j->kij", eye, df) + np.einsum("kj,i->kij", eye, df) - np.einsum("ij,k->kij", ETA, up)
    dgam = (  # dgam[m, k, i, j] = d_m Gamma^k_ij
        np.einsum("ki,jm->mkij", eye, H) + np.einsum("kj,im->mkij", eye, H)
        - np.einsum("ij,km->mkij", ETA, ETA @ H)
    )
    riem = (
        np.einsum("iljk->lkij", dgam) - np.einsum("jlik->lkij", dgam)
        + np.einsum("lim,mjk->lkij", gam, gam) - np.einsum("ljm,mik->lkij", gam, gam)
    )
    return gam, riem


def test_expression_metric_christoffel_and_riemann_are_the_conformal_closed_form(chart4):
    # an expression metric takes Gamma and R from exact jets, so they match
    # the closed form for e^{2f} eta to roundoff, not to O(h^2)
    g = _expression_metric(chart4)
    assert g.field.jets is not None
    for c in [MEMO_POINT, [0.5, -0.3, 0.2, -0.8]]:
        p = Point(chart4, c)
        gam, riem = conformal_closed_form(*_sweep_f_derivatives(np.array(c)))
        assert np.abs(christoffel(g, p) - gam).max() < 1e-12
        assert np.abs(riemann(g, [p])[0] - riem).max() < 1e-12
        assert np.abs(riem).max() > 0.1


SPACE_FORM = "1/(1 + (x1^2 + x2^2 - x3^2 - x4^2)/4)^2"
CONVERGENCE_METRICS = {
    # the neutral space form eta/(1 + eta(x, x)/4)^2, through '/' and '^'
    "space form": _diagonal_rows([SPACE_FORM] * 2 + [f"-{SPACE_FORM}"] * 2),
    # three expr-sweep metrics (benchmark seed 600, scenarios 0, 1 and 3),
    # each with a product sin(c x_i) cos(d x_j) of two coordinates
    "sweep-600-00": _conformal_rows(
        "0.1762 + (0.5265)*x1 + (-0.5914)*x2 + (-0.4781)*x3 + (0.4856)*x4 + (-0.0408)*sin(0.7781*x4)*cos(0.5052*x3)"
    ),
    "sweep-600-01": _conformal_rows(
        "-0.1516 + (-0.4236)*x1 + (-0.4086)*x2 + (-0.4930)*x3 + (-0.4863)*x4 + (0.0362)*sin(0.9093*x3)*cos(0.6413*x1)"
    ),
    "sweep-600-03": _conformal_rows(
        "0.0679 + (-0.5549)*x1 + (0.5563)*x2 + (-0.5309)*x3 + (-0.4126)*x4 + (0.0494)*sin(0.7818*x2)*cos(0.7703*x4)"
    ),
}


VARYING_EXPONENT = "(2 + x1)^x2"
CONVERGENCE_METRICS["varying exponent"] = _diagonal_rows([VARYING_EXPONENT] * 2 + [f"-{VARYING_EXPONENT}"] * 2)
FD_EVALUATIONS = {"christoffel": fd_christoffel, "riemann": fd_riemann}


def _witness_member(chart, rows):
    """Member J1 of rotated4 turned by the transition of expression ``rows``,
    as the parallel-witness check builds it: a field with jets from the
    transition's and rotated4's."""
    values, jets = expression_array(rows, (3, 3), chart, "transition")
    s = TransitionMap(lambda ps: values(np.array([q.coords for q in ps])), label="transition", jets=jets)
    return apply_transition(TRIPLES["rotated4"](chart), s).j1


UNDOING = [["cos(x1)", "-sin(x1)", "0"], ["sin(x1)", "cos(x1)", "0"], ["0", "0", "1"]]
TURNING = [["1 + 0.3*sin(x2)", "x1", "0"], ["0", "cos(x3)", "0.2*x4"], ["0", "0", "exp(0.1*x1)"]]


def _order_one_arrays(name):
    """(label, jets, points) of the expression arrays behind ``name``: a
    convergence or sweep metric, rotated4 as expression matrices with the
    witness transitions, or a shipped scenario's metric (of its base), map
    and witness transitions, at its sample points."""
    chart = make_chart(4)
    pts = sample_points(chart, 5, seed=11) + [Point(chart, MEMO_POINT)]
    if name in CONVERGENCE_METRICS:
        return [(name, expression_array(CONVERGENCE_METRICS[name], (4, 4), chart, name)[1], pts)]
    if name == "rotated4 matrices":
        return [(f"J{a + 1}", expression_array(m, (4, 4), chart, "J")[1], pts) for a, m in enumerate(rotated4_matrices())] + [
            (label, expression_array(rows, (3, 3), chart, label)[1], pts) for label, rows in (("undoing", UNDOING), ("turning", TURNING))
        ]
    config = load_scenario(name)
    ctx, geo = build_context(config, seed=7), config["geometry"]
    base = ctx.bundle.base_metric if ctx.bundle else ctx.metric
    xs = [ctx.bundle.base_point(q) for q in ctx.points] if ctx.bundle else ctx.points
    out = [("metric", base.field.jets, xs)]  # an expression metric, or a constant one
    if "submersion" in geo:
        components = geo["submersion"]["components"]
        out.append(("map", expression_array(components, (len(components),), ctx.chart, "map")[1], ctx.points))
    out += [
        ("witness", expression_array(spec["transition"], (3, 3), ctx.chart, "witness")[1], ctx.points)
        for spec in config["checks"] if spec["check"] == "parallel-witness"
    ]
    return out


@pytest.mark.parametrize("name", sorted(CONVERGENCE_METRICS) + ["rotated4 matrices"] + scenario_names())
def test_order_one_jets_build_no_hessian_and_keep_order_two_bits(name, monkeypatch):
    # V and D at order 1 are order 2's bit for bit, with no Hessian term
    # formed: the outer products behind every one of them raise here
    arrays = _order_one_arrays(name)
    expected = [jets(pts, 2)[:2] for _, jets, pts in arrays]
    monkeypatch.setattr(exprlang, "_outer", lambda a, b: pytest.fail("a Hessian term at order 1"))
    for (label, jets, pts), (V, D) in zip(arrays, expected):
        got = jets(pts, 1)
        assert len(got) == 2, label
        _assert_same_bits(got[0], V)
        _assert_same_bits(got[1], D)
CONVERGENCE_FIELDS = {
    # name: (a function making the field, highest jet order)
    "rotated4 J1": (lambda: TRIPLES["rotated4"](make_chart(4)).j1, 3),
    "rotated4 J2": (lambda: TRIPLES["rotated4"](make_chart(4)).j2, 3),
    "product8-rotated J1": (lambda: TRIPLES["product8-rotated"](make_chart(8)).j1, 3),
    "product8-fiber-rotated J2": (lambda: TRIPLES["product8-fiber-rotated"](make_chart(8)).j2, 3),
    "split8-rotated": (lambda: STRUCTURES["split8-rotated"](make_chart(8)).field, 3),
    "witness member": (lambda: _witness_member(make_chart(4), TURNING), 1),
    "varying exponent metric": (
        lambda: metric_from_config({"matrix": CONVERGENCE_METRICS["varying exponent"]}, make_chart(4)).field, 3,
    ),
}
CONVERGENCE_CASES = (
    [f"{what}-{name}" for what in ("christoffel", "riemann") for name in sorted(CONVERGENCE_METRICS)]
    + [f"jets-{name}" for name in sorted(CONVERGENCE_FIELDS)]
    + ["df-bent map"]
)


def _exact_and_fd(case):
    """The exact quantities of a convergence case, and a function of the step
    h giving their central-difference counterparts, in the same order."""
    kind, name = case.split("-", 1)
    chart4 = make_chart(4)
    if kind in EVALUATIONS:  # Gamma and R at three points
        g = metric_from_config({"matrix": CONVERGENCE_METRICS[name]}, chart4)
        pts = [Point(chart4, c) for c in (MEMO_POINT, [0.5, -0.3, 0.2, -0.8], [-0.7, 0.6, 0.4, -0.1])]
        exact = [np.stack([EVALUATIONS[kind](g, p) for p in pts])]
        return exact, lambda h: [np.stack([FD_EVALUATIONS[kind](MetricField(g.field), p, h) for p in pts])]
    if kind == "df":  # the differential of an expression map, from its jets
        f = expression_map(make_chart(8), chart4, BENT_COMPONENTS, name)
        pts = sample_points(f.source, 3, seed=2)
        exact = [np.stack([jacobian(f, [p])[0] for p in pts])]
        values = lambda qs: f.components(np.array([q.coords for q in qs]))
        return exact, lambda h: [central_difference(values, pts, h).transpose(0, 2, 1)]
    build, top = CONVERGENCE_FIELDS[name]  # each jet order from the order below
    T = build()
    pts = sample_points(T.chart, 3, seed=2)
    orders = range(1, top + 1)
    below = lambda k: (lambda qs: fields.eval_batch(T, qs)) if k == 1 else (lambda qs: T.jets(qs, k - 1)[k - 1])
    return [T.jets(pts, k)[k] for k in orders], lambda h: [central_difference(below(k), pts, h) for k in orders]


@pytest.mark.parametrize("case", CONVERGENCE_CASES)
def test_finite_differences_converge_to_the_jets_at_second_order(case):
    # central differences are O(h^2) away from the exact values, so halving
    # h divides their distance by 4: of g (for Gamma), of Gamma (for R), of
    # a field's jets of each order below (its values for the first) and of
    # a map's values (for df)
    exact, fd = _exact_and_fd(case)
    distance = [[np.abs(a - e).max() for a, e in zip(fd(h), exact)] for h in (1e-3, 5e-4)]
    for coarse, fine in zip(*distance):
        assert 1.8 <= np.log2(coarse / fine) <= 2.2, distance


@pytest.mark.parametrize("x1", [1.0 - 0.5 * H, 1.0])
def test_derivatives_within_a_step_of_the_wall_equal_those_on_a_wider_box(x1):
    # jets read the point alone, so Gamma, R, df and a fit evaluate half a
    # step from the wall, and on it, and carry the same bits as the same
    # fields on a box twice as wide, where the point is well inside
    near, wide = make_chart(4), make_chart(4, domain=[[-2.0, 2.0]] * 4)

    def derivatives(chart):
        g = _expression_metric(chart)
        T = TRIPLES["rotated4"](chart)
        source = make_chart(8, domain=chart.domain.tolist() * 2)
        f = expression_map(source, chart, BENT_COMPONENTS, "bent")
        p = Point(chart, [x1, -0.2, 0.3, 0.05])
        return [
            christoffel(g, p), riemann(g, [p])[0], fit_kahler_oneforms(g, T, [p]).omega[0],
            connection.covariant_derivatives(g, T, [p])[0],
            jacobian(f, [Point(source, [x1, -0.2, 0.3, 0.05, 0.1, -0.4, 0.2, 0.6])])[0],
        ]

    at_wall = derivatives(near)
    for a, b in zip(at_wall, derivatives(wide), strict=True):
        _assert_same_bits(a, b)
    _, riem = conformal_closed_form(*_sweep_f_derivatives(np.array([x1, -0.2, 0.3, 0.05])))
    assert np.abs(at_wall[1] - riem).max() < 1e-12


def test_matrices_is_matrix_per_point_and_evaluates_each_miss_once(chart4):
    g, calls = _counted_metric(chart4)
    p = Point(chart4, MEMO_POINT)
    q = p.shifted(1, 0.25)
    g.matrix(p)  # a hit in the batch below
    calls.clear()
    batch = g.matrices([q, p, q, p.shifted(0, -0.5)])
    assert [c.coords.tolist() for c in calls] == [q.coords.tolist(), p.shifted(0, -0.5).coords.tolist()]
    ref, _ = _counted_metric(chart4)
    assert np.stack(batch).tobytes() == np.stack(
        [ref.matrix(r) for r in (q, p, q, p.shifted(0, -0.5))]
    ).tobytes()
    assert batch.shape == (4, 4, 4)
    assert g.matrices([q])[0].tobytes() == g.matrix(q).tobytes() == batch[0].tobytes()
    assert len(calls) == 2
    good = p.shifted(2, 0.25)
    far = p.shifted(0, 5.0)  # outside the box: the whole batch raises
    with pytest.raises(OutOfDomainError):
        g.matrices([good, far])
    raising, _ = _counted_metric(chart4, _beyond_ring(_raising))
    with pytest.raises(EvaluationError, match="components fail"):
        raising.matrices([good, p.shifted(0, 0.5)])
    for metric in (g, raising):
        assert good.coords.tobytes() not in _stored(metric, "g")


def test_matrices_hands_the_distinct_misses_to_the_batch_form_in_one_call(chart4):
    batches = []

    def components(qs):
        batches.append([q.coords.tolist() for q in qs])
        return [_conformal(q) for q in qs]

    g = MetricField(TensorField(chart4, 0, 2, components, "conformal"))
    p = Point(chart4, MEMO_POINT)
    q = p.shifted(1, 0.25)
    g.matrix(p)
    batch_values = g.matrices([q, p, q])
    assert batches == [[p.coords.tolist()], [q.coords.tolist()]]
    ref = MetricField(TensorField(chart4, 0, 2, pointwise(_conformal), "conformal"))
    assert np.stack(batch_values).tobytes() == np.stack([ref.matrix(r) for r in (q, p, q)]).tobytes()
    far = p.shifted(0, 5.0)
    with pytest.raises(OutOfDomainError):
        g.matrices([p.shifted(2, 0.25), far])
    # the domain is tested before the components are called, and nothing is stored
    assert not any(far.coords.tolist() in b for b in batches)
    assert len(g._memo) == 2


def test_christoffel_batch_computes_a_repeated_centre_once(chart4):
    g, calls = _counted_metric(chart4)
    jets, centres = g.field.jets, []

    def counted(pts, order):
        centres.append(len(pts))
        return jets(pts, order)

    g = MetricField(dataclasses.replace(g.field, jets=counted))
    p = Point(chart4, MEMO_POINT)
    first, again = connection._christoffels(g, [p, p])
    assert centres == [1]
    assert len(calls) == 1  # the centre, once
    assert first.tobytes() == again.tobytes() == christoffel(g, p).tobytes()
    assert centres == [1]


# an x1 coordinate just beyond MEMO_POINT's, past which components or jets may fail
RING_X1 = MEMO_POINT[0] + 1.5 * H


def _beyond_ring(value, otherwise=_conformal):
    """Components that are value(p) where x1 > RING_X1, otherwise(p) elsewhere."""
    return lambda p: value(p) if p.coords[0] > RING_X1 else otherwise(p)


def _degenerate(p):
    return np.diag([0.0, 1.0, -1.0, -1.0])


def _raising(p):
    raise EvaluationError(f"components fail at {p}")


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
    "Gamma off the box": (
        "christoffel", _conformal, [1.0 + 0.5 * H, 0.0, 0.0, 0.0], OutOfDomainError,
    ),
    "R of a degenerate metric": (
        "riemann", lambda p: np.diag([p.coords[0], 1.0, -1.0, -1.0]), [0.0, 0.1, 0.2, 0.3],
        DegenerateMetricError,
    ),
}


def _stored(g, kind):
    return {key[1] for key in g._memo if key[0] == kind}


@pytest.mark.parametrize("case", sorted(RAISING))
def test_memo_stores_nothing_when_an_evaluation_raises(chart4, case):
    what, comps, coords, error = RAISING[case]
    g, _ = _counted_metric(chart4, comps)
    p = Point(chart4, coords)
    ref, _ = _counted_metric(chart4, comps)
    with pytest.raises(error) as expected:
        REFERENCE[what](ref, p)
    for _ in range(2):
        with pytest.raises(error) as got:
            EVALUATIONS[what](g, p)
        assert str(got.value) == str(expected.value)
    assert not _stored(g, "riem")
    if what == "matrix":
        assert p.coords.tobytes() not in _stored(g, "g")
    # Gamma may be stored at the centre of a failed R, never at a neighbour
    assert _stored(g, "gamma") <= ({p.coords.tobytes()} if what == "riemann" else set())


def test_matrices_raise_a_degenerate_point_before_a_later_point_off_the_box(chart4):
    # the stacked domain test finds the later point first; the batch still
    # raises what the earlier point raises alone
    g, _ = _counted_metric(chart4, lambda p: np.diag([p.coords[0], 1.0, -1.0, -1.0]))
    degenerate, off = Point(chart4, [0.0, 0.1, 0.2, 0.3]), Point(chart4, [0.5, 2.0, 0.0, 0.0])
    ref, _ = _counted_metric(chart4, lambda p: np.diag([p.coords[0], 1.0, -1.0, -1.0]))
    with pytest.raises(DegenerateMetricError) as expected:
        ref.matrix(degenerate)
    with pytest.raises(DegenerateMetricError) as got:
        g.matrices([degenerate, off])
    assert str(got.value) == str(expected.value)
    assert not g._memo


def _jets_failing_beyond_ring(g):
    """g with jets that raise EvaluationError at a point beyond RING_X1."""

    def jets(pts, order):
        for q in pts:
            if q.coords[0] > RING_X1:
                raise EvaluationError(f"jets fail at {q}")
        return g.field.jets(pts, order)

    return MetricField(dataclasses.replace(g.field, jets=jets))


def test_christoffel_batch_raises_what_its_first_failing_centre_raises_alone(chart4):
    # the first centre fails in its jets, the later one in its metric
    # value, which the batch evaluates first
    first = Point(chart4, [RING_X1 + 0.1] + MEMO_POINT[1:])
    later = Point(chart4, MEMO_POINT).shifted(1, 0.25)

    def comps(p):
        if p.coords[1] > MEMO_POINT[1] + 0.1:
            return ETA + np.triu(np.ones((4, 4)), 1)
        return _conformal(p)

    g = _jets_failing_beyond_ring(_counted_metric(chart4, comps)[0])
    ref = _jets_failing_beyond_ring(_counted_metric(chart4, comps)[0])
    with pytest.raises(EvaluationError) as expected:
        christoffel(ref, first)
    with pytest.raises(ValidationError, match="not symmetric"):
        christoffel(ref, later)
    with pytest.raises(EvaluationError) as got:
        connection._christoffels(g, [first, later])
    assert str(got.value) == str(expected.value)
    assert not g._memo


# ------------------------------------------------------------ batched nabla T


NABLA_CASES = {
    # name: (metric, (1,1) field) on the 4-dim chart, at the points of NABLA_POINTS
    "constant over neutral4": (METRICS["neutral4"], lambda c: TRIPLES["standard4"](c).j3),
    "constant over conformal-neutral4": (METRICS["conformal-neutral4"], lambda c: TRIPLES["standard4"](c).j1),
    "rotated4 over conformal-neutral4": (METRICS["conformal-neutral4"], lambda c: TRIPLES["rotated4"](c).j2),
    "expression over conformal-neutral4": (
        METRICS["conformal-neutral4"],
        lambda c: triple_from_config({"matrices": rotated4_matrices()}, c).j1,
    ),
    "witness over conformal-neutral4": (METRICS["conformal-neutral4"], lambda c: _witness_member(c, UNDOING)),
    "turned witness over conformal-neutral4": (METRICS["conformal-neutral4"], lambda c: _witness_member(c, TURNING)),
}
NABLA_POINTS = [MEMO_POINT, [-0.6, 0.4, 0.0, 0.7], [0.5, -0.3, 0.2, -0.8], [0.0, 0.0, 0.0, 0.0]]


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", sorted(NABLA_CASES))
def test_batched_nabla_is_the_one_point_formula_bit_for_bit(chart4, name):
    metric, field = NABLA_CASES[name]
    g, T = metric(chart4), field(chart4)
    pts = [Point(chart4, c) for c in NABLA_POINTS]
    batch = covariant_derivative_11(g, T, pts)
    for p, D in zip(pts, batch):
        _assert_same_bits(D, reference_nabla(g, T, p))
        _assert_same_bits(covariant_derivative_11(g, T, [Point(chart4, p.coords)])[0], D)
    assert max(np.abs(D).max() for D in batch) > 0 or name == "constant over neutral4"


@pytest.mark.parametrize("triple", ["standard4", "rotated4"])
def test_batched_nabla_of_a_lifted_member_is_the_one_point_formula_bit_for_bit(chart4, triple):
    # the Sasaki lift over conformal-neutral4: lifted members of a constant
    # (standard4) or a turning (rotated4) base member, on the 8-dim lifted
    # metric
    base = METRICS["conformal-neutral4"](chart4)
    bundle = build_tangent_bundle(base, TRIPLES[triple](chart4))
    T = bundle.triple.j2
    pts = [bundle.point(x, u) for x, u in [(MEMO_POINT, [0.2, -0.1, 0.15, 0.3]), ([-0.6, 0.4, 0.0, 0.7], [0.0, 0.5, -0.4, 0.1])]]
    for p, D in zip(pts, covariant_derivative_11(bundle.metric, T, pts)):
        _assert_same_bits(D, reference_nabla(bundle.metric, T, p))


def test_nabla_batch_raises_what_its_first_failing_point_raises_alone_and_stores_nothing(chart4):
    # the field is not finite at the second point, the metric degenerate at
    # the third, which the batch's Gamma finds before it evaluates the field
    def comps(p):
        return _degenerate(p) if p.coords[2] > 0.5 else _conformal(p)

    T = structure_from_config({"matrix": [["x1/(x2 - 0.7)"] * 4] * 4}, chart4).field
    pts = [Point(chart4, MEMO_POINT), Point(chart4, [0.0, 0.7, 0.0, 0.0]), Point(chart4, [0.0, 0.0, 0.7, 0.0])]
    for batch in (covariant_derivative_11, connection._gradients):
        ref, _ = _counted_metric(chart4, comps)
        with pytest.raises(EvaluationError) as expected:
            batch(ref, T, [pts[1]])
        g, _ = _counted_metric(chart4, comps)
        with pytest.raises(EvaluationError) as got:
            batch(g, T, pts)
        assert str(got.value) == str(expected.value)
        assert not [key for key in g._memo if key[0] in ("gamma", ("nabla", T), ("d", T))]


def test_gradient_batch_raises_what_its_first_failing_point_raises_alone(chart4):
    # a field with jets: the second point lies outside the box, and the
    # third on another chart, which the batch checks first
    T = triple_from_config({"matrices": rotated4_matrices()}, chart4).j1
    other = make_chart(4, coords=("a", "b", "c", "d"))
    pts = [Point(chart4, MEMO_POINT), Point(chart4, [1.0 + 0.5 * H, 0.0, 0.0, 0.0]), Point(other, MEMO_POINT)]
    g = MetricField(METRICS["conformal-neutral4"](chart4).field)
    with pytest.raises(OutOfDomainError) as expected:
        connection._gradients(MetricField(g.field), T, [pts[1]])
    with pytest.raises(OutOfDomainError) as got:
        connection._gradients(g, T, pts)
    assert str(got.value) == str(expected.value)
    assert not [key for key in g._memo if key[0] == ("d", T)]


# ------------------------------------------------------------ no jets, no derivative


def _without_jets(f):
    return dataclasses.replace(f, jets=None)


NO_JETS = {
    # entry point: (a call that differentiates something without jets, the name it raises with)
    "christoffel": (
        lambda c, p: christoffel(MetricField(_without_jets(METRICS["conformal-neutral4"](c).field)), p),
        "conformal-neutral4",
    ),
    "covariant_derivative_11": (
        lambda c, p: covariant_derivative_11(METRICS["neutral4"](c), _without_jets(TRIPLES["rotated4"](c).j1), [p]),
        "J1'",
    ),
    "jacobian": (
        lambda c, p: jacobian(
            _without_jets(expression_map(make_chart(8), c, BENT_COMPONENTS, "bent")), [Point(make_chart(8), MEMO_POINT * 2)]
        ),
        "bent",
    ),
    "build_tangent_bundle": (
        lambda c, p: build_tangent_bundle(
            METRICS["conformal-neutral4"](c), LocalBasisTriple(*(_without_jets(f) for f in TRIPLES["rotated4"](c).fields))
        ),
        "J1'",
    ),
}


@pytest.mark.parametrize("entry", sorted(NO_JETS))
def test_a_derivative_of_a_field_or_map_without_jets_raises_naming_it(chart4, entry):
    call, name = NO_JETS[entry]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} has no jets"):
        call(chart4, Point(chart4, MEMO_POINT))


@pytest.mark.parametrize("member, top", [("witness", 1), ("lifted member", 1), ("lifted metric", 2)])
def test_jets_beyond_their_top_order_raise_naming_the_field(chart4, member, top):
    if member == "witness":
        T = _witness_member(chart4, TURNING)
    else:
        bundle = build_tangent_bundle(METRICS["conformal-neutral4"](chart4), TRIPLES["standard4"](chart4))
        T = bundle.triple.j2 if member == "lifted member" else bundle.metric.field
    pts = sample_points(T.chart, 2, seed=3)
    assert len(T.jets(pts, top)) == top + 1
    with pytest.raises(ValidationError, match=f"^{re.escape(T.label)} has jets to order {top} only"):
        T.jets(pts, top + 1)
