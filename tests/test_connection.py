"""Connection, curvature and derived operators against closed-form values.

The conformally scaled neutral metric g = e^{2 x1} eta is the workhorse: its
Christoffel symbols and curvature have simple exact expressions, which pins
every sign and index convention in one place.
"""

import dataclasses
import re

import numpy as np
import pytest

from paraquat import (
    DegenerateMetricError,
    EvaluationError,
    FdConfig,
    LocalBasisTriple,
    MetricField,
    OutOfDomainError,
    Point,
    StencilOutOfDomainError,
    TensorField,
    TransitionMap,
    ValidationError,
    apply_transition,
    build_tangent_bundle,
    central_difference,
    christoffel,
    constant_field,
    covariant_derivative_11,
    curvature_operator,
    eval_field,
    fd_gradient,
    is_flat,
    jacobian,
    riemann,
    sample_points,
)
from paraquat import connection, fields
from paraquat.catalog import (
    ETA4,
    METRICS,
    STRUCTURES,
    TRIPLES,
    expression_array,
    make_chart,
    metric_from_config,
    structure_from_config,
    triple_from_config,
)

from conftest import BENT_COMPONENTS, expression_map, reference_nabla, rotated4_matrices

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
    # nabla g = 0 for the metric's own connection:
    # (nabla_i g)_{jk} = d_i g_{jk} - Gamma^l_{ij} g_{lk} - Gamma^l_{ik} g_{jl}
    for p in pts4:
        gam = christoffel(conformal4, p, cfg)
        gp = eval_field(conformal4.field, p)
        D = (
            fd_gradient(conformal4.field, p, cfg)
            - np.einsum("lij,lk->ijk", gam, gp)
            - np.einsum("lik,jl->ijk", gam, gp)
        )
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


def test_nijenhuis_hand_case(chart4, cfg):
    # F with F^1_2 = x1 and F^2_1 = x2 (all else zero); at (1/2, 1/2, 0, 0)
    # the only nonvanishing components are N^1_12 = -N^1_21 = 1/2 and
    # N^2_12 = -N^2_21 = -1/2, worked out from
    # N(X,Y) = [FX,FY] - F[FX,Y] - F[X,FY] + F^2 [X,Y].
    rows = [["0", "x1", "0", "0"], ["x2", "0", "0", "0"], ["0"] * 4, ["0"] * 4]
    F = structure_from_config({"matrix": rows}, chart4).field
    p = Point(chart4, [0.5, 0.5, 0.0, 0.0])
    N = connection._nijenhuis_tensor(eval_field(F, p), F.jets([p], 1)[1][0])
    expected = np.zeros((4, 4, 4))
    expected[0, 0, 1] = 0.5
    expected[0, 1, 0] = -0.5
    expected[1, 0, 1] = -0.5
    expected[1, 1, 0] = 0.5
    assert np.abs(N - expected).max() < 1e-8


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
    """A fresh MetricField with the jets of e^{2 x1} eta, and the list its
    component callable appends to."""
    calls = []

    def counted(p):
        calls.append(p)
        return comps(p)

    jets = METRICS["conformal-neutral4"](chart).field.jets
    return MetricField(TensorField(chart, 0, 2, counted, "counted", jets=jets)), calls


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
    # the values do not depend on the step, but the stencil rule does: a
    # point half a fine step inside the stencils at the fine step (one deep
    # for Gamma, two for R) passes there and not at the coarse step,
    # memoised at the fine step or not
    evaluate = EVALUATIONS[what]
    g, calls = _counted_metric(chart4)
    p = Point(chart4, [1.0 - (1.5e-3 if what == "christoffel" else 2.5e-3)] + MEMO_POINT[1:])
    coarse, fine = FdConfig(step=2e-3), FdConfig(step=1e-3)
    at_fine = evaluate(g, p, fine)
    made = len(calls)
    with pytest.raises(StencilOutOfDomainError):
        evaluate(g, p, coarse)
    assert len(calls) == made
    fresh, _ = _counted_metric(chart4)
    assert at_fine.tobytes() == evaluate(fresh, p, fine).tobytes()
    q = Point(chart4, MEMO_POINT)
    at_coarse = evaluate(g, q, coarse)
    assert evaluate(g, q, fine) is not at_coarse
    assert evaluate(g, q, fine).tobytes() == at_coarse.tobytes()


@pytest.mark.parametrize("what", sorted(EVALUATIONS))
def test_memo_hit_still_rejects_a_point_of_another_chart(chart4, cfg, what):
    evaluate = EVALUATIONS[what]
    g, _ = _counted_metric(chart4)
    evaluate(g, Point(chart4, MEMO_POINT), cfg)
    other = make_chart(4, coords=("a", "b", "c", "d"))
    with pytest.raises(ValidationError, match="different charts"):
        evaluate(g, Point(other, MEMO_POINT), cfg)


# ------------------------------------------------------------ one-point reference
#
# Gamma and R as one point at a time: the metric's jets at that point alone,
# one inv and the einsums per point, under the stencil rule.  The engine
# batches all of this; it must agree bit for bit and error for error.  The
# central differences of one-point metric values, and of Gamma, are the
# reference the jets converge to.


def _first_kind(D):
    return np.einsum("...ilj->...lij", D) + np.einsum("...jli->...lij", D) - D


def _curvature(gam, dgam):
    return (
        np.einsum("iljk->lkij", dgam)
        - np.einsum("jlik->lkij", dgam)
        + np.einsum("lim,mjk->lkij", gam, gam)
        - np.einsum("ljm,mik->lkij", gam, gam)
    )


def reference_christoffel(g, p, cfg):
    ginv = np.linalg.inv(g.matrix(p))
    fields._require_stencils([p], cfg.step)
    return 0.5 * np.einsum("kl,lij->kij", ginv, _first_kind(g.field.jets([p], 2)[1][0]))


def reference_riemann(g, p, cfg):
    gam = reference_christoffel(g, p, cfg)
    fields._require_stencils([p], cfg.step, depth=2)
    ginv = np.linalg.inv(g.matrix(p))
    _, D, H = (A[0] for A in g.field.jets([p], 2))
    dgam = -np.einsum("kp,mpq,qij->mkij", ginv, D, gam) + 0.5 * np.einsum("kl,mlij->mkij", ginv, _first_kind(H))
    return _curvature(gam, dgam)


def _one_by_one(f):
    return lambda qs: np.stack([f(q) for q in qs])


def fd_christoffel(g, p, cfg):
    ginv = np.linalg.inv(g.matrix(p))
    return 0.5 * np.einsum("kl,lij->kij", ginv, _first_kind(central_difference(_one_by_one(g.matrix), p, cfg)))


def fd_riemann(g, p, cfg):
    dgam = central_difference(_one_by_one(lambda q: fd_christoffel(g, q, cfg)), p, cfg)
    return _curvature(fd_christoffel(g, p, cfg), dgam)


REFERENCE = {
    "matrix": lambda g, p, cfg: g.matrix(p),
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
def test_batched_christoffel_and_riemann_equal_the_one_point_formula_bit_for_bit(chart4, cfg, name):
    build, coords = BIT_METRICS[name]
    g = build(chart4)
    ref = MetricField(g.field)  # same components, its own memo
    for c in coords:
        p = Point(g.chart, c)
        assert christoffel(g, p, cfg).tobytes() == reference_christoffel(ref, p, cfg).tobytes()
        R = riemann(g, p, cfg)
        assert R.tobytes() == reference_riemann(ref, p, cfg).tobytes()
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


def test_expression_metric_christoffel_and_riemann_are_the_conformal_closed_form(chart4, cfg):
    # an expression metric takes Gamma and R from exact jets, so they match
    # the closed form for e^{2f} eta to roundoff, not to O(h^2)
    g = _expression_metric(chart4)
    assert g.field.jets is not None
    for c in [MEMO_POINT, [0.5, -0.3, 0.2, -0.8]]:
        p = Point(chart4, c)
        gam, riem = conformal_closed_form(*_sweep_f_derivatives(np.array(c)))
        assert np.abs(christoffel(g, p, cfg) - gam).max() < 1e-12
        assert np.abs(riemann(g, p, cfg) - riem).max() < 1e-12
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
    as the parallel-witness check builds it: a field with a batch form and
    jets from the transition's and rotated4's."""
    values, jets = expression_array(rows, (3, 3), chart, "transition")
    s = TransitionMap(lambda p: values(p.coords), label="transition", jets=jets)
    return apply_transition(TRIPLES["rotated4"](chart), s).j1


UNDOING = [["cos(x1)", "-sin(x1)", "0"], ["sin(x1)", "cos(x1)", "0"], ["0", "0", "1"]]
TURNING = [["1 + 0.3*sin(x2)", "x1", "0"], ["0", "cos(x3)", "0.2*x4"], ["0", "0", "exp(0.1*x1)"]]
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
        exact = [np.stack([EVALUATIONS[kind](g, p, FdConfig()) for p in pts])]
        return exact, lambda h: [np.stack([FD_EVALUATIONS[kind](MetricField(g.field), p, FdConfig(h)) for p in pts])]
    if kind == "df":  # the differential of an expression map, from its jets
        f = expression_map(make_chart(8), chart4, BENT_COMPONENTS, name)
        pts = sample_points(f.source, 3, seed=2)
        exact = [np.stack([jacobian(f, p, FdConfig()) for p in pts])]
        values = lambda qs: [f.components(q.coords) for q in qs]
        return exact, lambda h: [central_difference(values, pts, FdConfig(h)).transpose(0, 2, 1)]
    build, top = CONVERGENCE_FIELDS[name]  # each jet order from the order below
    T = build()
    pts = sample_points(T.chart, 3, seed=2)
    orders = range(1, top + 1)
    below = lambda k: (lambda qs: fields.eval_batch(T, qs)) if k == 1 else (lambda qs: T.jets(qs, k - 1)[k - 1])
    return [T.jets(pts, k)[k] for k in orders], lambda h: [central_difference(below(k), pts, FdConfig(h)) for k in orders]


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


def test_jets_keep_the_stencil_rule(chart4, cfg):
    # exact jets read no stencil, yet Gamma needs its stencil, and R the
    # stencils nested two deep, inside the chart, as central differences of
    # g, and of those, do
    g = _expression_metric(chart4)
    ref = MetricField(g.field)
    stencils = {
        "christoffel": lambda p: central_difference(ref.matrices, p, cfg),
        "riemann": lambda p: central_difference(lambda qs: central_difference(ref.matrices, qs, cfg), p, cfg),
    }
    for what, x1 in [("christoffel", 1.0 - 0.5 * H), ("riemann", 1.0 - 1.5 * H)]:
        p = Point(chart4, [x1, 0.0, 0.0, 0.0])
        with pytest.raises(StencilOutOfDomainError) as expected:
            stencils[what](p)
        with pytest.raises(StencilOutOfDomainError) as got:
            EVALUATIONS[what](g, p, cfg)
        assert str(got.value) == str(expected.value)
        assert not _stored(g, "riem")
        assert _stored(g, "gamma") <= ({p.coords.tobytes()} if what == "riemann" else set())
    inside = Point(chart4, [1.0 - 2.5 * H, 0.0, 0.0, 0.0])
    _, riem = conformal_closed_form(*_sweep_f_derivatives(inside.coords))
    assert np.abs(riemann(g, inside, cfg) - riem).max() < 1e-12


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
    assert not any(v.flags.writeable for v in batch)
    assert g.matrices([q])[0] is g.matrix(q) is batch[0]
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

    def batch(qs):
        batches.append([q.coords.tolist() for q in qs])
        return [_conformal(q) for q in qs]

    g = MetricField(TensorField(chart4, 0, 2, _conformal, "conformal", batch=batch))
    p = Point(chart4, MEMO_POINT)
    q = p.shifted(1, 0.25)
    g.matrix(p)
    batch_values = g.matrices([q, p, q])
    assert batches == [[p.coords.tolist()], [q.coords.tolist()]]
    ref = MetricField(TensorField(chart4, 0, 2, _conformal, "conformal"))
    assert np.stack(batch_values).tobytes() == np.stack([ref.matrix(r) for r in (q, p, q)]).tobytes()
    far = p.shifted(0, 5.0)
    with pytest.raises(OutOfDomainError):
        g.matrices([p.shifted(2, 0.25), far])
    # the domain is tested before the batch form is called, and nothing is stored
    assert not any(far.coords.tolist() in b for b in batches)
    assert len(g._memo) == 2


def test_christoffel_batch_computes_a_repeated_centre_once(chart4, cfg):
    g, calls = _counted_metric(chart4)
    jets, centres = g.field.jets, []

    def counted(pts, order):
        centres.append(len(pts))
        return jets(pts, order)

    g = MetricField(dataclasses.replace(g.field, jets=counted))
    p = Point(chart4, MEMO_POINT)
    first, again = connection._christoffels(g, [p, p], cfg)
    assert centres == [1]
    assert len(calls) == 1  # the centre, once
    assert first is again is christoffel(g, p, cfg)
    assert centres == [1]


H = FdConfig().step
# an x1 coordinate two steps beyond MEMO_POINT's, on no stencil of it
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
    "Gamma stencil off the box": (
        "christoffel", _conformal, [1.0 - 0.5 * H, 0.0, 0.0, 0.0], StencilOutOfDomainError,
    ),
    "R stencil off the box": (
        "riemann", _conformal, [1.0 - 1.5 * H, 0.0, 0.0, 0.0], StencilOutOfDomainError,
    ),
}


def _stored(g, kind):
    return {key[1] for key in g._memo if key[0] == kind}


@pytest.mark.parametrize("case", sorted(RAISING))
def test_memo_stores_nothing_when_an_evaluation_raises(chart4, cfg, case):
    what, comps, coords, error = RAISING[case]
    g, _ = _counted_metric(chart4, comps)
    p = Point(chart4, coords)
    ref, _ = _counted_metric(chart4, comps)
    with pytest.raises(error) as expected:
        REFERENCE[what](ref, p, cfg)
    for _ in range(2):
        with pytest.raises(error) as got:
            EVALUATIONS[what](g, p, cfg)
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


def test_christoffel_batch_raises_what_its_first_failing_centre_raises_alone(chart4, cfg):
    # the first centre fails on its stencil, the later one at the centre,
    # which the batch evaluates first
    first = Point(chart4, [1.0 - 0.5 * H] + MEMO_POINT[1:])
    later = Point(chart4, MEMO_POINT).shifted(1, 0.25)

    def comps(p):
        if p.coords[1] > MEMO_POINT[1] + 0.1:
            return ETA + np.triu(np.ones((4, 4)), 1)
        return _conformal(p)

    g, _ = _counted_metric(chart4, comps)
    ref, _ = _counted_metric(chart4, comps)
    with pytest.raises(StencilOutOfDomainError) as expected:
        christoffel(ref, first, cfg)
    with pytest.raises(ValidationError, match="not symmetric"):
        christoffel(ref, later, cfg)
    with pytest.raises(StencilOutOfDomainError) as got:
        connection._christoffels(g, [first, later], cfg)
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
def test_batched_nabla_is_the_one_point_formula_bit_for_bit(chart4, cfg, name):
    metric, field = NABLA_CASES[name]
    g, T = metric(chart4), field(chart4)
    pts = [Point(chart4, c) for c in NABLA_POINTS]
    batch = connection._covariant_derivatives(g, T, pts, cfg)
    for p, D in zip(pts, batch):
        _assert_same_bits(D, reference_nabla(g, T, p, cfg))
        assert not D.flags.writeable
        assert covariant_derivative_11(g, T, Point(chart4, p.coords), cfg) is D
    assert max(np.abs(D).max() for D in batch) > 0 or name == "constant over neutral4"


@pytest.mark.parametrize("triple", ["standard4", "rotated4"])
def test_batched_nabla_of_a_lifted_member_is_the_one_point_formula_bit_for_bit(chart4, cfg, triple):
    # the Sasaki lift over conformal-neutral4: lifted members of a constant
    # (standard4) or a turning (rotated4) base member, on the 8-dim lifted
    # metric
    base = METRICS["conformal-neutral4"](chart4)
    bundle = build_tangent_bundle(base, TRIPLES[triple](chart4), cfg=cfg)
    T = bundle.triple.j2
    pts = [bundle.point(x, u) for x, u in [(MEMO_POINT, [0.2, -0.1, 0.15, 0.3]), ([-0.6, 0.4, 0.0, 0.7], [0.0, 0.5, -0.4, 0.1])]]
    for p, D in zip(pts, connection._covariant_derivatives(bundle.metric, T, pts, cfg)):
        _assert_same_bits(D, reference_nabla(bundle.metric, T, p, cfg))


def test_nabla_batch_raises_what_its_first_failing_point_raises_alone_and_stores_nothing(chart4, cfg):
    # the field is not finite at the second point, the metric degenerate at
    # the third, which the batch's Gamma finds before it evaluates the field
    def comps(p):
        return _degenerate(p) if p.coords[2] > 0.5 else _conformal(p)

    T = structure_from_config({"matrix": [["x1/(x2 - 0.7)"] * 4] * 4}, chart4).field
    pts = [Point(chart4, MEMO_POINT), Point(chart4, [0.0, 0.7, 0.0, 0.0]), Point(chart4, [0.0, 0.0, 0.7, 0.0])]
    for batch, alone in ((connection._covariant_derivatives, covariant_derivative_11), (connection._gradients, connection._gradient)):
        ref, _ = _counted_metric(chart4, comps)
        with pytest.raises(EvaluationError) as expected:
            alone(ref, T, pts[1], cfg)
        g, _ = _counted_metric(chart4, comps)
        with pytest.raises(EvaluationError) as got:
            batch(g, T, pts, cfg)
        assert str(got.value) == str(expected.value)
        assert not [key for key in g._memo if key[0] in ("gamma", ("nabla", T), ("d", T))]


def test_gradient_batch_raises_what_its_first_failing_point_raises_alone(chart4, cfg):
    # a field with jets: the second point's stencil leaves the box, and the
    # third lies on another chart, which the batch checks first
    T = triple_from_config({"matrices": rotated4_matrices()}, chart4).j1
    other = make_chart(4, coords=("a", "b", "c", "d"))
    pts = [Point(chart4, MEMO_POINT), Point(chart4, [1.0 - 0.5 * H, 0.0, 0.0, 0.0]), Point(other, MEMO_POINT)]
    g = MetricField(METRICS["conformal-neutral4"](chart4).field)
    with pytest.raises(StencilOutOfDomainError) as expected:
        connection._gradient(MetricField(g.field), T, pts[1], cfg)
    with pytest.raises(StencilOutOfDomainError) as got:
        connection._gradients(g, T, pts, cfg)
    assert str(got.value) == str(expected.value)
    assert not [key for key in g._memo if key[0] == ("d", T)]


# ------------------------------------------------------------ no jets, no derivative


def _without_jets(f):
    return dataclasses.replace(f, jets=None)


NO_JETS = {
    # entry point: (a call that differentiates something without jets, the name it raises with)
    "christoffel": (
        lambda c, p, cfg: christoffel(MetricField(_without_jets(METRICS["conformal-neutral4"](c).field)), p, cfg),
        "conformal-neutral4",
    ),
    "covariant_derivative_11": (
        lambda c, p, cfg: covariant_derivative_11(METRICS["neutral4"](c), _without_jets(TRIPLES["rotated4"](c).j1), p, cfg),
        "J1'",
    ),
    "jacobian": (
        lambda c, p, cfg: jacobian(
            _without_jets(expression_map(make_chart(8), c, BENT_COMPONENTS, "bent")), Point(make_chart(8), MEMO_POINT * 2), cfg
        ),
        "bent",
    ),
    "build_tangent_bundle": (
        lambda c, p, cfg: build_tangent_bundle(
            METRICS["conformal-neutral4"](c), LocalBasisTriple(*(_without_jets(f) for f in TRIPLES["rotated4"](c).fields)), cfg=cfg
        ),
        "J1'",
    ),
}


@pytest.mark.parametrize("entry", sorted(NO_JETS))
def test_a_derivative_of_a_field_or_map_without_jets_raises_naming_it(chart4, cfg, entry):
    call, name = NO_JETS[entry]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} has no jets"):
        call(chart4, Point(chart4, MEMO_POINT), cfg)


@pytest.mark.parametrize("member, top", [("witness", 1), ("lifted member", 1), ("lifted metric", 2)])
def test_jets_beyond_their_top_order_raise_naming_the_field(chart4, cfg, member, top):
    if member == "witness":
        T = _witness_member(chart4, TURNING)
    else:
        bundle = build_tangent_bundle(METRICS["conformal-neutral4"](chart4), TRIPLES["standard4"](chart4), cfg=cfg)
        T = bundle.triple.j2 if member == "lifted member" else bundle.metric.field
    pts = sample_points(T.chart, 2, seed=3)
    assert len(T.jets(pts, top)) == top + 1
    with pytest.raises(ValidationError, match=f"^{re.escape(T.label)} has jets to order {top} only"):
        T.jets(pts, top + 1)
