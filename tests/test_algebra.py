"""The tau-algebra of basis triples and transitions between them."""

import numpy as np
import pytest

from paraquat import (
    AlgebraReport,
    EvaluationError,
    LocalBasisTriple,
    Point,
    SingularTransitionError,
    TensorField,
    TransitionMap,
    ValidationError,
    apply_transition,
    check_triple_algebra,
    constant_field,
    algebra,
    sample_points,
)
from paraquat.algebra import CYCLIC, TAU
from paraquat.catalog import STD_J1, STD_J2, TRIPLES, make_chart
from paraquat.fields import eval_batch, eval_field


def test_standard_triple_algebra(std_triple, pts4):
    for p in pts4:
        rep = check_triple_algebra(std_triple, p)
        assert rep.max_residual < 1e-14
        assert rep.passed(1e-12)
        assert rep.gram_det == pytest.approx(64.0)


def test_rotated_triple_algebra(rot_triple, pts4):
    # pointwise rotation inside span(J1, J2) preserves all relations
    for p in pts4:
        assert check_triple_algebra(rot_triple, p).max_residual < 1e-12


def test_identity_triple_fails(chart4):
    eye = LocalBasisTriple(
        constant_field(chart4, 1, 1, np.eye(4), "I"),
        constant_field(chart4, 1, 1, np.eye(4), "I"),
        constant_field(chart4, 1, 1, np.eye(4), "I"),
    )
    rep = check_triple_algebra(eye, Point(chart4, [0, 0, 0, 0]))
    assert rep.anticommute_residual == pytest.approx(2.0)
    assert not rep.passed(1e-12)


ROTATE = TransitionMap(
    s=lambda p: np.array(
        [
            [np.cos(p.coords[0]), np.sin(p.coords[0]), 0],
            [-np.sin(p.coords[0]), np.cos(p.coords[0]), 0],
            [0, 0, 1],
        ]
    ),
    label="rotate12",
)


def test_apply_transition_reproduces_rotated(std_triple, rot_triple, pts4):
    built = apply_transition(std_triple, ROTATE, label="built")
    for p in pts4:
        assert np.abs(built.matrices(p) - rot_triple.matrices(p)).max() < 1e-12


def test_singular_transition_rejected(std_triple):
    bad = TransitionMap(s=lambda p: np.zeros((3, 3)), label="zero")
    with pytest.raises(SingularTransitionError):
        bad.matrix(Point(std_triple.chart, [0, 0, 0, 0]))
    wrong_shape = TransitionMap(s=lambda p: np.eye(2), label="2x2")
    with pytest.raises(ValidationError):
        wrong_shape.matrix(Point(std_triple.chart, [0, 0, 0, 0]))


def test_rotated_members_are_the_rotated_triple_bit_for_bit(rot_triple, pts4):
    from paraquat.algebra import doubled
    from paraquat.catalog import STD_J1, STD_J2, STD_J3, TRIPLES, make_chart

    product = TRIPLES["product8-rotated"](make_chart(8))
    for p in pts4:
        c, s = np.cos(p.coords[0]), np.sin(p.coords[0])
        expected = (c * STD_J1 + s * STD_J2, -s * STD_J1 + c * STD_J2, STD_J3)
        assert rot_triple.matrices(p).tobytes() == np.stack(expected).tobytes()
        q = Point(product.chart, np.concatenate([p.coords, p.coords]))
        assert product.matrices(q).tobytes() == np.stack([doubled(J) for J in expected]).tobytes()


def reference_algebra(triple, p):
    """check_triple_algebra at one point as the one-point code formed it."""
    J = triple.matrices(p)
    eye = np.eye(triple.chart.dim)
    sq = max(float(np.abs(J[a - 1] @ J[a - 1] + TAU[a - 1] * eye).max()) for a in (1, 2, 3))
    prod = max(float(np.abs(J[a - 1] @ J[b - 1] - TAU[c - 1] * J[c - 1]).max()) for (a, b, c) in CYCLIC)
    anti = max(float(np.abs(J[a - 1] @ J[b - 1] + J[b - 1] @ J[a - 1]).max()) for (a, b, c) in CYCLIC)
    det = float(np.linalg.det(np.einsum("aij,bij->ab", J, J)))
    return AlgebraReport(sq, prod, anti, det)


def _witness(triple):
    """triple turned by a position-dependent transition, as parallel-witness does."""
    return apply_transition(triple, TransitionMap(s=lambda p: ROTATE.s(p) @ np.diag([1.0, 2.0, 0.5]), label="w"))


@pytest.mark.parametrize("name", ["standard4", "rotated4", "witness", "product8-rotated"])
def test_batched_triple_algebra_is_the_one_point_formula_bit_for_bit(std_triple, rot_triple, pts4, name):
    chart8 = make_chart(8)
    triple = {
        "standard4": std_triple, "rotated4": rot_triple, "witness": _witness(rot_triple),
        "product8-rotated": TRIPLES["product8-rotated"](chart8),
    }[name]
    pts = pts4 if triple.chart.dim == 4 else sample_points(chart8, 4, seed=2)
    reps = algebra._triple_algebras(triple, pts + [pts[0]])
    assert reps == [reference_algebra(triple, p) for p in pts + [pts[0]]]
    assert [check_triple_algebra(triple, p) for p in pts] == reps[:-1]


def test_witness_members_batch_is_the_one_point_rotation_bit_for_bit(rot_triple, pts4):
    witness = _witness(rot_triple)
    for a, member in enumerate(witness.fields):
        assert member.batch is not None
        for p, value in zip(pts4, member.batch(pts4)):
            s = TransitionMap(s=lambda q: ROTATE.s(q) @ np.diag([1.0, 2.0, 0.5])).matrix(p)
            expected = np.einsum("b,bij->ij", s[a], rot_triple.matrices(p))
            assert value.tobytes() == expected.tobytes()
            assert eval_field(member, p).tobytes() == expected.tobytes()


def test_a_witness_batch_raises_what_its_first_failing_point_raises_alone(std_triple):
    # the transition is singular at the second point; the third lies off the
    # box, which the batch's stacked domain test finds first
    s = TransitionMap(s=lambda p: np.eye(3) * (1.0 if p.coords[0] >= 0 else 0.0), label="probe")
    member = apply_transition(std_triple, s).j1
    chart = std_triple.chart
    pts = [Point(chart, [0.1, 0.0, 0.0, 0.0]), Point(chart, [-0.2, 0.0, 0.0, 0.0]), Point(chart, [0.3, 1.5, 0.0, 0.0])]
    with pytest.raises(SingularTransitionError) as expected:
        eval_field(member, pts[1])
    with pytest.raises(SingularTransitionError) as got:
        eval_batch(member, pts)
    assert str(got.value) == str(expected.value)


def _nan_where(k, J):
    return lambda p: J * (np.nan if p.coords[k] > 0.5 else 1.0)


def _failing_members(std_triple):
    """standard4 with J1 not finite where x3 > 0.5 and J2 not finite where
    x2 > 0.5: a batch evaluates J1 at every point before J2 at any."""
    chart = std_triple.chart
    return LocalBasisTriple(
        TensorField(chart, 1, 1, _nan_where(2, STD_J1), "J1"), TensorField(chart, 1, 1, _nan_where(1, STD_J2), "J2"), std_triple.j3
    )


def test_a_triple_algebra_batch_raises_what_its_first_failing_point_raises_alone(std_triple):
    triple = _failing_members(std_triple)
    chart = triple.chart
    pts = [Point(chart, [0.1, 0.0, 0.0, 0.0]), Point(chart, [0.1, 0.7, 0.0, 0.0]), Point(chart, [0.1, 0.0, 0.7, 0.0])]
    with pytest.raises(EvaluationError, match="J2") as expected:
        check_triple_algebra(triple, pts[1])
    with pytest.raises(EvaluationError) as got:
        algebra._triple_algebras(triple, pts)
    assert str(got.value) == str(expected.value)
