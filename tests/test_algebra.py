"""The tau-algebra of basis triples and transitions between them."""

import dataclasses

import numpy as np
import pytest

from paraquat import (
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
    sample_points,
)
from paraquat.algebra import CYCLIC, TAU
from paraquat.catalog import STD_J1, STD_J2, TRIPLES, expression_array, make_chart
from paraquat.fields import eval_batch

from conftest import pointwise, stacked


def test_standard_triple_algebra(std_triple, pts4):
    rep = check_triple_algebra(std_triple, pts4)
    assert rep.max_residual.shape == (len(pts4),)
    assert rep.max_residual.max() < 1e-14
    assert rep.gram_det == pytest.approx([64.0] * len(pts4))


def test_rotated_triple_algebra(rot_triple, pts4):
    # pointwise rotation inside span(J1, J2) preserves all relations
    assert check_triple_algebra(rot_triple, pts4).max_residual.max() < 1e-12


def test_identity_triple_fails(chart4):
    eye = LocalBasisTriple(
        constant_field(chart4, 1, 1, np.eye(4), "I"),
        constant_field(chart4, 1, 1, np.eye(4), "I"),
        constant_field(chart4, 1, 1, np.eye(4), "I"),
    )
    rep = check_triple_algebra(eye, [Point(chart4, [0, 0, 0, 0])])
    assert rep.anticommute_residual[0] == pytest.approx(2.0)
    assert not rep.max_residual[0] < 1e-12


def _rotation(p):
    return np.array(
        [
            [np.cos(p.coords[0]), np.sin(p.coords[0]), 0],
            [-np.sin(p.coords[0]), np.cos(p.coords[0]), 0],
            [0, 0, 1],
        ]
    )


def _weighted_rotation(p):
    return _rotation(p) @ np.diag([1.0, 2.0, 0.5])


ROTATE = TransitionMap(s=pointwise(_rotation), label="rotate12")


def test_apply_transition_reproduces_rotated(std_triple, rot_triple, pts4):
    built = apply_transition(std_triple, ROTATE, label="built")
    for p in pts4:
        assert np.abs(built.matrices(p) - rot_triple.matrices(p)).max() < 1e-12


def test_singular_transition_rejected(std_triple):
    bad = TransitionMap(s=lambda ps: [np.zeros((3, 3))] * len(ps), label="zero")
    with pytest.raises(SingularTransitionError):
        bad.matrices([Point(std_triple.chart, [0, 0, 0, 0])])
    wrong_shape = TransitionMap(s=lambda ps: [np.eye(2)] * len(ps), label="2x2")
    with pytest.raises(ValidationError):
        wrong_shape.matrices([Point(std_triple.chart, [0, 0, 0, 0])])


def test_rotated_members_are_the_rotated_triple_bit_for_bit(rot_triple, pts4):
    # each point alone and the whole sample in one stack, against cos and
    # sin taken a point at a time
    from paraquat.algebra import doubled
    from paraquat.catalog import STD_J3, STRUCTURES

    chart8 = make_chart(8)
    qs = [Point(chart8, np.concatenate([p.coords, p.coords[::-1]])) for p in pts4]

    def rotated(t):
        c, s = np.cos(t), np.sin(t)
        return np.stack((c * STD_J1 + s * STD_J2, -s * STD_J1 + c * STD_J2, STD_J3))

    for triple, pts, expected in [
        (rot_triple, pts4, [rotated(p.coords[0]) for p in pts4]),
        (TRIPLES["product8-rotated"](chart8), qs, [doubled(rotated(q.coords[0])) for q in qs]),
        (TRIPLES["product8-fiber-rotated"](chart8), qs, [doubled(rotated(q.coords[4])) for q in qs]),
    ]:
        for p, value in zip(pts, expected):
            assert triple.matrices(p).tobytes() == value.tobytes()
        assert triple.values(pts).tobytes() == np.stack(expected).tobytes()
    # split8-rotated is cos(0.2 x2) A + sin(0.2 x2) B
    eye, zero = np.eye(4), np.zeros((4, 4))
    A, B = np.block([[eye, zero], [zero, -eye]]), np.block([[zero, eye], [eye, zero]])
    split = STRUCTURES["split8-rotated"](chart8).field
    expected = [np.cos(0.2 * q.coords[1]) * A + np.sin(0.2 * q.coords[1]) * B for q in qs]
    for q, value in zip(qs, expected):
        assert eval_batch(split, [q])[0].tobytes() == value.tobytes()
    assert eval_batch(split, qs).tobytes() == np.stack(expected).tobytes()


def reference_algebra(triple, p):
    """check_triple_algebra at one point as the one-point code formed it:
    its square, product and anticommute residuals and its Gram determinant."""
    J = triple.matrices(p)
    eye = np.eye(triple.chart.dim)
    sq = max(float(np.abs(J[a - 1] @ J[a - 1] + TAU[a - 1] * eye).max()) for a in (1, 2, 3))
    prod = max(float(np.abs(J[a - 1] @ J[b - 1] - TAU[c - 1] * J[c - 1]).max()) for (a, b, c) in CYCLIC)
    anti = max(float(np.abs(J[a - 1] @ J[b - 1] + J[b - 1] @ J[a - 1]).max()) for (a, b, c) in CYCLIC)
    rows = J.reshape(3, -1)  # the Frobenius pairing: each member flattened to a row
    det = float(np.linalg.det(rows @ rows.T))
    return [sq, prod, anti, det]


def _witness(triple):
    """triple turned by a position-dependent transition, as parallel-witness does."""
    return apply_transition(triple, TransitionMap(s=pointwise(_weighted_rotation), label="w"))


@pytest.mark.parametrize("name", ["standard4", "rotated4", "witness", "product8-rotated"])
def test_batched_triple_algebra_is_the_one_point_formula_bit_for_bit(std_triple, rot_triple, pts4, name):
    chart8 = make_chart(8)
    triple = {
        "standard4": std_triple, "rotated4": rot_triple, "witness": _witness(rot_triple),
        "product8-rotated": TRIPLES["product8-rotated"](chart8),
    }[name]
    pts = pts4 if triple.chart.dim == 4 else sample_points(chart8, 4, seed=2)
    reps = stacked(check_triple_algebra(triple, pts + [pts[0]])).tolist()
    assert reps == [reference_algebra(triple, p) for p in pts + [pts[0]]]
    assert [stacked(check_triple_algebra(triple, [p]))[0].tolist() for p in pts] == reps[:-1]


def test_witness_members_batch_is_the_one_point_rotation_bit_for_bit(rot_triple, pts4):
    witness = _witness(rot_triple)
    for a, member in enumerate(witness.fields):
        for p, value in zip(pts4, member.components(pts4)):
            s = TransitionMap(s=pointwise(_weighted_rotation)).matrices([p])[0]
            J = rot_triple.matrices(p)
            expected = (s[a] @ J.reshape(3, -1)).reshape(J.shape[1:])
            assert value.tobytes() == expected.tobytes()
            assert eval_batch(member, [p])[0].tobytes() == expected.tobytes()


def test_a_witness_batch_raises_what_its_first_failing_point_raises_alone(std_triple):
    # the transition is singular at the second point; the third lies off the
    # box, which the batch's stacked domain test finds first
    s = TransitionMap(s=pointwise(lambda p: np.eye(3) * (1.0 if p.coords[0] >= 0 else 0.0)), label="probe")
    member = apply_transition(std_triple, s).j1
    chart = std_triple.chart
    pts = [Point(chart, [0.1, 0.0, 0.0, 0.0]), Point(chart, [-0.2, 0.0, 0.0, 0.0]), Point(chart, [0.3, 1.5, 0.0, 0.0])]
    with pytest.raises(SingularTransitionError) as expected:
        eval_batch(member, [pts[1]])[0]
    with pytest.raises(SingularTransitionError) as got:
        eval_batch(member, pts)
    assert str(got.value) == str(expected.value)


def test_transition_matrices_from_a_batch_raise_what_the_first_failing_point_raises_alone(std_triple):
    # s is singular at the second point; at the third its 1/(x2 - 0.5)
    # divides by zero, which the walk over the whole batch meets first
    chart = std_triple.chart
    rows = [["1/(x2 - 0.5)", "0", "0"], ["0", "x1", "0"], ["0", "0", "1"]]
    values, jets = expression_array(rows, (3, 3), chart, "transition")
    s = TransitionMap(s=lambda ps: values(np.array([q.coords for q in ps])), label="probe", jets=jets)
    pts = [Point(chart, [0.1, 0.0, 0.0, 0.0]), Point(chart, [0.0, 0.0, 0.0, 0.0]), Point(chart, [0.3, 0.5, 0.0, 0.0])]
    with pytest.raises(EvaluationError, match="division by zero"):
        s.s(pts)
    with pytest.raises(SingularTransitionError) as expected:
        s.matrices([pts[1]])
    # s.matrices has no replay of its own; the batches that read it do
    witness = apply_transition(std_triple, s)
    for batch in (witness.values, lambda ps: eval_batch(witness.j2, ps)):
        with pytest.raises(SingularTransitionError) as got:
            batch(pts)
        assert str(got.value) == str(expected.value)
    # each point of a batch that passes has the bits of its batch of one
    fine = [pts[0], Point(chart, [0.2, -0.3, 0.4, 0.0])]
    assert s.matrices(fine).tobytes() == np.concatenate([s.matrices([q]) for q in fine]).tobytes()


def _nan_where(k, J):
    return pointwise(lambda p: J * (np.nan if p.coords[k] > 0.5 else 1.0))


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
        check_triple_algebra(triple, [pts[1]])
    with pytest.raises(EvaluationError) as got:
        check_triple_algebra(triple, pts)
    assert str(got.value) == str(expected.value)


def test_a_failing_triple_batch_stores_nothing_and_raises_what_its_first_failing_point_raises_alone(std_triple):
    # J1 fails at the third point and J2 at the second: the batch raises
    # J2's error at the second point, not J1's, which a member-by-member
    # stack meets first
    triple = _failing_members(std_triple)
    chart = triple.chart
    pts = [Point(chart, [0.1, 0.0, 0.0, 0.0]), Point(chart, [0.1, 0.7, 0.0, 0.0]), Point(chart, [0.1, 0.0, 0.7, 0.0])]
    with pytest.raises(EvaluationError, match="J2") as expected:
        _failing_members(std_triple).values([pts[1]])
    with pytest.raises(EvaluationError, match="J1"):
        _failing_members(std_triple).values([pts[2]])
    with pytest.raises(EvaluationError) as got:
        triple.values(pts)
    assert str(got.value) == str(expected.value)
    assert not triple._memo
    # the point that evaluates alone still does, and is then stored
    assert triple.values(pts[:1]).tobytes() == _failing_members(std_triple).values(pts[:1]).tobytes()
    assert list(triple._memo) == [("values", pts[0].coords.tobytes())]


def test_triple_values_are_memoised_fresh_stacks(rot_triple, pts4):
    calls = []

    def counted(f: TensorField) -> TensorField:
        return dataclasses.replace(f, components=lambda ps: calls.append(len(ps)) or f.components(ps))

    triple = LocalBasisTriple(*map(counted, rot_triple.fields))
    first = triple.values(pts4 + pts4[:1])
    assert calls == [len(pts4)] * 3  # each member once, at the distinct points
    again = triple.values([Point(triple.chart, p.coords) for p in reversed(pts4)])
    assert calls == [len(pts4)] * 3
    assert again.tobytes() == first[len(pts4) - 1::-1].tobytes() == rot_triple.values(pts4)[::-1].tobytes()
    # each call's stack is its own: writing into one leaves the memo clean
    for V in (first, again, triple.matrices(pts4[0])):
        V[...] = np.nan
    assert triple.values(pts4).tobytes() == rot_triple.values(pts4).tobytes()
    assert calls == [len(pts4)] * 3
    other = make_chart(4, coords=("a", "b", "c", "d"))
    with pytest.raises(ValidationError, match="different charts"):
        triple.values([Point(other, pts4[0].coords)])


def test_the_members_of_a_transition_share_s_and_a_per_batch(chart4):
    # the triple's values take one walk of s, and its jets one walk and one
    # jets call of s and one jets call of each member of A, for all three
    # members over the same points; a member asked alone takes s itself,
    # with the bits of its slice and of a member of a triple that shares
    # nothing
    values, jets = expression_array(
        [["1 + 0.3*sin(x2)", "x1", "0"], ["0", "cos(x3)", "0.2*x4"], ["0", "0", "exp(0.1*x1)"]], (3, 3), chart4, "s"
    )
    calls = []

    def transition(record: bool) -> TransitionMap:
        def components(ps):
            calls.append("components") if record else None
            return values(np.array([q.coords for q in ps]))

        def counted_jets(ps, order):
            calls.append("jets") if record else None
            return jets(ps, order)

        return TransitionMap(components, label="s", jets=counted_jets)

    member_jets = []

    def counted(f: TensorField) -> TensorField:
        return dataclasses.replace(f, jets=lambda ps, order: member_jets.append(order) or f.jets(ps, order))

    A = LocalBasisTriple(*map(counted, TRIPLES["rotated4"](chart4).fields))
    shared = apply_transition(A, transition(True))
    pts = sample_points(chart4, 3, seed=8)
    V = shared.values(pts)
    assert calls == ["components"]
    stacked = shared.jets(pts)
    assert calls == ["components", "components", "jets"] and member_jets == [1, 1, 1]
    got = [(member.components(pts), *member.jets(pts, 1)) for member in shared.fields]
    assert calls == ["components", "components", "jets"] + ["components", "components", "jets"] * 3
    for a, arrays in enumerate(got):
        assert arrays[0].tobytes() == V[:, a].tobytes() and arrays[2].tobytes() == stacked[1][:, a].tobytes()
        alone = apply_transition(A, transition(False)).fields[a]
        for x, y in zip(arrays, (alone.components(pts), *alone.jets(pts, 1))):
            assert x.tobytes() == y.tobytes()
    # the triple's values of known points are memoised, other points are a
    # new batch
    calls.clear()
    shared.values(pts[1:] + sample_points(chart4, 1, seed=9))
    assert calls == ["components"] and len(shared._memo) == len(pts) + 1
