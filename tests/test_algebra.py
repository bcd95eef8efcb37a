"""The tau-algebra of basis triples and transitions between them."""

import numpy as np
import pytest

from paraquat import (
    LocalBasisTriple,
    Point,
    SingularTransitionError,
    SplitQuaternion,
    TransitionMap,
    ValidationError,
    apply_transition,
    check_triple_algebra,
    constant_field,
    frobenius_gram,
    represent,
    splitq_mul,
)


def test_splitq_basis_table():
    e0 = SplitQuaternion(1, 0, 0, 0)
    e1 = SplitQuaternion(0, 1, 0, 0)
    e2 = SplitQuaternion(0, 0, 1, 0)
    e3 = SplitQuaternion(0, 0, 0, 1)
    # squares: e1^2 = e2^2 = +1, e3^2 = -1
    assert splitq_mul(e1, e1) == e0
    assert splitq_mul(e2, e2) == e0
    assert splitq_mul(e3, e3) == SplitQuaternion(-1, 0, 0, 0)
    # cyclic products
    assert splitq_mul(e1, e2) == e3
    assert splitq_mul(e2, e3) == -e1
    assert splitq_mul(e3, e1) == -e2
    # anticommutativity
    assert splitq_mul(e2, e1) == -e3


def test_splitq_arithmetic():
    q = SplitQuaternion(1, 2, 0, -1)
    r = SplitQuaternion(0, 1, 1, 0)
    assert (q + r) - r == q
    assert 2 * q == q + q
    assert np.allclose((q * r).as_array(), splitq_mul(q, r).as_array())


def test_representation_is_homomorphism(std_triple):
    p = Point(std_triple.chart, [0.1, -0.2, 0.3, 0.05])
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = SplitQuaternion(*rng.uniform(-2, 2, size=4))
        r = SplitQuaternion(*rng.uniform(-2, 2, size=4))
        lhs = represent(splitq_mul(q, r), std_triple, p)
        rhs = represent(q, std_triple, p) @ represent(r, std_triple, p)
        assert np.abs(lhs - rhs).max() < 1e-12


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


def test_frobenius_gram_standard(std_triple):
    p = Point(std_triple.chart, [0, 0, 0, 0])
    assert np.allclose(frobenius_gram(std_triple, p), np.diag([4.0, 4.0, 4.0]))


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
