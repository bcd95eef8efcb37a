import struct

import numpy as np
import pytest

from expr_reference import subtrees, text
from fd_reference import fd_gradient
from paraquat import MetricField, SubmersionMap, christoffel, exprlang, sample_points
from paraquat.fields import eval_batch
from paraquat.catalog import (
    METRICS,
    STD_J1,
    STD_J2,
    STD_J3,
    TRIPLES,
    expression_array,
    make_chart,
    triple_from_config,
)

# the neutral space form eta/(1 + eta(x, x)/4)^2, a curved PQK metric
SPACE_FORM = "1/(1 + (x1^2 + x2^2 - x3^2 - x4^2)/4)^2"
SPACE_FORM_ROWS = [[(SPACE_FORM if r < 2 else f"-{SPACE_FORM}") if r == c else "0" for c in range(4)] for r in range(4)]


def rotated4_matrices():
    """rotated4 as inline expression matrices: J1 and J2 of standard4
    rotated by x1 in their span, J3 as it is."""

    def rows(c, s, k):  # c cos(x1) + s sin(x1) + k, entry by entry
        return [[f"{c[i, j]}*cos(x1) + {s[i, j]}*sin(x1) + {k[i, j]}" for j in range(4)] for i in range(4)]

    zero = 0 * STD_J1
    return [rows(STD_J1, STD_J2, zero), rows(STD_J2, -STD_J1, zero), rows(zero, zero, STD_J3)]


# a nonlinear expression map from 8 dims onto 4
BENT_COMPONENTS = ["x1 + 0.1*sin(x5)", "x2 + 0.2*x6^2", "x3", "x4 + 0.1*x1*x7"]


def pointwise(one):
    """A components callable for a list of points from ``one``, a function
    of one point: the fixtures written a point at a time."""
    return lambda points: [one(p) for p in points]


def stacked(report) -> np.ndarray:
    """The fields of a report of equal-shape stacks, in field order, stacked
    along a last axis: row c holds point c's values."""
    return np.stack([getattr(report, name) for name in report._fields], axis=-1)


def expression_map(source, target, components, label="map"):
    """A SubmersionMap of expression components, with their jets."""
    values, jets = expression_array(components, (target.dim,), source, label)
    return SubmersionMap(source, target, values, label, jets=jets)


def keyed(src, names):
    """The emitter of one expression text, scheduled, and its root's node."""
    em = exprlang._Emitter(names)
    root = em.enter(exprlang._postfix(src))
    em.schedule([root])
    return em, root


def key_program(em):
    """An emitter's program: its keys, the bits of its constants, and its
    slots and steps in order."""
    constants = {slot: struct.pack("d", v) for slot, v in em.constants.items()}
    return em.keys, constants, list(em.slots.items()), em.steps


def assert_printed_key_rereads(tree, names):
    """The printed key of ``tree``'s root is the reference text
    (tests/expr_reference.py) and re-reads to the same program: the same
    keys, constant bits and schedule."""
    em, root = keyed(text(tree), names)
    printed = exprlang._text(em, root)
    again, again_root = keyed(printed, names)
    assert printed == text(tree) and again_root == root and key_program(again) == key_program(em)


def assert_every_node_prints_as_the_reference(tree, names):
    """Each subtree's node in the program of ``tree``, found again by
    entering the subtree's text, prints as the reference prints the
    subtree."""
    em, _ = keyed(text(tree), names)
    size = len(em.keys)
    for sub in subtrees(tree):
        assert exprlang._text(em, em.enter(exprlang._postfix(text(sub)))) == text(sub)
    assert len(em.keys) == size


def reference_nabla(g, T, p, h=None):
    """(nabla_i T)^k_j at one point as the one-point code formed it: Gamma at
    p on a fresh memo of g, T at p, dT from T's jets at p alone (with a step
    h, central differences of step h around p alone), and one matrix
    product per connection term, Gamma flattened over (i, k) on the left of
    T and over (i, j) on its right."""
    gam = christoffel(MetricField(g.field), p)
    Tp = eval_batch(T, [p])[0]
    dT = T.jets([p], 1)[1][0] if h is None else fd_gradient(T, p, h)
    n = len(Tp)
    left = (gam.transpose(1, 0, 2).reshape(n * n, n) @ Tp).reshape(n, n, n)
    right = (Tp @ gam.reshape(n, n * n)).reshape(n, n, n).transpose(1, 0, 2)
    return dT + left - right


@pytest.fixture(scope="session")
def chart4():
    return make_chart(4)


@pytest.fixture(scope="session")
def chart8():
    return make_chart(8)


@pytest.fixture(scope="session")
def flat4(chart4):
    return METRICS["neutral4"](chart4)


@pytest.fixture(scope="session")
def conformal4(chart4):
    return METRICS["conformal-neutral4"](chart4)


@pytest.fixture(scope="session")
def euclidean4(chart4):
    return METRICS["euclidean4"](chart4)


@pytest.fixture(scope="session")
def flat8(chart8):
    return METRICS["neutral8"](chart8)


@pytest.fixture(scope="session")
def std_triple(chart4):
    return TRIPLES["standard4"](chart4)


@pytest.fixture(scope="session")
def rot_triple(chart4):
    return TRIPLES["rotated4"](chart4)


@pytest.fixture(scope="session")
def rot_expr_triple(chart4):
    return triple_from_config({"matrices": rotated4_matrices()}, chart4)


@pytest.fixture(scope="session")
def pts4(chart4):
    return sample_points(chart4, 5, seed=11)


@pytest.fixture(scope="session")
def pts8(chart8):
    return sample_points(chart8, 4, seed=12)
