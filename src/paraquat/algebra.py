"""Split-quaternion arithmetic and local (J1, J2, J3) basis triples.

The signs of the whole package live in the constant ``TAU = (-1, -1, 1)``:
J_a^2 = -tau_a I, J_a J_b = tau_c J_c = -J_b J_a for cyclic (a, b, c), and the
abstract algebra on (1, e1, e2, e3) uses e_a^2 = -tau_a with the same cyclic
products.  Mapping e_a to J_a(p) of a valid triple is an algebra isomorphism,
which the test suite checks against matrix multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularTransitionError, ValidationError
from .fields import ManifoldSpec, Point, TensorField, _memo_batch, eval_batch

TAU = (-1.0, -1.0, 1.0)
CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

TRANSITION_DET_FLOOR = 1e-9


def _basis_product(a: int, b: int) -> tuple[float, int]:
    """e_a * e_b as (coefficient, basis index); index 0 means the scalar 1."""
    if a == 0:
        return 1.0, b
    if b == 0:
        return 1.0, a
    if a == b:
        return -TAU[a - 1], 0
    for (x, y, z) in CYCLIC:
        if (a, b) == (x, y):
            return TAU[z - 1], z
        if (a, b) == (y, x):
            return -TAU[z - 1], z
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class SplitQuaternion:
    """Coefficients on the basis (1, e1, e2, e3)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __add__(self, other):
        return SplitQuaternion(*(self.as_array() + other.as_array()))

    def __sub__(self, other):
        return SplitQuaternion(*(self.as_array() - other.as_array()))

    def __neg__(self):
        return SplitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, SplitQuaternion):
            return splitq_mul(self, other)
        return SplitQuaternion(*(self.as_array() * float(other)))

    def __rmul__(self, scalar):
        return SplitQuaternion(*(float(scalar) * self.as_array()))


def splitq_mul(q: SplitQuaternion, r: SplitQuaternion) -> SplitQuaternion:
    """Product in the split-quaternion algebra, expanded from the basis table."""
    qa, ra = q.as_array(), r.as_array()
    out = np.zeros(4)
    for a in range(4):
        if qa[a] == 0.0:
            continue
        for b in range(4):
            if ra[b] == 0.0:
                continue
            coeff, idx = _basis_product(a, b)
            out[idx] += coeff * qa[a] * ra[b]
    return SplitQuaternion(*out)


def doubled(X: np.ndarray) -> np.ndarray:
    """diag(X, X): the same entries as ``np.block([[X, 0], [0, X]])``; of
    each matrix of a stack, for a stack."""
    n = X.shape[-1]
    out = np.zeros(X.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = X
    out[..., n:, n:] = X
    return out


@dataclass(frozen=True)
class LocalBasisTriple:
    """Three (1,1) fields on one chart, intended to satisfy the tau algebra."""

    j1: TensorField
    j2: TensorField
    j3: TensorField
    label: str = ""

    def __post_init__(self):
        for f in (self.j1, self.j2, self.j3):
            if (f.r, f.s) != (1, 1):
                raise ValidationError("triple members must be (1,1) fields")
        if not (self.j1.chart == self.j2.chart == self.j3.chart):
            raise ValidationError("triple members must share a chart")

    @property
    def chart(self) -> ManifoldSpec:
        return self.j1.chart

    @property
    def fields(self) -> tuple[TensorField, TensorField, TensorField]:
        return (self.j1, self.j2, self.j3)

    def matrices(self, p: Point) -> np.ndarray:
        """Stacked (3, dim, dim) values at p."""
        return self.values([p])[0]

    def values(self, points: Sequence[Point]) -> np.ndarray:
        """``matrices`` at each point, stacked (len(points), 3, dim, dim):
        one ``eval_batch`` per member, so a failing batch raises what its
        first failing point raises alone."""
        return np.stack([eval_batch(f, points) for f in self.fields], axis=1)


def represent(q: SplitQuaternion, triple: LocalBasisTriple, p: Point) -> np.ndarray:
    """Image of q under 1 -> I, e_a -> J_a(p)."""
    J = triple.matrices(p)
    n = triple.chart.dim
    return q.w * np.eye(n) + q.x * J[0] + q.y * J[1] + q.z * J[2]


@dataclass(frozen=True)
class AlgebraReport:
    square_residual: float
    product_residual: float
    anticommute_residual: float
    gram_det: float

    @property
    def max_residual(self) -> float:
        return max(self.square_residual, self.product_residual, self.anticommute_residual)

    def passed(self, tol: float) -> bool:
        return self.max_residual < tol


def frobenius_gram(triple: LocalBasisTriple, p: Point) -> np.ndarray:
    """3x3 Gram matrix of the triple under <A, B> = sum_ij A^i_j B^i_j."""
    return _gram(triple.matrices(p))


def _gram(J: np.ndarray) -> np.ndarray:
    """``frobenius_gram`` of stacked values J[..., a, i, j]."""
    return np.einsum("...aij,...bij->...ab", J, J)


def check_triple_algebra(triple: LocalBasisTriple, p: Point) -> AlgebraReport:
    """Residuals of the tau-algebra relations at p.

    square:      max_a  |J_a^2 + tau_a I|
    product:     max    |J_a J_b - tau_c J_c|   over cyclic (a,b,c)
    anticommute: max    |J_a J_b + J_b J_a|     over a != b

    The Gram determinant (Frobenius pairing) is reported alongside; linear
    independence of the three values means |det| > 1e-6.
    """
    return _triple_algebras(triple, [p])[0]


def _triple_algebras(triple: LocalBasisTriple, points: Sequence[Point]) -> list[AlgebraReport]:
    """``check_triple_algebra`` at each point: the triple's values from one
    ``values``, every residual and determinant over the stack.  A batch
    that raises is tried again point by point, so the error is the one the
    first failing point raises alone."""
    a, b, c = (np.array(CYCLIC) - 1).T
    tau = np.array(TAU)[:, None, None]

    def compute(pts: list[Point]) -> list[AlgebraReport]:
        J = triple.values(pts)
        JaJb = J[:, a] @ J[:, b]
        residuals = np.stack(
            [J @ J + tau * np.eye(triple.chart.dim), JaJb - tau[c] * J[:, c], JaJb + J[:, b] @ J[:, a]], axis=1
        )
        sq, prod, anti = np.abs(residuals).max(axis=(2, 3, 4)).T.tolist()
        det = np.linalg.det(_gram(J)).tolist()
        return [AlgebraReport(*row) for row in zip(sq, prod, anti, det)]

    return _memo_batch(
        {}, triple.chart, None, None, points, compute, one=lambda q: check_triple_algebra(triple, q)
    )


@dataclass(frozen=True)
class TransitionMap:
    """Pointwise GL(3) change of triple basis: B.J_a = sum_b s[a,b] A.J_b."""

    s: object  # Callable[[Point], np.ndarray (3,3)]
    label: str = ""

    def matrix(self, p: Point) -> np.ndarray:
        m = np.asarray(self.s(p), dtype=float)
        if m.shape != (3, 3):
            raise ValidationError(f"transition must be 3x3, got {m.shape}")
        if abs(np.linalg.det(m)) < TRANSITION_DET_FLOOR:
            raise SingularTransitionError(f"transition singular at {p}")
        return m


def apply_transition(A: LocalBasisTriple, s: TransitionMap, label: str = "") -> LocalBasisTriple:
    """The triple with values B.J_a(p) = sum_b s(p)[a,b] A.J_b(p).  Each
    member has a batch form: s at every point, A's values in one stack."""
    chart = A.chart

    def member(a: int) -> TensorField:
        def batch(points: Sequence[Point]) -> np.ndarray:
            S = np.array([s.matrix(p)[a] for p in points])
            return np.einsum("cb,cbij->cij", S, A.values(points))

        return TensorField(
            chart, 1, 1, lambda p: batch([p])[0], label=f"{label or s.label}[{a + 1}]", batch=batch
        )

    return LocalBasisTriple(member(0), member(1), member(2), label=label or s.label)
