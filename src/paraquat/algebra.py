"""Local (J1, J2, J3) basis triples, their tau-algebra check and their
changes of basis.

The signs of the whole package live in the constant ``TAU = (-1, -1, 1)``:
J_a^2 = -tau_a I and J_a J_b = tau_c J_c = -J_b J_a for cyclic (a, b, c),
the relations of the split quaternions on (1, e1, e2, e3) with e_a sent to
J_a(p).  ``check_triple_algebra`` measures how far a triple is from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SingularTransitionError, ValidationError
from .fields import ManifoldSpec, Point, TensorField, _check_list, _jets_of, _memo_batch, _order_at_most, eval_batch

TAU = (-1.0, -1.0, 1.0)
CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

TRANSITION_DET_FLOOR = 1e-9


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
    """Three (1,1) fields on one chart, intended to satisfy the tau algebra.
    ``stack(points, order)``, given for a triple made from another
    (``stacked_triple``), returns all three members' jets to order 0 or 1 in
    one call, stacked [c, a, ...]: checked values and first partials."""

    j1: TensorField
    j2: TensorField
    j3: TensorField
    label: str = ""
    stack: Callable[..., tuple[np.ndarray, ...]] | None = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in (self.j1, self.j2, self.j3):
            if (f.r, f.s) != (1, 1):
                raise ValidationError("triple members must be (1,1) fields")
        if not (self.j1.chart == self.j2.chart == self.j3.chart):
            raise ValidationError("triple members must share a chart")
        # the fit, nabla and hermitian memo keys hold the triple: the hash of
        # the compared fields, taken once
        object.__setattr__(self, "_hash", hash((self.j1, self.j2, self.j3, self.label)))

    def __hash__(self):
        return self._hash

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
        """``matrices`` at each point, a fresh (len(points), 3, dim, dim)
        stack memoised per point (``fields._memo_batch``): the misses from one
        ``stack`` call, else one ``eval_batch`` per member.  A batch that raises
        stores nothing, and its first failing point raises what it raises alone."""

        def compute(pts: list[Point]) -> np.ndarray:
            return self.stack(pts, 0)[0] if self.stack else np.stack([eval_batch(f, pts) for f in self.fields], axis=1)

        return _memo_batch(self._memo, self.chart, "values", points, compute).reshape(-1, 3, *self.j1.shape)

    def jets(self, points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
        """The members' jets to order 1, (V[c, a, k, j], dV[c, a, i, k, j]),
        from one ``stack`` call, or else one jets call per member."""
        if self.stack:
            return self.stack(points, 1)
        return tuple(np.stack(X, axis=1) for X in zip(*(_jets_of(f)(points, 1) for f in self.fields)))


def stacked_triple(chart: ManifoldSpec, stack: Callable, names: Sequence[str], label: str = "") -> LocalBasisTriple:
    """The triple whose members are given all at once by ``stack`` (see
    ``LocalBasisTriple``): member a, named ``names[a]``, is the slice a of
    its values and of its jets, to order 1.  A member evaluated alone does
    not read the triple's memo, which would tie the two in a cycle."""

    def member(a: int) -> TensorField:
        def jets(points: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
            _order_at_most(names[a], order, 1)
            return tuple(X[:, a] for X in stack(points, min(order, 1)))

        return TensorField(chart, 1, 1, lambda points: stack(points, 0)[0][:, a], label=names[a], jets=jets)

    return LocalBasisTriple(member(0), member(1), member(2), label=label, stack=stack)


class AlgebraReport(NamedTuple):
    square_residual: np.ndarray  # each field an (N,) stack, row c for point c
    product_residual: np.ndarray
    anticommute_residual: np.ndarray
    gram_det: np.ndarray

    @property
    def max_residual(self) -> np.ndarray:
        return np.max([self.square_residual, self.product_residual, self.anticommute_residual], axis=0)


def _gram(J: np.ndarray) -> np.ndarray:
    """The 3x3 Gram matrix of each triple value of a stack J[..., a, i, j]
    under the Frobenius pairing <A, B> = sum_ij A^i_j B^i_j: each member
    flattened to a row, times the transpose."""
    rows = J.reshape(J.shape[:-2] + (-1,))
    return rows @ rows.swapaxes(-1, -2)


def check_triple_algebra(triple: LocalBasisTriple, points: Sequence[Point]) -> AlgebraReport:
    """Residuals of the tau-algebra relations at each point, one report of
    (N,) stacks:

    square:      max_a  |J_a^2 + tau_a I|
    product:     max    |J_a J_b - tau_c J_c|   over cyclic (a,b,c)
    anticommute: max    |J_a J_b + J_b J_a|     over a != b

    The Gram determinant (Frobenius pairing) is reported alongside; linear
    independence of the three values means |det| > 1e-6.  The triple's
    values come from one ``values``, every residual and determinant over
    the stack.  A batch that raises is tried again point by point, so the
    error is the one the first failing point raises alone.
    """
    a, b, c = (np.array(CYCLIC) - 1).T
    tau = np.array(TAU)[:, None, None]

    def compute(pts: list[Point]) -> np.ndarray:
        J = triple.values(pts)
        JaJb = J[:, a] @ J[:, b]
        residuals = np.stack(
            [J @ J + tau * np.eye(triple.chart.dim), JaJb - tau[c] * J[:, c], JaJb + J[:, b] @ J[:, a]], axis=1
        )
        return np.column_stack([np.abs(residuals).max(axis=(2, 3, 4)), np.linalg.det(_gram(J))])

    return AlgebraReport(*_memo_batch({}, triple.chart, None, points, compute).reshape(-1, 4).T)


@dataclass(frozen=True)
class TransitionMap:
    """Pointwise GL(3) change of triple basis: B.J_a = sum_b s[a,b] A.J_b.

    ``s(points)`` returns s at a list of points in one call, stacked
    (len(points), 3, 3).  ``jets`` follows ``SubmersionMap.jets``:
    ``jets(points, order)`` returns s and its partials to ``order`` at a
    list of points, stacked with the partial axes first, ``[c, i, a, b]``
    for the first partials.
    """

    s: Callable[[Sequence[Point]], np.ndarray]
    label: str = ""
    jets: Callable[[Sequence[Point], int], tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def matrices(self, points: Sequence[Point]) -> np.ndarray:
        """s at each point, stacked (len(points), 3, 3): every point from
        one ``s`` call, then the shape and the determinants of the stack
        tested at once: a ValidationError for a value that is not 3x3, a
        SingularTransitionError naming the first point whose |det| is below
        the floor.  The stack is in C order whatever the layout of ``s``'s
        result (an expression array's has the point axis innermost), so a
        product over it rounds the same for a point alone or in any stack.
        It has no replay of its own: the batches that read it (a triple's
        ``values``, ``eval_batch`` of a member and the derivatives of
        ``connection``) run under ``fields._memo_batch``, which replays a
        failing batch point by point."""
        _check_list(points)
        if not points:
            return np.empty((0, 3, 3))
        S = np.asarray(self.s(points), dtype=float)
        if S.shape != (len(points), 3, 3):
            raise ValidationError(f"transition must be 3x3, got {S.shape[1:]}")
        singular = np.flatnonzero(np.abs(np.linalg.det(S)) < TRANSITION_DET_FLOOR)
        if singular.size:
            raise SingularTransitionError(f"transition singular at {points[singular[0]]}")
        return np.ascontiguousarray(S)


def apply_transition(A: LocalBasisTriple, s: TransitionMap, label: str = "") -> LocalBasisTriple:
    """The triple with values B.J_a(p) = sum_b s(p)[a,b] A.J_b(p), its three
    members at once (``stacked_triple``): s at every point from one
    ``s.matrices`` and A's values from one ``values``, each member's row of
    s times the values flattened over (i, j), and the jets to order 1,
    d(s_ab J_b) = ds_ab J_b + s_ab dJ_b, from one jets call of s and one
    ``jets`` of A, the same products with J flattened over (i, j) and dJ
    over (m, i, j)."""
    name = label or s.label

    def stack(points: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        # ds in C order, whatever its source's, as ``matrices`` gives s, so
        # that a member's row of either is the same vector for a point alone
        # or in any stack
        S, AJ = s.matrices(points), A.values(points)
        c, rows = len(S), S[..., None, :]  # [c, a, 1, b]: member a's row of s
        V = (rows @ AJ.reshape(c, 1, 3, -1)).reshape(AJ.shape)
        if order == 0:
            return (V,)
        dS = np.ascontiguousarray(_jets_of(s)(points, 1)[1]).swapaxes(1, 2)  # [c, a, m, b]
        J, dJ = A.jets(points)
        dSJ = (dS[..., None, :] @ J.reshape(c, 1, 1, 3, -1)).reshape(dJ.shape)
        return V, dSJ + (rows @ dJ.reshape(c, 1, 3, -1)).reshape(dJ.shape)

    return stacked_triple(A.chart, stack, [f"{name}[{a + 1}]" for a in range(3)], label=name)
