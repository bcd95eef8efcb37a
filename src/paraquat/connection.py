"""Levi-Civita connection and curvature, from exact jets.

A metric's field gives dg and d2g from its jets, and Gamma and R are closed
forms in g, dg and d2g, with g itself the field's checked value.  Gamma
and its partials to order 2 are built in one function,
``_christoffel_jets``: ``riemann`` reads Gamma and dGamma from it, and the
shifts of a Sasaki lift read d2Gamma too, from the jets to order 3.  The
partials of a (1,1) field, behind nabla T and N_F, come from its jets the
same way.  A field without jets raises ValidationError (``fields._jets_of``).

``riemann`` and ``covariant_derivatives`` take a list of points and
return a fresh stack, row c for point c, computed over the distinct misses
under the memo rule of ``fields._memo_batch``; ``christoffel`` and
``MetricField.matrix`` read one point from the memo their batches fill.

Index conventions used throughout the package:

* Christoffel symbols           ``gamma[k, i, j] = Gamma^k_{ij}``
* covariant derivative (1,1)    ``D[i, k, j] = (nabla_i T)^k_j``; ``D[a, i, k, j]`` of a triple
* Riemann tensor                ``riem[l, k, i, j] = R^l_{kij}`` with

      R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}

  so that ``R(X, Y, Z)^l = R^l_{kij} X^i Y^j Z^k`` is the curvature operator
  R(X,Y)Z.  The sign is pinned by the tangent-bundle bracket identity
  ``[X^h, Y^h] = -R(X, Y, Z)^v + [X, Y]^h`` (see sasaki.check_bracket, whose
  convention test fails loudly if this sign is flipped).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import LocalBasisTriple
from .errors import DegenerateMetricError, ValidationError
from .fields import ManifoldSpec, Point, TensorField, _check_box, _jets_of, _memo_batch, eval_batch

DET_FLOOR = 1e-9
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class MetricField:
    """A (0,2) field validated as a semi-Riemannian metric at evaluation time:
    at every point it is asked for, symmetric within 1e-12 times its largest
    |entry| and |det| above 1e-9 times the product of its row norms
    (Hadamard's bound on |det|), tests that do not change when the metric
    is scaled.  The determinant test is taken on the rows divided by their
    largest |entry|, so that neither det nor a norm overflows or underflows
    at any scale; a zero row is degenerate.

    The instance memoises g, and the jets dg and d2g of its field (per
    point; d3g too at the base of a Sasaki lift), and, through ``christoffel``,
    ``riemann``, ``covariant_derivatives`` and ``structures``, Gamma, R, the
    partial derivatives of (1,1) fields, the covariant derivatives of fields
    and of triples (all three members in one array), the Nijenhuis tensors,
    the hermitian residuals and the Kähler 1-form fits (per point, the last
    five also per field or triple).  Every one of them is read and filled by
    ``fields._memo_batch``: only evaluations that passed every check are
    stored, every batch returns a fresh stack, and a hit repeats the chart
    check, so a point of another chart still raises.
    """

    field: TensorField
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.field.r, self.field.s) != (0, 2):
            raise ValidationError("a metric must be a (0,2) tensor field")

    @property
    def chart(self) -> ManifoldSpec:
        return self.field.chart

    def matrix(self, p: Point) -> np.ndarray:
        return self.matrices([p])[0]

    def matrices(self, points: Sequence[Point]) -> np.ndarray:
        """g at each point, a fresh (len(points), dim, dim) stack: the batch
        form of ``matrix``.

        The distinct misses are evaluated together: their domain is tested
        at once, their components come from one ``field.components`` call,
        and their shape, finiteness, symmetry and determinant are tested
        over the stack.  A batch that raises stores nothing, and its first
        failing point raises what it raises alone.
        """
        return _memo_batch(self._memo, self.chart, "g", points, self._checked)

    def _checked(self, pts: list[Point]) -> np.ndarray:
        """g at the points, stacked: ``eval_batch``'s checks, then the
        symmetry and determinant of the whole stack in one test, both
        relative to each point's largest |entry|.  A
        point that fails one raises the error it raises alone; of one point,
        that is the error of ``matrix``, and ``_memo_batch`` replays a batch
        of several."""
        V = eval_batch(self.field, pts)
        scale = np.abs(V).max(axis=2, keepdims=True)
        asym = np.abs(V - V.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL * scale.max(axis=(1, 2))
        # a zero row stays zero, and its det 0 fails the test
        W = V / np.where(scale == 0.0, 1.0, scale)
        bad = asym | (np.abs(np.linalg.det(W)) <= DET_FLOOR * np.linalg.norm(W, axis=2).prod(axis=1))
        if bad.any():
            k = int(bad.argmax())
            if asym[k]:
                raise ValidationError(f"metric not symmetric at {pts[k]}")
            raise DegenerateMetricError(f"|det g| <= {DET_FLOOR} x the product of its row norms at {pts[k]}")
        return V


def christoffel(g: MetricField, p: Point) -> np.ndarray:
    """Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij}) as a
    fresh (dim, dim, dim) array, ``gamma[k, i, j] = Gamma^k_{ij}``.

    The metric partials come from the field's exact jets at p, which may
    lie anywhere in the closed box.
    """
    return _christoffels(g, [p])[0]


def _first_kind(D: np.ndarray) -> np.ndarray:
    """T[..., l, i, j] = D[..., i, l, j] + D[..., j, l, i] - D[..., l, i, j]
    for D[..., i, l, j] = d_i g_{lj}: twice the Christoffel symbols of the
    first kind, or their derivatives for a D with a leading derivative axis."""
    return np.einsum("...ilj->...lij", D) + np.einsum("...jli->...lij", D) - D


def _jets(g: MetricField, pts: list[Point], order: int = 2) -> tuple[np.ndarray, ...]:
    """(dg, d2g) at the points, stacked, from the field's jets:
    ``dg[c, i, l, j] = d_i g_{lj}`` and ``d2g[c, m, i, l, j] = d_m d_i g_{lj}``,
    memoised per point under "jet".  Order 3 appends d3g[c, p, m, i, l, j] =
    d_p d_m d_i g_{lj}, with all three memoised under "jet3": a miss there is
    one order-3 call, whose dg and d2g, the same bits as order 2's, fill
    "jet" where it misses (as they are, where it misses everywhere), and
    are read back from it."""

    def compute(qs: list[Point]) -> tuple[np.ndarray, ...]:
        partials = _jets_of(g.field)(qs, order)[1:]
        if order == 3:
            row = {q.coords.tobytes(): c for c, q in enumerate(qs)}
            pick = lambda new: slice(None) if len(new) == len(qs) else [row[q.coords.tobytes()] for q in new]
            fill = lambda new: tuple(A[pick(new)] for A in partials[:2])
            return (*_memo_batch(g._memo, g.chart, "jet", qs, fill), partials[2])
        return tuple(partials)

    return _memo_batch(g._memo, g.chart, "jet" if order == 2 else "jet3", pts, compute)


def _christoffels(g: MetricField, centres: Sequence[Point], order: int = 2) -> np.ndarray:
    """``christoffel`` at each centre, a fresh stack.  The
    distinct misses are assembled together: g at the centres, then dg from
    the jets (``_jets`` of ``order``: 3 for the base of a Sasaki lift, whose
    shifts read d3g next), one ``inv`` and one product g^-1 T over the
    stack, with T flattened over (i, j).  A batch that raises stores
    nothing, and its first failing centre raises what it raises alone."""

    def compute(pts: list[Point]) -> np.ndarray:
        ginv = np.linalg.inv(g.matrices(pts))
        T = _first_kind(_jets(g, pts, order)[0])
        return 0.5 * (ginv @ T.reshape(len(pts), g.chart.dim, -1)).reshape(T.shape)

    return _memo_batch(g._memo, g.chart, "gamma", centres, compute)


def covariant_derivatives(g: MetricField, T: LocalBasisTriple | TensorField, pts: Sequence[Point]) -> np.ndarray:
    """nabla of each member of a triple T at each point, D[c, a, i, k, j] =
    (nabla_i J_a)^k_j, or of a (1,1) field T alone, D[c, i, k, j], a fresh
    stack memoised on g per (T, point) under ("nabla", T).
    The distinct misses are one stack: Gamma from one ``_christoffels``, the
    triple's memoised ``values`` and one ``jets`` call (of a field, a member
    axis of length one from ``eval_batch`` and ``_gradients``), and D = dT +
    Gamma_i T - T Gamma_i in two matrix products per member, Gamma flattened
    over (i, k) on the left of T and over (i, j) on its right, which round
    alike for a point or a member alone or in any stack.  A batch that
    raises stores nothing, and its first failing point raises what it
    raises alone."""
    alone = isinstance(T, TensorField)

    def compute(qs: list[Point]) -> np.ndarray:
        gam = _christoffels(g, qs)
        if alone:
            V, dV = eval_batch(T, qs)[:, None], _gradients(g, T, qs)[:, None]
        else:
            V, dV = T.values(qs), T.jets(qs)[1]
        c, a, n = V.shape[:3]
        # (Gamma_i T)[k, j] over rows (i, k), and (T Gamma_i)[k, j] over columns (i, j)
        left = (gam.transpose(0, 2, 1, 3).reshape(c, 1, n * n, n) @ V).reshape(c, a, n, n, n)
        right = (V @ gam.reshape(c, 1, n, n * n)).reshape(c, a, n, n, n).transpose(0, 1, 3, 2, 4)
        D = dV + left - right
        return D[:, 0] if alone else D

    return _memo_batch(g._memo, g.chart, ("nabla", T), pts, compute)


def covariant_derivative_11(g: MetricField, T: TensorField, pts: Sequence[Point]) -> np.ndarray:
    """(nabla_i T)^k_j of a (1,1) field T at each point, D[c, i, k, j]: ``covariant_derivatives`` of T alone."""
    if (T.r, T.s) != (1, 1):
        raise ValidationError("covariant_derivative_11 expects a (1,1) field")
    return covariant_derivatives(g, T, pts)


def _gradients(g: MetricField, T: TensorField, pts: Sequence[Point]) -> np.ndarray:
    """dT[c, m, ...] = d_m T at each point, a fresh stack memoised on g per
    (field, point), so that nabla T and the Nijenhuis
    tensor of T read one derivative: T's order-1 jets at points of T's box,
    the distinct misses from one ``T.jets`` call.  A batch that raises
    stores nothing, and its first failing point raises what it raises
    alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        jets = _jets_of(T)
        _check_box(T.chart, qs)
        return jets(qs, 1)[1]

    return _memo_batch(g._memo, g.chart, ("d", T), pts, compute)


def riemann(g: MetricField, centres: Sequence[Point]) -> np.ndarray:
    """Riemann curvature R^l_{kij} at each centre, a fresh (len(centres),
    dim, dim, dim, dim) stack, ``riem[c, l, k, i, j]`` (convention in the
    module docstring), from Gamma and dGamma (``_christoffel_jets``) at the
    centres, anywhere in the closed box.  The distinct misses are one
    stack.  A batch that raises stores nothing, and its first failing
    centre raises what it raises alone."""
    return _memo_batch(g._memo, g.chart, "riem", centres, lambda pts: _curvature(*_christoffel_jets(g, pts)))


def _christoffel_jets(g: MetricField, pts: list[Point], order: int = 1) -> tuple[np.ndarray, ...]:
    """(Gamma, dGamma) at the points, stacked, or (Gamma, dGamma, d2Gamma)
    with ``order`` 2, with dGamma[c, m, k, i, j] = d_m Gamma^k_{ij} and
    d2Gamma[c, p, m, k, i, j] = d_p d_m Gamma^k_{ij}: Gamma and the metric's
    jets to one order more from the memo of g (order 3 for the base of a
    Sasaki lift, whose shifts read d2Gamma), and the partials by
    differentiating g Gamma = T/2 (T as in ``_first_kind``) once and twice:

        d_m Gamma^k_{ij} = -g^{kp} d_m g_{pq} Gamma^q_{ij} + (1/2) g^{kl} d_m T_{lij}

    (``_christoffel_partials``), and d2Gamma as matrix products per point:
    d_p d_m g_{lq} Gamma^q_{ij}, and the product E[c, m, l, p, i, j] = d_m
    g_{lq} d_p Gamma^q_{ij}, whose two transposes are the two mixed terms,
    each with the summed index on the inside, then g^-1 on the left for
    each (p, m).  It has no memo of its own: the batch of its caller
    (``riemann``, or a Sasaki bundle's ``shift_partials``) stores and
    replays it."""
    gam = _christoffels(g, pts, order + 1)
    ginv = np.linalg.inv(g.matrices(pts))
    D, H, *K = _jets(g, pts, order + 1)
    dgam = _christoffel_partials(ginv, gam, D, H)
    if order == 1:
        return gam, dgam
    c, n = gam.shape[:2]
    shape = (c,) + (n,) * 5
    E = (D.reshape(c, n * n, n) @ dgam.transpose(0, 2, 1, 3, 4).reshape(c, n, n**3)).reshape(shape)
    X = (
        0.5 * _first_kind(K[0])
        - (H.reshape(c, n**3, n) @ gam.reshape(c, n, n * n)).reshape(shape)
        - E.transpose(0, 3, 1, 2, 4, 5)
        - E.transpose(0, 1, 3, 2, 4, 5)
    )
    return gam, dgam, (ginv[:, None, None] @ X.reshape(c, n, n, n, n * n)).reshape(shape)


def _christoffel_partials(ginv: np.ndarray, gam: np.ndarray, D: np.ndarray, H: np.ndarray) -> np.ndarray:
    """dgam[c, m, k, i, j] = d_m Gamma^k_{ij} over a stack, from g^-1, Gamma,
    dg and d2g (indexed as in ``_jets``), as matrix products per point.  The
    term g^{kp} d_m g_{pq} Gamma^q_{ij} is two of them, g^-1 with d_m g
    over p for each m, then with Gamma, flattened over (i, j), over q; the
    term g^{kl} d_m T_{lij} is g^-1 with d_m T, flattened over (i, j)."""
    c, n = gam.shape[:2]
    ginv_dg = ginv[:, None] @ D  # [c, m, k, q]
    return (
        -(ginv_dg.reshape(c, n * n, n) @ gam.reshape(c, n, n * n)).reshape(c, n, n, n, n)
        + 0.5 * (ginv[:, None] @ _first_kind(H).reshape(c, n, n, n * n)).reshape(c, n, n, n, n)
    )


def _curvature(gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    """R^l_{kij} from stacks of Gamma and dgam[c, i, l, j, k] = d_i
    Gamma^l_{jk}.  Both Gamma Gamma terms are read from the one product
    P[c, l, a, b, k] = Gamma^l_{am} Gamma^m_{bk}, Gamma flattened over (l, a)
    on the left and over (b, k) on the right: the first is P[l, i, j, k],
    the second P[l, j, i, k]."""
    c, n = gam.shape[:2]
    P = (gam.reshape(c, n * n, n) @ gam.reshape(c, n, n * n)).reshape(c, n, n, n, n)
    return (
        np.einsum("...iljk->...lkij", dgam)
        - np.einsum("...jlik->...lkij", dgam)
        + P.transpose(0, 1, 4, 2, 3)
        - P.transpose(0, 1, 4, 3, 2)
    )


def curvature_operator(riem: np.ndarray, X, Y, Z) -> np.ndarray:
    """R(X, Y, Z)^l = R^l_{kij} X^i Y^j Z^k."""
    return riem @ Y @ X @ Z


def _nijenhuis_tensor(Fp: np.ndarray, dF: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor N[k, i, j] of a (1,1) field on coordinate frames,
    from F at p and its derivative there, dF[m, k, j] = d_m F^k_j; of each
    point of a stack, N[c, k, i, j], for stacks F[c] and dF[c].

    N(X,Y) = F^2 [X,Y] + [FX, FY] - F[FX, Y] - F[X, FY]; on coordinate frames
    the first term drops and the components reduce to

        N^k_{ij} = F^m_i d_m F^k_j - F^m_j d_m F^k_i
                 + F^k_m d_j F^m_i - F^k_m d_i F^m_j.

    The first two terms are read from one product S[i, k, j] = F^m_i d_m
    F^k_j, F^T with dF flattened over (k, j), the last two from one product
    Q[k, i, j] = F^k_m d_i F^m_j, F with dF flattened over (i, j).
    """
    n, lead = Fp.shape[-1], Fp.shape[:-2]
    S = (Fp.swapaxes(-1, -2) @ dF.reshape(lead + (n, n * n))).reshape(dF.shape)
    Q = (Fp @ dF.swapaxes(-3, -2).reshape(lead + (n, n * n))).reshape(dF.shape)
    return S.swapaxes(-3, -2) - np.moveaxis(S, -3, -1) + Q.swapaxes(-1, -2) - Q

