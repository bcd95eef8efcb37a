"""Levi-Civita connection and curvature, from exact jets.

A metric's field gives dg and d2g from its jets, and Gamma and R are closed
forms in g, dg and d2g, with g itself the field's checked value.  The
partials of a (1,1) field, behind nabla T and N_F, come from its jets the
same way.  A field without jets raises ValidationError (``fields._jets_of``).

Index conventions used throughout the package:

* Christoffel symbols           ``gamma[k, i, j] = Gamma^k_{ij}``
* covariant derivative (1,1)    ``D[i, k, j] = (nabla_i T)^k_j``
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

from .errors import DegenerateMetricError, ValidationError
from .fields import (
    FdConfig,
    ManifoldSpec,
    Point,
    TensorField,
    _check_chart,
    _jets_of,
    _memo_batch,
    _require_stencils,
    eval_batch,
)

DET_FLOOR = 1e-9
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class MetricField:
    """A (0,2) field validated as a semi-Riemannian metric at evaluation time:
    symmetric within 1e-12 and, at every point it is asked for, |det| above
    1e-9 times the product of its row norms (Hadamard's bound on |det|), a
    test that does not change when the metric is scaled.

    The instance memoises g, and the jets dg and d2g of its field (per
    point; d3g too at the base of a Sasaki lift), and, through ``christoffel``,
    ``riemann``, ``covariant_derivative_11`` and ``structures``, Gamma, R,
    the partial and covariant derivatives of (1,1) fields, their Nijenhuis
    tensors and the Kähler 1-form fits (per point and step, the last four
    also per field or triple).  Every one of them is read and filled by
    ``fields._memo_batch``: only evaluations that passed every check are
    stored, as read-only arrays, and a hit repeats the chart check, so a
    point of another chart still raises.
    """

    field: TensorField
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.field.r, self.field.s) != (0, 2):
            raise ValidationError("a metric must be a (0,2) tensor field")

    @property
    def chart(self) -> ManifoldSpec:
        return self.field.chart

    def _memoised(self, kind, p: Point, step: float | None, compute):
        """The memo's value for (kind, p, step), else compute()'s, stored
        there: ``fields._memo_batch`` for one point."""
        return _memo_batch(self._memo, self.chart, kind, step, [p], lambda qs: [compute()])[0]

    def matrix(self, p: Point) -> np.ndarray:
        return self.matrices([p])[0]

    def matrices(self, points: Sequence[Point]) -> list[np.ndarray]:
        """g at each point, as the memo's read-only arrays: the batch form
        of ``matrix``.

        The distinct misses are evaluated together: their domain is tested
        at once, their components come from one ``field.batch`` (one
        ``field.components`` per miss for a field without one), and their
        shape, finiteness, symmetry and determinant are tested over the
        stack.  A batch that raises stores nothing, and its first failing
        point raises what it raises alone.
        """
        return _memo_batch(
            self._memo, self.chart, "g", None, points, self._checked,
            one=lambda q: MetricField(self.field).matrix(q),
        )

    def _checked(self, pts: list[Point]) -> np.ndarray:
        """g at the points, stacked read-only: ``eval_batch``'s checks, then
        the symmetry and determinant of the whole stack in one test.  A
        point that fails one raises the error it raises alone; of one point,
        that is the error of ``matrix``, and ``matrices`` replays a batch of
        several."""
        V = eval_batch(self.field, pts)
        asym = np.abs(V - V.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL
        bad = asym | (np.abs(np.linalg.det(V)) <= DET_FLOOR * np.linalg.norm(V, axis=2).prod(axis=1))
        if bad.any():
            k = int(bad.argmax())
            if asym[k]:
                raise ValidationError(f"metric not symmetric at {pts[k]}")
            raise DegenerateMetricError(f"|det g| <= {DET_FLOOR} x the product of its row norms at {pts[k]}")
        V.flags.writeable = False
        return V


@dataclass(frozen=True)
class FlatnessVerdict:
    flat: bool
    max_residual: float
    points_checked: int


def christoffel(g: MetricField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij}) as a
    read-only (dim, dim, dim) array, ``gamma[k, i, j] = Gamma^k_{ij}``.

    The metric partials come from the field's exact jets, and the stencil
    of cfg.step around p must lie in the chart.
    """
    return _christoffels(g, [p], cfg)[0]


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
    "jet" too."""

    def compute(qs: list[Point]) -> list:
        partials = _jets_of(g.field)(qs, order)[1:]
        for A in partials:
            A.flags.writeable = False
        if order == 3:
            pairs = {q.coords.tobytes(): (D, H) for q, D, H in zip(qs, *partials[:2])}
            _memo_batch(g._memo, g.chart, "jet", None, qs, lambda new: [pairs[q.coords.tobytes()] for q in new])
        return list(zip(*partials))

    kind = "jet" if order == 2 else "jet3"
    return tuple(np.array(A) for A in zip(*_memo_batch(g._memo, g.chart, kind, None, pts, compute)))


def _christoffels(
    g: MetricField, centres: Sequence[Point], cfg: FdConfig, order: int = 2
) -> list[np.ndarray]:
    """``christoffel`` at each centre, as the memo's read-only arrays.  The
    distinct misses are assembled together: g at the centres, then dg from
    the jets (``_jets`` of ``order``: 3 for the base of a Sasaki lift, whose
    shifts read d3g next), one ``inv`` and one ``einsum`` over the stack.
    A batch that raises stores nothing, and its first failing centre raises
    what it raises alone."""

    def compute(pts: list[Point]) -> np.ndarray:
        ginv = np.linalg.inv(g.matrices(pts))
        _require_stencils(pts, cfg.step)
        gam = 0.5 * np.einsum("ckl,clij->ckij", ginv, _first_kind(_jets(g, pts, order)[0]))
        gam.flags.writeable = False
        return gam

    return _memo_batch(
        g._memo, g.chart, "gamma", cfg.step, centres, compute,
        one=lambda q: christoffel(MetricField(g.field), q, cfg),
    )


def covariant_derivative_11(
    g: MetricField, T: TensorField, p: Point, cfg: FdConfig = FdConfig()
) -> np.ndarray:
    """(nabla_i T)^k_j for a (1,1) field; returns D[i, k, j], read-only and
    memoised on g per (field, point, step) like Gamma."""
    return _covariant_derivatives(g, T, [p], cfg)[0]


def _covariant_derivatives(
    g: MetricField, T: TensorField, pts: Sequence[Point], cfg: FdConfig
) -> list[np.ndarray]:
    """``covariant_derivative_11`` at each point, as the memo's read-only
    arrays.  The distinct misses are one stack: Gamma from one
    ``_christoffels``, T from one ``eval_batch``, dT from one ``_gradients``,
    and D = dT + Gamma T - T Gamma in two batched ``einsum`` calls, which
    round as the one-point ones do.  A batch that raises stores nothing, and
    its first failing point raises what it raises alone."""
    if (T.r, T.s) != (1, 1):
        raise ValidationError("covariant_derivative_11 expects a (1,1) field")

    def compute(qs: list[Point]) -> np.ndarray:
        gam = np.array(_christoffels(g, qs, cfg))
        V = eval_batch(T, qs)
        dT = np.array(_gradients(g, T, qs, cfg))  # [c, i, k, j]
        D = (
            dT
            + np.einsum("ckil,clj->cikj", gam, V)
            - np.einsum("clij,ckl->cikj", gam, V)
        )
        D.flags.writeable = False
        return D

    return _memo_batch(
        g._memo, g.chart, ("nabla", T), cfg.step, pts, compute,
        one=lambda q: covariant_derivative_11(MetricField(g.field), T, q, cfg),
    )


def _gradient(g: MetricField, T: TensorField, p: Point, cfg: FdConfig) -> np.ndarray:
    """dT[m, ...] = d_m T at p, read-only and memoised on g per (field,
    point, step), so that nabla T and the Nijenhuis tensor of T read one
    derivative: T's order-1 jets, under the stencil rule of
    ``christoffel``."""
    return _gradients(g, T, [p], cfg)[0]


def _gradients(g: MetricField, T: TensorField, pts: Sequence[Point], cfg: FdConfig) -> list[np.ndarray]:
    """``_gradient`` at each point, as the memo's read-only arrays: the
    distinct misses from one ``T.jets`` call.  A batch that raises stores
    nothing, and its first failing point raises what it raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        jets = _jets_of(T)
        for q in qs:
            _check_chart(T.chart, q)
        _require_stencils(qs, cfg.step)
        dT = np.array(jets(qs, 1)[1])
        dT.flags.writeable = False
        return dT

    return _memo_batch(
        g._memo, g.chart, ("d", T), cfg.step, pts, compute,
        one=lambda q: _gradient(MetricField(g.field), T, q, cfg),
    )


def riemann(g: MetricField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Riemann curvature R^l_{kij} at p as a read-only (dim,)*4 array,
    ``riem[l, k, i, j]`` (convention in the module docstring).  The
    stencils nested two deep around p must lie in the chart."""
    return _riemanns(g, [p], cfg)[0]


def _riemanns(g: MetricField, centres: Sequence[Point], cfg: FdConfig) -> list[np.ndarray]:
    """``riemann`` at each centre, as the memo's read-only arrays.  The
    distinct misses are one stack:

        d_m Gamma^k_{ij} = -g^{kp} d_m g_{pq} Gamma^q_{ij} + (1/2) g^{kl} d_m T_{lij}

    with T as in ``_first_kind``.  A batch that raises stores nothing, and its
    first failing centre raises what it raises alone."""

    def compute(pts: list[Point]) -> list[np.ndarray]:
        gam = np.array(_christoffels(g, pts, cfg))
        _require_stencils(pts, cfg.step, depth=2)
        ginv = np.linalg.inv(g.matrices(pts))
        return list(_curvature(gam, _christoffel_partials(ginv, gam, *_jets(g, pts))))

    return _memo_batch(
        g._memo, g.chart, "riem", cfg.step, centres, compute,
        one=lambda q: riemann(MetricField(g.field), q, cfg),
    )


def _christoffel_partials(ginv: np.ndarray, gam: np.ndarray, D: np.ndarray, H: np.ndarray) -> np.ndarray:
    """dgam[c, m, k, i, j] = d_m Gamma^k_{ij} over a stack, from g^-1, Gamma,
    dg and d2g (indexed as in ``_jets``)."""
    return (
        -np.einsum("ckp,cmpq,cqij->cmkij", ginv, D, gam)
        + 0.5 * np.einsum("ckl,cmlij->cmkij", ginv, _first_kind(H))
    )


def _curvature(gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    """R^l_{kij}, read-only, from Gamma and dgam[..., i, l, j, k] =
    d_i Gamma^l_{jk}, for one point or a stack."""
    riem = (
        np.einsum("...iljk->...lkij", dgam)
        - np.einsum("...jlik->...lkij", dgam)
        + np.einsum("...lim,...mjk->...lkij", gam, gam)
        - np.einsum("...ljm,...mik->...lkij", gam, gam)
    )
    riem.flags.writeable = False
    return riem


def curvature_operator(riem: np.ndarray, X, Y, Z) -> np.ndarray:
    """R(X, Y, Z)^l = R^l_{kij} X^i Y^j Z^k."""
    return np.einsum("lkij,i,j,k->l", riem, X, Y, Z)


def _nijenhuis_tensor(Fp: np.ndarray, dF: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor N[k, i, j] of a (1,1) field on coordinate frames,
    from F at p and its derivative there, dF[m, k, j] = d_m F^k_j.

    N(X,Y) = F^2 [X,Y] + [FX, FY] - F[FX, Y] - F[X, FY]; on coordinate frames
    the first term drops and the components reduce to

        N^k_{ij} = F^m_i d_m F^k_j - F^m_j d_m F^k_i
                 + F^k_m d_j F^m_i - F^k_m d_i F^m_j.
    """
    t1 = np.einsum("mi,mkj->kij", Fp, dF)
    t2 = np.einsum("mj,mki->kij", Fp, dF)
    t3 = np.einsum("km,jmi->kij", Fp, dF)
    t4 = np.einsum("km,imj->kij", Fp, dF)
    return t1 - t2 + t3 - t4


def is_flat(g: MetricField, pts: list[Point], tol: float = 1e-3, cfg: FdConfig = FdConfig()) -> FlatnessVerdict:
    """Flat iff max |R| over the sample stays below tol; R at the whole
    sample comes in one batch."""
    if not pts:
        raise ValidationError("is_flat needs at least one point")
    worst = max(float(np.abs(R).max()) for R in _riemanns(g, pts, cfg))
    return FlatnessVerdict(flat=worst < tol, max_residual=worst, points_checked=len(pts))

