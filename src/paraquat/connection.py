"""Levi-Civita connection and curvature by finite differences.

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

from .errors import DegenerateMetricError, ShapeError, ValidationError
from .fields import (
    FdConfig,
    ManifoldSpec,
    Point,
    TensorField,
    _check_point,
    _checked_values,
    central_difference,
    eval_field,
    fd_gradient,
)

DET_FLOOR = 1e-9
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class MetricField:
    """A (0,2) field validated as a semi-Riemannian metric at evaluation time:
    symmetric within 1e-12 and, at every point it is asked for, |det| above
    1e-9 times the product of its row norms (Hadamard's bound on |det|), a
    test that does not change when the metric is scaled.

    The instance memoises g (per point) and, through ``christoffel``,
    ``riemann``, ``covariant_derivative_11`` and ``structures``, Gamma, R,
    the derivatives of (1,1) fields, their Nijenhuis tensors and the Kähler
    1-form fits (per point and FD step, the last three also per field or
    triple).  Only
    evaluations that passed every check are stored, as read-only arrays; a
    hit repeats the chart check, so a point of another chart still raises.
    """

    field: TensorField
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.field.r, self.field.s) != (0, 2):
            raise ValidationError("a metric must be a (0,2) tensor field")

    @property
    def chart(self) -> ManifoldSpec:
        return self.field.chart

    def _lookup(self, key, p: Point):
        """The memo's value under key, None on a miss; a hit at a point of
        another chart raises as an evaluation there would."""
        hit = self._memo.get(key)
        if hit is not None and p.chart is not self.chart and p.chart != self.chart:
            raise ValidationError("point and field live on different charts")
        return hit

    def _memoised(self, kind, p: Point, step: float | None, compute):
        """The memo's value for (kind, p, step), else compute()'s, stored
        there; compute returns what the memo may own and hand out (read-only
        arrays), and a compute that raises stores nothing."""
        key = (kind, p.coords.tobytes(), step)
        hit = self._lookup(key, p)
        if hit is None:
            hit = self._memo[key] = compute()
        return hit

    def matrix(self, p: Point) -> np.ndarray:
        return self.matrices([p])[0]

    def matrices(self, points: Sequence[Point]) -> list[np.ndarray]:
        """g at each point, as the memo's read-only arrays: the batch form
        of ``matrix``.

        Memo hits are reused.  The components of each miss are evaluated
        once, in order; then the misses' chart, shape, finiteness, symmetry
        and determinant checks run as one test, and the first point that
        fails one, or whose components raised, raises what it would raise
        alone.  A batch that raises stores nothing.
        """
        memo, field = self._memo, self.field
        keys, fresh, values = [], {}, []
        stop = None  # (point, exception, components) where the batch ended
        for q in points:
            key = ("g", q.coords.tobytes(), None)
            keys.append(key)
            if q.chart is not self.chart and q.chart != self.chart:
                stop = (q, None, None)
                break
            if key in memo or key in fresh:
                continue
            try:
                v = np.asarray(field.components(q), dtype=float)
            except Exception as exc:
                stop = (q, exc, None)
                break
            if v.shape != field.shape:
                stop = (q, None, v)
                break
            fresh[key] = q
            values.append(v)
        if fresh:
            V = np.array(values)
            pts = list(fresh.values())
            bad = self._first_invalid(pts, V)
            if bad is not None:  # raise its first failure, as eval_field would
                q = pts[bad]
                _check_point(field, q)
                g = _checked_values(field, q, V[bad])
                if np.abs(g - g.T).max() > SYMMETRY_TOL:
                    raise ValidationError(f"metric not symmetric at {q}")
                raise DegenerateMetricError(f"|det g| <= {DET_FLOOR} x the product of its row norms at {q}")
        if stop is not None:
            q, exc, v = stop
            _check_point(field, q)
            if exc is not None:
                raise exc
            _checked_values(field, q, v)
        if fresh:
            V.flags.writeable = False
            memo.update(zip(fresh, V))
        return [memo[key] for key in keys]

    def _first_invalid(self, pts: list[Point], V: np.ndarray) -> int | None:
        """Index of the first point that fails a check of ``matrix``, tested
        at once over the stack: the domain of each point, then the
        finiteness, symmetry and determinant of its value ``V[i]``."""
        lo, hi = self.chart.domain[:, 0], self.chart.domain[:, 1]
        C = np.array([q.coords for q in pts])
        bad = ~((lo <= C) & (C <= hi)).all(axis=1) | ~np.isfinite(V).all(axis=(1, 2))
        k = int(bad.argmax()) if bad.any() else len(V)
        if k:  # symmetry and determinant only of the finite values before that
            W = V[:k]
            bad[:k] |= np.abs(W - W.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL
            bad[:k] |= np.abs(np.linalg.det(W)) <= DET_FLOOR * np.linalg.norm(W, axis=2).prod(axis=1)
        return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True)
class FlatnessVerdict:
    flat: bool
    max_residual: float
    points_checked: int


def christoffel(g: MetricField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij}) as a
    read-only (dim, dim, dim) array, ``gamma[k, i, j] = Gamma^k_{ij}``.

    Metric partials are central differences; the metric's nondegeneracy is
    checked at the center and at every stencil point.
    """
    return _christoffels(g, [p], cfg)[0]


def _christoffels(g: MetricField, centres: Sequence[Point], cfg: FdConfig) -> list[np.ndarray]:
    """``christoffel`` at each centre, as the memo's read-only arrays.  The
    misses are assembled together: g at the centres, then g on all their
    stencils in one ``central_difference``, one ``inv`` and one ``einsum``
    over the stack; each result is stored as it would be alone."""
    keys = [("gamma", q.coords.tobytes(), cfg.step) for q in centres]
    out = [g._lookup(key, q) for key, q in zip(keys, centres)]
    todo = [k for k, hit in enumerate(out) if hit is None]
    if todo:
        pts = [centres[k] for k in todo]
        ginv = np.linalg.inv(g.matrices(pts))
        partials = central_difference(g.matrices, pts, cfg)  # partials[c, i, l, j] = d_i g_{lj}
        term = (
            np.einsum("cilj->clij", partials)
            + np.einsum("cjli->clij", partials)
            - partials
        )
        gam = 0.5 * np.einsum("ckl,clij->ckij", ginv, term)
        gam.flags.writeable = False
        for k, value in zip(todo, gam):
            out[k] = g._memo[keys[k]] = value
    return out


def covariant_derivative_11(
    g: MetricField, T: TensorField, p: Point, cfg: FdConfig = FdConfig()
) -> np.ndarray:
    """(nabla_i T)^k_j for a (1,1) field; returns D[i, k, j], read-only and
    memoised on g per (field, point, step) like Gamma."""
    if (T.r, T.s) != (1, 1):
        raise ValidationError("covariant_derivative_11 expects a (1,1) field")

    def compute():
        gam = christoffel(g, p, cfg)
        Tp = eval_field(T, p)
        dT = fd_gradient(T, p, cfg)  # [i, k, j]
        D = (
            dT
            + np.einsum("kil,lj->ikj", gam, Tp)
            - np.einsum("lij,kl->ikj", gam, Tp)
        )
        D.flags.writeable = False
        return D

    return g._memoised(("nabla", T), p, cfg.step, compute)


def covariant_derivative_vector(
    g: MetricField, W: TensorField, u, p: Point, cfg: FdConfig = FdConfig()
) -> np.ndarray:
    """(nabla_u W)^k = u^m d_m W^k + Gamma^k_{ml} u^m W^l for a (1,0) field W
    and a tangent vector u at p."""
    if (W.r, W.s) != (1, 0):
        raise ValidationError("covariant_derivative_vector expects a (1,0) field")
    n = g.chart.dim
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ShapeError(f"direction has shape {u.shape}, expected ({n},)")
    gam = christoffel(g, p, cfg)
    dW = fd_gradient(W, p, cfg)  # dW[m, k]
    return np.einsum("m,mk->k", u, dW) + np.einsum("kml,m,l->k", gam, u, eval_field(W, p))


def lie_bracket(U: TensorField, W: TensorField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """[U, W]^k = U^m d_m W^k - W^m d_m U^k for two (1,0) fields."""
    for f in (U, W):
        if (f.r, f.s) != (1, 0):
            raise ValidationError("lie_bracket expects (1,0) fields")
    dW = fd_gradient(W, p, cfg)
    dU = fd_gradient(U, p, cfg)
    return np.einsum("m,mk->k", eval_field(U, p), dW) - np.einsum(
        "m,mk->k", eval_field(W, p), dU
    )


def covariant_derivative_02(
    g: MetricField, T: TensorField, p: Point, cfg: FdConfig = FdConfig()
) -> np.ndarray:
    """(nabla_i T)_{jk} for a (0,2) field; returns D[i, j, k].

    Applied to the metric itself this must vanish (metric compatibility of the
    Levi-Civita connection), which the test suite uses as a cross-check of the
    Christoffel assembly.
    """
    if (T.r, T.s) != (0, 2):
        raise ValidationError("covariant_derivative_02 expects a (0,2) field")
    gam = christoffel(g, p, cfg)
    Tp = eval_field(T, p)
    dT = fd_gradient(T, p, cfg)  # [i, j, k]
    return (
        dT
        - np.einsum("lij,lk->ijk", gam, Tp)
        - np.einsum("lik,jl->ijk", gam, Tp)
    )


def riemann(g: MetricField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Riemann curvature R^l_{kij} at p as a read-only (dim,)*4 array,
    ``riem[l, k, i, j]`` (convention in the module docstring).  Gamma at the
    2n stencil neighbours of p, and g on their stencils, come in one batch."""

    def compute():
        gam = christoffel(g, p, cfg)
        # dgam[i, l, j, k] = d_i Gamma^l_{jk}
        dgam = central_difference(lambda qs: _christoffels(g, qs, cfg), p, cfg)
        riem = (
            np.einsum("iljk->lkij", dgam)
            - np.einsum("jlik->lkij", dgam)
            + np.einsum("lim,mjk->lkij", gam, gam)
            - np.einsum("ljm,mik->lkij", gam, gam)
        )
        riem.flags.writeable = False
        return riem

    return g._memoised("riem", p, cfg.step, compute)


def curvature_operator(riem: np.ndarray, X, Y, Z) -> np.ndarray:
    """R(X, Y, Z)^l = R^l_{kij} X^i Y^j Z^k."""
    return np.einsum("lkij,i,j,k->l", riem, X, Y, Z)


def nijenhuis(F: TensorField, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """Nijenhuis tensor of a (1,1) field on coordinate frames; returns N[k, i, j].

    N(X,Y) = F^2 [X,Y] + [FX, FY] - F[FX, Y] - F[X, FY]; on coordinate frames
    the first term drops and the components reduce to

        N^k_{ij} = F^m_i d_m F^k_j - F^m_j d_m F^k_i
                 + F^k_m d_j F^m_i - F^k_m d_i F^m_j.
    """
    if (F.r, F.s) != (1, 1):
        raise ValidationError("nijenhuis expects a (1,1) field")
    Fp = eval_field(F, p)
    dF = fd_gradient(F, p, cfg)  # [m, k, j]
    t1 = np.einsum("mi,mkj->kij", Fp, dF)
    t2 = np.einsum("mj,mki->kij", Fp, dF)
    t3 = np.einsum("km,jmi->kij", Fp, dF)
    t4 = np.einsum("km,imj->kij", Fp, dF)
    return t1 - t2 + t3 - t4


def is_flat(g: MetricField, pts: list[Point], tol: float = 1e-3, cfg: FdConfig = FdConfig()) -> FlatnessVerdict:
    """Flat iff max |R| over the sample stays below tol."""
    if not pts:
        raise ValidationError("is_flat needs at least one point")
    worst = 0.0
    for p in pts:
        worst = max(worst, float(np.abs(riemann(g, p, cfg)).max()))
    return FlatnessVerdict(flat=worst < tol, max_residual=worst, points_checked=len(pts))


def signature(g: MetricField, p: Point) -> tuple[int, int]:
    """(n_plus, n_minus) eigenvalue counts of g at p."""
    gp = g.matrix(p)  # raises DegenerateMetricError when singular
    ev = np.linalg.eigvalsh(gp)
    return int((ev > 0).sum()), int((ev < 0).sum())
