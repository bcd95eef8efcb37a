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

import numpy as np

from .errors import DegenerateMetricError, ShapeError, ValidationError
from .fields import FdConfig, ManifoldSpec, Point, TensorField, central_difference, eval_field, fd_gradient

DET_FLOOR = 1e-9
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class MetricField:
    """A (0,2) field validated as a semi-Riemannian metric at evaluation time:
    symmetric within 1e-12 and |det| > 1e-9 at every point it is asked for.

    The instance memoises g (per point) and, through ``christoffel`` and
    ``riemann``, Gamma and R (per point and FD step).  Only evaluations that
    passed every check are stored, as read-only arrays; a hit repeats the
    chart check, so a point of another chart still raises.
    """

    field: TensorField
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.field.r, self.field.s) != (0, 2):
            raise ValidationError("a metric must be a (0,2) tensor field")

    @property
    def chart(self) -> ManifoldSpec:
        return self.field.chart

    def _memoised(self, kind: str, p: Point, step: float | None, compute) -> np.ndarray:
        """The memo's array for (kind, p, step), else compute() stored there as
        a read-only copy the memo owns, so neither the caller's array nor a
        later hit can be changed; a compute that raises stores nothing."""
        key = (kind, p.coords.tobytes(), step)
        hit = self._memo.get(key)
        if hit is not None:
            if p.chart is not self.chart and p.chart != self.chart:
                raise ValidationError("point and field live on different charts")
            return hit
        stored = np.array(compute(), dtype=float)
        stored.flags.writeable = False
        self._memo[key] = stored
        return stored

    def matrix(self, p: Point) -> np.ndarray:
        def compute():
            g = eval_field(self.field, p)
            if np.abs(g - g.T).max() > SYMMETRY_TOL:
                raise ValidationError(f"metric not symmetric at {p}")
            if abs(np.linalg.det(g)) <= DET_FLOOR:
                raise DegenerateMetricError(f"|det g| <= {DET_FLOOR} at {p}")
            return g

        return self._memoised("g", p, None, compute)


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

    def compute():
        ginv = np.linalg.inv(g.matrix(p))
        partials = central_difference(g.matrix, p, cfg)  # partials[i, l, j] = d_i g_{lj}
        term = (
            np.einsum("ilj->lij", partials)
            + np.einsum("jli->lij", partials)
            - partials
        )
        return 0.5 * np.einsum("kl,lij->kij", ginv, term)

    return g._memoised("gamma", p, cfg.step, compute)


def covariant_derivative_11(
    g: MetricField, T: TensorField, p: Point, cfg: FdConfig = FdConfig()
) -> np.ndarray:
    """(nabla_i T)^k_j for a (1,1) field; returns D[i, k, j]."""
    if (T.r, T.s) != (1, 1):
        raise ValidationError("covariant_derivative_11 expects a (1,1) field")
    gam = christoffel(g, p, cfg)
    Tp = eval_field(T, p)
    dT = fd_gradient(T, p, cfg)  # [i, k, j]
    return (
        dT
        + np.einsum("kil,lj->ikj", gam, Tp)
        - np.einsum("lij,kl->ikj", gam, Tp)
    )


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
    ``riem[l, k, i, j]`` (convention in the module docstring)."""

    def compute():
        gam = christoffel(g, p, cfg)
        # dgam[i, l, j, k] = d_i Gamma^l_{jk}
        dgam = central_difference(lambda q: christoffel(g, q, cfg), p, cfg)
        return (
            np.einsum("iljk->lkij", dgam)
            - np.einsum("jlik->lkij", dgam)
            + np.einsum("lim,mjk->lkij", gam, gam)
            - np.einsum("ljm,mik->lkij", gam, gam)
        )

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
