"""Classification of (metric, triple) pairs and product structures.

The central fit: a pair is paraquaternionic Kähler when the covariant
derivatives of the basis stay inside its span,

    nabla J_1 = -w3 (x) J_2 + w2 (x) J_3
    nabla J_2 =  w1 (x) J_3 + w3 (x) J_1
    nabla J_3 =  w2 (x) J_1 + w1 (x) J_2

for 1-forms (w1, w2, w3).  Coefficients are extracted in closed form by the
trace pairing — tr(J_a J_b) = 0 for a != b while tr(J_a^2) = -tau_a dim, so
the stacked system is diagonal and each w_k is the average of its two slot
estimates.  The residual is the reconstruction error, so anything outside the
span shows up no matter what the fit returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import TAU, CYCLIC, LocalBasisTriple
from .connection import MetricField, _christoffels, _gradient, _nijenhuis_tensor, covariant_derivative_11
from .errors import IllConditionedError, ParaquatError, PreconditionFailedError, ValidationError
from .fields import FdConfig, Point, TensorField, eval_field

TRACE_FLOOR = 1e-9


class StructureClass(str, Enum):
    NOT_HERMITIAN = "NotHermitian"
    HERMITIAN_ONLY = "HermitianOnly"
    PQK = "PQK"
    LHPK_BASIS = "LhPK-basis"


def check_hermitian(g: MetricField, T: LocalBasisTriple, p: Point) -> float:
    """max_a |J_a^T g + g J_a| at p; zero means every J_a is g-skew."""
    gp = g.matrix(p)
    J = T.matrices(p)
    return max(float(np.abs(J[a].T @ gp + gp @ J[a]).max()) for a in range(3))


def span_combination(w, J) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The span-parallel values of (nabla J_1, nabla J_2, nabla J_3) along one
    direction, given w = (w1, w2, w3) on it and J the stacked triple."""
    w1, w2, w3 = w
    return (
        -w3 * J[1] + w2 * J[2],
        w1 * J[2] + w3 * J[0],
        w2 * J[0] + w1 * J[1],
    )


@dataclass(frozen=True)
class KahlerFit:
    point: Point
    omega: np.ndarray  # (3, dim): omega[a-1, i] = w_a(d_i)
    residual: float
    nabla: np.ndarray  # (3, dim, dim, dim): nabla[a-1] = D[i, k, j] of J_a


def fit_kahler_oneforms(
    g: MetricField, T: LocalBasisTriple, p: Point, cfg: FdConfig = FdConfig()
) -> KahlerFit:
    """Fit (w1, w2, w3) at p and report the off-span reconstruction residual.

    The fit is memoised on g per (T, point, FD step), like Gamma and R: a
    second fit there repeats the chart check and returns the same read-only
    ``omega`` and ``nabla``, and a fit that raises stores nothing.
    """
    omega, residual, D = g._memoised(("fit", T), p, cfg.step, lambda: _fit(g, T, p, cfg))
    return KahlerFit(point=p, omega=omega, residual=residual, nabla=D)


def _fit(
    g: MetricField, T: LocalBasisTriple, p: Point, cfg: FdConfig
) -> tuple[np.ndarray, float, np.ndarray]:
    """(omega, residual, nabla) of ``fit_kahler_oneforms``, arrays read-only."""
    n = g.chart.dim
    J = T.matrices(p)
    traces = np.array([np.trace(J[b] @ J[b]) for b in range(3)])
    if np.any(np.abs(traces) < TRACE_FLOOR):
        raise IllConditionedError(f"degenerate trace pairing at {p}: {traces}")
    D = np.stack([covariant_derivative_11(g, f, p, cfg) for f in T.fields])  # D[a, i, k, j]

    def slot(a: int, b: int, i: int) -> float:
        # coefficient of J_b inside (nabla_i J_a)
        return float(np.einsum("kj,jk->", D[a][i], J[b]) / traces[b])

    omega = np.empty((3, n))
    for i in range(n):
        c12, c13 = slot(0, 1, i), slot(0, 2, i)
        c23, c21 = slot(1, 2, i), slot(1, 0, i)
        c31, c32 = slot(2, 0, i), slot(2, 1, i)
        omega[0, i] = 0.5 * (c23 + c32)
        omega[1, i] = 0.5 * (c13 + c31)
        omega[2, i] = 0.5 * (c21 - c12)
    residual = 0.0
    for i in range(n):
        recon = span_combination(omega[:, i], J)
        for a in range(3):
            residual = max(residual, float(np.abs(D[a][i] - recon[a]).max()))
    omega.flags.writeable = D.flags.writeable = False
    return omega, residual, D


@dataclass(frozen=True)
class StructureVerdict:
    cls: StructureClass
    hermitian_max: float
    nabla_max: float
    fit_residual_max: float
    points_checked: int


def classify_structure(
    g: MetricField,
    T: LocalBasisTriple,
    pts: list[Point],
    tol: float = 1e-6,
    cfg: FdConfig = FdConfig(),
) -> StructureVerdict:
    """Ladder over the sample: NotHermitian -> LhPK-basis -> PQK -> HermitianOnly.

    LhPK-basis means this basis is already parallel (max |nabla J_a| < tol);
    PQK means the derivatives stay in the span (fit residual < tol) even though
    the basis itself is not parallel.  Gamma at the whole sample comes in one
    batch, which the fits then read.
    """
    if not pts:
        raise ValidationError("classify_structure needs at least one point")
    herm = max(check_hermitian(g, T, p) for p in pts)
    try:
        _christoffels(g, pts, cfg)
    except ParaquatError:
        pass  # the batch stored nothing; the fits below raise in their own order
    nab = 0.0
    fit_res = 0.0
    for p in pts:
        fit = fit_kahler_oneforms(g, T, p, cfg)
        fit_res = max(fit_res, fit.residual)
        nab = max(nab, float(np.abs(fit.nabla).max()))
    if herm >= tol:
        cls = StructureClass.NOT_HERMITIAN
    elif nab < tol:
        cls = StructureClass.LHPK_BASIS
    elif fit_res < tol:
        cls = StructureClass.PQK
    else:
        cls = StructureClass.HERMITIAN_ONLY
    return StructureVerdict(
        cls=cls,
        hermitian_max=herm,
        nabla_max=nab,
        fit_residual_max=fit_res,
        points_checked=len(pts),
    )


@dataclass(frozen=True)
class ProductStructureField:
    """A (1,1) field meant to square to the identity without being +/-I."""

    field: TensorField
    label: str = ""

    def __post_init__(self):
        if (self.field.r, self.field.s) != (1, 1):
            raise ValidationError("product structure must be a (1,1) field")


@dataclass(frozen=True)
class ProductReport:
    involution_residual: float  # |F^2 - I|
    metric_residual: float      # |F^T g F - g|
    nijenhuis_residual: float   # |N_F|
    parallel_residual: float    # |nabla F|

    @property
    def max_residual(self) -> float:
        return max(
            self.involution_residual,
            self.metric_residual,
            self.nijenhuis_residual,
            self.parallel_residual,
        )


def _nijenhuis(g: MetricField, F: ProductStructureField, p: Point, cfg: FdConfig) -> np.ndarray:
    """N_F at p, read-only and memoised on g per (field, point, step), so the
    product and equivalence checks of one run compute it once; it reads the
    derivative of F that nabla F reads."""

    def compute():
        N = _nijenhuis_tensor(eval_field(F.field, p), _gradient(g, F.field, p, cfg))
        N.flags.writeable = False
        return N

    return g._memoised(("nijenhuis", F.field), p, cfg.step, compute)


def check_product_structure(
    g: MetricField,
    F: ProductStructureField,
    p: Point,
    cfg: FdConfig = FdConfig(),
) -> ProductReport:
    """The four residuals of an almost product pair (g, F) at p."""
    n = g.chart.dim
    Fp = eval_field(F.field, p)
    gp = g.matrix(p)
    inv = float(np.abs(Fp @ Fp - np.eye(n)).max())
    met = float(np.abs(Fp.T @ gp @ Fp - gp).max())
    nij = float(np.abs(_nijenhuis(g, F, p, cfg)).max())
    par = float(np.abs(covariant_derivative_11(g, F.field, p, cfg)).max())
    return ProductReport(inv, met, nij, par)


def check_sigma_invariant_operator(
    F: ProductStructureField, T: LocalBasisTriple, p: Point
) -> float:
    """max_a |J_a F - F J_a| at p; zero when F preserves the structure bundle."""
    Fp = eval_field(F.field, p)
    J = T.matrices(p)
    return max(float(np.abs(J[a] @ Fp - Fp @ J[a]).max()) for a in range(3))


@dataclass(frozen=True)
class EquivalenceReport:
    parallel_residual: float
    nijenhuis_residual: float
    mixed_residual: float
    flags: tuple[bool, bool, bool]

    @property
    def agree(self) -> bool:
        return len(set(self.flags)) == 1


def check_parallel_equivalence(
    g: MetricField,
    F: ProductStructureField,
    T: LocalBasisTriple,
    pts: list[Point],
    cfg: FdConfig = FdConfig(),
    tol: float = 1e-6,
) -> EquivalenceReport:
    """For a sigma-invariant F on a PQK pair, the three conditions

        (i)  nabla F = 0
        (ii) N_F = 0
        (iii) (nabla_{J_a X} F)(Y) = (nabla_X F)(J_a Y)  for all a

    stand or fall together; this evaluates all three residuals over the sample
    and reports whether the pass/fail flags agree at tolerance tol.

    Raises PreconditionFailedError when F is not sigma-invariant or the pair
    does not classify as PQK/LhPK-basis — the equivalence is only asserted
    under those hypotheses.
    """
    if not pts:
        raise ValidationError("check_parallel_equivalence needs points")
    sig = max(check_sigma_invariant_operator(F, T, p) for p in pts)
    if sig >= tol:
        raise PreconditionFailedError(
            f"F is not sigma-invariant (residual {sig:.3e} >= {tol:.1e})"
        )
    verdict = classify_structure(g, T, pts, tol=tol, cfg=cfg)
    if verdict.cls not in (StructureClass.PQK, StructureClass.LHPK_BASIS):
        raise PreconditionFailedError(
            f"(g, T) classifies as {verdict.cls.value}, need PQK or LhPK-basis"
        )
    r_par = 0.0
    r_nij = 0.0
    r_mix = 0.0
    for p in pts:
        D = covariant_derivative_11(g, F.field, p, cfg)  # [i, k, j]
        r_par = max(r_par, float(np.abs(D).max()))
        r_nij = max(r_nij, float(np.abs(_nijenhuis(g, F, p, cfg)).max()))
        J = T.matrices(p)
        for a in range(3):
            mixed = np.einsum("mi,mkj->ikj", J[a], D) - np.einsum(
                "ikm,mj->ikj", D, J[a]
            )
            r_mix = max(r_mix, float(np.abs(mixed).max()))
    flags = (r_par < tol, r_nij < tol, r_mix < tol)
    return EquivalenceReport(
        parallel_residual=r_par,
        nijenhuis_residual=r_nij,
        mixed_residual=r_mix,
        flags=flags,
    )
