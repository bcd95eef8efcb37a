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
from typing import Sequence

import numpy as np

from .algebra import LocalBasisTriple
from .connection import MetricField, _covariant_derivatives, _gradient, _nijenhuis_tensor, covariant_derivative_11
from .errors import IllConditionedError, PreconditionFailedError, ValidationError
from .fields import FdConfig, Point, TensorField, _memo_batch, eval_field

TRACE_FLOOR = 1e-9


class StructureClass(str, Enum):
    NOT_HERMITIAN = "NotHermitian"
    HERMITIAN_ONLY = "HermitianOnly"
    PQK = "PQK"
    LHPK_BASIS = "LhPK-basis"


def check_hermitian(g: MetricField, T: LocalBasisTriple, p: Point) -> float:
    """max_a |J_a^T g + g J_a| at p; zero means every J_a is g-skew."""
    return _hermitians(g, T, [p])[0]


def _hermitians(g: MetricField, T: LocalBasisTriple, pts: Sequence[Point]) -> list[float]:
    """``check_hermitian`` at each point, over one stack of g and of the
    triple's values.  A batch that raises is tried again point by point, so
    the error is the one the first failing point raises alone."""

    def compute(qs: list[Point]) -> list[float]:
        gp = np.array(g.matrices(qs))[:, None]
        J = T.values(qs)
        return np.abs(J.transpose(0, 1, 3, 2) @ gp + gp @ J).max(axis=(1, 2, 3)).tolist()

    return _memo_batch({}, g.chart, None, None, pts, compute, one=lambda q: check_hermitian(g, T, q))


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

    The fit is memoised on g per (T, point, step), like Gamma and R: a
    second fit there repeats the chart check and returns the same read-only
    ``omega`` and ``nabla``, and a fit that raises stores nothing.
    """
    omega, residual, D = _fits(g, T, [p], cfg)[0]
    return KahlerFit(point=p, omega=omega, residual=residual, nabla=D)


def _fits(
    g: MetricField, T: LocalBasisTriple, pts: Sequence[Point], cfg: FdConfig
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """(omega, residual, nabla) of ``fit_kahler_oneforms`` at each point,
    arrays read-only, memoised on g under ("fit", T).  The distinct misses
    are one stack: the triple's values and their trace pairings, nabla J_a
    from one ``_covariant_derivatives`` per member, then the slots, omega
    and the residual over the whole stack.  A batch that raises stores
    nothing, and its first failing point raises what it raises alone."""

    def compute(qs: list[Point]) -> list[tuple[np.ndarray, float, np.ndarray]]:
        n = g.chart.dim
        J = T.values(qs)  # [c, a, k, j]
        traces = np.trace(J @ J, axis1=-2, axis2=-1)
        bad = (np.abs(traces) < TRACE_FLOOR).any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise IllConditionedError(f"degenerate trace pairing at {qs[k]}: {traces[k]}")
        D = np.stack([np.array(_covariant_derivatives(g, f, qs, cfg)) for f in T.fields], axis=1)  # [c, a, i, k, j]
        # C[c, a, b, i]: coefficient of J_b inside (nabla_i J_a), the sum
        # over k and j of D[a, i, k, j] J_b[j, k] taken over k first, then
        # over j in sequence from 0.0, as einsum("kj,jk->") of one slot adds
        # them; a single batched einsum rounds differently
        P = np.add.reduce(D[:, :, None] * J.transpose(0, 1, 3, 2)[:, None, :, None], axis=-2)
        C = 0.0 + P[..., 0]
        for j in range(1, n):
            C = C + P[..., j]
        C = C / traces[:, None, :, None]
        omega = np.empty((len(qs), 3, n))
        omega[:, 0] = 0.5 * (C[:, 1, 2] + C[:, 2, 1])
        omega[:, 1] = 0.5 * (C[:, 0, 2] + C[:, 2, 0])
        omega[:, 2] = 0.5 * (C[:, 1, 0] - C[:, 0, 1])
        w = omega.transpose(1, 0, 2)[..., None, None]  # w[a][c, i] as a (c, i, 1, 1) stack
        recon = np.stack(span_combination(w, J.transpose(1, 0, 2, 3)[:, :, None]), axis=1)
        residual = np.abs(D - recon).max(axis=(1, 2, 3, 4))
        omega.flags.writeable = D.flags.writeable = False
        return list(zip(omega, residual.tolist(), D))

    return _memo_batch(
        g._memo, g.chart, ("fit", T), cfg.step, pts, compute,
        one=lambda q: fit_kahler_oneforms(MetricField(g.field), T, q, cfg),
    )


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
    the basis itself is not parallel.  The hermitian residuals and the fits
    of the whole sample each come in one batch.
    """
    if not pts:
        raise ValidationError("classify_structure needs at least one point")
    herm = max(_hermitians(g, T, pts))
    fits = _fits(g, T, pts, cfg)
    fit_res = max(residual for _, residual, _ in fits)
    nab = max(float(np.abs(D).max()) for _, _, D in fits)
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
