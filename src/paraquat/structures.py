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
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import LocalBasisTriple
from .connection import MetricField, _gradients, _nijenhuis_tensor, covariant_derivatives
from .errors import IllConditionedError, PreconditionFailedError, ValidationError
from .fields import Point, TensorField, _memo_batch, eval_batch

TRACE_FLOOR = 1e-9


class StructureClass(str, Enum):
    NOT_HERMITIAN = "NotHermitian"
    HERMITIAN_ONLY = "HermitianOnly"
    PQK = "PQK"
    LHPK_BASIS = "LhPK-basis"


def check_hermitian(g: MetricField, T: LocalBasisTriple, pts: Sequence[Point]) -> np.ndarray:
    """max_a |J_a^T g + g J_a| at each point, an (N,) array over one stack
    of g and of the triple's values; zero means every J_a is g-skew.  The
    residuals are memoised on g per (T, point), like the fit, so
    ``classify_structure`` reads those of a ``hermitian`` check of the same
    run.  A batch that raises stores nothing, and its first failing point
    raises what it raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        gp = g.matrices(qs)[:, None]
        J = T.values(qs)
        return np.abs(J.transpose(0, 1, 3, 2) @ gp + gp @ J).max(axis=(1, 2, 3))

    return _memo_batch(g._memo, g.chart, ("hermitian", T), pts, compute)


def span_combination(w, J) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The span-parallel values of (nabla J_1, nabla J_2, nabla J_3) along one
    direction, given w = (w1, w2, w3) on it and J the stacked triple."""
    w1, w2, w3 = w
    return (
        -w3 * J[1] + w2 * J[2],
        w1 * J[2] + w3 * J[0],
        w2 * J[0] + w1 * J[1],
    )


class KahlerFit(NamedTuple):
    """The Kähler 1-form fit over a sample, a NamedTuple of stacks, row c for point c."""

    omega: np.ndarray  # (N, 3, dim): omega[c, a-1, i] = w_a(d_i) at point c
    residual: np.ndarray  # (N,)
    nabla_max: np.ndarray  # (N,): max_a |nabla J_a| at point c


def fit_kahler_oneforms(g: MetricField, T: LocalBasisTriple, pts: Sequence[Point]) -> KahlerFit:
    """Fit (w1, w2, w3) at each point and report the off-span
    reconstruction residual, one fit of stacks over the sample.

    The fits are memoised on g per (T, point), like Gamma and R: a second
    fit at a point repeats the chart check and returns the same bits in
    fresh arrays, and a batch that raises stores nothing.  The
    distinct misses are one stack: the triple's memoised values and their
    trace pairings, nabla J_a of all three members from one
    ``covariant_derivatives`` batch, then the slots, one matrix product of
    the flattened stacks, and omega, the residual and max |nabla J_a| over
    the whole stack.  A batch that raises raises what its first failing
    point raises alone.
    """

    def compute(qs: list[Point]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c, n = len(qs), g.chart.dim
        J = T.values(qs)  # [c, a, k, j]
        traces = np.trace(J @ J, axis1=-2, axis2=-1)
        bad = (np.abs(traces) < TRACE_FLOOR).any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise IllConditionedError(f"degenerate trace pairing at {qs[k]}: {traces[k]}")
        D = covariant_derivatives(g, T, qs)  # [c, a, i, k, j]
        # C[c, a, b, i]: coefficient of J_b inside (nabla_i J_a), tr(D_ai
        # J_b) = D[a, i, k, j] J_b[j, k] summed over (k, j), one product of
        # D flattened to rows (a, i) with J^T flattened to columns b
        Jt = J.transpose(0, 1, 3, 2).reshape(c, 3, n * n)
        C = (D.reshape(c, 3 * n, n * n) @ Jt.transpose(0, 2, 1)).reshape(c, 3, n, 3).transpose(0, 1, 3, 2)
        C = C / traces[:, None, :, None]
        omega = np.empty((c, 3, n))
        omega[:, 0] = 0.5 * (C[:, 1, 2] + C[:, 2, 1])
        omega[:, 1] = 0.5 * (C[:, 0, 2] + C[:, 2, 0])
        omega[:, 2] = 0.5 * (C[:, 1, 0] - C[:, 0, 1])
        w = omega.transpose(1, 0, 2)[..., None, None]  # w[a][c, i] as a (c, i, 1, 1) stack
        recon = np.stack(span_combination(w, J.transpose(1, 0, 2, 3)[:, :, None]), axis=1)
        return omega, np.abs(D - recon).max(axis=(1, 2, 3, 4)), np.abs(D).max(axis=(1, 2, 3, 4))

    empty = np.empty((0, 3, g.chart.dim)), np.empty(0), np.empty(0)
    return KahlerFit(*(_memo_batch(g._memo, g.chart, ("fit", T), pts, compute) if pts else empty))


class StructureVerdict(NamedTuple):
    """The class of a pair over a sample and the sample maxima it rests on."""

    cls: StructureClass
    hermitian_max: float
    nabla_max: float
    fit_residual_max: float


def classify_structure(
    g: MetricField,
    T: LocalBasisTriple,
    pts: list[Point],
    tol: float = 1e-6,
) -> StructureVerdict:
    """Ladder over the sample: NotHermitian -> LhPK-basis -> PQK -> HermitianOnly.

    LhPK-basis means this basis is already parallel (max |nabla J_a| < tol);
    PQK means the derivatives stay in the span (fit residual < tol) even though
    the basis itself is not parallel.  The hermitian residuals and the
    fits, which carry max |nabla J_a|, each come in one batch.
    """
    if not pts:
        raise ValidationError("classify_structure needs at least one point")
    herm = check_hermitian(g, T, pts).max()
    fit = fit_kahler_oneforms(g, T, pts)
    fit_res, nab = fit.residual.max(), fit.nabla_max.max()
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
    )


@dataclass(frozen=True)
class ProductStructureField:
    """A (1,1) field meant to square to the identity without being +/-I."""

    field: TensorField
    label: str = ""

    def __post_init__(self):
        if (self.field.r, self.field.s) != (1, 1):
            raise ValidationError("product structure must be a (1,1) field")


class ProductReport(NamedTuple):
    involution_residual: np.ndarray  # (N,): |F^2 - I|
    metric_residual: np.ndarray      # (N,): |F^T g F - g|
    nijenhuis_residual: np.ndarray   # (N,): |N_F|
    parallel_residual: np.ndarray    # (N,): |nabla F|

    @property
    def max_residual(self) -> np.ndarray:
        residuals = self.involution_residual, self.metric_residual, self.nijenhuis_residual, self.parallel_residual
        return np.max(residuals, axis=0)


def _nijenhuises(g: MetricField, F: ProductStructureField, pts: Sequence[Point]) -> np.ndarray:
    """N_F at each point, a fresh stack memoised on g per (field, point),
    so the product and equivalence checks of one run compute it once:
    the misses from one ``eval_batch`` of F and the derivative of F that
    nabla F reads (``_gradients``), contracted over the stack.  A batch that
    raises stores nothing, and its first failing point raises what it
    raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        return _nijenhuis_tensor(eval_batch(F.field, qs), _gradients(g, F.field, qs))

    return _memo_batch(g._memo, g.chart, ("nijenhuis", F.field), pts, compute)


def check_product_structure(g: MetricField, F: ProductStructureField, pts: Sequence[Point]) -> ProductReport:
    """The four residuals of an almost product pair (g, F) at each point,
    one report of (N,) stacks: F
    from one ``eval_batch``, g from one ``matrices``, N_F and nabla F each
    from one batch, and every residual over the stack.  A batch that raises
    raises what its first failing point raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        n = g.chart.dim
        Fp = eval_batch(F.field, qs)
        gp = g.matrices(qs)
        inv = np.abs(Fp @ Fp - np.eye(n)).max(axis=(1, 2))
        met = np.abs(Fp.transpose(0, 2, 1) @ gp @ Fp - gp).max(axis=(1, 2))
        nij = np.abs(_nijenhuises(g, F, qs)).max(axis=(1, 2, 3))
        par = np.abs(covariant_derivatives(g, F.field, qs)).max(axis=(1, 2, 3))
        return np.column_stack([inv, met, nij, par])

    return ProductReport(*_memo_batch({}, g.chart, None, pts, compute).reshape(-1, 4).T)


def check_sigma_invariant_operator(F: ProductStructureField, T: LocalBasisTriple, pts: Sequence[Point]) -> np.ndarray:
    """max_a |J_a F - F J_a| at each point, an (N,) array, zero when F
    preserves the structure bundle: from one ``eval_batch`` of F and one
    ``values`` of the triple.  A batch that raises raises what its first
    failing point raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        Fp = eval_batch(F.field, qs)[:, None]
        J = T.values(qs)
        return np.abs(J @ Fp - Fp @ J).max(axis=(1, 2, 3))

    return _memo_batch({}, F.field.chart, None, pts, compute)


class EquivalenceReport(NamedTuple):
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
    sig = check_sigma_invariant_operator(F, T, pts).max()
    if not sig < tol:
        raise PreconditionFailedError(f"F is not sigma-invariant (residual {sig:.3e} >= {tol:.1e})")
    verdict = classify_structure(g, T, pts, tol=tol)
    if verdict.cls not in (StructureClass.PQK, StructureClass.LHPK_BASIS):
        raise PreconditionFailedError(
            f"(g, T) classifies as {verdict.cls.value}, need PQK or LhPK-basis"
        )
    D = covariant_derivatives(g, F.field, pts)  # [c, i, k, j]
    N = _nijenhuises(g, F, pts)
    J = T.values(pts)  # [c, a, m, i]
    c, n = D.shape[:2]
    # (J_a^T D)[i, (k, j)] and (D J_a)[(i, k), j], D flattened on the side it is not summed over
    mixed = (J.transpose(0, 1, 3, 2) @ D.reshape(c, 1, n, n * n)).reshape(c, 3, n, n, n) - (
        D.reshape(c, 1, n * n, n) @ J
    ).reshape(c, 3, n, n, n)
    r_par, r_nij, r_mix = (float(np.abs(A).max()) for A in (D, N, mixed))
    flags = (r_par < tol, r_nij < tol, r_mix < tol)
    return EquivalenceReport(
        parallel_residual=r_par,
        nijenhuis_residual=r_nij,
        mixed_residual=r_mix,
        flags=flags,
    )
