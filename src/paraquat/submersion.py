"""Semi-Riemannian submersions: vertical/horizontal splitting, the two
fundamental tensors, basic lifts, and descent of the structure 1-forms.

The splitting is computed pointwise from the finite-difference Jacobian:
vertical = ker(df) from an SVD, horizontal = the g-orthogonal complement of
vertical (a second SVD on V^T g, which works in neutral signature as long as
the fiber metric V^T g V stays nondegenerate).  The O'Neill tensors are
assembled from the derivative of the vertical *projector* — projectors,
unlike the frames themselves, depend smoothly on the point regardless of how
the SVD orders or signs its vectors.  Where both the metric and the map have
jets (the Sasaki lift and its projection, an expression metric under an
expression map) that derivative is a closed form in dg and the map's second
partials; otherwise it is central differences of the projector field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import LocalBasisTriple
from .connection import MetricField, _jets, christoffel
from .errors import (
    DegenerateFiberMetricError,
    NotAFiberError,
    PreconditionFailedError,
    RankDeficientError,
    ShapeError,
    ValidationError,
)
from .fields import (
    FdConfig,
    ManifoldSpec,
    Point,
    TensorField,
    _require_stencils,
    central_difference,
    fd_gradient,
)
from .structures import StructureClass, classify_structure, fit_kahler_oneforms

RANK_FLOOR = 1e-8
FIBER_DET_FLOOR = 1e-9
FIBER_IMAGE_TOL = 1e-10


@dataclass(frozen=True)
class SubmersionMap:
    """A smooth map between charts, given componentwise.

    ``jets``, when given, follows ``TensorField.jets``: ``jets(points,
    order)`` returns the exact components at a list of points and their
    partials to ``order``, as order + 1 stacked arrays with the partial
    axes first, ``[c, i, a]`` for the first and ``[c, i, j, a]`` for the
    second partials of component a.  ``oneill_tensors`` reads the second
    partials.  The bundle projection and an expression map have them.
    """

    source: ManifoldSpec
    target: ManifoldSpec
    components: Callable[[np.ndarray], np.ndarray]  # (n,) -> (n',)
    label: str = ""
    jets: Callable[[Sequence[Point], int], tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def map_point(self, p: Point) -> Point:
        if p.chart != self.source:
            raise ValidationError(f"point lives on {p.chart.coords}, map expects {self.source.coords}")
        y = np.asarray(self.components(p.coords), dtype=float)
        if y.shape != (self.target.dim,):
            raise ShapeError(f"map returned shape {y.shape}, expected ({self.target.dim},)")
        return Point(self.target, y)


def jacobian(f: SubmersionMap, p: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """df at p as a C-contiguous (n', n) matrix; raises RankDeficientError if
    not onto and StencilOutOfDomainError if the stencil leaves p's chart."""
    return _jacobians(f, [p], cfg)[0]


def _jacobians(f: SubmersionMap, pts: Sequence[Point], cfg: FdConfig) -> np.ndarray:
    """``jacobian`` at each point, stacked (len(pts), n', n): the stencils of
    all the points go to the map in one ``central_difference``, and one
    batched SVD tests every rank.  df is always differenced, also for a map
    with jets, so every split of a map rests on the same differential.  With
    several points, an error is that of some failing point, not necessarily
    the first: callers that need the first make this the ``batch`` form of a
    field and evaluate it with ``fields.eval_batch``, which replays a
    failing batch point by point, as the projector field of
    ``oneill_tensors``' finite-difference path does through
    ``fd_gradient``."""
    n, m = f.source.dim, f.target.dim
    J = np.ascontiguousarray(
        central_difference(
            lambda qs: [np.asarray(f.components(q.coords), dtype=float) for q in qs], pts, cfg
        ).transpose(0, 2, 1)
    )
    if J.shape[1:] != (m, n):
        raise ShapeError(f"map differential has shape {J.shape[1:]}, expected ({m}, {n})")
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.shape[-1] < m:
        raise RankDeficientError(f"differential drops rank at {pts[0]} (singular values {sv[0]})")
    bad = np.flatnonzero(sv[:, -1] <= RANK_FLOOR)
    if bad.size:
        k = bad[0]
        raise RankDeficientError(f"differential drops rank at {pts[k]} (singular values {sv[k]})")
    return J


@dataclass(frozen=True)
class SplitFrame:
    """Pointwise vertical/horizontal data: differential, frames, projectors."""

    point: Point
    df: np.ndarray          # (n', n), the Jacobian the split was taken from
    vertical: np.ndarray    # (n, n - n'), columns span ker(df)
    horizontal: np.ndarray  # (n, n'), columns span the g-complement
    v: np.ndarray           # (n, n) projector onto vertical along horizontal
    h: np.ndarray           # (n, n) projector onto horizontal along vertical


def _split_matrices(J: np.ndarray, gp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V, H, Pv, Ph) of ``SplitFrame`` for stacks of differentials J
    (c, n', n) and metric values gp (c, n, n), each formed per point by one
    batched SVD, det, inv and matmul."""
    n = gp.shape[-1]
    m = J.shape[-2]
    _, _, vt = np.linalg.svd(J)
    V = vt[:, m:].transpose(0, 2, 1)  # (c, n, n-m), orthonormal bases of ker(df)
    Vt = V.transpose(0, 2, 1)
    det = np.linalg.det(Vt @ gp @ V)  # of the fiber metrics
    bad = np.flatnonzero(np.abs(det) < FIBER_DET_FLOOR)
    if bad.size:
        raise DegenerateFiberMetricError(
            f"metric restricted to the fiber is degenerate (det {det[bad[0]]:.3e})"
        )
    _, _, wt = np.linalg.svd(Vt @ gp)  # H = ker(V^T g): g-orthogonal to V
    H = wt[:, n - m:].transpose(0, 2, 1)  # (c, n, m)
    B = np.concatenate([V, H], axis=2)
    Binv = np.linalg.inv(B)
    Pv = B @ np.diag([1.0] * (n - m) + [0.0] * m) @ Binv
    Ph = np.eye(n) - Pv
    return V, H, Pv, Ph


def vh_split(f: SubmersionMap, g: MetricField, p: Point, cfg: FdConfig = FdConfig()) -> SplitFrame:
    return _vh_splits(f, g, [p], cfg)[0]


def _vh_splits(f: SubmersionMap, g: MetricField, pts: Sequence[Point], cfg: FdConfig) -> list[SplitFrame]:
    """``vh_split`` at each point: the differentials from one ``_jacobians``,
    the metric values from one ``g.matrices``, the frames from one
    ``_split_matrices``.  One point fails as ``vh_split`` always did:
    differential, then metric, then fiber; with several, the error is that
    of some failing point, as in ``_jacobians``."""
    J = _jacobians(f, pts, cfg)
    V, H, Pv, Ph = _split_matrices(J, np.array(g.matrices(pts)))
    return [
        SplitFrame(point=p, df=J[c], vertical=V[c], horizontal=H[c], v=Pv[c], h=Ph[c])
        for c, p in enumerate(pts)
    ]


def check_semi_riemannian(
    f: SubmersionMap,
    g: MetricField,
    g_target: MetricField,
    pts: Sequence[Point],
    cfg: FdConfig = FdConfig(),
) -> float:
    """max |g(X,Y) - g'(df X, df Y)| over horizontal frames at the sample."""
    worst = 0.0
    for p in pts:
        fr = vh_split(f, g, p, cfg)
        down = fr.df @ fr.horizontal
        up = fr.horizontal.T @ g.matrix(p) @ fr.horizontal
        dn = down.T @ g_target.matrix(f.map_point(p)) @ down
        worst = max(worst, float(np.abs(up - dn).max()))
    return worst


def check_paraholomorphic(
    f: SubmersionMap,
    T: LocalBasisTriple,
    T_target: LocalBasisTriple,
    pts: Sequence[Point],
    cfg: FdConfig = FdConfig(),
) -> float:
    """max_a |df o J_a - J'_a o df| over the sample."""
    worst = 0.0
    for p in pts:
        J = jacobian(f, p, cfg)
        up = T.matrices(p)
        dn = T_target.matrices(f.map_point(p))
        for a in range(3):
            worst = max(worst, float(np.abs(J @ up[a] - dn[a] @ J).max()))
    return worst


@dataclass(frozen=True)
class VhInvarianceReport:
    v_residual: float  # leakage of J_a(vertical) into horizontal
    h_residual: float  # leakage of J_a(horizontal) into vertical


def check_vh_invariance(
    f: SubmersionMap,
    g: MetricField,
    T: LocalBasisTriple,
    T_target: LocalBasisTriple,
    pts: Sequence[Point],
    cfg: FdConfig = FdConfig(),
    tol: float = 1e-6,
) -> VhInvarianceReport:
    """Whether each J_a maps vertical to vertical and horizontal to horizontal.

    Only meaningful for a paraholomorphic map, so that is checked first and a
    PreconditionFailedError raised when it fails at tol.
    """
    para = check_paraholomorphic(f, T, T_target, pts, cfg)
    if para >= tol:
        raise PreconditionFailedError(
            f"map is not paraholomorphic (residual {para:.3e} >= {tol:.1e})"
        )
    rv = 0.0
    rh = 0.0
    for p in pts:
        fr = vh_split(f, g, p, cfg)
        J = T.matrices(p)
        for a in range(3):
            rv = max(rv, float(np.abs(fr.h @ J[a] @ fr.vertical).max()))
            rh = max(rh, float(np.abs(fr.v @ J[a] @ fr.horizontal).max()))
    return VhInvarianceReport(v_residual=rv, h_residual=rh)


@dataclass(frozen=True)
class ONeillTensors:
    """Both fundamental tensors at a point, on the coordinate frame.

    a_full[i, j] = h nabla_{h e_i} (v e_j) + v nabla_{h e_i} (h e_j)
    t_full[i, j] = h nabla_{v e_i} (v e_j) + v nabla_{v e_i} (h e_j)

    a_horizontal is the A-tensor contracted onto the horizontal frame of the
    split, shape (n', n', n); its antisymmetry in the first two slots is the
    classical integrability statement.
    """

    point: Point
    a_full: np.ndarray        # (n, n, n)
    t_full: np.ndarray        # (n, n, n)
    a_horizontal: np.ndarray  # (n', n', n)

    @property
    def max_a_horizontal(self) -> float:
        return float(np.abs(self.a_horizontal).max())

    @property
    def antisymmetry_residual(self) -> float:
        return float(np.abs(self.a_horizontal + self.a_horizontal.transpose(1, 0, 2)).max())


def oneill_tensors(
    f: SubmersionMap, g: MetricField, p: Point, cfg: FdConfig = FdConfig()
) -> ONeillTensors:
    """A and T at p from Gamma, the split at p and d_m Pv: in closed form
    (``_projector_partials``) where the map and the metric both have jets,
    with no split but p's; else central differences of the projector field,
    the splits of the whole stencil in one batch.  Either way the stencil
    of cfg.step around p must lie in the chart."""
    gam = christoffel(g, p, cfg)
    fr = vh_split(f, g, p, cfg)
    if f.jets is not None and g.field.jets is not None:
        _require_stencils([p], cfg.step)
        dPv = _projector_partials(f, g, fr)
    else:
        pv_field = TensorField(
            f.source, 1, 1, lambda q: vh_split(f, g, q, cfg).v, label="vertical projector",
            batch=lambda qs: [s.v for s in _vh_splits(f, g, qs, cfg)],
        )
        dPv = fd_gradient(pv_field, p, cfg)

    def stacked(U: np.ndarray) -> np.ndarray:
        # out[i, j] = h nabla_{u_i} (Pv e_j) + v nabla_{u_i} (Ph e_j) for the
        # columns u_i of U, with d(Ph) = -d(Pv); cov[i, k, j] is component k
        dPu = np.einsum("mkl,mi->ikl", dPv, U)
        cov_v = dPu + np.einsum("kml,mi,lj->ikj", gam, U, fr.v)
        cov_h = -dPu + np.einsum("kml,mi,lj->ikj", gam, U, fr.h)
        # one matrix-vector product per (i, j): a matrix-matrix product or an
        # einsum here rounds differently
        return (
            fr.h @ cov_v.transpose(0, 2, 1)[..., None]
            + fr.v @ cov_h.transpose(0, 2, 1)[..., None]
        )[..., 0]

    a_full = stacked(fr.h)
    t_full = stacked(fr.v)
    a_h = np.einsum("li,mj,lmk->ijk", fr.horizontal, fr.horizontal, a_full)
    return ONeillTensors(point=p, a_full=a_full, t_full=t_full, a_horizontal=a_h)


def _projector_partials(f: SubmersionMap, g: MetricField, fr: SplitFrame) -> np.ndarray:
    """dPv[m] = d_m Pv at the split's point, exactly: with J = ``fr.df``
    (the differential Pv was split from), dG from the metric's memoised jets
    and dJ from the map's second partials,

        N = G^-1 J^T,   K = J N,   Ph = N K^-1 J = 1 - Pv,
        dN = -G^-1 dG N + G^-1 dJ^T,   dK = dJ N + J dN,
        dPv = -(dN K^-1 J - N K^-1 dK K^-1 J + N K^-1 dJ)."""
    p, J = fr.point, fr.df
    Ginv = np.linalg.inv(g.matrix(p))
    dG = _jets(g, [p])[0][0]  # dG[m, k, l] = d_m G_kl
    dJt = f.jets([p], 2)[2][0]  # dJt[m, i, a] = d_m d_i f^a = d_m (J^T)_ia
    dJ = dJt.swapaxes(1, 2)
    N = Ginv @ J.T
    Kinv = np.linalg.inv(J @ N)
    dN = -Ginv @ dG @ N + Ginv @ dJt
    dK = dJ @ N + J @ dN
    NKinv, KinvJ = N @ Kinv, Kinv @ J
    return -(dN @ KinvJ - NKinv @ dK @ KinvJ + NKinv @ dJ)


def basic_lift(
    f: SubmersionMap,
    g: MetricField,
    p: Point,
    target_vector: np.ndarray,
    cfg: FdConfig = FdConfig(),
) -> np.ndarray:
    """The unique horizontal vector at p pushing forward to target_vector."""
    w = np.asarray(target_vector, dtype=float)
    if w.shape != (f.target.dim,):
        raise ShapeError(f"target vector has shape {w.shape}, expected ({f.target.dim},)")
    return _lift(vh_split(f, g, p, cfg), w)


def _lift(fr: SplitFrame, w: np.ndarray) -> np.ndarray:
    """``basic_lift`` of w from the split at its point."""
    return fr.horizontal @ np.linalg.solve(fr.df @ fr.horizontal, w)


@dataclass(frozen=True)
class DescentReport:
    image: Point
    omega_base: np.ndarray  # (3, n'): mean of w_a(basic lift of e'_alpha)
    constancy_residual: float
    fit_residual_max: float
    points_used: int


def descend_one_forms(
    f: SubmersionMap,
    g: MetricField,
    T: LocalBasisTriple,
    fiber_pts: Sequence[Point],
    cfg: FdConfig = FdConfig(),
    tol: float = 1e-6,
) -> DescentReport:
    """Evaluate the fitted 1-forms on basic lifts along one fiber.

    All sample points must map to the same image (else NotAFiberError), and
    the pair upstairs must classify as PQK or LhPK-basis (else
    PreconditionFailedError).  The report carries the per-direction means and
    the largest spread across the fiber; a small spread is what makes the
    forms well defined downstairs.
    """
    if not fiber_pts:
        raise ValidationError("descend_one_forms needs at least one fiber point")
    images = [f.map_point(p) for p in fiber_pts]
    base = images[0]
    for q in images[1:]:
        if float(np.abs(q.coords - base.coords).max()) > FIBER_IMAGE_TOL:
            raise NotAFiberError(
                f"sample points map to different images: {base.coords} vs {q.coords}"
            )
    verdict = classify_structure(g, T, list(fiber_pts), tol=tol, cfg=cfg)
    if verdict.cls not in (StructureClass.PQK, StructureClass.LHPK_BASIS):
        raise PreconditionFailedError(
            f"pair classifies as {verdict.cls.value} along the fiber, need PQK or LhPK-basis"
        )
    m = f.target.dim
    values = np.empty((len(fiber_pts), 3, m))
    fit_max = 0.0
    for k, p in enumerate(fiber_pts):
        fit = fit_kahler_oneforms(g, T, p, cfg)
        fit_max = max(fit_max, fit.residual)
        fr = vh_split(f, g, p, cfg)
        for alpha in range(m):
            values[k, :, alpha] = fit.omega @ _lift(fr, np.eye(m)[alpha])
    spread = float((values.max(axis=0) - values.min(axis=0)).max()) if len(fiber_pts) > 1 else 0.0
    return DescentReport(
        image=base,
        omega_base=values.mean(axis=0),
        constancy_residual=spread,
        fit_residual_max=fit_max,
        points_used=len(fiber_pts),
    )
