"""Semi-Riemannian submersions: vertical/horizontal splitting, the two
fundamental tensors, basic lifts, and descent of the structure 1-forms.

Everything is taken a batch of points at a time under the memo rule of
``fields._memo_batch``, each batch a fresh stack with row c for point c:
the map memoises df (from one jets call per batch) and the images'
coordinates (from one call of its components on the stack), and the
metric the split under ("split", map), from one ``_split_matrices`` over
the stack: vertical = ker(df) from an SVD, horizontal = the g-orthogonal
complement of vertical (a second SVD on V^T g, which works in neutral
signature as long as the fiber metric V^T g V stays nondegenerate).  A
batch that raises stores nothing, and its first failing point raises what
it raises alone.  ``SubmersionMap.images``, ``jacobian``, ``vh_split``,
``oneill_tensors`` and the checks take a list of points, a point alone
being a list of one.  ``vh_split`` returns the split as five stacks over
the points, (df, V, H, Pv, Ph), and the checks, the O'Neill tensors and
the basic lifts of ``descend_one_forms`` are stacked products over them.

The O'Neill tensors are assembled from the derivative of the vertical
*projector* — projectors, unlike the frames themselves, depend smoothly on
the point regardless of how the SVD orders or signs its vectors — a closed
form in dg and the map's second partials, stacked over the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import LocalBasisTriple
from .connection import MetricField, _christoffels, _jets, christoffel
from .errors import (
    DegenerateFiberMetricError,
    NotAFiberError,
    PreconditionFailedError,
    RankDeficientError,
    ShapeError,
    ValidationError,
)
from .fields import ManifoldSpec, Point, _check_box, _jets_of, _memo_batch, _points
from .structures import StructureClass, classify_structure, fit_kahler_oneforms

RANK_FLOOR = 1e-8
FIBER_DET_FLOOR = 1e-9
FIBER_IMAGE_TOL = 1e-10


@dataclass(frozen=True)
class SubmersionMap:
    """A smooth map between charts, given componentwise.

    ``components`` maps an (N, dim) stack of coordinates to the (N, target
    dim) stack of their images, each row the same bits as that row alone.
    ``jets`` follows ``TensorField.jets``: ``jets(points, order)``
    returns the exact components at a list of points and their partials to
    ``order``, as order + 1 stacked arrays with the partial axes first,
    ``[c, i, a]`` for the first and ``[c, i, j, a]`` for the second
    partials of component a.  The bundle projection and an expression map
    have both; a map without jets (None) can be mapped but not
    differentiated.  The instance memoises df and the images.
    """

    source: ManifoldSpec
    target: ManifoldSpec
    components: Callable[[np.ndarray], np.ndarray]  # (N, n) -> (N, n')
    label: str = ""
    jets: Callable[[Sequence[Point], int], tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False, compare=False
    )
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def images(self, points: Sequence[Point]) -> list[Point]:
        """The image of each point of the source box, its coordinates
        memoised on the map: the box of the misses' stack tested at once,
        then one call of the components on it.  A batch that raises stores
        nothing, and its first failing point raises what it raises alone:
        OutOfDomainError for a point outside the box, walls included in it."""
        source, m = self.source, self.target.dim

        def compute(qs: list[Point]) -> np.ndarray:
            Y = np.asarray(self.components(_check_box(source, qs)), dtype=float)
            if Y.shape != (len(qs), m):
                raise ShapeError(f"map returned shape {Y.shape[1:]}, expected ({m},)")
            return Y

        return _points(self.target, _memo_batch(self._memo, source, "image", points, compute))


def jacobian(f: SubmersionMap, points: Sequence[Point]) -> np.ndarray:
    """df at each point, a fresh (len(points), n', n) stack, the map's
    first partials from its jets at the points,
    anywhere in the closed box, memoised on the map per point: the misses'
    domain, then one jets call, then one batched SVD.  A point off the
    map's chart raises ValidationError, one outside its box
    OutOfDomainError, and one where df is not onto RankDeficientError; a
    batch raises what its first failing point raises alone."""
    n, m = f.source.dim, f.target.dim

    def compute(qs: list[Point]) -> np.ndarray:
        jets = _jets_of(f)
        _check_box(f.source, qs)
        D = np.asarray(jets(qs, 1)[1], dtype=float)
        if D.shape != (len(qs), n, m):
            raise ShapeError(f"map differential has shape {D.shape[:0:-1]}, expected ({m}, {n})")
        J = D.transpose(0, 2, 1)
        sv = np.linalg.svd(J, compute_uv=False)
        bad = np.flatnonzero(sv[:, -1] <= RANK_FLOOR) if sv.shape[-1] == m else [0]
        if len(bad):
            k = bad[0]
            raise RankDeficientError(f"differential drops rank at {qs[k]} (singular values {sv[k]})")
        return J

    return _memo_batch(f._memo, f.source, "df", points, compute)


def _split_matrices(J: np.ndarray, gp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V, H, Pv, Ph) of ``vh_split`` for stacks of differentials J
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


def vh_split(f: SubmersionMap, g: MetricField, points: Sequence[Point]) -> tuple[np.ndarray, ...]:
    """The split at the points as five stacks (df, V, H, Pv, Ph): the
    differentials (c, n', n), the vertical frames (c, n, n - n') spanning
    ker(df), the horizontal frames (c, n, n') spanning their g-complement,
    and the projectors (c, n, n) onto vertical along horizontal and onto
    horizontal along vertical.  Memoised on g under ("split", f), one row
    of each per point: the misses' df from one ``jacobian``, g from one
    ``matrices``, the frames from one ``_split_matrices``; a point fails in
    that order, and a batch raises what its first failing point raises
    alone.  An empty list gives five empty arrays."""

    def compute(qs: list[Point]) -> tuple[np.ndarray, ...]:
        df = jacobian(f, qs)
        return (df, *_split_matrices(df, g.matrices(qs)))

    return _memo_batch(g._memo, g.chart, ("split", f), points, compute) if points else (np.empty(0),) * 5


def check_semi_riemannian(
    f: SubmersionMap,
    g: MetricField,
    g_target: MetricField,
    pts: Sequence[Point],
) -> np.ndarray:
    """max |g(X,Y) - g'(df X, df Y)| over horizontal frames at each point,
    an (N,) array: split, then mapped, in one batch each, and compared over
    the stack."""

    def compute(qs: list[Point]) -> np.ndarray:
        df, _, H, _, _ = vh_split(f, g, qs)
        G, G_target = g.matrices(qs), g_target.matrices(f.images(qs))
        down, Ht = df @ H, H.transpose(0, 2, 1)
        return np.abs(Ht @ G @ H - down.transpose(0, 2, 1) @ G_target @ down).max(axis=(1, 2))

    return _memo_batch({}, f.source, None, pts, compute)


def check_paraholomorphic(
    f: SubmersionMap,
    T: LocalBasisTriple,
    T_target: LocalBasisTriple,
    pts: Sequence[Point],
) -> np.ndarray:
    """max_a |df o J_a - J'_a o df| at each point, an (N,) array, from one
    batch each of df, the triple, the images and the target triple,
    compared over the stack."""

    def compute(qs: list[Point]) -> np.ndarray:
        J, up = jacobian(f, qs)[:, None], T.values(qs)
        return np.abs(J @ up - T_target.values(f.images(qs)) @ J).max(axis=(1, 2, 3))

    return _memo_batch({}, f.source, None, pts, compute)


class VhInvarianceReport(NamedTuple):
    v_residual: np.ndarray  # (N,): leakage of J_a(vertical) into horizontal
    h_residual: np.ndarray  # (N,): leakage of J_a(horizontal) into vertical


def check_vh_invariance(
    f: SubmersionMap,
    g: MetricField,
    T: LocalBasisTriple,
    T_target: LocalBasisTriple,
    pts: Sequence[Point],
    tol: float = 1e-6,
) -> VhInvarianceReport:
    """Whether each J_a maps vertical to vertical and horizontal to
    horizontal at each point, one report of (N,) stacks.

    Only meaningful for a paraholomorphic map, so that is checked first and a
    PreconditionFailedError raised when it fails at tol.  An empty sample
    raises ValidationError.
    """
    if not pts:
        raise ValidationError("check_vh_invariance needs at least one point")
    para = check_paraholomorphic(f, T, T_target, pts).max()
    if not para < tol:
        raise PreconditionFailedError(f"map is not paraholomorphic (residual {para:.3e} >= {tol:.1e})")

    def compute(qs: list[Point]) -> np.ndarray:
        _, V, H, Pv, Ph = (A[:, None] for A in vh_split(f, g, qs))
        J = T.values(qs)
        leak = lambda P, W: np.abs(P @ J @ W).max(axis=(1, 2, 3))
        return np.column_stack([leak(Ph, V), leak(Pv, H)])

    return VhInvarianceReport(*_memo_batch({}, f.source, None, pts, compute).T)


class ONeillTensors(NamedTuple):
    """Both fundamental tensors over a sample, on the coordinate frame: a
    NamedTuple of stacks, row c for point c:

    a_full[c, i, j] = h nabla_{h e_i} (v e_j) + v nabla_{h e_i} (h e_j)
    t_full[c, i, j] = h nabla_{v e_i} (v e_j) + v nabla_{v e_i} (h e_j)

    a_horizontal is the A-tensor contracted onto the horizontal frame of the
    split, shape (N, n', n', n); its antisymmetry in the first two slots is
    the classical integrability statement.  The three properties are (N,)
    arrays.
    """

    a_full: np.ndarray        # (N, n, n, n)
    t_full: np.ndarray        # (N, n, n, n)
    a_horizontal: np.ndarray  # (N, n', n', n)

    @property
    def max_a_horizontal(self) -> np.ndarray:
        return np.abs(self.a_horizontal).max(axis=(1, 2, 3))

    @property
    def antisymmetry_residual(self) -> np.ndarray:
        return np.abs(self.a_horizontal + self.a_horizontal.transpose(0, 2, 1, 3)).max(axis=(1, 2, 3))

    @property
    def max_t(self) -> np.ndarray:
        return np.abs(self.t_full).max(axis=(1, 2, 3))


def oneill_tensors(f: SubmersionMap, g: MetricField, pts: Sequence[Point]) -> ONeillTensors:
    """A and T at each point, one report of (N, ...) stacks, from Gamma,
    the split at the point and d_m Pv in closed form
    (``_projector_partials``), with no split but the
    point's, at any point of the closed box.  Gamma, the splits and d Pv
    each come in one batch over the sample, then every contraction over
    the whole stack as matrix products per point, each rounding alike for
    a point alone or in any batch.  The products Gamma(U e_i, W e_j) of the
    projectors U = (h, v) with W = (v, h) are two of them, U^T with Gamma
    flattened over (k, l), summing m, then with W, summing l, O(n^5) per
    point; a_horizontal is two more, H^T on each side of A."""

    def compute(qs: list[Point]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _christoffels(g, qs)
        # each point's Gamma read back from the memo the batch filled, through
        # the public christoffel, whose calls perfbench's tracer counts
        gam = np.array([christoffel(g, q) for q in qs])
        df, _, H, v, h = vh_split(f, g, qs)
        dPv = _projector_partials(f, g, qs, df)
        U = np.stack([h, v], axis=1)
        # GU[c, u, s] = Gamma(U_u e_i, W_s e_j) as [i, k, j]
        c, n = gam.shape[:2]
        Ut = U.swapaxes(-1, -2)  # [c, u, i, m]
        GamU = (Ut @ gam.transpose(0, 2, 1, 3).reshape(c, 1, n, n * n)).reshape(c, 2, 1, n * n, n)
        GU = (GamU @ np.stack([v, h], axis=1)[:, None]).reshape(c, 2, 2, n, n, n)
        # full[c, u, i, j] = h nabla_{u_i} (Pv e_j) + v nabla_{u_i} (Ph e_j)
        # for the columns u_i of U_u, with d(Ph) = -d(Pv); cov[..., i, k, j]
        # is component k
        dPu = (Ut @ dPv.reshape(c, 1, n, n * n)).reshape(c, 2, n, n, n)
        cov_v, cov_h = dPu + GU[:, :, 0], -dPu + GU[:, :, 1]
        # one matrix-vector product per (i, j), as the per-(i, j) form
        # projects: a matrix-matrix product here rounds differently
        proj = lambda P, cov: P[:, None, None, None] @ cov.transpose(0, 1, 2, 4, 3)[..., None]
        full = (proj(h, cov_v) + proj(v, cov_h))[..., 0]
        # a_horizontal[c, i, j, k] = H[l, i] H[m, j] a_full[l, m, k]: over l
        # with a_full flattened over (m, k), then over m for each i
        Ht = H.swapaxes(-1, -2)
        AH = (Ht @ full[:, 0].reshape(c, n, n * n)).reshape(c, -1, n, n)  # [c, i, m, k]
        return full[:, 0], full[:, 1], Ht[:, None] @ AH

    n, m = f.source.dim, f.target.dim
    empty = (np.empty((0, n, n, n)),) * 2 + (np.empty((0, m, m, n)),)
    return ONeillTensors(*(_memo_batch({}, g.chart, None, pts, compute) if pts else empty))


def _projector_partials(f: SubmersionMap, g: MetricField, pts: list[Point], J: np.ndarray) -> np.ndarray:
    """dPv[c, m] = d_m Pv at each point, exactly: with J the stack of
    differentials Pv was split from (``vh_split``'s df), dG from the
    metric's memoised jets and dJ from one call of the map's second partials,

        N = G^-1 J^T,   K = J N,   Ph = N K^-1 J = 1 - Pv,
        dN = -G^-1 dG N + G^-1 dJ^T,   dK = dJ N + J dN,
        dPv = -(dN K^-1 J - N K^-1 dK K^-1 J + N K^-1 dJ)."""
    Ginv = np.linalg.inv(g.matrices(pts))
    dG = _jets(g, pts)[0]  # dG[c, m, k, l] = d_m G_kl
    dJt = _jets_of(f)(pts, 2)[2]  # dJt[c, m, i, a] = d_m d_i f^a = d_m (J^T)_ia
    dJ = dJt.swapaxes(-1, -2)
    N = Ginv @ J.transpose(0, 2, 1)
    Kinv = np.linalg.inv(J @ N)
    J, N, Ginv = J[:, None], N[:, None], Ginv[:, None]  # broadcast over m
    dN = -Ginv @ dG @ N + Ginv @ dJt
    dK = dJ @ N + J @ dN
    NKinv, KinvJ = N @ Kinv[:, None], Kinv[:, None] @ J
    return -(dN @ KinvJ - NKinv @ dK @ KinvJ + NKinv @ dJ)


class DescentReport(NamedTuple):
    image: Point
    omega_base: np.ndarray  # (3, n'): mean of w_a(basic lift of e'_alpha)
    constancy_residual: float
    fit_residual_max: float


def descend_one_forms(
    f: SubmersionMap,
    g: MetricField,
    T: LocalBasisTriple,
    fiber_pts: Sequence[Point],
    tol: float = 1e-6,
) -> DescentReport:
    """Evaluate the fitted 1-forms on basic lifts along one fiber.

    The fiber needs two distinct points at least, since one point has no
    spread to measure (else ValidationError).  All of them must map to the
    same image (else NotAFiberError), and the pair upstairs must classify as
    PQK or LhPK-basis (else PreconditionFailedError).  The report carries
    the per-direction means and the largest spread across the fiber; a
    small spread is what makes the forms well defined downstairs.  The
    images, the fits (the memo's, from the classification) and the splits
    each come in one batch, and the values on every basic lift from one
    stacked product.
    """
    if len({tuple(q.coords.tolist()) for q in fiber_pts}) < 2:
        raise ValidationError("descend_one_forms needs at least two distinct fiber points")
    images = f.images(fiber_pts)
    base = images[0]
    off = np.flatnonzero(np.abs(np.array([q.coords for q in images]) - base.coords).max(axis=1) > FIBER_IMAGE_TOL)
    if off.size:
        raise NotAFiberError(f"sample points map to different images: {base.coords} vs {images[off[0]].coords}")
    verdict = classify_structure(g, T, list(fiber_pts), tol=tol)
    if verdict.cls not in (StructureClass.PQK, StructureClass.LHPK_BASIS):
        raise PreconditionFailedError(
            f"pair classifies as {verdict.cls.value} along the fiber, need PQK or LhPK-basis"
        )
    fit = fit_kahler_oneforms(g, T, fiber_pts)
    df, _, H, _, _ = vh_split(f, g, fiber_pts)
    # the basic lift of e'_alpha, the horizontal vector pushing forward to
    # it, is column alpha of H (df H)^-1
    values = fit.omega @ (H @ np.linalg.solve(df @ H, np.eye(f.target.dim)))
    return DescentReport(
        image=base,
        omega_base=values.mean(axis=0),
        constancy_residual=float((values.max(axis=0) - values.min(axis=0)).max()),
        fit_residual_max=float(fit.residual.max()),
    )
