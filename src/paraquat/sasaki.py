"""Sasaki-type lift of a neutral metric and its basis triple to the tangent
bundle, plus the closed forms its Levi-Civita connection must satisfy.

A bundle point is written xi = (x, u) with u the fiber vector.  Horizontal and
vertical lifts of a base vector X at xi are

    X^h = (X, -M X),   X^v = (0, X),   M^k_i = Gamma^k_{ji}(x) u^j,

so the frame matrix L = [[I, 0], [-M, I]] has inverse [[I, 0], [M, I]].  The
lifted metric makes both lifts isometric copies of the base and keeps them
orthogonal; the lifted triple acts blockwise through the same frame:

    G = L^{-T} diag(g, g) L^{-1},      Jt_a = L diag(J_a, J_a) L^{-1}.

Everything downstream of these two formulas — the connection cases, the
derivative of the lifted triple, the brackets — is checked against the
derivatives of G, of Jt_a and of the frame L rather than assumed.  These
are exact: M and its first and second partials come from Gamma, dGamma and
d2Gamma, that is from the base's jets to order 3, so G has jets to order 2,
L and each Jt_a to order 1, and the connection takes the lifted Gamma and R
from them.  The base metric and members must have jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import LocalBasisTriple, check_triple_algebra, doubled
from .connection import (
    MetricField,
    _christoffel_partials,
    _christoffels,
    _first_kind,
    _jets,
    christoffel,
    curvature_operator,
    riemann,
)
from .errors import PreconditionFailedError, ShapeError, ValidationError
from .fields import (
    FdConfig,
    ManifoldSpec,
    Point,
    TensorField,
    _check_point,
    _jets_of,
    _memo_batch,
    _order_at_most,
    _point,
    eval_batch,
    sample_points,
)
from .structures import check_hermitian, fit_kahler_oneforms
from .submersion import SubmersionMap

LIFT_PRECONDITION_TOL = 1e-8


def tangent_bundle_chart(base: ManifoldSpec, u_box=(-1.0, 1.0)) -> ManifoldSpec:
    """The 2n-dim chart (x^1..x^n, u^1..u^n) over a base chart."""
    n = base.dim
    ub = np.asarray(u_box, dtype=float)
    if ub.shape == (2,):
        ub = np.tile(ub, (n, 1))
    if ub.shape != (n, 2):
        raise ValidationError(f"u_box must be a pair or an ({n}, 2) array")
    fiber_names = tuple(f"u{i + 1}" for i in range(n))
    if set(fiber_names) & set(base.coords):
        raise ValidationError("base coordinate names collide with fiber names u1..")
    return ManifoldSpec(base.coords + fiber_names, np.vstack([base.domain, ub]))


def _split_xi(base: ManifoldSpec, xi: Point) -> tuple[Point, np.ndarray]:
    n = base.dim
    if xi.chart.dim != 2 * n:
        raise ValidationError(
            f"bundle point has dim {xi.chart.dim}, expected {2 * n} over this base"
        )
    return Point(base, xi.coords[:n]), np.array(xi.coords[n:])


def lift(kind: str, V, M: np.ndarray | None = None) -> np.ndarray:
    """X^h = (X, -M X) for kind "h", X^v = (0, X) for kind "v".

    V is a base vector, or a matrix whose columns are lifted one by one; M is
    the connection shift at the bundle point and is only read for "h".
    """
    V = np.asarray(V, dtype=float)
    if kind == "h":
        return np.concatenate([V, -M @ V])
    if kind == "v":
        return np.concatenate([np.zeros_like(V), V])
    raise ValidationError("kind must be 'h' or 'v'")


def _frame_batch(g: MetricField, C: np.ndarray, cfg: FdConfig) -> list[tuple[np.ndarray, np.ndarray, Point]]:
    """The frames (L, L^-1, x) at the bundle points whose coordinates are the
    rows of C: Gamma from one Christoffel batch over their distinct base
    points, every M = Gamma(., u) from one ``einsum``, and L, L^-1 filled as
    stacks."""
    n = g.chart.dim
    C = C.copy()
    C.flags.writeable = False
    xs = [_point(g.chart, c[:n]) for c in C]
    gam = _stacked_at(lambda qs: _christoffels(g, qs, cfg, order=3), g.chart, xs)
    M = np.einsum("pkji,pj->pki", gam, np.ascontiguousarray(C[:, n:]))
    L = np.broadcast_to(np.eye(2 * n), (len(C), 2 * n, 2 * n)).copy()
    Linv = L.copy()
    L[:, n:, :n] = -M
    Linv[:, n:, :n] = M
    L.flags.writeable = Linv.flags.writeable = False
    return list(zip(L, Linv, xs))


def _christoffel_jets(g: MetricField, xs: Sequence[Point], cfg: FdConfig) -> list[np.ndarray]:
    """[Gamma, dGamma, d2Gamma] at the base points, stacked, with
    dGamma[c, m, k, i, j] = d_m Gamma^k_{ij} and d2Gamma[c, p, m, k, i, j] =
    d_p d_m Gamma^k_{ij}: Gamma and the jets to order 3 from the metric's
    memo, where the frames' Gamma put them (one order-3 jet call per base
    point), and the partials by differentiating g Gamma = T/2 (T as in
    ``connection._first_kind``) once and twice."""

    def compute(qs: list[Point]) -> list:
        gam = np.array(_christoffels(g, qs, cfg, order=3))
        ginv = np.linalg.inv(g.matrices(qs))
        D, H, K = _jets(g, qs, 3)
        dgam = _christoffel_partials(ginv, gam, D, H)
        d2gam = np.einsum(
            "ckl,cpmlij->cpmkij", ginv,
            0.5 * _first_kind(K)
            - np.einsum("cpmlq,cqij->cpmlij", H, gam)
            - np.einsum("cmlq,cpqij->cpmlij", D, dgam)
            - np.einsum("cplq,cmqij->cpmlij", D, dgam),
        )
        return list(zip(gam, dgam, d2gam))

    return [np.array(a) for a in zip(*_memo_batch({}, g.chart, None, None, xs, compute))]


def _blocks(A: np.ndarray, P: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[[A, P^T], [P, g]] over the last two axes of equal-shape stacks."""
    n = g.shape[-1]
    out = np.empty(g.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n], out[..., :n, n:] = A, P.swapaxes(-1, -2)
    out[..., n:, :n], out[..., n:, n:] = P, g
    return out


def _stacked_at(
    evaluate: Callable[[list[Point]], Sequence[np.ndarray]], chart: ManifoldSpec, points: Sequence[Point]
) -> np.ndarray:
    """evaluate's values at points of the chart, stacked; evaluate gets each
    distinct point (by coordinates) once, all in one call: a memo batch on a
    memo of its own."""
    return np.array(_memo_batch({}, chart, None, None, points, evaluate))


@dataclass(frozen=True)
class SasakiBundle:
    """The lifted geometry bundled with what it was built from."""

    spec: ManifoldSpec
    metric: MetricField
    triple: LocalBasisTriple
    projection: SubmersionMap
    base_metric: MetricField
    base_triple: LocalBasisTriple
    # (L, L^-1, x) at each of a batch of bundle points, memoised per bundle
    # (build_tangent_bundle)
    frames: Callable[[Sequence[Point]], list[tuple[np.ndarray, np.ndarray, Point]]] = field(
        repr=False, compare=False
    )
    # (M, dM, d2M) at each of a batch of bundle points, memoised per bundle
    # (build_tangent_bundle)
    shifts: Callable[[Sequence[Point]], list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = field(
        repr=False, compare=False
    )
    cfg: FdConfig = FdConfig()

    @property
    def base_dim(self) -> int:
        return self.base_metric.chart.dim

    def point(self, x, u) -> Point:
        """The bundle point (x, u): x on the base, u the fiber vector, each
        of shape (n,) over an n-dim base."""
        n = self.base_dim
        parts = [np.asarray(V, float) for V in (x, u)]
        for what, V in zip(("x", "u"), parts):
            if V.shape != (n,):
                raise ShapeError(f"{what} has shape {V.shape}, expected ({n},)")
        return Point(self.spec, np.concatenate(parts))

    def base_point(self, xi: Point) -> Point:
        return _split_xi(self.base_metric.chart, xi)[0]


def build_tangent_bundle(
    g: MetricField,
    T: LocalBasisTriple,
    u_box=(-1.0, 1.0),
    cfg: FdConfig = FdConfig(),
) -> SasakiBundle:
    """Assemble the lifted metric, triple and projection over (g, T).

    The construction only makes sense over a pair whose triple satisfies the
    tau algebra and is g-skew; this is spot-checked and a
    PreconditionFailedError raised on violation.  The lift is differentiated
    through the jets of g and of each member, so one without them raises
    ValidationError first.
    """
    if T.chart != g.chart:
        raise ValidationError("metric and triple live on different charts")
    for f in (g.field,) + T.fields:
        _jets_of(f)
    base = g.chart
    n = base.dim
    for p in sample_points(base, 3, seed=20):
        rep = check_triple_algebra(T, p)
        herm = check_hermitian(g, T, p)
        if rep.max_residual >= LIFT_PRECONDITION_TOL or herm >= LIFT_PRECONDITION_TOL:
            raise PreconditionFailedError(
                f"base pair fails at {p}: algebra {rep.max_residual:.3e}, "
                f"hermitian {herm:.3e}"
            )
    bundle = tangent_bundle_chart(base, u_box)
    # Each bundle point's frame (L, L^-1, x) under ("frame", coordinate
    # bytes, None), its shift and the shift's partials (M, dM, d2M) under
    # ("shift", ...), and each lifted member's components under (a, ...),
    # read and filled by fields._memo_batch.
    memo: dict = {}

    def frames(xis: Sequence[Point]) -> list[tuple[np.ndarray, np.ndarray, Point]]:
        """The frame at each bundle point, after the chart check of every
        point and the domain check of the new ones, with ``eval_field``'s
        messages.  The shifts M of all the new frames come from one
        Christoffel batch over their distinct base points and one
        ``einsum``.  Should the batch raise, each point is tried alone, in
        order, with Gamma on a fresh memo of g, so the error is the one the
        first failing point raises alone.  A batch that raises stores no
        frame and no Gamma (g keeps only metric values that passed their
        checks)."""

        def compute(fresh: list[Point]) -> list[tuple[np.ndarray, np.ndarray, Point]]:
            C = np.array([xi.coords for xi in fresh])
            inside = bundle.contains_rows(C)
            if not inside.all():
                _check_point(bundle, fresh[int(inside.argmin())])
            return _frame_batch(g, C, cfg)

        def alone(xi: Point) -> None:
            _check_point(bundle, xi)
            _frame_batch(MetricField(g.field), np.array([xi.coords]), cfg)

        return _memo_batch(memo, bundle, "frame", None, xis, compute, one=alone)

    def shifts(xis: Sequence[Point]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(M, dM, d2M) at each bundle point, as the memo's read-only
        arrays, with dM[A, k, i] = d_A M^k_i and d2M[A, B, k, i] =
        d_A d_B M^k_i over the 2n bundle coordinates; M is the frame's.
        The misses come from one frame batch and one ``_christoffel_jets``
        over their base points:

            d_{x_m} M = d_m Gamma(u, .),    d_{u_m} M^k_i = Gamma^k_{mi},
            d_{x_p} d_{x_m} M = d_p d_m Gamma(u, .),
            d_{x_m} d_{u_p} M^k_i = d_m Gamma^k_{pi},    d_u d_u M = 0."""

        def compute(fresh: list[Point]) -> list:
            F = frames(fresh)
            M = np.array([f[1][n:, :n] for f in F])
            U = np.array([xi.coords[n:] for xi in fresh])
            gam, dgam, d2gam = _christoffel_jets(g, [f[2] for f in F], cfg)
            dM = np.zeros((len(fresh), 2 * n, n, n))
            d2M = np.zeros((len(fresh), 2 * n, 2 * n, n, n))
            dM[:, :n] = np.einsum("cmkji,cj->cmki", dgam, U)
            dM[:, n:] = np.einsum("ckmi->cmki", gam)
            d2M[:, :n, :n] = np.einsum("cpmkji,cj->cpmki", d2gam, U)
            d2M[:, :n, n:] = np.einsum("cmkpi->cmpki", dgam)
            d2M[:, n:, :n] = d2M[:, :n, n:].swapaxes(1, 2)
            for A in (M, dM, d2M):
                A.flags.writeable = False
            return list(zip(M, dM, d2M))

        return _memo_batch(memo, bundle, "shift", None, xis, compute)

    def lifted_metrics(xis: Sequence[Point]) -> np.ndarray:
        """G at each bundle point, stacked: L^-T diag(g, g) L^-1 over one
        frame batch, with g from one batch over their base points."""
        F = frames(xis)
        Linv = np.array([f[1] for f in F])
        gx = np.array(g.matrices([f[2] for f in F]))
        return Linv.transpose(0, 2, 1) @ doubled(gx) @ Linv

    def lifted_metric_jets(xis: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        """G and its partials to ``order`` (1 or 2) at each bundle point,
        stacked, from the blocks G = [[g + M^T P, P^T], [P, g]], P = g M,
        differentiated along the 2n bundle coordinates (g does not vary
        along the fiber), with M, dM, d2M from the shift memo."""
        _order_at_most("lifted metric", order, 2)
        V = lifted_metrics(xis)
        M, dM, d2M = (np.array(A) for A in zip(*shifts(xis)))
        xs = [f[2] for f in frames(xis)]
        gx = np.array(g.matrices(xs))
        dg, d2g = _jets(g, xs)
        gA = np.zeros((len(xis), 2 * n, n, n))
        gA[:, :n] = dg
        P = gx @ M
        PA = np.einsum("cakl,cli->caki", gA, M) + np.einsum("ckl,cali->caki", gx, dM)
        AA = gA + np.einsum("calk,cli->caki", dM, P) + np.einsum("clk,cali->caki", M, PA)
        out = (V, _blocks(AA, PA, gA))
        if order < 2:
            return out
        gAB = np.zeros((len(xis), 2 * n, 2 * n, n, n))
        gAB[:, :n, :n] = d2g
        PAB = (
            np.einsum("cabkl,cli->cabki", gAB, M) + np.einsum("cakl,cbli->cabki", gA, dM)
            + np.einsum("cbkl,cali->cabki", gA, dM) + np.einsum("ckl,cabli->cabki", gx, d2M)
        )
        AAB = (
            gAB + np.einsum("cablk,cli->cabki", d2M, P) + np.einsum("calk,cbli->cabki", dM, PA)
            + np.einsum("cblk,cali->cabki", dM, PA) + np.einsum("clk,cabli->cabki", M, PAB)
        )
        return out + (_blocks(AAB, PAB, gAB),)

    G = MetricField(
        TensorField(
            bundle, 0, 2,
            lambda xi: lifted_metrics([xi])[0],
            label="lifted metric",
            batch=lifted_metrics,
            jets=lifted_metric_jets,
        )
    )

    def lifted_members(a: int, xis: Sequence[Point]) -> list[np.ndarray]:
        """Jt_a at each bundle point, as the memo's read-only arrays; the
        misses come from one stacked L diag(J_a, J_a) L^-1 over one frame
        batch, with J_a evaluated once per distinct base point."""

        def compute(fresh: list[Point]) -> np.ndarray:
            F = frames(fresh)
            L, Linv = np.array([f[0] for f in F]), np.array([f[1] for f in F])
            J = _stacked_at(lambda xs: eval_batch(T.fields[a], xs), base, [f[2] for f in F])
            Jt = L @ doubled(J) @ Linv
            Jt.flags.writeable = False
            return Jt

        return _memo_batch(memo, bundle, a, None, xis, compute)

    def lifted_member_jets(a: int, xis: Sequence[Point], order: int) -> tuple[np.ndarray, np.ndarray]:
        """Jt_a and its first partials at each bundle point, stacked: Jt_a
        is [[J, 0], [JM - MJ, J]], so d_A Jt_a has the blocks d_A J and
        d_A J M + J d_A M - d_A M J - M d_A J, with J from the base member's
        jets and M, dM from the shift memo."""
        _order_at_most(f"lifted J{a + 1}", order, 1)
        M, dM, _ = (np.array(A) for A in zip(*shifts(xis)))
        J, dJ = T.fields[a].jets([f[2] for f in frames(xis)], 1)
        JA = np.zeros((len(xis), 2 * n, n, n))
        JA[:, :n] = dJ
        C = (
            np.einsum("caki,cil->cakl", JA, M) + np.einsum("cki,cail->cakl", J, dM)
            - np.einsum("caki,cil->cakl", dM, J) - np.einsum("cki,cail->cakl", M, JA)
        )
        dJt = np.zeros((len(xis), 2 * n, 2 * n, 2 * n))
        dJt[:, :, :n, :n] = dJt[:, :, n:, n:] = JA
        dJt[:, :, n:, :n] = C
        return np.array(lifted_members(a, xis)), dJt

    def lifted_member(a: int) -> TensorField:
        return TensorField(
            bundle, 1, 1,
            lambda xi: lifted_members(a, [xi])[0],
            label=f"lifted J{a + 1}",
            batch=lambda xis: lifted_members(a, xis),
            jets=lambda xis, order: lifted_member_jets(a, xis, order),
        )

    Jt = LocalBasisTriple(lifted_member(0), lifted_member(1), lifted_member(2))

    def projection_jets(xis: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        """(x, u) -> x is linear: df = [I 0] and every higher partial is 0."""
        df = np.zeros((len(xis), 2 * n, n))
        df[:, :n] = np.eye(n)
        return (np.array([xi.coords[:n] for xi in xis]), df) + tuple(
            np.zeros((len(xis),) + (2 * n,) * k + (n,)) for k in range(2, order + 1)
        )

    projection = SubmersionMap(
        source=bundle,
        target=base,
        components=lambda c: np.array(c[:n]),
        label="bundle projection",
        jets=projection_jets,
    )
    return SasakiBundle(
        spec=bundle,
        metric=G,
        triple=Jt,
        projection=projection,
        base_metric=g,
        base_triple=T,
        frames=frames,
        shifts=shifts,
        cfg=cfg,
    )


def _frame_derivative(bundle: SasakiBundle, xi: Point) -> tuple[np.ndarray, np.ndarray]:
    """(L, D) at xi, D[I, k, J] = E_I(E_J)^k: the lifted frame E = L
    differentiated along its own members, with dL exact, -dM in the lower
    left block."""
    n = bundle.base_dim
    L = bundle.frames([xi])[0][0]
    dL = np.zeros((2 * n, 2 * n, 2 * n))
    dL[:, n:, :n] = -bundle.shifts([xi])[0][1]
    return L, np.einsum("aI,akJ->IkJ", L, dL)


def oracle_tilde_nabla(bundle: SasakiBundle, xi: Point) -> np.ndarray:
    """Closed form of the lifted Levi-Civita connection on the lifted frame
    E = L at xi, E_i = e_i^h and E_{n+i} = e_i^v: C[I, k, J] =
    (nabla~_{E_I} E_J)^k, with

        nabla~_{X^v} Y^v = 0
        nabla~_{X^h} Y^h = (nabla_X Y)^h - (1/2) (R(X, Y) u)^v
        nabla~_{X^h} Y^v = (nabla_X Y)^v + (1/2) (R(u, Y) X)^h
        nabla~_{X^v} Y^h =                 (1/2) (R(u, X) Y)^h

    on the base coordinate fields X = e_i, Y = e_j, so that nabla_X Y is
    Gamma^k_{ij}.  L comes from the bundle's frame memo and Gamma, R from
    the base metric's memo.
    """
    g, cfg = bundle.base_metric, bundle.cfg
    n = bundle.base_dim
    L, _, x = bundle.frames([xi])[0]
    u = xi.coords[n:]
    gam, R = christoffel(g, x, cfg), riemann(g, x, cfg)
    # B[I, :, J] = (P, Q) with nabla~_{E_I} E_J = P^h + Q^v = L (P, Q)
    B = np.zeros((2 * n, 2 * n, 2 * n))
    B[:n, :n, :n] = B[:n, n:, n:] = np.einsum("kij->ikj", gam)
    B[:n, n:, :n] = -0.5 * np.einsum("lkij,k->ilj", R, u)
    B[:n, :n, n:] = 0.5 * np.einsum("limj,m->ilj", R, u)
    B[n:, :n, :n] = 0.5 * np.einsum("ljmi,m->ilj", R, u)
    return np.einsum("kl,IlJ->IkJ", L, B)


def oracle_tilde_nabla_J(bundle: SasakiBundle, xi: Point) -> np.ndarray:
    """Closed form of nabla~ Jt_a on the lifted frame E = L at xi, E_i = e_i^h
    and E_{n+i} = e_i^v: C[a, I, k, J] = ((nabla~_{E_I} Jt_a) E_J)^k, with

        (v, v): 0
        (v, h): (1/2) ( R(u, X) J_a Y - J_a R(u, X) Y )^h
        (h, h): ((nabla_X J_a) Y)^h
                - (1/2) ( R(X, J_a Y) u - J_a R(X, Y) u )^v
        (h, v): ((nabla_X J_a) Y)^v
                + (1/2) ( R(u, J_a Y) X - J_a R(u, Y) X )^h

    Tensorial in both slots, so its values on E determine it.  Each curvature
    term is a commutator [A_i, J_a], A_i being R(u, e_i)., R(e_i, .)u or
    R(u, .)e_i.  L comes from the bundle's frame memo, R and nabla J_a (the
    base Kähler fit's) from the base metric's memo.
    """
    g, T, cfg = bundle.base_metric, bundle.base_triple, bundle.cfg
    n = bundle.base_dim
    L, _, x = bundle.frames([xi])[0]
    u = xi.coords[n:]
    R, J = riemann(g, x, cfg), T.matrices(x)
    nabla = fit_kahler_oneforms(g, T, x, cfg).nabla

    def commutator(A):  # [A_i, J_a] as [a, i, l, j]
        return np.einsum("ilk,akj->ailj", A, J) - np.einsum("alk,ikj->ailj", J, A)

    # B[a, I, :, J] = (P, Q) with (nabla~_{E_I} Jt_a) E_J = P^h + Q^v = L (P, Q)
    B = np.zeros((3, 2 * n, 2 * n, 2 * n))
    B[:, :n, :n, :n] = B[:, :n, n:, n:] = nabla
    B[:, :n, n:, :n] = -0.5 * commutator(np.einsum("lkij,k->ilj", R, u))
    B[:, :n, :n, n:] = 0.5 * commutator(np.einsum("limj,m->ilj", R, u))
    B[:, n:, :n, :n] = 0.5 * commutator(np.einsum("lkmi,m->ilk", R, u))
    return np.einsum("kl,aIlJ->aIkJ", L, B)


def check_connection_oracle(bundle: SasakiBundle, xi: Point) -> float:
    """Max residual between the lifted metric's own connection and the
    closed form, on the lifted frame: nabla~_{E_I} E_J = E_I(E_J) +
    Gamma~(E_I, E_J), with Gamma~ and the frame's derivative exact."""
    gamG = christoffel(bundle.metric, xi, bundle.cfg)
    L, D = _frame_derivative(bundle, xi)
    fd = D + np.einsum("kab,aI,bJ->IkJ", gamG, L, L)
    return float(np.abs(fd - oracle_tilde_nabla(bundle, xi)).max())


def check_nabla_j_oracle(bundle: SasakiBundle, xi: Point) -> float:
    """Max residual between (nabla~ Jt_a), from the lifted metric's own
    connection, and the closed form, over the lifted frame and all three
    members, exact."""
    L = bundle.frames([xi])[0][0]
    D = fit_kahler_oneforms(bundle.metric, bundle.triple, xi, bundle.cfg).nabla
    C = oracle_tilde_nabla_J(bundle, xi)
    return float(np.abs(np.einsum("aAkl,AI,lJ->aIkJ", D, L, L) - C).max())


@dataclass(frozen=True)
class BracketReport:
    """Residuals of the lifted-frame bracket identities at one bundle point,
    for constant-component base vectors X, Y:

        [X^v, Y^v] = 0
        [X^h, Y^v] = (nabla_X Y)^v
        [X^h, Y^h] = -(R(X, Y) u)^v

    hh_flipped_residual is evaluated against +(R(X,Y)u)^v: it stays large
    whenever curvature is present, which pins the curvature sign convention.
    """

    vv_residual: float
    hv_residual: float
    hh_residual: float
    hh_flipped_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.vv_residual, self.hv_residual, self.hh_residual)


def check_bracket(bundle: SasakiBundle, X, Y, xi: Point) -> BracketReport:
    """The bracket identities for base vectors X, Y at xi.  The lifts of
    constant-component fields have constant coefficients on the lifted
    frame, so each bracket is the frame's [E_I, E_J] = E_I(E_J) - E_J(E_I)
    contracted with them."""
    g, cfg = bundle.base_metric, bundle.cfg
    n = bundle.base_dim
    X, Y = (np.asarray(V, dtype=float) for V in (X, Y))
    for V in (X, Y):
        if V.shape != (n,):
            raise ShapeError(f"base vector has shape {V.shape}, expected ({n},)")
    x, u = _split_xi(g.chart, xi)
    _, D = _frame_derivative(bundle, xi)  # the frame batch checks xi's chart first
    K = D - np.einsum("IkJ->JkI", D)
    zero = np.zeros(n)
    h = lambda V: np.concatenate([V, zero])  # coefficients of V^h and V^v on E
    v = lambda V: np.concatenate([zero, V])
    bracket = lambda a, b: np.einsum("I,IkJ,J->k", a, K, b)
    covXY = np.einsum("kml,m,l->k", christoffel(g, x, cfg), X, Y)
    RXYu = curvature_operator(riemann(g, x, cfg), X, Y, u)
    hh_val = bracket(h(X), h(Y))
    return BracketReport(
        vv_residual=float(np.abs(bracket(v(X), v(Y))).max()),
        hv_residual=float(np.abs(bracket(h(X), v(Y)) - lift("v", covXY)).max()),
        hh_residual=float(np.abs(hh_val - lift("v", -RXYu)).max()),
        hh_flipped_residual=float(np.abs(hh_val - lift("v", +RXYu)).max()),
    )
