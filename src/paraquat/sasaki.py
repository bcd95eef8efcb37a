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
d2Gamma (``connection._christoffel_jets``), that is from the base's jets
to order 3, so G has jets to order 2, L and each Jt_a to order 1, and the
connection takes the lifted Gamma and R from them.  The base metric and
members must have jets.  A bundle memoises M and (dM, d2M) per point
(``SasakiBundle.shift`` and ``shift_partials``), each read as a fresh
stack with row c for point c under the memo rule of
``fields._memo_batch``; L and L^-1 are filled from an M stack wherever
they are read (``_frames``), and x is read from the point's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import LocalBasisTriple, check_triple_algebra, doubled, stacked_triple
from .connection import (
    MetricField,
    _christoffel_jets,
    _christoffels,
    _jets,
    christoffel,  # noqa: F401  unused; perfbench's tracer test asserts that it rebinds sasaki.christoffel
    covariant_derivatives,
    riemann,
)
from .errors import PreconditionFailedError, ShapeError, ValidationError
from .fields import (
    ManifoldSpec,
    Point,
    TensorField,
    _check_box,
    _jets_of,
    _memo_batch,
    _order_at_most,
    _point,
    sample_points,
)
from .structures import check_hermitian
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


def _frames(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frames L = [[I, 0], [-M, I]] and L^-1 = [[I, 0], [M, I]] at each
    point of a stack of shifts M, filled as stacks."""
    c, n = M.shape[:2]
    L = np.broadcast_to(np.eye(2 * n), (c, 2 * n, 2 * n)).copy()
    Linv = L.copy()
    L[:, n:, :n], Linv[:, n:, :n] = -M, M
    return L, Linv


def _base_points(base: ManifoldSpec, xis: Sequence[Point]) -> list[Point]:
    """The base point x of each bundle point (x, u), whose coordinates are
    a view of the bundle point's; the bundle points' chart is checked
    before, by the shift memo."""
    return [_point(base, xi.coords[: base.dim]) for xi in xis]


def _along_u(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A[c, ..., j, i] u[c, j] summed over j at each point of a stack: u as
    a row vector times each matrix of the point's A."""
    return (u.reshape(u.shape[:1] + (1,) * (A.ndim - 2) + u.shape[1:]) @ A)[..., 0, :]


def _lifted_metric(M: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """G = L^-T diag(g, g) L^-1 at each point of stacks of shifts M and of
    base metric values gx."""
    Linv = _frames(M)[1]
    return Linv.transpose(0, 2, 1) @ doubled(gx) @ Linv


def _blocks(A: np.ndarray, P: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[[A, P^T], [P, g]] over the last two axes of equal-shape stacks."""
    n = g.shape[-1]
    out = np.empty(g.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n], out[..., :n, n:] = A, P.swapaxes(-1, -2)
    out[..., n:, :n], out[..., n:, n:] = P, g
    return out


@dataclass(frozen=True)
class SasakiBundle:
    """The lifted geometry bundled with what it was built from."""

    spec: ManifoldSpec
    metric: MetricField
    triple: LocalBasisTriple
    projection: SubmersionMap
    base_metric: MetricField
    base_triple: LocalBasisTriple
    # the M stack, and the dM and d2M stacks, of a batch of bundle points,
    # memoised per bundle (build_tangent_bundle)
    shift: Callable[[Sequence[Point]], np.ndarray] = field(repr=False, compare=False)
    shift_partials: Callable[[Sequence[Point]], tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False)

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
        """The base point x of the bundle point xi = (x, u)."""
        n = self.base_dim
        if xi.chart.dim != 2 * n:
            raise ValidationError(f"bundle point has dim {xi.chart.dim}, expected {2 * n} over this base")
        return Point(self.base_metric.chart, xi.coords[:n])


def build_tangent_bundle(
    g: MetricField,
    T: LocalBasisTriple,
    u_box=(-1.0, 1.0),
) -> SasakiBundle:
    """Assemble the lifted metric, triple and projection over (g, T).

    The construction only makes sense over a pair whose triple satisfies the
    tau algebra and is g-skew; this is spot-checked at three points, in one
    algebra and one hermitian batch, and a PreconditionFailedError raised
    naming the first point that violates either.  The lift is differentiated
    through the jets of g and of each member, so one without them raises
    ValidationError first.
    """
    if T.chart != g.chart:
        raise ValidationError("metric and triple live on different charts")
    for f in (g.field,) + T.fields:
        _jets_of(f)
    base = g.chart
    n = base.dim
    spots = sample_points(base, 3, seed=20)
    algebra, hermitian = _memo_batch(
        {}, base, None, spots, lambda qs: (check_triple_algebra(T, qs).max_residual, check_hermitian(g, T, qs))
    )
    for p, alg, herm in zip(spots, algebra, hermitian):
        if not (alg < LIFT_PRECONDITION_TOL and herm < LIFT_PRECONDITION_TOL):
            raise PreconditionFailedError(f"base pair fails at {p}: algebra {alg:.3e}, hermitian {herm:.3e}")
    bundle = tangent_bundle_chart(base, u_box)
    # M under ("shift", coordinate bytes) and (dM, d2M) under ("shift partials", ...)
    memo: dict = {}

    def shift(xis: Sequence[Point]) -> np.ndarray:
        """M = Gamma(u, .) at each bundle point, stacked, after the chart
        check of every point and the box test of the new ones
        (``fields._check_box``).  The new shifts come from one Christoffel
        batch over their distinct base points and u times Gamma^k for each
        k (``_along_u``).  A batch
        that raises raises what its first failing point raises alone, and
        stores no shift and no Gamma (g keeps only metric values that passed
        their checks)."""

        def compute(fresh: list[Point]) -> np.ndarray:
            C = _check_box(bundle, fresh)
            gam = _christoffels(g, _base_points(base, fresh), order=3)
            return _along_u(gam, np.ascontiguousarray(C[:, n:]))

        return _memo_batch(memo, bundle, "shift", xis, compute)

    def shift_partials(xis: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
        """(dM, d2M) at each bundle point, stacked, with dM[c, A, k, i] =
        d_A M^k_i and d2M[c, A, B, k, i] = d_A d_B M^k_i over the 2n bundle
        coordinates, after the checks of ``shift``; an empty list gives two
        empty arrays.  The misses come from one ``_christoffel_jets`` of
        order 2 over their base points, which this memo stores and replays:

            d_{x_m} M = d_m Gamma(u, .),    d_{u_m} M^k_i = Gamma^k_{mi},
            d_{x_p} d_{x_m} M = d_p d_m Gamma(u, .),
            d_{x_m} d_{u_p} M^k_i = d_m Gamma^k_{pi},    d_u d_u M = 0,

        the sums with u as in ``shift``."""

        def compute(fresh: list[Point]) -> tuple[np.ndarray, np.ndarray]:
            U = np.ascontiguousarray(_check_box(bundle, fresh)[:, n:])
            gam, dgam, d2gam = _christoffel_jets(g, _base_points(base, fresh), 2)
            dM = np.zeros((len(fresh), 2 * n, n, n))
            d2M = np.zeros((len(fresh), 2 * n, 2 * n, n, n))
            dM[:, :n] = _along_u(dgam, U)
            dM[:, n:] = np.einsum("ckmi->cmki", gam)
            d2M[:, :n, :n] = _along_u(d2gam, U)
            d2M[:, :n, n:] = np.einsum("cmkpi->cmpki", dgam)
            d2M[:, n:, :n] = d2M[:, :n, n:].swapaxes(1, 2)
            return dM, d2M

        return _memo_batch(memo, bundle, "shift partials", xis, compute) if xis else (np.empty(0), np.empty(0))

    def lifted_metrics(xis: Sequence[Point]) -> np.ndarray:
        """G at each bundle point, stacked: ``_lifted_metric`` of one shift
        batch and of g from one batch over their base points."""
        return _lifted_metric(shift(xis), g.matrices(_base_points(base, xis)))

    def lifted_metric_jets(xis: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        """G and its partials to ``order`` (1 or 2) at each bundle point,
        stacked, from the blocks G = [[g + M^T P, P^T], [P, g]], P = g M,
        differentiated along the 2n bundle coordinates (g does not vary
        along the fiber), with M, dM, d2M from one read each of the shift
        memo and g from one batch over the base points; every term is a
        matrix product per point and bundle direction."""
        _order_at_most("lifted metric", order, 2)
        M, (dM, d2M) = shift(xis), shift_partials(xis)
        xs = _base_points(base, xis)
        gx = g.matrices(xs)
        V = _lifted_metric(M, gx)
        dg, d2g = _jets(g, xs)
        gA = np.zeros((len(xis), 2 * n, n, n))
        gA[:, :n] = dg
        P = gx @ M
        Mt, dMt = M.swapaxes(-1, -2), dM.swapaxes(-1, -2)
        PA = gA @ M[:, None] + gx[:, None] @ dM
        AA = gA + dMt @ P[:, None] + Mt[:, None] @ PA
        out = (V, _blocks(AA, PA, gA))
        if order < 2:
            return out
        gAB = np.zeros((len(xis), 2 * n, 2 * n, n, n))
        gAB[:, :n, :n] = d2g
        PAB = (
            gAB @ M[:, None, None] + gA[:, :, None] @ dM[:, None]
            + gA[:, None] @ dM[:, :, None] + gx[:, None, None] @ d2M
        )
        AAB = (
            gAB + d2M.swapaxes(-1, -2) @ P[:, None, None] + dMt[:, :, None] @ PA[:, None]
            + dMt[:, None] @ PA[:, :, None] + Mt[:, None, None] @ PAB
        )
        return out + (_blocks(AAB, PAB, gAB),)

    G = MetricField(
        TensorField(bundle, 0, 2, lifted_metrics, label="lifted metric", jets=lifted_metric_jets)
    )

    def lifted_triple(xis: Sequence[Point], order: int) -> tuple[np.ndarray, ...]:
        """The three lifted members' jets at once (``stacked_triple``) over
        one shift batch: Jt_a = L diag(J_a, J_a) L^-1 = [[J, 0], [JM - MJ,
        J]] from the base triple's values, and d_A Jt_a, whose blocks are d_A
        J and d_A J M + J d_A M - d_A M J - M d_A J, from one ``jets`` call
        of the base triple and the shift memo, each term a matrix product
        per point, member and bundle direction."""
        M = shift(xis)
        L, Linv = _frames(M)
        xs = _base_points(base, xis)
        V = L[:, None] @ doubled(T.values(xs)) @ Linv[:, None]
        if order == 0:
            return (V,)
        dM = shift_partials(xis)[0]
        J, dJ = T.jets(xs)
        JA = np.zeros((len(xis), 3, 2 * n, n, n))
        JA[:, :, :n] = dJ
        C = JA @ M[:, None, None] + J[:, :, None] @ dM[:, None] - dM[:, None] @ J[:, :, None] - M[:, None, None] @ JA
        dJt = np.zeros((len(xis), 3, 2 * n, 2 * n, 2 * n))
        dJt[..., :n, :n] = dJt[..., n:, n:] = JA
        dJt[..., n:, :n] = C
        return V, dJt

    Jt = stacked_triple(bundle, lifted_triple, [f"lifted J{a + 1}" for a in range(3)])

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
        components=lambda C: C[..., :n],
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
        shift=shift,
        shift_partials=shift_partials,
    )


def _frame_derivatives(bundle: SasakiBundle, xis: Sequence[Point], L: np.ndarray) -> np.ndarray:
    """D[c, I, k, J] = E_I(E_J)^k at each bundle point, stacked: the lifted
    frame E = L, given stacked, differentiated along its own members, with
    dL exact, -dM in the lower left block, and dM from one
    ``shift_partials`` call: L^T dL, dL flattened over (k, J)."""
    n = bundle.base_dim
    dL = np.zeros((len(xis), 2 * n, 2 * n, 2 * n))
    dL[:, :, n:, :n] = -bundle.shift_partials(xis)[0]
    return (L.transpose(0, 2, 1) @ dL.reshape(len(xis), 2 * n, -1)).reshape(dL.shape)


def _base_geometry(bundle: SasakiBundle, xis: Sequence[Point]) -> tuple[np.ndarray, list[Point], np.ndarray]:
    """(L, x, u) at each bundle point: L stacked from one ``shift`` call,
    x from the coordinates, the fiber vectors u stacked."""
    base = bundle.base_metric.chart
    L = _frames(bundle.shift(xis))[0]
    return L, _base_points(base, xis), np.array([xi.coords[base.dim:] for xi in xis])


def _curvature_along_u(R: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The curvature terms of the lifted connection at each point of stacks
    of R and of u, each as [c, i, l, j]: R(e_i, e_j) u, R(u, e_j) e_i and
    R(u, e_i) e_j, the last two transposes of one sum with u
    (``_along_u``)."""
    V = _along_u(R.transpose(0, 1, 3, 2, 4), u)  # [c, l, i, j] = R^l_{kij} u^k
    W = _along_u(R, u)  # [c, l, a, b] = R^l_{amb} u^m
    return V.transpose(0, 2, 1, 3), W.transpose(0, 2, 1, 3), W.transpose(0, 3, 1, 2)


def oracle_tilde_nabla(bundle: SasakiBundle, xis: Sequence[Point]) -> np.ndarray:
    """Closed form of the lifted Levi-Civita connection on the lifted frame
    E = L at each bundle point xi, stacked, E_i = e_i^h and E_{n+i} =
    e_i^v: C[c, I, k, J] = (nabla~_{E_I} E_J)^k at the c-th point, with

        nabla~_{X^v} Y^v = 0
        nabla~_{X^h} Y^h = (nabla_X Y)^h - (1/2) (R(X, Y) u)^v
        nabla~_{X^h} Y^v = (nabla_X Y)^v + (1/2) (R(u, Y) X)^h
        nabla~_{X^v} Y^h =                 (1/2) (R(u, X) Y)^h

    on the base coordinate fields X = e_i, Y = e_j, so that nabla_X Y is
    Gamma^k_{ij}.  L comes from the bundle's shift memo, Gamma and R from
    one ``_christoffels`` and one ``riemann`` over the base points, the
    curvature terms from ``_curvature_along_u``, and L is applied to each
    frame member's components as a matrix product.  A batch that raises
    raises what its first failing point raises alone.
    """
    g, n = bundle.base_metric, bundle.base_dim

    def compute(qs: list[Point]) -> np.ndarray:
        L, xs, u = _base_geometry(bundle, qs)
        gam, R = _christoffels(g, xs), riemann(g, xs)
        # B[c, I, :, J] = (P, Q) with nabla~_{E_I} E_J = P^h + Q^v = L (P, Q)
        Rxy, Rux, Ruy = _curvature_along_u(R, u)
        B = np.zeros((len(qs), 2 * n, 2 * n, 2 * n))
        B[:, :n, :n, :n] = B[:, :n, n:, n:] = np.einsum("ckij->cikj", gam)
        B[:, :n, n:, :n] = -0.5 * Rxy
        B[:, :n, :n, n:] = 0.5 * Rux
        B[:, n:, :n, :n] = 0.5 * Ruy
        return L[:, None] @ B

    return _memo_batch({}, bundle.spec, None, xis, compute)


def oracle_tilde_nabla_J(bundle: SasakiBundle, xis: Sequence[Point]) -> np.ndarray:
    """Closed form of nabla~ Jt_a on the lifted frame E = L at each bundle
    point xi, stacked, E_i = e_i^h and E_{n+i} = e_i^v: C[c, a, I, k, J] =
    ((nabla~_{E_I} Jt_a) E_J)^k at the c-th point, with

        (v, v): 0
        (v, h): (1/2) ( R(u, X) J_a Y - J_a R(u, X) Y )^h
        (h, h): ((nabla_X J_a) Y)^h
                - (1/2) ( R(X, J_a Y) u - J_a R(X, Y) u )^v
        (h, v): ((nabla_X J_a) Y)^v
                + (1/2) ( R(u, J_a Y) X - J_a R(u, Y) X )^h

    Tensorial in both slots, so its values on E determine it.  Each curvature
    term is a commutator [A_i, J_a], A_i being R(u, e_i)., R(e_i, .)u or
    R(u, .)e_i.  L comes from the bundle's shift memo, R from one
    ``riemann``, J from one ``T.values`` and nabla J_a from one base Kähler
    fit, all over the base points; the curvature terms come from
    ``_curvature_along_u``, and the commutators and L's action are matrix
    products per point, member and frame member.  A batch that raises
    raises what its first failing point raises alone.
    """
    g, T, n = bundle.base_metric, bundle.base_triple, bundle.base_dim

    def compute(qs: list[Point]) -> np.ndarray:
        L, xs, u = _base_geometry(bundle, qs)
        R, J, nabla = riemann(g, xs), T.values(xs), covariant_derivatives(g, T, xs)

        def commutator(A):  # [A_i, J_a] as [c, a, i, l, j]
            return A[:, None] @ J[:, :, None] - J[:, :, None] @ A[:, None]

        Rxy, Rux, Ruy = _curvature_along_u(R, u)
        # B[c, a, I, :, J] = (P, Q) with (nabla~_{E_I} Jt_a) E_J = P^h + Q^v = L (P, Q)
        B = np.zeros((len(qs), 3, 2 * n, 2 * n, 2 * n))
        B[:, :, :n, :n, :n] = B[:, :, :n, n:, n:] = nabla
        B[:, :, :n, n:, :n] = -0.5 * commutator(Rxy)
        B[:, :, :n, :n, n:] = 0.5 * commutator(Rux)
        B[:, :, n:, :n, :n] = 0.5 * commutator(Ruy)
        return L[:, None, None] @ B

    return _memo_batch({}, bundle.spec, None, xis, compute)


def check_connection_oracle(bundle: SasakiBundle, xis: Sequence[Point]) -> np.ndarray:
    """Max residual at each bundle point, an (N,) array, between the
    lifted metric's own connection and the closed form, on the lifted
    frame: nabla~_{E_I} E_J = E_I(E_J) + Gamma~(E_I, E_J), with Gamma~ and
    the frame's derivative exact.  Gamma~ comes from one ``_christoffels``
    of the lifted metric, the frame's derivative and the closed form each
    stacked over the points; Gamma~(L, L) is L^T Gamma~^k L for each k, two
    matrix products, one L at a time.  A batch that raises raises what its
    first failing point raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        gamG = _christoffels(bundle.metric, qs)
        L = _frames(bundle.shift(qs))[0]
        gamLL = L.transpose(0, 2, 1)[:, None] @ gamG @ L[:, None]  # [c, k, I, J]
        fd = _frame_derivatives(bundle, qs, L) + gamLL.transpose(0, 2, 1, 3)
        return np.abs(fd - oracle_tilde_nabla(bundle, qs)).max(axis=(1, 2, 3))

    return _memo_batch({}, bundle.spec, None, xis, compute)


def check_nabla_j_oracle(bundle: SasakiBundle, xis: Sequence[Point]) -> np.ndarray:
    """Max residual at each bundle point, an (N,) array, between
    (nabla~ Jt_a), from the lifted metric's own connection, and the closed
    form, over the lifted frame and all three members, exact: L from one
    ``shift`` call, nabla~ Jt_a from one Kähler fit of the lifted pair and
    the closed form stacked over the points, and nabla~ Jt_a on the frame,
    D(L, L), as L^T D_a[., k, .] L for each member a and component k, two
    matrix products, one L at a time.  A batch that raises raises what its
    first failing point raises alone."""

    def compute(qs: list[Point]) -> np.ndarray:
        L = _frames(bundle.shift(qs))[0]
        D = covariant_derivatives(bundle.metric, bundle.triple, qs)
        C = oracle_tilde_nabla_J(bundle, qs)
        DLL = L.transpose(0, 2, 1)[:, None, None] @ D.transpose(0, 1, 3, 2, 4) @ L[:, None, None]  # [c, a, k, I, J]
        return np.abs(DLL.transpose(0, 1, 3, 2, 4) - C).max(axis=(1, 2, 3, 4))

    return _memo_batch({}, bundle.spec, None, xis, compute)


class BracketReport(NamedTuple):
    """Residuals of the lifted-frame bracket identities over a sample of
    bundle points: a NamedTuple of (N, P) arrays, row c for point c and
    column p for the pair p of constant-component base vectors X, Y:

        [X^v, Y^v] = 0
        [X^h, Y^v] = (nabla_X Y)^v
        [X^h, Y^h] = -(R(X, Y) u)^v

    hh_flipped_residual is evaluated against +(R(X,Y)u)^v: it stays large
    whenever curvature is present, which pins the curvature sign convention.
    """

    vv_residual: np.ndarray
    hv_residual: np.ndarray
    hh_residual: np.ndarray
    hh_flipped_residual: np.ndarray

    @property
    def max_residual(self) -> np.ndarray:
        return np.max([self.vv_residual, self.hv_residual, self.hh_residual], axis=0)


def check_bracket(bundle: SasakiBundle, pairs: Sequence[tuple], xis: Sequence[Point]) -> BracketReport:
    """The bracket identities for every pair (X, Y) of base vectors at each
    bundle point, one report of (N, P) stacks: entry [c, p] is point c and
    pair p, in the order of pairs.  The lifts of constant-component fields
    have constant coefficients on the lifted frame, so each bracket is the
    frame's [E_I, E_J] = E_I(E_J) - E_J(E_I) contracted with them: the
    frame's derivative, Gamma and R over the base points each in one batch,
    every bracket of every pair, like nabla_X Y and R(X, Y) u
    (``_curvature_along_u``), as two matrix-vector products per pair, its
    first vector times the array flattened over its other two slots, then
    its second vector, so that a pair rounds alike alone or among others.
    The vectors' shapes are checked first; a batch that raises raises what
    its first failing point raises alone."""
    g, n = bundle.base_metric, bundle.base_dim
    X, Y = ([np.asarray(V, dtype=float) for V in vs] for vs in zip(*pairs))
    for V in X + Y:
        if V.shape != (n,):
            raise ShapeError(f"base vector has shape {V.shape}, expected ({n},)")
    X, Y = np.array(X), np.array(Y)
    zero = np.zeros_like(X)
    h = lambda V: np.concatenate([V, zero], axis=1)  # coefficients of V^h and V^v on E
    v = lambda V: np.concatenate([zero, V], axis=1)

    def pairs_of(A, a, b):  # a[p, i] A[c, i, k, j] b[p, j] as [c, p, k], one pair at a time
        aA = a[:, None] @ A.reshape(len(A), 1, a.shape[1], -1)  # [c, p, 1, (k, j)]
        return (aA.reshape(len(A), len(a), -1, b.shape[1]) @ b[:, :, None])[..., 0]

    def compute(qs: list[Point]) -> np.ndarray:
        L, xs, u = _base_geometry(bundle, qs)
        D = _frame_derivatives(bundle, qs, L)
        K = D - np.einsum("cIkJ->cJkI", D)
        bracket = lambda a, b: pairs_of(K, a, b)
        lift_v = lambda W: np.concatenate([np.zeros_like(W), W], axis=2)
        covXY = pairs_of(_christoffels(g, xs).transpose(0, 2, 1, 3), X, Y)
        RXYu = pairs_of(_curvature_along_u(riemann(g, xs), u)[0], X, Y)
        hh_val = bracket(h(X), h(Y))
        residuals = np.stack([
            bracket(v(X), v(Y)),
            bracket(h(X), v(Y)) - lift_v(covXY),
            hh_val - lift_v(-RXYu),
            hh_val - lift_v(+RXYu),
        ], axis=2)  # [c, p, residual, k]
        return np.abs(residuals).max(axis=3)

    return BracketReport(*_memo_batch({}, bundle.spec, None, xis, compute).reshape(-1, len(X), 4).transpose(2, 0, 1))
