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
derivative of the lifted triple, the brackets — is checked against finite
differences of G itself rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import LocalBasisTriple, check_triple_algebra, doubled
from .connection import (
    MetricField,
    _christoffels,
    christoffel,
    covariant_derivative_vector,
    curvature_operator,
    lie_bracket,
    riemann,
)
from .errors import PreconditionFailedError, ShapeError, ValidationError
from .fields import (
    FdConfig,
    ManifoldSpec,
    Point,
    TensorField,
    eval_field,
    fd_gradient,
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


def connection_shift(g: MetricField, xi: Point, cfg: FdConfig = FdConfig()) -> np.ndarray:
    """M^k_i = Gamma^k_{ji}(x) u^j — the u-part of horizontal lifts is -M X."""
    x, u = _split_xi(g.chart, xi)
    gam = christoffel(g, x, cfg)
    return np.einsum("kji,j->ki", gam, u)


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


class _LiftedMetric(MetricField):
    """The lifted metric: a ``MetricField`` whose batches first fill the
    bundle's frame memo for all their points in one frame batch.  Should
    that batch raise, the points are evaluated one at a time, as
    ``MetricField.matrices`` does, so that a point before the one whose
    frame fails, but whose lifted value fails, still raises first."""

    def __init__(self, field: TensorField, frames: Callable[[Sequence[Point]], list]):
        super().__init__(field)
        object.__setattr__(self, "frames", frames)  # frozen, like the fields

    def matrices(self, points: Sequence[Point]) -> list[np.ndarray]:
        try:
            self.frames(points)
        except Exception:
            pass  # raised again below, or an earlier point's error first
        return super().matrices(points)


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
    cfg: FdConfig = FdConfig()

    @property
    def base_dim(self) -> int:
        return self.base_metric.chart.dim

    def shift(self, xi: Point) -> np.ndarray:
        """The connection shift M at xi, read from the frame memo: L^-1 is
        [[I, 0], [M, I]], so its lower-left block holds connection_shift's
        values bit for bit."""
        n = self.base_dim
        return self.frames([xi])[0][1][n:, :n]

    def point(self, x, u) -> Point:
        return Point(self.spec, np.concatenate([np.asarray(x, float), np.asarray(u, float)]))

    def base_point(self, xi: Point) -> Point:
        return _split_xi(self.base_metric.chart, xi)[0]

    def fiber_vector(self, xi: Point) -> np.ndarray:
        return _split_xi(self.base_metric.chart, xi)[1]


def build_tangent_bundle(
    g: MetricField,
    T: LocalBasisTriple,
    u_box=(-1.0, 1.0),
    cfg: FdConfig = FdConfig(),
) -> SasakiBundle:
    """Assemble the lifted metric, triple and projection over (g, T).

    The construction only makes sense over a pair whose triple satisfies the
    tau algebra and is g-skew; this is spot-checked and a
    PreconditionFailedError raised on violation.
    """
    if T.chart != g.chart:
        raise ValidationError("metric and triple live on different charts")
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
    # Each bundle point's frame (L, L^-1, x) under its coordinate bytes, and
    # each lifted member's components under (a, coordinate bytes): computed
    # once, stored read-only, and only once the evaluation has succeeded.
    memo: dict = {}

    def frames(xis: Sequence[Point]) -> list[tuple[np.ndarray, np.ndarray, Point]]:
        """The frame at each bundle point.  The base Gamma of all the new
        frames comes from one Christoffel batch over their distinct base
        points; should that batch raise, each new point is tried alone on a
        fresh memo of g, in order, so the error is the one the first failing
        point raises alone.  A batch that raises stores no frame and no
        Gamma (g keeps only metric values that passed their checks)."""
        keys = [xi.coords.tobytes() for xi in xis]
        fresh = {key: xi for key, xi in zip(keys, xis) if key not in memo}
        if fresh:
            try:
                xs = {key: _split_xi(base, xi)[0] for key, xi in fresh.items()}
                _christoffels(g, list({x.coords.tobytes(): x for x in xs.values()}.values()), cfg)
            except Exception:
                probe = MetricField(g.field)
                for xi in fresh.values():
                    connection_shift(probe, xi, cfg)
                raise
            new = {}
            for key, xi in fresh.items():
                M = connection_shift(g, xi, cfg)  # Gamma from the batch's memo entries
                L, Linv = np.eye(2 * n), np.eye(2 * n)
                L[n:, :n] = -M
                Linv[n:, :n] = M
                L.flags.writeable = Linv.flags.writeable = False
                new[key] = (L, Linv, xs[key])
            memo.update(new)
        return [memo[key] for key in keys]

    def metric_components(xi: Point) -> np.ndarray:
        _, Linv, x = frames([xi])[0]
        return Linv.T @ doubled(g.matrix(x)) @ Linv

    G = _LiftedMetric(
        TensorField(bundle, 0, 2, metric_components, label="lifted metric"), frames=frames
    )

    def lifted_member(a: int) -> TensorField:
        def comps(xi: Point, a=a) -> np.ndarray:
            key = (a, xi.coords.tobytes())
            if key not in memo:
                L, Linv, x = frames([xi])[0]
                Jt = L @ doubled(eval_field(T.fields[a], x)) @ Linv
                Jt.flags.writeable = False
                memo[key] = Jt
            return memo[key]

        return TensorField(bundle, 1, 1, comps, label=f"lifted J{a + 1}")

    Jt = LocalBasisTriple(lifted_member(0), lifted_member(1), lifted_member(2))
    projection = SubmersionMap(
        source=bundle,
        target=base,
        components=lambda c: np.array(c[:n]),
        label="bundle projection",
    )
    return SasakiBundle(
        spec=bundle,
        metric=G,
        triple=Jt,
        projection=projection,
        base_metric=g,
        base_triple=T,
        frames=frames,
        cfg=cfg,
    )


def lifted_field(bundle: SasakiBundle, X, kind: str) -> TensorField:
    """The canonical bundle extension of a base vector (or (1,0) field).

    kind "h": xi |-> (X(x))^h at xi;  kind "v": xi |-> (X(x))^v.  Constant
    arrays are treated as constant-component base fields.
    """
    n = bundle.base_dim
    base = bundle.base_metric.chart
    if isinstance(X, TensorField):
        if (X.r, X.s) != (1, 0) or X.chart != base:
            raise ValidationError("expected a (1,0) field on the base chart")
        value = lambda x: eval_field(X, x)
    else:
        Xc = np.asarray(X, dtype=float)
        if Xc.shape != (n,):
            raise ShapeError(f"base vector has shape {Xc.shape}, expected ({n},)")
        value = lambda x: Xc
    if kind not in ("h", "v"):
        raise ValidationError("kind must be 'h' or 'v'")

    def comps(xi: Point) -> np.ndarray:
        if kind == "v":
            return lift("v", value(Point(base, xi.coords[:n])))
        _, Linv, x = bundle.frames([xi])[0]
        return lift("h", value(x), Linv[n:, :n])

    return TensorField(bundle.spec, 1, 0, comps, label=f"{kind}-lift")


def _value_and_derivative(
    g: MetricField, X: np.ndarray, Y, x: Point, cfg: FdConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(Y(x), (nabla_X Y)(x)) for Y a constant vector or a (1,0) base field."""
    if isinstance(Y, TensorField):
        return eval_field(Y, x), covariant_derivative_vector(g, Y, X, x, cfg)
    Yx = np.asarray(Y, dtype=float)
    return Yx, np.einsum("kml,m,l->k", christoffel(g, x, cfg), X, Yx)


def oracle_tilde_nabla(
    bundle: SasakiBundle, kind_x: str, X, kind_y: str, Y, xi: Point
) -> np.ndarray:
    """Closed form of the lifted Levi-Civita connection on canonical lifts.

        nabla~_{X^v} Y^v = 0
        nabla~_{X^h} Y^h = (nabla_X Y)^h - (1/2) (R(X, Y) u)^v
        nabla~_{X^h} Y^v = (nabla_X Y)^v + (1/2) (R(u, Y) X)^h
        nabla~_{X^v} Y^h =                 (1/2) (R(u, X) Y)^h

    X is a base vector (only its value at x enters); Y may be a base vector,
    treated as a constant-component field, or a (1,0) base field.  M comes
    from the bundle's frame memo and R from the base metric's memo.
    """
    g, cfg = bundle.base_metric, bundle.cfg
    x, u = _split_xi(g.chart, xi)
    if kind_x == "v" and kind_y == "v":
        return np.zeros(2 * g.chart.dim)
    M, R = bundle.shift(xi), riemann(g, x, cfg)
    X = np.asarray(X, dtype=float)
    Yx, covXY = _value_and_derivative(g, X, Y, x, cfg)
    if kind_x == "h" and kind_y == "h":
        return lift("h", covXY, M) + lift("v", -0.5 * curvature_operator(R, X, Yx, u))
    if kind_x == "h" and kind_y == "v":
        return lift("v", covXY) + lift("h", 0.5 * curvature_operator(R, u, Yx, X), M)
    if kind_x == "v" and kind_y == "h":
        return lift("h", 0.5 * curvature_operator(R, u, X, Yx), M)
    raise ValidationError("kinds must be 'h' or 'v'")


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
    """Max residual between finite differences of the lifted metric's own
    connection and the closed form, over lifts of the base coordinate frame
    in all four kind combinations."""
    n, cfg = bundle.base_dim, bundle.cfg
    dirs = [np.eye(n)[i] for i in range(n)]
    gamG = christoffel(bundle.metric, xi, cfg)
    M = bundle.shift(xi)
    worst = 0.0
    for ky in ("h", "v"):
        for Y in dirs:
            W = lifted_field(bundle, Y, ky)
            Wxi = eval_field(W, xi)
            dW = fd_gradient(W, xi, cfg)
            for kx in ("h", "v"):
                for X in dirs:
                    U = lift(kx, X, M)
                    fd = np.einsum("a,ak->k", U, dW) + np.einsum(
                        "kab,a,b->k", gamG, U, Wxi
                    )
                    closed = oracle_tilde_nabla(bundle, kx, X, ky, Y, xi)
                    worst = max(worst, float(np.abs(fd - closed).max()))
    return worst


def check_nabla_j_oracle(bundle: SasakiBundle, xi: Point) -> float:
    """Max residual between finite differences of (nabla~ Jt_a), from the
    lifted metric's own connection, and the closed form, over the lifted
    frame and all three members."""
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
    g, cfg = bundle.base_metric, bundle.cfg
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    x, u = _split_xi(g.chart, xi)
    Xh = lifted_field(bundle, X, "h")
    Yh = lifted_field(bundle, Y, "h")
    Xv = lifted_field(bundle, X, "v")
    Yv = lifted_field(bundle, Y, "v")
    covXY = _value_and_derivative(g, X, Y, x, cfg)[1]
    R = riemann(g, x, cfg)
    RXYu = curvature_operator(R, X, Y, u)
    vv = float(np.abs(lie_bracket(Xv, Yv, xi, cfg)).max())
    hv = float(np.abs(lie_bracket(Xh, Yv, xi, cfg) - lift("v", covXY)).max())
    hh_val = lie_bracket(Xh, Yh, xi, cfg)
    hh = float(np.abs(hh_val - lift("v", -RXYu)).max())
    hh_flipped = float(np.abs(hh_val - lift("v", +RXYu)).max())
    return BracketReport(
        vv_residual=vv,
        hv_residual=hv,
        hh_residual=hh,
        hh_flipped_residual=hh_flipped,
    )
