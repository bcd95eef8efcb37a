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
from typing import Callable

import numpy as np

from .algebra import LocalBasisTriple, check_triple_algebra, doubled
from .connection import (
    MetricField,
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
from .structures import check_hermitian, fit_kahler_oneforms, span_combination
from .submersion import SubmersionMap

LIFT_PRECONDITION_TOL = 1e-8
FLAT_BASE_TOL = 1e-3


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


@dataclass(frozen=True)
class SasakiBundle:
    """The lifted geometry bundled with what it was built from."""

    spec: ManifoldSpec
    metric: MetricField
    triple: LocalBasisTriple
    projection: SubmersionMap
    base_metric: MetricField
    base_triple: LocalBasisTriple
    # (L, L^-1, x) at a bundle point, memoised per bundle (build_tangent_bundle)
    frames: Callable[[Point], tuple[np.ndarray, np.ndarray, Point]] = field(repr=False, compare=False)
    cfg: FdConfig = FdConfig()

    @property
    def base_dim(self) -> int:
        return self.base_metric.chart.dim

    def shift(self, xi: Point) -> np.ndarray:
        """The connection shift M at xi, read from the frame memo: L^-1 is
        [[I, 0], [M, I]], so its lower-left block holds connection_shift's
        values bit for bit."""
        n = self.base_dim
        return self.frames(xi)[1][n:, :n]

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

    def frames_at(xi: Point) -> tuple[np.ndarray, np.ndarray, Point]:
        key = xi.coords.tobytes()
        if key not in memo:
            M = connection_shift(g, xi, cfg)
            L, Linv = np.eye(2 * n), np.eye(2 * n)
            L[n:, :n] = -M
            Linv[n:, :n] = M
            L.flags.writeable = Linv.flags.writeable = False
            memo[key] = (L, Linv, Point(base, xi.coords[:n]))
        return memo[key]

    def metric_components(xi: Point) -> np.ndarray:
        _, Linv, x = frames_at(xi)
        return Linv.T @ doubled(g.matrix(x)) @ Linv

    G = MetricField(TensorField(bundle, 0, 2, metric_components, label="lifted metric"))

    def lifted_member(a: int) -> TensorField:
        def comps(xi: Point, a=a) -> np.ndarray:
            key = (a, xi.coords.tobytes())
            if key not in memo:
                L, Linv, x = frames_at(xi)
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
        frames=frames_at,
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
        _, Linv, x = bundle.frames(xi)
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


def oracle_tilde_nabla_J(
    bundle: SasakiBundle, a: int, kind_x: str, X, kind_y: str, Y, xi: Point
) -> np.ndarray:
    """Closed form of (nabla~_{X^kx} Jt_a)(Y^ky) at xi (a in {0, 1, 2}).

        (v, v): 0
        (v, h): (1/2) ( R(u, X) J_a Y - J_a R(u, X) Y )^h
        (h, h): ((nabla_X J_a) Y)^h
                - (1/2) ( R(X, J_a Y) u - J_a R(X, Y) u )^v
        (h, v): ((nabla_X J_a) Y)^v
                + (1/2) ( R(u, J_a Y) X - J_a R(u, Y) X )^h

    Tensorial in both slots, so X and Y are plain base vectors.  M comes from
    the bundle's frame memo, R and nabla J_a (the base Kähler fit's) from the
    base metric's memo.
    """
    if a not in (0, 1, 2):
        raise ValidationError("a must be 0, 1 or 2")
    g, T, cfg = bundle.base_metric, bundle.base_triple, bundle.cfg
    x, u = _split_xi(g.chart, xi)
    if kind_x == "v" and kind_y == "v":
        return np.zeros(2 * g.chart.dim)
    M, R = bundle.shift(xi), riemann(g, x, cfg)
    Ja = eval_field(T.fields[a], x)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Rop = lambda A, B, C: curvature_operator(R, A, B, C)
    if kind_x == "v" and kind_y == "h":
        return lift("h", 0.5 * (Rop(u, X, Ja @ Y) - Ja @ Rop(u, X, Y)), M)
    nXJY = np.einsum("ikj,i,j->k", fit_kahler_oneforms(g, T, x, cfg).nabla[a], X, Y)
    if kind_x == "h" and kind_y == "h":
        return lift("v", -0.5 * (Rop(X, Ja @ Y, u) - Ja @ Rop(X, Y, u))) + lift("h", nXJY, M)
    if kind_x == "h" and kind_y == "v":
        return lift("v", nXJY) + lift("h", 0.5 * (Rop(u, Ja @ Y, X) - Ja @ Rop(u, Y, X)), M)
    raise ValidationError("kinds must be 'h' or 'v'")


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
    """Max residual between finite differences of (nabla~ Jt_a) and the closed
    form, over the lifted coordinate frame and all three members."""
    n = bundle.base_dim
    e = np.eye(n)
    lifts = {k: lift(k, e, bundle.shift(xi)) for k in ("h", "v")}
    D = fit_kahler_oneforms(bundle.metric, bundle.triple, xi, bundle.cfg).nabla
    worst = 0.0
    for a in range(3):
        for kx in ("h", "v"):
            for i in range(n):
                matU = np.einsum("akj,a->kj", D[a], lifts[kx][:, i])  # (nabla~_U Jt_a)
                for ky in ("h", "v"):
                    for j in range(n):
                        closed = oracle_tilde_nabla_J(bundle, a, kx, e[i], ky, e[j], xi)
                        worst = max(worst, float(np.abs(matU @ lifts[ky][:, j] - closed).max()))
    return worst


def check_structure_derivative_span(bundle: SasakiBundle, xi: Point) -> float:
    """Over a flat base, (nabla~ Jt_a) must be the span combination built from
    the base 1-forms pulled back through the projection:

        nabla~_{X^h} Jt_1 = -w3(X) Jt_2 + w2(X) Jt_3   (cyclically for 2, 3)
        nabla~_{X^v} Jt_a = 0

    Returns the max deviation; raises PreconditionFailedError when the base
    curvature is not negligible, since the statement is specific to that case.
    """
    g, T, cfg = bundle.base_metric, bundle.base_triple, bundle.cfg
    n = bundle.base_dim
    x = bundle.base_point(xi)
    base_R = float(np.abs(riemann(g, x, cfg)).max())
    if base_R >= FLAT_BASE_TOL:
        raise PreconditionFailedError(
            f"base curvature {base_R:.3e} at {x}; the span form needs a flat base"
        )
    fit = fit_kahler_oneforms(g, T, x, cfg)
    if fit.residual >= FLAT_BASE_TOL:
        raise PreconditionFailedError(
            f"base derivative leaves the span (residual {fit.residual:.3e})"
        )
    Jt = bundle.triple.matrices(xi)
    D = fit_kahler_oneforms(bundle.metric, bundle.triple, xi, cfg).nabla  # D[a, A, k, j]
    M = bundle.shift(xi)
    H, V = lift("h", np.eye(n), M), lift("v", np.eye(n))
    worst = 0.0
    for i in range(n):
        predicted = span_combination(fit.omega[:, i], Jt)
        for a in range(3):
            got_h = np.einsum("akj,a->kj", D[a], H[:, i])
            got_v = np.einsum("akj,a->kj", D[a], V[:, i])
            worst = max(worst, float(np.abs(got_h - predicted[a]).max()))
            worst = max(worst, float(np.abs(got_v).max()))
    return worst


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
