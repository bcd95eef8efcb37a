from types import SimpleNamespace

import numpy as np
import pytest

from fd_reference import H, central_difference, fd_gradient
from paraquat import (
    ManifoldSpec,
    MetricField,
    EvaluationError,
    OutOfDomainError,
    Point,
    ShapeError,
    TensorField,
    TransitionMap,
    ValidationError,
    apply_transition,
    build_tangent_bundle,
    check_bracket,
    check_connection_oracle,
    check_hermitian,
    check_nabla_j_oracle,
    check_product_structure,
    check_sigma_invariant_operator,
    check_triple_algebra,
    constant_field,
    covariant_derivative_11,
    eval_batch,
    fit_kahler_oneforms,
    jacobian,
    oneill_tensors,
    oracle_tilde_nabla,
    oracle_tilde_nabla_J,
    riemann,
    sample_points,
    vh_split,
)
from paraquat import algebra, connection, fields, sasaki, structures, submersion
from paraquat.catalog import METRICS, STRUCTURES, TRIPLES, make_chart
from paraquat.connection import _gradients, covariant_derivatives
from paraquat.fields import _memo_batch


def test_chart_validation():
    with pytest.raises(ValidationError):
        ManifoldSpec(("x", "x"), [[-1, 1], [-1, 1]])
    with pytest.raises(ValidationError):
        ManifoldSpec(("x", "y"), [[-1, 1]])
    with pytest.raises(ValidationError):
        ManifoldSpec(("x",), [[2, 1]])  # lo >= hi
    c = ManifoldSpec(("a", "b"), [[0, 1], [0, 2]])
    assert c.dim == 2


@pytest.mark.parametrize(
    "coords, inside",
    [
        ([-1.0, 2.0], True),  # on two walls
        ([1.0, 0.0], True),
        ([np.nextafter(1.0, 2.0), 1.0], False),
        ([np.nan, 1.0], False),
        ([0.0, np.nan], False),
    ],
)
def test_contains_truth_table(coords, inside):
    # walls lie in the box and NaN in no interval, alone or in a stack
    chart = ManifoldSpec(("a", "b"), [[-1, 1], [0, 2]])
    got = chart.contains(np.array([coords]))
    assert got.shape == (1,) and bool(got[0]) is inside
    assert chart.contains(np.array([[0.0, 1.0], coords])).tolist() == [True, inside]


# a stack of the wrong width, a (1, 1) array that would broadcast, one
# coordinate vector, a scalar, and a stack with an extra axis
@pytest.mark.parametrize("coords", [[[0.0]], [[0.0, 1.0, 1.0]], [0.0, 1.0], 0.5, [[[0.0, 1.0]]]])
def test_contains_rejects_anything_but_a_stack_of_rows_of_the_chart_dimension(coords):
    chart = ManifoldSpec(("a", "b"), [[-1, 1], [0, 2]])
    with pytest.raises(ValidationError):
        chart.contains(np.array(coords))


def test_shifted_point_is_a_frozen_point_of_the_same_chart(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    q = p.shifted(1, 1e-3)
    assert q.chart is p.chart
    c = p.coords.copy()
    c[1] += 1e-3
    assert q.coords.tobytes() == Point(chart4, c).coords.tobytes()
    assert q.coords.dtype == np.float64 and q.coords.shape == (4,)
    with pytest.raises(ValueError):
        q.coords[0] = 5.0
    # a shift off the box still leaves the chart domain
    f = constant_field(chart4, 0, 0, np.array(1.0), "one")
    assert eval_batch(f, [q])[0] == 1.0
    with pytest.raises(OutOfDomainError):
        eval_batch(f, [p.shifted(3, 0.7)])[0]


def test_point_validation_and_immutability(chart4):
    with pytest.raises(ValidationError):
        Point(chart4, [1, 2, 3])
    # four numbers, but not as a vector of four coordinates
    for nested in ([[0.1, 0.2], [0.3, 0.4]], np.array([0.1, 0.2, 0.3, 0.4]).reshape(1, 4, 1)):
        with pytest.raises(ValidationError, match="point needs 4 coordinates"):
            Point(chart4, nested)
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0
    q = p.shifted(2, 0.05)
    assert q.coords[2] == pytest.approx(0.35)
    assert p.coords[2] == pytest.approx(0.3)  # original untouched


def test_eval_batch_guards(chart4):
    f = constant_field(chart4, 1, 1, np.eye(4), "id")
    p = Point(chart4, [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(eval_batch(f, [p])[0], np.eye(4))

    outside = Point(chart4, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(OutOfDomainError):
        eval_batch(f, [outside])[0]

    bad = TensorField(chart4, 1, 1, lambda ps: [np.zeros((3, 3))] * len(ps), "bad")
    with pytest.raises(ShapeError):
        eval_batch(bad, [p])[0]


def test_a_wrong_row_count_is_a_shape_error_naming_the_stack_shapes(chart4, flat4):
    """components returning one row too many is a ShapeError that names the
    expected (N, *shape) stack and the one it got, not a first row taken
    silently or a vague error of the batch."""
    eta = flat4.field

    def one_too_many(ps):
        return np.array(eta.components([*ps, ps[0]]))

    extra = TensorField(chart4, 0, 2, one_too_many, "extra row")
    pts = [Point(chart4, [0.1, 0.2, 0.3, 0.4]), Point(chart4, [-0.1, 0.0, 0.5, 0.2])]
    with pytest.raises(ShapeError) as alone:
        eval_batch(extra, pts[:1])
    assert str(alone.value) == "field extra row: expected (1, 4, 4), got (2, 4, 4)"
    for batch in (lambda ps: eval_batch(extra, ps), MetricField(extra).matrices):
        with pytest.raises(ShapeError) as got:
            batch(pts)
        assert str(got.value) == str(alone.value)


def test_constant_field_keeps_its_own_copy(chart4):
    value = np.eye(4)
    f = constant_field(chart4, 1, 1, value, "id")
    p = Point(chart4, [0.0, 0.0, 0.0, 0.0])
    value[0, 0] = 5.0  # the caller's array changes after construction
    got = eval_batch(f, [p])[0]
    assert np.array_equal(got, np.eye(4))
    assert value.flags.writeable
    # the stack is the caller's own: changing it changes no later evaluation
    got[0, 0] = 7.0
    assert np.array_equal(eval_batch(f, [p])[0], np.eye(4))


def test_fd_partial_accuracy(chart4):
    # d/dx1 sin(x1) = cos(x1); the central scheme is O(h^2)
    f = TensorField(chart4, 0, 0, lambda ps: [np.sin(q.coords[0]) for q in ps], "sin")
    p = Point(chart4, [0.3, 0.0, 0.0, 0.0])
    got = fd_gradient(f, p, H)[0]
    assert abs(float(got) - np.cos(0.3)) < 1e-6


def test_fd_partial_exact_for_affine(chart4):
    f = TensorField(chart4, 1, 0, lambda ps: [np.array([2 * q.coords[1], 0, 0, 1.0]) for q in ps], "aff")
    p = Point(chart4, [0.0, 0.5, 0.0, 0.0])
    assert np.allclose(fd_gradient(f, p, H)[1], [2, 0, 0, 0], atol=1e-12)


def test_fd_gradient_hands_each_stencil_to_one_checked_eval_batch(chart4):
    """A field gets each stencil in one ``components`` call, and every
    value still gets eval_batch's checks: a stencil with bad values raises
    what the first bad point raises alone."""
    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    h = H

    def spoilt(bad, calls):  # a smooth field, but bad[coordinate bytes] at those points
        def one(q):
            x = q.coords
            return bad.get(x.tobytes(), np.array([np.sin(x[0] * x[1]), x[2] ** 2, x[1], x[3]]))

        return lambda qs: calls.append(len(qs)) or [one(q) for q in qs]

    nan, short = np.full(4, np.nan), np.zeros(3)
    for bad in [
        {},
        {p.shifted(1, h).coords.tobytes(): nan},
        {p.shifted(2, -h).coords.tobytes(): short, p.shifted(3, h).coords.tobytes(): nan},
        {p.shifted(0, -h).coords.tobytes(): nan, p.shifted(1, h).coords.tobytes(): short},
    ]:
        calls = []
        f = TensorField(chart4, 1, 0, spoilt(bad, calls), "f")

        def pointwise(qs, f=f):
            return [eval_batch(f, [q])[0] for q in qs]

        if not bad:
            expected = central_difference(pointwise, p, h)
            calls.clear()
            assert fd_gradient(f, p, h).tobytes() == expected.tobytes()
            # one call for the stencil
            assert calls == [8]
        else:
            with pytest.raises((EvaluationError, ShapeError)) as expected:
                central_difference(pointwise, p, h)
            calls.clear()
            with pytest.raises(type(expected.value)) as got:
                fd_gradient(f, p, h)
            assert str(got.value) == str(expected.value)
            # one call for the stencil, then its replay a point at a time
            assert calls[0] == 8 and set(calls[1:]) <= {1}


def test_eval_batch_tests_the_domain_of_the_stack_at_once(chart4, monkeypatch):
    """One ``contains`` call per batch, over the whole stack; a batch with
    a point outside raises that point's own error, by name, from the
    replay's batches of one."""
    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    f = TensorField(chart4, 1, 0, lambda qs: [q.coords * 2.0 for q in qs], "f")
    stencil = [p.shifted(m, s * H) for m in range(4) for s in (1, -1)]
    contains = []
    real = ManifoldSpec.contains
    monkeypatch.setattr(ManifoldSpec, "contains", lambda self, *a, **k: contains.append(1) or real(self, *a, **k))
    values = eval_batch(f, stencil)
    assert contains == [1]
    assert np.stack(values).tobytes() == np.stack([q.coords * 2.0 for q in stencil]).tobytes()
    outside = p.shifted(0, 5.0)
    contains.clear()
    with pytest.raises(OutOfDomainError) as got:
        eval_batch(f, [p, outside, p.shifted(1, 5.0)])
    assert str(got.value) == f"{outside} outside the chart domain"
    # the batch, then its replay up to the first point outside
    assert contains == [1, 1, 1]


def _summed(calls):
    """A compute for _memo_batch that records each call's points and
    returns the sum of each point's coordinates."""

    def compute(pts):
        calls.append([q.coords.tobytes() for q in pts])
        return np.array([q.coords.sum() for q in pts])

    return compute


def test_memo_batch_computes_the_distinct_misses_once_and_checks_every_chart(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    q = p.shifted(0, 0.25)
    memo, calls = {}, []
    out = _memo_batch(memo, chart4, "s", [p, q, p], _summed(calls))
    assert calls == [[p.coords.tobytes(), q.coords.tobytes()]]
    assert out.tolist() == [p.coords.sum(), q.coords.sum(), p.coords.sum()]
    # a key is (kind, coordinate bytes): it holds no step
    assert set(memo) == {("s", r.coords.tobytes()) for r in (p, q)}
    # hits compute nothing; a new point is the only miss of its batch
    r = p.shifted(1, 0.25)
    _memo_batch(memo, chart4, "s", [q, r, p], _summed(calls))
    assert calls[1:] == [[r.coords.tobytes()]]
    # the kind is part of the key
    _memo_batch(memo, chart4, "t", [p], _summed(calls))
    assert len(calls) == 3
    # a hit at a point of another chart raises, before any compute, alone
    # or first in a batch
    other = make_chart(4, domain=[[-2.0, 2.0]] * 4)
    valid = p.shifted(2, 0.25)
    with pytest.raises(ValidationError, match="different charts"):
        _memo_batch(memo, chart4, "s", [Point(other, p.coords)], _summed(calls))
    with pytest.raises(ValidationError, match="different charts"):
        _memo_batch(memo, chart4, "s", [Point(other, p.coords), valid], _summed(calls))
    assert len(calls) == 3
    # after a valid point, the batch is replayed: the valid point is
    # computed once, alone, and stored nowhere
    with pytest.raises(ValidationError, match="different charts"):
        _memo_batch(memo, chart4, "s", [valid, Point(other, p.coords)], _summed(calls))
    assert calls[3:] == [[valid.coords.tobytes()]]
    assert ("s", valid.coords.tobytes()) not in memo


def test_memo_batch_stores_nothing_when_compute_raises(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    memo = {}
    _memo_batch(memo, chart4, "s", [p], _summed([]))
    stored = dict(memo)

    def failing(pts):
        raise EvaluationError("the batch fails")

    with pytest.raises(EvaluationError, match="the batch fails"):
        _memo_batch(memo, chart4, "s", [p, p.shifted(0, 0.25), p.shifted(1, 0.25)], failing)
    # a compute that returns a value short stores nothing either
    with pytest.raises(ValueError):
        _memo_batch(memo, chart4, "s", [p.shifted(0, 0.25), p.shifted(1, 0.25)], lambda pts: np.ones(1))
    # and so does a tuple whose second stack is short
    with pytest.raises(ValueError):
        _memo_batch(memo, chart4, "s", [p.shifted(0, 0.25), p.shifted(1, 0.25)], lambda pts: (np.ones(2), np.ones(1)))
    assert memo == stored


def test_memo_batch_replays_a_failing_batch_point_by_point(chart4):
    p = Point(chart4, [0.1, 0.2, 0.3, 0.4])
    first, later = p.shifted(1, 0.25), p.shifted(2, 0.25)
    memo, nested, tried = {}, {}, []

    def compute(pts):
        # a batch of several fails as a whole; alone, a point fills a nested
        # memo, then fails at first and later
        if len(pts) > 1:
            raise EvaluationError("the batch fails")
        q = pts[0]
        tried.append(q.coords.tobytes())
        _memo_batch(nested, chart4, "n", [q, q.shifted(0, 0.5)], _summed([]))
        if q is first or q is later:
            raise EvaluationError(f"fails alone at {q}")
        return np.zeros(1)

    with pytest.raises(EvaluationError) as got:
        _memo_batch(memo, chart4, "s", [p, later, first], compute)
    assert str(got.value) == f"fails alone at {later}"
    assert tried == [p.coords.tobytes(), later.coords.tobytes()]
    # no point fails alone: the batch's own error
    with pytest.raises(EvaluationError, match="the batch fails"):
        _memo_batch(memo, chart4, "s", [p, p.shifted(3, 0.25)], compute)
    # the replays filled throwaway stand-ins of the nested memo, never it
    assert nested == {}
    # a batch of one raises its own error and is not replayed; it is no
    # replay, so its compute fills the nested memo
    tried.clear()
    with pytest.raises(EvaluationError) as got:
        _memo_batch(memo, chart4, "s", [first], compute)
    assert str(got.value) == f"fails alone at {first}"
    assert tried == [first.coords.tobytes()] and memo == {}
    assert len(nested) == 2


def _geometry():
    """The objects every layer's batch is asked about: conformal-neutral4
    with rotated4 and its Sasaki lift, and split8 over neutral8."""
    chart4, chart8 = make_chart(4), make_chart(8)
    g, T = METRICS["conformal-neutral4"](chart4), TRIPLES["rotated4"](chart4)
    bundle = build_tangent_bundle(g, T)
    return SimpleNamespace(
        g=g, T=T, bundle=bundle, p=Point(chart4, [0.1, -0.2, 0.3, 0.05]),
        xi=bundle.point([0.1, -0.2, 0.3, 0.05], [0.2, -0.1, 0.15, 0.3]),
        g8=METRICS["neutral8"](chart8), F=STRUCTURES["split8"](chart8), T8=TRIPLES["product8"](chart8),
        p8=Point(chart8, [0.1] * 8), s=TransitionMap(lambda ps: [np.eye(3)] * len(ps), label="identity"),
    )


BATCHES = {
    # each layer's batch, handed one bare point in place of its list
    "riemann": lambda o: riemann(o.g, o.p),
    "covariant_derivative_11": lambda o: covariant_derivative_11(o.g, o.T.j1, o.p),
    "check_triple_algebra": lambda o: check_triple_algebra(o.T, o.p),
    "TransitionMap.matrices": lambda o: o.s.matrices(o.p),
    "check_hermitian": lambda o: check_hermitian(o.g, o.T, o.p),
    "fit_kahler_oneforms": lambda o: fit_kahler_oneforms(o.g, o.T, o.p),
    "check_product_structure": lambda o: check_product_structure(o.g8, o.F, o.p8),
    "check_sigma_invariant_operator": lambda o: check_sigma_invariant_operator(o.F, o.T8, o.p8),
    "SubmersionMap.images": lambda o: o.bundle.projection.images(o.xi),
    "jacobian": lambda o: jacobian(o.bundle.projection, o.xi),
    "vh_split": lambda o: vh_split(o.bundle.projection, o.bundle.metric, o.xi),
    "oneill_tensors": lambda o: oneill_tensors(o.bundle.projection, o.bundle.metric, o.xi),
    "oracle_tilde_nabla": lambda o: oracle_tilde_nabla(o.bundle, o.xi),
    "oracle_tilde_nabla_J": lambda o: oracle_tilde_nabla_J(o.bundle, o.xi),
    "check_connection_oracle": lambda o: check_connection_oracle(o.bundle, o.xi),
    "check_nabla_j_oracle": lambda o: check_nabla_j_oracle(o.bundle, o.xi),
    "check_bracket": lambda o: check_bracket(o.bundle, [(np.eye(4)[0], np.eye(4)[1])], o.xi),
    # the fields' own batches: evaluation, the shipped component and jets
    # callables (expression, constant and turning fields, the members of a
    # transition and of a lift) and the triple's stacks
    "eval_batch": lambda o: eval_batch(o.g.field, o.p),
    "expression components": lambda o: o.g.field.components(o.p),
    "expression jets": lambda o: o.g.field.jets(o.p, 1),
    "constant components": lambda o: o.g8.field.components(o.p8),
    "constant jets": lambda o: o.g8.field.jets(o.p8, 1),
    "turning components": lambda o: o.T.j1.components(o.p),
    "turning jets": lambda o: o.T.j1.jets(o.p, 1),
    "transition member": lambda o: apply_transition(o.T, o.s).j2.components(o.p),
    "lifted member": lambda o: o.bundle.triple.j3.jets(o.xi, 1),
    "LocalBasisTriple.values": lambda o: o.T.values(o.p),
    "LocalBasisTriple.jets": lambda o: o.T.jets(o.p),
    "covariant_derivatives": lambda o: covariant_derivatives(o.g, o.T, o.p),
}


MEMO_KINDS = {
    # memo kind: (the point its batch is asked at, the batch, the arrays of its result)
    "g": ("p", lambda o, pts: o.g.matrices(pts)),
    "jet": ("p", lambda o, pts: connection._jets(o.g, pts)),
    "jet3": ("p", lambda o, pts: connection._jets(o.g, pts, 3)),
    "gamma": ("p", lambda o, pts: connection._christoffels(o.g, pts)),
    "riem": ("p", lambda o, pts: riemann(o.g, pts)),
    "nabla": ("p", lambda o, pts: covariant_derivatives(o.g, o.T, pts)),
    "d": ("p", lambda o, pts: _gradients(o.g, o.T.j1, pts)),
    "nijenhuis": ("p8", lambda o, pts: structures._nijenhuises(o.g8, o.F, pts)),
    "hermitian": ("p", lambda o, pts: check_hermitian(o.g, o.T, pts)),
    "fit": ("p", lambda o, pts: vars(fit_kahler_oneforms(o.g, o.T, pts)).values()),  # the omega and residual stacks
    "values": ("p", lambda o, pts: o.T.values(pts)),
    "df": ("xi", lambda o, pts: jacobian(o.bundle.projection, pts)),
    "image": ("xi", lambda o, pts: [q.coords for q in o.bundle.projection.images(pts)]),
    "split": ("xi", lambda o, pts: vh_split(o.bundle.projection, o.bundle.metric, pts)),
    "shift": ("xi", lambda o, pts: o.bundle.shift(pts)),
    "shift partials": ("xi", lambda o, pts: o.bundle.shift_partials(pts)),
}


@pytest.fixture
def computed(monkeypatch):
    """The kind of each memo batch that calls its compute, in order, over
    every module that reads a memo; a kind ("nabla", T) is recorded as
    "nabla"."""
    kinds = []
    real = fields._memo_batch

    def counted(memo, chart, kind, points, compute):
        def recorded(fresh):
            kinds.append(kind[0] if isinstance(kind, tuple) else kind)
            return compute(fresh)

        return real(memo, chart, kind, points, recorded)

    for module in (fields, connection, algebra, structures, submersion, sasaki):
        monkeypatch.setattr(module, "_memo_batch", counted)
    return kinds


@pytest.mark.parametrize("kind", sorted(MEMO_KINDS))
def test_a_memo_hit_hands_out_the_first_bits_in_fresh_arrays_and_computes_nothing(kind, computed):
    o = _geometry()
    at, batch = MEMO_KINDS[kind]
    p = getattr(o, at)
    ask = lambda: [Point(q.chart, q.coords) for q in (p, p.shifted(1, 0.25), p)]
    arrays = lambda result: [result] if isinstance(result, np.ndarray) else list(result)
    first = arrays(batch(o, ask()))
    assert kind in computed
    bits = [a.tobytes() for a in first]
    computed.clear()
    again = arrays(batch(o, ask()))
    assert computed == []
    assert [a.tobytes() for a in again] == bits
    for a in first + again:
        if kind == "image":  # an image is a Point, whose coordinates are frozen
            with pytest.raises(ValueError):
                a[0] = np.nan
        else:
            a[...] = np.nan
    assert [a.tobytes() for a in arrays(batch(o, ask()))] == bits
    assert computed == []


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_a_batch_given_a_bare_point_raises_a_one_line_validation_error(batch):
    o = _geometry()
    with pytest.raises(ValidationError, match=r"^expected a list of points, got the single Point\(.*\); pass \[p\]$") as got:
        BATCHES[batch](o)
    assert "\n" not in str(got.value)


def test_central_difference_is_the_per_direction_formula(chart4):
    def f(q):
        x = q.coords
        return np.array([[np.sin(x[0] * x[1]), np.exp(x[2])], [x[3] ** 3, np.cos(x[0] - x[3])]])

    p = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    h = H
    explicit = np.stack(
        [(f(p.shifted(m, +h)) - f(p.shifted(m, -h))) / (2.0 * h) for m in range(4)]
    )
    got = central_difference(lambda qs: np.stack([f(q) for q in qs]), p, h)
    assert got.shape == (4, 2, 2)
    assert got.tobytes() == explicit.tobytes()


@pytest.mark.parametrize("offset", [0.0, 0.5, 0.999])
def test_a_derivative_within_a_step_of_the_wall_reads_the_point_alone(chart4, flat4, offset):
    """The jets are asked for the centres themselves, in one call, however
    near the wall, and on it; no stencil point is evaluated."""
    near = Point(chart4, [0.0, 0.0, 0.0, -1.0 + offset * H])  # in the closed box
    inside = Point(chart4, [0.3, -0.2, 0.45, 0.1])
    asked, evaluated = [], []

    def jets(points, order):
        asked.append([q.coords.tobytes() for q in points])
        return (np.broadcast_to(np.eye(4), (len(points), 4, 4)), np.zeros((len(points), 4, 4, 4)))

    f = TensorField(chart4, 1, 1, lambda qs: evaluated.append(qs) or [np.eye(4)] * len(qs), "f", jets=jets)
    for centres in ([near], [inside, near]):
        asked.clear()
        assert np.array(_gradients(MetricField(flat4.field), f, centres)).shape == (len(centres), 4, 4, 4)
        assert asked == [[c.coords.tobytes() for c in centres]]
    assert evaluated == []


def test_central_difference_hands_several_stencils_to_one_call(chart4):
    centres = [Point(chart4, [0.3, -0.2, 0.45, 0.1]), Point(chart4, [-0.5, 0.1, 0.0, 0.7])]
    calls = []

    def f(qs):
        calls.append([q.coords.tolist() for q in qs])
        return [np.array([np.sin(q.coords[0] * q.coords[1]), q.coords[3] ** 3]) for q in qs]

    h = H
    got = central_difference(f, centres, h)
    assert got.shape == (2, 4, 2)
    assert len(calls) == 1
    stencils = [c.shifted(m, s * h) for c in centres for m in range(4) for s in (1, -1)]
    assert calls[0] == [q.coords.tolist() for q in stencils]
    for c, row in zip(centres, got):
        assert row.tobytes() == central_difference(f, c, h).tobytes()


def test_sample_points_deterministic(chart4):
    a = sample_points(chart4, 6, seed=3)
    b = sample_points(chart4, 6, seed=3)
    c = sample_points(chart4, 6, seed=4)
    assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a, b))
    assert any(not np.array_equal(x.coords, y.coords) for x, y in zip(a, c))
    # the default margin keeps 10 steps of 1e-3 from every wall
    for p in a:
        assert np.all(p.coords > -1 + 0.0099) and np.all(p.coords < 1 - 0.0099)
    with pytest.raises(ValidationError):
        sample_points(chart4, 0, seed=1)


def test_chart_with_custom_domain():
    c = make_chart(2, coords=["t", "r"], domain=[[0, 0.5], [1, 2]])
    pts = sample_points(c, 4, seed=0)
    for p in pts:
        assert 0 < p.coords[0] < 0.5 and 1 < p.coords[1] < 2
