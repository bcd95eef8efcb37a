import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraquat import (
    EvaluationError,
    ExprSyntaxError,
    UnknownSymbolError,
    ValidationError,
    parse_expr,
    print_expr,
)
from paraquat import exprlang
from paraquat.catalog import expression_array, make_chart
from paraquat.exprlang import Bin, Call, Neg, Num, Sym, compile_with_jets
from paraquat.fields import Point, TensorField, eval_batch

# The parser never produces a negative literal (a leading minus becomes Neg),
# so generated Num values are nonnegative and finite.
_nums = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Num)
_syms = st.sampled_from(["x1", "x2", "x3", "x4", "u1"]).map(Sym)


def _compound(inner):
    unary = st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), inner)
    return st.one_of(
        inner.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), inner, inner).map(lambda t: Bin(*t)),
        unary.map(lambda t: Call(t[0], (t[1],))),
        st.tuples(inner, inner).map(lambda t: Call("pow", t)),
    )


_exprs = st.recursive(_nums | _syms, _compound, max_leaves=25)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_exprs)
def test_print_parse_roundtrip(e):
    assert parse_expr(print_expr(e)) == e


@pytest.mark.parametrize(
    "src,position",
    [
        ("1 +", 3),
        ("(1", 2),
        ("1 2", 2),
        ("@", 0),
        ("sin(1,2)", 0),  # arity
        ("pow(1)", 0),
        ("foo(1)", 0),  # unknown function
        ("é + x1", 0),  # a non-ASCII letter
        ("x1²", 2),  # a non-ASCII digit
        ("1e400", 0),  # a literal that overflows
        ("x1 + 1e999", 5),
    ],
)
def test_syntax_errors_carry_positions(src, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(src)
    assert exc.value.position == position


def test_printer_precedence():
    assert print_expr(parse_expr("1+2*3")) == "1.0 + 2.0*3.0"
    assert print_expr(parse_expr("(1+2)*3")) == "(1.0 + 2.0)*3.0"
    assert print_expr(parse_expr("1-(2-3)")) == "1.0 - (2.0 - 3.0)"
    # unary minus binds looser than the power
    assert parse_expr("-x1^2") == Neg(Bin("^", Sym("x1"), Num(2.0)))
    # power associates to the right
    assert parse_expr("2^3^2") == Bin("^", Num(2.0), Bin("^", Num(3.0), Num(2.0)))
    assert print_expr(parse_expr("2^3^2")) == "2.0^3.0^2.0"


def _values(trees, names):
    """The values function of ``compile_with_jets``."""
    return compile_with_jets(trees, names)[0]


def _at(values, x):
    """The values at one point x: a batch of one."""
    return values(np.asarray(x, dtype=float)[None])[0]


def _evaluate(src, names, coords):
    """The value of one expression at one point, through the evaluator."""
    return _at(_values([parse_expr(src)], names), coords)[0]


def test_evaluate():
    assert _evaluate("x1 + 2*x2", ["x1", "x2"], np.array([1.0, 3.0])) == 7.0
    assert _evaluate("cos(0)*5 - sinh(0)", ["x1"], np.array([0.0])) == 5.0
    assert _evaluate("2^3^2", ["x1"], np.array([0.0])) == 512.0


@pytest.mark.parametrize("x", [[0.5, 0.7], [[0.5, 0.7, 0.1]], [[[0.5, 0.7]]]])
def test_values_take_a_stack_of_points_only(x):
    """One coordinate vector, or rows of the wrong length, raise rather than
    being read as some other stack of points."""
    with pytest.raises(ValidationError, match=r"an \(N, 2\) stack of points"):
        _values([parse_expr("1.5"), parse_expr("x1 + 2*x2")], ["x1", "x2"])(np.array(x))
    values = expression_array([["1.5", "x1"], ["x2", "0"]], (2, 2), make_chart(2), "metric")[0]
    with pytest.raises(ValidationError, match=r"an \(N, 2\) stack of points"):
        values(np.array(x))


def test_unknown_symbol_raised_at_bind_time():
    with pytest.raises(UnknownSymbolError):
        _values([parse_expr("x1 + q")], ["x1", "x2"])
    # the first unknown name, left to right, across the trees of an array
    with pytest.raises(UnknownSymbolError) as exc:
        _values([parse_expr("x1"), parse_expr("a/b"), parse_expr("c")], ["x1"])
    assert str(exc.value) == "unknown symbol 'a'; coordinates are ('x1',)"


def test_evaluation_errors():
    x0 = np.array([0.0])
    for src, message in [
        ("1/x1", "division by zero in '1.0/x1'"),
        ("exp(x1 + 1000)", "cannot evaluate 'exp(x1 + 1000.0)': math range error"),  # overflow
        ("cos(10^300*10^300)", "cannot evaluate 'cos(10.0^300.0*10.0^300.0)': math domain error"),
        ("pow(0 - 1, 0.5)", "non-finite value from 'pow(0.0 - 1.0, 0.5)'"),  # complex result
        ("(0 - 8)^(1/3)", "non-finite value from '(0.0 - 8.0)^(1.0/3.0)'"),
        ("(10^300*10^300)/2", "non-finite value from '10.0^300.0*10.0^300.0/2.0'"),
        ("0^(0 - 1)", "cannot evaluate '0.0^(0.0 - 1.0)': 0.0 cannot be raised to a negative power"),
        ("10^400", "cannot evaluate '10.0^400.0': (34, 'Numerical result out of range')"),
    ]:
        with pytest.raises(EvaluationError) as exc:
            _evaluate(src, ["x1"], x0)
        assert str(exc.value) == message


# --- the evaluator against a tree-walking reference -------------------------
#
# The reference evaluates a tree recursively with the language's rules: left
# operand before right except that '/' evaluates and tests its divisor first,
# and every Call, '/' and '^' turns an arithmetic error, a complex or a
# non-finite value into EvaluationError.  It lives only here, so the package
# keeps one evaluator.


def _ref_check(fn, args, node):
    try:
        v = fn(*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvaluationError(f"cannot evaluate {print_expr(node)!r}: {exc}") from exc
    if isinstance(v, complex) or not math.isfinite(v):
        raise EvaluationError(f"non-finite value from {print_expr(node)!r}")
    return float(v)


def _ref_eval(e, names, c):
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Sym):
        return float(c[names.index(e.name)])
    if isinstance(e, Neg):
        return -_ref_eval(e.arg, names, c)
    if isinstance(e, Call):
        args = [_ref_eval(a, names, c) for a in e.args]
        return _ref_check(exprlang._IMPL[e.fn], args, e)
    if e.op == "/":
        d = _ref_eval(e.right, names, c)
        if d == 0.0:
            raise EvaluationError(f"division by zero in {print_expr(e)!r}")
        return _ref_check(lambda a, b: a / b, (_ref_eval(e.left, names, c), d), e)
    a, b = _ref_eval(e.left, names, c), _ref_eval(e.right, names, c)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    return _ref_check(lambda x, y: x ** y, (a, b), e)


def _ref_unknown(e, names):
    """The first free name of e, left to right, that is not in names."""
    if isinstance(e, Sym):
        return None if e.name in names else e.name
    if isinstance(e, Num):
        return None
    children = (e.arg,) if isinstance(e, Neg) else (e.left, e.right) if isinstance(e, Bin) else e.args
    for child in children:
        name = _ref_unknown(child, names)
        if name is not None:
            return name
    return None


def _reference(trees, names, c):
    for e in trees:
        name = _ref_unknown(e, names)
        if name is not None:
            raise UnknownSymbolError(f"unknown symbol {name!r}; coordinates are {tuple(names)}")
    return [_ref_eval(e, list(names), c) for e in trees]


def _outcome(fn):
    try:
        return "value", [struct.pack("d", v) for v in fn()]
    except (EvaluationError, UnknownSymbolError) as exc:
        return type(exc).__name__, str(exc)


_NAMES = ("x1", "x2", "x3")
# few distinct leaves and coordinates, so that generated arrays repeat
# subtrees and hit every failure path; -0.0 and 0.0 must never be merged
_small_nums = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e300]).map(Num)
_trees = st.recursive(_small_nums | st.sampled_from(_NAMES + ("q",)).map(Sym), _compound, max_leaves=10)
_coord = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 700.0, -2.5, 1e-300, math.inf, -math.inf, math.nan])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(_trees, min_size=1, max_size=4).flatmap(
        lambda ts: st.lists(st.sampled_from(ts), min_size=1, max_size=6)  # shared subtrees
    ).map(lambda ts: ts + [Neg(t) for t in ts[:2]] + [Bin("*", ts[0], ts[-1])]),
    st.lists(_coord, min_size=3, max_size=3),
)
# both operands fail: the left one is reported, except under '/'
@example([Bin("+", Call("exp", (Num(1e300),)), Call("cos", (Sym("x1"),)))], [math.inf, 0.0, 0.0])
@example([Bin("/", Call("exp", (Num(1e300),)), Bin("-", Sym("x1"), Sym("x1")))], [1.0, 0.0, 0.0])
@example([Bin("^", Neg(Sym("x1")), Num(0.5))], [1.0, 0.0, 0.0])  # a complex power
def test_compiled_array_matches_the_reference_bit_for_bit(trees, coords):
    c = np.array(coords, dtype=float)
    expected = _outcome(lambda: _reference(trees, _NAMES, c))
    assert _outcome(lambda: _at(_values(trees, _NAMES), c)) == expected
    if expected[0] == "UnknownSymbolError":
        return
    # the same row inside a batch: the same bits when every row evaluates
    # alone, else an error that one of the failing rows raises alone
    X = np.stack([c[::-1], c, np.array([1.0, 0.5, -2.5])])
    alone = [_outcome(lambda: _reference(trees, _NAMES, row)) for row in X]
    if all(kind == "value" for kind, _ in alone):
        V = _values(trees, _NAMES)(X)
        assert V.shape == (3, len(trees))
        assert [[struct.pack("d", v) for v in row] for row in V] == [bits for _, bits in alone]
    else:
        with pytest.raises(EvaluationError) as exc:
            _values(trees, _NAMES)(X)
        assert ("EvaluationError", str(exc.value)) in alone


_safe_trees = st.recursive(
    _small_nums | st.sampled_from(_NAMES).map(Sym),
    lambda inner: st.tuples(st.sampled_from("+-*"), inner, inner).map(lambda t: Bin(*t)) | inner.map(Neg),
    max_leaves=6,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_safe_trees, _safe_trees, st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_subtrees_that_differ_only_in_an_operator_or_a_sign_stay_apart(a, b, coords):
    twins = [
        Bin("+", a, b), Bin("-", a, b), Bin("*", a, b), Neg(a), Neg(b),
        Call("sin", (a,)), Call("cos", (a,)), Bin("*", a, Num(0.0)), Bin("*", a, Num(-0.0)),
    ]
    c = np.array(coords, dtype=float)
    expected = _outcome(lambda: _reference(twins, _NAMES, c))
    assert _outcome(lambda: _at(_values(twins, _NAMES), c)) == expected
    if expected[0] == "value":
        for e, v in zip(twins, expected[1]):
            assert struct.pack("d", _at(_values([e], _NAMES), c)[0]) == v


def test_a_batch_raises_what_its_first_failing_point_raises_alone():
    # the second point overflows exp, a late step; the third fails the zero
    # test of 1/x1, an earlier one, which is what the walk over the batch meets
    chart = make_chart(2, domain=[[-1.0, 1.0], [-1.0, 1000.0]])
    values, jets = expression_array(["1/x1", "exp(x2)"], (2,), chart, "vector")
    field = TensorField(chart, 1, 0, lambda ps: values(np.array([q.coords for q in ps])), "vector", jets=jets)
    pts = [Point(chart, [0.5, 0.1]), Point(chart, [0.5, 800.0]), Point(chart, [0.0, 0.1])]
    with pytest.raises(EvaluationError, match="division by zero in '1.0/x1'"):
        field.components(pts)
    with pytest.raises(EvaluationError) as expected:
        eval_batch(field, [pts[1]])[0]
    assert str(expected.value) == "cannot evaluate 'exp(x2)': math range error"
    with pytest.raises(EvaluationError) as got:
        eval_batch(field, pts)
    assert str(got.value) == str(expected.value)
    assert eval_batch(field, pts[:1]).tobytes() == eval_batch(field, [pts[0]])[0].tobytes()


def test_shared_subexpression_is_evaluated_once(monkeypatch):
    calls = []
    real = exprlang._IMPL["exp"]

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setitem(exprlang._IMPL, "exp", counted)
    f = "0.1 + (0.5)*x1 - (0.4)*x2 + (0.03)*sin(0.7*x2)*cos(0.8*x3)"
    plus, minus = f"exp(2*({f}))", f"-exp(2*({f}))"
    diag = (plus, plus, minus, minus)
    matrix = [[diag[r] if r == k else "0" for k in range(4)] for r in range(4)]
    values = expression_array(matrix, (4, 4), make_chart(4), "metric")[0]
    x = np.array([0.1, -0.2, 0.3, 0.4])
    g = _at(values, x)
    assert len(calls) == 1
    e = real(2 * (0.1 + 0.5 * 0.1 - 0.4 * -0.2 + 0.03 * math.sin(0.7 * -0.2) * math.cos(0.8 * 0.3)))
    assert g.tobytes() == np.diag([e, e, -e, -e]).tobytes()
    _at(values, x)
    assert len(calls) == 2


def test_coordinate_names_never_meet_generated_names():
    names = ("c", "_c", "t0", "exp", "lambda")
    src = ["exp(exp) + c*_c - t0/lambda", "t0", "-lambda", "pow(_c, c)", "1.5"]
    trees = [parse_expr(s) for s in src]
    x = np.array([0.5, 2.0, -1.25, 0.75, 3.0])
    got = _at(_values(trees, names), x)
    assert [struct.pack("d", v) for v in got] == [
        struct.pack("d", v) for v in _reference(trees, names, x)
    ]
    assert got[1] == -1.25 and got[2] == -3.0
    with pytest.raises(UnknownSymbolError, match="'t1'"):
        _values([parse_expr("t0 + t1")], names)


# --- exact jets ---------------------------------------------------------------

JET_EXPRS = [
    "x1*x2", "x1/x2", "x1^3", "x2^(1/2)", "x1^-1*x2", "-x1^2*x2", "(x1 - x2)^0 + x1^1*x2",
    "sin(x1*x2)", "cos(x1 + 2*x2)", "exp(x1 - x2)", "sinh(x1*x1)", "cosh(x2/x1)",
    "pow(x1 + x2, 2.5)", "pow(2, 0.5)*x2 + 2^3", "exp(2*(0.1 + 0.4*x1 - 0.3*x2 + 0.05*sin(0.7*x1)*cos(0.9*x2)))",
    "1/(1 + (x1^2 - x2^2)/4)^2",
]


def test_jets_are_the_derivatives_of_the_compiled_values():
    # central differences of the walked values: O(h^2) from the jets, with
    # h = 1e-5 for the gradient and 1e-4 for the Hessian
    trees = [parse_expr(s) for s in JET_EXPRS]
    values, jets = exprlang.compile_with_jets(trees, ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2]])
    V, D, H = jets(X)
    assert V.shape == (2, len(trees)) and D.shape == (2, 2, len(trees)) and H.shape == (2, 2, 2, len(trees))
    f = lambda x: _at(values, x)
    e = np.eye(2)
    for c, x in enumerate(X):
        assert np.allclose(V[c], f(x), rtol=1e-15, atol=0)
        for i in range(2):
            h = 1e-5
            assert np.allclose(D[c, i], (f(x + h * e[i]) - f(x - h * e[i])) / (2 * h), rtol=1e-8, atol=1e-8)
            for j in range(2):
                h = 1e-4
                second = (
                    f(x + h * (e[i] + e[j])) - f(x + h * (e[i] - e[j]))
                    - f(x - h * (e[i] - e[j])) + f(x - h * (e[i] + e[j]))
                ) / (4 * h * h)
                assert np.allclose(H[c, i, j], second, rtol=1e-5, atol=1e-6)


def test_jets_of_a_stack_are_the_jets_of_each_point():
    _, jets = exprlang.compile_with_jets([parse_expr(s) for s in JET_EXPRS], ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2], [0.9, 0.2]])
    stacked = jets(X)
    for c in range(len(X)):
        for whole, alone in zip(stacked, jets(X[c:c + 1])):
            assert whole[c].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("src,gradient", [
    ("x1^x2", lambda a, b: (b * a ** (b - 1), a**b * np.log(a))),
    ("pow(2, x1)", lambda a, b: (2**a * np.log(2), 0 * b)),
    ("x1*(1 + x2^(x1 - x1))", lambda a, b: (2 + 0 * a, 0 * b)),
    ("x1^(1/2)", lambda a, b: (0.5 / a**0.5, 0 * b)),
    ("x1^-1", lambda a, b: (-1 / a**2, 0 * b)),
    ("pow(x1, 2^0.5)", lambda a, b: (2**0.5 * a ** (2**0.5 - 1), 0 * b)),
])
def test_every_exponent_has_the_jets_of_its_closed_form(src, gradient):
    values, jets = exprlang.compile_with_jets([parse_expr("x2"), parse_expr(src)], ["x1", "x2"])
    assert _at(values, [0.5, 2.0])[0] == 2.0
    X = np.array([[0.5, 2.0], [1.5, -0.7]])
    D = jets(X, 3)[1]
    assert np.allclose(D[:, :, 1], np.stack(gradient(*X.T), axis=1), rtol=1e-14, atol=1e-15)


def test_a_coordinate_in_an_exponent_takes_the_rule_of_exp_b_log_a():
    # d(x1^x2) = x1^x2 (x2/x1, log x1) and d(2^x1) = 2^x1 (log 2, 0); the
    # value of x2^(x1 - x1) is 1, so its derivatives vanish, at x2 < 0 too
    trees = [parse_expr(s) for s in ("x1^x2", "pow(2, x1)", "x2^(x1 - x1)")]
    _, jets = exprlang.compile_with_jets(trees, ["x1", "x2"])
    X = np.array([[0.5, 2.0], [1.5, -0.7]])
    V, D, H = jets(X)
    a, b = X.T
    v, log = a**b, np.log(a)
    assert np.allclose(D[:, :, 0], np.stack([v * b / a, v * log], axis=1), rtol=1e-14, atol=0)
    hessian = [[v * b * (b - 1) / a**2, v * (1 + b * log) / a], [v * (1 + b * log) / a, v * log**2]]
    assert np.allclose(H[..., 0], np.moveaxis(np.array(hessian), -1, 0), rtol=1e-14, atol=0)
    assert np.allclose(D[:, 0, 1], 2**a * np.log(2), rtol=1e-14, atol=0) and not D[:, 1, 1].any()
    assert np.allclose(H[:, 0, 0, 1], 2**a * np.log(2) ** 2, rtol=1e-14, atol=0)
    assert not D[..., 2].any() and not H[..., 2].any()


def test_shared_subexpression_has_its_jet_taken_once(monkeypatch):
    calls = []
    real, *derivatives = exprlang._NUMPY["exp"]
    monkeypatch.setitem(exprlang._NUMPY, "exp", (lambda a: calls.append(a) or real(a), *derivatives))
    f = "exp(2*(0.1 + (0.5)*x1 - (0.4)*x2))"
    _, jets = exprlang.compile_with_jets([parse_expr(s) for s in (f, f"-{f}", f, "0")], ["x1", "x2"])
    V, D, H = jets(np.array([[0.1, -0.2], [0.3, 0.4]]))
    assert len(calls) == 1
    assert (V[:, 1] == -V[:, 0]).all() and (D[..., 3] == 0).all() and (H[..., 3] == 0).all()
    assert np.allclose(H[:, :, :, 0], V[:, 0, None, None] * np.outer([1.0, -0.8], [1.0, -0.8]), rtol=1e-15)


@pytest.mark.parametrize("src,x1,node", [
    ("2 + (x1^2)^0.5", 0.0, "(x1^2.0)^0.5"),  # |x1| at its kink
    ("1 + x2*pow(x1, 1.5)", 0.0, "pow(x1, 1.5)"),  # no second derivative at 0
    ("2 + (x1 - x1)^0.5", 0.3, "(x1 - x1)^0.5"),
    ("1 + x1^x2", 0.0, "x1^x2"),  # log|x1| at 0
])
def test_a_derivative_that_is_not_finite_names_its_node_and_warns_of_nothing(src, x1, node):
    values, jets = exprlang.compile_with_jets([parse_expr(src)], ["x1", "x2"])
    x = np.array([x1, 0.5])
    assert math.isfinite(_at(values, x)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError) as exc:
            jets(x[None])
    assert str(exc.value) == f"non-finite derivative from {node!r}"


# exercise '/', a constant '^' and pow, every function of one argument, and
# products whose operands both have Hessians
THIRD_ORDER_EXPRS = [
    "x1/x2", "x2^(1/2)*x1", "pow(x1 + x2, 2.5)", "sin(x1*x2)", "cos(x1 + 2*x2)",
    "exp(x1 - x2)*x2", "sinh(x1*x1)", "cosh(x2/x1)", "1/(1 + (x1^2 - x2^2)/4)^2",
    "x1*sin(x1*x2)", "sin(x1)*cos(x2)*x2^2",
]


def test_third_order_jets_are_the_limit_of_differences_of_the_hessian():
    # central differences of the order-2 Hessian are O(h^2) from the third
    # partials, so halving h divides their distance by 4
    trees = [parse_expr(s) for s in THIRD_ORDER_EXPRS]
    _, jets = exprlang.compile_with_jets(trees, ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2]])
    V, D, H, K = jets(X, 3)
    assert K.shape == (2, 2, 2, 2, len(trees))
    for whole, order2 in zip((V, D, H), jets(X)):
        assert whole.tobytes() == order2.tobytes()
    distance = []
    for h in (1e-3, 5e-4):
        fd = np.stack([(jets(X + h * e)[2] - jets(X - h * e)[2]) / (2 * h) for e in np.eye(2)], axis=1)
        distance.append(np.abs(fd - K).max(axis=(0, 1, 2, 3)))
    order = np.log2(distance[0] / distance[1])
    assert ((1.8 <= order) & (order <= 2.2)).all(), dict(zip(THIRD_ORDER_EXPRS, order))


def test_third_order_jets_of_a_stack_are_the_jets_of_each_point():
    _, jets = exprlang.compile_with_jets([parse_expr(s) for s in JET_EXPRS + THIRD_ORDER_EXPRS], ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2], [0.9, 0.2]])
    stacked = jets(X, 3)
    assert len(stacked) == 4
    for c in range(len(X)):
        for whole, alone in zip(stacked, jets(X[c:c + 1], 3)):
            assert whole[c].tobytes() == alone[0].tobytes()


def test_a_third_derivative_that_is_not_finite_names_its_node():
    # x1^2.5 has finite first and second derivatives at 0, but not a third
    _, jets = exprlang.compile_with_jets([parse_expr("1 + x2*x1^2.5")], ["x1", "x2"])
    X = np.array([[0.0, 0.5]])
    assert all(np.isfinite(A).all() for A in jets(X))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"non-finite derivative from 'x1\^2.5'"):
            jets(X, 3)
