import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraquat import (
    EvaluationError,
    ExprSyntaxError,
    ParaquatError,
    ParseError,
    UnknownSymbolError,
    ValidationError,
)
from paraquat import catalog, exprlang
from paraquat.catalog import expression_array, make_chart
from paraquat.exprlang import compile_with_jets
from paraquat.fields import Point, TensorField, eval_batch

from conftest import assert_every_node_prints_as_the_reference, assert_printed_key_rereads, keyed
from expr_reference import Bin, Call, Neg, Num, Sym, num, text

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
_NAMES5 = ["x1", "x2", "x3", "x4", "u1"]


def _texts(trees):
    return [text(e) for e in trees]


def _printed(src, names=("x1",)):
    """The text that the root's key of ``src`` prints."""
    em, root = keyed(src, names)
    return exprlang._text(em, root)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_exprs)
def test_print_parse_roundtrip(e):
    assert_printed_key_rereads(e, _NAMES5)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_exprs)
def test_the_key_printer_prints_every_node_as_the_reference_does(e):
    # tests/test_acceptance.py does the same for 500 random.Random trees
    assert_every_node_prints_as_the_reference(e, _NAMES5)


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
        (")", 0),  # a value expected
        ("sin(", 4),  # the end where an argument should start
        ("sin()", 4),
        ("pow(1,)", 6),
        ("x1^", 3),  # an exponent expected
        ("-", 1),  # an operand of the minus expected
        ("1,2", 1),  # a comma outside a call
        ("sin x1", 4),  # a function name as a free name, then trailing text
        ("x1 (2)", 0),  # a free name called
    ],
)
def test_syntax_errors_carry_positions(src, position):
    with pytest.raises(ExprSyntaxError) as exc:
        compile_with_jets([src], ["x1"])
    assert exc.value.position == position


@pytest.mark.parametrize(
    "src,message",
    [
        ("", "unexpected end of input (at position 0)"),
        (")", "expected a value, found ')' (at position 0)"),
        ("sin(", "unexpected end of input (at position 4)"),
        ("sin()", "expected a value, found ')' (at position 4)"),
        ("pow(1,)", "expected a value, found ')' (at position 6)"),
        ("x1^", "unexpected end of input (at position 3)"),
        ("-", "unexpected end of input (at position 1)"),
        ("1,2", "unexpected trailing ',' (at position 1)"),
        ("(1))", "unexpected trailing ')' (at position 3)"),
        ("sin x1", "unexpected trailing 'x1' (at position 4)"),
        ("x1 (2)", "unknown function 'x1' (at position 0)"),
        ("(1,2)", "expected ')' (at position 2)"),
        ("sin(1 2)", "expected ')' (at position 6)"),
        ("sin(1,2", "expected ')' (at position 7)"),
        ("pow(1,2,3)", "pow takes 2 argument(s), got 3 (at position 0)"),
        ("x1 + 1e999", "number literal '1e999' out of range (at position 5)"),
        # a character the language does not have is the error wherever it
        # stands, even after another error
        ("1 2 @", "unexpected character '@' (at position 4)"),
        ("1e400 @", "unexpected character '@' (at position 6)"),
    ],
)
def test_syntax_error_messages(src, message):
    with pytest.raises(ExprSyntaxError) as exc:
        compile_with_jets([src], ["x1"])
    assert str(exc.value) == message
    with pytest.raises(ExprSyntaxError) as compiled:
        compile_with_jets(["x1", src], ["x1"])
    assert str(compiled.value) == message


@pytest.mark.parametrize(
    "rows,error,message",
    [
        # an entry's unknown name comes before a later entry's syntax error
        ([["y1", "1 +"], ["0", "0"]], UnknownSymbolError, "unknown symbol 'y1'"),
        ([["x1 + y1 * z", "1 +"], ["0", "0"]], UnknownSymbolError, "unknown symbol 'y1'"),
        # an entry's syntax error comes before its own unknown name
        ([["y1 + (", "0"], ["0", "0"]], ExprSyntaxError, "unexpected end of input (at position 6)"),
        # the nesting is checked as the entries are taken
        ([["x1", "1 +"], "bad"], ExprSyntaxError, "unexpected end of input (at position 3)"),
        ([["y1"], ["0", "0"]], ParseError, "metric must be nested lists of expressions of shape (2, 2)"),
        ([["x1", "y1"], 5], UnknownSymbolError, "unknown symbol 'y1'"),
        ([["x1", "0"], ["1 +"]], ParseError, "metric must be nested lists of expressions of shape (2, 2)"),
        # a leaf that is no text and no finite number, in the document's terms
        ([[True, "1 +"], ["0", "0"]], ParseError, "metric has true where an expression belongs"),
        ([["1 +", None], ["0", "0"]], ExprSyntaxError, "unexpected end of input (at position 3)"),
        ([["x1", None], ["0", "0"]], ParseError, "metric has null where an expression belongs"),
        ([["x1", float("nan")], ["0", "0"]], ParseError, "metric has NaN where an expression belongs"),
        ([["x1", ["0"]], ["0", "0"]], ParseError, "metric must be nested lists of expressions of shape (2, 2)"),
        ([["x1", {"0": 0}], ["0", "0"]], ParseError, "metric must be nested lists of expressions of shape (2, 2)"),
    ],
)
def test_errors_come_entry_by_entry(rows, error, message):
    with pytest.raises(ParaquatError) as exc:
        expression_array(rows, (2, 2), make_chart(2), "metric")
    assert type(exc.value) is error and str(exc.value).startswith(message)


@pytest.fixture
def compiles(monkeypatch):
    """The coordinate names of each array ``exprlang._program`` compiles,
    from an empty program cache."""
    catalog._compiled.cache_clear()
    names_seen = []
    real = exprlang._program
    monkeypatch.setattr(exprlang, "_program", lambda entries, names: names_seen.append(names) or real(entries, names))
    yield names_seen
    catalog._compiled.cache_clear()


def test_numbers_are_read_as_their_text():
    # a JSON integer or finite float is an entry, read as its str
    values = expression_array([[1, 0.5], [-2, 10**3]], (2, 2), make_chart(2), "metric")[0]
    assert values(np.zeros((1, 2)))[0].tolist() == [[1.0, 0.5], [-2.0, 1000.0]]


def test_an_array_is_compiled_once_per_texts_and_names(compiles):
    chart = make_chart(2)
    rows = [["exp(x1)", "x1*x2"], ["x1*x2", "1"]]
    values, jets = expression_array(rows, (2, 2), chart, "metric")
    assert len(compiles) == 1
    # the same texts and names, under another label, nesting or domain,
    # reuse the program; the reshaping stays each call's own
    again, again_jets = expression_array([list(r) for r in rows], (2, 2), chart, "structure")
    flat, _ = expression_array([*rows[0], *rows[1]], (4,), make_chart(2, domain=[[0, 1], [0, 1]]), "vector")
    assert len(compiles) == 1
    C = np.array([[0.3, -0.7], [0.1, 0.2]])
    pts = [Point(chart, c) for c in C]
    assert values(C).tobytes() == again(C).tobytes() == flat(C).reshape(2, 2, 2).tobytes()
    assert flat(C).shape == (2, 4)
    for order in (1, 2, 3):
        assert [A.tobytes() for A in jets(pts, order)] == [A.tobytes() for A in again_jets(pts, order)]
    # one text, or one coordinate name, changed compiles anew
    expression_array([["exp(x2)", "x1*x2"], ["x1*x2", "1"]], (2, 2), chart, "metric")
    expression_array(rows, (2, 2), make_chart(2, ["x1", "x2"]), "metric")
    assert len(compiles) == 2
    expression_array([["exp(x1)", "x1"], ["x1", "1"]], (2, 2), make_chart(2, ["x1", "y"]), "metric")
    expression_array([["exp(x1)", "x1"], ["x1", "1"]], (2, 2), make_chart(2, ["x1", "z"]), "metric")
    assert compiles[2:] == [("x1", "y"), ("x1", "z")]


@pytest.mark.parametrize(
    "rows,error,message",
    [
        ([["x1", "1 +"], ["0", "0"]], ExprSyntaxError, "unexpected end of input (at position 3)"),
        ([["x1", "y1"], ["0", "0"]], UnknownSymbolError, "unknown symbol 'y1'; coordinates are ('x1', 'x2')"),
        # malformed nesting never reaches the cache: it compiles as the entries come
        ([["x1", "1 +"], "bad"], ExprSyntaxError, "unexpected end of input (at position 3)"),
        ([["x1"], ["0", "0"]], ParseError, "metric must be nested lists of expressions of shape (2, 2)"),
    ],
)
def test_a_failing_compile_is_not_cached(compiles, rows, error, message):
    for attempt in (1, 2):
        with pytest.raises(error) as exc:
            expression_array(rows, (2, 2), make_chart(2), "metric")
        assert str(exc.value) == message
        assert len(compiles) == attempt
    assert catalog._compiled.cache_info().currsize == 0


def test_the_oldest_program_compiles_again_past_the_bound(compiles):
    chart, bound = make_chart(1), catalog.PROGRAM_CACHE_SIZE
    for k in range(bound + 1):
        expression_array([f"x1 + {k}"], (1,), chart, "vector")
    assert len(compiles) == bound + 1
    expression_array([f"x1 + {bound}"], (1,), chart, "vector")
    assert len(compiles) == bound + 1
    expression_array(["x1 + 0"], (1,), chart, "vector")
    assert len(compiles) == bound + 2


def test_printer_precedence():
    assert _printed("1+2*3") == "1.0 + 2.0*3.0"
    assert _printed("(1+2)*3") == "(1.0 + 2.0)*3.0"
    assert _printed("1-(2-3)") == "1.0 - (2.0 - 3.0)"
    # unary minus binds looser than the power
    two = ("num", struct.pack("d", 2.0))
    assert keyed("-x1^2", ["x1"])[0].keys == [("sym", 0), two, ("^", 0, 1), ("neg", 2)]
    # power associates to the right
    assert keyed("2^3^2", ["x1"])[0].keys == [two, ("num", struct.pack("d", 3.0)), ("^", 1, 0), ("^", 0, 2)]
    assert _printed("2^3^2") == "2.0^3.0^2.0"


def _values(entries, names):
    """The values function of ``compile_with_jets``."""
    return compile_with_jets(entries, names)[0]


def _at(values, x):
    """The values at one point x: a batch of one."""
    return values(np.asarray(x, dtype=float)[None])[0]


def _evaluate(src, names, coords):
    """The value of one expression at one point, through the evaluator."""
    return _at(_values([src], names), coords)[0]


def test_evaluate():
    assert _evaluate("x1 + 2*x2", ["x1", "x2"], np.array([1.0, 3.0])) == 7.0
    assert _evaluate("cos(0)*5 - sinh(0)", ["x1"], np.array([0.0])) == 5.0
    assert _evaluate("2^3^2", ["x1"], np.array([0.0])) == 512.0


@pytest.mark.parametrize("x", [[0.5, 0.7], [[0.5, 0.7, 0.1]], [[[0.5, 0.7]]]])
def test_values_take_a_stack_of_points_only(x):
    """One coordinate vector, or rows of the wrong length, raise rather than
    being read as some other stack of points."""
    with pytest.raises(ValidationError, match=r"an \(N, 2\) stack of points"):
        _values(["1.5", "x1 + 2*x2"], ["x1", "x2"])(np.array(x))
    values = expression_array([["1.5", "x1"], ["x2", "0"]], (2, 2), make_chart(2), "metric")[0]
    with pytest.raises(ValidationError, match=r"an \(N, 2\) stack of points"):
        values(np.array(x))


def test_unknown_symbol_raised_at_bind_time():
    with pytest.raises(UnknownSymbolError):
        _values(["x1 + q"], ["x1", "x2"])
    # the first unknown name, left to right, across the entries of an array
    with pytest.raises(UnknownSymbolError) as exc:
        _values(["x1", "a/b", "c"], ["x1"])
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
# The reference evaluates a tree (tests/expr_reference.py) recursively with
# the language's rules: left operand before right except that '/' evaluates
# and tests its divisor first, and every Call, '/' and '^' turns an
# arithmetic error, a complex or a non-finite value into EvaluationError.  It
# lives only here, so the package keeps one evaluator; the package is given
# each tree's text.


def _ref_check(fn, args, node):
    try:
        v = fn(*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvaluationError(f"cannot evaluate {text(node)!r}: {exc}") from exc
    if isinstance(v, complex) or not math.isfinite(v):
        raise EvaluationError(f"non-finite value from {text(node)!r}")
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
            raise EvaluationError(f"division by zero in {text(e)!r}")
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
# subtrees and hit every failure path; -0.0, a minus on 0.0 in text, and 0.0
# must never be merged
_small_nums = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e300]).map(num)
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
    assert _outcome(lambda: _at(_values(_texts(trees), _NAMES), c)) == expected
    if expected[0] == "UnknownSymbolError":
        return
    # the same row inside a batch: the same bits when every row evaluates
    # alone, else an error that one of the failing rows raises alone
    X = np.stack([c[::-1], c, np.array([1.0, 0.5, -2.5])])
    alone = [_outcome(lambda: _reference(trees, _NAMES, row)) for row in X]
    if all(kind == "value" for kind, _ in alone):
        V = _values(_texts(trees), _NAMES)(X)
        assert V.shape == (3, len(trees))
        assert [[struct.pack("d", v) for v in row] for row in V] == [bits for _, bits in alone]
    else:
        with pytest.raises(EvaluationError) as exc:
            _values(_texts(trees), _NAMES)(X)
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
        Call("sin", (a,)), Call("cos", (a,)), Bin("*", a, Num(0.0)), Bin("*", a, num(-0.0)),
    ]
    c = np.array(coords, dtype=float)
    expected = _outcome(lambda: _reference(twins, _NAMES, c))
    assert _outcome(lambda: _at(_values(_texts(twins), _NAMES), c)) == expected
    if expected[0] == "value":
        for e, v in zip(twins, expected[1]):
            assert struct.pack("d", _at(_values([text(e)], _NAMES), c)[0]) == v


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
    x = np.array([0.5, 2.0, -1.25, 0.75, 3.0])
    got = _at(_values(src, names), x)
    c, _c, t0, exp, lambda_ = x.tolist()
    assert [struct.pack("d", v) for v in got] == [
        struct.pack("d", v) for v in (math.exp(exp) + c * _c - t0 / lambda_, t0, -lambda_, _c**c, 1.5)
    ]
    assert got[1] == -1.25 and got[2] == -3.0
    with pytest.raises(UnknownSymbolError, match="'t1'"):
        _values(["t0 + t1"], names)


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
    values, jets = exprlang.compile_with_jets(JET_EXPRS, ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2]])
    V, D, H = jets(X)
    T = len(JET_EXPRS)
    assert V.shape == (2, T) and D.shape == (2, 2, T) and H.shape == (2, 2, 2, T)
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
    _, jets = exprlang.compile_with_jets(JET_EXPRS, ["x1", "x2"])
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
    ("x1^(x2^0)", lambda a, b: (1 + 0 * a, 0 * b)),  # an exponent whose value is 1 everywhere
])
def test_every_exponent_has_the_jets_of_its_closed_form(src, gradient):
    values, jets = exprlang.compile_with_jets(["x2", src], ["x1", "x2"])
    assert _at(values, [0.5, 2.0])[0] == 2.0
    X = np.array([[0.5, 2.0], [1.5, -0.7]])
    D = jets(X, 3)[1]
    assert np.allclose(D[:, :, 1], np.stack(gradient(*X.T), axis=1), rtol=1e-14, atol=1e-15)


def test_a_coordinate_in_an_exponent_takes_the_rule_of_exp_b_log_a():
    # d(x1^x2) = x1^x2 (x2/x1, log x1) and d(2^x1) = 2^x1 (log 2, 0); the
    # value of x2^(x1 - x1) is 1, so its derivatives vanish, at x2 < 0 too
    _, jets = exprlang.compile_with_jets(["x1^x2", "pow(2, x1)", "x2^(x1 - x1)"], ["x1", "x2"])
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
    _, jets = exprlang.compile_with_jets([f, f"-{f}", f, "0"], ["x1", "x2"])
    V, D, H = jets(np.array([[0.1, -0.2], [0.3, 0.4]]))
    assert len(calls) == 1
    assert (V[:, 1] == -V[:, 0]).all() and (D[..., 3] == 0).all() and (H[..., 3] == 0).all()
    assert np.allclose(H[:, :, :, 0], V[:, 0, None, None] * np.outer([1.0, -0.8], [1.0, -0.8]), rtol=1e-15)


@pytest.mark.parametrize("src,x1,node", [
    ("2 + (x1^2)^0.5", 0.0, "(x1^2.0)^0.5"),  # |x1| at its kink
    ("1 + x2*pow(x1, 1.5)", 0.0, "pow(x1, 1.5)"),  # no second derivative at 0
    ("2 + (x1 - x1)^0.5", 0.3, "(x1 - x1)^0.5"),
    ("1 + x1^x2", 0.0, "x1^x2"),  # log|x1| at 0
    ("2 + 0^(x1 + 2)", 0.3, "0.0^(x1 + 2.0)"),  # log|0| of a constant base
])
def test_a_derivative_that_is_not_finite_names_its_node_and_warns_of_nothing(src, x1, node):
    values, jets = exprlang.compile_with_jets([src], ["x1", "x2"])
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
    "x1*sin(x1*x2)", "sin(x1)*cos(x2)*x2^2", "x2^x1", "pow(x2, x1 - x2)",
]


def test_third_order_jets_are_the_limit_of_differences_of_the_hessian():
    # central differences of the order-2 Hessian are O(h^2) from the third
    # partials, so halving h divides their distance by 4
    _, jets = exprlang.compile_with_jets(THIRD_ORDER_EXPRS, ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2]])
    V, D, H, K = jets(X, 3)
    assert K.shape == (2, 2, 2, 2, len(THIRD_ORDER_EXPRS))
    for whole, order2 in zip((V, D, H), jets(X)):
        assert whole.tobytes() == order2.tobytes()
    distance = []
    for h in (1e-3, 5e-4):
        fd = np.stack([(jets(X + h * e)[2] - jets(X - h * e)[2]) / (2 * h) for e in np.eye(2)], axis=1)
        distance.append(np.abs(fd - K).max(axis=(0, 1, 2, 3)))
    order = np.log2(distance[0] / distance[1])
    assert ((1.8 <= order) & (order <= 2.2)).all(), dict(zip(THIRD_ORDER_EXPRS, order))


def test_third_order_jets_of_a_stack_are_the_jets_of_each_point():
    _, jets = exprlang.compile_with_jets(JET_EXPRS + THIRD_ORDER_EXPRS, ["x1", "x2"])
    X = np.array([[0.3, 0.7], [-0.45, 1.2], [0.9, 0.2]])
    stacked = jets(X, 3)
    assert len(stacked) == 4
    for c in range(len(X)):
        for whole, alone in zip(stacked, jets(X[c:c + 1], 3)):
            assert whole[c].tobytes() == alone[0].tobytes()


def test_a_third_derivative_that_is_not_finite_names_its_node():
    # x1^2.5 has finite first and second derivatives at 0, but not a third
    _, jets = exprlang.compile_with_jets(["1 + x2*x1^2.5"], ["x1", "x2"])
    X = np.array([[0.0, 0.5]])
    assert all(np.isfinite(A).all() for A in jets(X))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"non-finite derivative from 'x1\^2.5'"):
            jets(X, 3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=3))
def test_jets_agree_bit_for_bit_at_every_order(trees):
    # each order runs the same rules, so a higher one has every part of a
    # lower one, bit for bit; an error of the values is the same at every
    # order, and only a higher order's own partials can add a non-finite one
    _, jets = compile_with_jets(_texts(trees), _NAMES + ("q",))
    X = np.array([[0.3, -0.7, 1.1, 0.4], [0.5, 2.0, -1.5, -0.2]])
    got = [_bits(lambda: jets(X, order)) for order in (1, 2, 3)]
    for low in range(3):
        for high in range(low + 1, 3):
            (kind, a), (high_kind, b) = got[low], got[high]
            if kind == "value" and high_kind == "value":
                assert b[: low + 2] == a
            elif kind == "value" or a.startswith("non-finite derivative"):
                assert high_kind == "EvaluationError" and b.startswith("non-finite derivative"), (got[low], got[high])
            else:
                assert got[high] == got[low]


@pytest.mark.parametrize("src,node", [
    ("x1*(-1)^0.5 + x1", "(-1.0)^0.5"),  # a complex value
    ("x1 + x1*0^(-1)", "0.0^-1.0"),
    ("x1 + x1*(1/0)", "1.0/0.0"),
    ("x1 + x1*10^400", "10.0^400.0"),
    ("x2*exp(1000) + x1", "exp(1000.0)"),  # inf, with no Python error
    ("x1 + exp(1000)*0^(-1)", "exp(1000.0)"),  # the first failing node, as in the walk
    ("x1/0 + 1", "x1/0.0"),
])
def test_a_constant_subexpression_gets_the_checks_of_the_walk_in_the_jets(src, node):
    # a node whose operands are all constants is the same at every point;
    # a jets call may be the first to evaluate it, as a map's jacobian is
    # and it raises the walk's error, message and all, except that a Call
    # which overflows is math's OverflowError in the walk and numpy's inf here
    values, jets = compile_with_jets([src], ["x1", "x2"])
    X = np.array([[0.3, 0.5], [0.7, -0.2]])
    with pytest.raises(EvaluationError, match=f"'{re.escape(node)}'") as walked:
        values(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (1, 2, 3):
            with pytest.raises(EvaluationError) as exc:
                jets(X, order)
            assert f"{node!r}" in str(exc.value) and not str(exc.value).startswith("non-finite derivative")
            assert str(exc.value) == str(walked.value) or node.startswith("exp(")


# --- one pass from text: the program of a printed tree, deep and long input --


def _program(entries, names):
    """The step program of an array: its slots, constants, steps (each with
    the text its error would quote) and the slot of each entry."""
    em, results = exprlang._program(entries, names)
    constants = {slot: struct.pack("d", v) for slot, v in em.constants.items()}
    steps = [(slot, key, exprlang._text(em, node)) for slot, key, node in em.steps]
    return list(em.slots.items()), constants, steps, results


def _reference_program(trees, names):
    """The step program of a recursive walk of the trees in the language's
    order: each distinct subtree gets the next slot after its operands',
    the divisor of a '/' comes first and is tested for zero before the
    dividend, and a literal's slot holds its value."""
    index = {name: k for k, name in enumerate(names)}
    slots, constants, steps, nonzero = {}, {}, [], set()

    def operand(e):
        if isinstance(e, Num):
            key = ("num", struct.pack("d", e.value))
            if key not in slots:
                constants[len(slots)] = key[1]
                slots[key] = len(slots)
            return slots[key]
        if isinstance(e, Sym):
            key = ("sym", index[e.name])
        elif isinstance(e, Neg):
            key = ("neg", operand(e.arg))
        elif isinstance(e, Call):
            key = (e.fn, *(operand(a) for a in e.args))
        elif e.op == "/":
            right = operand(e.right)
            if right not in nonzero:
                nonzero.add(right)
                steps.append((None, ("nonzero", right), text(e)))
            key = ("/", operand(e.left), right)
        else:
            left = operand(e.left)
            key = (e.op, left, operand(e.right))
        if key not in slots:
            slots[key] = len(slots)
            steps.append((slots[key], key, text(e)))
        return slots[key]

    results = [operand(e) for e in trees]
    return list(slots.items()), constants, steps, results


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=4).flatmap(
    lambda ts: st.lists(st.sampled_from(ts), min_size=1, max_size=6).map(lambda more: ts + more)
))
def test_the_program_is_the_walk_in_the_languages_order(trees):
    # arrays with a division and without one, shared subtrees, -0.0 and 0.0
    names = _NAMES + ("q",)
    assert _program(_texts(trees), names) == _reference_program(trees, names)


def _bits(fn):
    """The bits of the arrays ``fn`` returns, or the error it raises."""
    try:
        return "value", [A.tobytes() for A in fn()]
    except Exception as exc:  # the same failure on both sides, whatever it is
        return type(exc).__name__, str(exc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.recursive(_nums | _syms, _compound, max_leaves=80))
def test_a_printed_tree_compiles_to_the_program_and_bits_of_the_tree(e):
    assert _program([text(e)], _NAMES5) == _reference_program([e], _NAMES5)
    values = _values([text(e)], _NAMES5)
    for c in np.array([[0.3, -0.7, 1.1, 0.4, -0.2], [0.05, 0.5, -1.5, 2.0, 0.9]]):
        assert _outcome(lambda: _at(values, c)) == _outcome(lambda: _reference([e], _NAMES5, c))


_N = 5000
_DEEP = {
    "nested parentheses": ("(" * _N + "x1 + 2*x2" + ")" * _N, "x1 + 2.0*x2"),
    "unary minuses": ("-" * _N + "x1*x2", "-" * _N + "x1*x2"),
    "a long sum": (
        " + ".join(f"{k % 7}*x{k % 2 + 1}" for k in range(_N)),
        " + ".join(f"{float(k % 7)!r}*x{k % 2 + 1}" for k in range(_N)),
    ),
    "a power chain": ("^".join(["1"] * 1000), "^".join(["1.0"] * 1000)),
}


@pytest.mark.parametrize("case", sorted(_DEEP))
def test_deep_and_long_expressions_parse_compile_evaluate_and_print(case):
    # neither depth nor length meets a recursion limit in the parse, the
    # compile, the walk, the jets or the printer
    src, printed = _DEEP[case]
    assert _printed(src, ["x1", "x2"]) == printed
    assert _printed(printed, ["x1", "x2"]) == printed
    X = np.array([[0.5, 0.25], [-1.5, 2.0]])
    a, b = X.T
    value, gradient, hessian = {
        "nested parentheses": (a + 2 * b, [1 + 0 * a, 2 + 0 * a], 0 * a),
        "unary minuses": (a * b, [b, a], 1 + 0 * a),
        "a long sum": (
            np.array([sum(k % 7 * x[k % 2] for k in range(_N)) for x in X]),
            [sum(k % 7 for k in range(0, _N, 2)) + 0 * a, sum(k % 7 for k in range(1, _N, 2)) + 0 * a],
            0 * a,
        ),
        "a power chain": (1 + 0 * a, [0 * a, 0 * a], 0 * a),
    }[case]
    for entry in (src, printed):
        values, jets = compile_with_jets([entry], ["x1", "x2"])
        assert values(X)[:, 0].tobytes() == value.tobytes()
        V, D, H, K = jets(X, 3)
        assert np.array_equal(V[:, 0], value) and np.array_equal(D[..., 0], np.stack(gradient, axis=1))
        assert np.array_equal(H[:, 0, 1, 0], hessian) and not K.any()


def test_a_syntax_error_at_the_bottom_of_a_deep_nest_carries_its_position():
    src = "(" * _N + "x1 +" + ")" * _N
    for read in (exprlang._postfix, lambda s: compile_with_jets([s], ["x1"])):
        with pytest.raises(ExprSyntaxError) as exc:
            read(src)
        assert exc.value.position == _N + 4
        assert str(exc.value) == f"expected a value, found ')' (at position {_N + 4})"
