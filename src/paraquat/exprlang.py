"""A small arithmetic expression language for scenario files.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is a decimal literal with optional fraction and exponent; NAME is an
identifier.  Both are ASCII: any other character, a non-ASCII letter or
digit included, is a syntax error at its position, and so is a literal too
large for a float, such as 1e400.  The callable names and their arities
are fixed (sin, cos, exp, sinh, cosh of one argument; pow of two); anything
else followed by '(' is a syntax error.  Free names are resolved against a
coordinate list at bind time.

``parse_expr`` and ``print_expr`` are inverse in the useful direction:
re-parsing a printed tree reproduces it node for node, which is what lets
reports quote expressions canonically.

An array of trees is evaluated by an interpreted walk of its distinct
subtrees, one step at a time over a whole batch of points
(``compile_with_jets``), in the language's order and with its checks; no
Python source is generated.  An array is read at a few points only, and
compiling a function for it cost far more than those evaluations.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import EvaluationError, ExprSyntaxError, UnknownSymbolError, ValidationError

FUNCTIONS: dict[str, int] = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "sinh": 1,
    "cosh": 1,
    "pow": 2,
}

_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "pow": lambda a, b: float(a) ** float(b),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Num, Sym, Neg, Bin, Call]

# a token after optional whitespace: an ASCII number, name or operator, or
# any other character, which is a syntax error
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", pos)
        toks.append(_Token(kind, text, pos))
    toks.append(_Token("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.toks[self.i]

    def _eat_op(self, chars: str) -> _Token | None:
        t = self.toks[self.i]
        if t.kind == "op" and t.text in chars:
            self.i += 1
            return t
        return None

    def expr(self) -> Expr:
        node = self.term()
        while (t := self._eat_op("+-")) is not None:
            node = Bin(t.text, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (t := self._eat_op("*/")) is not None:
            node = Bin(t.text, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self._eat_op("-") is not None:
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self._eat_op("^") is not None:
            return Bin("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        t = self.cur
        if t.kind == "num":
            self.i += 1
            value = float(t.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number literal {t.text!r} out of range", t.pos)
            return Num(value)
        if t.kind == "name":
            self.i += 1
            if self._eat_op("(") is None:
                return Sym(t.text)
            if t.text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {t.text!r}", t.pos)
            args = [self.expr()]
            while self._eat_op(",") is not None:
                args.append(self.expr())
            if self._eat_op(")") is None:
                raise ExprSyntaxError("expected ')'", self.cur.pos)
            if len(args) != FUNCTIONS[t.text]:
                raise ExprSyntaxError(
                    f"{t.text} takes {FUNCTIONS[t.text]} argument(s), got {len(args)}",
                    t.pos,
                )
            return Call(t.text, tuple(args))
        if self._eat_op("(") is not None:
            node = self.expr()
            if self._eat_op(")") is None:
                raise ExprSyntaxError("expected ')'", self.cur.pos)
            return node
        raise ExprSyntaxError(
            f"expected a value, found {t.text!r}" if t.kind != "end" else "unexpected end of input",
            t.pos,
        )


def parse_expr(src: str) -> Expr:
    p = _Parser(src)
    node = p.expr()
    if p.cur.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {p.cur.text!r}", p.cur.pos)
    return node


# Precedence levels used by the printer; parenthesize a child whose level is
# below what its slot requires.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, Bin):
        return {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}[e.op]
    if isinstance(e, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _print(e: Expr, required: int) -> str:
    if isinstance(e, Num):
        s = repr(float(e.value))
        return s
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_print(a, _LEVEL_ADD) for a in e.args)})"
    if isinstance(e, Neg):
        body = f"-{_print(e.arg, _LEVEL_NEG)}"
    elif e.op in "+-":
        body = f"{_print(e.left, _LEVEL_ADD)} {e.op} {_print(e.right, _LEVEL_MUL)}"
    elif e.op in "*/":
        body = f"{_print(e.left, _LEVEL_MUL)}{e.op}{_print(e.right, _LEVEL_NEG)}"
    else:  # ^
        body = f"{_print(e.left, _LEVEL_ATOM)}^{_print(e.right, _LEVEL_NEG)}"
    return f"({body})" if _level(e) < required else body


def print_expr(e: Expr) -> str:
    """Canonical text for a tree; re-parsing it reproduces the tree."""
    return _print(e, _LEVEL_ADD)


def _check_symbols(e: Expr, index: dict[str, int], names: Sequence[str]) -> None:
    """Raise UnknownSymbolError for the first free name of ``e``, read left
    to right, that is not a coordinate."""
    if isinstance(e, Sym):
        if e.name not in index:
            raise UnknownSymbolError(f"unknown symbol {e.name!r}; coordinates are {tuple(names)}")
    elif isinstance(e, Neg):
        _check_symbols(e.arg, index, names)
    elif isinstance(e, Bin):
        _check_symbols(e.left, index, names)
        _check_symbols(e.right, index, names)
    elif isinstance(e, Call):
        for a in e.args:
            _check_symbols(a, index, names)


# Failure paths of the checked steps; each receives the node being evaluated.
_CAUGHT = (ZeroDivisionError, OverflowError, ValueError)


def _caught(node: Expr, exc: Exception):
    raise EvaluationError(f"cannot evaluate {print_expr(node)!r}: {exc}") from exc


def _nonfinite(node: Expr):
    raise EvaluationError(f"non-finite value from {print_expr(node)!r}")


def _zero_divisor(node: Expr):
    raise EvaluationError(f"division by zero in {print_expr(node)!r}")


# the scalar function of each operator; a Call takes its function from _IMPL
_OPERATORS = {
    "neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "^": operator.pow,
}


class _Emitter:
    """The distinct subtrees of a list of trees, as numbered slots.

    Every distinct subtree gets one slot: a subtree is keyed on its operator
    and the slots its children were given, so a repeated subtree is a dict
    hit and is evaluated once.  A constant's slot holds its value
    (``constants``); every other slot is filled by one step.  ``steps`` lists
    them in evaluation order as (slot, key, node), with the zero test of a
    divisor as (None, ("nonzero", divisor slot), node) after the divisor's
    steps and before the dividend's: the DAG that :func:`compile_with_jets`
    walks.
    """

    def __init__(self, index: dict[str, int]):
        self.index = index
        self.slots: dict[tuple, int] = {}
        self.constants: dict[int, float] = {}
        self.nonzero: set[int] = set()  # divisors already tested for zero
        self.steps: list[tuple[int | None, tuple, Expr]] = []

    def operand(self, e: Expr) -> int:
        if isinstance(e, Num):
            value = float(e.value)
            key = ("num", struct.pack("d", value))  # 0.0 and -0.0 stay apart
            if key not in self.slots:
                self.constants[len(self.slots)] = value
                self.slots[key] = len(self.slots)
            return self.slots[key]
        if isinstance(e, Sym):
            key = ("sym", self.index[e.name])
        elif isinstance(e, Neg):
            key = ("neg", self.operand(e.arg))
        elif isinstance(e, Call):
            key = (e.fn, *(self.operand(a) for a in e.args))
        elif e.op == "/":
            # the divisor is evaluated, and tested for zero, before the dividend
            right = self.operand(e.right)
            if right not in self.nonzero:
                self.steps.append((None, ("nonzero", right), e))
                self.nonzero.add(right)
            key = ("/", self.operand(e.left), right)
        else:
            left = self.operand(e.left)
            key = (e.op, left, self.operand(e.right))
        if key not in self.slots:
            self.slots[key] = len(self.slots)
            self.steps.append((self.slots[key], key, e))
        return self.slots[key]


def _emit(trees: Iterable[Expr], names: Sequence[str]) -> tuple[_Emitter, list[int]]:
    """The emitter that has walked the trees, and the slot of each tree.

    The trees are taken in order and each one's free names are checked as it
    is taken, so an unknown name raises UnknownSymbolError here, before
    anything a later tree (or the iterable producing it) raises.  A tree
    object met again, as a parsed array repeats the tree of a repeated
    text, is checked and walked once."""
    index = {name: k for k, name in enumerate(names)}
    taken: dict[int, Expr] = {}
    order: list[int] = []
    for e in trees:
        if id(e) not in taken:
            _check_symbols(e, index, names)
            taken[id(e)] = e
        order.append(id(e))
    em = _Emitter(index)
    slots = {key: em.operand(e) for key, e in taken.items()}
    return em, [slots[key] for key in order]


def _evaluator(em: _Emitter, results: list[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The emitter's trees as one function of an (N, n) float array of
    points, returning their values as an (N, len(results)) array.

    It walks ``em.steps`` once; each step is one ``map`` of its scalar
    function over the points' Python floats, so every value is the one that
    step gives a single point.  A step whose function is in ``_IMPL`` (a
    Call) or is '/' or '^' is checked: a caught arithmetic error, a complex
    or a non-finite value at any point raises EvaluationError, as does a
    zero divisor at its test.  The functions are bound here, when the array
    is built."""
    program = []
    for slot, (op, *args), node in em.steps:
        if op in ("nonzero", "sym"):
            program.append((op, slot, None, args[0], node))
        else:
            kind = "checked" if op in _IMPL or op in "/^" else "plain"
            program.append((kind, slot, _IMPL.get(op) or _OPERATORS[op], args, node))
    constants, size, T = list(em.constants.items()), len(em.slots), len(results)

    def evaluate(X: np.ndarray) -> np.ndarray:
        N = len(X)
        coords = X.T.tolist()
        v: list = [None] * size
        for slot, value in constants:
            v[slot] = [value] * N
        for kind, slot, fn, args, node in program:
            if kind == "plain":
                v[slot] = list(map(fn, *[v[a] for a in args]))
            elif kind == "checked":
                try:
                    out = list(map(fn, *[v[a] for a in args]))
                except _CAUGHT as exc:
                    _caught(node, exc)
                if any(isinstance(x, complex) for x in out) or not all(map(math.isfinite, out)):
                    _nonfinite(node)
                v[slot] = out
            elif kind == "sym":
                v[slot] = coords[args]
            elif 0.0 in v[args]:  # the zero test of a divisor
                _zero_divisor(node)
        return np.fromiter(chain.from_iterable([v[r] for r in results]), float, T * N).reshape(T, N).T

    return evaluate


# Forward-mode jets.  A jet of a node over a stack of N points is (v, d, H):
# the value, shape (N, 1, 1) (a float for a constant node); the gradient as
# columns, shape (N, n, 1) or (1, n, 1); and the Hessian, shape (N, n, n) or
# (1, n, n).  d or H is None where it vanishes identically, so constants and
# linear nodes cost no Hessian arithmetic.  Third partials, shape (N, n, n, n)
# or (1, n, n, n), are kept beside the jets and follow the same rule.

# f, f', f'' and f''' of each function of one argument; the derivatives take
# the argument a and the value v = f(a)
_NUMPY = {
    "sin": (np.sin, lambda a, v: np.cos(a), lambda a, v: -v, lambda a, v: -np.cos(a)),
    "cos": (np.cos, lambda a, v: -np.sin(a), lambda a, v: -v, lambda a, v: np.sin(a)),
    "exp": (np.exp, lambda a, v: v, lambda a, v: v, lambda a, v: v),
    "sinh": (np.sinh, lambda a, v: np.cosh(a), lambda a, v: v, lambda a, v: np.cosh(a)),
    "cosh": (np.cosh, lambda a, v: np.sinh(a), lambda a, v: v, lambda a, v: np.sinh(a)),
}


def _add(a, b):
    return b if a is None else a if b is None else a + b


def _sub(a, b):
    return a if b is None else -b if a is None else a - b


def _scaled(c, t):
    return None if t is None else c * t


def _outer(a, b):
    """a b^T for gradient columns a, b; None when either vanishes."""
    return None if a is None or b is None else a * b.swapaxes(-1, -2)


def _sym_outer(a, b):
    """a b^T + b a^T for gradient columns a, b."""
    ab = _outer(a, b)
    return None if ab is None else ab + ab.swapaxes(-1, -2)


def _chain(v, d, H, f1, f2):
    """The jet of f(a) from a's gradient d and Hessian H, with v = f(a),
    f1 = f'(a) and f2 = f''(a): d' = f1 d, H' = f1 H + f2 d d^T; no Hessian
    when f2 is None."""
    return v, _scaled(f1, d), None if f2 is None else _add(_scaled(f1, H), _scaled(f2, _outer(d, d)))


def _product(a, b, second: bool = True):
    """The jet of a b from the jets of a and b; the Hessian only if ``second``."""
    (va, da, Ha), (vb, db, Hb) = a, b
    H = _add(_add(_scaled(vb, Ha), _scaled(va, Hb)), _sym_outer(da, db)) if second else None
    return va * vb, _add(_scaled(vb, da), _scaled(va, db)), H


def _log_abs(a, second: bool = True):
    """The jet of log|a|, whose derivatives are those of log a."""
    v, d, H = a
    return _chain(np.log(np.abs(v)), d, H, 1.0 / v, -1.0 / v**2 if second else None)


def _power(a, c: float, second: bool = True):
    """The jet of a^c for a constant exponent c."""
    v, d, H = a
    p = v ** c
    if d is None or c == 0.0:
        return p, None, None
    f2 = (c * (c - 1.0) * v ** (c - 2.0) if c != 1.0 else 0.0) if second else None
    return _chain(p, d, H, c * v ** (c - 1.0), f2)


def _jet(key: tuple, jet: list, X: np.ndarray, unit: np.ndarray, second: bool):
    """The jet of the temporary under ``key``, from its operands' jets; the
    Hessian only if ``second``, which changes no bit of the rest."""
    op = key[0]
    if op == "sym":
        return X[:, key[1], None, None], unit[key[1]], None
    if op == "neg":
        v, d, H = jet[key[1]]
        return -v, _scaled(-1.0, d), _scaled(-1.0, H)
    if op in _NUMPY:
        (f, f1, f2, _), (v, d, H) = _NUMPY[op], jet[key[1]]
        fv = f(v)
        return (fv, None, None) if d is None else _chain(fv, d, H, f1(v, fv), f2(v, fv) if second else None)
    (va, da, Ha), (vb, db, Hb) = jet[key[1]], jet[key[2]]
    if op in ("^", "pow"):
        if db is None:
            return _power((va, da, Ha), vb, second)
        # a^b has the derivatives of exp(b log|a|) scaled by its value, so an
        # a < 0 under an exponent constant in value keeps finite ones
        v = va ** vb
        _, dg, Hg = _product((vb, db, Hb), _log_abs((va, da, Ha), second), second)
        return _chain(v, dg, Hg, v, v if second else None)
    if op == "+":
        return va + vb, _add(da, db), _add(Ha, Hb)
    if op == "-":
        return va - vb, _sub(da, db), _sub(Ha, Hb)
    if op == "*":
        return _product((va, da, Ha), (vb, db, Hb), second)
    # q = a/b: from q b = a, q' = (a' - q b')/b and q'' = (a'' - q b'' - q' b'^T - b' q'^T)/b
    q = va / vb
    dq = _scaled(1.0 / vb, _sub(da, _scaled(q, db)))
    return q, dq, _scaled(1.0 / vb, _sub(_sub(Ha, _scaled(q, Hb)), _sym_outer(dq, db))) if second else None


def _k(c):
    """A jet value or derivative coefficient, shaped to scale third partials."""
    return c[..., None] if isinstance(c, np.ndarray) else c


def _sym3(H, d):
    """H_ij d_k + H_ik d_j + H_jk d_i for a Hessian H and a gradient column d;
    None when either vanishes."""
    if H is None or d is None:
        return None
    t = H[..., None] * d[..., None, None, :, 0]
    return t + t.swapaxes(-1, -2) + np.moveaxis(t, -1, -3)


def _chain3(K, d, H, f1, f2, f3):
    """The third partials of f(a) from a's gradient d, Hessian H and third
    partials K, with f1, f2, f3 the first three derivatives of f at a:
    f1 K + f2 sym3(H, d) + f3 d d d."""
    e = d[..., 0]
    cube = e[..., :, None, None] * e[..., None, :, None] * e[..., None, None, :]
    return _add(_add(_scaled(_k(f1), K), _scaled(_k(f2), _sym3(H, d))), _k(f3) * cube)


def _product3(a, b, Ka, Kb):
    """The third partials of a b from the jets of a and b and their third
    partials."""
    (va, da, Ha), (vb, db, Hb) = a, b
    return _add(_add(_scaled(_k(vb), Ka), _scaled(_k(va), Kb)), _add(_sym3(Ha, db), _sym3(Hb, da)))


def _third(key: tuple, jet: list, third: list, own: tuple):
    """The third partials of the temporary under ``key``, whose own jet is
    ``own``: shape (N, n, n, n) or (1, n, n, n), or None where they vanish
    identically.  These are the rules of ``_jet`` differentiated once more,
    from the operands' jets and their third partials in ``third``."""
    op = key[0]
    if op == "sym":
        return None
    if op == "neg":
        return _scaled(-1.0, third[key[1]])
    if op in _NUMPY:
        (_, f1, f2, f3), (v, d, H), fv = _NUMPY[op], jet[key[1]], own[0]
        return None if d is None else _chain3(third[key[1]], d, H, f1(v, fv), f2(v, fv), f3(v, fv))
    (va, da, Ha), (vb, db, Hb), Ka, Kb = jet[key[1]], jet[key[2]], third[key[1]], third[key[2]]
    if op in ("^", "pow") and db is not None:
        L, v = _log_abs((va, da, Ha)), own[0]
        KL = None if da is None else _chain3(Ka, da, Ha, 1.0 / va, -1.0 / va**2, 2.0 / va**3)
        _, dg, Hg = _product((vb, db, Hb), L)
        return _chain3(_product3((vb, db, Hb), L, Kb, KL), dg, Hg, v, v, v)
    if op in ("^", "pow"):
        c = vb
        if da is None or c == 0.0:
            return None
        f2 = c * (c - 1.0) * va ** (c - 2.0) if c != 1.0 else 0.0
        f3 = c * (c - 1.0) * (c - 2.0) * va ** (c - 3.0) if c not in (1.0, 2.0) else 0.0
        return _chain3(Ka, da, Ha, c * va ** (c - 1.0), f2, f3)
    if op == "+":
        return _add(Ka, Kb)
    if op == "-":
        return _sub(Ka, Kb)
    if op == "*":
        return _product3((va, da, Ha), (vb, db, Hb), Ka, Kb)
    # q = a/b: from q b = a, K_q = (K_a - q K_b - sym3(H_q, b') - sym3(H_b, q'))/b
    q, dq, Hq = own
    K = _sub(_sub(Ka, _scaled(_k(q), Kb)), _add(_sym3(Hq, db), _sym3(Hb, dq)))
    return _scaled(_k(1.0 / vb), K)


def compile_with_jets(
    trees: Iterable[Expr], names: Sequence[str]
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[..., tuple[np.ndarray, ...]]]:
    """The values of the trees at a batch of points, and their exact partial
    derivatives to order 1, 2 or 3 by forward mode, both walking the same
    distinct subtrees (free names checked as in :func:`_emit`).  Nothing is
    compiled and no Python source is generated.

    The values map an (N, n) array of points, coordinates ordered like
    ``names``, to the (N, T) array of the T trees' values; an array of any
    other shape, one coordinate vector included, raises ValidationError.
    They are
    evaluated as in :func:`_evaluator`, in the language's order (left
    operand before right, except that '/' evaluates and tests its divisor
    first), with the checks and messages of every Call, '/' and '^', one
    step at a time over the whole batch.  A point's values are the same bit
    for bit alone or in any batch; a batch raises the error of the first
    step that fails at any of its points, which need not be what its first
    failing point raises alone (``fields._memo_batch``, under which
    ``fields.eval_batch`` runs, tries the points again one at a time).

    The jets map an (N, n) array of points and an ``order`` of 1, 2 (the
    default) or 3 to (V, D), (V, D, H) or (V, D, H, K), with V[c, t] the
    value of tree t at point c, D[c, i, t] its i-th partial, H[c, i, j, t]
    its (i, j) second partial and K[c, i, j, k, t] its (i, j, k) third
    partial.  Order 1 builds no Hessian and order 3 runs the rules of order
    2 unchanged, so each partial is the same bit for bit at every order
    that has it.  Each distinct subtree is evaluated once, with numpy over
    the whole stack.  The values are numpy's, so they may differ from the
    walked ones in the last bit; evaluate the trees with those first, since
    a jet assumes their values are finite.  A '^' or pow whose exponent
    depends on a coordinate takes the rule of exp(b log|a|).  A derivative
    that is not finite where the value is, such as that of ``(x1^2)^0.5`` at
    x1 = 0 or of ``x1^x2`` at x1 = 0, raises EvaluationError naming the
    first node where it fails, and numpy warns of nothing.
    """
    em, results = _emit(trees, names)
    evaluate = _evaluator(em, results)
    temporaries = [step for step in em.steps if step[0] is not None]
    n, size = len(names), len(em.slots)
    unit = np.eye(n).reshape(n, 1, n, 1)  # unit[k] is e_k as a column of one point

    def values(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != n:
            raise ValidationError(f"values take an (N, {n}) stack of points, got shape {X.shape}")
        return evaluate(X)

    def jets(X: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        X = np.asarray(X, dtype=float)
        N, T = len(X), len(results)
        jet: list = [None] * size
        for slot, value in em.constants.items():
            jet[slot] = (value, None, None)
        third = [None] * size if order == 3 else None
        with np.errstate(all="ignore"):
            for slot, key, _ in temporaries:
                jet[slot] = _jet(key, jet, X, unit, order > 1)
                if third is not None:
                    third[slot] = _third(key, jet, third, jet[slot])
        out = [np.empty((N, T)), np.zeros((N, n, T))] + [np.zeros((N,) + (n,) * k + (T,)) for k in range(2, order + 1)]
        for t, slot in enumerate(results):
            v, d, h = jet[slot]
            out[0][:, t] = np.reshape(v, -1)
            if d is not None:
                out[1][:, :, t] = d[:, :, 0]
            if h is not None:
                out[2][..., t] = h
            if third is not None and third[slot] is not None:
                out[3][..., t] = third[slot]
        if not all(np.isfinite(A).all() for A in out[1:]):
            for slot, _, node in temporaries:
                parts = jet[slot] + ((third[slot],) if third is not None else ())
                if not all(t is None or np.isfinite(t).all() for t in parts):
                    raise EvaluationError(f"non-finite derivative from {print_expr(node)!r}")
        return tuple(out)

    return values, jets
