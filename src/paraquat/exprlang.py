"""A small arithmetic expression language for scenario files.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is a decimal literal with optional fraction and exponent; NAME is an
identifier.  The callable names and their arities are fixed (sin, cos, exp,
sinh, cosh of one argument; pow of two); anything else followed by '(' is a
syntax error.  Free names are resolved against a coordinate list at bind time.

``parse_expr`` and ``print_expr`` are inverse in the useful direction:
re-parsing a printed tree reproduces it node for node, which is what lets
reports quote expressions canonically.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import EvaluationError, ExprSyntaxError, UnknownSymbolError

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

_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int
    value: float = 0.0


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            m = _NUM_RE.match(src, i)
            toks.append(_Token("num", m.group(), i, float(m.group())))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _NAME_RE.match(src, i)
            toks.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^(),":
            toks.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
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
        t = self.cur
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
            return Num(t.value)
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


# Failure paths of the generated code; each receives the node being evaluated.
_CAUGHT = (ZeroDivisionError, OverflowError, ValueError)


def _caught(node: Expr, exc: Exception):
    raise EvaluationError(f"cannot evaluate {print_expr(node)!r}: {exc}") from exc


def _nonfinite(node: Expr):
    raise EvaluationError(f"non-finite value from {print_expr(node)!r}")


def _zero_divisor(node: Expr):
    raise EvaluationError(f"division by zero in {print_expr(node)!r}")


class _Emitter:
    """Straight-line Python source for a list of trees.

    Every distinct subtree gets one temporary ``tN``: a subtree is keyed on
    its operator and the operands its children were given, so a repeated
    subtree is a dict hit and is evaluated once.  Constants ``kN`` and the
    nodes ``_n[N]`` that error messages quote live in the namespace; the
    source holds only generated names, integer indices, operator characters
    and FUNCTIONS names, never text from the expressions themselves.
    ``steps`` lists the temporaries in order as (name, key, node): the DAG
    that :func:`compile_with_jets` walks.
    """

    def __init__(self, index: dict[str, int]):
        self.index = index
        self.lines: list[str] = []
        self.namespace: dict = {
            "_CAUGHT": _CAUGHT,
            "_caught": _caught,
            "_nonfinite": _nonfinite,
            "_zero_divisor": _zero_divisor,
            "isfinite": math.isfinite,
        }
        self.nodes: list[Expr] = []
        self.operands: dict[tuple, str] = {}
        self.nonzero: set[str] = set()  # divisors already tested for zero
        self.steps: list[tuple[str, tuple, Expr]] = []

    def _temp(self, key: tuple, value: str, node: Expr) -> str:
        name = f"t{len(self.operands)}"
        self.lines.append(f"{name} = {value}")
        self.operands[key] = name
        self.steps.append((name, key, node))
        return name

    def _checked(self, key: tuple, value: str, node: Expr) -> str:
        """A temporary computed under the checks of a Call, '/' or '^'."""
        name = f"t{len(self.operands)}"
        self.steps.append((name, key, node))
        n = f"_n[{len(self.nodes)}]"
        self.nodes.append(node)
        self.lines += [
            "try:",
            f"    {name} = {value}",
            "except _CAUGHT as exc:",
            f"    _caught({n}, exc)",
            f"if isinstance({name}, complex) or not isfinite({name}):",
            f"    _nonfinite({n})",
        ]
        self.operands[key] = name
        return name

    def operand(self, e: Expr) -> str:
        if isinstance(e, Num):
            value = float(e.value)
            key = ("num", struct.pack("d", value))  # 0.0 and -0.0 stay apart
            if key not in self.operands:
                name = f"k{len(self.operands)}"
                self.namespace[name] = value
                self.operands[key] = name
            return self.operands[key]
        if isinstance(e, Sym):
            key = ("sym", self.index[e.name])
            return self.operands.get(key) or self._temp(key, f"float(_c[{key[1]}])", e)
        if isinstance(e, Neg):
            arg = self.operand(e.arg)
            key = ("neg", arg)
            return self.operands.get(key) or self._temp(key, f"-{arg}", e)
        if isinstance(e, Call):
            args = tuple(self.operand(a) for a in e.args)
            key = (e.fn,) + args
            if key in self.operands:
                return self.operands[key]
            self.namespace[e.fn] = _IMPL[e.fn]
            return self._checked(key, f"{e.fn}({', '.join(args)})", e)
        if e.op == "/":
            # the divisor is evaluated, and tested for zero, before the dividend
            right = self.operand(e.right)
            if right not in self.nonzero:
                n = f"_n[{len(self.nodes)}]"
                self.nodes.append(e)
                self.lines += [f"if {right} == 0.0:", f"    _zero_divisor({n})"]
                self.nonzero.add(right)
            left = self.operand(e.left)
        else:
            left = self.operand(e.left)
            right = self.operand(e.right)
        key = (e.op, left, right)
        if key in self.operands:
            return self.operands[key]
        if e.op in "+-*":
            return self._temp(key, f"{left} {e.op} {right}", e)
        return self._checked(key, f"{left} {'/' if e.op == '/' else '**'} {right}", e)


def _emit(trees: Iterable[Expr], names: Sequence[str]) -> tuple[_Emitter, list[str]]:
    """The emitter that has walked the trees, and the operand of each tree.

    The trees are taken in order and each one's free names are checked as it
    is taken, so an unknown name raises UnknownSymbolError here, before
    anything a later tree (or the iterable producing it) raises."""
    index = {name: k for k, name in enumerate(names)}
    taken: list[Expr] = []
    for e in trees:
        _check_symbols(e, index, names)
        taken.append(e)
    em = _Emitter(index)
    return em, [em.operand(e) for e in taken]


def _compiled(em: _Emitter, results: list[str]) -> Callable[[np.ndarray], list[float]]:
    """The emitter's trees as one straight-line function of a float
    coordinate array, returning the list of their values, built once with
    ``compile``: operands are evaluated left before right, except that '/'
    evaluates and tests its divisor first, and every Call, '/' and '^'
    raises EvaluationError on a zero divisor, a caught arithmetic error or a
    complex or non-finite value."""
    em.namespace["_n"] = tuple(em.nodes)
    body = ["_c = _x.tolist()"] + em.lines + [f"return [{', '.join(results)}]"]
    source = "def _compiled(_x):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, "<paraquat expression>", "exec"), em.namespace)
    return em.namespace["_compiled"]


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
    f1 = f'(a) and f2 = f''(a): d' = f1 d, H' = f1 H + f2 d d^T."""
    return v, _scaled(f1, d), _add(_scaled(f1, H), _scaled(f2, _outer(d, d)))


def _product(a, b):
    """The jet of a b from the jets of a and b."""
    (va, da, Ha), (vb, db, Hb) = a, b
    H = _add(_add(_scaled(vb, Ha), _scaled(va, Hb)), _sym_outer(da, db))
    return va * vb, _add(_scaled(vb, da), _scaled(va, db)), H


def _log_abs(a):
    """The jet of log|a|, whose derivatives are those of log a."""
    v, d, H = a
    return _chain(np.log(np.abs(v)), d, H, 1.0 / v, -1.0 / v**2)


def _power(a, c: float):
    """The jet of a^c for a constant exponent c."""
    v, d, H = a
    p = v ** c
    if d is None or c == 0.0:
        return p, None, None
    f2 = c * (c - 1.0) * v ** (c - 2.0) if c != 1.0 else 0.0
    return _chain(p, d, H, c * v ** (c - 1.0), f2)


def _jet(key: tuple, jet: dict, X: np.ndarray, unit: np.ndarray):
    """The jet of the temporary under ``key``, from its operands' jets."""
    op = key[0]
    if op == "sym":
        return X[:, key[1], None, None], unit[key[1]], None
    if op == "neg":
        v, d, H = jet[key[1]]
        return -v, _scaled(-1.0, d), _scaled(-1.0, H)
    if op in _NUMPY:
        (f, f1, f2, _), (v, d, H) = _NUMPY[op], jet[key[1]]
        fv = f(v)
        return (fv, None, None) if d is None else _chain(fv, d, H, f1(v, fv), f2(v, fv))
    (va, da, Ha), (vb, db, Hb) = jet[key[1]], jet[key[2]]
    if op in ("^", "pow"):
        if db is None:
            return _power((va, da, Ha), vb)
        # a^b has the derivatives of exp(b log|a|) scaled by its value, so an
        # a < 0 under an exponent constant in value keeps finite ones
        v = va ** vb
        _, dg, Hg = _product((vb, db, Hb), _log_abs((va, da, Ha)))
        return _chain(v, dg, Hg, v, v)
    if op == "+":
        return va + vb, _add(da, db), _add(Ha, Hb)
    if op == "-":
        return va - vb, _sub(da, db), _sub(Ha, Hb)
    if op == "*":
        return _product((va, da, Ha), (vb, db, Hb))
    # q = a/b: from q b = a, q' = (a' - q b')/b and q'' = (a'' - q b'' - q' b'^T - b' q'^T)/b
    q = va / vb
    dq = _scaled(1.0 / vb, _sub(da, _scaled(q, db)))
    return q, dq, _scaled(1.0 / vb, _sub(_sub(Ha, _scaled(q, Hb)), _sym_outer(dq, db)))


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


def _third(key: tuple, jet: dict, third: dict, own: tuple):
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
) -> tuple[Callable[[np.ndarray], list[float]], Callable[..., tuple[np.ndarray, ...]]]:
    """The trees compiled into one function of a float coordinate array
    ordered like ``names``, returning the list of their values (free names
    checked as in :func:`_emit`, evaluation as in :func:`_compiled`), and
    their exact partial derivatives to order 2 or 3 by forward mode over the
    same distinct subtrees.  A '^' or pow whose exponent depends on a
    coordinate takes the rule of exp(b log|a|).

    The jets map an (N, n) array of points, coordinates ordered like
    ``names``, and an ``order`` of 2 (the default) or 3, to (V, D, H) or
    (V, D, H, K), with V[c, t] the value of tree t at point c, D[c, i, t]
    its i-th partial, H[c, i, j, t] its (i, j) second partial and
    K[c, i, j, k, t] its (i, j, k) third partial.  Order 3 runs the rules of
    order 2 unchanged, so V, D and H are the same bit for bit at both.  Each
    distinct subtree is evaluated once, with numpy over the whole stack;
    nothing is compiled.  The values are numpy's, so they may differ from
    the compiled ones in the last bit; evaluate the trees with those first,
    since a jet assumes their values are finite.  A derivative that is not
    finite where the value is, such as that of ``(x1^2)^0.5`` at x1 = 0 or
    of ``x1^x2`` at x1 = 0, raises EvaluationError naming the first node
    where it fails, and numpy warns of nothing.
    """
    em, results = _emit(trees, names)
    values = _compiled(em, results)
    constants = {name: (em.namespace[name], None, None) for key, name in em.operands.items() if key[0] == "num"}
    n = len(names)
    unit = np.eye(n).reshape(n, 1, n, 1)  # unit[k] is e_k as a column of one point

    def jets(X: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        X = np.asarray(X, dtype=float)
        N, T = len(X), len(results)
        jet = dict(constants)
        third = dict.fromkeys(constants) if order == 3 else None
        with np.errstate(all="ignore"):
            for name, key, _ in em.steps:
                jet[name] = _jet(key, jet, X, unit)
                if third is not None:
                    third[name] = _third(key, jet, third, jet[name])
        out = [np.empty((N, T)), np.zeros((N, n, T)), np.zeros((N, n, n, T))]
        if third is not None:
            out.append(np.zeros((N, n, n, n, T)))
        for t, name in enumerate(results):
            v, d, h = jet[name]
            out[0][:, t] = np.reshape(v, -1)
            if d is not None:
                out[1][:, :, t] = d[:, :, 0]
            if h is not None:
                out[2][..., t] = h
            if third is not None and third[name] is not None:
                out[3][..., t] = third[name]
        if not all(np.isfinite(A).all() for A in out[1:]):
            for name, _, node in em.steps:
                parts = jet[name] + ((third[name],) if third is not None else ())
                if not all(t is None or np.isfinite(t).all() for t in parts):
                    raise EvaluationError(f"non-finite derivative from {print_expr(node)!r}")
        return tuple(out)

    return values, jets

