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

    def _temp(self, key: tuple, value: str) -> str:
        name = f"t{len(self.operands)}"
        self.lines.append(f"{name} = {value}")
        self.operands[key] = name
        return name

    def _checked(self, key: tuple, value: str, node: Expr) -> str:
        """A temporary computed under the checks of a Call, '/' or '^'."""
        name = f"t{len(self.operands)}"
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
            return self.operands.get(key) or self._temp(key, f"float(_c[{key[1]}])")
        if isinstance(e, Neg):
            arg = self.operand(e.arg)
            key = ("neg", arg)
            return self.operands.get(key) or self._temp(key, f"-{arg}")
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
            return self._temp(key, f"{left} {e.op} {right}")
        return self._checked(key, f"{left} {'/' if e.op == '/' else '**'} {right}", e)


def compile_exprs(trees: Iterable[Expr], names: Sequence[str]) -> Callable[[np.ndarray], list[float]]:
    """Compile trees into one function of a float coordinate array ordered
    like ``names``, returning the list of their values.

    The trees are taken in order and each one's free names are checked as it
    is taken, so an unknown name raises UnknownSymbolError here, before
    anything a later tree (or the iterable producing it) raises.  The result
    is one straight-line function, built once with ``compile``: operands are
    evaluated left before right, except that '/' evaluates and tests its
    divisor first, and every Call, '/' and '^' raises EvaluationError on a
    zero divisor, a caught arithmetic error or a complex or non-finite value.
    """
    index = {name: k for k, name in enumerate(names)}
    taken: list[Expr] = []
    for e in trees:
        _check_symbols(e, index, names)
        taken.append(e)
    em = _Emitter(index)
    results = [em.operand(e) for e in taken]
    em.namespace["_n"] = tuple(em.nodes)
    body = ["_c = _x.tolist()"] + em.lines + [f"return [{', '.join(results)}]"]
    source = "def _compiled(_x):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, "<paraquat expression>", "exec"), em.namespace)
    return em.namespace["_compiled"]


def bind_expr(e: Expr, names: Sequence[str]) -> Callable[[np.ndarray], float]:
    """Compile one tree to a function of a float coordinate array ordered
    like ``names``; the one-tree case of :func:`compile_exprs`."""
    values = compile_exprs([e], names)
    return lambda c: values(c)[0]

