"""A tree of expression text: the reference the compiled programs are held to.

The package reads text straight into its table of distinct subexpressions
and builds no tree.  The tests build trees of these records, give the
package their text (``text``), and hold its programs, values and error
messages to a recursive walk of the tree.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple


class Num(NamedTuple):
    value: float


class Sym(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class Bin(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    fn: str
    args: tuple["Expr", ...]


Expr = Num | Sym | Neg | Bin | Call

# precedence levels: a child is parenthesized when its level is below what
# its place requires
ADD, MUL, NEG, POW, ATOM = 1, 2, 3, 4, 5

# each binary operator's level, the levels its operands require, its text
INFIX = {
    "+": (ADD, ADD, MUL, " + "),
    "-": (ADD, ADD, MUL, " - "),
    "*": (MUL, MUL, NEG, "*"),
    "/": (MUL, MUL, NEG, "/"),
    "^": (POW, ATOM, NEG, "^"),
}


def num(value: float) -> Expr:
    """The tree of a literal as text reads it back: the language has no
    negative literal, so a negative value, -0.0 included, is a minus on
    its magnitude."""
    return Neg(Num(-value)) if math.copysign(1.0, value) < 0 else Num(value)


def _printed(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        return repr(float(e.value)), ATOM
    if isinstance(e, Sym):
        return e.name, ATOM
    if isinstance(e, Neg):
        return "-" + _within(e.arg, NEG), NEG
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_within(a, ADD) for a in e.args)})", ATOM
    level, left, right, op = INFIX[e.op]
    return _within(e.left, left) + op + _within(e.right, right), level


def _within(e: Expr, required: int) -> str:
    printed, level = _printed(e)
    return f"({printed})" if level < required else printed


def text(e: Expr) -> str:
    """The canonical text of a tree: the fewest parentheses, and every
    literal as its float's repr."""
    return _printed(e)[0]


def subtrees(e: Expr) -> Iterator[Expr]:
    """Every subtree of ``e``, operands before their operator."""
    children = () if isinstance(e, (Num, Sym)) else (e.arg,) if isinstance(e, Neg) else (
        (e.left, e.right) if isinstance(e, Bin) else e.args
    )
    for child in children:
        yield from subtrees(child)
    yield e


def random_tree(rng: random.Random, depth: int) -> Expr:
    """A tree of at most ``depth`` levels of operators over the names x1-x4
    and u1 and literals in [0, 100]."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(rng.uniform(0.0, 100.0))
        return Sym(rng.choice(["x1", "x2", "x3", "x4", "u1"]))
    k = rng.randrange(4)
    if k == 0:
        return Neg(random_tree(rng, depth - 1))
    if k == 1:
        return Bin(rng.choice("+-*/^"), random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if k == 2:
        return Call(rng.choice(["sin", "cos", "exp", "sinh", "cosh"]), (random_tree(rng, depth - 1),))
    return Call("pow", (random_tree(rng, depth - 1), random_tree(rng, depth - 1)))
