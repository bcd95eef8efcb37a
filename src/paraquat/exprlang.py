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

Text is read once, left to right, by one operator-precedence parser with
explicit stacks (``_postfix``), which gives the expression in postfix
order: no tree is built on the way and nothing recurses, so neither the
depth of nesting nor the length of an expression has a limit but memory.
An error quotes its node in canonical text printed from the compiled keys
(``_text``); reading that text again gives the node's program.

An array of entries is compiled (``compile_with_jets``) by entering each
entry's postfix into one table of distinct subexpressions and scheduling
them in the language's order; its values are an interpreted walk of those
steps, one at a time over a whole batch of points, with the language's
checks.  No Python source is generated.  ``catalog.expression_array``
compiles each distinct array, keyed by its entry texts and coordinate
names, once per process, and keeps the 256 last used.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

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


# a token: an ASCII number or name, or any other character but whitespace,
# which is an operator or a syntax error.  One scan gives every token's
# text; positions are found again only to raise an error.
_TOKEN_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|\S")
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_TOKEN_START = _DIGITS | _NAME_START | frozenset("-+*/^(),")

# Postfix items: a float is a literal, a str a free name, and an operator is
# (op, number of operands), op being "neg", a binary operator or a function.
_NEG = ("neg", 1)

# The parser's pending operators, as (precedence, item).  A unary minus
# binds looser than '^' and tighter than '*' and '/'.  An open parenthesis
# or call is an entry of precedence 0, which no operator pops.
_PENDING = {op: (p, (op, 2)) for op, p in (("+", 1), ("-", 1), ("*", 2), ("/", 2))}
_PENDING_NEG = (3, _NEG)
_PENDING_POW = (4, ("^", 2))
_OPEN = (0, None)


def _syntax_error(src: str, toks: list[str], i: int, message: str):
    """Raise ``message`` at token ``i`` of ``src`` (its end when ``i`` is
    past the last token), unless a token of ``src`` is a character the
    language does not have: the first such one is the error, wherever the
    parse stopped."""
    for k, t in enumerate(toks):
        if t[0] not in _TOKEN_START:
            i, message = k, f"unexpected character {t!r}"
            break
    pos = len(src) if i == len(toks) else next(islice(_TOKEN_RE.finditer(src), i, None)).start()
    raise ExprSyntaxError(message, pos)


def _postfix(src: str) -> list:
    """The expression of ``src`` in postfix order, read in one pass.

    A value goes straight to the output.  An operator waits in ``pending``
    until one that binds no tighter comes, except that a '^' pops nothing,
    so it associates to the right; an open parenthesis or call waits for
    its ')'.  ``groups`` holds the open ones: None for a parenthesis,
    [name, token index, arguments so far] for a call.  An error is raised
    at the first token the grammar cannot take, with the grammar's
    message."""
    toks = _TOKEN_RE.findall(src)
    end = len(toks)
    out: list = []
    pending = [_OPEN]
    groups: list = []
    i = 0
    while True:
        # a value, after any prefix minuses and open groups
        t = toks[i] if i < end else ""
        c = t[:1]
        if c in _DIGITS:
            value = float(t)
            if value == math.inf:
                _syntax_error(src, toks, i, f"number literal {t!r} out of range")
            out.append(value)
        elif c in _NAME_START:
            if i + 1 < end and toks[i + 1] == "(":
                if t not in FUNCTIONS:
                    _syntax_error(src, toks, i, f"unknown function {t!r}")
                pending.append(_OPEN)
                groups.append([t, i, 1])
                i += 2
                continue
            out.append(t)
        elif t == "(":
            pending.append(_OPEN)
            groups.append(None)
            i += 1
            continue
        elif t == "-":
            pending.append(_PENDING_NEG)
            i += 1
            continue
        else:
            _syntax_error(src, toks, i, f"expected a value, found {t!r}" if i < end else "unexpected end of input")
        i += 1
        # an operator, after any closing parentheses
        while True:
            t = toks[i] if i < end else ""
            entry = _PENDING.get(t)
            if entry is not None:
                while pending[-1][0] >= entry[0]:
                    out.append(pending.pop()[1])
                pending.append(entry)
                break
            if t == "^":
                pending.append(_PENDING_POW)
                break
            while pending[-1][0]:
                out.append(pending.pop()[1])
            if not groups:
                if i == end:
                    return out
                _syntax_error(src, toks, i, f"unexpected trailing {t!r}")
            group = groups[-1]
            if t == ")":
                pending.pop()
                groups.pop()
                if group is not None:
                    fn, at, count = group
                    if count != FUNCTIONS[fn]:
                        _syntax_error(src, toks, at, f"{fn} takes {FUNCTIONS[fn]} argument(s), got {count}")
                    out.append((fn, count))
                i += 1
            elif t == "," and group is not None:
                group[2] += 1
                break
            else:
                _syntax_error(src, toks, i, "expected ')'")
        i += 1


# Precedence levels used by the printer; parenthesize a child whose level is
# below what its slot requires.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5

# each binary operator's level, the levels its left and right operands
# require, and its text between them
_INFIX = {
    "+": (_LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL, " + "),
    "-": (_LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL, " - "),
    "*": (_LEVEL_MUL, _LEVEL_MUL, _LEVEL_NEG, "*"),
    "/": (_LEVEL_MUL, _LEVEL_MUL, _LEVEL_NEG, "/"),
    "^": (_LEVEL_POW, _LEVEL_ATOM, _LEVEL_NEG, "^"),
}


def _operand(printed: tuple[str, int], required: int) -> str:
    text, level = printed
    return f"({text})" if level < required else text


def _text(em: _Emitter, at: int) -> str:
    """Canonical text of node ``at``, printed from ``em``'s keys in postfix
    order; no recursion.  Reading the text again gives the node's program.
    ``todo`` holds a node to visit as its number, and a node whose operands
    are printed as its complement."""
    keys, stack, todo = em.keys, [], [at]
    while todo:
        node = todo.pop()
        op, *args = keys[node if node >= 0 else ~node]
        if op == "num":
            stack.append((repr(struct.unpack("d", args[0])[0]), _LEVEL_ATOM))
        elif op == "sym":
            stack.append((em.names[args[0]], _LEVEL_ATOM))
        elif node >= 0:
            todo.append(~node)
            todo += reversed(args)
        else:
            printed = stack[len(stack) - len(args):]
            del stack[len(stack) - len(args):]
            if op == "neg":
                stack.append(("-" + _operand(printed[0], _LEVEL_NEG), _LEVEL_NEG))
            elif op in FUNCTIONS:
                stack.append((f"{op}({', '.join(_operand(a, _LEVEL_ADD) for a in printed)})", _LEVEL_ATOM))
            else:
                level, left, right, text = _INFIX[op]
                stack.append((_operand(printed[0], left) + text + _operand(printed[1], right), level))
    return stack[0][0]


# Failure paths of the checked steps; each receives the emitter and the node
# being evaluated.
_CAUGHT = (ZeroDivisionError, OverflowError, ValueError)


def _caught(em: _Emitter, node: int, exc: Exception):
    raise EvaluationError(f"cannot evaluate {_text(em, node)!r}: {exc}") from exc


def _nonfinite(em: _Emitter, node: int):
    raise EvaluationError(f"non-finite value from {_text(em, node)!r}")


def _zero_divisor(em: _Emitter, node: int):
    raise EvaluationError(f"division by zero in {_text(em, node)!r}")


# the scalar function of each operator; a Call takes its function from _IMPL
_OPERATORS = {
    "neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "^": operator.pow,
}

_pack = struct.Struct("d").pack


class _Emitter:
    """The distinct subexpressions of an array's entries, then their steps.

    ``enter`` takes one entry in postfix order and gives each distinct
    subexpression one node: a node is keyed on its operator and the nodes
    of its operands, a literal on its bits (so 0.0 and -0.0 stay apart) and
    a free name on its coordinate, so a repeated subexpression is a dict
    hit.  ``schedule`` then numbers the nodes the entries reach as slots,
    in the language's order: left operand first, except that '/' takes its
    divisor, and tests it for zero, before its dividend.  ``slots`` maps
    each slot's key (its operator and its operands' slots) to it,
    ``constants`` holds the value of each literal's slot, and ``steps``
    lists every other slot in evaluation order as (slot, key, node), with
    the zero test of a divisor as (None, ("nonzero", divisor slot),
    division node) after the divisor's steps and before the dividend's:
    the DAG that :func:`compile_with_jets` walks.  An error message prints
    its node from ``keys`` (``_text``).
    """

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.index = {name: k for k, name in enumerate(self.names)}
        self.keys: list[tuple] = []  # the key of each node
        self.nodes: dict[tuple, int] = {}
        self.slots: dict[tuple, int] = {}
        self.constants: dict[int, float] = {}
        self.steps: list[tuple[int | None, tuple, int]] = []

    def enter(self, items: list) -> int:
        """The node of one entry, given in postfix order.  The entry's first
        free name, read left to right, that is not a coordinate raises
        UnknownSymbolError once the entry is entered."""
        keys, nodes, index = self.keys, self.nodes, self.index
        stack: list[int] = []
        unknown = None
        for item in items:
            if item.__class__ is float:
                key = ("num", _pack(item))
            elif item.__class__ is str:
                k = index.get(item)
                if k is None and unknown is None:
                    unknown = item
                key = ("sym", k)
            else:
                op, n = item
                if n == 1:
                    key = (op, stack.pop())
                else:
                    b = stack.pop()
                    key = (op, stack.pop(), b)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = len(keys)
                keys.append(key)
            stack.append(node)
        if unknown is not None:
            raise UnknownSymbolError(f"unknown symbol {unknown!r}; coordinates are {self.names}")
        return stack[0]

    def schedule(self, roots: Sequence[int]) -> list[int]:
        """Number the nodes that ``roots`` reach, depth first in the
        language's order, and return the slot of each root.  ``todo`` holds
        a node to visit as its number, a node whose operands are done as
        its complement, and the zero test of a divisor as (division,
        divisor), between the divisor and the dividend."""
        keys, slots, steps, constants = self.keys, self.slots, self.steps, self.constants
        slot_of: list = [None] * len(keys)
        nonzero: set[int] = set()  # divisors already tested for zero
        todo = list(reversed(roots))
        while todo:
            item = todo.pop()
            if item.__class__ is tuple:
                division, divisor = item
                if slot_of[divisor] not in nonzero:
                    nonzero.add(slot_of[divisor])
                    steps.append((None, ("nonzero", slot_of[divisor]), division))
                continue
            if item >= 0:
                if slot_of[item] is not None:
                    continue
                key = keys[item]
                op = key[0]
                if op != "num" and op != "sym":
                    todo.append(~item)
                    if op == "/":
                        todo += (key[1], (item, key[2]), key[2])
                    else:
                        todo += key[:0:-1]
                    continue
            else:
                item = ~item
                key = keys[item]
                op = key[0]
                key = (op, *[slot_of[a] for a in key[1:]])
            slot = slot_of[item] = len(slots)
            slots[key] = slot
            if op == "num":
                constants[slot] = struct.unpack("d", key[1])[0]
            else:
                steps.append((slot, key, item))
        return [slot_of[root] for root in roots]


def _evaluator(em: _Emitter, results: list[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The emitter's entries as one function of an (N, n) float array of
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
                    _caught(em, node, exc)
                if any(isinstance(x, complex) for x in out) or not all(map(math.isfinite, out)):
                    _nonfinite(em, node)
                v[slot] = out
            elif kind == "sym":
                v[slot] = coords[args]
            elif 0.0 in v[args]:  # the zero test of a divisor
                _zero_divisor(em, node)
        return np.fromiter(chain.from_iterable([v[r] for r in results]), float, T * N).reshape(T, N).T

    return evaluate


# Forward-mode jets.  A jet of a node over a stack of N points is (v, d, H,
# K): the value, shape (N, 1, 1) (a float for a constant node); the gradient
# as columns, shape (N, n, 1) or (1, n, 1); the Hessian, shape (N, n, n) or
# (1, n, n); and the third partials, shape (N, n, n, n) or (1, n, n, n).  A
# part is None where it vanishes identically or lies above the order asked
# for, so constants and linear nodes cost no Hessian arithmetic, and no
# order below 3 does any third-order work.  Each operator's rule is written
# once, in ``_jet``, for every order.

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


def _k(c):
    """A jet value or derivative coefficient, shaped to scale third partials."""
    return c[..., None] if isinstance(c, np.ndarray) else c


def _outer(a, b):
    """a b^T for gradient columns a, b; None when either vanishes."""
    return None if a is None or b is None else a * b.swapaxes(-1, -2)


def _sym_outer(a, b):
    """a b^T + b a^T for gradient columns a, b."""
    ab = _outer(a, b)
    return None if ab is None else ab + ab.swapaxes(-1, -2)


def _sym3(H, d):
    """H_ij d_k + H_ik d_j + H_jk d_i for a Hessian H and a gradient column d;
    None when either vanishes."""
    if H is None or d is None:
        return None
    t = H[..., None] * d[..., None, None, :, 0]
    return t + t.swapaxes(-1, -2) + np.moveaxis(t, -1, -3)


def _chain(v, d, H, K, f1, f2, f3):
    """The jet of f(a) from a's gradient d, Hessian H and third partials K,
    with v = f(a) and f1, f2, f3 the first three derivatives of f at a:
    d' = f1 d, H' = f1 H + f2 d d^T and K' = f1 K + f2 sym3(H, d) + f3 d d d;
    no Hessian when f2 is None, and no third partials when f3 is None."""
    Hf = None if f2 is None else _add(_scaled(f1, H), _scaled(f2, _outer(d, d)))
    if f3 is None:
        return v, _scaled(f1, d), Hf, None
    e = d[..., 0]
    cube = e[..., :, None, None] * e[..., None, :, None] * e[..., None, None, :]
    return v, _scaled(f1, d), Hf, _add(_add(_scaled(_k(f1), K), _scaled(_k(f2), _sym3(H, d))), _k(f3) * cube)


def _product(a, b, order: int):
    """The jet of a b from the jets of a and b, to ``order``."""
    (va, da, Ha, Ka), (vb, db, Hb, Kb) = a, b
    H = _add(_add(_scaled(vb, Ha), _scaled(va, Hb)), _sym_outer(da, db)) if order > 1 else None
    K = _add(_add(_scaled(_k(vb), Ka), _scaled(_k(va), Kb)), _add(_sym3(Ha, db), _sym3(Hb, da))) if order > 2 else None
    return va * vb, _add(_scaled(vb, da), _scaled(va, db)), H, K


def _log_abs(a, order: int):
    """The jet of log|a|, whose derivatives are those of log a; none for a
    constant a, 0.0 included."""
    v, d, H, K = a
    if d is None:
        return np.log(np.abs(v)), None, None, None
    f2 = -1.0 / v**2 if order > 1 else None
    return _chain(np.log(np.abs(v)), d, H, K, 1.0 / v, f2, 2.0 / v**3 if order > 2 else None)


def _power(a, c: float, order: int):
    """The jet of a^c for a constant exponent c.  a^0 is the constant 1.0,
    so a node whose value varies always has a gradient, and an exponent
    with no gradient is a number."""
    v, d, H, K = a
    if c == 0.0:
        return 1.0, None, None, None
    p = v ** c
    if d is None:
        return p, None, None, None
    f2 = (c * (c - 1.0) * v ** (c - 2.0) if c != 1.0 else 0.0) if order > 1 else None
    f3 = (c * (c - 1.0) * (c - 2.0) * v ** (c - 3.0) if c not in (1.0, 2.0) else 0.0) if order > 2 else None
    return _chain(p, d, H, K, c * v ** (c - 1.0), f2, f3)


def _jet(key: tuple, jet: list, X: np.ndarray, unit: np.ndarray, order: int):
    """The jet of the temporary under ``key`` to ``order``, from its
    operands' jets; the order changes no bit of the parts it has."""
    op = key[0]
    if op == "sym":
        return X[:, key[1], None, None], unit[key[1]], None, None
    if op == "neg":
        v, d, H, K = jet[key[1]]
        return -v, _scaled(-1.0, d), _scaled(-1.0, H), _scaled(-1.0, K)
    if op in _NUMPY:
        (f, f1, f2, f3), (v, d, H, K) = _NUMPY[op], jet[key[1]]
        fv = f(v)
        if d is None:
            return fv, None, None, None
        return _chain(fv, d, H, K, f1(v, fv), f2(v, fv) if order > 1 else None, f3(v, fv) if order > 2 else None)
    a, b = jet[key[1]], jet[key[2]]
    (va, da, Ha, Ka), (vb, db, Hb, Kb) = a, b
    if op in ("^", "pow"):
        if db is None:
            return _power(a, vb, order)
        # a^b has the derivatives of exp(b log|a|) scaled by its value, so an
        # a < 0 under an exponent constant in value keeps finite ones
        v = va ** vb
        _, dg, Hg, Kg = _product(b, _log_abs(a, order), order)
        return _chain(v, dg, Hg, Kg, v, v if order > 1 else None, v if order > 2 else None)
    if op == "+":
        return va + vb, _add(da, db), _add(Ha, Hb), _add(Ka, Kb)
    if op == "-":
        return va - vb, _sub(da, db), _sub(Ha, Hb), _sub(Ka, Kb)
    if op == "*":
        return _product(a, b, order)
    # q = a/b: from q b = a, q' = (a' - q b')/b, q'' = (a'' - q b'' - q' b'^T - b' q'^T)/b
    # and K_q = (K_a - q K_b - sym3(H_q, b') - sym3(H_b, q'))/b
    q = va / vb
    dq = _scaled(1.0 / vb, _sub(da, _scaled(q, db)))
    Hq = _scaled(1.0 / vb, _sub(_sub(Ha, _scaled(q, Hb)), _sym_outer(dq, db))) if order > 1 else None
    if order < 3:
        return q, dq, Hq, None
    return q, dq, Hq, _scaled(_k(1.0 / vb), _sub(_sub(Ka, _scaled(_k(q), Kb)), _add(_sym3(Hq, db), _sym3(Hb, dq))))


def _program(entries: Iterable[str], names: Sequence[str]) -> tuple[_Emitter, list[int]]:
    """The emitter of an array's entries, scheduled, and the slot of each
    entry.  The entries are taken in order, and each text is read in one
    pass (``_postfix``) straight into the emitter, so an entry's syntax
    error, and then its first free name that is not one of ``names``
    (UnknownSymbolError), raise before anything a later entry, or the
    iterable producing it, raises.  A text met again is read once."""
    em = _Emitter(names)
    read: dict[str, int] = {}
    roots = []
    for e in entries:
        if e not in read:
            read[e] = em.enter(_postfix(e))
        roots.append(read[e])
    return em, em.schedule(roots)


def compile_with_jets(
    entries: Iterable[str], names: Sequence[str]
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[..., tuple[np.ndarray, ...]]]:
    """The values of an array's entries at a batch of points, and their
    exact partial derivatives to order 1, 2 or 3 by forward mode, both
    walking the same distinct subexpressions.  Nothing is compiled and no
    Python source is generated.

    An entry is expression text.  Each is read in one pass, with no tree
    built, into one table of distinct subexpressions, and the steps are
    then scheduled in the language's order (``_program``); errors come
    entry by entry: an entry's syntax error, then its first unknown free
    name (UnknownSymbolError).

    The values map an (N, n) array of points, coordinates ordered like
    ``names``, to the (N, T) array of the T entries' values; an array of
    any other shape, one coordinate vector included, raises
    ValidationError.  They are evaluated as in :func:`_evaluator`, in the
    language's order (left operand before right, except that '/' evaluates
    and tests its divisor first), with the checks and messages of every
    Call, '/' and '^', one step at a time over the whole batch.  A point's
    values are the same bit for bit alone or in any batch; a batch raises
    the error of the first step that fails at any of its points, which
    need not be what its first failing point raises alone
    (``fields._memo_batch``, under which ``fields.eval_batch`` runs, tries
    the points again one at a time).

    The jets map an (N, n) array of points and an ``order`` of 1, 2 (the
    default) or 3 to (V, D), (V, D, H) or (V, D, H, K), with V[c, t] the
    value of entry t at point c, D[c, i, t] its i-th partial, H[c, i, j, t]
    its (i, j) second partial and K[c, i, j, k, t] its (i, j, k) third
    partial.  Each operator's rule gives every order (``_jet``): order 1
    builds no Hessian and no order below 3 any third partial, and each
    partial is the same bit for bit at every order that has it.  Each
    distinct subexpression is evaluated once, with numpy over the whole
    stack, and each distinct entry's columns are filled once, then copied
    to the entries that repeat it with one ``take`` per order.  The values are numpy's, so they may differ from the walked
    ones in the last bit; evaluate the entries with those first, since a
    jet assumes their values are finite.  A '^' or pow whose exponent
    depends on a coordinate takes the rule of exp(b log|a|).  A derivative
    that is not finite where the value is, such as that of ``(x1^2)^0.5``
    at x1 = 0 or of ``x1^x2`` at x1 = 0, raises EvaluationError naming the
    first node where it fails, and numpy warns of nothing.  A '/', '^' or
    Call whose operands are all constants gets the checks of the walk, which
    a jets call may be the first to make: a Python arithmetic error, or a
    complex or non-finite value, raises EvaluationError naming the first
    node that fails, and a constant zero divisor the walk's message.
    """
    em, results = _program(entries, names)
    evaluate = _evaluator(em, results)
    # each step that makes a value, with whether its value is to be checked:
    # that of a '/', '^' or Call whose operands are all constants, which the
    # walk checks and a jets call may be the first to make
    constant, temporaries = set(em.constants), []
    for slot, key, node in em.steps:
        if slot is not None:
            if key[0] != "sym" and constant.issuperset(key[1:]):
                constant.add(slot)
            temporaries.append((slot, key, node, slot in constant and (key[0] in _IMPL or key[0] in "/^")))
    n, size = len(names), len(em.slots)
    em.nodes = em.slots = None  # a cached program keeps only what it reads
    unit = np.eye(n).reshape(n, 1, n, 1)  # unit[k] is e_k as a column of one point
    distinct = list(dict.fromkeys(results))
    column = {slot: u for u, slot in enumerate(distinct)}
    gather = np.array([column[slot] for slot in results], dtype=np.intp)

    def values(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != n:
            raise ValidationError(f"values take an (N, {n}) stack of points, got shape {X.shape}")
        return evaluate(X)

    def jets(X: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        X = np.asarray(X, dtype=float)
        N, U = len(X), len(distinct)
        jet: list = [None] * size
        for slot, value in em.constants.items():
            jet[slot] = (value, None, None, None)
        try:
            with np.errstate(all="ignore"):
                for slot, key, node, checked in temporaries:
                    jet[slot] = _jet(key, jet, X, unit, order)
                    if checked and (isinstance(jet[slot][0], complex) or not math.isfinite(jet[slot][0])):
                        _nonfinite(em, node)
        except _CAUGHT as exc:
            if key[0] == "/" and isinstance(exc, ZeroDivisionError):  # the walk's zero test of a constant divisor
                _zero_divisor(em, node)
            _caught(em, node, exc)
        out = [np.empty((N, U)), np.zeros((N, n, U))] + [np.zeros((N,) + (n,) * k + (U,)) for k in range(2, order + 1)]
        for u, slot in enumerate(distinct):
            v, d, H, K = jet[slot]
            out[0][:, u] = np.reshape(v, -1)
            if d is not None:
                out[1][:, :, u] = d[:, :, 0]
            if H is not None:
                out[2][..., u] = H
            if K is not None:
                out[3][..., u] = K
        if not all(np.isfinite(A).all() for A in out[1:]):
            for slot, _, node, _ in temporaries:
                if not all(t is None or np.isfinite(t).all() for t in jet[slot]):
                    raise EvaluationError(f"non-finite derivative from {_text(em, node)!r}")
        return tuple(A.take(gather, axis=-1) for A in out)

    return values, jets
