"""Layer tracing of paraquat from outside the package.

``Tracer.install`` wraps the public functions of each layer module, rebinding
every module attribute that holds the same function object (modules import
each other's functions by name), plus ``MetricField.matrix``,
``LocalBasisTriple.matrices``, the callables ``bind_expr`` returns and the
runners in ``scenario.CHECKS``.  Each wrapped call records a span (name,
start, end, parent) and a count; ``restore`` puts every original back.

Spans are kept in memory for one request (one scenario run) and folded into
per-name totals by ``drain``: a span's self time is its duration minus the
durations of its child spans, and inclusive time counts only spans with no
enclosing span of the same name.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "fields",
    "connection",
    "algebra",
    "structures",
    "submersion",
    "sasaki",
    "exprlang",
    "catalog",
    "scenario",
    "cli",
)


def _point_key(args, kwargs, pin):
    """Key (object, coordinates, step) of a call taking (obj, p, cfg)."""
    obj = args[0]
    p = args[1] if len(args) > 1 else kwargs["p"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    pin[id(obj)] = obj  # keeps ids unique while the request's keys live
    return id(obj), p.coords.tobytes(), None if cfg is None else cfg.step


# distinct (object, point, step) keys are counted for these spans
KEYED = ("connection.christoffel", "fields.eval_field")


@dataclasses.dataclass
class Totals:
    """Per-name call counts, self and inclusive seconds, distinct keys."""

    calls: Counter = dataclasses.field(default_factory=Counter)
    self_s: Counter = dataclasses.field(default_factory=Counter)
    incl_s: Counter = dataclasses.field(default_factory=Counter)
    distinct: Counter = dataclasses.field(default_factory=Counter)

    def add(self, other: "Totals") -> None:
        for f in dataclasses.fields(self):
            getattr(self, f.name).update(getattr(other, f.name))


class Tracer:
    def __init__(self) -> None:
        self._spans: list = []
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self._pin: dict[int, object] = {}
        self._patches: list = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack
        keys = self._keys[name] if name in KEYED else None
        pin = self._pin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if keys is not None:
                keys.add(_point_key(args, kwargs, pin))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"paraquat.{layer}") for layer in LAYERS}
        package = [m for n, m in list(sys.modules.items()) if n == "paraquat" or n.startswith("paraquat.")]
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                inner = self._wrap_binder(obj) if name == "exprlang.bind_expr" else obj
                replacements[id(obj)] = self.wrap(name, inner)
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])

        metric_cls = modules["connection"].MetricField
        triple_cls = modules["algebra"].LocalBasisTriple
        self._set(metric_cls, "matrix", self.wrap("connection.MetricField.matrix", metric_cls.matrix))
        self._set(triple_cls, "matrices", self.wrap("algebra.LocalBasisTriple.matrices", triple_cls.matrices))

        checks = modules["scenario"].CHECKS
        for check, cdef in list(checks.items()):
            self._patches.append((checks, check, cdef))
            checks[check] = dataclasses.replace(
                cdef, runner=self.wrap(f"scenario.check.{check}", cdef.runner)
            )

    def _wrap_binder(self, bind_expr):
        @functools.wraps(bind_expr)
        def binder(*args, **kwargs):
            return self.wrap("exprlang.bound_eval", bind_expr(*args, **kwargs))

        return binder

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ---------------------------------------------------------- collecting

    def drain(self) -> Totals:
        """Fold the spans and keys recorded since the last drain."""
        if self._stack:
            raise RuntimeError("drain called inside an open span")
        spans = self._spans
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        out = Totals()
        outer_end: dict[str, float] = {}  # spans start in index order
        for (name, start, end, parent), covered in zip(spans, children):
            out.calls[name] += 1
            out.self_s[name] += end - start - covered
            if start >= outer_end.get(name, start):
                out.incl_s[name] += end - start
                outer_end[name] = end
        for name, keys in self._keys.items():
            out.distinct[name] += len(keys)
            keys.clear()
        spans.clear()
        self._pin.clear()
        return out
