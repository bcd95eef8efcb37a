"""Every function in src/paraquat is reached by the product path, or is
listed here with the reason it stays.

The product path is ``paraquat-verify``: ``run`` of each catalog scenario at
seeds 7 and 1, ``catalog``, and ``explain`` of every check.  They run in a
fresh interpreter under ``sys.setprofile`` from before ``import
paraquat.cli``, since this process has run everything already.  A new
function has to be reached there, or be listed in ``UNREACHED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import paraquat

SRC = Path(paraquat.__file__).resolve().parents[1]

# the functions the product path never enters, each with why it stays
UNREACHED = {
    "__init__.__dir__": "library API: dir(paraquat) lists the lazy layers' names",
    "__init__.__getattr__": "library API in README: a lazy layer's name read from the package root",
    "algebra.LocalBasisTriple.matrices": "patched by name by perfbench/tracer.py (ROADMAP item 13)",
    "algebra.stacked_triple.member.jets": "library API: one member of a stacked triple differentiated alone",
    "catalog._metric_euclidean4": "catalog name that no shipped scenario uses; CI and test documents do",
    "catalog._triple_product8_fiber_rotated": "catalog name that no shipped scenario uses; tests do",
    "connection.MetricField.matrix": "patched by name by perfbench/tracer.py (ROADMAP item 13)",
    "connection.covariant_derivative_11": "library API in README (ROADMAP item 13)",
    "connection.curvature_operator": "library API (ROADMAP item 13)",
    "errors.ExprSyntaxError.__init__": "error path: a syntax error in an expression",
    "exprlang._caught": "error path: an expression that cannot be evaluated",
    "exprlang._log_abs": "jet rule reached only by the CI documents and tests: a coordinate in an exponent",
    "exprlang._nonfinite": "error path: an expression with a non-finite value",
    "exprlang._operand": "error path: the printer of an expression's node",
    "exprlang._power": "jet rule reached only by the CI documents and tests: a constant exponent",
    "exprlang._sub": "jet rule reached only by the CI documents and tests: '-' and '/' of varying operands",
    "exprlang._syntax_error": "error path: a syntax error in an expression",
    "exprlang._text": "error path: the printer of an expression's node",
    "exprlang._zero_divisor": "error path: a zero divisor",
    "fields.ManifoldSpec.__str__": "error path: a message naming a chart",
    "fields.Point.__repr__": "error path: a message naming a point",
    "fields.Point.shifted": "library API used by tests/fd_reference.py (ROADMAP item 21)",
    "fields._check_chart": "error path: a point on another chart",
    "sasaki.SasakiBundle.point": "library API in README",
    "sasaki.lift": "library API used by tests (ROADMAP item 21)",
    "structures.ProductReport.max_residual": "library API that no runner reads (ROADMAP item 21)",
}

NEVER_ENTERED = """
import ast, contextlib, importlib.util, io, json, os, sys
from pathlib import Path

root = Path(importlib.util.find_spec("paraquat").submodule_search_locations[0])
defined = {}  # (file, first line) -> module.qualified.name of each def


def visit(node, path, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            defined[(os.path.realpath(path), first)] = f"{path.stem}.{prefix}{child.name}"
            visit(child, path, f"{prefix}{child.name}.")
        else:
            visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)


for path in sorted(root.glob("*.py")):
    visit(ast.parse(path.read_text()), path, "")
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import paraquat.cli
from paraquat.catalog import scenario_names
from paraquat.scenario import CHECKS

with contextlib.redirect_stdout(io.StringIO()):
    codes = [paraquat.cli.main(["run", name, "--seed", seed]) for name in scenario_names() for seed in ("7", "1")]
    codes += [paraquat.cli.main(["catalog"])] + [paraquat.cli.main(["explain", check]) for check in CHECKS]
sys.setprofile(None)
entered = {(os.path.realpath(f), line) for f, line in entered}
print(json.dumps({"codes": codes, "never": sorted(name for key, name in defined.items() if key not in entered)}))
"""


def test_every_function_is_reached_by_the_product_path_or_listed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", NEVER_ENTERED], env=env, capture_output=True, text=True, check=True
    ).stdout
    got = json.loads(out)
    assert set(got["codes"]) == {0}
    never = set(got["never"])
    assert sorted(never - set(UNREACHED)) == [], "never entered and not listed in UNREACHED"
    assert sorted(set(UNREACHED) - never) == [], "listed in UNREACHED but entered: take it off the list"
