"""What start-up imports, and the package root's public names.

``submersion`` and ``sasaki`` load with the first geometry or check that
needs them.  Each boundary test runs in a fresh interpreter, since this
process has imported every layer already.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import paraquat
from paraquat import sasaki

from conftest import SPACE_FORM_ROWS

SRC = Path(paraquat.__file__).resolve().parents[1]
LAZY = ("paraquat.sasaki", "paraquat.submersion")

# the package root's 69 names, by the module that defines each
PUBLIC = {
    "_version": ("__version__",),
    "algebra": (
        "CYCLIC", "TAU", "AlgebraReport", "LocalBasisTriple", "TransitionMap", "apply_transition",
        "check_triple_algebra",
    ),
    "connection": ("MetricField", "christoffel", "covariant_derivative_11", "curvature_operator", "riemann"),
    "errors": (
        "DegenerateFiberMetricError", "DegenerateMetricError", "EmptyDomainError", "EvaluationError",
        "ExprSyntaxError", "IllConditionedError", "NotAFiberError", "OutOfDomainError", "ParaquatError",
        "ParseError", "PreconditionFailedError", "RankDeficientError", "ShapeError", "SingularTransitionError",
        "UnknownSymbolError", "ValidationError",
    ),
    "fields": ("ManifoldSpec", "Point", "TensorField", "constant_field", "eval_batch", "sample_points"),
    "sasaki": (
        "BracketReport", "SasakiBundle", "build_tangent_bundle", "check_bracket", "check_connection_oracle",
        "check_nabla_j_oracle", "lift", "oracle_tilde_nabla", "oracle_tilde_nabla_J", "tangent_bundle_chart",
    ),
    "scenario": ("CHECKS", "VerificationReport", "build_context", "load_scenario", "run_scenario"),
    "structures": (
        "KahlerFit", "ProductStructureField", "StructureClass", "StructureVerdict", "check_hermitian",
        "check_parallel_equivalence", "check_product_structure", "check_sigma_invariant_operator",
        "classify_structure", "fit_kahler_oneforms",
    ),
    "submersion": (
        "ONeillTensors", "SubmersionMap", "check_paraholomorphic", "check_semi_riemannian",
        "check_vh_invariance", "descend_one_forms", "jacobian", "oneill_tensors", "vh_split",
    ),
}

LOADED = """
import contextlib, io, json, sys
import paraquat.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [paraquat.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(m for m in sys.modules if m.startswith("paraquat"))}))
"""


def _fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True).stdout


def _loaded(*argvs: list[str]) -> tuple[list[int], set[str]]:
    """The exit codes of ``cli.main`` over ``argvs``, run in order in a fresh
    interpreter, and the lazy layers it ended with."""
    out = json.loads(_fresh(LOADED, json.dumps(argvs)))
    return out["codes"], set(LAZY) & set(out["modules"])


def test_importing_the_cli_loads_neither_lazy_layer():
    assert _loaded() == ([], set())


def test_base_and_expression_runs_list_and_explain_load_neither_lazy_layer(tmp_path):
    expr = tmp_path / "space-form.json"
    expr.write_text(json.dumps({
        "geometry": {"dim": 4, "metric": {"matrix": SPACE_FORM_ROWS}, "triple": "standard4"},
        "checks": [{"check": "flatness", "expect_flat": False}, {"check": "classify", "expected": "PQK"}],
    }))
    # a lifted check on a base geometry is rejected before any geometry is built
    lifted = tmp_path / "lifted-on-base.json"
    lifted.write_text(json.dumps({"geometry": {"dim": 4}, "checks": [{"check": "bracket"}]}))
    out = str(tmp_path / "r.json")
    codes, lazy = _loaded(
        ["run", "flat-lhpk", "--out", out], ["run", str(expr), "--out", out], ["catalog"],
        ["explain", "sasaki-consistency"], ["explain", "oneill"], ["run", str(lifted), "--out", out],
    )
    assert codes == [0, 0, 0, 0, 0, 2]
    assert lazy == set()


@pytest.mark.parametrize(
    "scenario, loads",
    [("product-submersion-rotated", {"paraquat.submersion"}), ("sasaki-over-flat", set(LAZY))],
)
def test_a_run_loads_the_layers_its_geometry_needs(scenario, loads, tmp_path):
    assert _loaded(["run", scenario, "--out", str(tmp_path / "r.json")]) == ([0], loads)


def test_package_root_keeps_its_69_names_each_from_its_module():
    expected = {name: module for module, names in PUBLIC.items() for name in names}
    assert len(expected) == 69
    assert sorted(paraquat.__all__) == sorted(expected)
    for name, module in expected.items():
        assert getattr(paraquat, name) is getattr(import_module(f"paraquat.{module}"), name), name
    assert set(paraquat.__all__) <= set(dir(paraquat))


def test_a_lazy_name_reads_its_module_attribute_each_time(monkeypatch):
    # nothing is stored in the package, so a rebinding and its restoring
    # (as a tracer does) both show through it
    assert "check_bracket" not in vars(paraquat)
    monkeypatch.setattr(sasaki, "check_bracket", len)
    assert paraquat.check_bracket is len
    monkeypatch.undo()
    assert paraquat.check_bracket is sasaki.check_bracket
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        paraquat.no_such_name


def test_star_import_binds_every_public_name():
    code = "from paraquat import *\nimport json, paraquat\nprint(json.dumps([n for n in paraquat.__all__ if n not in globals()]))"
    assert json.loads(_fresh(code)) == []
