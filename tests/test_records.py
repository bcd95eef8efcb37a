"""The package's records: which classes stay dataclasses, the field order
of those that are NamedTuples, and reports that stay JSON-native."""

import dataclasses
import inspect
import json
import sys

import numpy as np
import pytest

from paraquat import algebra, connection, fields, run_scenario, sasaki, structures, submersion
from paraquat.catalog import scenario_names

# the classes that keep @dataclass: __post_init__ validation, frozen
# coordinates or a cached hash; a default_factory memo; compare=False
# callables; or a dataclasses.replace by a caller
DATACLASSES = {
    "ManifoldSpec", "Point", "TensorField", "ProductStructureField",
    "LocalBasisTriple", "MetricField", "SubmersionMap",
    "TransitionMap", "SasakiBundle",
    "CheckDef",
}

# every other record is a NamedTuple, with these fields in this order
RECORDS = {
    "algebra.AlgebraReport": ("square_residual", "product_residual", "anticommute_residual", "gram_det"),
    "structures.KahlerFit": ("omega", "residual", "nabla_max"),
    "structures.StructureVerdict": ("cls", "hermitian_max", "nabla_max", "fit_residual_max"),
    "structures.ProductReport": ("involution_residual", "metric_residual", "nijenhuis_residual", "parallel_residual"),
    "structures.EquivalenceReport": ("parallel_residual", "nijenhuis_residual", "mixed_residual", "flags"),
    "submersion.VhInvarianceReport": ("v_residual", "h_residual"),
    "submersion.ONeillTensors": ("a_full", "t_full", "a_horizontal"),
    "submersion.DescentReport": ("image", "omega_base", "constancy_residual", "fit_residual_max"),
    "sasaki.BracketReport": ("vv_residual", "hv_residual", "hh_residual", "hh_flipped_residual"),
    "scenario.CheckResult": ("name", "anchor", "passed", "data", "note"),
    "scenario.VerificationReport": (
        "scenario", "description", "expect", "environment", "generated_at", "checks", "overall", "final",
    ),
    "scenario.ScenarioContext": (
        "chart", "metric", "triple", "points", "step", "seed", "structures",
        "bundle", "submersion", "target_metric", "target_triple",
    ),
}


def test_only_the_listed_classes_are_dataclasses():
    # importing paraquat imports every module of the package
    found = {
        cls.__name__
        for name, mod in list(sys.modules.items())
        if name == "paraquat" or name.startswith("paraquat.")
        for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
    }
    assert found == DATACLASSES


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_records_are_tuples_with_their_fields_in_order(record):
    module, name = record.split(".")
    cls = getattr(sys.modules[f"paraquat.{module}"], name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == RECORDS[record]


def _tuples_in(value, path="data"):
    if isinstance(value, tuple):
        yield path
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _tuples_in(v, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _tuples_in(v, f"{path}[{k!r}]")


@pytest.mark.parametrize("seed", [7, 600])
@pytest.mark.parametrize("name", scenario_names())
def test_check_data_stays_json_native(name, seed):
    # a NamedTuple in a check's data would be written as a list without a
    # word, where a dataclass raised: no tuple may reach it at any depth
    for check in run_scenario(name, seed=seed).checks:
        assert json.loads(json.dumps(check.data)) == check.data, check.name
        assert list(_tuples_in(check.data)) == [], check.name


def test_no_memo_compute_returns_a_record(monkeypatch):
    # _memo_batch takes a tuple for a tuple of row stacks, so a NamedTuple
    # returned by a compute would be split into its fields as rows
    returned = set()
    real = fields._memo_batch

    def watched(memo, chart, kind, points, compute):
        def checked(qs):
            out = compute(qs)
            returned.add(type(out))
            return out

        return real(memo, chart, kind, points, checked)

    for module in (algebra, connection, fields, sasaki, structures, submersion):
        monkeypatch.setattr(module, "_memo_batch", watched)
    for name in scenario_names():
        assert run_scenario(name, seed=7).final
    assert returned == {np.ndarray, tuple}
