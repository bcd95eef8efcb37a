"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import run
from tracer import Tracer
from workloads import (
    CATALOG_BASE,
    CATALOG_BUNDLE,
    KNOWN_ANSWERS,
    WORKLOADS,
    prepare,
    sweep_scenarios,
    verdict_problems,
)

cli = run.import_paraquat()

from paraquat import connection, sasaki, scenario, submersion  # noqa: E402
from paraquat.catalog import load_catalog_scenario, scenario_names  # noqa: E402


def test_sweep_generator_is_deterministic_per_seed(tmp_path):
    assert sweep_scenarios(3) == sweep_scenarios(3)
    assert sweep_scenarios(3) != sweep_scenarios(4)
    first, again = (
        [Path(i.scenario).read_bytes() for i in prepare("expr-sweep", 3, tmp_path / d)]
        for d in "ab"
    )
    assert first == again


def test_known_answers_cover_every_shipped_scenario_and_check():
    shipped = scenario_names()
    assert sorted(KNOWN_ANSWERS) == shipped
    assert sorted(CATALOG_BASE + CATALOG_BUNDLE) == shipped
    for name in shipped:
        checks = load_catalog_scenario(name)["checks"]
        assert len(KNOWN_ANSWERS[name]) == len(checks), name


def test_traced_passes_count_identically_and_leave_reports_unchanged(tmp_path):
    loop = run.Loop(cli, prepare("catalog-base", 0, tmp_path), tmp_path / "report.json")
    loop.run_pass()  # untraced reference reports
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            counts.append(loop.run_pass(tracer).totals.calls)
        finally:
            tracer.restore()
    assert loop.failed == []
    assert counts[0] == counts[1]
    assert counts[0]["connection.christoffel"] > 0
    assert counts[0]["scenario.check.parallel-witness"] == 2  # one per scenario using it


def test_tracer_rebinds_imported_names_and_restores_them():
    original = connection.christoffel
    check = scenario.CHECKS["classify"]
    tracer = Tracer()
    tracer.install()
    try:
        assert connection.christoffel is not original
        assert sasaki.christoffel is connection.christoffel
        assert submersion.christoffel is connection.christoffel
        assert scenario.CHECKS["classify"].runner is not check.runner
    finally:
        tracer.restore()
    assert connection.christoffel is original
    assert sasaki.christoffel is original and submersion.christoffel is original
    assert scenario.CHECKS["classify"] is check
    assert sorted(run.CHECK_NAMES) == sorted(scenario.CHECKS)  # one per-layer metric each


def test_errors_never_count_as_expected_failures(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["run", "sasaki-over-conformal", "--step", "5e-2", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and report["final"] is True  # the program calls this a pass
    inp = prepare("catalog-bundle", 0, tmp_path)[2]
    assert inp.name == "sasaki-over-conformal"
    problems = verdict_problems(inp, code, report)
    assert problems and all("raised" in p for p in problems)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"] == "higher") for m in spec["per_layer"]} == run.PER_LAYER


def test_generated_sweep_meets_its_theoretical_answers(tmp_path):
    loop = run.Loop(cli, prepare("expr-sweep", 1, tmp_path / "inputs"), tmp_path / "report.json")
    loop.run_pass()
    assert loop.failed == []
