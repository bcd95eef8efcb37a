"""Time-to-verdict benchmark of ``paraquat-verify run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog-bundle --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: scenarios run one after the
other in this process through ``paraquat.cli.main(["run", ...])``, the next
one starting when the previous verdict is in.  One untimed pass writes the
reference reports; then whole passes repeat until ``--seconds`` is used up.
Every run is checked against its known answer and its report must be byte
for byte the reference (the report timestamp is pinned).  Times are wall
seconds scaled by the host's momentary speed (see ``hostspeed``); the
unscaled figures are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (calls, self and inclusive seconds per pass) and the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from hostspeed import ScaledClock  # noqa: E402
from tracer import KEYED, LAYERS, Totals, Tracer  # noqa: E402
from workloads import WORKLOADS, Input, prepare, verdict_problems  # noqa: E402

PINNED_TIMESTAMP = "2000-01-01T00:00:00Z"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CHECK_NAMES = (
    "triple-algebra", "hermitian", "classify", "kahler-fit", "flatness",
    "product-structure", "sigma-invariance", "parallel-equivalence",
    "semi-riemannian", "paraholomorphic", "vh-invariance", "oneill",
    "descend-oneforms", "bracket", "sasaki-consistency", "sasaki-nabla-j",
    "lifted-oneforms", "parallel-witness",
)
_CALLS = (
    "connection.christoffel", "connection.riemann", "connection.covariant_derivative_11",
    "connection.MetricField.matrix", "fields.eval_field", "fields.fd_partial",
    "sasaki.connection_shift", "sasaki.oracle_tilde_nabla", "exprlang.parse_expr",
    "exprlang.bound_eval", "structures.fit_kahler_oneforms",
    "algebra.LocalBasisTriple.matrices", "submersion.oneill_tensors", "submersion.jacobian",
) + tuple(f"scenario.check.{c}" for c in CHECK_NAMES)
_SELF = (
    "connection.christoffel", "connection.riemann", "connection.covariant_derivative_11",
    "connection.MetricField.matrix", "fields.eval_field", "exprlang.bound_eval",
    "structures.fit_kahler_oneforms", "submersion.oneill_tensors", "submersion.jacobian",
)
_INCL = (
    "sasaki.check_connection_oracle", "sasaki.check_bracket",
    "sasaki.check_structure_derivative_span", "catalog.metric_from_config",
    "catalog.triple_from_config", "scenario.build_context", "structures.classify_structure",
) + tuple(f"scenario.check.{c}" for c in CHECK_NAMES)

# per-layer metric -> (unit, whether higher is better); times are per pass
PER_LAYER: dict[str, tuple[str, bool]] = {
    **{f"{n}.calls": ("count", False) for n in _CALLS},
    **{f"{n}.self_s": ("s", False) for n in _SELF},
    **{f"{n}.incl_s": ("s", False) for n in _INCL},
    **{f"{n}.unique_ratio": ("ratio", True) for n in KEYED},
    "cli.report_write_s": ("s", False),
    **{f"layer.{layer}.self_s": ("s", False) for layer in LAYERS},
    "trace.overhead_s": ("s", False),
    "trace.overhead_frac": ("ratio", False),
}


def import_paraquat():
    """Import ``paraquat.cli`` from this checkout's ``src`` and pin the report
    timestamp, so that equal inputs give byte-identical reports."""
    if not (SRC / "paraquat" / "cli.py").is_file():
        raise SystemExit(f"error: no paraquat sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paraquat.cli as cli
    import paraquat.scenario as scenario

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: paraquat imported from {cli.__file__}, not {SRC}")
    if not getattr(cli.run_scenario, "pinned", False):

        def run_scenario(*args, **kwargs):
            return scenario.run_scenario(*args, timestamp=PINNED_TIMESTAMP, **kwargs)

        run_scenario.pinned = True
        cli.run_scenario = run_scenario
    return cli


def run_one(cli, inp: Input, out: Path) -> tuple[float, bytes | None, list[str]]:
    """One CLI call: seconds from the call to its exit code, the report bytes,
    and the problems found with its verdict."""
    out.unlink(missing_ok=True)
    argv = ["run", inp.scenario, "--seed", str(inp.seed), "--out", str(out)]
    sink = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # a run that raises is a failed run, not a crash
        return perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = perf_counter() - start
    if not out.is_file():
        return seconds, None, [f"exit code {code} and no report: {sink.getvalue().strip()}"]
    body = out.read_bytes()
    return seconds, body, verdict_problems(inp, code, json.loads(body))


@dataclass
class Pass:
    """One pass: raw and scaled verdict seconds, checks delivered and, when
    traced, the layer totals."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    checks: int = 0
    totals: Totals = field(default_factory=Totals)


class Loop:
    """Closed-loop passes over one workload's inputs, with verdict checks."""

    def __init__(self, cli, inputs: list[Input], out: Path):
        self.cli = cli
        self.inputs = inputs
        self.out = out
        self.reference: dict[str, bytes | None] = {}
        self.attempted = 0
        self.failed: list[str] = []
        self.clock = ScaledClock()

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        """Run every input once."""
        res = Pass()
        for inp in self.inputs:
            dt, body, problems = run_one(self.cli, inp, self.out)
            res.raw.append(dt)
            res.scaled.append(self.clock.scale(dt))
            if tracer is not None:
                res.totals.add(tracer.drain())
            if inp.name not in self.reference:
                self.reference[inp.name] = body
            elif body != self.reference[inp.name]:
                problems.append("report differs from the reference run")
            self.attempted += 1
            if problems:
                self.failed.append(f"{inp.name}: {'; '.join(problems)}")
            res.checks += len(json.loads(body)["checks"]) if body else 0
        return res


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median scaled and raw set-up seconds over fresh processes."""
    raw, scaled = [], []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(WORK / f"probe{k}")]
        out = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
        raw.append(out["raw"])
        scaled.append(out["scaled"])
    return statistics.median(scaled), statistics.median(raw)


def timed_passes(loop: Loop, budget: float, traced: bool) -> tuple[list[Pass], list[Pass], float]:
    """Repeat whole passes while another one is expected to fit in ``budget``
    seconds; with ``traced``, passes alternate untraced and traced.  Returns
    the untraced passes, the traced ones and the seconds measured."""
    tracer = Tracer() if traced else None
    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    start = perf_counter()
    n = 0
    while n < 2 or perf_counter() - start + (perf_counter() - start) / n <= budget:
        if traced and n % 2 == 1:
            tracer.install()
            try:
                traced_passes.append(loop.run_pass(tracer))
            finally:
                tracer.restore()
        else:
            untraced.append(loop.run_pass())
        n += 1
    return untraced, traced_passes, perf_counter() - start


def timing(seconds: list[float], checks: int) -> dict[str, float]:
    return {
        "verdict_s.p50": statistics.median(seconds),
        "verdict_s.p90": statistics.quantiles(seconds, n=10, method="inclusive")[8],
        "checks_per_s": checks / sum(seconds),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Medians over the traced passes; times are scaled by each pass's
    scaled-to-raw ratio."""

    def med(get) -> float:
        return statistics.median(get(p.totals) * sum(p.scaled) / sum(p.raw) for p in traced)

    out: dict[str, float] = {}
    for n in _CALLS:
        out[f"{n}.calls"] = statistics.median_low(p.totals.calls[n] for p in traced)
    for n in _SELF:
        out[f"{n}.self_s"] = med(lambda t: t.self_s[n])
    for n in _INCL:
        out[f"{n}.incl_s"] = med(lambda t: t.incl_s[n])
    for n in KEYED:
        out[f"{n}.unique_ratio"] = statistics.median(
            p.totals.distinct[n] / p.totals.calls[n] if p.totals.calls[n] else 0.0 for p in traced
        )
    out["cli.report_write_s"] = med(lambda t: t.incl_s["cli.main"] - t.incl_s["scenario.run_scenario"])
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = med(
            lambda t: sum(v for k, v in t.self_s.items() if k.split(".")[0] == layer)
        )
    base = statistics.median(sum(p.scaled) for p in untraced)
    overhead = statistics.median(sum(p.scaled) for p in traced) - base
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = overhead / base
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_paraquat()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        loop = Loop(cli, prepare(args.workload, args.seed, WORK / "inputs"), WORK / "report.json")
        loop.run_pass()  # untimed: lazy imports, and the reference reports
        untraced, traced, measured = timed_passes(loop, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in loop.failed:
        print(f"FAILED {problem}")
    n = sum(len(p.raw) for p in untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(loop.inputs)} scenarios per pass, "
          f"{n} untraced verdicts, {measured:.2f} s measured")
    if args.trace:
        metrics = {k: (v, PER_LAYER[k][0]) for k, v in per_layer(untraced, traced).items()}
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        checks = sum(p.checks for p in untraced)
        scaled = timing([x for p in untraced for x in p.scaled], checks)
        raw = timing([x for p in untraced for x in p.raw], checks)
        scaled["setup_s"], raw["setup_s"] = setup
        scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: (scaled[k], unit) for k, unit in END_TO_END.items()}
        for name, (value, unit) in metrics.items():
            extra = f"  (unscaled {raw[name]:.6g} {unit})" if name in raw else ""
            extra += f"  (n={n})" if name.startswith("verdict_s.") else ""
            print(f"{name} = {value:.6g} {unit}{extra}")
    result = {
        "correct": not loop.failed,
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
