"""Print one ``name@seed sha256`` line for each pinned report.

The pinned reports are the shipped catalog scenarios, each at its own seed
and at 1, 7 and 600, and the 36 ``expr-sweep`` scenarios of the benchmark
bases 600, 601 and 7 at their own seeds: 68 lines, each report with the
timestamp pinned.  Two lines repeat, because the own seed of ``flat-lhpk``
is 1 and that of ``sasaki-over-rotated`` is 7.  The scenarios and the sweep
documents are read from the checkout this script sits in.  Two checkouts
give byte-identical reports when their outputs are equal::

    python3 tools/pinned_reports.py > before.txt    # in one checkout
    python3 tools/pinned_reports.py > after.txt     # in the other
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from paraquat.catalog import scenario_names  # noqa: E402
from paraquat.scenario import run_scenario  # noqa: E402
from workloads import prepare  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00Z"
CATALOG_SEEDS = (None, 1, 7, 600)  # None: the scenario's own seed
SWEEP_BASES = (600, 601, 7)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name, seed) for name in scenario_names() for seed in CATALOG_SEEDS]
        for base in SWEEP_BASES:
            runs += [(inp.scenario, inp.seed) for inp in prepare("expr-sweep", base, Path(tmp) / str(base))]
        for source, seed in runs:
            report = run_scenario(source, seed=seed, timestamp=TIMESTAMP)
            digest = hashlib.sha256(report.to_json().encode()).hexdigest()
            print(f"{report.scenario}@{report.environment['seed']} {digest}", flush=True)


if __name__ == "__main__":
    main()
