"""Compare every pinned report of this checkout with another checkout's.

The pinned runs are those of ``tools/pinned_reports.py``.  Each report is
computed in a fresh interpreter from the sources of its own checkout, and
the two are compared as JSON::

    python3 tools/pinned_diff.py <other checkout>

Every value that differs is printed on one line with its run, its path
in the report, both values and, for two floats, |delta|.  The exit status
is 1 if the two checkouts pin different runs, if anything but a float
changed (a verdict, a key, a string, an integer, a list's length), or if
a float moved by more than 1e-13 * max(1, |v|), v the other checkout's
value; otherwise 0.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from pinned_reports import CATALOG_SEEDS, SWEEP_BASES, TIMESTAMP  # noqa: E402

RELATIVE = 1e-13

# one JSON line [run, report] per pinned run, from the checkout given as argv[1]
DUMP = f"""
import json, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from paraquat.catalog import scenario_names
from paraquat.scenario import run_scenario
from workloads import prepare
with tempfile.TemporaryDirectory() as tmp:
    runs = [(name, seed) for name in scenario_names() for seed in {CATALOG_SEEDS!r}]
    for base in {SWEEP_BASES!r}:
        runs += [(inp.scenario, inp.seed) for inp in prepare("expr-sweep", base, Path(tmp) / str(base))]
    for source, seed in runs:
        report = run_scenario(source, seed=seed, timestamp={TIMESTAMP!r})
        print(json.dumps([f"{{report.scenario}}@{{report.environment['seed']}}", json.loads(report.to_json())]))
"""


def reports(checkout: Path) -> list[tuple[str, object]]:
    out = subprocess.run([sys.executable, "-c", DUMP, str(checkout)], check=True, capture_output=True, text=True).stdout
    return [tuple(json.loads(line)) for line in out.splitlines()]


def differences(old, new, path: str = ""):
    """(path, old, new, is_float) for each leaf where old and new differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            yield path, sorted(old), sorted(new), False
            return
        for key in old:
            yield from differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{k}]")
    elif isinstance(old, float) and isinstance(new, float):
        if not (old == new or (math.isnan(old) and math.isnan(new))):
            yield path, old, new, True
    elif type(old) is not type(new) or old != new:
        yield path, old, new, False


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/pinned_diff.py <other checkout>", file=sys.stderr)
        return 2
    old, new = reports(Path(sys.argv[1])), reports(ROOT)
    if [run for run, _ in old] != [run for run, _ in new]:
        print("the two checkouts pin different runs")
        return 1
    status = 0
    for (run, a), (_, b) in zip(old, new):
        for path, x, y, is_float in differences(a, b):
            if is_float:
                delta = abs(y - x)
                within = delta <= RELATIVE * max(1.0, abs(x))
                print(f"{run} {path}: {x!r} -> {y!r}  |delta| = {delta:.3e}{'' if within else '  OUT OF BOUND'}")
            else:
                within = False
                print(f"{run} {path}: {x!r} -> {y!r}  NOT A FLOAT")
            status = status or int(not within)
    return status


if __name__ == "__main__":
    sys.exit(main())
