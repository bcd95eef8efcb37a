"""Set-up work of one benchmark run, in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIR

Times importing ``paraquat.cli`` from the checkout and preparing the
workload's inputs (the expr-sweep scenario files are written to DIR), and
prints {"raw": seconds, "scaled": seconds} as JSON.  numpy and the
benchmark's own modules are imported first and not timed: on the VM the
baseline was taken on, numpy's import alone took either about 0.10 s or about
0.21 s from one minute to the next, which would swamp the program's share.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import ScaledClock, reference_kernel
from run import import_paraquat
from workloads import prepare

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    reference_kernel()  # the first numpy calls of a process pay one-off costs
    clock = ScaledClock()
    start = perf_counter()
    import_paraquat()
    prepare(workload, seed, workdir)
    raw = perf_counter() - start
    print(json.dumps({"raw": raw, "scaled": clock.scale(raw)}))
