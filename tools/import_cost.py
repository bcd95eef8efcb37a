"""Time importing ``paraquat.cli`` in fresh processes.

    python3 tools/import_cost.py [CHECKOUT] [--repeats N]

Each child process imports numpy, ``typing`` and ``dataclasses`` first,
untimed, as perfbench's setup probe does, and then times ``import
paraquat.cli`` from CHECKOUT/src (this checkout by default), with the part
of that import spent in dataclass processing (``dataclasses._process_class``)
and in NamedTuple creation (``typing.NamedTupleMeta.__new__``).

Bytecode lives under a temporary PYTHONPYCACHEPREFIX set only in the
children's environment, so the checkout's own ``__pycache__`` is neither
read nor written.  A first child writes the bytecode of everything it
imports there.  Cold children then find none for the package and write none
(PYTHONDONTWRITEBYTECODE), while the standard library and numpy stay cached;
warm children read the package's bytecode, which one more child wrote.

Prints the median over N children (default 9) of each time, in ms, with
the number of classes each mechanism made and, where the standard library
counts them (``dataclasses._create_fn``, up to Python 3.12), the functions
the dataclass decorator generated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, sys, time
import dataclasses, typing
import numpy

spent = {"dataclass": 0.0, "namedtuple": 0.0}
made = {"dataclass": 0, "namedtuple": 0, "generated": 0}

def timed(kind, fn):
    def inner(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[kind] += time.perf_counter() - start
            made[kind] += 1
    return inner

def counted(fn):
    def inner(*args, **kwargs):
        made["generated"] += 1
        return fn(*args, **kwargs)
    return inner

dataclasses._process_class = timed("dataclass", dataclasses._process_class)
typing.NamedTupleMeta.__new__ = staticmethod(timed("namedtuple", typing.NamedTupleMeta.__new__))
if hasattr(dataclasses, "_create_fn"):
    dataclasses._create_fn = counted(dataclasses._create_fn)
else:
    made["generated"] = None
start = time.perf_counter()
import paraquat.cli
total = time.perf_counter() - start
assert paraquat.cli.__file__.startswith(sys.argv[1]), paraquat.cli.__file__
print(json.dumps({"import": total, **spent, "made": made}))
"""


def child(src: Path, prefix: Path, write: bool) -> dict:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, "-c", CHILD, str(src)], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def summary(runs: list[dict]) -> dict:
    ms = lambda key: round(1e3 * statistics.median(r[key] for r in runs), 2)
    return {"import_ms": ms("import"), "dataclass_ms": ms("dataclass"), "namedtuple_ms": ms("namedtuple")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=ROOT, help="the checkout whose src is imported")
    ap.add_argument("--repeats", type=int, default=9, help="children per kind (default 9)")
    args = ap.parse_args()
    src = (args.checkout / "src").resolve()
    if not (src / "paraquat" / "cli.py").is_file():
        ap.error(f"no src/paraquat/cli.py under {args.checkout}")
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp)
        child(src, prefix, write=True)
        # the package's bytecode, where the prefix mirrors its source path
        shutil.rmtree(prefix.joinpath(*src.parts[1:], "paraquat"))
        cold = [child(src, prefix, write=False) for _ in range(args.repeats)]
        child(src, prefix, write=True)
        warm = [child(src, prefix, write=False) for _ in range(args.repeats)]
    made = warm[0]["made"]
    print(json.dumps({
        "checkout": str(args.checkout.resolve()),
        "python": platform.python_version(),
        "repeats": args.repeats,
        "cold": summary(cold),
        "warm": summary(warm),
        "dataclasses": made["dataclass"],
        "namedtuples": made["namedtuple"],
        "dataclass_functions": made["generated"],
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
