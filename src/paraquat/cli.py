"""Command-line front end.

``paraquat-verify run`` executes a scenario (a JSON file or a shipped catalog
name) and emits the report; ``catalog`` lists what ships with the package;
``explain`` prints the identity a named check verifies and the parameters its
check entry accepts.

Exit codes: 0 when the final verdict is pass, 1 when it is fail (or the
geometry itself fails a mathematical precondition), 2 for configuration and
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from .catalog import scenario_names
from .errors import EmptyDomainError, ParaquatError, ParseError, ValidationError
from .scenario import CHECKS, run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(
        args.scenario, seed=args.seed, step=args.step, points=args.points
    )
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        for c in report.checks:
            line = f"{'PASS' if c.passed else 'FAIL'}  {c.name}"
            if c.note:
                line += f"  ({c.note})"
            print(line)
        print(f"overall: {'pass' if report.overall else 'fail'}")
        print(f"final: {'pass' if report.final else 'fail'} (expected {report.expect})")
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report.final else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    for name in scenario_names():
        print(name)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    cdef = CHECKS.get(args.check)
    if cdef is None:
        raise ParseError(
            f"unknown check {args.check!r}; known: {', '.join(sorted(CHECKS))}"
        )
    print(cdef.name)
    print(f"  identity: {cdef.anchor}")
    print(f"  {cdef.description}")
    params = (
        f"{key} (required)" if default is inspect.Parameter.empty
        else f"{key} (optional)" if default is None
        else f"{key}={json.dumps(default)}"
        for key, default in cdef.params.items()
    )
    print(f"  parameters: {', '.join(params)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="paraquat-verify",
        description="Numerical verification of paraquaternionic structures on "
        "neutral-signature charts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or a catalog scenario")
    run.add_argument("scenario", help="path to a scenario JSON file, or a catalog name")
    run.add_argument("--out", help="write the JSON report to this file instead of stdout")
    run.add_argument("--seed", type=int, default=None, help="override the sample seed")
    run.add_argument("--step", type=float, default=None, help="override the step, which sets only the sampling margin: sampled points keep 10 steps from every wall")
    run.add_argument("--points", type=int, default=None, help="override the sample size")
    run.set_defaults(func=_cmd_run)

    cat = sub.add_parser("catalog", help="list the shipped scenarios")
    cat.set_defaults(func=_cmd_catalog)

    exp = sub.add_parser("explain", help="describe a check and the identity it verifies")
    exp.add_argument("check", help="a check name, as used in scenario files")
    exp.set_defaults(func=_cmd_explain)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, EmptyDomainError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParaquatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
