"""Workload inputs, the known-answer table and the verdict classifier.

Every workload is a list of ``Input``s: a scenario argument for
``paraquat-verify run`` (a catalog name or a generated JSON file), the
``--seed`` to pass with it, and the pass/fail outcome each of its check
entries must have.  The answers are written down from the scenario
descriptions and, for the generated sweep, from theory; they are never read
back from the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

P, F = True, False

# Expected outcome of every check entry of every shipped scenario, in file
# order, taken from the scenario descriptions.
KNOWN_ANSWERS: dict[str, tuple[bool, ...]] = {
    "flat-lhpk": (P, P, P, P, P),
    "flat-pqk-rotated": (P, P, P, P, P),
    "conformal-nonflat": (P, P, P, P),
    "product-8d": (P, P, P, P, P, P),
    "product-submersion-rotated": (P, P, P, P, P, P, P),
    "sasaki-over-flat": (P, P, P, P, P, P, P, P, P, P),
    "sasaki-over-rotated": (P, P, P, P, P, P),
    # the lift stays algebraic and its connection matches the closed form, but
    # base curvature breaks classification, the 1-form fit and flatness
    "sasaki-over-conformal": (P, P, P, P, F, F, F),
}

CATALOG_BASE = (
    "flat-lhpk",
    "flat-pqk-rotated",
    "conformal-nonflat",
    "product-8d",
    "product-submersion-rotated",
)
CATALOG_BUNDLE = ("sasaki-over-flat", "sasaki-over-rotated", "sasaki-over-conformal")

WORKLOADS = ("catalog-base", "catalog-bundle", "expr-sweep")

SWEEP_SIZE = 12
SWEEP_CHECKS = (
    {"check": "triple-algebra", "tol": 1e-12},
    {"check": "hermitian", "tol": 1e-10},
    {"check": "classify", "expected": "PQK", "tol": 1e-6},
    {"check": "kahler-fit", "tol": 1e-6},
    {"check": "flatness", "expect_flat": False, "threshold": 1e-2},
)
# In dimension 4 the Levi-Civita connection of any metric conformal to the
# neutral one preserves the bundle spanned by a g-skew triple of the
# standard4/rotated4 kind (it is one of the two halves of the 2-forms, and
# conformal changes keep the Hodge star on 2-forms).  So every generated
# scenario is an algebra triple, hermitian, PQK as soon as df never vanishes,
# fits its 1-forms, and is curved: for distinct i, j, k the curvature of
# e^{2f} eta has |R^k_{ikj}| = |Hess_ij f - f_i f_j|, and the generator keeps
# |f_i| >= 0.35 and the off-diagonal |Hess_ij f| <= 0.05, so |R| >= 0.07
# clears the 1e-2 flatness threshold sevenfold.
SWEEP_ANSWER = (P, P, P, P, P)


@dataclass(frozen=True)
class Input:
    """One scenario run: the CLI's scenario argument, its seed and answers."""

    name: str
    scenario: str
    seed: int
    expected: tuple[bool, ...]


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def conformal_factor(rng: random.Random) -> str:
    """f = c0 + a.x + b sin(c x_i) cos(d x_j), with |a_k| in [0.4, 0.6],
    |b| <= 0.05 and c, d in [0.5, 1]: |f_k| >= 0.35 and, off the diagonal,
    |Hess_kl f| <= |b| c d <= 0.05."""
    c0 = rng.uniform(-0.2, 0.2)
    a = [_signed(rng, 0.4, 0.6) for _ in range(4)]
    b = _signed(rng, 0.02, 0.05)
    c, d = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    i, j = rng.randrange(1, 5), rng.randrange(1, 5)
    terms = [f"{c0:.4f}"] + [f"({ak:.4f})*x{k + 1}" for k, ak in enumerate(a)]
    terms.append(f"({b:.4f})*sin({c:.4f}*x{i})*cos({d:.4f}*x{j})")
    return " + ".join(terms)


def sweep_scenarios(seed: int) -> list[dict]:
    """The expr-sweep scenarios for one benchmark seed."""
    rng = random.Random(seed)
    out = []
    for k in range(SWEEP_SIZE):
        f = conformal_factor(rng)
        plus, minus = f"exp(2*({f}))", f"-exp(2*({f}))"
        diag = (plus, plus, minus, minus)
        matrix = [[diag[r] if r == c else "0" for c in range(4)] for r in range(4)]
        out.append(
            {
                "name": f"sweep-{seed}-{k:02d}",
                "description": f"e^(2f) diag(1,1,-1,-1) with f = {f}",
                "expect": "pass",
                "seed": rng.randrange(1 << 16),
                "points": 4,
                "geometry": {
                    "dim": 4,
                    "metric": {"matrix": matrix},
                    "triple": "standard4" if k % 2 == 0 else "rotated4",
                },
                "checks": [dict(c) for c in SWEEP_CHECKS],
            }
        )
    return out


def prepare(workload: str, seed: int, workdir: Path) -> list[Input]:
    """Inputs of one pass of ``workload``; the sweep is written to ``workdir``."""
    if workload in ("catalog-base", "catalog-bundle"):
        names = CATALOG_BASE if workload == "catalog-base" else CATALOG_BUNDLE
        return [Input(n, n, seed, KNOWN_ANSWERS[n]) for n in names]
    if workload == "expr-sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for sc in sweep_scenarios(seed):
            path = workdir / f"{sc['name']}.json"
            path.write_text(json.dumps(sc, indent=1))
            inputs.append(Input(sc["name"], str(path), sc["seed"], SWEEP_ANSWER))
        return inputs
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def verdict_problems(inp: Input, exit_code: int, report: dict) -> list[str]:
    """Why a scenario run disagrees with its known answer; empty when it agrees.

    A check whose data holds an ``error`` is a problem even where the answer
    is a failure: an error is never the right reason to fail.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    checks = report.get("checks", [])
    if len(checks) != len(inp.expected):
        problems.append(f"{len(checks)} checks, expected {len(inp.expected)}")
    for k, (c, want) in enumerate(zip(checks, inp.expected)):
        if "error" in c.get("data", {}):
            problems.append(f"check {k} ({c['name']}) raised {c['data']['error']}")
        elif c["passed"] != want:
            problems.append(f"check {k} ({c['name']}) passed={c['passed']}, expected {want}")
    if report.get("final") is not True:
        problems.append("final verdict is not pass")
    return problems
