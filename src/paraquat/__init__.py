"""Numerical verification of paraquaternionic structures on neutral charts.

The package builds metrics, basis triples and maps as plain component
callables on coordinate boxes, differentiates them through their exact
jets, and checks the defining identities at deterministic sample
points: the tau-algebra of a triple, compatibility with a metric, the
span-parallel ("PQK") condition and its connection 1-forms, almost product
structures, semi-Riemannian submersions with their fundamental tensors, and
the lifted geometry on a tangent bundle.  ``paraquat.scenario`` bundles the
checks into JSON-driven scenarios; the ``paraquat-verify`` script runs them.

``submersion`` and ``sasaki`` are loaded on first use: by the first geometry
or check that needs them, or by the first read of one of their names here
(module ``__getattr__``), so a base-chart or expression run never imports
them.  Every other layer loads with the package.
"""

from importlib import import_module

from ._version import __version__
from .algebra import (
    CYCLIC,
    TAU,
    AlgebraReport,
    LocalBasisTriple,
    TransitionMap,
    apply_transition,
    check_triple_algebra,
)
from .connection import (
    MetricField,
    christoffel,
    covariant_derivative_11,
    curvature_operator,
    riemann,
)
from .errors import (
    DegenerateFiberMetricError,
    DegenerateMetricError,
    EmptyDomainError,
    EvaluationError,
    ExprSyntaxError,
    IllConditionedError,
    NotAFiberError,
    OutOfDomainError,
    ParaquatError,
    ParseError,
    PreconditionFailedError,
    RankDeficientError,
    ShapeError,
    SingularTransitionError,
    UnknownSymbolError,
    ValidationError,
)
from .exprlang import parse_expr, print_expr
from .fields import (
    ManifoldSpec,
    Point,
    TensorField,
    constant_field,
    eval_batch,
    sample_points,
)
from .scenario import (
    CHECKS,
    VerificationReport,
    build_context,
    load_scenario,
    run_scenario,
)
from .structures import (
    KahlerFit,
    ProductStructureField,
    StructureClass,
    StructureVerdict,
    check_hermitian,
    check_parallel_equivalence,
    check_product_structure,
    check_sigma_invariant_operator,
    classify_structure,
    fit_kahler_oneforms,
)

# the names of the layers loaded on first use, read through __getattr__
_LAZY = {
    **dict.fromkeys(
        (
            "ONeillTensors",
            "SubmersionMap",
            "check_paraholomorphic",
            "check_semi_riemannian",
            "check_vh_invariance",
            "descend_one_forms",
            "jacobian",
            "oneill_tensors",
            "vh_split",
        ),
        "submersion",
    ),
    **dict.fromkeys(
        (
            "BracketReport",
            "SasakiBundle",
            "build_tangent_bundle",
            "check_bracket",
            "check_connection_oracle",
            "check_nabla_j_oracle",
            "lift",
            "oracle_tilde_nabla",
            "oracle_tilde_nabla_J",
            "tangent_bundle_chart",
        ),
        "sasaki",
    ),
}


def __getattr__(name: str):
    # not stored in the package: each read sees the module's current attribute
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AlgebraReport",
    "BracketReport",
    "CHECKS",
    "CYCLIC",
    "DegenerateFiberMetricError",
    "DegenerateMetricError",
    "EmptyDomainError",
    "EvaluationError",
    "ExprSyntaxError",
    "IllConditionedError",
    "KahlerFit",
    "LocalBasisTriple",
    "ManifoldSpec",
    "MetricField",
    "NotAFiberError",
    "ONeillTensors",
    "OutOfDomainError",
    "ParaquatError",
    "ParseError",
    "Point",
    "PreconditionFailedError",
    "ProductStructureField",
    "RankDeficientError",
    "SasakiBundle",
    "ShapeError",
    "SingularTransitionError",
    "StructureClass",
    "StructureVerdict",
    "SubmersionMap",
    "TAU",
    "TensorField",
    "TransitionMap",
    "UnknownSymbolError",
    "ValidationError",
    "VerificationReport",
    "__version__",
    "apply_transition",
    "build_context",
    "build_tangent_bundle",
    "check_bracket",
    "check_connection_oracle",
    "check_hermitian",
    "check_nabla_j_oracle",
    "check_paraholomorphic",
    "check_parallel_equivalence",
    "check_product_structure",
    "check_semi_riemannian",
    "check_sigma_invariant_operator",
    "check_triple_algebra",
    "check_vh_invariance",
    "christoffel",
    "classify_structure",
    "constant_field",
    "covariant_derivative_11",
    "curvature_operator",
    "descend_one_forms",
    "eval_batch",
    "fit_kahler_oneforms",
    "jacobian",
    "lift",
    "load_scenario",
    "oneill_tensors",
    "oracle_tilde_nabla",
    "oracle_tilde_nabla_J",
    "parse_expr",
    "print_expr",
    "riemann",
    "run_scenario",
    "sample_points",
    "tangent_bundle_chart",
    "vh_split",
]
