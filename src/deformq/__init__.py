"""Deformation quantization engine: exact star products on polynomial
Poisson structures, Kontsevich graph weights by Monte-Carlo integration,
and the algebraic identity suites tying them together.

The package namespace is lazy (PEP 562): `from deformq import name` imports
only the submodule that defines `name`, on first use.  Importing
`deformq.cli` or any other submodule therefore loads neither the unused
submodules (`linsymp`) nor numpy, which only the Monte-Carlo weight code
needs.  A warm `star` or `check assoc` loads `cli`, `graphs`, `polyalg`,
`operators`, `starprod`, `table` and `record`: not the Monte-Carlo code
(`weights`), the closed forms (`closedform`) or the randomised suites
(`suites`).
"""

import importlib

_SUBMODULES = {
    "closedform": (
        "GaugeOperator",
        "gauge_inverse",
        "gauge_transform",
        "moyal",
        "moyal_series",
        "moyal_via_wick",
        "wick_pairings",
    ),
    "graphs": (
        "AdmissibleGraph",
        "boundary",
        "canonical_id",
        "enumerate_graphs",
        "is_admissible",
        "parse_id",
    ),
    "linsymp": (
        "LinearDirac",
        "SkewForm",
        "Subspace",
        "classify_subspace",
        "dirac_from_pair",
        "dirac_to_pair",
        "restrict_dirac",
        "standard_form",
        "symplectic_orthogonal",
    ),
    "operators": (
        "MultiDiffOp",
        "apply_op",
        "build_b_gamma",
        "compose_gerstenhaber",
        "gerstenhaber_bracket",
        "hkr",
        "hochschild_d",
    ),
    "polyalg": (
        "FormalSeries",
        "Polynomial",
        "PolyVector",
        "format_polynomial",
        "jacobiator",
        "parse_polynomial",
        "poisson_bracket",
        "schouten",
    ),
    "starprod": (
        "StarSeries",
        "associator",
        "first_order_antisym",
        "kontsevich_star",
        "kontsevich_star_series",
        "operator_associator",
    ),
    "table": ("WeightTable",),
    "weights": (
        "WeightEstimate",
        "angle",
        "build_weight_table",
        "snap",
        "weight_mc",
    ),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
