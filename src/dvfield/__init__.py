"""Exact arithmetic on discretely valued fields: p-adic numbers Q_p and
formal Laurent series F_q((T)), with certified root solving, the p-adic
exponential and logarithm, and Haar/Hausdorff measure on ball families.

Submodules load on first use: `import dvfield` imports none of them, and
reading a name below (`dvfield.FieldElement`, `dvfield.rootfind`, ...)
imports the submodule that defines it, then keeps the name in the package
namespace (PEP 562).  So a program, or a `dvfield` command, compiles and
runs only the modules it uses.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AllCoefficientsIndistinguishableFromZero",
        "ContractionFails",
        "DerivativeIndistinguishableFromZero",
        "DivisionByIndistinguishableZero",
        "DomainError",
        "HypothesesFail",
        "InsufficientPrecision",
        "ParseError",
        "PrecisionExhausted",
        "TailInconclusive",
        "UltrametricError",
        "UndecidedMultipleRoot",
    ),
    "localfield": (
        "FieldDescriptor",
        "FieldElement",
        "FieldKind",
        "Qp",
        "invert_one_minus",
        "laurent_field",
        "laurent_invert",
    ),
    "measure": (
        "BallFamily",
        "BallRelation",
        "BallSpec",
        "ContentEstimate",
        "DigitSetReport",
        "DimensionValue",
        "RationalMeasure",
        "admissible_ball",
        "ball_relation",
        "digit_set_analysis",
        "haar_union_measure",
        "hausdorff_alpha",
        "image_measure",
        "maximal_disjointify",
        "scale_family",
    ),
    "rootfind": (
        "HenselProblem",
        "HypothesisReport",
        "RootCertificate",
        "StrassmannReport",
        "check_hypotheses",
        "enumerate_roots",
        "fixed_point_solve",
        "hensel_solve",
        "strassmann_bound",
    ),
    "series": ("TailProfile", "TruncatedSeries", "polynomial"),
    "special": ("e_min", "exp_eval", "exp_series", "log_solve"),
    "valuation": (
        "INFINITY",
        "Valuation",
        "factorial_valuation",
        "is_infinite",
        "is_prime",
        "vp",
    ),
    "arith": (),        # the digit kernels under localfield; no names of its own
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_EXPORTS])


def _resolve(name: str):
    """The object `dvfield.<name>` stands for, read from its submodule now."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __getattr__(name: str):
    value = globals()[name] = _resolve(name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
