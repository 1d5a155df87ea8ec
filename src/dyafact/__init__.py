"""dyafact: geometrically convergent dyadic factorial expansions for
special functions (Ei, Airy, Bessel-K, digamma, erfc, incomplete gamma)
with remainder-driven truncation planning, matrix-scale dyadic resolvent
identities, and an independent oracle suite.

Importing the package loads none of its modules: each public name below
is resolved from its home module on first access (PEP 562) and then bound
here, so a caller pays only for the modules whose names it uses.  A home
module itself (``dyafact.oracle``) is likewise imported on first access.
"""

from importlib import import_module as _import_module

_HOMES = {
    "scalar": (
        "CoefficientStream",
        "DomainError",
        "PoleError",
        "factorial_series_eval",
        "factorial_to_borel",
        "polylog",
    ),
    "dyadic": (
        "CutProximityError",
        "DyadicPlan",
        "EvalResult",
        "FactorialFamily",
        "dyadic_cauchy_partial",
        "dyadic_reciprocal_levels",
        "dyadic_reciprocal_partial",
        "level_sums",
        "plan_truncation",
        "ramified_partial",
    ),
    "specfun": (
        "ei_left",
        "ei_left_family",
        "ei_stokes",
        "ei_stokes_family",
        "erfc_dyadic",
        "incomplete_gamma_dyadic",
        "psi_dyadic",
        "psi_family",
    ),
    "borel": (
        "BorelKernel",
        "CoefficientTable",
        "airy_from_h",
        "bessel_h",
        "bessel_k_dyadic",
        "get_table",
    ),
    "operators": (
        "HermitianOperator",
        "OperatorSeriesReport",
        "evolution",
        "fractional_power_dyadic",
        "inverse_dyadic",
        "read_matrix_text",
        "resolvent_dyadic",
        "write_matrix_text",
    ),
    "oracle": ("verify_strange_identity",),
}
# public name -> the module that defines it
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOMES:
        return _import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES) | set(_HOME))
