"""dyafact: geometrically convergent dyadic factorial expansions for
special functions (Ei, Airy, Bessel-K, digamma, erfc, incomplete gamma)
with remainder-driven truncation planning, matrix-scale dyadic resolvent
identities, and an independent oracle suite."""

from .scalar import (
    CoefficientStream,
    DomainError,
    PoleError,
    factorial_series_eval,
    factorial_to_borel,
    ln_gamma,
    pochhammer,
    polylog,
)
from .dyadic import (
    CutProximityError,
    DyadicPlan,
    FactorialFamily,
    dyadic_cauchy_deriv_partial,
    dyadic_cauchy_partial,
    dyadic_reciprocal_levels,
    dyadic_reciprocal_partial,
    level_sums,
    plan_truncation,
    ramified_partial,
)
from .specfun import (
    EvalResult,
    ei_left,
    ei_left_family,
    ei_stokes,
    ei_stokes_family,
    erfc_dyadic,
    incomplete_gamma_dyadic,
    psi_dyadic,
    psi_family,
    psi_half_difference,
)
from .borel import (
    BorelKernel,
    CoefficientTable,
    airy_from_h,
    airy_h,
    bessel_h,
    bessel_k_dyadic,
    get_table,
)
from .operators import (
    HermitianOperator,
    OperatorSeriesReport,
    evolution,
    fractional_power_dyadic,
    inverse_dyadic,
    read_matrix_text,
    resolvent_double_sum,
    resolvent_dyadic,
    write_matrix_text,
)
from .oracle import verify_strange_identity

__version__ = "0.1.0"
