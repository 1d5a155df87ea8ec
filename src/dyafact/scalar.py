"""Scalar building blocks: complex log-gamma, rising factorials,
polylogarithms and plain (non-dyadic) factorial series.

Everything here is pure binary64 and has no dependency on the dyadic
machinery, so the higher modules can treat these as primitives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable


__all__ = [
    "DomainError",
    "PoleError",
    "NonconvergenceError",
    "QuadratureError",
    "ln_gamma",
    "pochhammer",
    "polylog",
    "CoefficientStream",
    "factorial_series_eval",
    "factorial_to_borel",
    "alternating_sum",
]


class DomainError(ValueError):
    """Argument outside the documented domain of an expansion."""


class PoleError(ZeroDivisionError):
    """Evaluation at (or too close to) a pole."""


class NonconvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class QuadratureError(RuntimeError):
    """Panel refinement failed to converge."""


# Stirling's series coefficients B_{2n}/(2n(2n-1)) for ln Gamma.
_LNGAMMA_ASYMP = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_LN_SQRT_TWO_PI = 0.9189385332046727418


def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    if z.imag != 0.0:
        return False
    r = round(z.real)
    return r <= 0 and z.real == r


def ln_gamma(z: complex) -> complex:
    """Principal branch of ln Gamma(z).

    Stirling's asymptotic series after shifting Re z above 12; the
    reflection formula covers the left half plane.  Accurate to well over
    13 significant digits for |z| between 0.5 and 1e6.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"ln_gamma pole at z = {z}")
    if z.imag < 0.0:
        return ln_gamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        # reflection with the analytic (unwound) log of sin:
        # sin(pi z) = e^{-i pi z} * i (1 - e^{2 pi i z}) / 2 for Im z >= 0,
        # which keeps the principal branch of ln Gamma across the left plane
        log_sin = (-1j * math.pi * z
                   + cmath.log(0.5j * (1.0 - cmath.exp(2j * math.pi * z))))
        return cmath.log(math.pi) - log_sin - ln_gamma(1.0 - z)
    shift = 0.0 + 0.0j
    while z.real < 12.0:
        shift += cmath.log(z)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    s = _LNGAMMA_ASYMP[-1]
    for c in reversed(_LNGAMMA_ASYMP[:-1]):
        s = s * w2 + c
    return (z - 0.5) * cmath.log(z) - z + _LN_SQRT_TWO_PI + s * w - shift


def pochhammer(x: complex, k: int) -> complex:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1).

    Direct product whenever it cannot overflow (k <= 64 at desk-scale
    |x|, keeping the functional identity (x)_{k+1} = (x)_k (x+k) exact to
    the last bit); the log-gamma ratio handles everything larger at
    ~1e-12 relative.  Returns exactly 0 when x is a nonpositive integer
    inside the product range, matching the product definition.
    """
    if k < 0:
        raise DomainError("pochhammer requires k >= 0")
    x = complex(x)
    if k == 0:
        return 1.0 + 0.0j
    if _is_nonpositive_integer(x) and -x.real < k:
        return 0.0 + 0.0j
    if k <= 64 and k * math.log10(abs(x) + k + 1.0) < 290.0:
        r = 1.0 + 0.0j
        for j in range(k):
            r *= x + j
        return r
    # exp of the log-gamma difference equals Gamma(x+k)/Gamma(x) regardless
    # of the branches picked by the two ln_gamma calls
    try:
        return cmath.exp(ln_gamma(x + k) - ln_gamma(x))
    except OverflowError:
        raise DomainError(f"pochhammer({x}, {k}) exceeds the binary64 range")


def alternating_sum(term: Callable[[int], complex], n_terms: int = 72) -> complex:
    """Sum_{j>=0} (-1)^j term(j) by iterated averaging of partial sums.

    The classical Euler-transform acceleration: each averaging stage
    roughly halves the error, so slowly decaying (or moderately growing)
    alternating tails converge to near machine precision.
    """
    partial = []
    s = 0.0 + 0.0j
    for j in range(n_terms):
        s += (1 if j % 2 == 0 else -1) * term(j)
        partial.append(s)
    row = partial
    best = row[-1]
    while len(row) > 1:
        row = [(a + b) / 2.0 for a, b in zip(row[:-1], row[1:])]
        best = row[-1]
    return best


_POLYLOG_EDGE = 1.0 - 1e-6


def polylog(s: float, z: complex, rel_tol: float = 1e-17) -> complex:
    """Polylogarithm Li_s(z) = sum_{k>=1} z^k / k^s.

    Direct series inside |z| <= 1 - 1e-6.  Real z in (-1, -(1-1e-6)] and
    the endpoint z = -1 are handled by accelerated alternating summation
    (orders s > -6).  Anything else is out of the supported domain.
    """
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if z.imag == 0.0 and -1.0 <= z.real <= -0.75:
        # slowly converging alternating tail: Euler acceleration instead
        if s <= -6:
            raise DomainError("polylog near z = -1 supported for s > -6 only")
        w = -z.real  # in (0.75, 1]
        return -alternating_sum(lambda j: w ** (j + 1) / (j + 1.0) ** s)
    if abs(z) <= _POLYLOG_EDGE:
        term = z
        total = z
        k = 1
        while True:
            k += 1
            term = term * z * ((k - 1.0) / k) ** s
            total += term
            if abs(term) <= rel_tol * abs(total) or k > 10_000_000:
                return total
    raise DomainError(f"polylog argument outside supported domain: z = {z}")


@dataclass
class CoefficientStream:
    """Deterministic stream of factorial-series coefficients c_0, c_1, ..."""

    coeff: Callable[[int], complex]
    _cache: list = field(default_factory=list, repr=False)

    def __call__(self, k: int) -> complex:
        while len(self._cache) <= k:
            self._cache.append(complex(self.coeff(len(self._cache))))
        return self._cache[k]


def factorial_series_eval(c: CoefficientStream, x: complex, n: int) -> complex:
    """Partial sum of the factorial series  sum_{k=0}^{n-1} c_k / (x)_{k+1}."""
    if n < 1:
        raise DomainError("factorial_series_eval requires n >= 1")
    x = complex(x)
    total = 0.0 + 0.0j
    poch = x
    for k in range(n):
        if poch == 0:
            raise PoleError(f"factorial series denominator (x)_{k+1} vanishes at x = {x}")
        total += c(k) / poch
        poch *= x + (k + 1)
    return total


def factorial_to_borel(c: CoefficientStream, p: complex, n: int) -> complex:
    """Partial sum of  sum_{k=0}^{n-1} c_k (1 - e^{-p})^k / k!

    This is the inverse-Laplace image of the factorial series with the
    same coefficients, mapping the expansion back to its Borel plane.
    """
    if n < 1:
        raise DomainError("factorial_to_borel requires n >= 1")
    p = complex(p)
    w = complex(p - p * p / 2.0 + p**3 / 6.0 - p**4 / 24.0) if abs(p) < 1e-4 else 1.0 - cmath.exp(-p)
    total = 0.0 + 0.0j
    wk = 1.0 + 0.0j  # w^k / k!
    for k in range(n):
        total += c(k) * wk
        wk *= w / (k + 1)
    return total
