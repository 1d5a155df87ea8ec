"""Scalar building blocks: the errors the evaluators raise, polylogarithms
and plain (non-dyadic) factorial series.

Everything here is pure binary64 and has no dependency on the dyadic
machinery, so the higher modules can treat these as primitives.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable


__all__ = [
    "DomainError",
    "PoleError",
    "NonconvergenceError",
    "QuadratureError",
    "polylog",
    "CoefficientStream",
    "factorial_series_eval",
    "factorial_to_borel",
]


class DomainError(ValueError):
    """Argument outside the documented domain of an expansion."""


class PoleError(ZeroDivisionError):
    """Evaluation at (or too close to) a pole."""


class NonconvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class QuadratureError(RuntimeError):
    """Panel refinement failed to converge."""


_ALTERNATING_TERMS = 72
_POLYLOG_EDGE = 1.0 - 1e-6
_POLYLOG_REL_TOL = 1e-17


def _alternating_sum(term: Callable[[int], complex]) -> complex:
    """Sum_{j>=0} (-1)^j term(j) by iterated averaging of partial sums.

    The classical Euler-transform acceleration: each averaging stage
    roughly halves the error, so slowly decaying (or moderately growing)
    alternating tails converge to near machine precision.
    """
    partial = []
    s = 0.0 + 0.0j
    for j in range(_ALTERNATING_TERMS):
        s += (1 if j % 2 == 0 else -1) * term(j)
        partial.append(s)
    row = partial
    best = row[-1]
    while len(row) > 1:
        row = [(a + b) / 2.0 for a, b in zip(row[:-1], row[1:])]
        best = row[-1]
    return best


def polylog(s: float, z: complex) -> complex:
    """Polylogarithm Li_s(z) = sum_{k>=1} z^k / k^s.

    Direct series inside |z| <= 1 - 1e-6, stopped once a term falls below
    1e-17 of the sum.  Real z in [-1, -0.75] is handled by accelerated
    alternating summation (orders s > -6).  Anything else is out of the
    supported domain.
    """
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if z.imag == 0.0 and -1.0 <= z.real <= -0.75:
        # slowly converging alternating tail: Euler acceleration instead
        if s <= -6:
            raise DomainError("polylog near z = -1 supported for s > -6 only")
        w = -z.real  # in [0.75, 1]
        return -_alternating_sum(lambda j: w ** (j + 1) / (j + 1.0) ** s)
    if abs(z) <= _POLYLOG_EDGE:
        term = z
        total = z
        k = 1
        while True:
            k += 1
            term = term * z * ((k - 1.0) / k) ** s
            total += term
            if abs(term) <= _POLYLOG_REL_TOL * abs(total) or k > 10_000_000:
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
    """Partial sum of the factorial series  sum_{k=0}^{n-1} c_k / (x)_{k+1}.

    A rising factorial (x)_{k+1} that vanishes raises PoleError; one that
    overflows binary64 raises DomainError rather than summing to nan.
    """
    if n < 1:
        raise DomainError("factorial_series_eval requires n >= 1")
    x = complex(x)
    total = 0.0 + 0.0j
    poch = x
    for k in range(n):
        if poch == 0:
            raise PoleError(f"factorial series denominator (x)_{k+1} vanishes at x = {x}")
        if not cmath.isfinite(poch):
            raise DomainError(f"factorial series denominator (x)_{k+1} overflows at x = {x}")
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
