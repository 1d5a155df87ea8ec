"""One entry per function id of ``dyafact eval``: its evaluator, oracle
reference, units, order and documented region.  Each evaluator is one
``dyadic.run``, which checks x and order once through the entry's
``check`` and the caller's tol through ``check_tol``, and reports
``tol_met`` in its units; ``cli`` dispatches through the table and the
soundness gate draws each region.  An entry imports its evaluator's
module on call."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Optional, Tuple

from .scalar import DomainError

__all__ = ["FUNCTIONS", "Function", "LADDER_LEVELS", "MAX_LEVELS", "POCH_GUARD", "TOL_RANGE",
           "check_tol"]

MAX_LEVELS = 60          # 2^-60 is below binary64 resolution
LADDER_LEVELS = 16       # h-table depth: laddered plans at tol >= 1e-10 keep <= 15 levels
# a Pochhammer factor within this of zero is a pole; the incomplete-gamma
# level 0 has its pole at x = 0, so it is also the least |x| of erfc and inc-gamma
POCH_GUARD = 1e-12
TOL_RANGE = (1e-14, 1e-1)   # every planned tol, open at both ends
_TOL_TEXT = "({}, {})".format(*(f"{t:.0e}".replace("e-0", "e-") for t in TOL_RANGE))
# the largest |x| of both Ei ids: every level shift 2^k x and its product
# with a level denominator (|den_k| < 4) stay finite
_EI_LARGEST = math.ldexp(sys.float_info.max, -(MAX_LEVELS + 2))
# the largest x of Airy and Bessel-K: the h-expansion's level arguments
# 2^k u, k <= LADDER_LEVELS (the depth of its tables), stay finite up to
# u = _H_LARGEST, with u = (4/3) x^(3/2) and u = 2x
_H_LARGEST = math.ldexp(sys.float_info.max, -LADDER_LEVELS)
_AIRY_LARGEST, _BESSEL_LARGEST = (0.75 * _H_LARGEST) ** (2.0 / 3.0), _H_LARGEST / 2.0
_HALF_PLANE, _REAL = (-math.pi / 2, math.pi / 2), (0.0, 0.0)
_ON_CUT = 1e-12        # relative distance from a cut, or from the real axis, that counts as on it
_ANGLES = {-2: "-pi", -1: "-pi/2", 0: "0", 1: "pi/2", 2: "pi", 3: "3pi/2"}   # by quarter turns


def check_tol(tol: float, name: str = "tol") -> None:
    if not TOL_RANGE[0] < tol < TOL_RANGE[1]:
        raise DomainError(f"{name} must lie in {_TOL_TEXT}")


@dataclass(frozen=True)
class Function:
    """An id's evaluator ``module.name`` takes (x, tol), or with an ``order``
    range (s, x, tol), and ``oracle(dyafact.oracle, x, s)`` is its reference; a
    ``relative`` tol is relative to |value|.  Its region: radius[0] <= |x| <=
    radius[1], x != 0, and arg[0] < arg x < arg[1]; arg (0, 0) is real x only.
    Every arg bound is a multiple of pi/2: a range of width pi is an open
    half-plane, one of width 2 pi the plane less the ray arg x = arg[0]."""

    id: str
    module: str
    name: str
    oracle: Callable
    relative: bool
    radius: Tuple[float, float]
    arg: Tuple[float, float]
    order: Optional[Tuple[float, float]] = None

    def check(self, x: complex, s: Optional[float] = None):
        """x as the evaluator takes it: a float for a real-x id, a complex
        otherwise.  An x or s outside the region raises DomainError naming
        the evaluator, the x or s given and the bound."""
        if self.order is not None and not self.order[0] <= s <= self.order[1]:
            raise self._outside("a finite s in [{:g}, {:g}]".format(*self.order), s, "s")
        (lo, hi), (a, b) = self.radius, self.arg
        real = (a, b) == _REAL
        x = x if real else complex(x)
        size = abs(x)
        if not size < math.inf:
            raise self._outside("a finite x", x)
        if real:
            if abs(x.imag) > _ON_CUT * size:     # off the real axis, not a value at Re x
                raise DomainError(f"{self.name} takes real x only, not x = {x}")
            x = float(x.real)
            if not (x > 0 and x >= lo):
                raise self._outside(f"x >= {lo:.4g}" if lo else "x > 0", x)
            if x > hi:
                raise self._outside(f"x <= {hi:.4g}", x)
            return x
        if not (size > 0 and size >= lo):
            raise self._outside(f"|x| >= {lo:.4g}" if lo else "x != 0", x)
        if size > hi:
            raise self._outside(f"|x| <= {hi:.4g}", x)
        q = round(2.0 * a / math.pi)            # arg[0] in quarter turns
        w = x                                   # x turned by -arg[0], exactly
        for _ in range(-q % 4):
            w = complex(-w.imag, w.real)
        if b - a <= math.pi:                    # the open half-plane Im w > 0
            if not w.imag > 0:
                raise self._outside(f"{_ANGLES[q]} < arg x < {_ANGLES[q + 2]}", x)
        elif w.real >= 0 and abs(w.imag) <= _ON_CUT * size:     # on the cut w >= 0
            raise self._outside(f"x off its cut arg x = {_ANGLES[q]}", x)
        return x

    def _outside(self, bound: str, given, name: str = "x") -> DomainError:
        return DomainError(f"{self.name} requires {bound}, not {name} = {given}")

    def evaluate(self, x: complex, tol: float, s: Optional[float] = None):
        ev = getattr(import_module(f"{__package__}.{self.module}"), self.name)
        return ev(x, tol) if self.order is None else ev(s, x, tol)

    def reference(self, x: complex, s: Optional[float] = None) -> complex:
        return self.oracle(import_module(f"{__package__}.oracle"), x, s)


FUNCTIONS = {f.id: f for f in (
    Function("ei-stokes", "specfun", "ei_stokes",
             lambda o, x, s: (o.ei_plus_reference if x.real > 0.06 * abs(x)
                              else o.ei_series_reference)(x),
             False, (0.2, _EI_LARGEST), (-math.pi / 2, 1.5 * math.pi)),
    Function("ei-left", "specfun", "ei_left", lambda o, x, s: o.ei_left_reference(x, 1e-12),
             False, (0.0, _EI_LARGEST), (-math.pi, math.pi)),
    Function("psi", "specfun", "psi_dyadic", lambda o, x, s: o.psi_reference(x + 1.0),
             False, (0.0, math.inf), _HALF_PLANE),
    Function("erfc", "specfun", "erfc_dyadic", lambda o, x, s: o.erfc_reference(x.real),
             True, (POCH_GUARD, math.inf), _REAL),
    Function("inc-gamma", "specfun", "incomplete_gamma_dyadic",
             lambda o, x, s: o.inc_gamma_reference(s, x), True, (POCH_GUARD, math.inf), _HALF_PLANE,
             (-1.0, 1.0)),
    # from (3/4)^(2/3) on, the h-expansion's argument (4/3) x^(3/2) is at least 1
    Function("airy", "borel", "airy_from_h", lambda o, x, s: o.airy_reference(x.real),
             True, (0.75 ** (2.0 / 3.0), _AIRY_LARGEST), _REAL),
    Function("bessel-k", "borel", "bessel_k_dyadic",
             lambda o, x, s: o.bessel_k_reference(s, x.real), True, (0.5, _BESSEL_LARGEST), _REAL,
             (-5.0, 5.0)),
)}
