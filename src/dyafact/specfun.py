"""Dyadic factorial evaluators: the exponential integral on and off its
Stokes ray, the digamma function, the half-difference identity, and the
incomplete gamma / erfc family.

Every evaluator returns an :class:`EvalResult` carrying the value, an
a-priori error estimate and the truncation plan actually executed.  Sign
conventions follow the underlying integrals (checked against quadrature),
not typography: ``ei_left`` returns e^x Ei(-x), which is negative on the
positive real axis.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .dyadic import (
    MAX_AMPLIFICATION,
    MAX_LEVELS,
    DyadicPlan,
    FactorialFamily,
    amplification,
    assemble,
    level_sums,
    plan_truncation,
)
from .scalar import DomainError, polylog
from ._gauss import dyadic_edges, geometric_sums, panel_nodes, refined

__all__ = [
    "EvalResult",
    "ei_stokes_family",
    "ei_left_family",
    "psi_family",
    "ei_stokes",
    "ei_left",
    "ei_left_base_stream",
    "ei_left_classical_stream",
    "psi_dyadic",
    "psi_half_difference",
    "incomplete_gamma_dyadic",
    "erfc_dyadic",
]

_LEVELS = 2.0 ** np.arange(MAX_LEVELS + 1)   # 2^k for every described level
# Level k of Ei and digamma is 2^-k sigma(2^-k z) with sigma(z) = 1/(1 + e^-z)
# = 1/2 + z/4 - z^3/48 + ...: the K-level tail runs in 2^-K, 2^-2K, 2^-4K, 2^-6K.
_SIGMA_LADDER = (1.0, 2.0, 4.0, 6.0)


@dataclass(frozen=True)
class EvalResult:
    """Value with its error estimate and the executed plan.  The estimate
    is the plan's prediction plus the size of the last Richardson
    correction the evaluation made."""

    value: complex
    error_estimate: float
    plan: DyadicPlan

    @property
    def terms_total(self) -> int:
        return self.plan.terms_total


def _geometric(a: np.ndarray, den: np.ndarray):
    """Numerators of a family with geometric coefficients: term 1 of
    level k is a_k / (den_k x_k), and t_{i+1} / t_i = i / (den_k (x_k + i))."""
    return lambda k, i: np.where(i == 0, a[k], i) / den[k]


def _ei_family(w: complex, c: complex, name: str, ladder: tuple = ()) -> FactorialFamily:
    """The exponential-integral family in w with Borel-plane scale c:
    level k has shift 2^k w and a_k = e^{-c 2^-k} over den_k = 1 + a_k,
    the base a_0 = e^{-c} over den_0 = 1 - e^{-c}, every weight 1.  Its
    cut is the ray w in -R^+."""
    a = np.exp(-c / _LEVELS)
    den = 1.0 + a
    den[0] = 1.0 - a[0]
    shift = _LEVELS * w
    return FactorialFamily(
        name, shift, np.ones(MAX_LEVELS + 1), _geometric(a, den),
        size=np.abs(a / (den * shift)), safety=10.0,
        cut_distance=1.0 if w.real >= 0 else abs(w.imag) / abs(w), ladder=ladder)


def ei_stokes_family(x: complex) -> FactorialFamily:
    """Stokes-sector exponential-integral family: c = i pi in y = -i x / pi,
    base ratio 1/2, level-k ratio 1/|1 + e^{-i pi 2^-k}|; cut along the
    closed negative imaginary axis.  It has no ladder: its plans are
    plain truncations, whose discarded tail pi 2^-(K+1)/x the acceptance
    suite checks."""
    x = complex(x)
    if x == 0:
        raise DomainError("ei_stokes undefined at x = 0")
    return _ei_family(-1j * x / math.pi, 1j * math.pi, "ei-stokes")


def ei_stokes(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """e^{-x} Ei^+(x) through the dyadic factorial expansion valid across
    the Stokes ray R^+ (cut along the closed negative imaginary axis).

    With ``plan`` given, the caller owns the truncation (and may evaluate
    closer to the cut than the planner's guard allows); otherwise a plan
    meeting ``tol`` is derived first.
    """
    x = complex(x)
    if x.real == 0.0 and x.imag <= 0.0:
        raise DomainError("ei_stokes is undefined on the closed negative imaginary axis")
    if abs(x) < 0.2:
        raise DomainError("ei_stokes requires |x| >= 0.2 (use the classical series below)")
    fam = ei_stokes_family(x)
    if plan is None:
        plan = plan_truncation(fam, tol)
    total, corr = assemble(fam, plan)
    return EvalResult(total, plan.predicted_error + corr, plan)


def ei_left_family(x: complex) -> FactorialFamily:
    """Left-plane exponential-integral family: c = -1 in x.  The base
    series, of ratio 1/(e-1), is minus the classical factorial series of
    Phi(1/e, 1, x); level k has ratio 1/(1 + e^{2^-k}).  The levels sum to
    e^x Ei(-x); the cut is the negative real axis."""
    x = complex(x)
    if x == 0:
        raise DomainError("ei_left undefined at x = 0")
    return _ei_family(x, -1.0, "ei-left", _SIGMA_LADDER)


def ei_left(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """e^x Ei(-x) for x off the negative real axis, via the dyadic
    factorial expansion in the left Borel plane.

    Its base series is minus the classical factorial series of the Lerch
    function Phi(1/e, 1, x); the value carries the sign of e^x Ei(-x)
    itself, negative on R^+.
    """
    x = complex(x)
    fam = ei_left_family(x)
    if x.imag == 0.0 and x.real < 0.0:
        raise DomainError("ei_left is cut along the negative real axis")
    if plan is None:
        plan = plan_truncation(fam, tol)
    total, corr = assemble(fam, plan)
    return EvalResult(total, plan.predicted_error + corr, plan)


def ei_left_base_stream() -> "CoefficientStream":
    """Coefficients c_k = (-1)^k e k! / (e-1)^{k+1} of the factorial series
    of the Lerch value Phi(1/e, 1, x), minus the base series of the
    left-plane expansion; its inverse-Laplace image is the geometric
    kernel e / (e - e^{-p})."""
    from .scalar import CoefficientStream

    def coeff(k: int) -> float:
        return (-1.0) ** k * math.e * math.exp(math.lgamma(k + 1.0)) / (math.e - 1.0) ** (k + 1)

    return CoefficientStream(coeff)


def ei_left_classical_stream(n_max: int = 400) -> "CoefficientStream":
    """Coefficients of the classical (half-plane, power-like) factorial
    series of e^x E_1(x) = -e^x Ei(-x): the Borel kernel 1/(1+p) pulled
    back through w = 1 - e^{-p} and expanded at w = 0 by power-series
    inversion of 1 - ln(1 - w)."""
    from .scalar import CoefficientStream

    d = [1.0] + [1.0 / i for i in range(1, n_max + 1)]
    g = [1.0]
    for j in range(1, n_max + 1):
        g.append(-sum(d[i] * g[j - i] for i in range(1, j + 1)))
    coeffs = []
    fact = 1.0
    for k, gk in enumerate(g):
        coeffs.append(gk * fact)
        fact *= k + 1

    return CoefficientStream(lambda k: coeffs[k])


def psi_family(x: complex) -> FactorialFamily:
    """Digamma double expansion: level k >= 1 is the ratio-1/2 series in
    the shifted variable 2^k x + 1.

    Level 0 stands in for the closed-form ln x term, with weight and
    planner size 0, so it always keeps one term; its series, in x
    itself, is the half-difference series."""
    x = complex(x)
    if x == 0:
        raise DomainError("psi_dyadic undefined at x = 0")
    shift = _LEVELS * x + 1.0
    shift[0] = x
    size = 1.0 / (2.0 * np.abs(shift))
    size[0] = 0.0
    ones = np.ones(MAX_LEVELS + 1)
    return FactorialFamily(
        "psi-dyadic", shift, (_LEVELS > 1).astype(float), _geometric(ones, 2.0 * ones),
        size=size, safety=4.0, cut_distance=1.0 if x.real > 0 else 0.0, ladder=_SIGMA_LADDER)


def psi_dyadic(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Psi(x + 1) = ln x + sum_{k>=1} sum_{j>=1} (j-1)! / (2^j (2^k x + 1)_j)
    for Re x > 0.  Plan entry 0 is the closed-form ln x term."""
    x = complex(x)
    if x.real <= 0:
        raise DomainError("psi_dyadic requires Re x > 0")
    fam = psi_family(x)
    if plan is None:
        plan = plan_truncation(fam, tol)
    total, corr = assemble(fam, plan)
    return EvalResult(cmath.log(x) + total, plan.predicted_error + corr, plan)


def psi_half_difference(x: complex, n: int) -> complex:
    """Partial sum  sum_{m=1}^{n} Gamma(m) / (2^m (x)_m), converging to

        (1/2) Psi((x+1)/2) - (1/2) Psi(x/2)  =  Int_0^1 t^{x-1}/(1+t) dt

    for Re x > 0.  All terms are positive on the positive real axis; the
    first is 1/(2x).
    """
    x = complex(x)
    if x.real <= 0:
        raise DomainError("psi_half_difference requires Re x > 0")
    if n < 1:
        raise DomainError("psi_half_difference requires n >= 1")
    return complex(level_sums(psi_family(x), [n])[0])


# ---------------------------------------------------------------------------
# incomplete gamma / erfc
# ---------------------------------------------------------------------------


class _GammaCoeffs:
    """Per-order coefficient streams of the ramified-polylog expansion of
    Gamma(1-s) e^x x^{-s} Gamma(s, x).

    Base coefficients come from the everywhere-positive sum

        c_m = (-1)^m sum_{n >= max(m,1)} n(n-1)...(n-m+1) n^{-s} e^{-n},

    level coefficients from the positive-integrand representation

        (-1)^m g_k^{(m)}(1) = m! e^{-m eps} / Gamma(s) *
            Int_0^inf t^{s-1} e^t (e^t + e^{-eps})^{-(m+1)} dt,

    both stable for every m (the Stirling-number form of the same
    derivatives cancels catastrophically past m ~ 20).  Orders s in
    (-1, 0) are reduced to s + 1 by one derivative shift.
    """

    def __init__(self, s: float):
        if not (-1.0 < s < 1.0) or s == 0.0:
            raise DomainError("incomplete-gamma expansion implemented for s in (-1,1), s != 0")
        self.s = s
        self._base: list = []
        self._level: Dict[int, np.ndarray] = {}
        self._ratios = np.full((MAX_LEVELS + 1, _GAMMA_TERMS + 1), np.nan)
        self._have = np.zeros(MAX_LEVELS + 1, dtype=np.int64)  # entries filled per level
        self._shift: Optional[_GammaCoeffs] = _GammaCoeffs(s + 1.0) if s < 0 else None
        if self._shift is None and s > 0:
            self._gamma_s = math.gamma(s)

    def base(self, m: int) -> float:
        if len(self._base) <= m:
            self._base = self._base_row(max(m + 1, 2 * len(self._base)))
        return self._base[m]

    def _base_row(self, n: int) -> list:
        """c_0..c_{n-1} of the base stream, every sum at once in log form:
        n(n-1)...(n-m+1) = n!/(n-m)!.  Terms peak near n = 1.6 m and fall
        below 1e-18 of the peak well before 3 m + 100.  Past m ~ 185 the
        sums overflow to inf, which level_sums drops."""
        N = 3 * n + 100
        j = np.arange(1, N + 1)
        log_fact = np.array([math.lgamma(i + 1.0) for i in range(N + 1)])
        m = np.arange(n)[:, None]
        with np.errstate(over="ignore"):
            logs = log_fact[j] - log_fact[np.maximum(j - m, 0)] - j - self.s * np.log(j)
            sums = np.where(j >= m, np.exp(logs), 0.0).sum(axis=1)
        return (sums * (-1.0) ** np.arange(n)).tolist()

    def row(self, k: int, n: int) -> np.ndarray:
        """The first n coefficients of level k (k = 0: the base stream)."""
        if k == 0:
            self.base(n - 1)
            return np.array(self._base[:n])
        cached = self._level.get(k, ())
        if len(cached) < n:
            cached = self._level[k] = self._level_row(k, max(n, 2 * len(cached)))
        return cached[:n]

    def level(self, k: int, m: int) -> float:
        return float(self.row(k, m + 1)[m])

    @functools.cached_property
    def deep_first(self) -> float:
        """|Li_s(-1)|, which the first coefficient Li_s(-e^{-2^-k}) of
        level k approaches as k grows."""
        return abs(polylog(self.s, -1.0))

    def ratios(self, k: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Term ratios c_{k,i} / c_{k,i-1} (c_{k,-1} = 1) for a column of
        levels k and indices i <= _GAMMA_TERMS (broadcast), read from one
        array.  A level's entries are filled, by doubling, only when an
        index past them is asked for."""
        need = np.max(i, axis=-1) + 1
        short = need > self._have[k[:, 0]]
        if short.any():
            for lvl, n in zip(k[short, 0], np.broadcast_to(need, short.shape)[short]):
                n = max(n, min(2 * self._have[lvl], _GAMMA_TERMS + 1))
                c = self.row(lvl, n)
                with np.errstate(divide="ignore", invalid="ignore"):
                    self._ratios[lvl, :n] = c / np.append(1.0, c[:-1])
                self._have[lvl] = n
        return self._ratios[k, i]

    def _level_row(self, k: int, n: int) -> np.ndarray:
        """c_{k,0..n-1}, all m from one sampling on shared Gauss nodes."""
        if self._shift is not None:
            # one order shift: (-1)^m g_s^{(m)}(1) = -c_{s+1,m+1} + m c_{s+1,m}
            c = self._shift.row(k, n + 1)
            return -c[1:] + np.arange(n) * c[:-1]
        s, eps = self.s, 2.0**-k
        m = np.arange(n)
        # below t_lo the integrand is g(0) t^{s-1} to 1e-15 relative:
        # g(0) = (1 + e^{-eps})^{-(m+1)}, integral g(0) t_lo^s / s
        t_lo = 1e-15 / n
        head = np.exp(-(m + 1) * np.log1p(math.exp(-eps)) + s * math.log(t_lo)) / s

        def integrals(refine: int) -> np.ndarray:
            # m = 0: t^{s-1} / (e^t + a); m >= 1: t^{s-1} e^t (e^t + a)^{-(m+1)}
            # = [t^{s-1} e^t q] q^m with q = 1 / (e^t + a) < 1, a = e^{-eps}
            t, w = panel_nodes(dyadic_edges(t_lo, 54.0 + 8.0 * s, refine))
            lse = np.logaddexp(t, -eps)
            first = (s - 1.0) * np.log(t) - lse
            q = np.exp(-lse)
            m0 = np.exp(first) @ w
            return head + np.append(m0, geometric_sums(np.exp(first + t) * w * q, q, n - 1))

        b = refined(integrals, (1, 2, 4), 1e-12, f"level {k} coefficients of order {s}")
        # c_0 = -a J_0 / Gamma(s) = Li_s(-e^{-eps}); c_m = m! e^{-m eps} J_m / Gamma(s)
        lgm = np.array([math.lgamma(i + 1.0) for i in range(n)])
        out = np.exp(lgm - m * eps + np.log(b)) / self._gamma_s
        out[0] = -math.exp(-eps) * b[0] / self._gamma_s
        return out


_GAMMA_CACHE: Dict[float, _GammaCoeffs] = {}
_GAMMA_TERMS = 150  # terms a level may keep: the base coefficients overflow near m = 185
_GAMMA_LOCK = threading.Lock()


def _gamma_coeffs(s: float) -> _GammaCoeffs:
    key = round(float(s), 12)
    with _GAMMA_LOCK:
        if key not in _GAMMA_CACHE:
            _GAMMA_CACHE[key] = _GammaCoeffs(key)
        return _GAMMA_CACHE[key]


def _gamma_ladder(s: float) -> tuple:
    """Level k carries 2^-k(1-s) Li_s(-e^{-z/2^k}), analytic at z = 0: the
    K-level tail runs in 2^-(n+1-s)K, n = 0, 1, ..."""
    return tuple(n + 1.0 - s for n in range(4))


def _gamma_family(s: float, x: complex, coeffs: _GammaCoeffs) -> FactorialFamily:
    """Level k of the normalized incomplete-gamma expansion is
    sum_m c_{k,m} / (2^k x)_{m+1}, entering with weight -2^{ks} (the base
    with 1).  The planner walks the exact term ratios of the cached
    coefficient rows; it reads the leading level terms from Li_s(-1),
    which the first coefficients approach, so planning builds no row past
    the levels it keeps."""
    shift = _LEVELS * x
    weight = -(_LEVELS ** s)
    weight[0] = 1.0
    size = _LEVELS ** (s - 1.0) * coeffs.deep_first / abs(x)
    size[0] = abs(coeffs.base(0)) / abs(x)

    return FactorialFamily("incomplete-gamma", shift, weight, coeffs.ratios, size, safety=4.0,
                           max_terms=_GAMMA_TERMS, ladder=_gamma_ladder(s))


def _gamma_eval(s: float, x: complex, tol: float, plan: Optional[DyadicPlan]) -> EvalResult:
    fam = _gamma_family(s, x, _gamma_coeffs(s))
    # Gamma(s, x) >= x^s e^-x / (x + 1 - s) for real x > 0 and s < 1, so
    # this bounds the normalized series from below
    scale = math.gamma(1.0 - s) / (abs(x) + 1.0 - s)
    if plan is None:
        plan = plan_truncation(fam, tol * scale)
    total, corr = assemble(fam, plan)
    front = x**s * cmath.exp(-x) / math.gamma(1.0 - s)
    return EvalResult(front * total, (plan.predicted_error + corr) * abs(front), plan)


def incomplete_gamma_dyadic(s: float, x: complex, tol: float = 4e-9,
                            plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Upper incomplete gamma Gamma(s, x) for non-integer s < 1, Re x > 0.

    Evaluates the normalized factorial expansion of
    Gamma(1-s) e^x x^{-s} Gamma(s, x) (base stream at argument 1/e minus
    the dyadic polylog levels) and maps back; ``tol`` is relative to the
    normalized series, which the exponential rescaling preserves.

    Near s = 1 the ladder's first step factor 2^(1-s) tends to 1.  Orders
    whose ladder would magnify level errors more than MAX_AMPLIFICATION
    (s above about 0.85) are evaluated at s - 1 through DLMF 8.8.2,
    Gamma(s, x) = (s - 1) Gamma(s - 1, x) + x^(s-1) e^-x; the plan is then
    the one of order s - 1.
    """
    x = complex(x)
    if x.real <= 0:
        raise DomainError("incomplete_gamma_dyadic requires Re x > 0")
    if s >= 1.0 or abs(s - round(s)) < 1e-12:
        raise DomainError("incomplete_gamma_dyadic requires non-integer s < 1")
    if amplification(_gamma_ladder(s)) <= MAX_AMPLIFICATION:
        return _gamma_eval(s, x, tol, plan)
    # |s - 1| Gamma(s - 1, x) < x^(s-1) e^-x <= Gamma(s, x) (x + 1 - s) / x
    # on the real axis, so this tol keeps the sum within tol of Gamma(s, x)
    r = _gamma_eval(s - 1.0, x, tol * abs(x) / (abs(x) + 1.0 - s), plan)
    head = x ** (s - 1.0) * cmath.exp(-x)
    # near s = 1 the head carries the value, and its rounding the error
    err = abs(s - 1.0) * r.error_estimate + 8.0 * np.finfo(float).eps * abs(head)
    return EvalResult((s - 1.0) * r.value + head, err, r.plan)


def erfc_dyadic(x: float, tol: float = 4e-9) -> EvalResult:
    """erfc(sqrt(x)) for x > 0, via Gamma(1/2, x) / sqrt(pi)."""
    if not (x > 0):
        raise DomainError("erfc_dyadic requires x > 0")
    r = incomplete_gamma_dyadic(0.5, x, tol)
    rt = math.sqrt(math.pi)
    return EvalResult(r.value / rt, r.error_estimate / rt, r.plan)
