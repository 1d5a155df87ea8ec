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
from typing import Dict, Optional, Tuple

import numpy as np

from .dyadic import (
    FIRST_CHUNK,
    MAX_AMPLIFICATION,
    MAX_LEVELS,
    DyadicPlan,
    FactorialFamily,
    NumerTable,
    amplification,
    evaluate,
    level_sums,
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

def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: templates are shared by every family of an order."""
    a.flags.writeable = False
    return a


_LEVELS = _frozen(2.0 ** np.arange(MAX_LEVELS + 1))   # 2^k for every described level
_ONES = _frozen(np.ones(MAX_LEVELS + 1))
# Level k of Ei and digamma is 2^-k sigma(2^-k z) with sigma(z) = 1/(1 + e^-z)
# = 1/2 + z/4 - z^3/48 + ...: the K-level tail runs in 2^-K, 2^-2K, 2^-4K, 2^-6K.
_SIGMA_LADDER = (1.0, 2.0, 4.0, 6.0)
_EPS = float(np.finfo(float).eps)
_EULER_GAMMA = 0.5772156649015329
_ON_CUT = 1e-12        # relative distance from an Ei cut that counts as on it


@dataclass(frozen=True)
class EvalResult:
    """Value with its error estimate and the executed plan.  The estimate
    is the plan's prediction plus the size of the last Richardson
    correction the evaluation made and the rounding of the kept terms
    (``dyadic.assemble``).  ``tol_met`` says whether the estimate
    is within the requested tolerance in the evaluator's units: absolute
    for Ei and digamma, relative to |value| for erfc, incomplete gamma,
    Airy and Bessel-K."""

    value: complex
    error_estimate: float
    plan: DyadicPlan
    tol_met: bool

    @property
    def terms_total(self) -> int:
        return self.plan.terms_total


def _result(value: complex, estimate: float, plan: DyadicPlan, tol: float,
            relative: bool) -> EvalResult:
    bound = tol * abs(value) if relative else tol
    return EvalResult(value, estimate, plan, bool(estimate <= bound))


def _geometric(a: np.ndarray, den: np.ndarray):
    """Numerators of a family with geometric coefficients: term 1 of
    level k is a_k / (den_k x_k), and t_{i+1} / t_i = i / (den_k (x_k + i))."""
    return lambda k, i: np.where(i == 0, a[k], i) / den[k]


def _ei_template(c: complex) -> tuple:
    """The argument-free half of the exponential-integral family with
    Borel-plane scale c: a_k = e^{-c 2^-k} over den_k = 1 + a_k, the base
    a_0 = e^{-c} over den_0 = 1 - e^{-c}, and the table of their
    numerators."""
    a = np.exp(-c / _LEVELS)
    den = 1.0 + a
    den[0] = 1.0 - a[0]
    return _frozen(a), _frozen(den), NumerTable(_geometric(a, den), len(a))


_EI_STOKES = _ei_template(1j * math.pi)
_EI_LEFT = _ei_template(-1.0)


def _ei_family(w: complex, template: tuple, name: str, ladder: tuple = ()) -> FactorialFamily:
    """The exponential-integral family in w over a template of
    ``_ei_template``: level k has shift 2^k w, every weight 1.  Its cut
    is the ray w in -R^+; the planner takes it for Re w >= 0."""
    a, den, table = template
    shift = _LEVELS * w
    return FactorialFamily(name, shift, _ONES, table, size=np.abs(a / (den * shift)),
                           safety=10.0, ladder=ladder)


def ei_stokes_family(x: complex) -> FactorialFamily:
    """Stokes-sector exponential-integral family: c = i pi in y = -i x / pi,
    base ratio 1/2, level-k ratio 1/|1 + e^{-i pi 2^-k}|; cut along the
    closed negative imaginary axis, and Re y >= 0 for Im x >= 0.  It has
    no ladder: its plans are plain truncations, whose discarded tail
    pi 2^-(K+1)/x the acceptance suite checks."""
    x = complex(x)
    if x == 0:
        raise DomainError("ei_stokes undefined at x = 0")
    return _ei_family(-1j * x / math.pi, _EI_STOKES, "ei-stokes")


def _stokes(y: complex, tol: float, plan: Optional[DyadicPlan], flip: bool = False,
            jump: complex = 0.0) -> EvalResult:
    """G(y) = e^{-y} Ei^+(y) at Im y >= 0, where every shift of the Stokes
    family has Re >= 0; conjugated if ``flip``, less ``jump``, whose
    rounding joins the estimate."""
    plan, total, corr = evaluate(ei_stokes_family(y), tol, plan)
    value = total.conjugate() if flip else total
    return _result(value - jump, plan.predicted_error + corr + 8.0 * _EPS * abs(jump), plan, tol,
                   relative=False)


def ei_stokes(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """e^{-x} Ei^+(x) through the dyadic factorial expansion valid across
    the Stokes ray R^+, for |x| >= 0.2 off the closed negative imaginary
    axis (the cut; within rounding of it counts as on it).

    e^{-x} Ei^+ is real on the negative real axis and jumps by
    2 pi i e^{-x} across R^+ (DLMF 6.4), so below the real axis it is
    conj G(conj x), less that jump for Re x > 0.  With ``plan`` given (for
    conj x below the real axis) the caller owns the truncation; otherwise
    a plan meeting ``tol`` is derived first.
    """
    x = complex(x)
    if x.imag <= 0.0 and abs(x.real) <= _ON_CUT * abs(x):
        raise DomainError("ei_stokes is undefined on the closed negative imaginary axis")
    if abs(x) < 0.2:
        raise DomainError("ei_stokes requires |x| >= 0.2 (use the classical series below)")
    if x.imag >= 0.0:
        return _stokes(x, tol, plan)
    return _stokes(x.conjugate(), tol, plan, True, 2j * math.pi * cmath.exp(-x) if x.real > 0 else 0.0)


def ei_left_family(x: complex) -> FactorialFamily:
    """Left-plane exponential-integral family: c = -1 in x.  The base
    series, of ratio 1/(e-1), is minus the classical factorial series of
    Phi(1/e, 1, x); level k has ratio 1/(1 + e^{2^-k}).  The levels sum to
    e^x Ei(-x); the cut is the negative real axis, and the planner takes
    Re x >= 0."""
    x = complex(x)
    if x == 0:
        raise DomainError("ei_left undefined at x = 0")
    return _ei_family(x, _EI_LEFT, "ei-left", _SIGMA_LADDER)


def _ei_left_series(x: complex, tol: float, plan: Optional[DyadicPlan]) -> EvalResult:
    """e^x (gamma + Log x + sum_{n>=1} (-x)^n / (n n!)) for |x| < 0.2, where
    it cancels almost nothing.  n terms leave a tail below |x|^{n+1} /
    ((n+1) (n+1)! (1 - |x|)); the sum stops once that fits in half of tol,
    or at ``plan.n_terms[0]``.  Its plan is that one series (K = 0), and
    its estimate adds 8 eps times every size summed for rounding."""
    if plan is None and not (1e-14 < tol < 1e-1):
        raise DomainError("tol must lie in (1e-14, 1e-1)")
    power, total, sizes, n = 1.0 + 0.0j, 0.0j, 0.0, 0
    while True:
        n += 1
        power *= -x / n
        total += power / n
        sizes += abs(power) / n
        tail = abs(power * x) / ((n + 1) ** 2 * (1.0 - abs(x)))
        if n >= plan.n_terms[0] if plan is not None else tail <= 0.5 * tol:
            break
    log, scale = cmath.log(x), cmath.exp(x)
    estimate = tail + 8.0 * _EPS * abs(scale) * (_EULER_GAMMA + abs(log) + sizes)
    return _result(scale * (_EULER_GAMMA + log + total), estimate, DyadicPlan(0, [n], estimate),
                   tol, relative=False)


def ei_left(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """e^x Ei(-x) for x off the negative real axis (the cut; within
    rounding of it counts as on it).

    Below |x| = 0.2, the series at 0: there the rounding of both dyadic
    families grows like eps/|x|, and the Stokes levels shrink only like
    pi 2^-(k+1)/|x|.  From 0.2 on, for Re x >= 0, the dyadic factorial expansion in the left
    Borel plane, whose base series is minus the classical factorial series
    of the Lerch function Phi(1/e, 1, x); for Re x < 0, the Stokes
    expansion G(-x) below the real axis and conj G(-conj x) above it.
    ``plan`` is one for the point actually planned.  The value carries the
    sign of e^x Ei(-x) itself, negative on R^+.
    """
    x = complex(x)
    if x == 0:
        raise DomainError("ei_left undefined at x = 0")
    if x.real < 0.0 and abs(x.imag) <= _ON_CUT * abs(x):
        raise DomainError("ei_left is cut along the negative real axis")
    if abs(x) < 0.2:
        return _ei_left_series(x, tol, plan)
    if x.real >= 0.0:
        plan, total, corr = evaluate(ei_left_family(x), tol, plan)
        return _result(total, plan.predicted_error + corr, plan, tol, relative=False)
    return _stokes(-x if x.imag < 0 else -x.conjugate(), tol, plan, x.imag > 0)


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


# digamma levels keep at most 27 terms over perfbench's point-values inputs
_PSI_TABLE = NumerTable(_geometric(_ONES, 2.0 * _ONES), len(_ONES), first=33)
_PSI_WEIGHT = _frozen((_LEVELS > 1).astype(float))


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
    size = 0.5 / np.abs(shift)
    size[0] = 0.0
    return FactorialFamily(
        "psi-dyadic", shift, _PSI_WEIGHT, _PSI_TABLE,
        size=size, safety=4.0, ladder=_SIGMA_LADDER)


def psi_dyadic(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Psi(x + 1) = ln x + sum_{k>=1} sum_{j>=1} (j-1)! / (2^j (2^k x + 1)_j)
    for Re x > 0.  Plan entry 0 is the closed-form ln x term."""
    x = complex(x)
    if x.real <= 0:
        raise DomainError("psi_dyadic requires Re x > 0")
    plan, total, corr = evaluate(psi_family(x), tol, plan)
    return _result(cmath.log(x) + total, plan.predicted_error + corr, plan, tol, relative=False)


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

    first = FIRST_CHUNK   # columns of a walk's first chunk over ``read``

    def __init__(self, s: float):
        if not (-1.0 < s < 1.0) or s == 0.0:
            raise DomainError("incomplete-gamma expansion implemented for s in (-1,1), s != 0")
        self.s = s
        self._base: list = []
        self._level: Dict[int, np.ndarray] = {}
        # the term ratios of every level (NaN past a row's filled entries)
        # and the entries filled per level, published together
        self._table = (np.full((MAX_LEVELS + 1, _GAMMA_TERMS + 1), np.nan),
                       np.zeros(MAX_LEVELS + 1, dtype=np.int64))
        self._shift: Optional[_GammaCoeffs] = _GammaCoeffs(s + 1.0) if s < 0 else None
        if self._shift is None and s > 0:
            self._gamma_s = math.gamma(s)

    def base(self, m: int) -> float:
        return self._base_upto(m + 1)[m]

    def _base_upto(self, n: int) -> list:
        """The base stream's coefficients, at least n of them."""
        row = self._base
        if len(row) < n:
            row = self._base = self._base_row(max(n, 2 * len(row)))
        return row

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
            return np.array(self._base_upto(n)[:n])
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

    @functools.cached_property
    def levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """The argument-free half of the family, built once: the level
        weights, 1 for the base and -2^{ks} for level k, and
        |weight_k t_{k,1}| |x|, which is |c_0| for the base and
        2^{k(s-1)} |Li_s(-1)| for level k (its first coefficient's limit)."""
        s = self.s
        weight = -(_LEVELS ** s)
        weight[0] = 1.0
        lead = _LEVELS ** (s - 1.0) * self.deep_first
        lead[0] = abs(self.base(0))
        return _frozen(weight), _frozen(lead)

    def read(self, levels, need, width: int) -> np.ndarray:
        """The numerator table of the family (``NumerTable``'s interface):
        the term ratios of the levels ``levels`` (a slice or an index
        array) over columns 0..width-1, each row filled over its first
        ``need`` entries at least and NaN past the entries it holds."""
        return self._filled(levels, need)[levels, :width]

    def _filled(self, levels, need) -> np.ndarray:
        """The term ratios c_{k,i} / c_{k,i-1} (c_{k,-1} = 1) of every level
        as one array of _GAMMA_TERMS + 1 columns, NaN past the entries a
        row holds, with rows ``levels`` filled over their first ``need``
        entries at least.  A short row is refilled from a coefficient row
        of at least _GAMMA_ROW entries and twice its length before; the
        refilled array is built aside and published whole under
        _GAMMA_LOCK."""
        ratios, have = self._table
        if not (have[levels] < need).any():
            return ratios
        with _GAMMA_LOCK:
            ratios, have = self._table
            ids = _LEVEL_IDS[levels]
            need = np.broadcast_to(need, ids.shape)
            short = have[ids] < need
            if short.any():
                ratios, have = ratios.copy(), have.copy()
                for k, n in zip(ids[short].tolist(), need[short].tolist()):
                    n = max(n, _GAMMA_ROW, min(2 * int(have[k]), _GAMMA_TERMS + 1))
                    c = self.row(k, n)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratios[k, :n] = c / np.append(1.0, c[:-1])
                    have[k] = n
                ratios.flags.writeable = False
                self._table = (ratios, have)
        return ratios

    def ratios(self, k: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Term ratios c_{k,i} / c_{k,i-1} for a column of levels k and
        indices i <= _GAMMA_TERMS (broadcast), read from the table of
        ``read``; a level's entries are filled, by doubling, only when an
        index past them is asked for."""
        return self._filled(k[:, 0], np.max(i, axis=-1) + 1)[k, i]

    numer = ratios    # the family's numerators, as ``NumerTable.numer``

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
_GAMMA_ROW = 33     # entries a level's row starts with: most levels keep fewer than 32 terms
_LEVEL_IDS = np.arange(MAX_LEVELS + 1)
# guards the coefficient cache and every refill of a table's rows
_GAMMA_LOCK = threading.Lock()


def _gamma_coeffs(s: float) -> _GammaCoeffs:
    s = float(s)
    with _GAMMA_LOCK:
        if s not in _GAMMA_CACHE:
            _GAMMA_CACHE[s] = _GammaCoeffs(s)
        return _GAMMA_CACHE[s]


@functools.lru_cache(maxsize=256)
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
    weight, lead = coeffs.levels
    return FactorialFamily("incomplete-gamma", _LEVELS * x, weight, coeffs, lead / abs(x),
                           safety=4.0, max_terms=_GAMMA_TERMS, ladder=_gamma_ladder(s))


def _gamma_eval(s: float, x: complex, tol: float, plan: Optional[DyadicPlan]) -> EvalResult:
    fam = _gamma_family(s, x, _gamma_coeffs(s))
    # Gamma(s, x) >= x^s e^-x / (x + 1 - s) for real x > 0 and s < 1, so
    # this bounds the normalized series from below
    scale = math.gamma(1.0 - s) / (abs(x) + 1.0 - s)
    plan, total, corr = evaluate(fam, tol * scale, plan)
    front = x**s * cmath.exp(-x) / math.gamma(1.0 - s)
    return _result(front * total, (plan.predicted_error + corr) * abs(front), plan, tol,
                   relative=True)


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
    err = abs(s - 1.0) * r.error_estimate + 8.0 * _EPS * abs(head)
    return _result((s - 1.0) * r.value + head, err, r.plan, tol, relative=True)


def erfc_dyadic(x: float, tol: float = 4e-9) -> EvalResult:
    """erfc(sqrt(x)) for x > 0, via Gamma(1/2, x) / sqrt(pi)."""
    if not (x > 0):
        raise DomainError("erfc_dyadic requires x > 0")
    r = incomplete_gamma_dyadic(0.5, x, tol)
    rt = math.sqrt(math.pi)
    return _result(r.value / rt, r.error_estimate / rt, r.plan, tol, relative=True)
