"""Dyadic factorial evaluators: the exponential integral on and off its
Stokes ray, the digamma function, and the incomplete gamma / erfc family.

Every evaluator is one ``dyadic.run`` over a private path, which returns
the value, an a-priori error estimate and the truncation plan actually
executed; erfc is the incomplete-gamma path at s = 1/2.  Sign
conventions follow the underlying integrals (checked against quadrature),
not typography: ``ei_left`` returns e^x Ei(-x), which is negative on the
positive real axis.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Optional

import numpy as np

from .dyadic import (
    _BUILD_LOCK,
    _EPS,
    _LEVELS,
    MAX_AMPLIFICATION,
    MAX_LEVELS,
    TABLE_COLUMNS,
    DyadicPlan,
    EvalResult,
    FactorialFamily,
    Template,
    _frozen,
    amplification,
    evaluate,
    run,
)
from .scalar import DomainError
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
    "incomplete_gamma_dyadic",
    "erfc_dyadic",
]

_ONES = _frozen(np.ones(MAX_LEVELS + 1))
# Level k of Ei and digamma is 2^-k sigma(2^-k z) with sigma(z) = 1/(1 + e^-z)
# = 1/2 + z/4 - z^3/48 + ...: the K-level tail runs in 2^-K, 2^-2K, 2^-4K, 2^-6K.
_SIGMA_LADDER = (1.0, 2.0, 4.0, 6.0)
_EULER_GAMMA = 0.5772156649015329


def _geometric(a: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The numerator table of a family with geometric coefficients, over
    TABLE_COLUMNS columns: term 1 of level k is a_k / (den_k x_k), and
    t_{i+1} / t_i = i / (den_k (x_k + i))."""
    i = np.arange(TABLE_COLUMNS)
    return _frozen(np.where(i == 0, a[:, None], i) / den[:, None])


def _ei_template(c: complex, name: str, ladder: tuple = ()) -> Template:
    """The exponential-integral template with Borel-plane scale c, in w:
    level k has shift 2^k w and weight 1, a_k = e^{-c 2^-k} over
    den_k = 1 + a_k, the base a_0 = e^{-c} over den_0 = 1 - e^{-c}, so
    lead |a_k / den_k|.  Its cut is the ray w in -R^+; the planner takes
    it for Re w >= 0."""
    a = np.exp(-c / _LEVELS)
    den = 1.0 + a
    den[0] = 1.0 - a[0]
    return Template(name, 0.0, _ONES, _geometric(a, den), 10.0, ladder)


_EI_STOKES = _ei_template(1j * math.pi, "ei-stokes")
_EI_LEFT = _ei_template(-1.0, "ei-left", _SIGMA_LADDER)


def ei_stokes_family(x: complex) -> FactorialFamily:
    """Stokes-sector exponential-integral family: c = i pi in y = -i x / pi,
    base ratio 1/2, level-k ratio 1/|1 + e^{-i pi 2^-k}|; cut along the
    closed negative imaginary axis, and Re y >= 0 for Im x >= 0.  It has
    no ladder: its plans are plain truncations, whose discarded tail
    pi 2^-(K+1)/x the acceptance suite checks."""
    x = complex(x)
    if x == 0:
        raise DomainError("ei_stokes undefined at x = 0")
    return _EI_STOKES.at(-1j * x / math.pi)


def _ei_stokes(x: complex, s, tol: float, plan: Optional[DyadicPlan]) -> tuple:
    """G(x) = e^{-x} Ei^+(x) is e^y Ei(-y) at y = -x, less the jump across
    R^+ below it; the jump's rounding joins the estimate."""
    value, estimate, plan = _ei_left(-x, s, tol, plan)
    jump = 2j * math.pi * cmath.exp(-x) if x.imag < 0.0 < x.real else 0.0
    return value - jump, estimate + 8.0 * _EPS * abs(jump), plan


def ei_stokes(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """e^{-x} Ei^+(x) for x off the closed negative imaginary axis (the
    cut; within rounding of it counts as on it): ``ei_left(-x)``, less the
    Stokes jump 2 pi i e^{-x} across R^+ (DLMF 6.4) where Im x < 0 < Re x.

    For Re x > 0 and |x| >= 0.2 that is the dyadic factorial expansion
    valid across the Stokes ray.  With ``plan`` given (one for the path
    that serves the point, for conj x below the real axis) the caller owns
    the truncation; otherwise a plan meeting ``tol`` is derived first.
    """
    return run("ei-stokes", _ei_stokes, x, tol, plan=plan)


def ei_left_family(x: complex) -> FactorialFamily:
    """Left-plane exponential-integral family: c = -1 in x.  The base
    series, of ratio 1/(e-1), is minus the classical factorial series of
    Phi(1/e, 1, x); level k has ratio 1/(1 + e^{2^-k}).  The levels sum to
    e^x Ei(-x); the cut is the negative real axis, and the planner takes
    Re x >= 0."""
    x = complex(x)
    if x == 0:
        raise DomainError("ei_left undefined at x = 0")
    return _EI_LEFT.at(x)


def _ei_left_series(x: complex, tol: float, plan: Optional[DyadicPlan]) -> tuple:
    """e^x (gamma + Log x + sum_{n>=1} (-x)^n / (n n!)) for |x| < 0.2, where
    it cancels almost nothing.  n terms leave a tail below |x|^{n+1} /
    ((n+1) (n+1)! (1 - |x|)); the sum stops once that fits in half of tol,
    or at ``plan.n_terms[0]``.  Its plan is that one series (K = 0), and
    its estimate adds 8 eps times every size summed for rounding."""
    power, total, sizes, n = 1.0 + 0.0j, 0.0j, 0.0, 0
    while True:
        n += 1
        power *= -x / n
        total += power / n
        sizes += abs(power) / n
        tail = abs(power * x) / ((n + 1) ** 2 * (1.0 - abs(x)))
        if n >= plan.n_terms[0] if plan is not None else tail <= 0.5 * tol:
            break
    # x on R^- comes only from ei_stokes on R^+, where either zero Im x takes Ei^+
    log, scale = cmath.log(complex(x.real, x.imag or -0.0)), cmath.exp(x)
    estimate = tail + 8.0 * _EPS * abs(scale) * (_EULER_GAMMA + abs(log) + sizes)
    return scale * (_EULER_GAMMA + log + total), estimate, DyadicPlan(0, [n], estimate)


def _ei_left(x: complex, s, tol: float, plan: Optional[DyadicPlan]) -> tuple:
    if abs(x) < 0.2:
        return _ei_left_series(x, tol, plan)
    if x.real >= 0.0:
        plan, total, corr = evaluate(ei_left_family(x), tol, plan)
    else:   # the Stokes family at -x, or at -conj x above the real axis
        flip = x.imag > 0.0
        plan, total, corr = evaluate(ei_stokes_family(-(x.conjugate() if flip else x)), tol, plan)
        total = total.conjugate() if flip else total
    return total, plan.predicted_error + corr, plan


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
    return run("ei-left", _ei_left, x, tol, plan=plan)


def ei_left_base_stream() -> "CoefficientStream":
    """Coefficients c_k = (-1)^k e k! / (e-1)^{k+1} of the factorial series
    of the Lerch value Phi(1/e, 1, x), minus the base series of the
    left-plane expansion; its inverse-Laplace image is the geometric
    kernel e / (e - e^{-p})."""
    from .scalar import CoefficientStream

    def coeff(k: int) -> float:
        return (-1.0) ** k * math.e * math.exp(math.lgamma(k + 1.0)) / (math.e - 1.0) ** (k + 1)

    return CoefficientStream(coeff)


# the classical Ei-left factorial series that ``dyafact compare`` tries: the
# stream holds c_0..c_400, and the comparison stops short of 400 terms
EI_LEFT_CLASSICAL_TERMS = 400


def ei_left_classical_stream() -> "CoefficientStream":
    """Coefficients c_0..c_EI_LEFT_CLASSICAL_TERMS of the classical (half-plane,
    power-like) factorial series of e^x E_1(x) = -e^x Ei(-x): the Borel
    kernel 1/(1+p) pulled back through w = 1 - e^{-p} and expanded at
    w = 0 by power-series inversion of 1 - ln(1 - w)."""
    from .scalar import CoefficientStream

    d = [1.0] + [1.0 / i for i in range(1, EI_LEFT_CLASSICAL_TERMS + 1)]
    g = [1.0]
    for j in range(1, EI_LEFT_CLASSICAL_TERMS + 1):
        g.append(-sum(d[i] * g[j - i] for i in range(1, j + 1)))
    coeffs = []
    fact = 1.0
    for k, gk in enumerate(g):
        coeffs.append(gk * fact)
        fact *= k + 1

    return CoefficientStream(lambda k: coeffs[k])


_PSI = Template("psi-dyadic", 1.0, _frozen((_LEVELS > 1) * 1.0), _geometric(_ONES, 2.0 * _ONES),
                4.0, _SIGMA_LADDER)


def psi_family(x: complex) -> FactorialFamily:
    """Digamma double expansion: level k is the ratio-1/2 series in the
    shifted variable 2^k x + 1, which sums to Psi(x + 1) - ln x over
    k >= 1.  Level 0 stands in for the closed-form ln x term, with weight
    and planner size 0, so it always keeps one term and no level's shift
    comes near a pole for Re x >= 0."""
    x = complex(x)
    if x == 0:
        raise DomainError("psi_dyadic undefined at x = 0")
    return _PSI.at(x)


def _psi(x: complex, s, tol: float, plan: Optional[DyadicPlan]) -> tuple:
    plan, total, corr = evaluate(psi_family(x), tol, plan)
    log = cmath.log(x)
    value = log + total
    # the rounding of ln x and of its sum with the levels
    return value, plan.predicted_error + corr + 2.0 * _EPS * (abs(log) + abs(value)), plan


def psi_dyadic(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Psi(x + 1) = ln x + sum_{k>=1} sum_{j>=1} (j-1)! / (2^j (2^k x + 1)_j)
    for Re x > 0.  Plan entry 0 is the closed-form ln x term."""
    return run("psi", _psi, x, tol, plan=plan)


# ---------------------------------------------------------------------------
# incomplete gamma / erfc
# ---------------------------------------------------------------------------


_GAMMA_TERMS = 150  # terms a level may keep: the base coefficients overflow near m = 185
# terms of the shift from a = 1 to a level's a = e^{-2^-k}: level 1, the
# slowest, reaches rounding with about 110 at m = 151
_SHIFT_TERMS = 120


def _base_row(s: float, n: int) -> np.ndarray:
    """c_0..c_{n-1} of the base stream of order s, from the
    everywhere-positive sum

        c_m = (-1)^m sum_{j >= max(m,1)} j(j-1)...(j-m+1) j^{-s} e^{-j},

    whose terms are one running product over m on the vector of j: the
    factor j - m + 1 zeroes every j < m.  Terms peak near j = 1.6 m and
    fall below 1e-18 of the peak well before 3 n + 100.  Past m ~ 185 the
    sums overflow."""
    j = np.arange(1.0, 3 * n + 101)
    terms = j ** -s * np.exp(-j)
    sums = np.empty(n)
    for m in range(n):
        sums[m] = terms.sum()
        terms *= j - m
    return sums * (-1.0) ** np.arange(n)


def _level_coeffs(s: float, n: int) -> np.ndarray:
    """c_{k,0..n-1} of an order s > 0 for every level k = 1..MAX_LEVELS,
    from the positive-integrand representation

        c_{k,0} = -a L_0(a) / Gamma(s),  c_{k,m} = m! a^m J_m(a) / Gamma(s),
        L_j(a) = Int_0^inf t^{s-1} (e^t + a)^{-(j+1)} dt,
        J_m(a) = Int_0^inf t^{s-1} e^t (e^t + a)^{-(m+1)} dt,

    a = e^{-2^-k}, stable for every m (the Stirling-number form of the
    same derivatives cancels catastrophically past m ~ 20).  Since
    dJ_m/da = -(m+1) J_{m+1} and dL_j/da = -(j+1) L_{j+1},

        J_m(a) = sum_i C(m+i, i) (1-a)^i J_{m+i}(1),
        L_0(a) = sum_i (1-a)^i L_i(1),

    series of positive terms that converge the faster the deeper the
    level.  So the rows L_i(1) and J_{i+1}(1) are the only quadrature:
    one stack of two rows on shared Gauss nodes, each settling by its own
    check, and _SHIFT_TERMS terms of the shift give every level."""
    N = n + _SHIFT_TERMS
    # below t_lo the integrands are 2^{-(i+1)} t^{s-1} to 1e-15 relative
    t_lo = 1e-15 / N
    heads = 0.5 ** np.arange(1, N + 2) * t_lo ** s / s

    def integrals(refine: int, live: np.ndarray) -> np.ndarray:
        # L_i(1): t^{s-1} q^{i+1}, J_{i+1}(1): t^{s-1} e^t q^{i+2}, with
        # q = 1 / (e^t + 1) < 1, each times the Gauss weight
        t, w = panel_nodes(dyadic_edges(t_lo, 54.0 + 8.0 * s, refine))
        e_t = np.exp(t)
        q = 1.0 / (e_t + 1.0)
        p = np.exp((s - 1.0) * np.log(t)) * w * q
        p = np.stack([p, p * e_t * q])[live]
        return np.stack([heads[:N], heads[1:]])[live] + geometric_sums(
            p, np.broadcast_to(q, p.shape), N)

    L, J = refined(integrals, (1, 2, 4), 1e-12,
                   [f"{row} at a = 1 of order {s}" for row in ("L_i", "J_i")])
    eps = 2.0 ** -np.arange(1.0, MAX_LEVELS + 1)
    a = np.exp(-eps)
    i = np.arange(_SHIFT_TERMS)
    with np.errstate(under="ignore"):
        powers = (-np.expm1(-eps)) ** i[:, None]             # (1-a)^i
    m = np.arange(1, n)[:, None]
    # C(m+i, i) as the running product of (m + i) / i
    binom = np.multiply.accumulate(np.where(i > 0, (m + i) / np.maximum(i, 1), 1.0), axis=1)
    out = np.empty((MAX_LEVELS, n))
    out[:, 0] = -a * (L[:_SHIFT_TERMS] @ powers)
    out[:, 1:] = ((binom * J[m + i - 1]) @ powers).T
    out[:, 1:] *= np.multiply.accumulate(np.arange(1.0, n)) * np.exp(-eps[:, None] * m.T)
    return out / math.gamma(s)


@functools.cache
def _gamma_coeffs(s: float) -> np.ndarray:
    """The coefficients c_{k,m} of order s, read-only, of the
    ramified-polylog expansion of Gamma(1-s) e^x x^{-s} Gamma(s, x) (row 0
    the base stream).  Orders s in (-1, 0) take their level rows from the
    cached order s + 1 by one derivative shift,
    (-1)^m g_s^{(m)}(1) = -c_{s+1,m+1} + m c_{s+1,m}, which is why an
    order s > 0 holds one column more than its table; incomplete_gamma_dyadic
    keeps s in (-1, 1), s != 0."""
    n = _GAMMA_TERMS + 1
    if s < 0:
        c = _gamma_coeffs(s + 1.0)
        coeffs = -c[:, 1:] + np.arange(n) * c[:, :-1]
    else:
        coeffs = np.empty((MAX_LEVELS + 1, n + 1))
        coeffs[1:] = _level_coeffs(s, n + 1)
    coeffs[0] = _base_row(s, coeffs.shape[1])
    return _frozen(coeffs)


@functools.cache
def _gamma_build(s: float) -> Template:
    """The template of order s, whole.  Level k of the normalized
    incomplete-gamma expansion is sum_m c_{k,m} / (2^k x)_{m+1}, entering
    with weight -2^{ks} (the base with 1).  The table holds the term
    ratios c_{k,m} / c_{k,m-1} (c_{k,-1} = 1) over _GAMMA_TERMS + 1
    columns, so the leads are the first coefficients, 2^{ks} |c_{k,0}|."""
    c = _gamma_coeffs(s)[:, :_GAMMA_TERMS + 1]
    ratios = c / np.hstack([_ONES[:, None], c[:, :-1]])
    weight = -(_LEVELS ** s)
    weight[0] = 1.0
    return Template("incomplete-gamma", 0.0, _frozen(weight), _frozen(ratios), 4.0,
                    _gamma_ladder(s))


def _gamma_template(s: float) -> Template:
    """The template of order s as given, built once, under
    ``dyadic._BUILD_LOCK``, and never replaced."""
    with _BUILD_LOCK:
        return _gamma_build(float(s))


def _gamma_ladder(s: float) -> tuple:
    """Level k carries 2^-k(1-s) Li_s(-e^{-z/2^k}), analytic at z = 0: the
    K-level tail runs in 2^-(n+1-s)K, n = 0, 1, ..."""
    return tuple(n + 1.0 - s for n in range(4))


def _inc_gamma(x: complex, s: float, tol: float, plan: Optional[DyadicPlan]) -> tuple:
    if abs(s - round(s)) < 1e-12:       # the closed order range less its integers
        raise DomainError(f"incomplete_gamma_dyadic requires s at least 1e-12 from an integer, "
                          f"not s = {s}")
    if amplification(_gamma_ladder(s)) > MAX_AMPLIFICATION:
        # |s - 1| Gamma(s - 1, x) < x^(s-1) e^-x <= Gamma(s, x) (x + 1 - s) / x
        # on the real axis, so this tol keeps the sum within tol of Gamma(s, x)
        value, estimate, plan = _inc_gamma(x, s - 1.0, tol * abs(x) / (abs(x) + 1.0 - s), plan)
        head = x ** (s - 1.0) * cmath.exp(-x)
        # near s = 1 the head carries the value, and its rounding the error
        return (s - 1.0) * value + head, abs(s - 1.0) * estimate + 8.0 * _EPS * abs(head), plan
    fam = _gamma_template(s).at(x)
    # Gamma(s, x) >= x^s e^-x / (x + 1 - s) for real x > 0 and s < 1, so
    # this bounds the normalized series from below
    scale = math.gamma(1.0 - s) / (abs(x) + 1.0 - s)
    plan, total, corr = evaluate(fam, tol * scale, plan)
    front = x**s * cmath.exp(-x) / math.gamma(1.0 - s)
    return front * total, (plan.predicted_error + corr) * abs(front), plan


def incomplete_gamma_dyadic(s: float, x: complex, tol: float = 4e-9,
                            plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Upper incomplete gamma Gamma(s, x) for s in (-1, 1), s != 0, and
    Re x > 0 with |x| >= POCH_GUARD = 1e-12, below which the base series'
    first Pochhammer factor x counts as its pole.

    Evaluates the normalized factorial expansion of
    Gamma(1-s) e^x x^{-s} Gamma(s, x) (base stream at argument 1/e minus
    the dyadic polylog levels) and maps back; ``tol`` is relative to
    |Gamma(s, x)| and lies in (1e-14, 1e-1).  The series is planned at
    tol Gamma(1-s) / (|x| + 1 - s), tol times a lower bound on its size, as
    it stands, even below 1e-14; where rounding keeps that from being met,
    the estimate's rounding term (of the kept terms) reports it.

    Near s = 1 the ladder's first step factor 2^(1-s) tends to 1.  Orders
    whose ladder would magnify level errors more than MAX_AMPLIFICATION
    (s above about 0.85) are evaluated at s - 1 through DLMF 8.8.2,
    Gamma(s, x) = (s - 1) Gamma(s - 1, x) + x^(s-1) e^-x; the plan is then
    the one of order s - 1.
    """
    return run("inc-gamma", _inc_gamma, x, tol, s, plan)


def _erfc(x: float, s, tol: float, plan: Optional[DyadicPlan]) -> tuple:
    value, estimate, plan = _inc_gamma(complex(x), 0.5, tol, plan)
    rt = math.sqrt(math.pi)
    return value / rt, estimate / rt, plan


def erfc_dyadic(x: float, tol: float = 4e-9) -> EvalResult:
    """erfc(sqrt(x)) for x >= 1e-12, via Gamma(1/2, x) / sqrt(pi), with
    ``tol`` relative in (1e-14, 1e-1); ``incomplete_gamma_dyadic`` says
    how it is planned."""
    return run("erfc", _erfc, x, tol)
