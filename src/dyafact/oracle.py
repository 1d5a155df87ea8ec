"""Independent reference implementations used to calibrate and verify the
dyadic evaluators: adaptive Gauss-Kronrod quadrature of Laplace-integral
representations plus classical convergent series.

Nothing here shares code with the dyadic machinery, and nothing here
needs scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .scalar import NonconvergenceError

__all__ = [
    "NonconvergenceError",
    "ContourError",
    "Contour",
    "quad_adaptive",
    "quad_contour",
    "ei_plus_reference",
    "ei_series_reference",
    "ei_left_reference",
    "ei_classical_real",
    "psi_reference",
    "erfc_reference",
    "inc_gamma_reference",
    "airy_reference",
    "bessel_k_reference",
    "verify_strange_identity",
]

EULER_GAMMA = 0.5772156649015328606


class ContourError(ValueError):
    """Requested point lies outside the validity sector of a contour."""


# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG15 = np.zeros(15)
_WG15[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES))
    ik = half * np.sum(_WK * vals)
    ig = half * np.sum(_WG15 * vals)
    return ik, abs(ik - ig)


def quad_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    max_depth: int = 40,
) -> complex:
    """Integrate f over [a, b] (b may be inf) to ``abs_tol`` by adaptive
    panel bisection with the nested (G7, K15) rule.

    Semi-infinite ranges are truncated where the integrand magnitude has
    fallen below abs_tol * 1e-2 per unit length-scale.
    """
    if math.isinf(b):
        b = _truncation_point(f, a, abs_tol)
    coarse, _ = _gk15(f, a, b)
    scale = abs(coarse) + abs_tol  # rounding floor for panel acceptance
    stack = [(a, b, 0)]
    total = 0.0 + 0.0j
    err = 0.0
    while stack:
        lo, hi, depth = stack.pop()
        val, e = _gk15(f, lo, hi)
        if (e <= abs_tol * (hi - lo) / (b - a) or e <= 1e-15 * scale
                or hi - lo <= 1e-13 * (b - a)):
            total += val
            err += e
            continue
        if depth >= max_depth:
            raise NonconvergenceError(
                f"quadrature panel [{lo}, {hi}] not converged after depth {max_depth}"
            )
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return total


def _truncation_point(f, a: float, abs_tol: float) -> float:
    scale = max(abs(a), 1.0)
    cutoff = abs_tol * 1e-2
    t = a + scale
    probe_prev = np.max(np.abs(np.asarray(f(np.array([a + 0.25 * scale, a + 0.5 * scale])))))
    ref = max(probe_prev, 1e-300)
    while t < a + 1e9:
        probe = np.max(np.abs(np.asarray(f(np.array([t, t * 1.01 + 1e-3])))))
        if probe <= cutoff * max(ref, 1.0) / scale:
            return t
        t *= 2.0
    raise NonconvergenceError("integrand does not decay on the semi-infinite range")


@dataclass(frozen=True)
class Contour:
    """Piecewise-linear contour in the complex plane, starting at 0."""

    points: Sequence[complex]  # consecutive segment endpoints, first = start

    def __post_init__(self):
        if len(self.points) < 2:
            raise ContourError("contour needs at least one segment")
        if self.points[0] != 0:
            raise ContourError("contour must start at 0")


def quad_contour(f: Callable[[np.ndarray], np.ndarray], contour: Contour,
                 abs_tol: float = 1e-12, tail_direction: complex | None = None,
                 tail_scale: float = 1.0) -> complex:
    """Integrate f along the contour; if ``tail_direction`` is given the
    last point continues along a semi-infinite ray in that direction."""
    total = 0.0 + 0.0j
    pts = list(contour.points)
    for z0, z1 in zip(pts[:-1], pts[1:]):
        seg = z1 - z0
        g = lambda t, z0=z0, seg=seg: f(z0 + np.asarray(t) * seg) * seg
        total += quad_adaptive(g, 0.0, 1.0, abs_tol)
    if tail_direction is not None:
        d = tail_direction / abs(tail_direction)
        z0 = pts[-1]
        g = lambda t, z0=z0, d=d: f(z0 + np.asarray(t) * d) * d
        total += quad_adaptive(g, 0.0, math.inf, abs_tol * tail_scale)
    return total


def ei_plus_reference(x: complex, abs_tol: float = 1e-11) -> complex:
    """e^{-x} Ei^+(x) by quadrature of the Borel integral of 1/(1-p) along
    the ray p = t e^{i phi}, phi = -min(pi/4, (pi/2 + arg x)/2), which
    passes below the pole and keeps |e^{-p x}| <= 1: p x turns at most
    halfway from the positive real axis to the imaginary one, so the
    integrand neither grows nor oscillates much faster than it decays.

    Valid on the sector Re x > 0.05 |x|; outside it a ContourError is raised.
    """
    x = complex(x)
    if x.real <= 0.05 * abs(x):
        raise ContourError("ei_plus_reference contour requires Re x > 0.05 |x|")
    f = lambda p: np.exp(-p * x) / (1.0 - p)
    ray = cmath.exp(-1j * min(math.pi / 4.0, (math.pi / 2.0 + cmath.phase(x)) / 2.0))
    return quad_contour(f, Contour((0.0 + 0.0j, ray)), abs_tol, tail_direction=ray)


def _ei_entire(x: complex) -> complex:
    """The entire part sum_{n>=1} x^n / (n n!) of Ei."""
    term = 1.0 + 0.0j
    s = 0.0 + 0.0j
    n = 0
    while True:
        n += 1
        term *= x / n
        inc = term / n
        s += inc
        if abs(inc) <= 1e-18 * max(abs(s), 1.0) and n > 4 or n > 600:
            return s


def ei_series_reference(x: complex) -> complex:
    """e^{-x} Ei^+(x) from the entire series gamma + ln x + sum x^n/(n n!) - i pi,
    with the log branch cut placed along the negative imaginary axis.

    Analytic continuation of the contour integral to all of the cut plane;
    used to cross-check the quadrature and to reach arguments outside its
    sector.
    """
    x = complex(x)
    if x == 0:
        raise ContourError("ei_series_reference undefined at x = 0")
    arg = math.atan2(x.imag, x.real)
    if arg < -math.pi / 2:
        arg += 2.0 * math.pi  # branch cut along -i R^+
    ln_cut = math.log(abs(x)) + 1j * arg
    return cmath.exp(-x) * (EULER_GAMMA + ln_cut + _ei_entire(x) - 1j * math.pi)


def ei_left_reference(x: complex, abs_tol: float) -> complex:
    """-e^x E_1(x) to ``abs_tol`` off the cut along the negative axis: the
    Laplace integral of e^{-xp} / (1 + p) on the ray p = t conj(x)/|x|.
    There e^{-xp} = e^{-|x| t} decays for every x, and the ray misses
    p = -1 off the cut.  The integral runs in s = m t, m = max(|x|, 1),
    so the peak of width 1/|x| is about 1 wide however large |x| is."""
    x = complex(x)
    m = max(abs(x), 1.0)
    d, rate = x.conjugate() / abs(x) / m, abs(x) / m
    return -d * quad_adaptive(lambda s: np.exp(-rate * s) / (1.0 + d * s), 0.0, math.inf, abs_tol)


def ei_classical_real(x: float) -> float:
    """Classical Ei(x) for real x > 0 via gamma + ln x + sum x^n/(n n!)."""
    if x <= 0:
        raise ContourError("ei_classical_real requires x > 0")
    term = 1.0
    s = 0.0
    n = 0
    while True:
        n += 1
        term *= x / n
        inc = term / n
        s += inc
        if inc <= 1e-18 * max(s, 1.0) and n > 4:
            return EULER_GAMMA + math.log(x) + s


# Bernoulli numbers B_{2n} for the digamma asymptotic series.
_PSI_ASYMP = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def psi_reference(z: complex) -> complex:
    """Digamma function for Re z > 0: upward recurrence into the
    asymptotic region then the standard Bernoulli series."""
    z = complex(z)
    if z.real <= 0:
        raise ContourError("psi_reference requires Re z > 0")
    acc = 0.0 + 0.0j
    while z.real < 12.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    s = 0.0 + 0.0j
    wn = w
    for n, b in enumerate(_PSI_ASYMP, start=1):
        s += b / (2.0 * n) * wn
        wn *= w
    return acc + cmath.log(z) - 0.5 / z - s


def erfc_reference(x: float) -> float:
    """erfc(sqrt(x)) for x >= 0, as ``erfc_dyadic`` takes x: Maclaurin
    series in y = sqrt(x) up to y = 1.5 (cancellation grows like e^{x}
    against the tiny result beyond), Lentz continued fraction above, with
    its front e^{-x} taken from x itself, not from y^2."""
    if not x >= 0:
        raise ContourError("erfc_reference requires x >= 0")
    y = math.sqrt(x)
    if y <= 1.5:
        t = y
        s = y
        n = 0
        while True:
            n += 1
            t *= -x / n
            inc = t / (2 * n + 1)
            s += inc
            if abs(inc) < 1e-18 * max(abs(s), 1e-300):
                break
        return 1.0 - 2.0 / math.sqrt(math.pi) * s
    # erfc(y) = e^{-y^2}/sqrt(pi) * 1/(y + (1/2)/(y + 1/(y + (3/2)/(y + ...))))
    tiny = 1e-300
    b = y
    c = 1e300
    d = 1.0 / b
    h = d
    for n in range(1, 400):
        an = 0.5 * n
        d = 1.0 / (b + an * d) if (b + an * d) != 0 else 1.0 / tiny
        c = b + an / c if c != 0 else tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x) / math.sqrt(math.pi) * h


def inc_gamma_reference(s: float, x: complex, abs_tol: float = 1e-13) -> complex:
    """Upper incomplete gamma Gamma(s, x) for s < 1 and Re x > 0 by
    quadrature of  x^s e^{-x} Int_0^inf (1+u)^{s-1} e^{-x u} du."""
    x = complex(x)
    if x.real <= 0:
        raise ContourError("inc_gamma_reference requires Re x > 0")
    f = lambda u: (1.0 + u) ** (s - 1.0) * np.exp(-x * u)
    integral = quad_adaptive(f, 0.0, math.inf, abs_tol)
    return x**s * cmath.exp(-x) * integral


def bessel_k_reference(nu: float, x: float, abs_tol: float = 1e-13) -> float:
    """Modified Bessel K_nu(x) for x > 0 via Int_0^inf e^{-x cosh t} cosh(nu t) dt,
    with the e^{-x} front factor pulled out so the integrand stays O(1).
    Its exponent x (cosh t - 1) is 2 x sinh^2(t/2): the cancelled form's
    rounding noise keeps panels from converging at large x."""
    if x <= 0:
        raise ContourError("bessel_k_reference requires x > 0")
    t_max = math.acosh(1.0 + 48.0 / x) + 0.75
    f = lambda t: np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t)
    return math.exp(-x) * float(quad_adaptive(f, 0.0, t_max, abs_tol).real)


def airy_reference(x: float) -> float:
    """Ai(x) for x > 0 through the K_{1/3} integral representation
    Ai(x) = (1/pi) sqrt(x/3) K_{1/3}((2/3) x^{3/2})."""
    if x <= 0:
        raise ContourError("airy_reference requires x > 0")
    zeta = 2.0 / 3.0 * x**1.5
    return math.sqrt(x / 3.0) / math.pi * bessel_k_reference(1.0 / 3.0, zeta)


def verify_strange_identity(x: complex, K: int) -> float:
    """Residual of the dyadic self-referencing digamma identity

        Psi(x+1) = ln x + (1/2) sum_{k=0}^{K} [Psi(2^k x + 1) - Psi(2^k x + 1/2)]

    with both sides evaluated by the reference digamma.  The residual
    decays geometrically in K.
    """
    x = complex(x)
    if x.real <= 0:
        raise ContourError("verify_strange_identity requires Re x > 0")
    s = 0.0 + 0.0j
    for k in range(K + 1):
        xk = 2.0**k * x
        s += psi_reference(xk + 1.0) - psi_reference(xk + 0.5)
    return abs(psi_reference(x + 1.0) - cmath.log(x) - 0.5 * s)
