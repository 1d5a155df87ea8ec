"""The Airy/Bessel pipeline: evaluate the Borel-plane Legendre kernel
F(p) = P_{nu-1/2}(1 + 2p) by power-series continuation of its linear
ODE (every grid step's 2x2 transfer map formed in one vectorized pass,
then chained along the grid), accumulate the dyadic coefficient
integrals d_m and d_km by quadrature into one read-only table per order
(``CoefficientTable``, which also holds the expansion's ``Template``),
assemble the dyadic factorial expansion of the normalized solution h,
and map back to Ai and K_nu.

The kernel has a logarithmic branch point at p = -1 whose jump is
-2 i cos(pi nu) F(p); pushing the Cauchy contour onto that cut gives

    F'(p) = -(cos(pi nu) / pi) Int_0^inf F(t) / (1 + p + t)^2 dt,

valid for |nu| < 3/2 (the kernel grows like p^{nu - 1/2}, so the circle
at infinity still vanishes).  One integration by parts of h = L[F] plus
the differentiated dyadic Cauchy decomposition then yields

    h(x) = F(0)/x - kappa * [ sum_{m>=2} (-1)^m G(m) d_m / (x)_m
           + sum_{k>=1} e^{2^-k} sum_{m>=2} G(m) d_km / (2^k x)_m ],

with kappa = cos(pi nu)/pi.  (The 2^-k weight that appears mid-derivation
is absorbed exactly by rewriting x (2^k x + 1)_{m-1} as 2^-k (2^k x)_m;
keeping it would double-count, which direct quadrature of the double
integral confirms.)  Half-integer orders have cos(pi nu) = 0 and a
polynomial kernel: h is a finite explicit sum, whose estimate is its
rounding.  Orders 3/2 <= |nu| <= 5 are reached through the upward
Bessel recurrence on K_nu, seeded by two direct orders.  Airy and
Bessel-K run the h path under their fronts through ``dyadic.run``;
``bessel_h`` is the profile itself, and order 1/3 the Airy profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._gauss import dyadic_edges, geometric_sums, panel_nodes, refined
from .dyadic import (
    _BUILD_LOCK,
    _EPS,
    _LEVELS,
    LADDER_LEVELS,
    MAX_AMPLIFICATION,
    MAX_LEVELS,
    DyadicPlan,
    EvalResult,
    Template,
    _frozen,
    _result,
    amplification,
    evaluate,
    run,
)
from .functions import _H_LARGEST, FUNCTIONS, check_tol
from .scalar import DomainError, NonconvergenceError

__all__ = [
    "BorelKernel",
    "CoefficientTable",
    "airy_from_h",
    "bessel_h",
    "bessel_k_dyadic",
    "get_table",
]

_TAYLOR_CUT = 0.5
_GRID_DQ = 0.02
_SERIES_TERMS = 60
_TAU_HI = 70.0  # dyadic-level integrals live on tau in [2^-k, ~70/(m-1)]
_NU_MAX = FUNCTIONS["bessel-k"].order[1]


def _taylor_coeffs(nu: float, n: int = 100) -> np.ndarray:
    a = np.empty(n)
    a[0] = 1.0
    for k in range(n - 1):
        a[k + 1] = -a[k] * ((k + 0.5) ** 2 - nu * nu) / ((k + 1.0) ** 2)
    return a


def _germ(p, coeffs: np.ndarray):
    """The power series with ``coeffs`` at p (vectorized): the powers of p
    in one pass, then one product with the coefficients."""
    return (np.asarray(p)[..., None] ** np.arange(len(coeffs))) @ coeffs


def _transfer_maps(p0: np.ndarray, h: np.ndarray, c: float) -> np.ndarray:
    """The 2x2 maps, one per step p0 -> p0 + h, that carry the jet
    (F, h F') of the linear kernel ODE p(1+p) F'' + (1+2p) F' + c F = 0
    across the step, less the identity: a step adds its increments to the
    jet, so 750 chained steps round as the increments do (a map holding
    the identity rounds each step like a fresh product, 20 times worse
    over the grid).  Column j is the step's power series about p0 summed
    from the unit jet e_j, with terms t_n = a_n h^n,

        a_{n+2} = -[(1+2p0) (n+1)^2 a_{n+1} + (n(n+1) + c) a_n]
                  / (p0 (1+p0) (n+1) (n+2)).

    All steps are summed at once, term by term, until every step has
    converged (at most _SERIES_TERMS terms); raises NonconvergenceError
    otherwise, as for a step beyond the series' radius p0."""
    pp = p0 * (1.0 + p0)
    alpha, beta = (1.0 + 2.0 * p0) * h / pp, h * h / pp
    # axis 0 is the unit jet e_0 = (1, 0) or e_1 = (0, 1), axis 1 the step
    t0 = np.zeros((2, len(p0)))
    t1 = np.zeros((2, len(p0)))
    t0[0] = t1[1] = 1.0
    val, der = t1.copy(), np.zeros_like(t1)     # the increments of F and h F'
    for n in range(_SERIES_TERMS):
        t0, t1 = t1, -(alpha * (n + 1) ** 2 * t1 + beta * (n * (n + 1) + c) * t0) / ((n + 1) * (n + 2))
        val += t1
        der += (n + 2) * t1
        if np.all((n + 2) * (np.abs(t0) + np.abs(t1)) <= 1e-18):
            return np.stack([val, der])          # (row, jet, step)
    bad = int(np.argmax(np.max(np.abs(t0) + np.abs(t1), axis=0)))
    raise NonconvergenceError(f"kernel series did not converge from p = {p0[bad]} over {h[bad]}")


@dataclass(eq=False)
class BorelKernel:
    """Borel-plane kernel of order nu with its Taylor germ at 0 and its
    value and derivatives on log-spaced nodes, continued node to node by
    the power series' transfer maps of the ODE (``_transfer_maps``) out to
    ``p_far`` (whatever the requested dyadic depth needs).
    """

    nu: float
    taylor_coeffs: np.ndarray
    q_grid: np.ndarray          # q = log(1 + p), from log(1.5)
    f_grid: np.ndarray          # F
    fq_grid: np.ndarray         # dF/dq
    quintic: np.ndarray         # (5, nodes - 1): F - F(node) on each step, in powers of th
    p_far: float

    @staticmethod
    def build(nu: float, p_far: Optional[float] = None) -> "BorelKernel":
        if abs(nu) > _NU_MAX:
            raise DomainError(f"kernel order restricted to |nu| <= {_NU_MAX:g}")
        nu = abs(nu)  # P_{nu-1/2} = P_{-nu-1/2}: the kernel is even in nu
        tc = _taylor_coeffs(nu)
        p_far = max(p_far or 0.0, 4000.0)
        c = 0.25 - nu * nu

        # log-spaced nodes q = log(1+p): each step is at most 6 % of the
        # distance p to the singular point 0, the series' radius
        q0 = math.log(1.0 + _TAYLOR_CUT)
        q1 = math.log(1.0 + p_far)
        grid = np.linspace(q0, q1, int((q1 - q0) / _GRID_DQ) + 2)
        p = np.expm1(grid)
        h = np.diff(p)
        maps = _transfer_maps(p[:-1], h, c)
        # on (F, F') a step adds diag(1, 1/h) maps diag(1, h) times the jet
        a, b = maps[0, 0].tolist(), (maps[0, 1] * h).tolist()
        d, e = (maps[1, 0] / h).tolist(), maps[1, 1].tolist()
        fn, dfn = float(_germ(p[0], tc)), float(_germ(p[0], tc[1:] * np.arange(1, len(tc))))
        jet = [(fn, dfn)]
        for an, bn, dn, en in zip(a, b, d, e):
            fn, dfn = fn + (an * fn + bn * dfn), dfn + (dn * fn + en * dfn)
            jet.append((fn, dfn))
        f, df = np.array(jet).T  # F and dF/dp
        fq = (1.0 + p) * df
        fqq = -((p + 1.0) / p) * (fq + c * f)       # d2F/dq2, from the ODE
        # the quintic Hermite interpolant of (F, dF/dq, d2F/dq2) on each step,
        # in th = (q - q_i) / dq: F_i + sum_j quintic[j - 1] th^j.  Adjacent
        # F differ by less than a factor 2, so dy is exact.
        dq = np.diff(grid)
        dy, d0, d1 = np.diff(f), fq[:-1] * dq, fq[1:] * dq
        s0, s1 = fqq[:-1] * dq * dq, fqq[1:] * dq * dq
        quintic = np.stack([d0, 0.5 * s0,
                            10.0 * dy - 6.0 * d0 - 4.0 * d1 - 1.5 * s0 + 0.5 * s1,
                            -15.0 * dy + 8.0 * d0 + 7.0 * d1 + 1.5 * s0 - s1,
                            6.0 * dy - 3.0 * d0 - 3.0 * d1 - 0.5 * s0 + 0.5 * s1])
        return BorelKernel(nu=nu, taylor_coeffs=tc, q_grid=grid,
                           f_grid=f, fq_grid=fq, quintic=quintic, p_far=p_far)

    # -- evaluation -------------------------------------------------------

    def _hermite(self, q: np.ndarray) -> np.ndarray:
        """F by quintic Hermite interpolation of the value and the first
        and second derivatives at the grid nodes, by Horner's rule in th
        over each step's ``quintic``."""
        idx = np.clip(np.searchsorted(self.q_grid, q) - 1, 0, len(self.q_grid) - 2)
        th = (q - self.q_grid[idx]) / (self.q_grid[idx + 1] - self.q_grid[idx])
        c = self.quintic[:, idx]
        acc = c[4] * th
        for j in (3, 2, 1, 0):
            acc += c[j]
            acc *= th
        return self.f_grid[idx] + acc

    def eval_raw(self, p) -> np.ndarray:
        """F(p) on [0, p_far] (vectorized); DomainError outside."""
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        if np.any(p < 0) or np.any(p > self.p_far):
            raise DomainError(f"kernel sample outside [0, {self.p_far}]")
        out = np.empty_like(p)
        small = p <= _TAYLOR_CUT
        if np.any(small):
            out[small] = _germ(p[small], self.taylor_coeffs)
        if np.any(~small):
            out[~small] = self._hermite(np.log1p(p[~small]))
        return out[0] if scalar else out


def _build_base_row(kern: BorelKernel, M: int, target: float) -> np.ndarray:
    """All d_m, m in [2, M], from one shared kernel sampling: the m
    dependence is a power of one factor at each quadrature node."""

    def row(n_panels: int, live: np.ndarray) -> np.ndarray:
        t, w = panel_nodes(np.linspace(0.0, 50.0 + 42.0, n_panels + 1))
        u = t + 1.0
        # e^{-(m-1)u} (1 - e^{-u})^{-m} = e^u q^m with q = 1 / (e^u - 1) < 1
        q = 1.0 / np.expm1(u)
        return geometric_sums(kern.eval_raw(t) * w * np.exp(u) * q * q, q, M - 1)[None]

    return refined(row, (96, 192, 384), 100.0 * target, [f"d_m row of order {kern.nu}"], 1e-30)[0]


def _build_level_rows(kern: BorelKernel, M: int, K: int, target: float) -> np.ndarray:
    """All d_km, k in [1, K], m in [2, M]: level k integrates
    F(2^k tau - 1) e^{tau - 2^-k} 2^k (1 + e^tau)^-m over dyadic panels of
    tau in [2^-k, _TAU_HI + 8].

    In units of 2^-k the edges of level k are those of level K less its
    top panels, and scaling by 2^(K-k) is exact, so level k's kernel nodes
    2^k tau - 1 are the first of level K's, bit for bit: F is sampled once
    per refinement on level K's nodes, and level k reads a prefix.  In
    tau itself level k's panels are level K's above its own bottom halving
    [2^-k, ~2^(1-k)], so each power q^m, q = 1 / (1 + e^tau), is formed
    once on level K's nodes above its bottom halving, and every level's
    sum over it is one entry of A @ q^m, A holding each level's samples
    times its weights (0 below the level's panels).  The bottom
    halvings, the same panels in units of 2^-k at every level, add a
    small stacked sum of their own.  Each level settles by its own
    refinement check."""
    levels = np.arange(1, K + 1)
    # the factor 2^k e^{-2^-k} of each level, and 2^(K-k), which maps level
    # K's bottom halving onto level k's
    scale = 2.0**levels * np.exp(-(2.0**-levels))
    stretch = 2.0 ** (K - levels)

    def rows(refine: int, live: np.ndarray) -> np.ndarray:
        edges = dyadic_edges(2.0**-K, _TAU_HI + 8.0, refine)
        tau, w = panel_nodes(edges)
        nb = len(tau) // (len(edges) - 1) * refine            # nodes of one halving
        f = kern.eval_raw(2.0**K * tau - 1.0)
        ks = levels[live]
        # above the bottom halvings, on tau[nb:], level k holds the samples
        # f[nb:] from node (K - k) nb on: window (k - 1) nb over f[nb:]
        # padded in front by (K - 1) nb zeros
        window = np.lib.stride_tricks.sliding_window_view(
            np.append(np.zeros((K - 1) * nb), f[nb:]), len(tau) - nb)
        q = np.exp(-np.logaddexp(tau[nb:], 0.0))
        weight = w[nb:] * np.exp(tau[nb:]) * q * q
        a = window[(ks - 1) * nb]
        a *= weight
        top = geometric_sums(a, q, M - 1)
        # the bottom halving of level k: level K's, stretched by 2^(K-k)
        tb = stretch[live, None] * tau[:nb]
        qb = np.exp(-np.logaddexp(tb, 0.0))
        bottom = (f[:nb] * w[:nb] * 2.0**K) * np.exp(tb - 2.0**-ks[:, None]) * qb * qb
        return scale[live, None] * top + geometric_sums(bottom, qb, M - 1)

    return refined(rows, (2, 4, 8), 100.0 * target,
                   [f"level {k} d_km row of order {kern.nu}" for k in levels], 1e-30)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """One kernel order's coefficients and the argument-free half of its
    h-expansion, all read-only: d_m (m in [2, M]) and d_km (k in [1, K],
    m in [2, M]), and over them the expansion's ``template``.

    The expansion h(u) = (1 + S(u)) / u, with S the sum of the template's
    levels at u: level k is u sum_{m>=2} sign_m G(m) d_km / (u_k)_m,
    u_k = 2^k u, a factorial series in u_k + 1 (base terms alternate,
    sign_m = (-1)^m), entering with weight -kappa e^{2^-k} / 2^k (-kappa
    for the base).  Column 0 of the numerators is d_{k,2}, so a level's
    terms are u_k times its own and 1/2^k joins the weight; then
    t_{i+1} / t_i = sign_k (i + 1) d_{k,i+2} / d_{k,i+1}.  No weight
    depends on u, and S is h relative to its size 1/|u|."""

    nu: float
    M: int
    K: int
    dm: np.ndarray           # shape (M-1,), index m-2
    dkm: np.ndarray          # shape (K, M-1), index (k-1, m-2)
    template: Template       # K + 1 levels, table shape (K+1, M-1)

    @staticmethod
    def build(kern: BorelKernel, M: int, K: int, target: float = 1e-13) -> "CoefficientTable":
        """d_m and the d_km of levels 1..K to ``target``, every level in
        one stacked pass per refinement (``_build_level_rows``), and the
        expansion over them.  ``kern`` must reach p = 2^K (_TAU_HI + 8) - 1."""
        if K > MAX_LEVELS:
            raise DomainError(f"table depth capped at {MAX_LEVELS} levels")
        dm = _build_base_row(kern, M, target)
        dkm = _build_level_rows(kern, M, K, target) if K else np.empty((0, M - 1))
        rows = np.vstack([dm, dkm])                    # d_{k,m}, m = 2..M
        scale = _LEVELS[:K + 1]
        sign = np.ones(K + 1)
        sign[0] = -1.0
        kappa = math.cos(math.pi * kern.nu) / math.pi
        weight = -kappa * np.exp(1.0 / scale) / scale
        weight[0] = -kappa
        numer = np.empty(rows.shape)
        numer[:, 0] = rows[:, 0]
        numer[:, 1:] = sign[:, None] * np.arange(2.0, M) * rows[:, 1:] / rows[:, :-1]
        template = Template("h-expansion", 1.0, _frozen(weight), _frozen(numer), 1.3,
                            _h_ladder(kern.nu))
        return CoefficientTable(kern.nu, M, K, _frozen(dm), _frozen(dkm), template)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def get_table(nu: float, M: int, K: int) -> CoefficientTable:
    """The table of order |nu| as given, with d_m up to m = M and K levels,
    on a kernel of its own that reaches level K.  Each (order, M, K) is
    built once, under ``dyadic._BUILD_LOCK``, and never replaced or grown."""
    with _BUILD_LOCK:
        return _table(abs(float(nu)), M, K)


@functools.cache
def _table(nu: float, M: int, K: int) -> CoefficientTable:
    return CoefficientTable.build(BorelKernel.build(nu, p_far=2.0**K * (_TAU_HI + 8.0)), M, K)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _is_half_integer(nu: float) -> bool:
    """2 nu is an odd integer, exactly: any other order takes the dyadic expansion."""
    return 2.0 * nu % 2.0 == 1.0


def _h_ladder(nu: float) -> tuple:
    """The kernel grows like p^(nu-1/2) and p^(-nu-1/2) at large p, so the
    level tails run in two ladders, a + n and 3/2 + nu + n with
    a = 3/2 - nu: the first four exponents of both."""
    a = 1.5 - nu
    return tuple(sorted((a, a + 1.0, 1.5 + nu, min(a + 2.0, 2.5 + nu))))


def _h(u: complex, nu: float, tol: float) -> tuple:
    nu = abs(nu)
    u = complex(u)
    if _is_half_integer(nu):
        # polynomial kernel, vanishing branch jump: h is a finite sum, and
        # its estimate is its rounding.  Term i carries the 2i operations of
        # tc[i], the at most i + 1 products of u^(i+1) and its own two, the
        # sum deg more, each at most eps of the magnitudes it combines
        deg = int(round(nu - 0.5))
        tc = _taylor_coeffs(nu, deg + 2)
        terms = [math.factorial(i) * tc[i] / u ** (i + 1) for i in range(deg + 1)]
        val = complex(sum(terms))
        est = _EPS * float(sum((3 * i + 3 + deg) * abs(t) for i, t in enumerate(terms)))
        return val, est, DyadicPlan(K=0, n_terms=[deg + 1], predicted_error=est / abs(val))
    if nu >= 1.5:
        raise DomainError("direct h-expansion limited to |nu| < 3/2; "
                          "use bessel_k_dyadic for larger orders")
    # the Richardson steps keep every plan within LADDER_LEVELS levels, and at
    # |u| = 1 and tol 1e-12 shallow levels keep up to 43 terms
    plan, total, corr = evaluate(get_table(nu, 66, LADDER_LEVELS).template.at(u), tol)
    value = (1.0 + total) / u  # F(0) = P_{nu-1/2}(1) = 1
    # and the rounding of (1 + S) / u, two operations
    return value, (plan.predicted_error + 2.0 * _EPS) * abs(value) + corr / abs(u), plan


# Large-argument asymptotics (DLMF 9.7, 10.40) fix the normalizations
# exactly: h(u) ~ 1/u, Ai(x) ~ e^{-(2/3) x^{3/2}} / (2 sqrt(pi) x^{1/4})
# and K_nu(x) ~ sqrt(pi / (2x)) e^{-x}.
_AIRY_C = 2.0 / (3.0 * math.sqrt(math.pi))
_BESSEL_C = math.sqrt(2.0 * math.pi)


def _airy(x: float, s, tol: float, plan) -> tuple:
    value, estimate, plan = _h(4.0 / 3.0 * x**1.5, 1.0 / 3.0, tol)
    zeta = 2.0 / 3.0 * x**1.5
    front = _AIRY_C * x**1.25 * math.exp(-zeta)
    value = front * value
    # 2 eps zeta bounds the rounding of zeta, which e^-zeta makes relative
    # to the value; the front and its product with h add six operations
    return value, front * estimate + _EPS * (6.0 + 2.0 * zeta) * abs(value), plan


def airy_from_h(x: float, tol: float = 1e-10) -> EvalResult:
    """Ai(x) for x >= (3/4)^(2/3) ~ 0.8255 through the normalization map
    Ai(x) = C x^{5/4} e^{-(2/3) x^{3/2}} h((4/3) x^{3/2}), whose argument
    the h-expansion takes from 1 on."""
    return run("airy", _airy, x, tol)


def bessel_h(nu: float, x: complex, tol: float = 1e-10) -> EvalResult:
    """Normalized modified-Bessel profile h of order nu at argument x,
    with ``tol`` relative; Re x > 0 and 1 <= |x| <= functions._H_LARGEST
    (2.743e303), up to which every level argument 2^k x stays finite.
    Order 1/3 is the Airy profile.

    Direct dyadic expansion for |nu| < 3/2; exact finite form at
    half-integer orders.  Larger orders go through bessel_k_dyadic.
    """
    if not abs(nu) <= _NU_MAX:
        raise DomainError(f"bessel_h restricted to finite |nu| <= {_NU_MAX:g}")
    u = complex(x)
    if not (u.real > 0 and 1.0 <= abs(u) <= _H_LARGEST):
        raise DomainError(f"h-expansion requires Re x > 0 and 1 <= |x| <= {_H_LARGEST:.4g}, "
                          f"not x = {u}")
    check_tol(tol)
    return _result(*_h(u, nu, tol), tol, relative=True)


def _bessel_k(x: float, nu: float, tol: float, plan) -> tuple:
    nu = abs(nu)
    if nu >= 1.5 or amplification(_h_ladder(nu)) > MAX_AMPLIFICATION:
        mu = nu - math.floor(nu)      # the seeds' orders 1 - mu and mu take the direct path
        (v_lo, e_lo, lo), (v_hi, e_hi, hi) = (_bessel_k(x, m, tol, plan) for m in (mu - 1.0, mu))
        # a step adds positive terms, so it adds their absolute errors, weighted
        # as the values, and its own rounding (four operations)
        steps = math.floor(nu)
        for _ in range(steps):
            c = 2.0 * mu / x
            v_lo, v_hi = v_hi, v_lo + c * v_hi
            e_lo, e_hi = e_hi, e_lo + c * e_hi + 4.0 * _EPS * abs(v_hi)
            mu += 1.0
        # and so keeps the larger relative error of the seeds
        return v_hi, e_hi, DyadicPlan(K=0, n_terms=[lo.terms_total + hi.terms_total],
                                      predicted_error=max(lo.predicted_error, hi.predicted_error)
                                      + 4.0 * steps * _EPS)
    value, est, plan = _h(2.0 * x, nu, tol)
    front = _BESSEL_C * math.exp(-x) * math.sqrt(x)
    value, est = front * value, front * est
    # the rounding of the front and of its product with h, six operations
    return value, est + 6.0 * _EPS * abs(value), plan


def bessel_k_dyadic(nu: float, x: float, tol: float = 1e-9) -> EvalResult:
    """K_nu(x) for x >= 0.5, |nu| <= 5: normalization map on the
    h-expansion at 2x, which it takes from 1 on.

    Orders whose ladder would magnify level errors more than
    MAX_AMPLIFICATION (|nu| above about 1.34, where 2^(3/2-nu) tends to
    1) go through the stable upward recurrence
    K_{mu+1} = K_{mu-1} + (2 mu / x) K_mu, seeded from K_{mu-1} = K_{1-mu}
    and K_mu with mu = frac(|nu|).  Every term is positive, so the
    recurrence keeps the seeds' relative accuracy."""
    return run("bessel-k", _bessel_k, x, tol, nu)
