"""The Airy/Bessel pipeline: evaluate the Borel-plane Legendre kernel
F(p) = P_{nu-1/2}(1 + 2p) by power-series continuation of its ODE,
accumulate the dyadic coefficient integrals d_m and d_km by quadrature,
assemble the dyadic factorial expansion of the normalized solution h, and
map back to Ai and K_nu.

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
polynomial kernel: h is a finite explicit sum.  Orders 3/2 <= |nu| <= 5
are reached through the upward Bessel recurrence on K_nu.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._gauss import chunks, dyadic_edges, geometric_sums, panel_nodes, refined
from .dyadic import (
    _EPS,
    LADDER_LEVELS,
    MAX_AMPLIFICATION,
    MAX_LEVELS,
    DyadicPlan,
    EvalResult,
    FactorialFamily,
    _frozen,
    _result,
    amplification,
    evaluate,
)
from .scalar import DomainError, _finite_x

__all__ = [
    "BorelKernel",
    "CoefficientTable",
    "airy_h",
    "airy_from_h",
    "bessel_h",
    "bessel_k_dyadic",
    "get_table",
]

_TAYLOR_CUT = 0.5
_GRID_DQ = 0.02
_SERIES_TERMS = 60
_TAU_HI = 70.0  # dyadic-level integrals live on tau in [2^-k, ~70/(m-1)]


def _taylor_coeffs(nu: float, n: int = 100) -> np.ndarray:
    a = np.empty(n)
    a[0] = 1.0
    for k in range(n - 1):
        a[k + 1] = -a[k] * ((k + 0.5) ** 2 - nu * nu) / ((k + 1.0) ** 2)
    return a


def _continue(p0: float, h: float, f: float, df: float, c: float) -> Tuple[float, float]:
    """F and F' at p0 + h from the power series about p0 of the kernel ODE
    p(1+p) F'' + (1+2p) F' + c F = 0, with terms t_n = a_n h^n:

        a_{n+2} = -[(1+2p0) (n+1)^2 a_{n+1} + (n(n+1) + c) a_n]
                  / (p0 (1+p0) (n+1) (n+2)).
    """
    pp = p0 * (1.0 + p0)
    alpha, beta = (1.0 + 2.0 * p0) * h / pp, h * h / pp
    t0, t1 = f, df * h
    dval, dder = t1, 0.0  # the increments of F and of h F', added last
    for n in range(_SERIES_TERMS):
        t0, t1 = t1, -(alpha * (n + 1) ** 2 * t1 + beta * (n * (n + 1) + c) * t0) / ((n + 1) * (n + 2))
        dval += t1
        dder += (n + 2) * t1
        if (n + 2) * (abs(t0) + abs(t1)) <= 1e-18 * abs(f):
            return f + dval, df + dder / h
    raise RuntimeError(f"kernel series did not converge from p = {p0} over {h}")


@dataclass
class BorelKernel:
    """Borel-plane kernel of order nu with its Taylor germ at 0 and its
    value and derivatives on log-spaced nodes, continued node to node by
    power series of the ODE out to ``p_far`` (whatever the requested
    dyadic depth needs).
    """

    nu: float
    taylor_coeffs: np.ndarray
    q_grid: np.ndarray          # q = log(1 + p), from log(1.5)
    f_grid: np.ndarray          # F
    fq_grid: np.ndarray         # dF/dq
    fqq_grid: np.ndarray        # d2F/dq2 (from the ODE)
    p_far: float

    @staticmethod
    def build(nu: float, p_far: Optional[float] = None) -> "BorelKernel":
        if abs(nu) > 5.0:
            raise DomainError("kernel order restricted to |nu| <= 5")
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
        pv = np.polynomial.polynomial.polyval
        jet = [(float(pv(p[0], tc)), float(pv(p[0], tc[1:] * np.arange(1, len(tc)))))]
        for p0, p1 in zip(p[:-1].tolist(), p[1:].tolist()):
            jet.append(_continue(p0, p1 - p0, *jet[-1], c))
        f, df = np.array(jet).T  # F and dF/dp
        fq = (1.0 + p) * df
        fqq = -((p + 1.0) / p) * (fq + c * f)
        return BorelKernel(nu=nu, taylor_coeffs=tc, q_grid=grid,
                           f_grid=f, fq_grid=fq, fqq_grid=fqq, p_far=p_far)

    # -- evaluation -------------------------------------------------------

    def _hermite(self, q: np.ndarray) -> np.ndarray:
        """F by quintic Hermite interpolation of the value and the first
        and second derivatives at the grid nodes."""
        idx = np.clip(np.searchsorted(self.q_grid, q) - 1, 0, len(self.q_grid) - 2)
        h = self.q_grid[idx + 1] - self.q_grid[idx]
        th = (q - self.q_grid[idx]) / h
        y0, y1 = self.f_grid[idx], self.f_grid[idx + 1]
        d0, d1 = self.fq_grid[idx] * h, self.fq_grid[idx + 1] * h
        s0, s1 = self.fqq_grid[idx] * h * h, self.fqq_grid[idx + 1] * h * h
        t2, t3 = th * th, th * th * th
        t4, t5 = t3 * th, t3 * th * th
        a0 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
        a1 = th - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
        a2 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
        b0 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
        b1 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
        b2 = 0.5 * t3 - t4 + 0.5 * t5
        return y0 * a0 + d0 * a1 + s0 * a2 + y1 * b0 + d1 * b1 + s1 * b2

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
            out[small] = np.polynomial.polynomial.polyval(p[small], self.taylor_coeffs)
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
    [2^-k, ~2^(1-k)], so the powers q^m, q = 1 / (1 + e^tau), are formed
    once on level K's nodes above its bottom halving, and every level's
    sums over them are one row of A @ powers, A holding each level's
    samples times its weights (0 below the level's panels).  The bottom
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
        top = np.zeros((len(ks), M - 1))
        for nodes in chunks(len(q), max(len(ks), M - 1)):
            a = window[(ks - 1) * nb, nodes]
            a *= weight[nodes]
            top += geometric_sums(a, q[nodes], M - 1)
        # the bottom halving of level k: level K's, stretched by 2^(K-k)
        tb = stretch[live, None] * tau[:nb]
        qb = np.exp(-np.logaddexp(tb, 0.0))
        bottom = (f[:nb] * w[:nb] * 2.0**K) * np.exp(tb - 2.0**-ks[:, None]) * qb * qb
        return scale[live, None] * top + geometric_sums(bottom, qb, M - 1)

    return refined(rows, (2, 4, 8), 100.0 * target,
                   [f"level {k} d_km row of order {kern.nu}" for k in levels], 1e-30)


@dataclass
class CoefficientTable:
    """Cached d_m (m in [2, M]) and d_km (k in [1, K], m in [2, M]) for one
    kernel order."""

    nu: float
    M: int
    K: int
    dm: np.ndarray           # shape (M-1,), index m-2
    dkm: np.ndarray          # shape (K, M-1), index (k-1, m-2)

    @staticmethod
    def build(kern: BorelKernel, M: int, K: int, target: float = 1e-13) -> "CoefficientTable":
        """d_m and the d_km of levels 1..K to ``target``, every level in
        one stacked pass per refinement (``_build_level_rows``).  ``kern``
        must reach p = 2^K (_TAU_HI + 8) - 1."""
        if K > MAX_LEVELS:
            raise DomainError(f"table depth capped at {MAX_LEVELS} levels")
        dm = _build_base_row(kern, M, target)
        dkm = _build_level_rows(kern, M, K, target) if K else np.empty((0, M - 1))
        return CoefficientTable(nu=kern.nu, M=M, K=K, dm=dm, dkm=dkm)

    @functools.cached_property
    def template(self) -> "_HTemplate":
        """The argument-free half of the h-expansion over this table, built
        at its first use.  Level k is sum_{m>=2} sign_m G(m) d_km / (u_k)_m,
        a factorial series in u_k + 1 (base terms alternate,
        sign_m = (-1)^m), entering with weight -kappa e^{2^-k} (-kappa for
        the base).  Column 0 of the numerators is d_{k,2}, so a level's
        terms are u_k times its own and 1/u_k joins the weight; then
        t_{i+1} / t_i = sign_k (i + 1) d_{k,i+2} / d_{k,i+1}."""
        scale = 2.0 ** np.arange(self.K + 1)
        rows = np.vstack([self.dm, self.dkm])          # d_{k,m}, m = 2..M
        sign = np.ones(self.K + 1)
        sign[0] = -1.0
        kappa = math.cos(math.pi * self.nu) / math.pi
        weight = -kappa * np.exp(1.0 / scale)
        weight[0] = -kappa
        numer = np.empty(rows.shape)
        numer[:, 0] = rows[:, 0]
        numer[:, 1:] = sign[:, None] * np.arange(2.0, self.M) * rows[:, 1:] / rows[:, :-1]
        return _HTemplate(_frozen(scale), _frozen(weight), _frozen(weight * rows[:, 0]),
                          _frozen(numer), _h_ladder(self.nu))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

_BUILD_LOCK = threading.Lock()


def get_table(nu: float, M: int, K: int) -> CoefficientTable:
    """The table of order |nu| with d_m up to m = M and K levels, on a
    kernel of its own that reaches level K.  Each (order, M, K) is built
    once, under a lock, and never replaced or grown."""
    with _BUILD_LOCK:
        return _table(round(abs(float(nu)), 12), M, K)


@functools.cache
def _table(nu: float, M: int, K: int) -> CoefficientTable:
    return CoefficientTable.build(BorelKernel.build(nu, p_far=2.0**K * (_TAU_HI + 8.0)), M, K)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _is_half_integer(nu: float) -> bool:
    return abs(2.0 * nu - round(2.0 * nu)) < 1e-12 and round(2.0 * nu) % 2 == 1


@functools.lru_cache(maxsize=256)
def _h_ladder(nu: float) -> tuple:
    """The kernel grows like p^(nu-1/2) and p^(-nu-1/2) at large p, so the
    level tails run in two ladders, a + n and 3/2 + nu + n with
    a = 3/2 - nu: the first four exponents of both."""
    a = 1.5 - nu
    return tuple(sorted((a, a + 1.0, 1.5 + nu, min(a + 2.0, 2.5 + nu))))


@dataclass(frozen=True)
class _HTemplate:
    """The h-expansion of one coefficient table without its argument, all
    read-only (``CoefficientTable.template``): 2^k, the level weights,
    their leads weight_k d_{k,2}, the numerator table and the ladder."""

    scale: np.ndarray
    weight: np.ndarray
    lead: np.ndarray
    table: np.ndarray
    ladder: tuple


def _h_family(table: CoefficientTable, u: complex) -> FactorialFamily:
    """The h-expansion at argument u over the table's template, with
    u_k = 2^k u: level k enters with weight_k / u_k.  The planner sees
    sizes relative to h ~ 1/|u|, so its tolerance is relative; each row
    supports M - 2 planned terms."""
    t = table.template
    uk = t.scale * u
    shift = uk + 1.0
    size = np.abs(t.lead / (uk * shift)) * abs(u)
    return FactorialFamily("h-expansion", shift, t.weight / uk, t.table, size, safety=1.3,
                           ladder=t.ladder)


def _bessel_h_eval(nu: float, u: complex, tol: float,
                   plan: Optional[DyadicPlan] = None) -> EvalResult:
    nu = abs(nu)
    u = _finite_x("h-expansion", u)
    if u.real <= 0 or abs(u) < 1.0:
        raise DomainError(f"h-expansion requires Re x > 0 and |x| >= 1, not x = {u}")
    if _is_half_integer(nu):
        # polynomial kernel, vanishing branch jump: h is a finite sum
        deg = int(round(nu - 0.5))
        tc = _taylor_coeffs(nu, deg + 2)
        val = complex(sum(math.factorial(i) * tc[i] / u ** (i + 1) for i in range(deg + 1)))
        plan = DyadicPlan(K=0, n_terms=[deg + 1], predicted_error=1e-16)
        return _result(val, 1e-16, plan, tol, relative=True)
    if nu >= 1.5:
        raise DomainError("direct h-expansion limited to |nu| < 3/2; "
                          "use bessel_k_dyadic for larger orders")
    # the Richardson steps keep every planned plan within LADDER_LEVELS levels, and at
    # |u| = 1 and tol 1e-12 shallow levels keep up to 43 terms; a caller's plan that
    # does not fit that table gets one of its own size
    M, K = 66, LADDER_LEVELS
    if plan is not None and (plan.K > K or max(plan.n_terms) + 2 > M):
        M, K = max(plan.n_terms) + 2, plan.K
    table = get_table(nu, M, K)
    plan, total, corr = evaluate(_h_family(table, u), tol, plan)
    value = 1.0 / u + total  # F(0) = P_{nu-1/2}(1) = 1
    return _result(value, plan.predicted_error * abs(value) + corr, plan, tol, relative=True)


def airy_h(x: complex, tol: float = 1e-10, plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Normalized Airy profile h (order nu = 1/3) at argument x with
    relative tolerance ``tol``; Re x > 0, |x| >= 1.  With ``plan`` given,
    the caller owns the truncation; its predicted error is relative."""
    return _bessel_h_eval(1.0 / 3.0, x, tol, plan)


# Large-argument asymptotics (DLMF 9.7, 10.40) fix the normalizations
# exactly: h(u) ~ 1/u, Ai(x) ~ e^{-(2/3) x^{3/2}} / (2 sqrt(pi) x^{1/4})
# and K_nu(x) ~ sqrt(pi / (2x)) e^{-x}.
_AIRY_C = 2.0 / (3.0 * math.sqrt(math.pi))
_BESSEL_C = math.sqrt(2.0 * math.pi)


def airy_from_h(x: float, tol: float = 1e-10) -> EvalResult:
    """Ai(x) for x >= (3/4)^(2/3) ~ 0.8255 through the normalization map
    Ai(x) = C x^{5/4} e^{-(2/3) x^{3/2}} h((4/3) x^{3/2}), whose argument
    the h-expansion takes from 1 on."""
    x = _finite_x("airy_from_h", x, real=True)
    u = 4.0 / 3.0 * x**1.5
    if u < 1.0:
        raise DomainError(f"airy_from_h requires x >= (3/4)^(2/3) ~ 0.8255, not x = {x}")
    r = airy_h(u, tol)
    front = _AIRY_C * x**1.25 * math.exp(-2.0 / 3.0 * x**1.5)
    return _result(front * r.value, front * r.error_estimate, r.plan, tol, relative=True)


def bessel_h(nu: float, x: complex, tol: float = 1e-10) -> EvalResult:
    """Normalized modified-Bessel profile h of order nu at argument x.

    Direct dyadic expansion for |nu| < 3/2; exact finite form at
    half-integer orders.  Larger orders go through bessel_k_dyadic.
    """
    if not abs(nu) <= 5.0:
        raise DomainError("bessel_h restricted to finite |nu| <= 5")
    return _bessel_h_eval(nu, x, tol)


def bessel_k_dyadic(nu: float, x: float, tol: float = 1e-9) -> EvalResult:
    """K_nu(x) for x >= 0.5, |nu| <= 5: normalization map on the
    h-expansion at 2x, which it takes from 1 on.

    Orders whose ladder would magnify level errors more than
    MAX_AMPLIFICATION (|nu| above about 1.34, where 2^(3/2-nu) tends to
    1) go through the stable upward recurrence
    K_{mu+1} = K_{mu-1} + (2 mu / x) K_mu, seeded from K_{mu-1} = K_{1-mu}
    and K_mu with mu = frac(|nu|).  Every term is positive, so the
    recurrence keeps the seeds' relative accuracy."""
    nu = abs(nu)
    if not nu <= 5.0:
        raise DomainError("bessel_k_dyadic restricted to finite |nu| <= 5")
    x = _finite_x("bessel_k_dyadic", x, real=True)
    if x < 0.5:
        raise DomainError(f"bessel_k_dyadic requires x >= 0.5, not x = {x}")

    def k_direct(mu: float) -> EvalResult:
        r = _bessel_h_eval(mu, 2.0 * x, tol)
        front = _BESSEL_C * math.exp(-x) * math.sqrt(x)
        return _result(front * r.value, front * r.error_estimate, r.plan, tol, relative=True)

    if nu < 1.5 and amplification(_h_ladder(nu)) <= MAX_AMPLIFICATION:
        return k_direct(nu)
    mu = nu - math.floor(nu)
    lo, hi = k_direct(mu - 1.0), k_direct(mu)
    v_lo, v_hi = lo.value, hi.value
    # a step adds positive terms, so it keeps the larger relative error of
    # its two inputs, plus its own rounding (four operations)
    rel = max(lo.error_estimate / abs(v_lo), hi.error_estimate / abs(v_hi))
    steps = math.floor(nu)
    for _ in range(steps):
        v_lo, v_hi = v_hi, v_lo + (2.0 * mu / x) * v_hi
        mu += 1.0
    err = (rel + 4.0 * steps * _EPS) * abs(v_hi)
    terms = lo.plan.terms_total + hi.plan.terms_total
    plan = DyadicPlan(K=0, n_terms=[max(terms, 1)], predicted_error=max(err, 1e-16))
    return _result(v_hi, plan.predicted_error, plan, tol, relative=True)
