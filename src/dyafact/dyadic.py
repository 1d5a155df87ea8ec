"""Dyadic decompositions of 1/p and of the Cauchy kernel, their ramified
polylog generalization, and the truncation planner that turns remainder
bounds into explicit term schedules.

The reciprocal decomposition

    1/p = 1/(1 - e^{-p}) - sum_{k>=1} 2^{-k} / (1 + e^{-p/2^k})

is the seed of every expansion in this package; the Cauchy-kernel variant
adds the affine parameters (s, beta), and the ramified variant replaces
the geometric kernels by polylogarithms of order s < 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .scalar import DomainError, PoleError, ln_gamma, polylog

__all__ = [
    "CutProximityError",
    "dyadic_reciprocal_partial",
    "dyadic_cauchy_partial",
    "dyadic_cauchy_deriv_partial",
    "ramified_partial",
    "DyadicPlan",
    "FactorialFamily",
    "plan_truncation",
    "level_sums",
    "romberg",
    "amplification",
    "assemble",
    "MAX_LEVELS",
    "LADDER_LEVELS",
    "MAX_AMPLIFICATION",
]

MAX_LEVELS = 60          # 2^-60 is below binary64 resolution
DENOM_GUARD = 1e-8       # singular-denominator threshold (absolute)
CUT_GUARD = 0.05         # relative distance from an expansion's cut
POCH_GUARD = 1e-12       # Pochhammer factor treated as a pole
N_CAP = 200_000          # terms any one series may keep
SHIFT_FLOOR = 32.0       # |x_K| from which a ladder's tail expansion holds
LADDER_LEVELS = 16       # h-table depth: laddered plans at tol >= 1e-10 keep <= 15 levels
# Richardson error growth an evaluator accepts: at tol 1e-10 the levels then
# need about 5e-13, which the coefficient rows (1e-13 and better) deliver
MAX_AMPLIFICATION = 100.0


class CutProximityError(DomainError):
    """Argument too close to the expansion's cut; term counts blow up."""


def dyadic_reciprocal_partial(p: complex, n: int) -> complex:
    """Partial dyadic decomposition of 1/p:

        1/(1 - e^{-p}) - sum_{k=1}^{n} 2^{-k} / (e^{-p/2^k} + 1)

    which equals 1/(2^n (1 - e^{-p/2^n})) exactly and converges to 1/p.
    """
    p = complex(p)
    if p == 0:
        raise PoleError("dyadic_reciprocal_partial undefined at p = 0")
    if n < 0 or n > MAX_LEVELS:
        raise DomainError(f"level count must be in [0, {MAX_LEVELS}]")
    base_den = complex(-np.expm1(-p))  # 1 - e^{-p}
    if abs(base_den) < DENOM_GUARD:
        raise PoleError(f"denominator 1 - e^-p within {DENOM_GUARD} of 0 at p = {p}")
    total = 1.0 / base_den
    for k in range(1, n + 1):
        den = cmath.exp(-p / 2.0**k) + 1.0
        if abs(den) < DENOM_GUARD:
            raise PoleError(f"level-{k} denominator within {DENOM_GUARD} of 0 at p = {p}")
        total -= 2.0**-k / den
    return total


def dyadic_cauchy_partial(s: complex, p: complex, beta: complex, K: int) -> complex:
    """Partial dyadic decomposition of the Cauchy kernel 1/(s - p):

        -beta e^{-beta s} / (e^{-beta s} - e^{-beta p})
        + sum_{k=1}^{K} beta 2^{-k} e^{-2^{-k} beta s}
                        / (e^{-2^{-k} beta s} + e^{-2^{-k} beta p})
    """
    s = complex(s)
    p = complex(p)
    beta = complex(beta)
    if beta == 0:
        raise DomainError("beta must be nonzero")
    if p == s:
        raise PoleError("dyadic_cauchy_partial undefined at p = s")
    if K < 0 or K > MAX_LEVELS:
        raise DomainError(f"level count must be in [0, {MAX_LEVELS}]")
    es = cmath.exp(-beta * s)
    ep = cmath.exp(-beta * p)
    if abs(es - ep) < DENOM_GUARD:
        raise PoleError("base denominator within guard distance of 0")
    total = -beta * es / (es - ep)
    for k in range(1, K + 1):
        w = beta * 2.0**-k
        esk = cmath.exp(-w * s)
        epk = cmath.exp(-w * p)
        den = esk + epk
        if abs(den) < DENOM_GUARD:
            raise PoleError(f"level-{k} denominator within guard distance of 0")
        total += w * esk / den
    return total


def dyadic_cauchy_deriv_partial(s: complex, p: complex, K: int) -> complex:
    """Partial dyadic decomposition of 1/(s - p)^2 (the beta = 1 kernel
    differentiated in p):

        e^{-s-p} / (e^{-s} - e^{-p})^2
        + sum_{k=1}^{K} 4^{-k} e^{2^{-k}(-s-p)}
                        / (e^{-2^{-k} s} + e^{-2^{-k} p})^2
    """
    s = complex(s)
    p = complex(p)
    if p == s:
        raise PoleError("dyadic_cauchy_deriv_partial undefined at p = s")
    if K < 0 or K > MAX_LEVELS:
        raise DomainError(f"level count must be in [0, {MAX_LEVELS}]")
    den0 = cmath.exp(-s) - cmath.exp(-p)
    if abs(den0) < DENOM_GUARD:
        raise PoleError("base denominator within guard distance of 0")
    total = cmath.exp(-s - p) / den0**2
    for k in range(1, K + 1):
        w = 2.0**-k
        den = cmath.exp(-w * s) + cmath.exp(-w * p)
        if abs(den) < DENOM_GUARD:
            raise PoleError(f"level-{k} denominator within guard distance of 0")
        total += 4.0**-k * cmath.exp(w * (-s - p)) / den**2
    return total


def ramified_partial(s_exp: float, p: complex, K: int) -> complex:
    """Partial dyadic polylog decomposition of p^{s-1} for s < 1:

        (Gamma(s) sin(pi s) / pi) *
            [ Li_s(e^{-p}) - sum_{k=1}^{K} 2^{-k(1-s)} Li_s(-e^{-p/2^k}) ]

    reduces to the reciprocal decomposition at s = 0.  Requires Re p > 0
    so every polylog argument stays inside the unit disk.
    """
    p = complex(p)
    if s_exp >= 1.0:
        raise DomainError("ramified decomposition requires s < 1")
    if p == 0:
        raise PoleError("ramified_partial undefined at p = 0")
    if p.real <= 0:
        raise DomainError("ramified_partial requires Re p > 0")
    if K < 0 or K > MAX_LEVELS:
        raise DomainError(f"level count must be in [0, {MAX_LEVELS}]")
    if s_exp == 0.0:
        return dyadic_reciprocal_partial(p, K)
    if abs(s_exp - round(s_exp)) < 1e-12:
        raise DomainError("ramified decomposition needs non-integer s (or s = 0)")
    front = cmath.exp(ln_gamma(s_exp)) * math.sin(math.pi * s_exp) / math.pi
    total = polylog(s_exp, cmath.exp(-p))
    for k in range(1, K + 1):
        # polylog raises DomainError for an argument it does not support
        total -= 2.0 ** (-k * (1.0 - s_exp)) * polylog(s_exp, -cmath.exp(-p / 2.0**k))
    return front * total


# ---------------------------------------------------------------------------
# factorial-series families: description, planner, assembler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicPlan:
    """Truncation schedule: K dyadic levels beyond the base series, the
    number of terms kept in the base (index 0) and in each level, and the
    number of Richardson steps taken over the level partial sums (0: the
    plain K-level sum)."""

    K: int
    n_terms: List[int]
    predicted_error: float
    steps: int = 0

    def __post_init__(self):
        if len(self.n_terms) != self.K + 1:
            raise DomainError("n_terms must have K + 1 entries")
        if any(n < 1 for n in self.n_terms):
            raise DomainError("every series keeps at least one term")
        if not (self.predicted_error > 0):
            raise DomainError("predicted_error must be positive")
        if not (0 <= self.steps <= self.K):
            raise DomainError("a plan takes between 0 and K Richardson steps")

    @property
    def terms_total(self) -> int:
        return sum(self.n_terms)


@dataclass(frozen=True)
class FactorialFamily:
    """One dyadic factorial-series family at one argument.

    Level k (k = 0 is the base series) enters the value as
    ``weight[k] * sum_{j>=1} t_{k,j}`` with

        t_{k,j} = prod_{i=0}^{j-1} numer(k, i) / (shift[k] + i),

    the shape sum_m c_{k,m} Gamma(m) / (x_k)_m with the coefficients and
    Gamma(m) folded into the numerators, so no factor ever overflows.
    ``numer(k, i)`` takes an integer column of levels and a row (or
    matrix) of indices and broadcasts.

    The planner sees only magnitudes in the units of its tolerance:
    ``size[k]`` = |weight_k t_{k,1}| and the term ratios
    |t_{k,i+1}/t_{k,i}| = |numer / (shift + i)|.  ``safety`` scales every
    remainder estimate.
    ``cut_distance`` is the argument's relative distance from the
    expansion's cut; ``max_terms`` caps each series (for a tabulated
    family, the terms its coefficient rows support).

    ``ladder`` holds the exponents lambda_j, in increasing order, of the
    tail sum_j a_j 2^(-lambda_j K) that the K-level partial sums leave;
    a plan removes them by Richardson steps (``romberg``).  An empty
    ladder means plain truncation.
    """

    name: str
    shift: np.ndarray
    weight: np.ndarray
    numer: Callable[[np.ndarray, np.ndarray], np.ndarray]
    size: np.ndarray
    safety: float
    cut_distance: float = 1.0
    max_terms: int = N_CAP
    ladder: Tuple[float, ...] = ()

    @property
    def floor(self) -> np.ndarray:
        """Terms each level keeps to clear its Pochhammer pole window.

        With Re x_k < -1 and a small imaginary part the term magnitudes
        dip and then spike near the poles; they keep growing until
        m ~ 2 |Re x_k| (only there does m / |x_k + m| fall below the
        geometric gap), so the window spans twice the pole index.
        Truncating inside it leaves a cancellation residue that the
        next-term estimate cannot see, fading roughly exponentially in
        |Im x_k|; 26 keeps it below every tolerance the planner accepts."""
        re = self.shift.real
        window = (re < -1.0) & (np.abs(self.shift.imag) < 26.0)
        return np.where(window, 2 * np.trunc(-re) + 24, 1).astype(np.int64)

    def tails(self) -> np.ndarray:
        """safety * (size of every described level beyond K), for each K."""
        beyond = np.cumsum(self.size[::-1])[::-1]
        return self.safety * np.append(beyond[1:], 0.0)

    def ratios(self, k: np.ndarray, i: np.ndarray) -> np.ndarray:
        """|t_{k,i+1} / t_{k,i}|."""
        return np.abs(self.numer(k, i)) / np.abs(self.shift[k] + i)


def romberg(partial_sums: Sequence, ladder: Sequence[float]) -> Tuple[complex, complex]:
    """Richardson extrapolation of dyadic partial sums S_0..S_K whose tail
    is sum_j a_j 2^(-lambda_j K).

    The step for lambda replaces every S_K by (f S_K - S_{K-1}) / (f - 1),
    f = 2^lambda, which removes the 2^(-lambda K) term; the steps need the
    last len(ladder) + 1 sums.  Returns the extrapolated value at the last
    K and the change the last step made to it (0 without steps)."""
    if len(partial_sums) <= len(ladder):
        raise DomainError(f"{len(ladder)} Richardson steps need {len(ladder) + 1} partial sums")
    t = list(partial_sums[len(partial_sums) - len(ladder) - 1:])
    value = before = t[-1]
    for lam in ladder:
        f = 2.0 ** lam
        t = [(f * b - a) / (f - 1.0) for a, b in zip(t, t[1:])]
        before, value = value, t[-1]
    return value, value - before


def amplification(ladder: Sequence[float]) -> float:
    """prod (f + 1) / (f - 1), f = 2^lambda: the most the Richardson steps
    of ``ladder`` can magnify errors in the partial sums."""
    f = 2.0 ** np.asarray(ladder, dtype=float)
    return float(np.prod((f + 1.0) / (f - 1.0)))


@functools.lru_cache(maxsize=256)
def _romberg_gains(K: int, ladder: Tuple[float, ...]) -> np.ndarray:
    """The factor each of levels 0..K carries into the extrapolated value:
    1 up to level K - steps, which every combined partial sum contains,
    then the tail sums of the Richardson weights.  Cached, read-only."""
    c = np.array([romberg(e, ladder)[0] for e in np.eye(len(ladder) + 1)])
    gain = np.ones(K + 1)
    gain[K + 1 - len(ladder):] = np.abs(np.cumsum(c[::-1])[::-1][1:])
    gain.flags.writeable = False
    return gain


def _ladder_depth(fam: FactorialFamily, tol: float, floor: np.ndarray) -> Tuple[int, float]:
    """Levels K of a laddered plan and its modeled last Richardson
    correction, the first tail term the steps leave.

    The tail expansion is asymptotic in rho_K = 2^-K + 2/|x_K|, so it
    needs |x_K| >= SHIFT_FLOOR, which grows K with log2(1/|x|).  The steps
    reweight levels K - steps + 1..K, and a level in a pole window
    (``floor``) carries terms exponentially small in |Im x_k| that the
    ladder does not describe, so those levels must be clear of windows.
    The correction is modeled as the plain tail size_K / (2^lambda_1 - 1)
    times rho_K^(lambda_last - lambda_1); K is the smallest count past
    these floors whose correction fits in ``tol / 2``, or the deepest
    described level."""
    lam = fam.ladder
    k = np.arange(len(fam.shift))
    xk = np.abs(fam.shift)
    windowed = np.flatnonzero(floor > 1)
    first = len(lam) + (windowed[-1] if len(windowed) else 0)
    rho = 2.0 ** -k + 2.0 / xk
    corr = fam.size / (2.0 ** lam[0] - 1.0) * rho ** (lam[-1] - lam[0])
    ok = (k >= first) & (xk >= SHIFT_FLOOR) & (corr <= 0.5 * tol)
    K = int(np.argmax(ok)) if ok.any() else len(k) - 1
    return K, float(corr[K])


def _remainders(fam: FactorialFamily, floor: np.ndarray, gain: np.ndarray,
                target: float) -> Tuple[np.ndarray, np.ndarray]:
    """Term counts of levels 0..K (K + 1 = len(floor)) and the remainder
    each leaves, scaled by the factor ``gain`` its level carries into the
    value.

    The remainder after n terms is the next term over the local geometric
    gap.  Every level walks its exact term magnitudes, in chunks of 32,
    32, 64, 128, ... terms, and keeps the smallest count past its pole
    window whose remainder is below ``target``, or every term its
    coefficient row holds.
    """
    K = len(floor) - 1
    levels = np.arange(K + 1)[:, None]
    if floor.max() > fam.max_terms:
        raise CutProximityError(
            f"{fam.name}: a level must clear a pole window of {floor.max()} terms; "
            "too close to the expansion's cut for this tolerance"
        )
    t = fam.size[:K + 1] * gain               # |t_n| at the chunk start
    stop = np.zeros(K + 1, dtype=np.int64)    # terms kept; 0 while walking
    left = np.zeros(K + 1)                    # remainder at the last count walked
    n, width = 1, 32
    with np.errstate(over="ignore"):    # magnitudes saturate at 1e280
        while n <= fam.max_terms and not stop.all():
            counts = np.arange(n, min(n + width, fam.max_terms + 1))
            walk = np.flatnonzero(stop == 0)
            r = fam.ratios(levels[walk], counts[None, :])
            mags = t[walk, None] * np.minimum(np.cumprod(r, axis=1), 1e280)
            walked = mags / np.maximum(1.0 - np.minimum(r, 0.95), 0.05)
            ok = (walked <= target) & (counts >= floor[walk, None])
            met = ok.any(axis=1)
            at = np.where(met, ok.argmax(axis=1), len(counts) - 1)
            stop[walk] = np.where(met, counts[at], 0)
            left[walk] = walked[np.arange(len(walk)), at]
            t[walk] = mags[:, -1]
            n, width = int(counts[-1]) + 1, width if n == 1 else 2 * width
    if not stop.all():
        if fam.max_terms >= N_CAP:
            raise CutProximityError(
                f"{fam.name}: a level needs more than {N_CAP} terms; "
                "argument is too close to the expansion's cut for this tolerance"
            )
        stop = np.where(stop == 0, fam.max_terms, stop)  # the row ran out
    return stop, left


def plan_truncation(fam: FactorialFamily, tol: float,
                    enforce_cut_guard: bool = True) -> DyadicPlan:
    """Choose the number of dyadic levels K, the Richardson steps and the
    per-series term counts so the predicted error stays below ``tol``.

    The plan takes every step of the family's ladder.  Without a ladder K
    is the smallest level count whose discarded levels fit in half the
    budget; with one K comes from ``_ladder_depth``.  Each level's
    truncation error reaches the value times its Richardson weight (1
    without a ladder), and every level gets an even share of what the
    tail or the modeled correction left.  A level whose coefficient row
    runs out stops growing, and the prediction reports the shortfall.
    Callers prepared to pay for pole-window clearing may disable the
    cut-distance guard; the term-count cap still bounds the damage.
    """
    if not (1e-14 < tol < 1e-1):
        raise DomainError("tol must lie in (1e-14, 1e-1)")
    if enforce_cut_guard and fam.cut_distance < CUT_GUARD:
        raise CutProximityError(
            f"{fam.name}: relative distance from the cut is below {CUT_GUARD}"
        )
    floor = fam.floor
    if fam.ladder:
        K, tail = _ladder_depth(fam, tol, floor)
    else:
        tails = fam.tails()
        K = int(np.argmax(tails <= 0.5 * tol))
        tail = tails[K]
    budget = (tol - min(tail, 0.5 * tol)) / fam.safety
    n_terms, left = _remainders(fam, floor[:K + 1], _romberg_gains(K, fam.ladder),
                                budget / (K + 1))
    predicted = tail + fam.safety * left.sum()
    return DyadicPlan(K=K, n_terms=n_terms.tolist(), steps=len(fam.ladder),
                      predicted_error=max(float(predicted), np.finfo(float).tiny))


def level_sums(fam: FactorialFamily, n_terms: Sequence[int]) -> np.ndarray:
    """The m-sums of levels 0..len(n_terms)-1, n_terms[k] terms each
    (weights not applied), from one padded cumulative product.

    Padding repeats each level's last kept index and is dropped after the
    product.  A Pochhammer factor within 1e-12 of zero raises PoleError;
    terms from the first one that overflows on are dropped.
    """
    n = np.asarray(n_terms)
    k = np.arange(len(n))[:, None]
    j = np.arange(n.max())[None, :]
    i = np.minimum(j, n[:, None] - 1)
    den = fam.shift[k] + i
    if np.any(np.abs(den) < POCH_GUARD):
        raise PoleError("factorial-series denominator within 1e-12 of a pole")
    terms = np.cumprod(fam.numer(k, i) / den, axis=1)
    alive = np.logical_and.accumulate(np.abs(terms) < 1e250, axis=1)
    return np.where((j < n[:, None]) & alive, terms, 0.0).sum(axis=1)


def assemble(fam: FactorialFamily, plan: DyadicPlan) -> Tuple[complex, float]:
    """The plan's value over the family (weighted level sums, then the
    plan's Richardson steps) and the size of its last correction."""
    if plan.steps > len(fam.ladder):
        raise DomainError(f"{fam.name}: the ladder has {len(fam.ladder)} steps, "
                          f"the plan asks for {plan.steps}")
    sums = np.cumsum(fam.weight[:plan.K + 1] * level_sums(fam, plan.n_terms))
    value, corr = romberg(sums.tolist(), fam.ladder[:plan.steps])
    return complex(value), float(abs(corr))
