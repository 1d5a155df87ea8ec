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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .functions import FUNCTIONS, MAX_LEVELS, check_tol
from .scalar import DomainError, PoleError, polylog

__all__ = [
    "CutProximityError",
    "dyadic_reciprocal_levels",
    "dyadic_reciprocal_partial",
    "dyadic_cauchy_partial",
    "ramified_partial",
    "DyadicPlan",
    "EvalResult",
    "FactorialFamily",
    "TABLE_COLUMNS",
    "plan_truncation",
    "level_sums",
    "romberg",
    "amplification",
    "assemble",
    "evaluate",
    "MAX_LEVELS",
    "LADDER_LEVELS",
    "MAX_AMPLIFICATION",
]

DENOM_GUARD = 1e-8       # singular-denominator threshold (absolute)
POCH_GUARD = 1e-12       # Pochhammer factor treated as a pole
SHIFT_FLOOR = 32.0       # |x_K| from which a ladder's tail expansion holds
LADDER_LEVELS = 16       # h-table depth: laddered plans at tol >= 1e-10 keep <= 15 levels
# Richardson error growth an evaluator accepts: at tol 1e-10 the levels then
# need about 5e-13, which the coefficient rows (1e-13 and better) deliver
MAX_AMPLIFICATION = 100.0
# Columns of a walk's first chunk: over perfbench's point-values inputs
# (seeds 21-25) 94 % of the planned walks stop every level within 64 terms.
FIRST_CHUNK = 65
# Columns of the closed-form numerator tables (Ei and digamma), built whole
# at import: at tol 1.01e-14 and every shift at least 1e-12 from a pole the
# widest walks keep 192 terms (Ei-Stokes at |x| = 4e-12), 122 (Ei-left)
# and 49 (digamma).
TABLE_COLUMNS = 257
_INDEX = np.arange(1025)                         # shared row and column index
_INV_LEVELS = 2.0 ** -_INDEX[:MAX_LEVELS + 1]    # 2^-k for every described level
_TINY = np.finfo(float).tiny
_EPS = float(np.finfo(float).eps)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, read-only: templates are shared by every family of an order."""
    a.flags.writeable = False
    return a


def _index(n: int) -> np.ndarray:
    """0, 1, ..., n - 1, a view of the shared index where it reaches."""
    return _INDEX[:n] if n <= len(_INDEX) else np.arange(n)


class CutProximityError(DomainError):
    """A level shift with negative real part: the argument lies across the
    expansion's cut."""


def dyadic_reciprocal_levels(p, K: int) -> np.ndarray:
    """Level table of the dyadic decomposition of 1/p over an array of p:
    row k is the partial

        1/(1 - e^{-p}) - sum_{j=1}^{k} 2^{-j} / (e^{-p/2^j} + 1)

    for k = 0..K, taken as the base row followed by a running sum down the
    levels.  Row k equals 1/(2^k (1 - e^{-p/2^k})) exactly and converges to
    1/p.  Any p = 0, or a denominator within DENOM_GUARD of 0, raises
    PoleError.
    """
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if (p == 0).any():
        raise PoleError("dyadic reciprocal undefined at p = 0")
    if K < 0 or K > MAX_LEVELS:
        raise DomainError(f"level count must be in [0, {MAX_LEVELS}]")
    base_den = -np.expm1(-p)  # 1 - e^{-p}
    bad = np.abs(base_den) < DENOM_GUARD
    if bad.any():
        raise PoleError(f"denominator 1 - e^-p within {DENOM_GUARD} of 0 at p = {p[bad][0]}")
    scale = _INV_LEVELS[1:K + 1, None]
    den = np.exp(-p * scale) + 1.0
    bad = np.abs(den) < DENOM_GUARD
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise PoleError(f"level-{k + 1} denominator within {DENOM_GUARD} of 0 at p = {p[j]}")
    table = np.empty((K + 1, len(p)), dtype=complex)
    table[0] = 1.0 / base_den
    table[1:] = -scale / den
    return np.cumsum(table, axis=0, out=table)


def dyadic_reciprocal_partial(p: complex, n: int) -> complex:
    """Partial dyadic decomposition of 1/p at level n: the last row of
    ``dyadic_reciprocal_levels`` at a single p."""
    return complex(dyadic_reciprocal_levels(p, n)[-1, 0])


def dyadic_cauchy_partial(s: complex, p: complex, beta: complex, K: int) -> complex:
    """Partial dyadic decomposition of the Cauchy kernel 1/(s - p):

        -beta e^{-beta s} / (e^{-beta s} - e^{-beta p})
        + sum_{k=1}^{K} beta 2^{-k} e^{-2^{-k} beta s}
                        / (e^{-2^{-k} beta s} + e^{-2^{-k} beta p}),

    which is -beta times the reciprocal decomposition at beta (p - s)."""
    beta = complex(beta)
    if beta == 0:
        raise DomainError("beta must be nonzero")
    return -beta * dyadic_reciprocal_partial(beta * (complex(p) - complex(s)), K)


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
    front = math.gamma(s_exp) * math.sin(math.pi * s_exp) / math.pi
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
class EvalResult:
    """Value with its error estimate and the executed plan.  The estimate
    is the plan's prediction plus the size of the last Richardson
    correction the evaluation made and the rounding of its assembly, the
    kept terms and the running sum of the levels (``dyadic.assemble``).
    ``tol_met`` says whether the estimate is within the requested
    tolerance in the units its ``Function`` entry records: relative to
    |value| where ``Function.relative``, absolute otherwise."""

    value: complex
    error_estimate: float
    plan: DyadicPlan
    tol_met: bool

    @property
    def terms_total(self) -> int:
        return self.plan.terms_total


def _result(value: complex, estimate: float, plan: DyadicPlan, tol: float,
            relative: bool) -> EvalResult:
    if relative:
        # below the normal range a value rounds by up to 2^-1075 at each operation
        # after its exponential
        estimate += 2.0 ** -1072
    bound = tol * abs(value) if relative else tol
    return EvalResult(value, estimate, plan, bool(estimate <= bound))


def run(fid: str, path: Callable, x: complex, tol: float, s: Optional[float] = None,
        plan: Optional[DyadicPlan] = None) -> EvalResult:
    """Function id ``fid`` at x: x and s checked once through its entry and
    the caller's tol through ``check_tol``, then ``path(x, s, tol, plan)`` ->
    (value, estimate, plan), then one result."""
    f = FUNCTIONS[fid]
    x = f.check(x, s)
    check_tol(tol)
    return _result(*path(x, s, tol, plan), tol, f.relative)


@dataclass(frozen=True, eq=False)
class FactorialFamily:
    """One dyadic factorial-series family at one argument: a per-order
    template (weights, numerators, ladder, safety), built once beside the
    coefficient caches, plus the per-argument shifts and leading sizes.

    Level k (k = 0 is the base series) enters the value as
    ``weight[k] * sum_{j>=1} t_{k,j}`` with

        t_{k,j} = prod_{i=0}^{j-1} numer(k, i) / (shift[k] + i),

    the shape sum_m c_{k,m} Gamma(m) / (x_k)_m with the coefficients and
    Gamma(m) folded into the numerators, so no factor ever overflows.
    ``table`` is the read-only (levels x columns) array of numer(k, i),
    built once per order and written by no call; a level keeps at most
    ``table.shape[1] - 1`` planned terms.

    The planner sees only magnitudes in the units of its tolerance:
    ``size[k]`` = |weight_k t_{k,1}| and the term ratios
    |t_{k,i+1}/t_{k,i}| = |numer / (shift + i)|.  ``safety`` scales every
    remainder estimate.  The planner takes only families whose shifts all
    have Re >= 0, where no Pochhammer factor comes near a pole; the
    evaluators map their arguments there.

    ``ladder`` holds the exponents lambda_j, in increasing order, of the
    tail sum_j a_j 2^(-lambda_j K) that the K-level partial sums leave;
    a plan removes them by Richardson steps (``romberg``).  An empty
    ladder means plain truncation.
    """

    name: str
    shift: np.ndarray
    weight: np.ndarray
    table: np.ndarray
    size: np.ndarray
    safety: float
    ladder: Tuple[float, ...] = ()

    def tails(self) -> np.ndarray:
        """safety * (size of every described level beyond K), for each K:
        the sums run from the deepest level up."""
        tails = np.zeros(len(self.size))
        np.add.accumulate(self.size[:0:-1], out=tails[-2::-1])
        tails *= self.safety
        return tails


def romberg(partial_sums: Sequence, ladder: Sequence[float]) -> Tuple[complex, complex]:
    """Richardson extrapolation of dyadic partial sums S_0..S_K whose tail
    is sum_j a_j 2^(-lambda_j K).

    The step for lambda replaces every S_K by (f S_K - S_{K-1}) / (f - 1),
    f = 2^lambda, which removes the 2^(-lambda K) term; the steps need the
    last len(ladder) + 1 sums.  Returns the extrapolated value at the last
    K and the change the last step made to it (0 without steps).  The
    assembly applies the same steps as one linear form over the level
    sums (``_richardson``)."""
    if len(partial_sums) <= len(ladder):
        raise DomainError(f"{len(ladder)} Richardson steps need {len(ladder) + 1} partial sums")
    t = list(partial_sums[len(partial_sums) - len(ladder) - 1:])
    value = before = t[-1]
    for lam in ladder:
        f = 2.0 ** lam
        t = [(f * b - a) / (f - 1.0) for a, b in zip(t, t[1:])]
        before, value = value, t[-1]
    return value, value - before


@functools.lru_cache(maxsize=256)
def amplification(ladder: Tuple[float, ...]) -> float:
    """prod (f + 1) / (f - 1), f = 2^lambda: the most the Richardson steps
    of ``ladder`` can magnify errors in the partial sums.  Cached."""
    return math.prod((2.0 ** lam + 1.0) / (2.0 ** lam - 1.0) for lam in ladder)


@functools.lru_cache(maxsize=1024)
def _richardson(K: int, ladder: Tuple[float, ...]) -> np.ndarray:
    """The Richardson form of K levels under ``ladder``, read-only: row 0
    holds the weight g_k that each of levels 0..K carries into the
    extrapolated value, row 1 its magnitude |g_k|, the gain that level's
    errors carry, and row 2 the weight it carries into the last step's
    correction.  Cached.

    ``romberg`` combines the partial sums as sum_i c_i S_{K-n+i},
    n = len(ladder), and level k enters every S_j with j >= k, so g_k is
    the sum of the c_i over those: 1 up to level K - n, which every
    combined sum contains, then the tail sums of the c_i.  The correction
    is the value less that of ladder[:-1] over the last n sums."""
    n = len(ladder)
    form = np.zeros((3, K + 1))
    form[0] = 1.0
    if n:
        eye = np.eye(n + 1)
        c = np.array([romberg(e, ladder)[0] for e in eye])
        before = np.array([romberg(e[1:], ladder[:-1])[0] for e in eye])
        form[0, K + 1 - n:] = np.cumsum(c[::-1])[::-1][1:]
        form[2, K + 1 - n:] = np.cumsum((c - before)[::-1])[::-1][1:]
    form[1] = np.abs(form[0])
    return _frozen(form)


def _ladder_depth(fam: FactorialFamily, tol: float) -> Tuple[int, float]:
    """Levels K of a laddered plan and its modeled last Richardson
    correction, the first tail term the steps leave.

    The tail expansion is asymptotic in rho_K = 2^-K + 2/|x_K|, so it
    needs |x_K| >= SHIFT_FLOOR, which grows K with log2(1/|x|), and the
    steps need K >= len(ladder).  The correction is modeled as the plain
    tail size_K / (2^lambda_1 - 1) times rho_K^(lambda_last - lambda_1);
    K is the smallest count past these floors whose correction fits in
    ``tol / 2``, or the deepest described level."""
    lam = fam.ladder
    n = len(fam.shift)
    xk = np.abs(fam.shift)
    rho = _INV_LEVELS[:n] + 2.0 / xk
    corr = fam.size / (2.0 ** lam[0] - 1.0) * rho ** (lam[-1] - lam[0])
    corr, xk = corr.tolist(), xk.tolist()
    for K in range(len(lam), n):
        if corr[K] <= 0.5 * tol and xk[K] >= SHIFT_FLOOR:
            break
    else:
        K = n - 1
    return K, corr[K]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _walk(fam: FactorialFamily, counts: Optional[np.ndarray], target: float = 0.0,
          gain: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the terms of levels 0..K: with fixed ``counts``
    (K + 1 = len(counts)) each level keeps exactly that many; without
    them (K + 1 = len(gain)) a level keeps the smallest count whose
    remainder, the larger of the next two terms over the local geometric
    gap scaled by the level's ``gain``, is below ``target``, or the
    ``columns - 1`` terms its table supports.

    The numerators come from slices of the family's table.  Fixed counts
    take one pass over max(counts) columns.  The planner's walk reads
    FIRST_CHUNK columns of every level in its first chunk; the levels
    still walking read again from column 0 over twice as many, less one,
    and so on; a level stops in a chunk only where both its next terms
    lie in the chunk, or the chunk reaches the table's end.  A chunk
    forms the quotients numer / (shift + i) once: their magnitudes drive
    the stop rule, and their running product gives the terms t_{k,i+1}.

    Returns the counts kept, the remainder each leaves at its last count
    walked (0 with fixed counts), and an array of max(counts) columns
    whose row k holds the n[k] kept terms of level k, then zeros, for
    ``_sums``.  The planner's walk zeros the quotient after each level's
    count, so the running product stops there; its shifts have Re >= 0,
    which puts any pole at the first quotient, inside every count.
    """
    columns = fam.table.shape[1]
    if counts is not None:
        K, width = len(counts) - 1, int(counts.max())
        if K >= len(fam.shift) or width > columns:
            raise DomainError(f"{fam.name}: a plan takes at most {len(fam.shift) - 1} levels "
                              f"of at most {columns} terms")
        rows = slice(0, K + 1)
        num = fam.table[rows, :width]
        terms = np.multiply.accumulate(num / (fam.shift[rows, None] + _index(width)), axis=1)
        return counts, np.zeros(K + 1), np.where(_index(width) < counts[:, None], terms, 0j)
    K = len(gain) - 1
    first = fam.size[:K + 1] * gain           # |t_1| of each level
    walk = _index(K + 1)                      # levels still walking
    rows = slice(0, K + 1)                    # the same, as an index
    lo, hi = 0, FIRST_CHUNK
    while True:
        width = min(hi, columns)
        last = width == columns               # unmet rows run out in this chunk
        # the stop rule at count c reads the ratio at index c
        quot = fam.table[rows, :width] / (fam.shift[rows, None] + _index(width))
        r = np.abs(quot[:, 1:])
        # t_1 is given by ``size``, the ratios take it on from there
        mags = first[rows, None] * np.minimum(np.multiply.accumulate(r, axis=1), 1e280)   # saturate, not overflow
        # the larger of the next two terms: a next term that cancels to
        # near 0 ahead of a large one does not end the level
        mags[:, :-1] = np.maximum(mags[:, :-1], mags[:, 1:])
        walked = mags / (1.0 - np.minimum(r, 0.95))
        ok = walked <= target
        if not last:                          # the term after next lies past the chunk
            ok[:, -1] = False
        idx = _index(len(walked))
        at = ok.argmax(axis=1)
        met = ok[idx, at]
        done = np.logical_and.reduce(met)
        if not done:
            at = np.where(met, at, ok.shape[1] - 1)
        remainder = walked[idx, at]           # at the last count walked
        n = at + 1 if done else np.where(met, at + 1, 0)
        if last and not done:
            n = np.where(met, n, columns - 1)
            done = True
        kept = int(np.maximum.reduce(n))
        quot[idx, n] = 0.0                    # terms n + 1 on vanish
        run = np.multiply.accumulate(quot[:, :kept], axis=1)
        if lo:
            stop[rows], left[rows] = n, remainder
            if kept:
                grown = np.zeros((K + 1, max(kept, terms.shape[1])), dtype=complex)
                grown[:, :terms.shape[1]] = terms
                grown[rows, :kept] = run
                terms = grown
        else:                                 # the first chunk holds every level
            stop, left, terms = n, remainder, run
        if done:
            return stop, left, terms
        walk = rows = walk[~met]
        lo, hi = width, 2 * hi - 1


def _sums(fam: FactorialFamily, n: np.ndarray, terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row sums of the walk's kept ``terms``, n[k] in row k (weights not
    applied), and the sums of their magnitudes.  A Pochhammer factor
    within 1e-12 of zero raises PoleError; terms from the first one that
    overflows on are dropped."""
    re = fam.shift.real[:len(n)]
    if np.minimum.reduce(re) < POCH_GUARD:
        # |shift + i| over i >= 0 is least at the integer nearest -Re shift
        i = np.maximum(np.rint(-re), 0.0)
        if np.any((np.abs(fam.shift[:len(n)] + i) < POCH_GUARD) & (i < n)):
            raise PoleError("factorial-series denominator within 1e-12 of a pole")
    size = np.abs(terms)
    magnitudes = np.add.reduce(size, axis=1)
    if not np.maximum.reduce(magnitudes) < 1e250:     # a term, or a row's sum, overflows
        alive = np.logical_and.accumulate(size < 1e250, axis=1)
        terms, size = np.where(alive, terms, 0j), np.where(alive, size, 0.0)
        magnitudes = np.add.reduce(size, axis=1)
    return np.add.reduce(terms, axis=1), magnitudes


def _plan(fam: FactorialFamily, tol: float) -> Tuple[DyadicPlan, np.ndarray, np.ndarray]:
    """The plan of ``plan_truncation`` with the level sums its walk kept
    and the sums of their magnitudes."""
    if np.minimum.reduce(fam.shift.real) < 0.0:
        raise CutProximityError(
            f"{fam.name}: a level shift has negative real part; "
            "the argument lies across the expansion's cut"
        )
    if fam.ladder:
        if len(fam.shift) <= len(fam.ladder):
            raise DomainError(f"{fam.name}: {len(fam.ladder)} Richardson steps need "
                              f"{len(fam.ladder) + 1} levels, the family describes {len(fam.shift)}")
        K, tail = _ladder_depth(fam, tol)
    else:
        tails = fam.tails()
        K = int(np.argmax(tails <= 0.5 * tol))
        tail = tails[K]
    budget = (tol - min(tail, 0.5 * tol)) / fam.safety
    n_terms, left, terms = _walk(fam, None, budget / (K + 1), _richardson(K, fam.ladder)[1])
    predicted = tail + fam.safety * np.add.reduce(left)
    plan = DyadicPlan(K=K, n_terms=n_terms.tolist(), steps=len(fam.ladder),
                      predicted_error=max(float(predicted), _TINY))
    return (plan, *_sums(fam, n_terms, terms))


def plan_truncation(fam: FactorialFamily, tol: float) -> DyadicPlan:
    """Choose the number of dyadic levels K, the Richardson steps and the
    per-series term counts so the predicted error stays below ``tol``.

    The plan takes every step of the family's ladder.  Without a ladder K
    is the smallest level count whose discarded levels fit in half the
    budget; with one K comes from ``_ladder_depth``.  Each level's
    truncation error reaches the value times its Richardson weight (1
    without a ladder), and every level gets an even share of what the
    tail or the modeled correction left.  The remainder after n terms is
    the next term over the local geometric gap; every level walks its
    exact term magnitudes (``_walk``) and keeps the smallest count whose
    remainder fits its share.  A level whose coefficient row runs out
    stops growing, and the prediction reports the shortfall.  A shift
    with negative real part puts Pochhammer poles on the walk, where the
    terms dip and spike again past any stop, so it raises
    CutProximityError.  A laddered family that describes no more levels
    than its ladder has steps raises DomainError.
    """
    check_tol(tol)
    return _plan(fam, tol)[0]


def level_sums(fam: FactorialFamily, n_terms: Sequence[int]) -> np.ndarray:
    """The m-sums of levels 0..len(n_terms)-1, n_terms[k] terms each
    (weights not applied): the planner's walk with the counts fixed.

    More levels than the family describes, or a count past its table's
    columns, raise DomainError.  A Pochhammer factor within 1e-12 of zero
    raises PoleError; terms from the first one that overflows on are
    dropped.
    """
    n, _, terms = _walk(fam, np.asarray(n_terms, dtype=np.int64))
    return _sums(fam, n, terms)[0]


def _weigh(fam: FactorialFamily, plan: DyadicPlan, sums: np.ndarray,
           magnitudes: np.ndarray) -> Tuple[complex, float]:
    """The plan's value, the running sum of its level sums under the
    weights g_k of its Richardson form, and the error assembly adds: the
    size of the last correction, eps times the kept terms' magnitudes,
    each through its level's weight and gain |g_k| (the term's own
    rounding, and that of its level sum and of the products that weigh
    it), and eps/2 times each running sum past the first, the one
    rounding each addition of the form makes.  A plan has a few dozen
    levels at most, so they are weighed one by one."""
    K = plan.K
    g, gain, c = _richardson(K, fam.ladder[:plan.steps]).tolist()
    value = corr = 0j
    kept = running = 0.0
    for k, (w, s, m) in enumerate(zip(fam.weight[:K + 1].tolist(), sums.tolist(), magnitudes.tolist())):
        level = w * s
        value += g[k] * level
        corr += c[k] * level
        kept += gain[k] * abs(w) * m
        if k:
            running += abs(value)
    return value, (abs(corr) if plan.steps else 0.0) + _EPS * (kept + 0.5 * running)


def assemble(fam: FactorialFamily, plan: DyadicPlan) -> Tuple[complex, float]:
    """The plan's value over the family (the weighted level sums through
    the Richardson form of the plan's steps) and the error it adds to the
    plan's prediction, in the units of the value: the size of its last
    correction plus the rounding of the kept terms and of the form's
    running sum (``_weigh``).  A plan outside the family (``level_sums``)
    raises DomainError."""
    if plan.steps > len(fam.ladder):
        raise DomainError(f"{fam.name}: the ladder has {len(fam.ladder)} steps, "
                          f"the plan asks for {plan.steps}")
    n, _, terms = _walk(fam, np.asarray(plan.n_terms, dtype=np.int64))
    return _weigh(fam, plan, *_sums(fam, n, terms))


def evaluate(fam: FactorialFamily, tol: float,
             plan: Optional[DyadicPlan] = None) -> Tuple[DyadicPlan, complex, float]:
    """The family's value at ``tol``, unchecked (an evaluator plans a tol
    mapped from its caller's): the plan, the value and the error
    ``assemble`` adds to the plan's prediction.  Without a ``plan`` the
    planner's walk also yields the level sums, so the terms are formed
    once; a given plan is assembled as it stands."""
    if plan is not None:
        return (plan, *assemble(fam, plan))
    plan, sums, magnitudes = _plan(fam, tol)
    return (plan, *_weigh(fam, plan, sums, magnitudes))
