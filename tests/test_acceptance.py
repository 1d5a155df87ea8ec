"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity next to its required tolerance.

Criterion 1 checks what a four-series truncation of the Stokes expansion
really computes at x = 5: the kept series converge to their own truncated
kernel, the discarded dyadic levels leave the predicted tail
pi 2^-(K+1)/x, and the planner reaches 1e-5 by keeping enough levels
(see the acceptance paragraph of the README).
"""

import cmath
import math
import time

import numpy as np
import pytest

import dyafact.borel as borel
import dyafact.operators as operators
import dyafact.oracle as oracle
import dyafact.specfun as specfun
from dyafact import cli
from dyafact.dyadic import (
    DyadicPlan,
    dyadic_cauchy_partial,
    dyadic_reciprocal_partial,
    level_sums,
    plan_truncation,
    ramified_partial,
)
from dyafact.scalar import (
    CoefficientStream,
    factorial_series_eval,
    factorial_to_borel,
    polylog,
)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def _ei_plus_truncated_kernel(x: float, K: int) -> complex:
    """Laplace integral of the K-level partial dyadic Cauchy kernel, on
    the contour 0 -> -i -> +infinity, which passes below p = 1 as the Ei+
    integral does.

    With s = i pi and t = i pi p, the Ei+ integrand 1/(1 - p) is
    i pi / (s - t); its dyadic decomposition summed to level K telescopes
    to the single kernel T_K(t) = -2^-K e^{-s/2^K} / (e^{-s/2^K} - e^{-t/2^K}),
    written out here so that the reference shares no code with the
    evaluator.
    """
    w = 2.0**-K
    es = cmath.exp(-1j * math.pi * w)

    def integrand(p):
        t = 1j * math.pi * np.asarray(p)
        return np.exp(-x * p) * 1j * math.pi * (-w * es / (es - np.exp(-w * t)))

    return oracle.quad_contour(integrand, oracle.Contour((0.0 + 0.0j, -1.0j)), 1e-13,
                               tail_direction=1.0 + 0.0j)


def test_criterion_01_four_series_truncation():
    """Stokes expansion at x = 5 over 4 series (K = 3), target 1e-5 in
    under 0.1 s, checked in three parts against oracle quadratures:

    1. with the planner's per-series counts for a 1e-5 budget, the four
       series match the Laplace integral of their own truncated kernel T_3
       to 1e-5, in under 0.1 s;
    2. the distance from e^{-x} Ei+(x) to that four-level value is the
       discarded dyadic tail pi 2^-(K+1)/x to within 2 %, and no larger
       than the family description's tail estimate;
    3. ei_stokes(5, 1e-5) meets 1e-5 in under 0.1 s, keeping at least the
       15 levels that pi 2^-(K+1)/x <= 1e-5 requires.

    The caption's (10, 5) counts are reported next to the result.
    """
    x, K, tol = 5.0, 3, 1e-5
    fam = specfun.ei_stokes_family(x)
    counts = plan_truncation(fam, tol).n_terms[:K + 1]
    four = DyadicPlan(K=K, n_terms=counts, predicted_error=fam.tails()[K])
    t0 = time.perf_counter()
    r = specfun.ei_stokes(x, plan=four)
    runtime = time.perf_counter() - t0
    series_err = abs(r.value - _ei_plus_truncated_kernel(x, K))

    ei_plus = oracle.ei_plus_reference(x)
    tail = abs(ei_plus - r.value)
    tail_pred = math.pi * 2.0 ** -(K + 1) / x

    t0 = time.perf_counter()
    planned = specfun.ei_stokes(x, tol)
    planned_runtime = time.perf_counter() - t0
    planned_err = abs(planned.value - ei_plus)
    k_min = math.ceil(math.log2(math.pi / (x * tol))) - 1  # pi 2^-(K+1)/x <= tol

    caption = np.abs(level_sums(fam, [10, 5]) - level_sums(fam, [200, 200]))

    ok_series = series_err <= tol and runtime < 0.1
    ok_tail = abs(tail / tail_pred - 1.0) <= 0.02 and tail <= four.predicted_error
    ok_target = planned_err <= tol and planned_runtime < 0.1 and planned.plan.K >= k_min
    ok = ok_series and ok_tail and ok_target
    report("criterion 1 (four-series truncation at x=5)", ok,
           f"series {counts} vs T_3 kernel = {series_err:.3e} (<= 1e-5) in "
           f"{runtime*1e3:.1f} ms (< 100); dyadic tail = {tail:.4e} vs "
           f"pi 2^-(K+1)/x = {tail_pred:.4e} (within 2%), described tail = "
           f"{four.predicted_error:.3e}; planned K = {planned.plan.K} (>= {k_min}), "
           f"error = {planned_err:.3e} (<= 1e-5) in {planned_runtime*1e3:.1f} ms; "
           f"caption counts (10, 5) leave {caption[0]:.1e} and {caption[1]:.1e} "
           "in the base and level-1 series")
    assert ok_series, (
        f"the four series with counts {counts} miss their truncated kernel T_3 by "
        f"{series_err:.3e} (need <= 1e-5) or took {runtime*1e3:.1f} ms (need < 100)"
    )
    assert ok_tail, (
        f"|Ei+ - four-level value| = {tail:.4e}, but the levels k > {K} should leave "
        f"pi 2^-(K+1)/x = {tail_pred:.4e} (within 2%) and at most the description's "
        f"{four.predicted_error:.3e}; see the acceptance paragraph of README.md"
    )
    assert ok_target, (
        f"ei_stokes(5, 1e-5) planned K = {planned.plan.K} (need >= {k_min}) and "
        f"missed Ei+ by {planned_err:.3e} (need <= 1e-5) in "
        f"{planned_runtime*1e3:.1f} ms (need < 100)"
    )


def test_criterion_02_stokes_line_accuracy():
    """ei_stokes over 100 points of [1, 14] at tol 1e-8: max error vs the
    contour quadrature <= 3e-8, evaluation under 2 s."""
    xs = np.linspace(1.0, 14.0, 100)
    t0 = time.perf_counter()
    vals = [specfun.ei_stokes(float(x), 1e-8).value for x in xs]
    runtime = time.perf_counter() - t0
    err = max(abs(v - oracle.ei_plus_reference(float(x))) for v, x in zip(vals, xs))
    ok = err <= 3e-8 and runtime < 2.0
    report("criterion 2 (Stokes-line accuracy)", ok,
           f"max error = {err:.3e} (need <= 3e-8), eval time = {runtime:.2f} s")
    assert ok


def test_criterion_03_stokes_jump():
    """Im e^{-x} Ei^+(x) = -pi e^{-x} on [1, 10] to 1e-8."""
    worst = max(abs(specfun.ei_stokes(float(x), 3e-9).value.imag + math.pi * math.exp(-x))
                for x in np.linspace(1.0, 10.0, 19))
    ok = worst <= 1e-8
    report("criterion 3 (half-residue Stokes jump)", ok,
           f"max |Im + pi e^-x| = {worst:.3e} (need <= 1e-8)")
    assert ok


def test_criterion_04_antistokes_dichotomy(tmp_path):
    """fig-stokes dataset: >= 3 sign changes of Im on the +0.3 side and
    monotone (5% ripple) |Im| decay on the -0.3 side over t in [1, 10]."""
    out = tmp_path / "stokes.csv"
    assert cli.cmd_figure("fig-stokes", "csv", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    im_left, im_right = rows[:, 1], rows[:, 2]
    changes = int(np.sum(np.abs(np.diff(np.sign(im_right))) > 0))
    mags = np.abs(im_left)
    monotone = all(mags[i + 1] <= mags[i] * 1.05 for i in range(len(mags) - 1))
    ok = changes >= 3 and monotone
    report("criterion 4 (antistokes dichotomy)", ok,
           f"sign changes = {changes} (need >= 3), left-side monotone within 5% = {monotone}")
    assert ok


def test_criterion_05_left_base_series_term_count():
    """At x = 0.1 the left-plane base series first reaches 1e-5 relative
    error at 20 +/- 3 terms."""
    fam = specfun.ei_left_family(0.1)
    limit = level_sums(fam, [200])[0]
    n = 1
    while abs(level_sums(fam, [n])[0] - limit) > 1e-5 * abs(limit):
        n += 1
    ok = 17 <= n <= 23
    report("criterion 5 (20-term base series at x=0.1)", ok,
           f"first n with rel err <= 1e-5: {n} (need 20 +/- 3)")
    assert ok


def test_criterion_06_airy_reproduction():
    """Ai via the dyadic pipeline: rel err <= 1e-10 on [4, 20] with <= 40
    total terms at x = 20, <= 200 at x = 2; build < 10 s, cached < 0.5 s."""
    borel._table.cache_clear()
    t0 = time.perf_counter()
    r20 = borel.airy_from_h(20.0, 1e-10)
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    borel.airy_from_h(20.0, 1e-10)
    t_cached = time.perf_counter() - t0
    rel = [abs(borel.airy_from_h(float(x), 1e-10).value.real / oracle.airy_reference(float(x)) - 1.0)
           for x in np.arange(4.0, 20.5, 1.0)]
    r2 = borel.airy_from_h(2.0, 1e-10)
    ok = (max(rel) <= 1e-10 and r20.terms_total <= 40 and r2.terms_total <= 200
          and t_build < 10.0 and t_cached < 0.5)
    report("criterion 6 (Airy reproduction)", ok,
           f"max rel = {max(rel):.3e} (<= 1e-10), terms(20) = {r20.terms_total} (<= 40), "
           f"terms(2) = {r2.terms_total} (<= 200), build = {t_build:.2f} s, "
           f"cached = {t_cached*1e3:.1f} ms")
    assert ok


def test_criterion_07_strange_identity():
    """Self-referencing digamma identity residual <= 1e-10 at K = 40."""
    worst = max(oracle.verify_strange_identity(x, 40) for x in (0.5, 1.0, 2.0, 10.0))
    ok = worst <= 1e-10
    report("criterion 7 (strange identity)", ok,
           f"max residual = {worst:.3e} (need <= 1e-10)")
    assert ok


def test_criterion_08_psi_dyadic():
    """psi_dyadic matches the reference digamma to 1e-8 relative."""
    worst = 0.0
    for x in (1.0, 2.0, 5.0, 10.0, 50.0):
        ref = oracle.psi_reference(x + 1.0)
        worst = max(worst, abs(specfun.psi_dyadic(x, 1e-9).value - ref) / abs(ref))
    ok = worst <= 1e-8
    report("criterion 8 (digamma expansion)", ok,
           f"max rel = {worst:.3e} (need <= 1e-8)")
    assert ok


def test_criterion_09_erfc():
    """erfc_dyadic matches the reference to 1e-8 relative on a 20-point
    grid of [0.25, 25]."""
    worst = 0.0
    for x in np.linspace(0.25, 25.0, 20):
        ref = oracle.erfc_reference(float(x))
        worst = max(worst, abs(specfun.erfc_dyadic(float(x)).value.real / ref - 1.0))
    ok = worst <= 1e-8
    report("criterion 9 (erfc / incomplete gamma)", ok,
           f"max rel = {worst:.3e} (need <= 1e-8)")
    assert ok


def test_criterion_10_remainder_scaling():
    """Base-series remainder contraction: ~1/2 per term for the Stokes
    family at x = 3+2i (band [0.35, 0.65]); ~1/(e-1) for the left-plane
    family at x = 2 (band [0.45, 0.75])."""
    base = lambda fam, n: level_sums(fam, [n])[0]
    fam = specfun.ei_stokes_family(3.0 + 2.0j)
    rems = [abs(base(fam, n) - base(fam, 150)) for n in range(1, 40)]
    stokes_ratios = [rems[n] / rems[n - 1] for n in range(10, 26)]
    fam = specfun.ei_left_family(2.0)
    rems = [abs(base(fam, n) - base(fam, 150)) for n in range(1, 40)]
    left_ratios = [rems[n] / rems[n - 1] for n in range(10, 26)]
    ok = (all(0.35 <= r <= 0.65 for r in stokes_ratios)
          and all(0.45 <= r <= 0.75 for r in left_ratios))
    report("criterion 10 (remainder contraction bands)", ok,
           f"stokes ratios in [{min(stokes_ratios):.3f}, {max(stokes_ratios):.3f}] "
           f"(band [0.35, 0.65]); left ratios in [{min(left_ratios):.3f}, "
           f"{max(left_ratios):.3f}] (band [0.45, 0.75])")
    assert ok


def test_criterion_11_operator_identities():
    """Resolvent, inverse and fractional power of desk-scale Hermitian
    matrices through the dyadic evolution/semigroup series."""
    rng = np.random.default_rng(42)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    op = operators.HermitianOperator.from_matrix((a + a.conj().T) / 2)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    res, _ = operators.resolvent_dyadic(op, 1.0, 40, v)
    err_res = np.linalg.norm(res - np.linalg.solve(op.matrix - 1j * np.eye(16), v))

    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    spd_m = (q * np.linspace(0.5, 8.0, 16)) @ q.conj().T
    spd = operators.HermitianOperator.from_matrix((spd_m + spd_m.conj().T) / 2)
    _, rep = operators.inverse_dyadic(spd, 40)
    errs = dict(rep.error_curve)
    slopes = [math.log2(errs[k] / errs[k + 1]) for k in range(10, 30)]
    pw, _ = operators.fractional_power_dyadic(spd, 0.5, 60)
    ref = spd.apply_scalar(lambda t: math.pi * t ** (-0.5))
    err_pw = np.linalg.norm(pw - ref, "fro") / np.linalg.norm(ref, "fro")

    ok = (err_res <= 1e-6 and all(0.8 <= s <= 1.2 for s in slopes) and err_pw <= 1e-6)
    report("criterion 11 (operator identities)", ok,
           f"resolvent err = {err_res:.2e} (<= 1e-6), inverse slopes in "
           f"[{min(slopes):.3f}, {max(slopes):.3f}] (band [0.8, 1.2]), "
           f"power rel err = {err_pw:.2e} (<= 1e-6)")
    assert ok


def test_criterion_12_identity_suite():
    """Closed-form limits of the dyadic identities, the polylog
    duplication formula, and the factorial/Borel round trip."""
    recip = max(abs(dyadic_reciprocal_partial(p, 40) - 1.0 / p)
                for p in (1.0, 2.0, 0.5 + 0.8j, 3.0 - 1.0j))
    cauchy = max(
        abs(dyadic_cauchy_partial(-1.0, 0.0, 1.0, 40) + 1.0),
        abs(dyadic_cauchy_partial(2j * math.pi, 2j * math.pi * 0.3, 0.5, 40)
            - 1.0 / (2j * math.pi * 0.7)),
        abs(dyadic_cauchy_partial(-1.0, 5.0, 1.0, 40) + 1.0 / 6.0),
    )
    ram = max(abs(ramified_partial(0.5, 1.0, 60) - 1.0),
              abs(ramified_partial(0.5, 4.0, 60) - 0.5))
    dup = 0.0
    rng = np.random.default_rng(7)
    for s in (-1.0, 0.0, 0.5, 2.0):
        for _ in range(10):
            z = rng.uniform(0.05, 0.7) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            dup = max(dup, abs(polylog(s, z) + polylog(s, -z)
                               - 2.0 ** (1 - s) * polylog(s, z * z)))
    c = specfun.ei_left_base_stream()
    x0 = 3.0
    img = lambda p: np.array([factorial_to_borel(c, pi, 60) for pi in np.atleast_1d(p)])
    lap = oracle.quad_adaptive(lambda p: np.exp(-x0 * p) * img(p), 0.0, math.inf, 1e-11)
    direct = factorial_series_eval(c, x0, 80)
    round_trip = abs(lap - direct) / abs(direct)
    ok = recip <= 1e-9 and cauchy <= 1e-9 and ram <= 1e-6 and dup <= 1e-12 and round_trip <= 1e-8
    report("criterion 12 (identity suite)", ok,
           f"reciprocal = {recip:.2e} (<= 1e-9), cauchy = {cauchy:.2e} (<= 1e-9), "
           f"ramified = {ram:.2e} (<= 1e-6), duplication = {dup:.2e} (<= 1e-12), "
           f"round trip = {round_trip:.2e} (<= 1e-8)")
    assert ok
