import cmath
import dataclasses
import math

import numpy as np
import pytest

from dyafact.dyadic import (
    LADDER_LEVELS,
    SHIFT_FLOOR,
    TABLE_COLUMNS,
    CutProximityError,
    DyadicPlan,
    FactorialFamily,
    amplification,
    dyadic_cauchy_partial,
    dyadic_reciprocal_partial,
    evaluate,
    level_sums,
    plan_truncation,
    ramified_partial,
    romberg,
)
from dyafact.scalar import DomainError, PoleError
from dyafact.specfun import ei_left_family, ei_stokes_family
from dyafact import borel, oracle, specfun


def term_ratios(fam, levels, width):
    """|t_{k,i+1}/t_{k,i}| = |numer(k, i)| / |shift_k + i| of levels
    0..levels-1 for i = 1..width-1, read from the family's table."""
    num = fam.table[:levels, 1:width]
    return np.abs(num) / np.abs(fam.shift[:levels, None] + np.arange(1, width))


def limit_ratio(fam, k):
    """The level-k term ratio |t_{m+1}/t_m| of an Ei description as
    m -> inf: past column 0 its numerators are the closed form
    numer(k, i) = i numer(k, 1), here at i = 1e30."""
    i = 1e30
    return float(abs(i * fam.table[k, 1]) / abs(fam.shift[k] + i))


class TestReciprocal:
    def test_limit_real(self):
        assert dyadic_reciprocal_partial(1.0, 40) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_n30(self):
        # partial sum equals 1/(2^n (1 - e^{-p/2^n})) exactly
        p, n = 2.0, 30
        closed = 1.0 / (2.0**n * -math.expm1(-p / 2.0**n))
        assert dyadic_reciprocal_partial(p, n).real == pytest.approx(closed, rel=1e-13)
        assert abs(dyadic_reciprocal_partial(p, n) - 0.5) < 1e-9

    def test_complex(self):
        v = dyadic_reciprocal_partial(2.0 + 1.0j, 35)
        assert abs(v - 1.0 / (2.0 + 1.0j)) < 1e-9

    def test_convergence_rate_halves(self):
        # error halves (within factor 1.2) per extra level on an annulus
        # grid, away from the imaginary-axis denominator zeros
        rng = np.random.default_rng(2)
        for _ in range(40):
            r = rng.uniform(0.1, 10.0)
            ang = rng.uniform(0, 2 * math.pi)
            p = r * cmath.exp(1j * ang)
            if min(abs(p.imag / math.pi - round(p.imag / math.pi)), 1.0) < 1e-3 and abs(p.real) < 0.1:
                continue
            n0 = int(math.log2(max(abs(p), 1.0))) + 6
            errs = [abs(dyadic_reciprocal_partial(p, n) - 1.0 / p) for n in range(n0, n0 + 6)]
            for a, b in zip(errs[:-1], errs[1:]):
                if a < 1e-14:
                    break
                assert b <= a * 0.5 * 1.2

    def test_removable_singularity(self):
        # i pi is a removable point of the right side: values just off it agree
        a = dyadic_reciprocal_partial(1j * math.pi * (1 + 1e-6), 40)
        b = dyadic_reciprocal_partial(1j * math.pi * (1 - 1e-6), 40)
        assert abs(a - b) < 1e-4

    def test_pole(self):
        with pytest.raises(PoleError):
            dyadic_reciprocal_partial(0.0, 10)

    def test_denominator_guard(self):
        with pytest.raises(PoleError):
            dyadic_reciprocal_partial(2j * math.pi * (1 + 1e-12), 4)


class TestCauchy:
    def test_simple(self):
        assert abs(dyadic_cauchy_partial(-1.0, 0.0, 1.0, 40) - (-1.0)) < 1e-10

    def test_stokes_parameterization(self):
        # beta = 1/2, s = 2 pi i, argument 2 pi i p: the Stokes-sector kernel
        s = 2j * math.pi
        p = 2j * math.pi * 0.3
        v = dyadic_cauchy_partial(s, p, 0.5, 40)
        assert abs(v - 1.0 / (2j * math.pi * 0.7)) < 1e-9

    def test_third(self):
        assert abs(dyadic_cauchy_partial(-1.0, 5.0, 1.0, 40) - (-1.0 / 6.0)) < 1e-10

    def test_reparameterization_invariance(self):
        # (s, p, beta) -> (ls, lp, beta/l) leaves the value unchanged
        s, p, beta = -1.3 + 0.4j, 0.7 - 0.2j, 1.0
        base = dyadic_cauchy_partial(s, p, beta, 45)
        for lam in (2.0, 1j, 1.0 + 1.0j):
            v = dyadic_cauchy_partial(lam * s, lam * p, beta / lam, 45)
            assert abs(v * lam - base) <= 1e-10 * max(1.0, abs(base))

    def test_zero_beta(self):
        with pytest.raises(DomainError):
            dyadic_cauchy_partial(-1.0, 0.0, 0.0, 10)

    @pytest.mark.parametrize("s, p, beta, K", [
        (-1.3 + 0.4j, 0.7 - 0.2j, 1.0, 7), (2.0, -0.5 + 1.5j, 0.5 - 0.5j, 20),
        (0.3j, 4.0, 1j, 0), (-2.5 - 1.0j, 1.5 + 0.5j, 2.0, 45)])
    def test_docstring_levels(self, s, p, beta, K):
        # the base and level terms of the docstring, summed one by one
        es, ep = cmath.exp(-beta * s), cmath.exp(-beta * p)
        total = -beta * es / (es - ep)
        for k in range(1, K + 1):
            w = beta * 2.0**-k
            total += w * cmath.exp(-w * s) / (cmath.exp(-w * s) + cmath.exp(-w * p))
        assert abs(dyadic_cauchy_partial(s, p, beta, K) - total) <= 1e-13 * abs(total)


def _cauchy_p_derivative(s, p, K):
    """Central difference in p of the Cauchy decomposition at beta = 1:
    the derivative kernel 1/(s - p)^2 once the levels have converged."""
    h = 1e-5
    return (dyadic_cauchy_partial(s, p + h, 1.0, K) - dyadic_cauchy_partial(s, p - h, 1.0, K)) / (2 * h)


class TestCauchyDeriv:
    def test_unit(self):
        assert abs(_cauchy_p_derivative(-1.0, 0.0, 40) - 1.0) < 1e-9

    def test_shifted(self):
        # s = -1 - t at t = 1, p = 0.5: 1/(2.5)^2
        assert abs(_cauchy_p_derivative(-2.0, 0.5, 40) - 0.16) < 1e-9

    def test_finite_difference_consistency(self):
        # the difference matches the p-derivatives of the docstring terms,
        # summed level by level: e_s e_p / (e_s - e_p)^2 for the base and
        # w^2 e_s,k e_p,k / (e_s,k + e_p,k)^2 at level k, w = 2^-k
        s, p, K = -1.7, 0.4, 45
        es, ep = cmath.exp(-s), cmath.exp(-p)
        exact = es * ep / (es - ep) ** 2
        for k in range(1, K + 1):
            w = 2.0**-k
            esk, epk = cmath.exp(-w * s), cmath.exp(-w * p)
            exact += w * w * esk * epk / (esk + epk) ** 2
        assert _cauchy_p_derivative(s, p, K).real == pytest.approx(exact.real, rel=1e-6)


class TestRamified:
    def test_s_zero_reduction(self):
        assert ramified_partial(0.0, 1.0, 40) == dyadic_reciprocal_partial(1.0, 40)

    def test_unit_point(self):
        assert abs(ramified_partial(0.5, 1.0, 60) - 1.0) < 1e-6

    def test_p_four(self):
        assert abs(ramified_partial(0.5, 4.0, 60) - 0.5) < 1e-6

    def test_negative_order(self):
        assert abs(ramified_partial(-0.5, 2.0, 60) - 2.0**-1.5) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            ramified_partial(1.5, 1.0, 10)
        with pytest.raises(DomainError):
            ramified_partial(0.5, -1.0, 10)


class TestRemainderBound:
    def test_doubling_shrinks_geometrically(self):
        # the planner's base-series remainder (next term over the gap)
        fam = ei_stokes_family(5.0)
        r = term_ratios(fam, 1, 41)[0]
        t = fam.size[0] * np.cumprod(r)             # |t_{n+1}|, n = 1..40
        rem = lambda n: t[n - 1] / (1.0 - r[n - 1])
        for n in (5, 10, 20):
            assert rem(2 * n) <= rem(n) * 2.0 ** (-(n - 1))

    def test_ei_left_base(self):
        assert limit_ratio(ei_left_family(2.0), 0) == pytest.approx(1.0 / (math.e - 1.0))

    def test_level_base_tends_to_half(self):
        fam = ei_stokes_family(5.0)
        assert limit_ratio(fam, 40) == pytest.approx(0.5, rel=1e-6)
        assert limit_ratio(fam, 1) == pytest.approx(1.0 / math.sqrt(2.0))


class TestPlanner:
    def test_plan_shape(self):
        plan = plan_truncation(ei_stokes_family(5.0), 1e-5)
        assert len(plan.n_terms) == plan.K + 1
        assert plan.predicted_error <= 1e-5

    def test_monotonicity_in_tol(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = rng.uniform(0.5, 10.0) * cmath.exp(1j * rng.uniform(-0.4 * math.pi, 0.9 * math.pi))
            tol = 10.0 ** rng.uniform(-9, -2)
            p1 = specfun.ei_stokes(x, tol).plan
            p2 = specfun.ei_stokes(x, tol / 2).plan
            assert p2.K >= p1.K
            assert all(n2 >= n1 for n1, n2 in zip(p1.n_terms, p2.n_terms))

    def test_soundness_against_oracle(self):
        # executing the plan yields actual error <= 3 tol across the region
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rng.uniform(0.5, 12.0)
            ang = rng.uniform(-0.45 * math.pi, 0.95 * math.pi)
            x = r * cmath.exp(1j * ang)
            tol = 10.0 ** rng.uniform(-10, -2)
            res = specfun.ei_stokes(x, tol)
            ref = oracle.ei_series_reference(x)
            assert abs(res.value - ref) <= 3.0 * tol

    def test_loose_tolerance_trivial_plan(self):
        # at large x and the loosest tolerances one term per series suffices
        plan = plan_truncation(ei_stokes_family(500.0), 9e-2)
        assert plan.K <= 1
        assert all(n == 1 for n in plan.n_terms)

    def test_geometric_base_in_unit_interval(self):
        for fam in (ei_stokes_family(5.0), ei_left_family(5.0)):
            for k in range(0, 61):
                assert 0.0 < limit_ratio(fam, k) < 1.0

    @pytest.mark.parametrize("rho, width", [(0.8, 65), (0.9, 129)])
    def test_a_walk_does_not_stop_on_the_last_column_of_a_chunk(self, rho, width):
        # one level of terms rho^j, but for term ``width``, cut to 1e-12 of
        # its neighbours: a chunk of ``width`` columns ends on the term
        # before it, where the term after next lies past the chunk.  A stop
        # there would keep width - 1 terms at an error of rho^(width+1) / (1 - rho)
        quot = np.full(TABLE_COLUMNS, rho)
        quot[width - 1] *= 1e-12
        quot[width] /= 1e-12
        i = np.arange(TABLE_COLUMNS)
        fam = FactorialFamily("one level", np.ones(1, dtype=complex), np.ones(1),
                              (quot * (1.0 + i))[None, :], np.array([rho]), safety=2.0)
        terms = np.cumprod(quot)
        exact = terms.sum() + terms[-1] * rho / (1.0 - rho)
        tol = 1e-3 * 0.5 * rho ** width
        plan, value, _ = evaluate(fam, tol)
        assert plan.n_terms[0] > width
        assert abs(value - exact) <= plan.predicted_error <= tol

    def test_cut_proximity_raises(self):
        with pytest.raises(CutProximityError):
            plan_truncation(ei_stokes_family(0.04 - 2.0j), 1e-6)

    def test_tol_domain(self):
        with pytest.raises(DomainError):
            plan_truncation(ei_stokes_family(5.0), 0.5)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_too_few_levels_for_the_ladder(self, levels):
        # four Richardson steps need five partial sums: a psi family cut to
        # at most four levels is outside the planner's domain
        fam = specfun.psi_family(5.0)
        assert len(fam.ladder) == 4
        cut = dataclasses.replace(fam, shift=fam.shift[:levels], weight=fam.weight[:levels],
                                  size=fam.size[:levels])
        for call in (plan_truncation, evaluate):
            with pytest.raises(DomainError, match="psi-dyadic: 4 Richardson steps need 5 levels"):
                call(cut, 1e-10)
        five = dataclasses.replace(fam, shift=fam.shift[:5], weight=fam.weight[:5],
                                   size=fam.size[:5])
        assert plan_truncation(five, 1e-10).K == 4


class TestDyadicPlan:
    def test_validation(self):
        with pytest.raises(DomainError):
            DyadicPlan(K=2, n_terms=[3, 3], predicted_error=1e-6)
        with pytest.raises(DomainError):
            DyadicPlan(K=1, n_terms=[3, 0], predicted_error=1e-6)
        with pytest.raises(DomainError):
            DyadicPlan(K=0, n_terms=[3], predicted_error=0.0)

    def test_terms_total(self):
        assert DyadicPlan(K=2, n_terms=[4, 3, 2], predicted_error=1e-8).terms_total == 9

    def test_steps_default_to_plain_truncation(self):
        assert DyadicPlan(K=2, n_terms=[4, 3, 2], predicted_error=1e-8).steps == 0
        for steps in (-1, 3):
            with pytest.raises(DomainError):
                DyadicPlan(K=2, n_terms=[4, 3, 2], predicted_error=1e-8, steps=steps)


class TestRomberg:
    LADDER = (1.0, 2.5, 3.1)

    def partial_sums(self, K):
        k = np.arange(K + 1.0)
        return 1.0 + 0.3 * 2.0**-k - 0.7 * 2.0 ** (-2.5 * k) + 0.2 * 2.0 ** (-3.1 * k)

    def test_removes_the_ladder_terms(self):
        for K in (3, 8, 20):
            value, corr = romberg(self.partial_sums(K), self.LADDER)
            assert value == pytest.approx(1.0, abs=2e-15)
            two, _ = romberg(self.partial_sums(K), self.LADDER[:2])
            assert corr == pytest.approx(value - two, abs=1e-15)

    def test_fewer_steps_leave_the_next_term(self):
        K = 12
        value, corr = romberg(self.partial_sums(K), self.LADDER[:1])
        lead = -0.7 * 2.0 ** (-2.5 * K) * (2.0 - 2.0**2.5) / (2.0 - 1.0)
        assert value - 1.0 == pytest.approx(lead, rel=0.05)
        assert romberg(self.partial_sums(K), ()) == (self.partial_sums(K)[-1], 0.0)

    def test_amplification(self):
        assert amplification((1.0,)) == pytest.approx(3.0)
        assert amplification((1.0, 2.0)) == pytest.approx(3.0 * 5.0 / 3.0)

    def test_level_errors_enter_with_the_planned_gains(self):
        # a perturbation of level k moves the extrapolated value by g_k times
        # it, and the last correction by the form's third row times it
        from dyafact.dyadic import _richardson
        for K, ladder in ((7, (0.4, 1.4, 2.4, 3.4)), (4, (1.0,)), (3, ())):
            form = _richardson(K, ladder)
            base, base_corr = romberg(np.zeros(K + 1), ladder)
            moves = [romberg(np.cumsum(np.eye(K + 1)[k]), ladder) for k in range(K + 1)]
            assert np.allclose([m[0] - base for m in moves], form[0], rtol=1e-12, atol=1e-12)
            assert np.allclose([m[1] - base_corr for m in moves], form[2], rtol=1e-12, atol=1e-12)
            assert np.array_equal(form[1], np.abs(form[0]))
            assert not form.flags.writeable

    def test_laddered_plan(self):
        for x, tol in ((2.0, 1e-10), (0.05, 1e-8), (15.0 - 4.0j, 1e-6)):
            fam = ei_left_family(x)
            plan = plan_truncation(fam, tol)
            assert plan.steps == len(fam.ladder) == 4
            assert plan.steps <= plan.K <= LADDER_LEVELS
            assert abs(fam.shift[plan.K]) >= SHIFT_FLOOR
            assert plan.predicted_error <= tol
            # K is the first level past the ladder whose modeled correction
            # fits half of tol with |x_K| past the floor
            lam, xk = fam.ladder, np.abs(fam.shift)
            rho = 2.0 ** -np.arange(len(xk)) + 2.0 / xk
            corr = fam.size / (2.0 ** lam[0] - 1.0) * rho ** (lam[-1] - lam[0])
            ok = (corr <= tol / 2) & (xk >= SHIFT_FLOOR)
            ok[:len(lam)] = False
            assert ok[plan.K] and not ok[:plan.K].any()
        assert plan_truncation(ei_stokes_family(5.0), 1e-10).steps == 0

    def test_caller_plan_is_a_plain_sum(self):
        x = 2.0 - 0.5j
        fam = ei_left_family(x)
        plain = DyadicPlan(K=6, n_terms=[60] * 7, predicted_error=1e-3)
        r = specfun.ei_left(x, plan=plain)
        assert r.value == pytest.approx(complex(np.sum(level_sums(fam, plain.n_terms))), abs=1e-15)
        ref = complex(-oracle.quad_adaptive(lambda p: np.exp(-x * p) / (1.0 + p), 0.0, math.inf, 1e-13))
        extrapolated = specfun.ei_left(x, plan=DyadicPlan(6, [60] * 7, 1e-3, steps=4))
        assert abs(extrapolated.value - ref) < 1e-4 * abs(r.value - ref)

    def test_plan_asks_for_more_steps_than_the_ladder(self):
        plan = DyadicPlan(K=6, n_terms=[5] * 7, predicted_error=1e-3, steps=1)
        with pytest.raises(DomainError):
            evaluate(ei_stokes_family(5.0), 1e-10, plan)


def _family_and_term(name):
    """A family description and its level-k term j (j = 1, 2, ...) written
    out from the closed forms and coefficient rows."""
    def pochhammer(x, j):   # the rising factorial (x)_j
        return math.prod(x + i for i in range(j))

    if name == "ei-stokes":
        x = 3.0 + 1.0j
        y = -1j * x / math.pi

        def term(k, j):
            ek = cmath.exp(-1j * math.pi * 2.0**-k)
            c = -(2.0**-j) if k == 0 else ek * (1.0 + ek) ** -j
            return c * math.gamma(j) / pochhammer(2.0**k * y, j)
        return ei_stokes_family(x), term
    if name == "ei-left":
        x = 2.0 - 0.5j

        def term(k, j):
            a = math.exp(2.0**-k)
            c = math.e * (1.0 - math.e) ** -j if k == 0 else a * (a + 1.0) ** -j
            return c * math.gamma(j) / pochhammer(2.0**k * x, j)
        return ei_left_family(x), term
    if name == "psi":
        x = 1.5 + 0.2j

        def term(k, j):
            shift = 2.0**k * x + 1.0
            return 2.0**-j * math.gamma(j) / pochhammer(shift, j)
        return specfun.psi_family(x), term
    if name == "inc-gamma":
        s, x = 0.25, 1.7 + 0.3j
        coeffs = specfun._gamma_coeffs(s)

        def term(k, j):
            return coeffs[k, j - 1] / pochhammer(2.0**k * x, j)
        return specfun._gamma_template(s).at(x), term
    table, u = borel.get_table(1.0 / 3.0, 34, 34), 6.0 + 1.0j

    def term(k, j):
        # a level's terms are u_k times its series': 1/2^k sits in its
        # weight, and 1/u divides the family's sum
        m = j + 1
        d = (-1.0) ** m * table.dm[m - 2] if k == 0 else table.dkm[k - 1, m - 2]
        return 2.0**k * u * d * math.gamma(m) / pochhammer(2.0**k * u, m)
    return table.template.at(u), term


@pytest.mark.parametrize("name", ["ei-stokes", "ei-left", "psi", "inc-gamma", "h"])
def test_level_sums_match_term_by_term(name):
    fam, term = _family_and_term(name)
    for k in (0, 1, 3):
        for n in (1, 2, 6):
            terms = [term(k, j) for j in range(1, n + 1)]
            got = level_sums(fam, [n] * (k + 1))[k]
            assert abs(got - sum(terms)) <= 1e-13 * sum(abs(t) for t in terms)


class TestAllocation:
    def test_levels_are_the_smallest_count_meeting_half_tol(self):
        for x, tol in ((5.0, 1e-8), (2.0 + 1.0j, 1e-5), (12.0, 1e-10)):
            fam = ei_stokes_family(x)
            tails = fam.tails()
            # summed from the deepest level up, one level at a time
            acc, deepest_up = 0.0, []
            for size in fam.size[:0:-1].tolist():
                acc += size
                deepest_up.append(fam.safety * acc)
            assert tails == deepest_up[::-1] + [0.0]
            K = plan_truncation(fam, tol).K
            assert tails[K] <= tol / 2 and (K == 0 or tails[K - 1] > tol / 2)

    def test_levels_share_the_budget_evenly(self):
        # every level keeps the smallest count whose remainder fits an even
        # share of what the tail left; ei_stokes plans 9 - i at its
        # conjugate, where no level has a pole window
        for x, tol in ((5.0, 1e-8), (1.0 + 2.0j, 1e-6), (9.0 - 1.0j, 1e-10)):
            fam = ei_stokes_family(x if x.imag >= 0 else x.conjugate())
            plan = specfun.ei_stokes(x, tol).plan
            share = (tol - fam.tails()[plan.K]) / (fam.safety * (plan.K + 1))
            r = term_ratios(fam, plan.K + 1, TABLE_COLUMNS)
            t = fam.size[:plan.K + 1, None] * np.cumprod(r, axis=1)
            ok = t / (1.0 - r) <= share
            assert ok.any(axis=1).all()
            even = np.argmax(ok, axis=1) + 1
            assert plan.n_terms == even.tolist()
            assert plan.predicted_error <= tol

    def test_exhausted_rows_report_the_shortfall(self):
        # an 8-column table supports 6 planned terms per level; Airy's h at
        # u = 2 needs far more for 1e-10, and the prediction must say so
        kern = borel.BorelKernel.build(1.0 / 3.0, p_far=2.0**8 * 78.0)
        table = borel.CoefficientTable.build(kern, 8, 8)
        plan = plan_truncation(table.template.at(2.0), 1e-10)
        assert max(plan.n_terms) <= 6
        assert plan.predicted_error > 1e-10
