import functools
import math

import numpy as np
import pytest

from dyafact import borel, oracle
from dyafact._gauss import QuadratureError, dyadic_edges, geometric_sums, panel_nodes, refined
from dyafact.borel import (
    BorelKernel,
    CoefficientTable,
    airy_from_h,
    airy_h,
    bessel_h,
    bessel_k_dyadic,
    get_table,
)
from dyafact.dyadic import DyadicPlan
from dyafact.scalar import DomainError

NU_AIRY = 1.0 / 3.0


@pytest.fixture(scope="module")
def kern():
    return BorelKernel.build(NU_AIRY)


@pytest.fixture(scope="module")
def table():
    return get_table(NU_AIRY, 34, 34)


class TestKernel:
    def test_value_at_zero(self, kern):
        assert kern.eval_raw(0.0) == pytest.approx(1.0)

    def test_small_p_slope(self, kern):
        # F(p) = 1 + (nu^2 - 1/4) p + O(p^2)
        p = 1e-6
        slope = (kern.eval_raw(p) - 1.0) / p
        assert slope == pytest.approx(NU_AIRY**2 - 0.25, abs=1e-5)

    def test_against_hypergeometric_oracle(self, kern):
        for p in (0.3, 2.0, 10.0, 120.0, 3000.0):
            ref = float(oracle.legendre_kernel_reference(NU_AIRY, p))
            assert kern.eval_raw(p) == pytest.approx(ref, rel=2e-9)

    @pytest.mark.parametrize("nu", [0.05, NU_AIRY, 0.655, 1.45])
    def test_grid_values_vs_hypergeometric(self, nu):
        # the power-series continuation holds F to 1e-13 at every node
        kern = BorelKernel.build(nu)
        ref = oracle.legendre_kernel_reference(nu, np.expm1(kern.q_grid))
        assert np.max(np.abs(kern.f_grid / ref - 1.0)) <= 1e-13

    def test_series_step_beyond_radius_raises(self, kern):
        # the series about p0 converges only within p0 of it (singular point 0)
        p0 = float(np.expm1(kern.q_grid[0]))
        f0, df0 = kern.f_grid[0], kern.fq_grid[0] / (1.0 + p0)
        with pytest.raises(RuntimeError):
            borel._continue(p0, 1.2 * p0, f0, df0, 0.25 - NU_AIRY**2)

    def test_handoff_continuity(self, kern):
        # Taylor germ extended past the seam agrees with the ODE branch
        pv = np.polynomial.polynomial.polyval
        for p in (0.52, 0.55):
            taylor = float(pv(p, kern.taylor_coeffs))
            assert abs(taylor - kern.eval_raw(p)) < 1e-12

    def test_first_derivative_vs_hypergeometric(self, kern):
        # independent check of the stored jet dF/dq = (1+p) F'(p), from which
        # eval_raw interpolates: F' = -(1/4 - nu^2) 2F1(3/2-nu, 3/2+nu; 2; -p)
        import scipy.special as sps
        nu = kern.nu
        p_grid = np.expm1(kern.q_grid)
        for target in (0.7, 3.0, 40.0):
            j = int(np.argmin(np.abs(p_grid - target)))
            p = float(p_grid[j])
            ref = -(0.25 - nu * nu) * float(sps.hyp2f1(1.5 - nu, 1.5 + nu, 2.0, -p))
            assert kern.fq_grid[j] / (1.0 + p) == pytest.approx(ref, rel=2e-9)

    def test_large_p_power_law(self):
        # log F / log p approaches nu - 1/2 within 2% by p = 1e3
        kern = BorelKernel.build(NU_AIRY)
        p1, p2 = 1e3, 2e3
        slope = (math.log(kern.eval_raw(p2)) - math.log(kern.eval_raw(p1))) / math.log(p2 / p1)
        assert abs(slope - (NU_AIRY - 0.5)) < 0.02 * abs(NU_AIRY - 0.5) + 0.01

    def test_public_range_guard(self, kern):
        with pytest.raises(DomainError):
            kern.eval_raw(kern.p_far * 1.5)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            BorelKernel.build(6.0)


class TestCoefficients:
    def test_dm_stub_kernel_closed_form(self):
        # nu = 1/2 has F identically 1: d_m = (e-1)^{1-m} / (m-1)
        table_half = get_table(0.5, 10, 6)
        for m in (2, 3, 6, 10):
            ref = (math.e - 1.0) ** (1 - m) / (m - 1)
            assert table_half.dm[m - 2] == pytest.approx(ref, rel=1e-12)

    def test_dkm_stub_kernel_closed_form(self):
        # F = 1: d_km = 2^k e^{-2^-k} / ((m-1) (e^{2^-k} + 1)^{m-1})
        table_half = get_table(0.5, 10, 6)
        for k, m in ((1, 2), (3, 4), (6, 3)):
            eps = 2.0**-k
            ref = 2.0**k * math.exp(-eps) / ((m - 1) * (math.exp(eps) + 1.0) ** (m - 1))
            assert table_half.dkm[k - 1, m - 2] == pytest.approx(ref, rel=1e-12)

    def test_dm_stability_under_tolerance_change(self, kern):
        # Richardson-style check: tighter quadrature target moves d_2 by < 1e-12
        a = CoefficientTable.build(kern, 4, 1, target=1e-10).dm[0]
        b = CoefficientTable.build(kern, 4, 1, target=1e-14).dm[0]
        assert abs(a - b) < 1e-12

    def test_dkm_stability(self, kern):
        a = CoefficientTable.build(kern, 4, 1, target=1e-10).dkm[0, 0]
        b = CoefficientTable.build(kern, 4, 1, target=1e-14).dkm[0, 0]
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_x_domain_cross_check(self, kern, table):
        # d_{m+2} = sum_{i>=0} C(m+1+i, i) e^{-(m+1+i)} h(m+1+i) with
        # h = L[F] by independent quadrature of the hypergeometric oracle
        def phi(u):
            f = lambda p: np.exp(-u * p) * oracle.legendre_kernel_reference(kern.nu, p)
            return float(oracle.quad_adaptive(f, 0.0, math.inf, 1e-13).real)

        for m in range(0, 9):  # checks d_2 .. d_10
            total, i = 0.0, 0
            while True:
                term = math.comb(m + 1 + i, i) * math.exp(-(m + 1 + i)) * phi(m + 1 + i)
                total += term
                if term < 1e-13 and i > 3:
                    break
                i += 1
            assert table.dm[m] == pytest.approx(total, rel=1e-8)

    @pytest.mark.parametrize("nu", [NU_AIRY, 0.7])
    def test_dkm_vs_adaptive_quadrature(self, nu):
        # d_km = Int_{2^-k}^{78} F(2^k tau - 1) e^{tau - 2^-k} 2^k (1 + e^tau)^-m dtau,
        # by adaptive quadrature of the hypergeometric oracle at the table's order
        table = get_table(nu, 66, 16)
        for k in (1, 6, 16):
            eps = 2.0**-k

            for m in (2, 3, 40):
                def f(tau):
                    return (oracle.legendre_kernel_reference(table.nu, 2.0**k * tau - 1.0)
                            * np.exp(tau - eps) * 2.0**k * np.exp(-m * np.logaddexp(tau, 0.0)))

                ref = oracle.quad_adaptive(f, eps, borel._TAU_HI + 8.0, 0.0).real
                assert table.dkm[k - 1, m - 2] == pytest.approx(ref, rel=1e-13)

    def test_dkm_growth_trend(self, table):
        # d_{k+1,m} / d_{k,m} tracks the 2^k scaling of the level variable
        # (band checked for k in [3, 6]; the k = 2 ratio sits just above)
        for m in (2, 3):
            for k in range(3, 7):
                ratio = table.dkm[k, m - 2] / table.dkm[k - 1, m - 2]
                assert 1.5 <= ratio <= 2.2

    def test_monotone_in_m(self, table):
        for k in (1, 4):
            col = [table.dkm[k - 1, m - 2] for m in range(2, 10)]
            assert all(a > b > 0 for a, b in zip(col[:-1], col[1:]))

    def test_a_table_without_levels(self, kern):
        # K = 0 keeps the (K, M - 1) shape, so the h-template stacks the base row alone
        t = CoefficientTable.build(kern, 10, 0)
        assert t.dkm.shape == (0, 9)
        assert t.template.table.shape == (1, 9)
        assert np.array_equal(t.template.table[:, 0], t.dm[:1])


@pytest.mark.parametrize("refine", [2, 4, 8])
@pytest.mark.parametrize("K", [16, 34, 60])
def test_level_nodes_nest_in_the_deepest_level(refine, K):
    # in units of 2^-k the dyadic edges of level k are those of level K
    # less its top panels, and a power of two scales them exactly, so
    # level k's kernel samples are the first of level K's, bit for bit
    deepest = 2.0**K * panel_nodes(dyadic_edges(2.0**-K, borel._TAU_HI + 8.0, refine))[0]
    for k in range(K):
        tau = 2.0**k * panel_nodes(dyadic_edges(2.0**-k, borel._TAU_HI + 8.0, refine))[0]
        assert len(tau) < len(deepest)
        assert np.array_equal(tau, deepest[:len(tau)])


class TestRefinement:
    def test_panel_nodes_sit_on_the_48_point_legendre_rule(self):
        # the rule is made on first use, and is numpy's leggauss(48) bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(48)
        t, w = panel_nodes(np.array([-1.0, 1.0]))
        assert np.array_equal(t, nodes) and np.array_equal(w, weights)

    def test_a_row_that_never_settles_raises(self):
        with pytest.raises(QuadratureError, match="test row"):
            refined(lambda r, live: np.array([[1.0, 1.0 + 1e-3 * r]])[live], (2, 4, 8), 1e-12,
                    ["test row"])

    def test_a_settled_row_returns_the_finer_refinement(self):
        seen = []

        def row(r, live):
            seen.append(r)
            return np.array([[2.0, 1.0 + (0.5 if r == 1 else 1e-15 * r)]])[live]

        assert refined(row, (1, 2, 4, 8), 1e-12, ["test row"])[0, 1] == 1.0 + 4e-15
        assert seen == [1, 2, 4]

    def test_each_stacked_row_settles_by_its_own_check(self):
        # row 0 settles at 2, row 1 at 4 and row 2 at 8; a settled row is
        # not asked for again, and keeps the refinement its check accepted
        seen = []

        def rows(r, live):
            seen.append((r, live.tolist()))
            late = np.array([1.0, 2.0, 4.0])[live]
            second = 1.0 + np.where(r >= late, 1e-15 * r, 1e-3 * r)
            return np.stack([np.full(len(live), 3.0), second], 1)

        out = refined(rows, (1, 2, 4, 8), 1e-12, ["a", "b", "c"])
        assert seen == [(1, [0, 1, 2]), (2, [0, 1, 2]), (4, [1, 2]), (8, [2])]
        assert np.array_equal(out[:, 1], 1.0 + 1e-15 * np.array([2.0, 4.0, 8.0]))
        with pytest.raises(QuadratureError, match="^c did not converge"):
            refined(rows, (1, 2, 4), 1e-12, ["a", "b", "c"])

    @pytest.mark.parametrize("shape", [(1, 300), (5, 300), (3, 5000)])
    def test_geometric_sums_of_a_stack(self, shape):
        # a row of q per row, or one row of q under the whole stack, give
        # the sums of each row alone to rounding
        rng = np.random.default_rng(7)
        p = rng.random(shape)
        q = rng.random(shape) * 0.9
        n = 40
        alone = np.array([[np.sum(pr * qr**j) for j in range(n)] for pr, qr in zip(p, q)])
        stacked = geometric_sums(p, q, n)
        assert np.array_equal(stacked[-1], geometric_sums(p[-1], q[-1], n))
        assert np.allclose(stacked, alone, rtol=1e-13, atol=0.0)
        shared = geometric_sums(p, q[0], n)
        assert np.allclose(shared, [[np.sum(pr * q[0]**j) for j in range(n)] for pr in p],
                           rtol=1e-13, atol=0.0)


class TestAiryH:
    def test_vs_laplace_quadrature(self):
        # independent route: Laplace transform of the hypergeometric oracle
        for u, rtol in ((20.0, 1e-10), (4.0, 1e-9)):
            r = airy_h(u, 1e-10)
            f = lambda p: np.exp(-u * p) * oracle.legendre_kernel_reference(NU_AIRY, p)
            ref = float(oracle.quad_adaptive(f, 0.0, math.inf, 1e-14).real)
            assert r.value.real == pytest.approx(ref, rel=rtol)

    def test_small_argument_budget(self):
        r = airy_h(2.0, 1e-6)
        f = lambda p: np.exp(-2.0 * p) * oracle.legendre_kernel_reference(NU_AIRY, p)
        ref = float(oracle.quad_adaptive(f, 0.0, math.inf, 1e-13).real)
        assert abs(r.value.real / ref - 1.0) <= 1e-6
        assert r.terms_total <= 150

    def test_truncation_error_monotone_in_depth(self):
        # deepening the plan never worsens the result beyond noise; plans
        # past LADDER_LEVELS levels read tables of their own size
        for x in (4.0, 10.0, 20.0):
            u = 4.0 / 3.0 * x**1.5
            f = lambda p: np.exp(-u * p) * oracle.legendre_kernel_reference(NU_AIRY, p)
            ref = float(oracle.quad_adaptive(f, 0.0, math.inf, 1e-14).real)
            errs = []
            for K in (6, 10, 14, 18, 22):
                plan = DyadicPlan(K=K, n_terms=[12] * (K + 1), predicted_error=1e-12)
                errs.append(abs(airy_h(u, plan=plan).value.real - ref))
            for a, b in zip(errs[:-1], errs[1:]):
                assert b <= a * 1.5 + 1e-14

    def test_domain(self):
        # each evaluator names itself, its own x and its own bound; the
        # profiles h take x as the expansion's own argument
        h = "h-expansion requires Re x > 0 and |x| >= 1, not x = "
        airy = "airy_from_h requires x >= (3/4)^(2/3) ~ 0.8255, not x = "
        for call, text in (
            (lambda: airy_h(0.5, 1e-8), h + "(0.5+0j)"),
            (lambda: airy_h(-3.0, 1e-8), h + "(-3+0j)"),
            (lambda: bessel_h(0.7, 0.9j), h + "0.9j"),
            (lambda: airy_from_h(0.5), airy + "0.5"),
            (lambda: airy_from_h(0.8254), airy + "0.8254"),
            (lambda: bessel_k_dyadic(0.7, 0.3), "bessel_k_dyadic requires x >= 0.5, not x = 0.3"),
            (lambda: bessel_k_dyadic(2.7, 0.3), "bessel_k_dyadic requires x >= 0.5, not x = 0.3"),
            (lambda: bessel_k_dyadic(0.5, 0.4999), "bessel_k_dyadic requires x >= 0.5, "
                                                   "not x = 0.4999"),
        ):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == text
        # the bounds themselves evaluate
        assert airy_from_h(0.75 ** (2.0 / 3.0)).plan.K > 0
        assert bessel_k_dyadic(2.7, 0.5).value.real > 0.0


class TestColdBuilds:
    @pytest.mark.parametrize("call", [lambda: airy_from_h(10.0, 1e-10),
                                      lambda: bessel_k_dyadic(0.7, 3.0, 1e-9)],
                             ids=["airy", "bessel-k"])
    def test_one_kernel_and_one_table(self, call, monkeypatch):
        # the normalization constants are closed forms: a cold evaluation
        # builds its kernel and coefficient table once, at the caller's tol
        builds = []
        for cls in (BorelKernel, CoefficientTable):
            raw = cls.build
            monkeypatch.setattr(cls, "build", staticmethod(
                lambda *a, raw=raw, name=cls.__name__, **kw: builds.append(name) or raw(*a, **kw)))
        monkeypatch.setattr(borel, "_table", functools.cache(borel._table.__wrapped__))
        call()
        assert sorted(builds) == ["BorelKernel", "CoefficientTable"]

    def test_one_kernel_sampling_per_refinement(self, monkeypatch):
        # d_m takes two or three samplings, the 16 levels share as many
        kern = BorelKernel.build(NU_AIRY, 2.0**16 * (borel._TAU_HI + 8.0))
        calls = []
        raw = BorelKernel.eval_raw
        monkeypatch.setattr(BorelKernel, "eval_raw", lambda self, p: calls.append(1) or raw(self, p))
        CoefficientTable.build(kern, 66, 16)
        assert len(calls) <= 6

    @pytest.mark.parametrize("nu", [NU_AIRY, 0.7, 1.2])
    def test_levels_equal_rows_sampled_level_by_level(self, nu):
        # each level sampling F on its own nodes, with the power q^m of each
        # node formed one multiplication at a time, gives the same rows to
        # 1e-14: the table sums over powers shared by every level instead
        M, K, target = 66, 16, 1e-13
        kern = BorelKernel.build(nu, 2.0**K * (borel._TAU_HI + 8.0))

        def alone(k):
            eps = 2.0**-k

            def row(refine):
                tau, w = panel_nodes(dyadic_edges(eps, borel._TAU_HI + 8.0, refine))
                f = kern.eval_raw(2.0**k * tau - 1.0) * w * np.exp(tau - eps) * 2.0**k
                q = np.exp(-np.logaddexp(tau, 0.0))
                p, out = f * q * q, np.empty(M - 1)
                with np.errstate(under="ignore"):
                    for j in range(M - 1):
                        out[j] = p.sum()
                        p *= q
                return out

            a = row(2)
            for r in (4, 8):
                b = row(r)
                if not np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)) > 100.0 * target:
                    return b
                a = b
            raise QuadratureError(f"level {k}")

        table = CoefficientTable.build(kern, M, K, target)
        reference = np.array([alone(k) for k in range(1, K + 1)])
        assert np.max(np.abs(table.dkm - reference) / np.abs(reference)) <= 1e-14


class TestAiryFromH:
    def test_known_values(self):
        assert airy_from_h(5.0).value.real == pytest.approx(1.0834442813607441e-04, rel=1e-9)
        assert airy_from_h(10.0).value.real == pytest.approx(1.1047532552898685e-10, rel=1e-9)

    def test_normalization_flat(self):
        # the frozen constant keeps the ratio to the oracle flat over [4, 20]
        ratios = [airy_from_h(x, 1e-11).value.real / oracle.airy_reference(x)
                  for x in np.linspace(4.0, 20.0, 9)]
        assert max(ratios) - min(ratios) < 1e-9


class TestBessel:
    def test_airy_order_matches_airy_h(self):
        a = bessel_h(NU_AIRY, 12.0, 1e-9)
        b = airy_h(12.0, 1e-9)
        assert a.value == b.value

    def test_half_integer_closed_forms(self):
        # K_{1/2}: h = 1/u exactly; K_{3/2}: h = 1/u + 2/u^2
        r = bessel_h(0.5, 7.0, 1e-12)
        assert r.value.real == pytest.approx(1.0 / 7.0, rel=1e-14)
        r = bessel_h(1.5, 7.0, 1e-12)
        assert r.value.real == pytest.approx(1.0 / 7.0 + 2.0 / 49.0, rel=1e-14)

    def test_k_half_closed_form(self):
        x = 2.0
        r = bessel_k_dyadic(0.5, x)
        assert r.value.real == pytest.approx(math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-12)

    def test_k_five_halves_via_recurrence(self):
        x = 3.0
        ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 3.0 / x + 3.0 / x**2)
        r = bessel_k_dyadic(2.5, x)
        assert r.value.real == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("nu", [0.7, 0.5, 2.5, 2.3])
    def test_k_returns_python_scalars(self, nu):
        # the direct expansion, the half-integer closed form and the order
        # recurrence over half-integer and general seeds
        r = bessel_k_dyadic(nu, 2.0)
        assert type(r.value) is complex
        assert type(r.error_estimate) is float and type(r.plan.predicted_error) is float

    def test_k_one_vs_oracle(self):
        r = bessel_k_dyadic(1.0, 5.0, 1e-9)
        ref = oracle.bessel_k_reference(1.0, 5.0)
        assert abs(r.value.real / ref - 1.0) < 1e-9

    def test_order_cap(self):
        with pytest.raises(DomainError):
            bessel_k_dyadic(6.0, 2.0)
        with pytest.raises(DomainError):
            bessel_h(2.0, 10.0, 1e-8)  # needs the recurrence wrapper
        for nu in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bessel_k_dyadic(nu, 2.0)
            with pytest.raises(DomainError):
                bessel_h(nu, 2.0)
