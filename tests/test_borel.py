import math

import numpy as np
import pytest

from dyafact import borel, oracle
from dyafact._gauss import QuadratureError, refined
from dyafact.borel import (
    BorelKernel,
    CoefficientTable,
    airy_from_h,
    airy_h,
    bessel_h,
    bessel_k_dyadic,
    get_kernel,
    get_table,
)
from dyafact.dyadic import DyadicPlan
from dyafact.scalar import DomainError

NU_AIRY = 1.0 / 3.0


@pytest.fixture(scope="module")
def kern():
    return get_kernel(NU_AIRY)


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
        kern = get_kernel(NU_AIRY)
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
            assert table_half.d(m) == pytest.approx(ref, rel=1e-12)

    def test_dkm_stub_kernel_closed_form(self):
        # F = 1: d_km = 2^k e^{-2^-k} / ((m-1) (e^{2^-k} + 1)^{m-1})
        table_half = get_table(0.5, 10, 6)
        for k, m in ((1, 2), (3, 4), (6, 3)):
            eps = 2.0**-k
            ref = 2.0**k * math.exp(-eps) / ((m - 1) * (math.exp(eps) + 1.0) ** (m - 1))
            assert table_half.dk(k, m) == pytest.approx(ref, rel=1e-12)

    def test_dm_stability_under_tolerance_change(self, kern):
        # Richardson-style check: tighter quadrature target moves d_2 by < 1e-12
        a = CoefficientTable.build(kern, 4, 1, target=1e-10).d(2)
        b = CoefficientTable.build(kern, 4, 1, target=1e-14).d(2)
        assert abs(a - b) < 1e-12

    def test_dkm_stability(self, kern):
        a = CoefficientTable.build(kern, 4, 1, target=1e-10).dk(1, 2)
        b = CoefficientTable.build(kern, 4, 1, target=1e-14).dk(1, 2)
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
            assert table.d(m + 2) == pytest.approx(total, rel=1e-8)

    def test_dkm_growth_trend(self, table):
        # d_{k+1,m} / d_{k,m} tracks the 2^k scaling of the level variable
        # (band checked for k in [3, 6]; the k = 2 ratio sits just above)
        for m in (2, 3):
            for k in range(3, 7):
                ratio = table.dk(k + 1, m) / table.dk(k, m)
                assert 1.5 <= ratio <= 2.2

    def test_monotone_in_m(self, table):
        for k in (1, 4):
            col = [table.dk(k, m) for m in range(2, 10)]
            assert all(a > b > 0 for a, b in zip(col[:-1], col[1:]))


class TestRefinement:
    def test_a_row_that_never_settles_raises(self):
        with pytest.raises(QuadratureError, match="test row"):
            refined(lambda r: np.array([1.0, 1.0 + 1e-3 * r]), (2, 4, 8), 1e-12, "test row")

    def test_a_settled_row_returns_the_finer_refinement(self):
        seen = []

        def row(r):
            seen.append(r)
            return np.array([2.0, 1.0 + (0.5 if r == 1 else 1e-15 * r)])

        assert refined(row, (1, 2, 4, 8), 1e-12, "test row")[1] == 1.0 + 4e-15
        assert seen == [1, 2, 4]


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
        # deepening the plan never worsens the result beyond noise
        get_table(NU_AIRY, 34, 34)
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
        with pytest.raises(DomainError):
            airy_h(0.5, 1e-8)
        with pytest.raises(DomainError):
            airy_h(-3.0, 1e-8)


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
        monkeypatch.setattr(borel, "_KERNELS", {})
        monkeypatch.setattr(borel, "_TABLES", {})
        call()
        assert sorted(builds) == ["BorelKernel", "CoefficientTable"]


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

    def test_k_one_vs_oracle(self):
        r = bessel_k_dyadic(1.0, 5.0, 1e-9)
        ref = oracle.bessel_k_reference(1.0, 5.0)
        assert abs(r.value.real / ref - 1.0) < 1e-9

    def test_order_cap(self):
        with pytest.raises(DomainError):
            bessel_k_dyadic(6.0, 2.0)
        with pytest.raises(DomainError):
            bessel_h(2.0, 10.0, 1e-8)  # needs the recurrence wrapper
