import cmath
import math

import numpy as np
import pytest
import scipy.special as sps

from dyafact.scalar import (
    CoefficientStream,
    DomainError,
    PoleError,
    factorial_series_eval,
    factorial_to_borel,
    ln_gamma,
    pochhammer,
    polylog,
)
from dyafact.specfun import ei_left_base_stream
from dyafact.oracle import quad_adaptive


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0)) < 1e-14

    def test_half(self):
        # duplication/reflection checkpoint: Gamma(1/2) = sqrt(pi)
        assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_pole(self):
        with pytest.raises(PoleError):
            ln_gamma(-2.0)

    @pytest.mark.parametrize("z", [0.5, 3.7, 10.0, 1e3, 1e6, 2.5 + 4j, -3.2 + 0.7j, 40 - 9j])
    def test_against_library(self, z):
        # independent check: scipy's loggamma, 13+ significant digits
        ref = sps.loggamma(complex(z))
        assert abs(ln_gamma(z) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_exp_recovers_gamma(self):
        for z in (0.5, 1.5, 6.0, 9.3):
            assert cmath.exp(ln_gamma(z)).real == pytest.approx(math.gamma(z), rel=1e-13)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7 + 2j, 0) == 1.0

    def test_2_3(self):
        assert pochhammer(2.0, 3) == pytest.approx(24.0)

    def test_half_2(self):
        assert pochhammer(0.5, 2) == pytest.approx(0.75)

    def test_nonpositive_integer_zero(self):
        assert pochhammer(-3.0, 5) == 0.0
        assert pochhammer(-3.0, 3) != 0.0  # product stops before zero factor

    @pytest.mark.parametrize("x", [1e4, 4e4, (3 - 4j) * 1e4])
    def test_paths_agree(self, x):
        # both sides of the overflow guard agree with the library
        # log-gamma ratio to 12 digits
        ref = np.exp(sps.loggamma(x + 65) - sps.loggamma(complex(x)))
        assert abs(pochhammer(x, 65) - ref) <= 1e-12 * abs(ref)

    def test_overflow_is_explicit(self):
        with pytest.raises(DomainError):
            pochhammer(1e6, 64)

    def test_functional_identity(self):
        # (x)_{k+1} = (x)_k (x + k) to 1 ulp relative
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            k = int(rng.integers(0, 50))
            lhs = pochhammer(x, k + 1)
            rhs = pochhammer(x, k) * (x + k)
            assert abs(lhs - rhs) <= 4e-16 * abs(rhs) + 1e-300


class TestPolylog:
    def test_zero(self):
        assert polylog(2.5, 0.0) == 0.0

    def test_geometric(self):
        z = 0.5
        assert polylog(0.0, z) == pytest.approx(z / (1 - z), rel=1e-15)

    def test_log(self):
        assert polylog(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_duplication(self):
        # Li_s(z) + Li_s(-z) = 2^{1-s} Li_s(z^2), 12 digits
        rng = np.random.default_rng(7)
        for s in (-1.0, 0.0, 0.5, 2.0):
            for _ in range(12):
                z = rng.uniform(0.05, 0.7) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                lhs = polylog(s, z) + polylog(s, -z)
                rhs = 2.0 ** (1 - s) * polylog(s, z * z)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_near_minus_one_routes_match(self):
        # Euler-accelerated branch agrees with the direct series at the seam
        for s in (0.5, 1.5, -0.5):
            direct = sum((-0.74) ** n / n**s for n in range(1, 4000))
            assert polylog(s, -0.74) == pytest.approx(direct, rel=1e-13)
            euler = polylog(s, -0.76)
            direct2 = sum((-0.76) ** n / n**s for n in range(1, 4000))
            assert euler == pytest.approx(direct2, rel=1e-12)

    def test_at_minus_one(self):
        # Li_s(-1) = -eta(s); eta(1) = ln 2
        assert polylog(1.0, -1.0).real == pytest.approx(-math.log(2.0), rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            polylog(0.5, 1.2)
        with pytest.raises(DomainError):
            polylog(0.5, cmath.exp(0.5j) * 0.9999999)


class TestFactorialSeries:
    def test_single_term(self):
        c = CoefficientStream(lambda k: 1.0 if k == 0 else 0.0)
        assert factorial_series_eval(c, 2.0, 5) == pytest.approx(0.5)

    def test_two_terms(self):
        # coefficients (-1)^k phi^(k)(1) for phi(s) = s: (1, -1, 0, ...)
        c = CoefficientStream(lambda k: (1.0, -1.0)[k] if k < 2 else 0.0)
        assert factorial_series_eval(c, 3.0, 2) == pytest.approx(1.0 / 3.0 - 1.0 / 12.0)

    def test_pole(self):
        c = CoefficientStream(lambda k: 1.0)
        with pytest.raises(PoleError):
            factorial_series_eval(c, -2.0, 5)

    def test_base_stream_sums_to_lerch(self):
        # the left-plane base stream sums to Phi(1/e, 1, x)
        c = ei_left_base_stream()
        x = 5.0
        ref = sum(math.exp(-j) / (x + j) for j in range(200))
        assert factorial_series_eval(c, x, 60).real == pytest.approx(ref, rel=1e-12)

    def test_classical_stream_vs_quadrature(self):
        # classical factorial series of e^x E_1(x) against the Laplace
        # quadrature of the 1/(1+p) kernel
        from dyafact.specfun import ei_left_classical_stream
        x = 5.0
        ref = quad_adaptive(lambda p: np.exp(-x * p) / (1.0 + p), 0.0, math.inf, 1e-13)
        val = factorial_series_eval(ei_left_classical_stream(), x, 30)
        # measured 2.5e-8 relative at 30 terms: power-like convergence
        assert abs(val - ref) <= 5e-8 * abs(ref)


class TestFactorialToBorel:
    def test_p_zero(self):
        c = CoefficientStream(lambda k: 3.25 if k == 0 else 1.0)
        assert factorial_to_borel(c, 0.0, 10) == pytest.approx(3.25)

    def test_linear_coefficient(self):
        c = CoefficientStream(lambda k: 1.0 if k == 1 else 0.0)
        assert factorial_to_borel(c, math.log(2.0), 5) == pytest.approx(0.5)

    def test_base_stream_image_is_geometric_kernel(self):
        # image of the left-plane base stream is e / (e - e^{-p})
        c = ei_left_base_stream()
        for p in (0.3, 0.5, 1.7):
            ref = math.e / (math.e - math.exp(-p))
            assert factorial_to_borel(c, p, 60).real == pytest.approx(ref, rel=1e-10)

    def test_round_trip_through_laplace(self):
        # Borel image, numerically Laplace transformed, returns the
        # factorial series value (8 digits)
        c = ei_left_base_stream()
        x = 3.0
        img = lambda p: np.array([factorial_to_borel(c, pi, 60) for pi in np.atleast_1d(p)])
        lap = quad_adaptive(lambda p: np.exp(-x * p) * img(p), 0.0, math.inf, 1e-11)
        direct = factorial_series_eval(c, x, 80)
        assert abs(lap - direct) <= 1e-8 * abs(direct)
