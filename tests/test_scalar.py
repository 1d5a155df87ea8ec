import cmath
import math

import numpy as np
import pytest

import scipy.special as sps

from dyafact.dyadic import dyadic_reciprocal_partial, ramified_partial
from dyafact.scalar import (
    CoefficientStream,
    DomainError,
    PoleError,
    factorial_series_eval,
    factorial_to_borel,
    polylog,
)
from dyafact.specfun import ei_left_base_stream
from dyafact.oracle import quad_adaptive


def _ramified_bracket(s, p, K):
    """The polylog level sum of ``ramified_partial``, summed in the same
    order, without its front factor Gamma(s) sin(pi s) / pi."""
    total = polylog(s, cmath.exp(-p))
    for k in range(1, K + 1):
        total -= 2.0 ** (-k * (1.0 - s)) * polylog(s, -cmath.exp(-p / 2.0**k))
    return total


class TestLnGamma:
    """The Gamma factor of the ramified decomposition: its front factor
    Gamma(s) sin(pi s) / pi, which is 1 / Gamma(1 - s) by reflection."""

    def test_at_one(self):
        # s -> 0: the front factor tends to 1 / Gamma(1) = 1 and the
        # decomposition meets the reciprocal one, up to p^s - 1 ~ s ln p
        r = ramified_partial(1e-9, 2.0, 40)
        assert abs(r / dyadic_reciprocal_partial(2.0, 40) - 1.0) < 1e-8

    def test_half(self):
        # Gamma(1/2) = sqrt(pi): the front factor at s = 1/2 is 1 / sqrt(pi)
        r = ramified_partial(0.5, 2.0, 20)
        assert r * math.sqrt(math.pi) == pytest.approx(_ramified_bracket(0.5, 2.0, 20), rel=1e-15)

    def test_pole(self):
        # Gamma(s) has poles at s = -1, -2, ...: refused, not evaluated
        for s in (-1.0, -1.0 + 1e-13, -2.0):
            with pytest.raises(DomainError):
                ramified_partial(s, 2.0, 10)

    @pytest.mark.parametrize("z", [0.5, 3.7, 10.0, 1e3, 1e6, 2.5 + 4j, 40 - 9j])
    def test_against_library(self, z):
        # the decomposition of p^{s-1} at p = z against the library power.
        # Real z: 60 levels leave a tail far below rounding, so the front
        # factor shows to a few ulp.  Complex z: polylog's disk limits the
        # levels to 12, whose tail is below 2^{-K(1-s)}.
        s, p = -0.9, complex(z)
        ref = p ** (s - 1.0)
        if p.imag == 0:
            assert abs(ramified_partial(s, p, 60) - ref) <= 1e-14 * abs(ref)
        else:
            K = 12
            assert abs(ramified_partial(s, p, K) - ref) <= 2.0 ** (-K * (1.0 - s))

    def test_exp_recovers_gamma(self):
        # the front factor recovers the library 1 / Gamma(1 - s)
        for s in (-0.75, -0.3, 0.2, 0.6):
            front = ramified_partial(s, 2.0, 20) / _ramified_bracket(s, 2.0, 20)
            assert front.real == pytest.approx(sps.rgamma(1.0 - s), rel=1e-15)


def _over_rising(x, j, c=1.0):
    """c / (x)_j for j >= 1 from factorial_series_eval: the series whose
    only nonzero coefficient is c_{j-1} = c."""
    return factorial_series_eval(CoefficientStream(lambda k: c if k == j - 1 else 0.0), x, j)


def _rising(x, j):
    return 1.0 / _over_rising(x, j)


class TestPochhammer:
    """The rising factorials (x)_{k+1} that factorial_series_eval divides by."""

    def test_empty_product(self):
        # (x)_1 = x (x)_0 with the empty product (x)_0 = 1
        x = 3.7 + 2j
        assert factorial_series_eval(CoefficientStream(lambda k: 1.0), x, 1) == 1.0 / x

    def test_2_3(self):
        assert _rising(2.0, 3) == pytest.approx(24.0)

    def test_half_2(self):
        assert _rising(0.5, 2) == pytest.approx(0.75)

    def test_nonpositive_integer_zero(self):
        with pytest.raises(PoleError):
            _rising(-3.0, 5)
        assert _rising(-3.0, 3) == pytest.approx(-6.0)  # product stops before zero factor

    @pytest.mark.parametrize("x", [1e4, 4e4, (3 - 4j) * 1e4])
    def test_paths_agree(self, x):
        # the running product agrees to 12 digits with the exact product in
        # Gaussian integers, up to (x)_65 near the top of binary64
        re, im = 1, 0
        for i in range(65):
            a, b = int(x.real) + i, int(x.imag)
            re, im = re * a - im * b, re * b + im * a
        ref = complex(re, im)
        assert abs(_rising(x, 65) - ref) <= 1e-12 * abs(ref)

    def test_overflow_is_explicit(self):
        with pytest.raises(DomainError):
            factorial_series_eval(CoefficientStream(lambda k: 1.0), 1e6, 64)

    def test_functional_identity(self):
        # (x)_{k+1} = (x)_k (x + k), read as c_k = x + k over (x)_{k+1}
        # against 1 over (x)_k, to 1 ulp relative
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            k = int(rng.integers(0, 50))
            lhs = _over_rising(x, k + 1, x + k)
            rhs = 1.0 if k == 0 else _over_rising(x, k)
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
