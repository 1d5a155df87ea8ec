import cmath
import math

import numpy as np
import pytest

from dyafact import oracle
from dyafact.borel import airy_from_h, airy_h, bessel_h, bessel_k_dyadic
from dyafact.dyadic import TABLE_COLUMNS, CutProximityError, DyadicPlan, level_sums
from dyafact.oracle import verify_strange_identity
from dyafact.scalar import DomainError
from dyafact.specfun import (
    _EI_LARGEST,
    _GAMMA_TERMS,
    _gamma_template,
    ei_left,
    ei_left_base_stream,
    ei_left_family,
    ei_stokes,
    ei_stokes_family,
    erfc_dyadic,
    incomplete_gamma_dyadic,
    psi_dyadic,
)
from dyafact.scalar import polylog

EULER_GAMMA = 0.5772156649015328606


class TestEiStokes:
    def test_x5_vs_quadrature(self):
        tol = 1e-8
        r = ei_stokes(5.0, tol)
        ref = oracle.ei_plus_reference(5.0)
        assert abs(r.value - ref) <= 3 * tol
        assert r.error_estimate <= tol

    def test_imaginary_part_on_ray(self):
        # the small exponential is born on R+ with half the residue
        for x in (1.0, 3.0, 7.0, 10.0):
            r = ei_stokes(x, 3e-9)
            assert abs(r.value.imag + math.pi * math.exp(-x)) < 1e-8

    def test_sector_rays(self):
        for ang in (math.pi / 4, -math.pi / 4):
            for rad in (2.0, 5.0, 9.0):
                x = rad * cmath.exp(1j * ang)
                r = ei_stokes(x, 1e-8)
                assert abs(r.value - oracle.ei_plus_reference(x)) <= 3e-8

    def test_small_x_rejected(self):
        with pytest.raises(DomainError):
            ei_stokes(0.1, 1e-6)

    def test_on_cut_rejected(self):
        with pytest.raises(DomainError):
            ei_stokes(-2.0j, 1e-6)

    def test_explicit_plan_near_cut(self):
        # below the real axis a caller-supplied schedule is one for conj x
        from dyafact.dyadic import plan_truncation
        from dyafact.specfun import ei_stokes_family
        x = 0.3 - 6.0j
        plan = plan_truncation(ei_stokes_family(x.conjugate()), 1e-5)
        r = ei_stokes(x, plan=plan)
        ref = oracle.ei_series_reference(x)
        assert abs(r.value - ref) < 3e-5


@pytest.mark.parametrize("evaluator, sign", [(ei_stokes, 1.0), (ei_left, -1.0)])
def test_ei_at_the_largest_arguments(evaluator, sign):
    # past _EI_LARGEST a level shift 2^k x would overflow: DomainError
    # naming x; up to it the value is sign / x (the next asymptotic term
    # is below the smallest double) within the estimate
    for x in (1e300, 1.7e308, -1e300j, _EI_LARGEST * (1.0 + 1e-15)):
        with pytest.raises(DomainError) as err:
            evaluator(x, 1e-10)
        assert f"|x| <= {_EI_LARGEST:.4g}, not x = {complex(x)}" in str(err.value)
    for direction in (1.0, 1j, 0.6 + 0.8j, 0.6 - 0.8j, -0.6 + 0.8j):
        x = _EI_LARGEST * direction
        r = evaluator(x, 1e-10)
        assert abs(r.value - sign / x) <= r.error_estimate <= 1e-10


class TestEiLeft:
    def test_unit_value(self):
        # e Ei(-1): negative, against the Laplace quadrature of 1/(1+p)
        r = ei_left(1.0, 1e-10)
        assert r.value.real == pytest.approx(-0.5963473623231941, abs=2e-10)

    def test_base_series_terms_at_tenth(self):
        # the base series alone first reaches 1e-5 relative around n = 21
        fam = ei_left_family(0.1)
        limit = level_sums(fam, [200])[0]
        n = 1
        while abs(level_sums(fam, [n])[0] - limit) > 1e-5 * abs(limit):
            n += 1
        assert 17 <= n <= 23

    def test_large_x_few_terms(self):
        r = ei_left(10.0, 5e-4)
        assert abs(r.value.real - (-0.09156332909365538)) < 5e-4
        assert r.plan.n_terms[0] <= 6

    def test_geometric_convergence_band(self):
        # base-series remainder contraction near 1/(e-1) at x = 2
        fam = ei_left_family(2.0)
        deep = level_sums(fam, [150])[0]
        rems = [abs(level_sums(fam, [n])[0] - deep) for n in range(1, 40)]
        for n in range(10, 26):
            ratio = rems[n] / rems[n - 1]
            assert (math.e - 1.0) ** -1 * 0.8 <= ratio <= 0.75

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            ei_left(-3.0, 1e-8)


class TestPsi:
    def test_psi_two(self):
        r = psi_dyadic(1.0, 1e-9)
        assert r.value.real == pytest.approx(1.0 - EULER_GAMMA, abs=2e-9)

    def test_psi_eleven(self):
        r = psi_dyadic(10.0, 1e-9)
        assert r.value.real == pytest.approx(2.3517525890667212, abs=2e-9)

    def test_large_x_asymptotics(self):
        x = 1e3
        r = psi_dyadic(x, 1e-10)
        assert abs((r.value.real - math.log(x)) - 1.0 / (2 * x)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_dyadic(-1.0, 1e-8)

    @pytest.mark.parametrize("x", [2e7, 1e8, 1e9])
    def test_estimate_covers_the_rounding_of_the_log(self, x):
        # ln x + the level sum rounds by about eps ln x, more than the
        # levels' own estimate once x is large
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = complex(mpmath.digamma(mpmath.mpf(x) + 1))
        r = psi_dyadic(x, 1e-10)
        assert abs(r.value - ref) <= r.error_estimate <= 1e-10


class TestStrangeIdentity:
    def test_residuals(self):
        for x in (0.5, 1.0):
            assert verify_strange_identity(x, 40) < 1e-10

    def test_geometric_shrink(self):
        r0 = verify_strange_identity(1.0, 0)
        r10 = verify_strange_identity(1.0, 10)
        assert r0 / r10 >= 2.0**8


class TestIncompleteGamma:
    def test_half_one(self):
        r = incomplete_gamma_dyadic(0.5, 1.0)
        ref = math.sqrt(math.pi) * oracle.erfc_reference(1.0)  # 0.27880558528066198
        assert r.value.real == pytest.approx(ref, rel=2e-8)

    def test_minus_half_two(self):
        r = incomplete_gamma_dyadic(-0.5, 2.0)
        ref = oracle.inc_gamma_reference(-0.5, 2.0).real  # 0.030098757100186
        assert r.value.real == pytest.approx(ref, rel=3e-8)

    def test_watson_leading_order(self):
        x = 50.0
        r = incomplete_gamma_dyadic(0.5, x)
        assert r.value.real * math.exp(x) * math.sqrt(x) == pytest.approx(1.0, abs=0.02)

    # every evaluator, real-x ones (which name x as given) included
    @pytest.mark.parametrize("call, x, real", [
        (erfc_dyadic, math.inf, True),
        (erfc_dyadic, math.nan, True),
        (erfc_dyadic, 2 + 1j, True),
        (lambda x: incomplete_gamma_dyadic(0.3, x), math.inf, False),
        (lambda x: incomplete_gamma_dyadic(0.3, x), complex(2.0, math.inf), False),
        (lambda x: incomplete_gamma_dyadic(0.3, x), complex(math.inf, 1.0), False),
        (lambda x: incomplete_gamma_dyadic(0.3, x), math.nan, False),
        (ei_left, math.inf, False),
        (ei_left, math.nan, False),
        (ei_stokes, math.inf, False),
        (ei_stokes, math.nan, False),
        (psi_dyadic, math.inf, False),
        (psi_dyadic, math.nan, False),
        (airy_from_h, math.inf, True),
        (airy_from_h, 2 + 1j, True),
        (lambda x: bessel_k_dyadic(0.7, x), math.inf, True),
        (lambda x: bessel_k_dyadic(0.7, x), 2 + 1j, True),
        (airy_h, complex(5.0, math.inf), False),
        (lambda x: bessel_h(0.7, x), math.nan, False),
    ], ids=["erfc-inf", "erfc-nan", "erfc-complex", "inf", "inf-imag", "inf-real", "nan",
            "ei-left-inf", "ei-left-nan", "ei-stokes-inf", "ei-stokes-nan", "psi-inf", "psi-nan",
            "airy-inf", "airy-complex", "bessel-k-inf", "bessel-k-complex", "airy-h-inf-imag",
            "bessel-h-nan"])
    def test_non_finite_or_complex_x_is_a_domain_error_naming_it(self, call, x, real):
        with pytest.raises(DomainError) as err:
            call(x)
        x_text = str(x if real else complex(x))
        assert f"x = {x_text}" in str(err.value)

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_gamma_dyadic(1.5, 1.0)
        with pytest.raises(DomainError):
            incomplete_gamma_dyadic(0.5, -1.0)
        with pytest.raises(DomainError):
            incomplete_gamma_dyadic(0.0, 1.0)
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                incomplete_gamma_dyadic(s, 2.0)
        # below the order range the error names s and the range
        for s in (-1.0, -1.0 - 1e-9, -1.5, -3.2):
            with pytest.raises(DomainError) as err:
                incomplete_gamma_dyadic(s, 2.0)
            assert f"requires a finite s in (-1, 1), s != 0, not s = {s}" in str(err.value)

    def test_coefficients_match_stirling_formula(self):
        # the stable coefficient routes agree with the Stirling-number
        # derivative formula where the latter is still well conditioned;
        # s(m, j) from s(k+1, j) = -k s(k, j) + s(k, j-1) in exact integers
        stirling = [[1]]
        for k in range(12):
            row = stirling[k] + [0]
            stirling.append([-k * row[j] + (row[j - 1] if j else 0) for j in range(k + 2)])

        co = _gamma_template(0.5).coeffs
        for m in (1, 4, 8, 12):
            stirl = (-1.0) ** m * sum(
                stirling[m][j] * polylog(0.5 - j, math.exp(-1.0)).real
                for j in range(m + 1))
            assert co[0, m] == pytest.approx(stirl, rel=1e-9)
        for (k, m) in ((1, 3), (2, 6), (4, 2)):
            z = -math.exp(-(2.0 ** -k))
            stirl = (-1.0) ** m * sum(
                stirling[m][j] * polylog(0.5 - j, z).real
                for j in range(m + 1))
            assert co[k, m] == pytest.approx(stirl, rel=1e-8)


    @pytest.mark.parametrize("s", [0.25, -0.5])
    def test_base_stream_vs_series(self, s):
        # c_m = (-1)^m sum_{n >= max(m,1)} n (n-1) ... (n-m+1) n^-s e^-n, up to the
        # largest index a plan keeps
        mpmath = pytest.importorskip("mpmath")
        co = _gamma_template(s).coeffs
        for m in (0, 5, 50, 120, 150):
            with mpmath.workdps(30):
                # the terms peak near n = 1.6 m and are below 1e-40 of it by 4 m + 200
                ref = (-1) ** m * mpmath.fsum(
                    mpmath.rf(n - m + 1, m) * mpmath.mpf(n) ** (-s) * mpmath.exp(-n)
                    for n in range(max(m, 1), 4 * m + 200))
            assert co[0, m] == pytest.approx(float(ref), rel=1e-12)


class TestGammaSmallOrders:
    @pytest.mark.parametrize("s", [0.01, 0.03, -0.97])
    def test_meets_default_tol(self, s):
        # orders near 0 and near -1 (shifted to near 0), where the level
        # integrand t^{s-1} is most singular at t = 0
        r = incomplete_gamma_dyadic(s, 2.0)
        ref = oracle.inc_gamma_reference(s, 2.0)
        err = abs(r.value - ref)
        assert err <= 4e-9 * abs(ref)  # the default tol, relative
        assert r.error_estimate >= err

    @pytest.mark.parametrize("s", [0.01, 0.25, 0.75])
    def test_level_rows_vs_quadrature(self, s):
        # c_{k,0} = -a J_0 / Gamma(s), c_{k,m} = m! e^{-m eps} J_m / Gamma(s) with
        # J_m = Int_0^inf t^{s-1} e^{[m>0] t} (e^t + a)^{-(m+1)} dt, a = e^{-eps},
        # over the deepest level and past the columns of a first chunk
        mpmath = pytest.importorskip("mpmath")
        co = _gamma_template(s).coeffs
        for k in (1, 5, 20, 60):
            for m in (0, 1, 3, 8, 66, 90):
                with mpmath.workdps(40):
                    eps = mpmath.mpf(2) ** -k
                    a = mpmath.exp(-eps)
                    g = lambda t: mpmath.exp((m > 0) * t) / (mpmath.exp(t) + a) ** (m + 1)
                    # the integrand falls on the scale 2/m: split it at
                    # t = 2^j / m, and let t = u^{1/s} below the first split
                    # absorb t^{s-1}
                    cuts = [mpmath.mpf(2) ** j / max(m, 1) for j in range(-8, 9)]
                    J = (mpmath.quad(lambda u: g(u ** (1 / mpmath.mpf(s))), [0, cuts[0] ** s]) / s
                         + mpmath.quad(lambda t: t ** (s - 1) * g(t), cuts + [mpmath.inf]))
                    ref = -a * J if m == 0 else mpmath.factorial(m) * mpmath.exp(-m * eps) * J
                    ref = float(ref / mpmath.gamma(s))
                assert co[k, m] == pytest.approx(ref, rel=1e-12)


class TestGammaTolerance:
    """The planner takes the normalized series at tol Gamma(1-s) / (|x| + 1 - s)
    in (1e-14, 1e-1): a caller's tol that maps past 1e-1 is planned at
    0.09 and still met, one that maps to 1e-14 or less is a domain error
    naming both tolerances."""

    @pytest.mark.parametrize("call, caller, normalized", [
        (lambda: erfc_dyadic(20.0, 1e-13), "1e-13", "8.65e-15"),
        (lambda: incomplete_gamma_dyadic(0.25, 20.0, 5e-14), "5e-14", "2.95e-15"),
    ], ids=["erfc", "inc-gamma"])
    def test_tight_end_is_a_domain_error(self, call, caller, normalized):
        with pytest.raises(DomainError, match=f"tol {caller} is {normalized} "):
            call()

    @pytest.mark.parametrize("s, x, tol", [(0.8, 0.01, 0.01), (0.5, 0.01, 0.05)])
    def test_loose_end_meets_tol(self, s, x, tol):
        r = incomplete_gamma_dyadic(s, x, tol)
        ref = oracle.inc_gamma_reference(s, x)
        err = abs(r.value - ref)
        assert r.tol_met and err <= r.error_estimate <= tol * abs(ref)


class TestErfc:
    def test_known_values(self):
        assert erfc_dyadic(1.0).value.real == pytest.approx(0.15729920705028513, rel=1e-8)
        assert erfc_dyadic(4.0).value.real == pytest.approx(0.0046777349810472658, rel=1e-8)

    def test_grid_vs_oracle(self):
        for x in np.linspace(0.25, 25.0, 20):
            r = erfc_dyadic(float(x))
            ref = oracle.erfc_reference(math.sqrt(x))
            assert abs(r.value.real / ref - 1.0) < 1e-8

    def test_small_argument_trend(self):
        # erfc(sqrt(x)) -> 1 from below as x -> 0+
        v4 = erfc_dyadic(1e-4).value.real
        v3 = erfc_dyadic(1e-3).value.real
        assert v3 < v4 < 1.0
        assert abs(v4 - 1.0) < 0.02

    def test_consistency_with_gamma(self):
        # same construction: identical up to the 1/sqrt(pi) factor
        x = 2.0
        a = erfc_dyadic(x).value
        b = incomplete_gamma_dyadic(0.5, x).value / math.sqrt(math.pi)
        assert a == b


class TestCallerPlans:
    """A caller's plan is assembled as it stands when it lies inside the
    family's levels and its table's columns, and is a domain error outside
    them."""

    @pytest.mark.parametrize("call", [
        lambda: ei_stokes(5.0, plan=DyadicPlan(61, [2] * 62, 1e-3)),
        lambda: psi_dyadic(2.0, plan=DyadicPlan(61, [2] * 62, 1e-3)),
        lambda: ei_left(2.0, plan=DyadicPlan(0, [TABLE_COLUMNS + 1], 1e-3)),
        lambda: incomplete_gamma_dyadic(0.5, 2.0, plan=DyadicPlan(0, [200], 1e-3)),
        lambda: incomplete_gamma_dyadic(0.5, 2.0, plan=DyadicPlan(61, [2] * 62, 1e-3)),
        lambda: level_sums(ei_stokes_family(5.0), [TABLE_COLUMNS + 1]),
    ])
    def test_outside_the_family(self, call):
        with pytest.raises(DomainError):
            call()

    def test_as_wide_as_the_table(self):
        # every column of a table is read, and the estimate of the plain
        # truncation holds the distance to the planned value
        for x in (5.0, 2.0 - 1.0j):
            plan = DyadicPlan(60, [TABLE_COLUMNS] * 61, 1e-3)
            assert abs(ei_stokes(x, plan=plan).value - ei_stokes(x, 1e-12).value) <= 1e-12
        r = incomplete_gamma_dyadic(0.5, 2.0, plan=DyadicPlan(40, [_GAMMA_TERMS + 1] * 41, 1e-3))
        assert abs(r.value - incomplete_gamma_dyadic(0.5, 2.0, 1e-12).value) <= r.error_estimate
