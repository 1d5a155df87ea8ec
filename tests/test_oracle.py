import cmath
import math

import numpy as np
import pytest

from dyafact import oracle
from kernel_reference import legendre_kernel_reference


EULER_GAMMA = 0.5772156649015328606


class TestQuadAdaptive:
    def test_linear(self):
        assert oracle.quad_adaptive(lambda t: t, 0.0, 1.0).real == pytest.approx(0.5, abs=1e-14)

    def test_exponential_tail(self):
        v = oracle.quad_adaptive(lambda p: np.exp(-p), 0.0, math.inf, 1e-12)
        assert v.real == pytest.approx(1.0, abs=1e-12)

    def test_e1_value_vs_series(self):
        # Int e^{-p}/(1+p) dp = -e Ei(-1); series: Ei(-1) = gamma + sum (-1)^n/(n n!)
        v = oracle.quad_adaptive(lambda p: np.exp(-p) / (1.0 + p), 0.0, math.inf, 1e-12)
        ei_m1 = EULER_GAMMA + sum((-1.0) ** n / (n * math.factorial(n)) for n in range(1, 60))
        assert v.real == pytest.approx(-math.e * ei_m1, rel=1e-11)

    def test_nonconvergence(self):
        with pytest.raises(oracle.NonconvergenceError):
            oracle.quad_adaptive(lambda p: 1.0 / np.sqrt(np.abs(p) + 1e-300), 0.0, 1.0,
                                 abs_tol=1e-13, max_depth=8)


class TestContour:
    def test_must_start_at_zero(self):
        with pytest.raises(oracle.ContourError):
            oracle.Contour((1.0 + 0j, 2.0 + 0j))


class TestEiPlus:
    def test_real_part_matches_classical_series(self):
        x = 5.0
        v = oracle.ei_plus_reference(x)
        assert v.real == pytest.approx(math.exp(-x) * oracle.ei_classical_real(x), rel=1e-9)

    def test_imag_part_is_half_residue(self):
        x = 5.0
        v = oracle.ei_plus_reference(x)
        assert v.imag == pytest.approx(-math.pi * math.exp(-x), rel=1e-9)

    def test_contour_offset_independence(self):
        # deform the vertical dip between -0.5i and -2i: 1e-10 stability
        x = 3.0 + 3.0j
        vals = []
        for depth in (0.5, 1.0, 1.5, 2.0):
            f = lambda p: np.exp(-p * x) / (1.0 - p)
            c = oracle.Contour((0.0 + 0.0j, -1j * depth))
            vals.append(oracle.quad_contour(f, c, 1e-12, tail_direction=1.0 + 0j))
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-10

    def test_sector_guard(self):
        with pytest.raises(oracle.ContourError):
            oracle.ei_plus_reference(-2.0 + 0.05j)

    @pytest.mark.parametrize("x", [5.21 - 29.54j, 3.93 - 22.28j, 5.0, 2.0 + 3.0j, 10.0 - 1.0j,
                                   0.5 + 0.01j])
    def test_against_mpmath_near_the_negative_imaginary_axis(self, x):
        # the contour 0 -> -i -> +infinity let |e^{-px}| grow to e^{|Im x|}
        # on its dip and left 8.6e-5 at 5.21 - 29.54i
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z = mpmath.mpc(x.real, x.imag)
            # Ei^+ right of the negative imaginary axis: -E_1(-x) less the Stokes jump
            ref = complex(-mpmath.exp(-z) * (mpmath.e1(-z) + 2j * mpmath.pi * (x.imag <= 0)))
        assert abs(oracle.ei_plus_reference(x) - ref) <= 1e-10

    def test_quadrature_vs_series_reference(self):
        # oracle-vs-oracle agreement on the overlap domain
        for x in (1.0, 5.0, 14.0, 2.0 + 2.0j, 4.0 - 1.5j):
            q = oracle.ei_plus_reference(x)
            s = oracle.ei_series_reference(x)
            assert abs(q - s) <= 1e-9 * max(1.0, abs(q))


class TestEiLeft:
    @pytest.mark.parametrize("x", [6e3, 1e4, 1e6, 1e8, -9.9e5 - 1.41e5j, 5.4e8 + 8.41e8j])
    def test_against_mpmath_at_large_x(self, x):
        # the peak of e^{-|x| t} is 1/|x| wide: integrated in t, no node of
        # the first panel fell in it from |x| ~ 6e3 on, and the reference read ~0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z = mpmath.mpc(x.real, x.imag)
            ref = complex(-mpmath.exp(z) * mpmath.e1(z))
        got = oracle.ei_left_reference(x, 1e-12)
        assert abs(got - ref) <= 1e-12
        assert abs(got - ref) <= 1e-12 * abs(ref)


class TestPsi:
    def test_at_one(self):
        assert oracle.psi_reference(1.0).real == pytest.approx(-EULER_GAMMA, rel=1e-13)

    def test_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        for x in (0.3, 1.7, 4.2 + 1.1j):
            lhs = oracle.psi_reference(x + 1)
            rhs = oracle.psi_reference(x) + 1.0 / x
            assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))

    def test_half(self):
        assert oracle.psi_reference(0.5).real == pytest.approx(-EULER_GAMMA - 2 * math.log(2.0), rel=1e-13)


class TestErfc:
    def test_zero(self):
        assert oracle.erfc_reference(0.0) == pytest.approx(1.0)

    def test_branch_seam(self):
        # series and continued fraction agree across the switch at y = 1.5
        lo = oracle.erfc_reference(2.25 - 3e-12)
        hi = oracle.erfc_reference(2.25 + 3e-12)
        assert abs(lo - hi) / lo < 2e-11

    def test_vs_quadrature(self):
        for y in (0.8, 1.4, 1.6, 2.5):
            ref = 2.0 / math.sqrt(math.pi) * oracle.quad_adaptive(
                lambda t: np.exp(-((t + y) ** 2)), 0.0, math.inf, 1e-14).real
            assert oracle.erfc_reference(y * y) == pytest.approx(ref, rel=1e-11)

    def test_known_value(self):
        assert oracle.erfc_reference(1.0) == pytest.approx(0.15729920705028513, rel=1e-12)

    def test_large_argument_vs_mpmath(self):
        # e^{-x} from x itself: through y = sqrt(x) the rounding of y^2 costs
        # about x 2^-53, 5.7e-14 relative at x = 260
        mpmath = pytest.importorskip("mpmath")
        for x in np.linspace(100.0, 700.0, 25):
            with mpmath.workdps(40):
                ref = mpmath.erfc(mpmath.sqrt(mpmath.mpf(x)))
                assert abs(oracle.erfc_reference(float(x)) / ref - 1) <= 1e-14


class TestIncGamma:
    def test_half_one(self):
        # Gamma(1/2, 1) = sqrt(pi) erfc(1)
        ref = math.sqrt(math.pi) * oracle.erfc_reference(1.0)
        assert oracle.inc_gamma_reference(0.5, 1.0).real == pytest.approx(ref, rel=1e-11)

    def test_exponential_case(self):
        # s -> 0.9999 stays finite; simple positive s < 1 sanity vs direct
        v = oracle.inc_gamma_reference(0.25, 2.0).real
        direct = oracle.quad_adaptive(
            lambda u: (u + 2.0) ** (0.25 - 1.0) * np.exp(-(u + 2.0)), 0.0, math.inf, 1e-13
        ).real
        assert v == pytest.approx(direct, rel=1e-10)


class TestBesselAiry:
    def test_k_half_closed_form(self):
        x = 2.0
        assert oracle.bessel_k_reference(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-12)

    def test_airy_small_argument_vs_series(self):
        # power-series Ai on the overlap domain: 1e-9 relative
        def ai_series(x):
            # Ai(x) = c1 f(x) - c2 g(x) with the two standard series
            c1 = 0.3550280538878172
            c2 = 0.2588194037928068
            f = term = 1.0
            for k in range(1, 40):
                term *= x**3 / ((3 * k) * (3 * k - 1))
                f += term
            g = x
            term = x
            for k in range(1, 40):
                term *= x**3 / ((3 * k) * (3 * k + 1))
                g += term
            return c1 * f - c2 * g

        for x in (0.5, 1.0, 2.0):
            assert oracle.airy_reference(x) == pytest.approx(ai_series(x), rel=1e-9)

    def test_kernel_reference_vs_series(self):
        # hypergeometric library vs the defining series at small p
        nu = 1.0 / 3.0
        for p in (0.2, 0.6):
            term, total = 1.0, 1.0
            for n in range(200):
                term *= (0.5 - nu + n) * (0.5 + nu + n) / ((1.0 + n) * (n + 1.0)) * (-p)
                total += term
            assert float(legendre_kernel_reference(nu, p)) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("module", ["dyadic", "specfun", "borel", "scalar", "operators"])
def test_evaluators_import_nothing_from_oracle(module):
    # the references must stay independent of what they check
    import ast
    import pathlib

    import dyafact
    path = pathlib.Path(dyafact.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {f"{node.module or ''}.{a.name}" for a in node.names}
    assert not {name for name in imported if "oracle" in name.split(".")}
