"""Soundness of the evaluators: each value meets its tolerance and its
error_estimate bounds the true error, at the order edges where plain
truncation used to miss, beside the Ei cuts, and over randomized domains.

erfc, incomplete gamma, Airy and Bessel-K take relative tolerances;
ei_stokes, ei_left and psi_dyadic absolute ones.
"""

import cmath
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyafact import borel, dyadic, oracle, specfun
from dyafact.borel import airy_from_h, bessel_k_dyadic
from dyafact.dyadic import LADDER_LEVELS, DyadicPlan
from dyafact.functions import FUNCTIONS
from dyafact.specfun import ei_left, ei_stokes, erfc_dyadic, incomplete_gamma_dyadic, psi_dyadic


def assert_sound(r, ref, limit):
    err = abs(complex(r.value) - complex(ref))
    assert err <= limit, f"error {err:.3e} above the tolerance {limit:.3e}"
    assert err <= r.error_estimate, (
        f"error_estimate {r.error_estimate:.3e} below the error {err:.3e}")


class TestOrderEdges:
    """Inputs at the order edges, where a plain K-level truncation misses
    tol by 1.8x to 7e7 while its predicted error stays near tol."""

    @pytest.mark.parametrize("x", [7.66, 0.3])
    def test_erfc_at_tight_tolerance(self, x):
        ref = oracle.erfc_reference(x)
        assert_sound(erfc_dyadic(x, 1e-10), ref, 1e-10 * ref)

    @pytest.mark.parametrize("s", [0.55, 0.7, 0.9, 0.97])
    def test_incomplete_gamma_near_order_one(self, s):
        ref = oracle.inc_gamma_reference(s, 2.0)
        assert_sound(incomplete_gamma_dyadic(s, 2.0, 4e-9), ref, 4e-9 * abs(ref))

    @pytest.mark.parametrize("nu, x", [(1.05, 1.0), (1.2, 1.0), (1.45, 1.0), (2.1, 3.0), (3.2, 3.0)])
    def test_bessel_k_near_order_three_halves(self, nu, x):
        ref = oracle.bessel_k_reference(nu, x)
        assert_sound(bessel_k_dyadic(nu, x, 1e-9), ref, 1e-9 * abs(ref))


@pytest.mark.parametrize("tol", [1e-12, 1e-11])
@pytest.mark.parametrize("nu", [0.0, 0.3, 0.7, 1.2])
def test_bessel_k_at_unit_argument_and_tight_tolerance(nu, tol):
    # x = 0.5 puts the h-expansion at |u| = 1, where the shallow levels
    # need more than the 32 terms a 34-column table holds for tol 1e-12
    ref = float(_mp().besselk(nu, 0.5))
    assert_sound(bessel_k_dyadic(nu, 0.5, tol), ref, tol * ref)


@pytest.mark.parametrize("x", [-5.0 + 0.3j, -0.5 + 0.03j, 2.0 * cmath.exp(2.8j)])
def test_ei_left_near_its_cut(x):
    # levels in a pole window carry terms exponentially small in |Im 2^k x|
    # that the ladder does not describe; the Richardson steps must not touch them
    mp = _mp()
    ref = complex(-mp.exp(x) * mp.e1(x))
    for tol in (1e-10, 1e-6):
        assert_sound(ei_left(x, tol), ref, tol)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("angle", [1.7, 2.5, 3.1, -2.0, -3.1])
@pytest.mark.parametrize("r", [0.19, 1e-2, 1e-4, 1e-6])
def test_ei_left_at_small_argument_in_the_left_half_plane(r, angle, tol):
    # the Stokes levels there shrink like pi 2^-(k+1)/|x|: at |x| = 1e-4 and
    # tol 1e-12 that family missed tol by up to 14x with tol_met set
    x = r * cmath.exp(1j * angle)
    mp = _mp()
    res = ei_left(x, tol)
    assert_sound(res, complex(-mp.exp(x) * mp.e1(x)), tol)
    assert res.tol_met


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("angle", [0.0, 0.8, 1.5, -1.5])
@pytest.mark.parametrize("r", [0.19, 1e-2, 1e-4, 1e-5, 1e-6])
def test_ei_left_at_small_argument_in_the_right_half_plane(r, angle, tol):
    # the c = -1 family's levels lose about eps/|x| to rounding: at |x| = 1e-6
    # and tol 1e-12 it missed tol by hundreds of times with tol_met set
    x = r * cmath.exp(1j * angle)
    mp = _mp()
    res = ei_left(x, tol)
    assert_sound(res, complex(-mp.exp(x) * mp.e1(x)), tol)
    assert res.tol_met


def _ei_stokes_reference(x):
    """e^{-x} Ei^+(x): -e^{-x} E_1(-x), which is analytic across the
    negative imaginary axis, less the Stokes jump 2 pi i e^{-x} right of it."""
    mp = _mp()
    z = mp.mpc(x.real, x.imag)
    v = -mp.exp(-z) * mp.e1(-z)
    if x.real > 0 and x.imag <= 0:
        v -= 2j * mp.pi * mp.exp(-z)
    return complex(v)


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("angle", [-1.48, -1.50, -1.52])
@pytest.mark.parametrize("r", [30.0, 40.0])
def test_ei_stokes_near_its_cut_at_large_argument(r, angle, tol):
    # these points used to be planned on the family at x itself, whose
    # pole-window levels cancel terms up to 4e7 and left errors up to 485 tol
    x = r * cmath.exp(1j * angle)
    res = ei_stokes(x, tol)
    assert_sound(res, _ei_stokes_reference(x), tol)
    assert res.tol_met


@pytest.mark.parametrize("r", [0.5, 3.0, 20.0])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_ei_jump_across_the_cuts(r, side):
    # 0.01 rad either side of each cut, against the one branch that runs
    # across it: the evaluators differ from it by the Stokes jump
    # 2 pi i e^{-y} on one side only (y = x for ei_stokes, y = -x for ei_left)
    mp = _mp()
    tol = 1e-10
    x = r * cmath.exp(1j * (-math.pi / 2 + side * 0.01))   # side 1: Re x > 0
    across = complex(-mp.exp(-x) * mp.e1(-x))
    jump = 2j * math.pi * cmath.exp(-x) if side > 0 else 0.0
    assert_sound(ei_stokes(x, tol), across - jump, tol)
    x = r * cmath.exp(1j * (math.pi + side * 0.01))       # side 1: Im x < 0
    # -e^x E_1(x) continued from above: E_1 gains 2 pi i below the cut
    across = complex(-mp.exp(x) * (mp.e1(x) - (2j * mp.pi if side > 0 else 0)))
    jump = 2j * math.pi * cmath.exp(x) if side > 0 else 0.0
    assert_sound(ei_left(x, tol), across - jump, tol)


# Randomized gate: x over each function id's documented region in
# ``dyafact.functions``, |x| log-uniform and arg x uniform outside a 0.01-rad
# sector about each end of its arg range, tol log-uniform in [1e-10, 1e-6],
# every order over its whole range.  derandomize keeps the draws, and so the
# suite, deterministic.

def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# The |x| each gate draws within, where a region is unbounded: the Ei ids'
# region reaches 3.9e289, and the others' has no upper end and, but for Airy
# and Bessel-K, none below.  Below the lower caps of psi, erfc and incomplete
# gamma a laddered plan keeps more than LADDER_LEVELS levels (the shift floor
# |x_K| >= 32 grows K with log2(1/|x|)), so test_gate_small_arguments draws
# from 1e-3 up to them.
CAPS = {"ei-stokes": (0.0, 1e8), "ei-left": (1e-6, 1e8), "psi": (2e-3, 1e6),
        "erfc": (0.05, 200.0), "inc-gamma": (0.1, 300.0), "airy": (0.0, 60.0),
        "bessel-k": (0.0, 300.0)}


def _region(fid, arg=None, radius=None):
    """x over the region of ``fid`` within its caps, or within ``radius``
    and ``arg`` where given."""
    fn = FUNCTIONS[fid]
    lo, hi = radius or CAPS[fid]
    r = _log_uniform(max(fn.radius[0], lo), min(fn.radius[1], hi))
    lo, hi = arg or fn.arg
    if (lo, hi) == (0.0, 0.0):
        return r
    return st.builds(lambda r, a: r * cmath.exp(1j * a), r, st.floats(lo + 0.01, hi - 0.01))


def _order(fid):
    lo, hi = FUNCTIONS[fid].order
    return st.floats(lo, hi)


TOL = _log_uniform(1e-10, 1e-6)
ORDER_S = _order("inc-gamma").filter(lambda s: abs(s - round(s)) >= 1e-12)   # s != -1, 0, 1
GATE = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _mp():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    return mp


def _check_laddered(r, ref, limit):
    assert_sound(r, ref, limit)
    if r.plan.steps:
        assert r.plan.K <= LADDER_LEVELS


@GATE
@given(x=_region("ei-left", (-math.pi / 2, math.pi / 2)), tol=TOL)
def test_gate_ei_left(x, tol):
    # the right half-plane, where ei_left sums the laddered c = -1 family
    mp = _mp()
    ref = complex(-mp.exp(x) * mp.e1(x))
    _check_laddered(ei_left(x, tol), ref, tol)


@GATE
@given(x=_region("ei-stokes"), tol=TOL)
def test_gate_ei_stokes(x, tol):
    res = ei_stokes(x, tol)
    assert_sound(res, _ei_stokes_reference(x), tol)
    assert res.tol_met


@GATE
@given(x=_region("ei-left"), tol=TOL)
def test_gate_ei_left_plane(x, tol):
    mp = _mp()
    res = ei_left(x, tol)
    _check_laddered(res, complex(-mp.exp(x) * mp.e1(x)), tol)
    assert res.tol_met


@GATE
@given(x=_region("psi"), tol=TOL)
def test_gate_psi(x, tol):
    ref = complex(_mp().digamma(x + 1))
    _check_laddered(psi_dyadic(x, tol), ref, tol)


@GATE
@given(x=_region("erfc"), tol=TOL)
def test_gate_erfc(x, tol):
    mp = _mp()
    ref = float(mp.erfc(mp.sqrt(x)))
    _check_laddered(erfc_dyadic(x, tol), ref, tol * ref)


@GATE
@given(s=ORDER_S, x=_region("inc-gamma"), tol=TOL)
def test_gate_incomplete_gamma(s, x, tol):
    ref = complex(_mp().gammainc(s, x))
    _check_laddered(incomplete_gamma_dyadic(s, x, tol), ref, tol * abs(ref))


@GATE
@given(x=_region("airy"), tol=TOL)
def test_gate_airy(x, tol):
    ref = float(_mp().airyai(x))
    _check_laddered(airy_from_h(x, tol), ref, tol * ref)


@GATE
@given(nu=_order("bessel-k"), x=_region("bessel-k"), tol=TOL)
def test_gate_bessel_k(nu, x, tol):
    ref = float(_mp().besselk(nu, x))
    _check_laddered(bessel_k_dyadic(nu, x, tol), ref, tol * ref)


@GATE
@given(nu=st.sampled_from([0.5, 1.5, 2.5, 3.5, 4.5]), x=_region("bessel-k"))
def test_gate_bessel_k_at_half_integer_orders(nu, x):
    # the closed form there, and the recurrence from it, estimate their
    # rounding alone, which below x ~ 1 is mostly the front's
    ref = float(_mp().besselk(nu, x))
    assert_sound(bessel_k_dyadic(nu, x, 1e-12), ref, 1e-12 * ref)


@pytest.mark.parametrize("fid, reference", [
    ("psi", lambda mp, s, x: mp.digamma(x + 1)),
    ("erfc", lambda mp, s, x: mp.erfc(mp.sqrt(x))),
    ("inc-gamma", lambda mp, s, x: mp.gammainc(s, x)),
])
@GATE
@given(data=st.data(), tol=TOL)
def test_gate_small_arguments(fid, reference, data, tol):
    # |x| from 1e-3 to the caps of the laddered gates, where plans keep more
    # than LADDER_LEVELS levels; tol is relative for erfc and incomplete gamma
    fn = FUNCTIONS[fid]
    x = data.draw(_region(fid, radius=(1e-3, CAPS[fid][0])))
    s = data.draw(ORDER_S) if fn.order else None
    ref = complex(reference(_mp(), s, x))
    assert_sound(fn.evaluate(x, tol, s), ref, tol * abs(ref) if fn.relative else tol)


@pytest.mark.parametrize("s, x, tol", [(-0.99999, 0.001, 1e-6), (-0.99999, 0.00286, 1e-8)])
def test_incomplete_gamma_near_order_minus_one_at_small_argument(s, x, tol):
    # within 1e-3 of s = -1 a deep level's second term cancels to near 0
    # ahead of a large third, so its remainder must read past that term
    ref = float(_mp().gammainc(s, x))
    assert_sound(incomplete_gamma_dyadic(s, x, tol), ref, tol * ref)


NEAR_MINUS_ONE = st.floats(-6.0, -2.0).map(lambda e: -1.0 + 10.0 ** e)   # s = -1 + 10^U(-6, -2)
SMALL_X = st.one_of(_log_uniform(1e-3, 0.05), _region("inc-gamma", (-1.5, 1.5), (1e-3, 0.05)))


@GATE
@given(s=NEAR_MINUS_ONE, x=SMALL_X, tol=TOL)
def test_gate_incomplete_gamma_near_order_minus_one(s, x, tol):
    # real and complex |x| in [1e-3, 0.05], where deep levels' terms cancel
    # near s = -1: each level's remainder reads the larger of its next two
    ref = complex(_mp().gammainc(s, x))
    assert_sound(incomplete_gamma_dyadic(s, x, tol), ref, tol * abs(ref))


# tol from just above the caller's floor, which erfc and incomplete gamma
# plan below the planner's at large |x|, over |x| from 5 up to where the
# value leaves the normal range: real x <= 700, complex |x| <= 3e4 with
# Re x <= 700, so |arg x| from acos(700/|x|) to pi/2 - 0.01
TIGHT_TOL = _log_uniform(1.01e-14, 1e-11)
LARGE_REAL = _log_uniform(5.0, 700.0)


def _left_of_700(r, u, sign):
    lo = math.acos(min(1.0, 700.0 / r))
    return r * cmath.exp(sign * 1j * (lo + u * (math.pi / 2 - 0.01 - lo)))


LARGE_LEFT = st.builds(_left_of_700, _log_uniform(5.0, 3e4), st.floats(0.0, 1.0), st.sampled_from([-1, 1]))


@GATE
@given(x=LARGE_REAL, tol=TIGHT_TOL)
def test_gate_erfc_at_tight_tol_and_large_argument(x, tol):
    mp = _mp()
    ref = float(mp.erfc(mp.sqrt(x)))
    r = erfc_dyadic(x, tol)
    assert_sound(r, ref, tol * ref)
    assert r.tol_met


@GATE
@given(s=ORDER_S, x=st.one_of(LARGE_REAL, LARGE_LEFT), tol=TIGHT_TOL)
def test_gate_incomplete_gamma_at_tight_tol_and_large_argument(s, x, tol):
    ref = complex(_mp().gammainc(s, x))
    assume(abs(ref) >= sys.float_info.min)      # |x|^(s-1) e^-Re x may be subnormal
    r = incomplete_gamma_dyadic(s, x, tol)
    assert_sound(r, ref, tol * abs(ref))
    assert r.tol_met


@pytest.mark.parametrize("s, x, tol", [
    (0.841796875, 403.4287934927351, 1.0136270653989236e-14),
    (0.6833051933205576, 460.6121436835122, 1.1176086870894152e-14),
    (0.8435882616243935, 244.69193226422038, 1.1176086870894152e-14),
])
def test_incomplete_gamma_estimate_at_the_rounding_floor(s, x, tol):
    # the normalized series is planned at 7e-17 to 3e-16 here, and the
    # Richardson gains reach 25 near s = 0.85.  The estimate counts the
    # rounding of the kept terms and of the running sum of the weighted
    # levels; partial sums extrapolated step by step, with only the kept
    # terms counted, erred by 2.2e-15 to 2.8e-15 relative, 1.03x to 1.42x
    # the estimate
    ref = complex(_mp().gammainc(s, x))
    assert_sound(incomplete_gamma_dyadic(s, x, tol), ref, tol * abs(ref))


@pytest.mark.parametrize("nu, x", [(1.5, 20.0), (2.7, 30.0), (3.7, 40.0)])
def test_bessel_k_recurrence_meets_a_tight_tolerance(nu, x):
    # the recurrence carries absolute error bounds through its steps; an
    # estimate floored at 1e-16 absolute reported tol_met false wherever
    # K_nu(x) < 1e-4, at relative errors near 1e-15
    ref = float(_mp().besselk(nu, x))
    r = bessel_k_dyadic(nu, x, 1e-12)
    assert_sound(r, ref, 1e-12 * ref)
    assert r.tol_met


@pytest.mark.parametrize("evaluator, args, reference", [
    (erfc_dyadic, (735.0,), lambda mp: mp.erfc(mp.sqrt(735))),
    (erfc_dyadic, (800.0,), lambda mp: mp.erfc(mp.sqrt(800))),
    (incomplete_gamma_dyadic, (0.3, 735.0), lambda mp: mp.gammainc(0.3, 735)),
    (bessel_k_dyadic, (0.7, 735.0), lambda mp: mp.besselk(0.7, 735)),
    (bessel_k_dyadic, (0.7, 742.0), lambda mp: mp.besselk(0.7, 742)),
    (bessel_k_dyadic, (2.7, 800.0), lambda mp: mp.besselk(2.7, 800)),
    (airy_from_h, (110.0,), lambda mp: mp.airyai(110)),
])
def test_results_below_the_normal_range_report_a_missed_tolerance(evaluator, args, reference):
    # subnormal or 0: the value keeps few or no correct bits, and its
    # estimate bounds the rounding there (the recurrence's seeds at x = 800
    # are 0, which it used to divide by)
    mp = _mp()
    r = evaluator(*args, 1e-9)
    assert abs(mp.mpc(r.value) - reference(mp)) <= r.error_estimate
    assert not r.tol_met


# ``tol_met`` says whether error_estimate is within tol in the evaluator's
# units: absolute for Ei and digamma, relative to |value| for the others.

@pytest.mark.parametrize("nu", [0.0, 1.2])
def test_bessel_k_reports_a_missed_tolerance(nu):
    # |u| = 1 at tol 1e-12: the plan runs into the 16-level table depth and
    # its estimate lands just above tol
    r = bessel_k_dyadic(nu, 0.5, 1e-12)
    assert r.error_estimate > 1e-12 * abs(r.value)
    assert not r.tol_met


def test_tol_met_is_absolute_for_ei_and_digamma():
    r = ei_left(20.0, 1e-10)   # |value| ~ 0.05
    assert r.error_estimate > 1e-10 * abs(r.value) and r.tol_met
    short = ei_stokes(5.0, 1e-10, plan=DyadicPlan(K=2, n_terms=[3, 3, 3], predicted_error=1e-3))
    assert not short.tol_met


def _point_values_inputs(seed):
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.point_inputs(seed)


def test_point_values_meet_their_tolerance():
    missed = [it for it in _point_values_inputs(21)
              if not FUNCTIONS[it["fn"]].evaluate(complex(*it["x"]), it["tol"], it.get("s")).tol_met]
    assert missed == []


def _kept_rounding(fam, plan):
    """eps * sum_k |weight_k| gain_k sum_j |t_kj| over the plan's kept
    terms, in the units of the value, from products of the numerators the
    family's table holds."""
    n = np.asarray(plan.n_terms)
    k = np.arange(len(n))[:, None]
    j = np.arange(n.max())[None, :]
    i = np.minimum(j, n[:, None] - 1)
    numer = fam.table[k, i]
    terms = np.cumprod(numer / (fam.shift[k] + i), axis=1)
    sizes = np.where(j < n[:, None], np.abs(terms), 0.0).sum(axis=1)
    gain = dyadic._richardson(plan.K, fam.ladder[:plan.steps])[1]
    weight = np.abs(fam.weight[:plan.K + 1])
    return np.finfo(float).eps * float(np.sum(weight * gain * sizes))


def _h_family(nu, u):
    return borel._h_family(borel.get_table(nu, 66, LADDER_LEVELS), complex(u))


# Each family with the evaluator whose estimate, in the value's units,
# holds the family's plan, value and added error (None: the estimate scales
# them by a front factor)
ROUNDING_CASES = [
    ("ei-stokes", lambda: specfun.ei_stokes_family(0.3 + 0.1j),
     lambda tol: ei_stokes((0.3 + 0.1j), tol)),
    ("ei-stokes", lambda: specfun.ei_stokes_family(12.0), lambda tol: ei_stokes(12.0, tol)),
    ("ei-left", lambda: specfun.ei_left_family(0.4 - 0.2j), lambda tol: ei_left(0.4 - 0.2j, tol)),
    ("psi", lambda: specfun.psi_family(0.25), lambda tol: psi_dyadic(0.25, tol)),
    ("erfc", lambda: specfun._gamma_family(0.5, 0.4 + 0j), None),
    ("inc-gamma", lambda: specfun._gamma_family(-0.5, 0.5 + 0j), None),
    ("airy", lambda: _h_family(1.0 / 3.0, 1.5), lambda tol: borel.bessel_h(1.0 / 3.0, 1.5, tol)),
    ("bessel-k", lambda: _h_family(0.7, 1.2), lambda tol: borel.bessel_h(0.7, 1.2, tol)),
]


@pytest.mark.parametrize("name, family, evaluator", ROUNDING_CASES)
@pytest.mark.parametrize("tol", [1e-12, 1e-8])
def test_estimate_holds_the_rounding_of_the_kept_terms(name, family, evaluator, tol):
    fam = family()
    assert bool(fam.ladder) == (name != "ei-stokes")
    plan, value, added = dyadic.evaluate(fam, tol)
    # the walk sums the same magnitudes in another order
    rounding = _kept_rounding(fam, plan) * (1.0 - 1e-12)
    assert rounding > 0.0
    assert added >= rounding
    assert dyadic.evaluate(fam, tol, plan)[2] >= rounding
    if evaluator is not None:
        res = evaluator(tol)
        assert res.plan == plan
        assert res.error_estimate >= rounding
