"""The planner's walk also sums the terms it plans, over per-order
templates built once.

A plan passed back with ``plan=`` re-walks the levels with fixed counts;
it must give the value the planned call gave, and ``level_sums`` must give
the sums the planner's walk kept.  The draws cover the ranges of
perfbench's point-values workload for all seven evaluators.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyafact import borel, dyadic, specfun
from dyafact.borel import airy_from_h, airy_h, bessel_k_dyadic, get_table
from dyafact.dyadic import LADDER_LEVELS, FactorialFamily, level_sums
from dyafact.scalar import PoleError
from dyafact.specfun import (
    ei_left,
    ei_left_family,
    ei_stokes,
    ei_stokes_family,
    erfc_dyadic,
    incomplete_gamma_dyadic,
    psi_dyadic,
    psi_family,
)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _relative(a, b):
    return abs(complex(a) - complex(b)) / max(abs(complex(a)), abs(complex(b)), 1e-300)


def _padded_level_sums(fam, n_terms):
    """Level sums from one running product over a padded index matrix,
    every level as long as the longest; the reference for the walk."""
    n = np.asarray(n_terms)
    k = np.arange(len(n))[:, None]
    j = np.arange(n.max())[None, :]
    i = np.minimum(j, n[:, None] - 1)
    den = fam.shift[k] + i
    if np.any(np.abs(den) < dyadic.POCH_GUARD):
        raise PoleError("factorial-series denominator within 1e-12 of a pole")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.cumprod(fam.numer(k, i) / den, axis=1)
        alive = np.logical_and.accumulate(np.abs(terms) < 1e250, axis=1)
    return np.where((j < n[:, None]) & alive, terms, 0.0).sum(axis=1)


def _same_walk(fam, tol):
    """The planner's walk and the fixed-count walk of its plan agree, with
    each other and with the padded reference."""
    plan, n_terms, terms = dyadic._plan(fam, tol)
    sums = level_sums(fam, plan.n_terms)
    assert np.array_equal(sums, dyadic._sums(fam, n_terms, terms))
    assert np.array_equal(sums, _padded_level_sums(fam, plan.n_terms))
    again = dyadic.evaluate(fam, tol, plan)
    planned = dyadic.evaluate(fam, tol)
    assert again[0] is plan and planned[0] == plan
    assert _relative(planned[1], again[1]) <= 1e-15
    assert planned[2] == again[2]


def _replans(planned, again):
    assert _relative(planned.value, again.value) <= 1e-15
    assert again.plan == planned.plan


TOL = _log_uniform(1e-10, 1e-6)
WALK = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@WALK
@given(r=_log_uniform(1.0, 20.0), deg=st.floats(-30.0, 30.0), tol=TOL)
def test_ei_stokes(r, deg, tol):
    x = r * cmath.exp(1j * math.radians(deg))
    planned = ei_stokes(x, tol)
    _replans(planned, ei_stokes(x, tol, plan=planned.plan))
    # below the real axis ei_stokes walks the family at conj x
    _same_walk(ei_stokes_family(x if x.imag >= 0 else x.conjugate()), tol)


@WALK
@given(r=_log_uniform(0.5, 20.0), deg=st.floats(-45.0, 45.0), tol=TOL)
def test_ei_left(r, deg, tol):
    x = r * cmath.exp(1j * math.radians(deg))
    planned = ei_left(x, tol)
    _replans(planned, ei_left(x, tol, plan=planned.plan))
    _same_walk(ei_left_family(x), tol)


@WALK
@given(x=_log_uniform(0.2, 50.0), tol=TOL)
def test_psi(x, tol):
    planned = psi_dyadic(x, tol)
    _replans(planned, psi_dyadic(x, tol, plan=planned.plan))
    _same_walk(psi_family(x), tol)


@WALK
@given(x=_log_uniform(0.2, 20.0), tol=_log_uniform(5e-9, 1e-6))
def test_erfc(x, tol):
    planned = erfc_dyadic(x, tol)
    again = incomplete_gamma_dyadic(0.5, x, tol, plan=planned.plan)
    assert again.plan == planned.plan
    assert _relative(planned.value, again.value / math.sqrt(math.pi)) <= 1e-15
    _same_walk(specfun._gamma_family(0.5, complex(x), specfun._gamma_coeffs(0.5)), tol)


@WALK
@given(s=st.sampled_from([-0.5, 0.25]), x=_log_uniform(0.3, 20.0), tol=TOL)
def test_incomplete_gamma(s, x, tol):
    planned = incomplete_gamma_dyadic(s, x, tol)
    _replans(planned, incomplete_gamma_dyadic(s, x, tol, plan=planned.plan))
    _same_walk(specfun._gamma_family(s, complex(x), specfun._gamma_coeffs(s)), tol)


@WALK
@given(x=_log_uniform(1.0, 12.0), tol=TOL)
def test_airy(x, tol):
    u = 4.0 / 3.0 * x**1.5
    planned = airy_h(u, tol)
    _replans(planned, airy_h(u, tol, plan=planned.plan))
    assert airy_from_h(x, tol).plan == planned.plan
    _same_walk(borel._h_family(get_table(1.0 / 3.0, 66, LADDER_LEVELS), complex(u)), tol)


@WALK
@given(nu=st.sampled_from([0.3, 0.7, 2.7, 3.7]), x=_log_uniform(0.5, 15.0), tol=TOL)
def test_bessel_k(nu, x, tol):
    # orders past 3/2 run the recurrence from the direct orders frac(nu)
    # and 1 - frac(nu), which these seeds cover
    bessel_k_dyadic(nu, x, tol)
    for mu in {nu - math.floor(nu), 1.0 - (nu - math.floor(nu))}:
        planned = borel._bessel_h_eval(mu, 2.0 * x, tol)
        _replans(planned, borel._bessel_h_eval(mu, 2.0 * x, tol, plan=planned.plan))
        _same_walk(borel._h_family(get_table(mu, 66, LADDER_LEVELS), complex(2.0 * x)), tol)


class TestTemplates:
    """A second call of an order at a new argument builds nothing new."""

    def test_exponential_integral_and_digamma(self):
        for family in (ei_stokes_family, ei_left_family, psi_family):
            a, b = family(2.0 + 0.5j), family(7.0 - 1.0j)
            assert a.numer is b.numer and a.weight is b.weight
            assert not np.array_equal(a.shift, b.shift)

    def test_incomplete_gamma(self):
        s = 0.25
        incomplete_gamma_dyadic(s, 1.0, 1e-10)
        co = specfun._gamma_coeffs(s)
        have, rows, levels = co._have.copy(), dict(co._level), co.levels
        base = co._base
        incomplete_gamma_dyadic(s, 3.0, 1e-8)
        assert specfun._gamma_coeffs(s) is co
        assert np.array_equal(co._have, have)
        assert co.levels is levels and co._base is base
        assert all(co._level[k] is row for k, row in rows.items()) and co._level.keys() == rows.keys()

    def test_incomplete_gamma_weights_take_the_order_as_given(self):
        # the coefficient rows and the level weights 2^{ks} are both built
        # at the order as given, however close it lies to another
        s = 0.25 + 3e-13
        fam = specfun._gamma_family(s, 2.0 + 0j, specfun._gamma_coeffs(s))
        assert specfun._gamma_coeffs(s).s == s
        expected = -(2.0 ** np.arange(dyadic.MAX_LEVELS + 1)) ** s
        expected[0] = 1.0
        assert np.array_equal(fam.weight, expected)

    def test_h_expansion(self):
        airy_from_h(2.0, 1e-10)
        table = get_table(1.0 / 3.0, 66, LADDER_LEVELS)
        kernel, levels = borel._KERNELS[table.nu], table.h_levels
        airy_from_h(5.0, 1e-8)
        assert get_table(1.0 / 3.0, 66, LADDER_LEVELS) is table
        assert borel._KERNELS[table.nu] is kernel and table.h_levels is levels


class TestGuards:
    def test_pole_within_the_kept_terms(self):
        # level 1 of Ei-left at x = -1.5 + 1e-14 i has its pole at index 3
        fam = ei_left_family(-1.5 + 1e-14j)
        assert np.array_equal(level_sums(fam, [5, 3]), _padded_level_sums(fam, [5, 3]))
        for n_terms in ([5, 4], [2, 40]):
            with pytest.raises(PoleError):
                level_sums(fam, n_terms)
        with pytest.raises(PoleError):
            specfun.psi_half_difference(1e-13, 1)

    def test_terms_past_an_overflow_are_dropped(self):
        # t_j = 1e100^j / j!: t_3 reaches 1e250, so levels keep t_1 + t_2
        fam = FactorialFamily("overflow", np.ones(2, dtype=complex), np.ones(2),
                              lambda k, i: np.full(np.broadcast(k, i).shape, 1e100),
                              size=np.full(2, 1e100), safety=1.0)
        for n_terms in ([1, 2], [5, 40], [60, 3]):
            sums = level_sums(fam, n_terms)
            assert np.array_equal(sums, _padded_level_sums(fam, n_terms))
        assert sums[0] == 1e100 + 1e200 / 2.0

    @pytest.mark.parametrize("n_terms", [[1], [1, 1, 1], [33, 1, 34], [70, 2, 140, 5]])
    def test_counts_across_chunks(self, n_terms):
        fam = ei_left_family(0.7 - 0.4j)
        assert np.array_equal(level_sums(fam, n_terms), _padded_level_sums(fam, n_terms))
