"""The planner's walk also sums the terms it plans, over per-order
templates and numerator tables built once.

A plan passed back with ``plan=`` re-walks the levels with fixed counts;
it must give the value the planned call gave, and ``level_sums`` must give
the sums the planner's walk kept.  The draws cover the ranges of
perfbench's point-values workload for all seven evaluators.  Every table
holds numer(k, i) bit for bit, also once grown, and tables grown by two
threads at once give the values of a serial run.
"""

import cmath
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyafact import borel, dyadic, specfun
from dyafact.borel import airy_from_h, airy_h, bessel_k_dyadic, get_table
from dyafact.dyadic import (
    FIRST_CHUNK,
    LADDER_LEVELS,
    TABLE_COLUMNS,
    FactorialFamily,
    NumerTable,
    level_sums,
)
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
    plan, walked, _ = dyadic._plan(fam, tol)
    sums = level_sums(fam, plan.n_terms)
    assert np.array_equal(sums, walked)
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
            assert a.table is b.table and a.table.numer is a.numer
            assert not np.array_equal(a.shift, b.shift)

    def test_incomplete_gamma(self):
        s = 0.25
        incomplete_gamma_dyadic(s, 1.0, 1e-10)
        co = specfun._gamma_coeffs(s)
        table, rows, levels = co._table, dict(co._level), co.levels
        base = co._base
        incomplete_gamma_dyadic(s, 3.0, 1e-8)
        assert specfun._gamma_coeffs(s) is co
        assert co._table is table
        assert co.levels is levels and co._base is base
        assert all(co._level[k] is row for k, row in rows.items()) and co._level.keys() == rows.keys()
        a, b = (specfun._gamma_family(s, complex(x), co) for x in (1.0, 3.0))
        assert a.table is b.table is co

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
        # the argument's numerator table is the template's ratios but for column 0
        fam = borel._h_family(table, 3.0 + 0j)
        assert np.array_equal(fam.table.array[:, 1:], levels.ratio[:, 1:])


def _whole(numer, levels, width):
    k = np.arange(levels)[:, None]
    return numer(k, np.arange(width)[None, :])


class TestTables:
    """Each template's numerator table holds numer(k, i) bit for bit, on
    either side of a growth; a grown array is a new one, and the array a
    reader held stays as it was."""

    @pytest.mark.parametrize("c", [1j * math.pi, -1.0])
    def test_exponential_integral(self, c):
        levels = dyadic.MAX_LEVELS + 1
        table = specfun._ei_template(c)[2]          # fresh, FIRST_CHUNK columns
        before = table.array
        assert before.shape == (levels, FIRST_CHUNK) and not before.flags.writeable
        assert np.array_equal(before, _whole(table.numer, levels, FIRST_CHUNK))
        head = table.read(slice(0, 3), FIRST_CHUNK + 1, FIRST_CHUNK + 1)
        grown = table.array
        assert grown.shape[1] == 2 * FIRST_CHUNK - 1 == TABLE_COLUMNS
        assert grown.dtype == before.dtype
        assert np.array_equal(grown, _whole(table.numer, levels, grown.shape[1]))
        assert np.array_equal(head, grown[:3, :FIRST_CHUNK + 1])
        assert np.array_equal(grown[:, :FIRST_CHUNK], before)
        assert before.shape[1] == FIRST_CHUNK and not grown.flags.writeable
        # past the widest table the rows read are formed, and nothing is kept
        rows = np.array([1, 4])
        past = table.read(rows, 1, 3 * TABLE_COLUMNS)
        assert np.array_equal(past, _whole(table.numer, levels, 3 * TABLE_COLUMNS)[rows])
        assert table.array is grown

    def test_digamma(self):
        table = NumerTable(specfun._PSI_TABLE.numer, dyadic.MAX_LEVELS + 1, first=33)
        assert np.array_equal(table.array, _whole(table.numer, dyadic.MAX_LEVELS + 1, 33))
        assert np.array_equal(table.read(slice(0, 2), 40, 40), table.array[:2, :40])
        grown = table.array
        assert grown.shape[1] == 65
        assert np.array_equal(grown, _whole(table.numer, dyadic.MAX_LEVELS + 1, 65))
        table.read(slice(0, 2), 1, 65)
        assert table.array is grown

    def test_incomplete_gamma_through_ratios(self):
        co = specfun._GammaCoeffs(0.37)               # fresh: no row built
        k = np.arange(4)[:, None]
        head = co.read(slice(0, 4), 1, 40)            # rows start with 33 entries
        before = co._table[0]
        assert np.array_equal(co._table[1][:5], [33, 33, 33, 33, 0])
        assert np.array_equal(head, before[:4, :40], equal_nan=True)
        assert np.isnan(before[:4, 33:]).all() and np.isnan(before[4:]).all()
        assert np.array_equal(before[:4, :33], co.ratios(k, np.arange(33)[None, :]))
        grown = co.ratios(np.array([[0], [2]]), np.array([[40]]))   # past the boundary
        assert np.array_equal(co._table[1][:4], [66, 33, 66, 33])
        ratios = co._table[0]
        assert ratios is not before and np.isnan(before[:4, 33:]).all()
        assert np.array_equal(grown[:, 0], ratios[[0, 2], 40])
        for lvl, n in ((0, 66), (1, 33), (2, 66), (3, 33)):
            c = co.row(lvl, n)
            with np.errstate(divide="ignore", invalid="ignore"):
                assert np.array_equal(ratios[lvl, :n], c / np.append(1.0, c[:-1]))
            assert np.array_equal(ratios[lvl, :n], co.ratios(np.array([[lvl]]), np.arange(n)[None, :])[0])
            assert np.isnan(ratios[lvl, n:]).all()

    def test_h_expansion_through_its_closure(self):
        table = get_table(0.7, 66, LADDER_LEVELS)
        fam = borel._h_family(table, 2.5 + 0j)
        assert fam.table.array.shape == (table.K + 1, table.M - 1)
        assert np.array_equal(fam.table.array, _whole(fam.numer, table.K + 1, table.M - 1))
        ratio = fam.table.array
        assert np.array_equal(fam.table.read(slice(0, table.K + 1), 1, fam.max_terms + 1), ratio)
        assert fam.table.array is ratio


def _ei_grid():
    """Ei-Stokes points beside the Stokes line at tol 1e-12: level 1 keeps
    73 to 105 terms, past a fresh table's FIRST_CHUNK columns."""
    return [ei_stokes(x, 1e-12).value for x in (5.0 + 0.3j, 2.0 + 0.05j, 0.5 + 0.01j, 3.0 - 0.1j)]


def _gamma_grid(s):
    return [incomplete_gamma_dyadic(s, x, 1e-10).value for x in (0.3, 0.7, 2.0, 6.0, 15.0)]


def test_tables_grown_by_two_threads_give_the_serial_values(monkeypatch):
    s = -0.4321                                  # an order no other test builds

    def fresh():
        monkeypatch.setattr(specfun, "_GAMMA_CACHE", {})
        monkeypatch.setattr(specfun, "_EI_STOKES", specfun._ei_template(1j * math.pi))

    fresh()
    start = threading.Barrier(2, timeout=60)

    def together(task, *args):
        start.wait()
        return task(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)               # switch threads as often as it can
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            jobs = [pool.submit(together, _gamma_grid, s), pool.submit(together, _ei_grid)]
            threaded = [job.result(timeout=120) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert specfun._EI_STOKES[2].array.shape[1] > FIRST_CHUNK
    fresh()
    serial = [_gamma_grid(s), _ei_grid()]
    assert specfun._EI_STOKES[2].array.shape[1] > FIRST_CHUNK
    assert threaded == serial


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
        table = NumerTable(lambda k, i: np.full(np.broadcast(k, i).shape, 1e100), 2)
        fam = FactorialFamily("overflow", np.ones(2, dtype=complex), np.ones(2), table,
                              size=np.full(2, 1e100), safety=1.0)
        for n_terms in ([1, 2], [5, 40], [60, 3]):
            sums = level_sums(fam, n_terms)
            assert np.array_equal(sums, _padded_level_sums(fam, n_terms))
        assert sums[0] == 1e100 + 1e200 / 2.0

    @pytest.mark.parametrize("n_terms", [[1], [1, 1, 1], [33, 1, 34], [70, 2, 140, 5]])
    def test_counts_across_chunks(self, n_terms):
        fam = ei_left_family(0.7 - 0.4j)
        assert np.array_equal(level_sums(fam, n_terms), _padded_level_sums(fam, n_terms))

    @pytest.mark.parametrize("x", [-5.0 + 0.3j, -0.5 + 0.01j])
    def test_walk_past_the_first_table_width_near_a_cut(self, x):
        # ei_left beside its cut walks the Stokes family at -conj x, whose
        # level 1 keeps more terms than a first chunk reads
        fam = ei_stokes_family(-x.conjugate())
        plan = dyadic.plan_truncation(fam, 1e-12)
        assert max(plan.n_terms) > FIRST_CHUNK
        _same_walk(fam, 1e-12)
        assert ei_left(x, 1e-12).plan == plan

    def test_a_walk_past_the_widest_table_keeps_it_bounded(self, monkeypatch):
        # at |x| ~ 1e-10 level 1 keeps 175 terms: the walk forms the columns
        # past TABLE_COLUMNS for the levels still walking and keeps none
        monkeypatch.setattr(specfun, "_EI_STOKES", specfun._ei_template(1j * math.pi))
        fam = ei_stokes_family(1e-10 + 1e-10j)
        plan = dyadic.plan_truncation(fam, 1e-13)
        assert max(plan.n_terms) > TABLE_COLUMNS
        _same_walk(fam, 1e-13)
        assert fam.table.array.shape == (dyadic.MAX_LEVELS + 1, TABLE_COLUMNS)
