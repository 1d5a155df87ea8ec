"""The planner's walk also sums the terms it plans, over per-order
templates and numerator tables built once.

A plan passed back re-walks the levels with fixed counts (``plan=`` for
the specfun evaluators, ``dyadic.evaluate`` over the h-expansion family);
it must give the value the planned call gave, and ``level_sums`` must give
the sums the planner's walk kept.  The draws cover the ranges of
perfbench's point-values workload for all seven evaluators.  Every
closed-form table is one read-only array equal to its closed form bit for
bit, the widest walks fit in it, threads that first use one
incomplete-gamma order at once share one build and give the values of a
serial run, and no earlier call changes what a later one returns.
"""

import cmath
import functools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyafact import borel, dyadic, specfun
from dyafact.borel import airy_from_h, bessel_h, bessel_k_dyadic, get_table
from dyafact.dyadic import (
    FIRST_CHUNK,
    LADDER_LEVELS,
    TABLE_COLUMNS,
    FactorialFamily,
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
    numer = fam.table[k, i]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.cumprod(numer / den, axis=1)
        alive = np.logical_and.accumulate(np.abs(terms) < 1e250, axis=1)
    return np.where((j < n[:, None]) & alive, terms, 0.0).sum(axis=1)


def _fresh_gamma_templates(monkeypatch):
    """An empty incomplete-gamma template cache for this test; returns
    the orders built, in the order of their builds."""
    builds = []
    raw = specfun._gamma_build.__wrapped__
    monkeypatch.setattr(specfun, "_gamma_build",
                        functools.cache(lambda s: builds.append(s) or raw(s)))
    return builds


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


def _rewalks_h(planned, fam, u, tol):
    """The h-expansion family at u re-walks the planned plan to the
    planned value h = 1/u + the level sums."""
    plan, total, _ = dyadic.evaluate(fam, tol, planned.plan)
    assert plan is planned.plan
    assert _relative(planned.value, 1.0 / u + total) <= 1e-15


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
    _same_walk(specfun._gamma_family(0.5, complex(x)), tol)


@WALK
@given(s=st.sampled_from([-0.5, 0.25]), x=_log_uniform(0.3, 20.0), tol=TOL)
def test_incomplete_gamma(s, x, tol):
    planned = incomplete_gamma_dyadic(s, x, tol)
    _replans(planned, incomplete_gamma_dyadic(s, x, tol, plan=planned.plan))
    _same_walk(specfun._gamma_family(s, complex(x)), tol)


@WALK
@given(x=_log_uniform(1.0, 12.0), tol=TOL)
def test_airy(x, tol):
    u = 4.0 / 3.0 * x**1.5
    planned = bessel_h(1.0 / 3.0, u, tol)
    fam = borel._h_family(get_table(1.0 / 3.0, 66, LADDER_LEVELS), complex(u))
    _rewalks_h(planned, fam, u, tol)
    assert airy_from_h(x, tol).plan == planned.plan
    _same_walk(fam, tol)


@WALK
@given(nu=st.sampled_from([0.3, 0.7, 2.7, 3.7]), x=_log_uniform(0.5, 15.0), tol=TOL)
def test_bessel_k(nu, x, tol):
    # orders past 3/2 run the recurrence from the direct orders frac(nu)
    # and 1 - frac(nu), which these seeds cover
    bessel_k_dyadic(nu, x, tol)
    for mu in {nu - math.floor(nu), 1.0 - (nu - math.floor(nu))}:
        planned = bessel_h(mu, 2.0 * x, tol)
        fam = borel._h_family(get_table(mu, 66, LADDER_LEVELS), complex(2.0 * x))
        _rewalks_h(planned, fam, 2.0 * x, tol)
        _same_walk(fam, tol)


# psi near its zero at x = 0.4616 (0.5346 at tol 1e-9 moves furthest
# from ``romberg``'s value over perfbench's inputs of seeds 21-40,
# 4.9e-15 relative) and elsewhere, the incomplete-gamma rounding floor,
# and Ei, Stokes and h families at tight tols
FORMS = [
    (psi_family(0.4616321449683623), 1e-13),
    (psi_family(0.4616321449683623), 1e-8),
    (psi_family(0.48779153256988206), 3.855591623250077e-08),
    (psi_family(0.5346144075342095), 1.0373182564952165e-09),
    (psi_family(0.05 + 0.3j), 1e-13),
    (specfun._gamma_family(0.841796875, complex(403.43)), 7e-17),
    (ei_left_family(2.0), 1e-13),
    (ei_stokes_family(5.0 + 0.3j), 1e-12),
    (borel._h_family(get_table(0.7, 66, LADDER_LEVELS), complex(3.0)), 1e-12),
]


@pytest.mark.parametrize("fam, tol", FORMS)
def test_the_form_moves_the_value_by_less_than_its_rounding(fam, tol):
    # the running sum of the weighted levels and ``romberg``'s steps over
    # their partial sums round differently; the gap lies within the
    # rounding the estimate counts, what assembly adds beyond the correction
    plan, value, added = dyadic.evaluate(fam, tol)
    level = fam.weight[:plan.K + 1] * level_sums(fam, plan.n_terms)
    partial = np.add.accumulate(level)
    stepwise, _ = dyadic.romberg(partial[plan.K - plan.steps:].tolist(), fam.ladder[:plan.steps])
    corr = abs(np.sum(dyadic._richardson(plan.K, fam.ladder[:plan.steps])[2] * level))
    assert abs(value - stepwise) <= added - corr


class TestTemplates:
    """A second call of an order at a new argument builds nothing new."""

    def test_exponential_integral_and_digamma(self):
        for family in (ei_stokes_family, ei_left_family, psi_family):
            a, b = family(2.0 + 0.5j), family(7.0 - 1.0j)
            assert a.table is b.table and a.weight is b.weight
            assert not np.array_equal(a.shift, b.shift)

    def test_incomplete_gamma(self):
        s = 0.25
        incomplete_gamma_dyadic(s, 1.0, 1e-10)
        template = specfun._gamma_template(s)
        incomplete_gamma_dyadic(s, 3.0, 1e-8)
        assert specfun._gamma_template(s) is template
        a, b = (specfun._gamma_family(s, complex(x)) for x in (1.0, 3.0))
        assert a.table is b.table is template.table
        assert a.weight is b.weight is template.weight
        assert not np.array_equal(a.shift, b.shift)

    def test_incomplete_gamma_weights_take_the_order_as_given(self):
        # the coefficient rows and the level weights 2^{ks} are both built
        # at the order as given, however close it lies to another
        s = 0.25 + 3e-13
        fam = specfun._gamma_family(s, 2.0 + 0j)
        expected = -(2.0 ** np.arange(dyadic.MAX_LEVELS + 1)) ** s
        expected[0] = 1.0
        assert np.array_equal(fam.weight, expected)
        assert specfun._gamma_template(s) is not specfun._gamma_template(0.25)

    def test_h_expansion(self, monkeypatch):
        airy_from_h(2.0, 1e-10)
        table = get_table(1.0 / 3.0, 66, LADDER_LEVELS)
        builds = []
        for cls in (borel.BorelKernel, borel.CoefficientTable):
            raw = cls.build
            monkeypatch.setattr(cls, "build", staticmethod(
                lambda *a, raw=raw, name=cls.__name__, **kw: builds.append(name) or raw(*a, **kw)))
        airy_from_h(5.0, 1e-8)
        assert get_table(1.0 / 3.0, 66, LADDER_LEVELS) is table
        assert builds == []
        # every argument reads the table's numerators and ladder themselves
        a, b = (borel._h_family(table, u) for u in (3.0 + 0j, 7.5 - 2j))
        assert a.table is b.table is table.numer
        assert a.ladder is b.ladder is table.ladder
        assert not np.array_equal(a.weight, b.weight)


class TestTables:
    """Each closed-form numerator table is one read-only array of
    TABLE_COLUMNS columns, equal to its closed form bit for bit; the h
    table holds d_{k,2} and then the term ratios of its coefficient rows;
    an incomplete-gamma table is the term ratios of its order's
    coefficient rows, built whole."""

    @staticmethod
    def _closed_form(table, a, den):
        k = np.arange(dyadic.MAX_LEVELS + 1)[:, None]
        i = np.arange(TABLE_COLUMNS)[None, :]
        closed = np.where(i == 0, a[k], i) / den[k]
        assert type(table) is np.ndarray and table.dtype == closed.dtype
        assert table.shape == (dyadic.MAX_LEVELS + 1, TABLE_COLUMNS) == closed.shape
        assert np.array_equal(table, closed)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("c", [1j * math.pi, -1.0])
    def test_exponential_integral(self, c):
        a, den, table = specfun._EI_STOKES if c == 1j * math.pi else specfun._EI_LEFT
        assert np.array_equal(a, np.exp(-c / 2.0 ** np.arange(dyadic.MAX_LEVELS + 1)))
        self._closed_form(table, a, den)

    def test_digamma(self):
        ones = np.ones(dyadic.MAX_LEVELS + 1)
        self._closed_form(specfun._PSI_TABLE, ones, 2.0 * ones)

    def test_incomplete_gamma_through_ratios(self):
        template = specfun._gamma_template(0.37)
        columns = specfun._GAMMA_TERMS + 1
        assert template.coeffs.shape == (dyadic.MAX_LEVELS + 1, columns + 1)
        c = template.coeffs[:, :columns]
        table = template.table
        assert table.shape == (dyadic.MAX_LEVELS + 1, columns)
        assert np.array_equal(table, c / np.hstack([np.ones((len(c), 1)), c[:, :-1]]))
        assert np.isfinite(table).all()
        for a in (template.coeffs, table, template.weight, template.lead):
            assert not a.flags.writeable
        with pytest.raises(FrozenInstanceError):
            template.table = table

    def test_the_order_shift_helper_is_the_cached_order(self, monkeypatch):
        # an order s < 0 takes its level rows from the cached order s + 1,
        # which erfc reads as a template of its own, by one derivative
        # shift; its base row is its own
        builds = _fresh_gamma_templates(monkeypatch)
        erfc_dyadic(2.0, 1e-10)
        half = specfun._gamma_template(0.5)
        incomplete_gamma_dyadic(-0.5, 2.0, 1e-10)
        assert builds == [0.5, -0.5] and specfun._gamma_template(0.5) is half
        c, shifted = half.coeffs, specfun._gamma_template(-0.5).coeffs
        n = specfun._GAMMA_TERMS + 1
        assert shifted.shape == (dyadic.MAX_LEVELS + 1, n)
        assert np.array_equal(shifted[1:], -c[1:, 1:] + np.arange(n) * c[1:, :-1])
        assert np.array_equal(shifted[0], specfun._base_row(-0.5, n))

    def test_h_expansion(self):
        table = get_table(0.7, 66, LADDER_LEVELS)
        numer = table.numer
        assert numer.shape == (table.K + 1, table.M - 1) and not numer.flags.writeable
        rows = np.vstack([table.dm, table.dkm])
        sign = np.where(np.arange(table.K + 1) == 0, -1.0, 1.0)[:, None]
        assert np.array_equal(numer[:, 0], rows[:, 0])
        ratios = sign * np.arange(2.0, table.M) * rows[:, 1:] / rows[:, :-1]
        assert np.array_equal(numer[:, 1:], ratios)
        for a in (table.dm, table.dkm, table.scale, table.weight, table.lead):
            assert not a.flags.writeable
        kappa = math.cos(math.pi * table.nu) / math.pi
        level = -kappa * np.exp(2.0 ** -np.arange(table.K + 1.0))
        assert np.allclose(table.weight, np.where(np.arange(table.K + 1) == 0, -kappa, level),
                           rtol=1e-15, atol=0.0)
        with pytest.raises(FrozenInstanceError):
            table.numer = numer
        # the argument's 1/u_k joins the level weight, not the table
        u = 2.5 + 0j
        fam = borel._h_family(table, u)
        assert fam.table is numer
        assert np.array_equal(fam.weight, table.weight / (table.scale * u))


@pytest.mark.parametrize("family, terms", [(ei_stokes_family, 192), (ei_left_family, 122),
                                           (psi_family, 49)])
def test_the_widest_walks_fit_in_the_table(family, terms):
    # at tol 1.01e-14 and |x| = 4e-12, every shift at least 1e-12 from a
    # pole, the widest walks keep fewer terms than a table supports
    widest = 0
    for deg in (0.0, 10.0, 45.0, 90.0):
        fam = family(4e-12 * cmath.exp(1j * math.radians(deg)))
        widest = max(widest, max(dyadic.plan_truncation(fam, 1.01e-14).n_terms))
    assert widest == terms < TABLE_COLUMNS - 1


class TestHistory:
    """A call's value, estimate and plan do not depend on the calls made
    before it: no coefficient cache rebuilds what it handed out."""

    @staticmethod
    def _h_grid():
        return ([airy_from_h(x, 1e-10) for x in (1.5, 3.0, 6.0, 10.0)]
                + [bessel_k_dyadic(nu, x, 1e-9) for nu in (0.7, 2.7) for x in (0.8, 2.0, 5.0, 12.0)])

    def test_h_expansion_after_a_deep_plan(self, monkeypatch):
        # fresh tables, then a 20-level plan over a (14, 20) table of each
        # direct order the grid runs (Airy 1/3, Bessel-K 0.7, and
        # 0.3 = |0.7 - 1| for 2.7)
        monkeypatch.setattr(borel, "_table", functools.cache(borel._table.__wrapped__))
        before = self._h_grid()
        deep = dyadic.DyadicPlan(K=20, n_terms=[12] * 21, predicted_error=1e-12)
        for nu in (1.0 / 3.0, 0.7, 0.3):
            dyadic.evaluate(borel._h_family(get_table(nu, 14, 20), 4.0 + 0j), 1e-10, deep)
        assert self._h_grid() == before

    @pytest.mark.parametrize("s", [-0.5, 0.25])
    def test_incomplete_gamma_after_widening_calls(self, s, monkeypatch):
        _fresh_gamma_templates(monkeypatch)
        fresh = _gamma_grid(s)
        _fresh_gamma_templates(monkeypatch)
        for x in (0.05, 0.3):                      # levels that keep up to 77 terms
            incomplete_gamma_dyadic(s, x, 1e-12)
        assert _gamma_grid(s) == fresh


class TestBuildMemory:
    """A build that stacks its levels holds no larger temporaries than the
    level-by-level build did: tracemalloc peaks of a fresh 16-level table
    and of a fresh order's first incomplete-gamma call, each at most 10 %
    above the level-by-level build's (2.12 and 0.71 MB)."""

    @staticmethod
    def _peak_mb(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_coefficient_table(self, monkeypatch):
        get_table(0.7, 10, 2)                     # every module the build loads
        monkeypatch.setattr(borel, "_table", functools.cache(borel._table.__wrapped__))
        assert self._peak_mb(lambda: get_table(0.7, 66, 16)) <= 1.1 * 2.12

    def test_incomplete_gamma_rows(self, monkeypatch):
        incomplete_gamma_dyadic(0.7, 1.0, 1e-8)
        _fresh_gamma_templates(monkeypatch)
        assert self._peak_mb(lambda: incomplete_gamma_dyadic(0.3, 0.3, 1e-12)) <= 1.1 * 0.71


def _ei_grid():
    """Ei-Stokes points beside the Stokes line at tol 1e-12: level 1 keeps
    73 to 105 terms, past a walk's first chunk."""
    return [ei_stokes(x, 1e-12).value for x in (5.0 + 0.3j, 2.0 + 0.05j, 0.5 + 0.01j, 3.0 - 0.1j)]


def _gamma_grid(s):
    return [incomplete_gamma_dyadic(s, x, 1e-10) for x in (0.3, 0.7, 2.0, 6.0, 15.0)]


def test_tables_grown_by_two_threads_give_the_serial_values(monkeypatch):
    # threads, more than cores, first use one fresh order s < 0 at once:
    # all get the one template of a single build (and of one build of the
    # order s + 1 it shifts), and the values of a serial run
    s = -0.4321                                  # an order no other test builds
    builds = _fresh_gamma_templates(monkeypatch)
    start = threading.Barrier(4, timeout=60)

    def first_use():
        start.wait()
        return _gamma_grid(s), specfun._gamma_template(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)               # switch threads as often as it can
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            jobs = [pool.submit(first_use) for _ in range(4)]
            grids, templates = zip(*[job.result(timeout=120) for job in jobs])
    finally:
        sys.setswitchinterval(interval)
    assert all(t is templates[0] for t in templates)
    assert sorted(builds) == [s, s + 1.0]
    _fresh_gamma_templates(monkeypatch)
    serial = _gamma_grid(s)
    assert all(grid == serial for grid in grids)


class TestGuards:
    def test_pole_within_the_kept_terms(self):
        # level 1 of Ei-left at x = -1.5 + 1e-14 i has its pole at index 3
        fam = ei_left_family(-1.5 + 1e-14j)
        assert np.array_equal(level_sums(fam, [5, 3]), _padded_level_sums(fam, [5, 3]))
        for n_terms in ([5, 4], [2, 40]):
            with pytest.raises(PoleError):
                level_sums(fam, n_terms)
        with pytest.raises(PoleError):
            level_sums(psi_family(1e-13), [1])

    def test_terms_past_an_overflow_are_dropped(self):
        # t_j = 1e100^j / j!: t_3 reaches 1e250, so levels keep t_1 + t_2
        table = np.full((2, 61), 1e100)
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

    def test_a_walk_of_175_terms_reads_inside_the_table(self):
        # at |x| ~ 1e-10 level 1 keeps 175 terms, read from the one table
        fam = ei_stokes_family(1e-10 + 1e-10j)
        plan = dyadic.plan_truncation(fam, 1e-13)
        assert max(plan.n_terms) == 175
        _same_walk(fam, 1e-13)
