"""The function table (``dyafact.functions``): ``Function.check`` is each
region written out plainly, every bound the table holds is its
evaluator's, README states them, and reading it loads no evaluator."""

import ast
import cmath
import importlib
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from dyafact import functions
from dyafact.functions import FUNCTIONS, TOL_RANGE, check_tol
from dyafact.scalar import DomainError

REAL = (0.0, 0.0)
TOL = 1e-6      # erfc and incomplete gamma take it at x = 1e6
S = 0.7         # an order off the half-integers, where Bessel-K plans
STEP = 1e-9     # "just inside" and "just outside" a bound, relative to it


def _raises(fn, x, s, bound):
    """DomainError at (x, s) from the evaluator, naming it and the bound."""
    with pytest.raises(DomainError) as err:
        fn.evaluate(x, TOL, s)
    assert fn.name in str(err.value) and f"{abs(bound):.4g}" in str(err.value)


@pytest.mark.parametrize("fid", FUNCTIONS)
def test_radius_bounds_are_the_evaluators(fid):
    fn = FUNCTIONS[fid]
    lo, hi = fn.radius
    if lo > 0:
        fn.evaluate(complex(lo * (1 + STEP)), TOL, S)
        _raises(fn, complex(lo * (1 - STEP)), S, lo)
    if hi < math.inf:
        fn.evaluate(complex(hi * (1 - STEP)), TOL, S)
        _raises(fn, complex(hi * (1 + STEP)), S, hi)
    fn.evaluate(1e6 + 0j, TOL, S)
    with pytest.raises(DomainError):
        fn.evaluate(0j, TOL, S)


def _inside(fid, x, s):
    """The region of ``fid`` written out plainly, apart from the table."""
    fn, size = FUNCTIONS[fid], abs(x)
    lo, hi = fn.radius
    on_axis = {"real": abs(x.imag) <= 1e-12 * size, "imag": abs(x.real) <= 1e-12 * size}
    region = {
        "ei-stokes": not (x.imag <= 0 and on_axis["imag"]),    # off the closed -i R^+
        "ei-left": not (x.real <= 0 and on_axis["real"]),      # off the closed -R^+
        "psi": x.real > 0,
        "inc-gamma": x.real > 0,
    }.get(fid, on_axis["real"] and x.real > 0)                  # the real-x ids
    order = fn.order is None or fn.order[0] <= s <= fn.order[1]
    return region and order and 0 < size and lo <= size <= hi


@pytest.mark.parametrize("fid", FUNCTIONS)
def test_check_is_the_region_over_the_whole_plane(fid):
    # |x| log-uniform across both radius bounds, arg x uniform over
    # (-pi, pi] with a share exactly on the axes, where the cuts and the
    # real-x ids lie, a few x = 0, and s over 1.5 times the order range
    fn, rng = FUNCTIONS[fid], random.Random(fid)
    lo, hi = fn.radius
    r_lo, r_hi = math.log(max(lo, 1e-3) / 4), math.log(min(hi, 1e6) * 4)
    s_lo, s_hi = (1.5 * b for b in fn.order or (0.0, 0.0))
    counts = [0, 0]
    for _ in range(3000):
        size = math.exp(rng.uniform(r_lo, r_hi))
        if hi < math.inf and rng.random() < 0.1:
            size = hi * rng.choice((1 - STEP, 1 + STEP))
        angle = (rng.choice((-0.5, 0.0, 0.5, 1.0)) if rng.random() < 0.4
                 else 1.0 - 2.0 * rng.random()) * math.pi
        x = size * cmath.exp(1j * angle) if rng.random() < 0.99 else 0j
        s = rng.uniform(s_lo, s_hi)
        inside = _inside(fid, x, s)
        counts[inside] += 1
        if inside:
            got = fn.check(x, s)
            assert got == (x.real if fn.arg == REAL else x)
            assert isinstance(got, float if fn.arg == REAL else complex)
        else:
            with pytest.raises(DomainError) as err:
                fn.check(x, s)
            assert fn.name in str(err.value)
    assert min(counts) > 100, counts


@pytest.mark.parametrize("x, text", [
    (complex(math.nan, 1.0), "a finite x, not x = (nan+1j)"),
    (complex(1.0, math.inf), "a finite x, not x = (1+infj)"),
    (0j, "x != 0, not x = 0j"),
    (-2.0 + 1e-13j, "x off its cut arg x = -pi, not x = (-2+1e-13j)"),
])
def test_check_names_the_evaluator_x_and_the_bound(x, text):
    with pytest.raises(DomainError) as err:
        FUNCTIONS["ei-left"].check(x)
    assert str(err.value) == "ei_left requires " + text


@pytest.mark.parametrize("fid", [f for f in FUNCTIONS if FUNCTIONS[f].order])
def test_order_bounds_are_the_evaluators(fid):
    fn = FUNCTIONS[fid]
    for bound in fn.order:
        fn.evaluate(2.0 + 0j, TOL, bound * (1 - STEP))
        _raises(fn, 2.0 + 0j, bound * (1 + STEP), bound)


@pytest.mark.parametrize("fid", FUNCTIONS)
def test_arg_bounds_are_the_evaluators(fid):
    fn = FUNCTIONS[fid]
    lo, hi = fn.arg
    if (lo, hi) == REAL:
        # the evaluator's check refuses complex x, through the table or not
        with pytest.raises(DomainError, match="takes real x only"):
            fn.evaluate(2.0 + 0.5j, TOL, S)
        evaluator = getattr(importlib.import_module(f"dyafact.{fn.module}"), fn.name)
        with pytest.raises(DomainError, match="real x"):
            evaluator(*(S,) * bool(fn.order), 2.0 + 0.5j, TOL)
        return
    for angle in (lo + STEP, hi - STEP):
        fn.evaluate(2.0 * cmath.exp(1j * angle), TOL, S)
    # outside: across the half-plane's edge, or on the one cut of a plane
    outside = [lo] if hi - lo == 2.0 * math.pi else [lo - STEP, hi + STEP]
    for angle in outside:
        with pytest.raises(DomainError):
            fn.evaluate(2.0 * cmath.exp(1j * angle), TOL, S)


@pytest.mark.parametrize("fid", FUNCTIONS)
def test_tol_range_is_the_planners(fid):
    # the caller's tol, checked once by dyadic.run: incomplete gamma and erfc
    # plan a tol scaled by the series' size, but take the same caller's range
    fn = FUNCTIONS[fid]
    lo, hi = TOL_RANGE
    for x in (2.0, 0.1):
        if abs(x) < fn.radius[0]:
            continue
        for tol in (lo, hi, 50.0 * hi):
            with pytest.raises(DomainError, match=re.escape("must lie in (1e-14, 1e-1)")):
                fn.evaluate(complex(x), tol, S)
        for tol in (lo * (1 + STEP), hi * (1 - STEP)):
            fn.evaluate(complex(x), tol, S)
    with pytest.raises(DomainError, match=re.escape("tolerance must lie in (1e-14, 1e-1)")):
        check_tol(hi, "tolerance")


# one call on each path of the seven evaluators: (id, x, s)
PATHS = {
    "ei-stokes above the axis": ("ei-stokes", 2.0 + 1.0j, None),
    "ei-stokes below the axis": ("ei-stokes", 2.0 - 1.0j, None),
    "ei-left series": ("ei-left", 0.1 + 0.05j, None),
    "ei-left plane": ("ei-left", 2.0 - 1.0j, None),
    "ei-left reflection": ("ei-left", -2.0 + 1.0j, None),
    "psi": ("psi", 1.5 + 0.5j, None),
    "inc-gamma direct": ("inc-gamma", 2.0 + 0j, 0.25),
    "inc-gamma s - 1": ("inc-gamma", 2.0 + 0j, 0.9),      # s above about 0.85
    "erfc": ("erfc", 2.0 + 0j, None),
    "airy": ("airy", 2.0 + 0j, None),
    "bessel-k direct": ("bessel-k", 2.0 + 0j, 0.7),
    "bessel-k half-integer": ("bessel-k", 2.0 + 0j, 0.5),
    "bessel-k recurrence": ("bessel-k", 2.0 + 0j, 2.7),
}


# the families each path plans: none for the series at 0 and the closed
# form, the two seed orders for the recurrence
WALKS = {"ei-left series": 0, "bessel-k half-integer": 0, "bessel-k recurrence": 2}


@pytest.mark.parametrize("path", PATHS)
def test_one_check_and_one_result_per_call(path, monkeypatch):
    # a composed id runs the paths it is built from, not their evaluators,
    # no path checks the tol that dyadic.run has checked, and a planned
    # family's terms are walked once
    from dyafact import borel, dyadic, specfun
    from dyafact.dyadic import EvalResult
    fid, x, s = PATHS[path]
    calls = {"check": 0, "check_tol": 0, "result": 0, "walk": 0}
    check, init, walk = functions.Function.check, EvalResult.__init__, dyadic._walk

    def counted_check(self, *args):
        calls["check"] += 1
        return check(self, *args)

    def counted_check_tol(*args):
        calls["check_tol"] += 1
        return check_tol(*args)

    def counted_init(self, *args):
        calls["result"] += 1
        init(self, *args)

    def counted_walk(*args, **kwargs):
        calls["walk"] += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(functions.Function, "check", counted_check)
    monkeypatch.setattr(EvalResult, "__init__", counted_init)
    monkeypatch.setattr(dyadic, "_walk", counted_walk)
    for module in (functions, dyadic, specfun, borel):
        if hasattr(module, "check_tol"):
            monkeypatch.setattr(module, "check_tol", counted_check_tol)
    FUNCTIONS[fid].evaluate(x, 1e-9, s)
    assert calls == {"check": 1, "check_tol": 1, "result": 1, "walk": WALKS.get(path, 1)}


def _number(v):
    return f"{v:.4g}".replace("e+", "e")


def _angle(v):
    f = Fraction(v / math.pi).limit_denominator(4)
    head = {1: "", -1: "-"}.get(f.numerator, str(f.numerator))
    return f"{head}π" + (f"/{f.denominator}" if f.denominator > 1 else "")


def _domain_row(fn):
    """The start of the README table row of ``fn``, as the table states it."""
    lo, hi = fn.radius
    r = "x" if fn.arg == REAL else "|x|"
    if hi < math.inf:
        radius = f"{_number(lo) if lo else 0} {'<=' if lo else '<'} {r} <= {_number(hi)}"
    else:
        radius = f"{r} >= {_number(lo)}" if lo else f"{r} > 0"
    arg = "real" if fn.arg == REAL else f"{_angle(fn.arg[0])} < arg x < {_angle(fn.arg[1])}"
    order = f"{_number(fn.order[0])} to {_number(fn.order[1])}" if fn.order else "none"
    cells = [f"`{fn.id}`", f"`{fn.name}`", radius, arg, order,
             "relative" if fn.relative else "absolute"]
    return "| " + " | ".join(c.replace("|x|", r"\|x\|") for c in cells) + " |"


@pytest.mark.parametrize("fid", FUNCTIONS)
def test_readme_states_the_domains_of_the_table(fid):
    # each row may go on with a notes column
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [line for line in readme.splitlines() if line.startswith(_domain_row(FUNCTIONS[fid]))]
    assert f"tol in {functions._TOL_TEXT}" in readme


def test_reading_the_table_loads_no_evaluator_or_oracle():
    code = ("import sys\nfrom dyafact.functions import FUNCTIONS\n"
            "[(f.radius, f.arg, f.order, f.relative) for f in FUNCTIONS.values()]\n"
            "print(repr(sorted(m for m in sys.modules if m.startswith('dyafact'))))\n")
    src = str(pathlib.Path(functions.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert loaded == ["dyafact", "dyafact.functions", "dyafact.scalar"]
