"""Command-line front end: evaluate the dyadic expansions on grids,
print truncation plans, emit figure-reproduction datasets and run the
dyadic / classical / asymptotic comparisons.

Output is data (CSV or JSON), never plots; figures are reproduced as
plot-ready files.  Exit codes: 0 success, 2 domain error, 3
nonconvergence, 4 I/O error.

Each command imports the modules it uses when it runs: a cold ``eval``
of an Ei, digamma, erfc or incomplete-gamma grid loads ``specfun`` and
one of Airy or Bessel-K loads ``borel`` (each with the ``dyadic`` core),
only ``--with-oracle``, ``figure`` and ``compare`` load ``oracle``, only
``operator`` loads ``operators`` and only ``--format json`` loads ``json``.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .functions import FUNCTIONS, Function, check_tol
from .scalar import (DomainError, NonconvergenceError, PoleError, QuadratureError,
                     factorial_series_eval)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NONCONV = 3
EXIT_IO = 4


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_rows(header: Sequence[str], rows: Sequence[Sequence[float]],
                fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        import json
        text = json.dumps({"columns": list(header),
                           "rows": [[float(v) for v in row] for row in rows]},
                          indent=1) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOError(str(exc))


def _grid(args: argparse.Namespace) -> Tuple[Function, np.ndarray]:
    """The entry of ``--function`` and the grid of the other options."""
    fn = FUNCTIONS.get(args.function)
    if fn is None:
        raise DomainError(f"unknown function id: {args.function}")
    if args.points < 1:
        raise DomainError("points must be >= 1")
    check_tol(args.tol, "tolerance")
    stop = args.x_start if args.x_stop is None else args.x_stop
    if not all(map(math.isfinite, (args.x_start, stop, args.ray_angle))):
        raise DomainError("x-start, x-stop and ray-angle must be finite")
    ray = cmath.exp(1j * math.radians(args.ray_angle))
    return fn, np.linspace(args.x_start, stop, args.points) * ray


def cmd_eval(args: argparse.Namespace) -> int:
    fn, grid = _grid(args)
    header = ["x_re", "x_im", "value_re", "value_im", "error_estimate", "terms_total"]
    if args.with_oracle:
        header += ["oracle_re", "oracle_im", "abs_error"]
    rows: List[List[float]] = []
    for x in grid:
        x = complex(x)
        try:
            r = fn.evaluate(x, args.tol, args.s)
        except (DomainError, PoleError) as exc:
            sys.stderr.write(f"domain error at x = {x}: {exc}\n")
            return EXIT_DOMAIN
        row = [x.real, x.imag, r.value.real, r.value.imag,
               r.error_estimate, float(r.terms_total)]
        if args.with_oracle:
            ref = complex(fn.reference(x, args.s))
            row += [ref.real, ref.imag, abs(complex(r.value) - ref)]
        rows.append(row)
    _write_rows(header, rows, args.format, args.out)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    fn, grid = _grid(args)
    for x in grid:
        try:
            plan = fn.evaluate(complex(x), args.tol, args.s).plan
        except (DomainError, PoleError) as exc:
            sys.stderr.write(f"domain error at x = {x}: {exc}\n")
            return EXIT_DOMAIN
        sys.stdout.write(
            f"x = {complex(x):.6g}  K = {plan.K}  steps = {plan.steps}  "
            f"terms_total = {plan.terms_total}\n"
            f"  n_terms = {plan.n_terms}\n"
            f"  predicted_error = {plan.predicted_error:.3e}\n"
        )
    return EXIT_OK


def cmd_figure(figure_id: str, fmt: str, out: Optional[str]) -> int:
    from . import borel, oracle, specfun
    if figure_id == "fig-terms":
        # term magnitudes m = 1..30 of the first five Stokes-expansion
        # series at x = 5, as the planner sees them
        fam = specfun.ei_stokes_family(5.0)
        i = np.arange(1, 30)
        r = np.abs(fam.table[:5, 1:30]) / np.abs(fam.shift[:5, None] + i)
        t = fam.size[:5, None] * np.hstack([np.ones((5, 1)), np.cumprod(r, axis=1)])
        rows = np.column_stack([np.arange(1.0, 31.0), t.T])
        _write_rows(["m", "series0", "series1", "series2", "series3", "series4"],
                    rows, fmt, out)
        return EXIT_OK
    if figure_id == "fig-errors":
        rows = []
        for x in np.linspace(1.0, 14.0, 100):
            r = specfun.ei_stokes(complex(x), 1e-8)
            ref = oracle.ei_plus_reference(complex(x))
            rows.append([x, abs(r.value - ref), r.error_estimate, float(r.terms_total)])
        _write_rows(["x", "abs_error", "error_estimate", "terms_total"], rows, fmt, out)
        return EXIT_OK
    if figure_id == "fig-stokes":
        rows = []
        for t in np.linspace(1.0, 10.0, 181):
            left = specfun.ei_stokes(complex(-0.3, -t), 2e-4)
            right = specfun.ei_stokes(complex(0.3, -t), 2e-4)
            rows.append([t, left.value.imag, right.value.imag])
        _write_rows(["t", "im_left", "im_right"], rows, fmt, out)
        return EXIT_OK
    if figure_id == "fig-airy":
        rows = []
        for x in np.linspace(2.0, 20.0, 37):
            r = borel.airy_from_h(float(x), 1e-10)
            ref = oracle.airy_reference(float(x))
            rows.append([x, r.value.real, ref, abs(r.value.real - ref) / abs(ref),
                         float(r.terms_total)])
        _write_rows(["x", "ai", "oracle", "rel_error", "terms_total"], rows, fmt, out)
        return EXIT_OK
    sys.stderr.write(f"unknown figure id: {figure_id}\n")
    return EXIT_DOMAIN


def _classical_ei_left_terms(x: float, tol: float, ref: float) -> Optional[int]:
    """Terms of the classical (half-plane) factorial series of e^x E_1(x)
    needed for ``tol`` relative accuracy, or None past
    ``specfun.EI_LEFT_CLASSICAL_TERMS`` terms."""
    from . import specfun
    stream = specfun.ei_left_classical_stream()
    for n in range(1, specfun.EI_LEFT_CLASSICAL_TERMS):
        try:
            val = -factorial_series_eval(stream, x, n)
        except DomainError:     # (x)_n overflows, and so does every later one
            return None
        if abs(val - ref) <= tol * abs(ref):
            return n
    return None


def cmd_compare(function: str, x: float, tol: float) -> int:
    if function not in ("ei-left", "ei-stokes"):
        sys.stderr.write("compare supports: ei-left, ei-stokes\n")
        return EXIT_DOMAIN
    FUNCTIONS[function].check(x)
    check_tol(tol, "tolerance")
    from . import oracle, specfun
    if function == "ei-stokes":
        sys.stdout.write(
            "function: ei-stokes on R^+\n"
            "classical factorial series: divergent / no half-plane; the Borel\n"
            "kernel is singular on the Laplace ray, so no classical factorial\n"
            "series converges there and only the dyadic expansion applies.\n"
        )
        r = specfun.ei_stokes(complex(x), tol)
        ref = FUNCTIONS[function].reference(complex(x))
        sys.stdout.write(f"dyadic terms: {r.terms_total} (measured error {abs(r.value - ref):.2e})\n")
        return EXIT_OK
    ref = complex(oracle.ei_left_reference(x, 1e-13))
    r = specfun.ei_left(complex(x), tol)
    classical = _classical_ei_left_terms(x, tol, ref.real) or f">{specfun.EI_LEFT_CLASSICAL_TERMS}"
    # optimally truncated asymptotic series: -sum (-1)^n n! / x^{n+1}, up to
    # the first term below rounding of the partial sum
    best_err, best_n, term, partial = math.inf, 0, 1.0 / x, 0.0
    for n in range(0, 3 * int(x) + 12):
        partial += (-1) ** n * term
        err = abs(-partial - ref.real)
        if err < best_err:
            best_err, best_n = err, n + 1
        term *= (n + 1) / x
        if term < 1e-17 * abs(partial):
            break
    sys.stdout.write(
        f"function: ei-left at x = {x}, tol = {tol:g}\n"
        f"dyadic factorial expansion: {r.terms_total} terms "
        f"(measured error {abs(r.value - ref):.2e})\n"
        f"classical factorial series: "
        f"{classical} terms\n"
        f"asymptotic series (optimal truncation): {best_n} terms, "
        f"error floor {best_err:.2e} (~ e^-x scale {math.exp(-x):.2e})\n"
    )
    return EXIT_OK


def cmd_operator(matrix_path: str, mode: str, lam: float, s: float, levels: int) -> int:
    from . import operators
    try:
        with open(matrix_path) as fh:
            a = operators.read_matrix_text(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read matrix: {exc}\n")
        return EXIT_IO
    try:
        op = operators.HermitianOperator.from_matrix(a)
    except DomainError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_DOMAIN
    try:
        if mode == "resolvent":
            rng = np.random.default_rng(7)
            v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            v /= np.linalg.norm(v)
            _, report = operators.resolvent_dyadic(op, lam, levels, v)
        elif mode == "inverse":
            _, report = operators.inverse_dyadic(op, levels)
        elif mode == "power":
            _, report = operators.fractional_power_dyadic(op, s, levels)
        else:
            sys.stderr.write(f"unknown operator mode: {mode}\n")
            return EXIT_DOMAIN
    except DomainError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_DOMAIN
    for k, err in report.error_curve:
        sys.stdout.write(f"K = {k:3d}  error = {err:.6e}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dyafact",
        description="Dyadic factorial expansions: evaluators, plans, figures, comparisons.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_grid(p):
        p.add_argument("--function", required=True,
                       help=" | ".join(FUNCTIONS))
        p.add_argument("--x-start", type=float, default=1.0)
        p.add_argument("--x-stop", type=float, default=None)
        p.add_argument("--points", type=int, default=1)
        p.add_argument("--ray-angle", type=float, default=0.0, help="grid ray angle, degrees")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--with-oracle", action="store_true")
        p.add_argument("--s", type=float, default=0.5,
                       help="order parameter (inc-gamma exponent / bessel-k order)")

    pe = sub.add_parser("eval", help="evaluate a function over a grid")
    add_grid(pe)
    pp = sub.add_parser("plan", help="print truncation plans over a grid")
    add_grid(pp)
    pf = sub.add_parser("figure", help="emit a figure-reproduction dataset")
    pf.add_argument("id", choices=("fig-terms", "fig-errors", "fig-stokes", "fig-airy"))
    pf.add_argument("--format", choices=("csv", "json"), default="csv")
    pf.add_argument("--out", default=None)
    pc = sub.add_parser("compare", help="dyadic vs classical vs asymptotic term counts")
    pc.add_argument("--function", required=True)
    pc.add_argument("--x-start", type=float, required=True, dest="x_start")
    pc.add_argument("--tol", type=float, default=1e-8)
    po = sub.add_parser("operator", help="dyadic operator identities on a matrix file")
    po.add_argument("--matrix", required=True)
    po.add_argument("--mode", choices=("resolvent", "inverse", "power"), default="resolvent")
    po.add_argument("--lambda", dest="lam", type=float, default=1.0)
    po.add_argument("--s", type=float, default=0.5)
    po.add_argument("--levels", type=int, default=40)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd in ("eval", "plan"):
            return cmd_eval(args) if args.cmd == "eval" else cmd_plan(args)
        if args.cmd == "figure":
            return cmd_figure(args.id, args.format, args.out)
        if args.cmd == "compare":
            return cmd_compare(args.function, args.x_start, args.tol)
        if args.cmd == "operator":
            return cmd_operator(args.matrix, args.mode, args.lam, args.s, args.levels)
    except (DomainError, PoleError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except (NonconvergenceError, QuadratureError) as exc:
        sys.stderr.write(f"nonconvergence: {exc}\n")
        return EXIT_NONCONV
    except IOError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
