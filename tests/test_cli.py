import ast
import cmath
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from dyafact import cli, operators
from dyafact.functions import FUNCTIONS


def run(argv):
    return cli.main(argv)


class TestEval:
    def test_psi_row(self, tmp_path, capsys):
        out = tmp_path / "psi.csv"
        rc = run(["eval", "--function", "psi", "--x-start", "1", "--points", "1",
                  "--tol", "1e-9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x_re,x_im,value_re,value_im,error_estimate,terms_total")
        assert "0.4227843351" in lines[1][:40] or "0.42278433" in lines[1]

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["eval", "--function", "ei-left", "--x-start", "1", "--x-stop", "4",
                "--points", "7", "--tol", "1e-8"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "o.json"
        rc = run(["eval", "--function", "erfc", "--x-start", "1", "--points", "2",
                  "--x-stop", "2", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "x_re"
        assert len(doc["rows"]) == 2

    def test_with_oracle_column(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = run(["eval", "--function", "ei-stokes", "--x-start", "2", "--x-stop", "6",
                  "--points", "3", "--tol", "1e-8", "--with-oracle", "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape[1] == 9
        assert rows[:, 8].max() < 3e-8

    def test_ei_left_oracle_in_the_left_half_plane(self, tmp_path):
        # the Laplace integral of e^x Ei(-x) diverges for Re x < 0, so the
        # oracle column comes from the entire series there
        out = tmp_path / "left.csv"
        rc = run(["eval", "--function", "ei-left", "--x-start", "1", "--x-stop", "20",
                  "--points", "5", "--ray-angle", "170", "--tol", "1e-9", "--with-oracle",
                  "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 0].max() < 0 and rows[:, 8].max() <= 1e-9

    def test_ei_left_oracle_near_the_imaginary_axis(self, tmp_path):
        # there the entire series would cancel e^{|x|} digits; the oracle
        # integrates along the ray through conj x instead
        out = tmp_path / "left.csv"
        rc = run(["eval", "--function", "ei-left", "--x-start", "1", "--x-stop", "40",
                  "--points", "5", "--ray-angle", "95", "--tol", "1e-9", "--with-oracle",
                  "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 8].max() <= 1e-9

    def test_domain_error_exit_code(self):
        # ray pointing into the negative-imaginary cut
        rc = run(["eval", "--function", "ei-stokes", "--x-start", "1", "--x-stop", "3",
                  "--points", "2", "--ray-angle", "-90", "--tol", "1e-6"])
        assert rc == 2

    def test_non_finite_grid_is_a_domain_error(self, capsys):
        # rejected before any planning, with a message that names the cause
        grids = (["--x-start", "nan"], ["--x-start", "inf"],
                 ["--x-start", "1", "--x-stop=-inf", "--points", "3"],
                 ["--x-start", "1", "--ray-angle", "nan"])
        for cmd, fn in (("eval", "ei-stokes"), ("eval", "inc-gamma"), ("plan", "ei-left")):
            for grid in grids:
                assert run([cmd, "--function", fn] + grid) == 2
                assert "finite" in capsys.readouterr().err

    def test_non_finite_order_is_a_domain_error(self, capsys):
        for fn in ("inc-gamma", "bessel-k"):
            for s in ("nan", "inf", "-inf"):
                assert run(["eval", "--function", fn, f"--s={s}", "--x-start", "2"]) == 2
                assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["eval", "plan"])
    @pytest.mark.parametrize("fn", ["erfc", "airy", "bessel-k"])
    def test_real_x_functions_reject_complex_x(self, cmd, fn, capsys):
        # evaluating Re x would print its row under the complex x, and the
        # oracle, also given Re x, would agree with it
        assert run([cmd, "--function", fn, "--s", "0.7", "--x-start", "2",
                    "--ray-angle", "30", "--with-oracle"]) == 2
        out = capsys.readouterr()
        assert "real x only" in out.err and out.out == ""

    def test_bessel_k_recurrence_at_an_underflowing_argument(self, capsys):
        # K_2.7(800) and both its seeds are below the smallest double
        assert run(["eval", "--function", "bessel-k", "--s", "2.7", "--x-start", "800"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == 0.0 and float(row[4]) > 0.0

    @pytest.mark.parametrize("fn, x", [("airy", "3e4"), ("bessel-k", "3e6")])
    def test_oracle_at_an_underflowing_argument(self, fn, x, capsys):
        # the Bessel-K quadrature behind both oracles converges where its
        # value underflows to 0, as the evaluator's does
        assert run(["eval", "--function", fn, "--x-start", x, "--with-oracle"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == float(row[6]) == float(row[8]) == 0.0

    def test_unknown_function(self):
        rc = run(["eval", "--function", "zeta", "--x-start", "1", "--points", "1"])
        assert rc == 2

    def test_an_oracle_that_does_not_converge_exits_3(self, monkeypatch, capsys):
        from dyafact import oracle

        def fails(x):
            raise oracle.NonconvergenceError("integrand does not decay")

        monkeypatch.setattr(oracle, "psi_reference", fails)
        rc = run(["eval", "--function", "psi", "--x-start", "2", "--with-oracle"])
        assert rc == cli.EXIT_NONCONV == 3
        out = capsys.readouterr()
        assert out.out == "" and "nonconvergence: integrand does not decay" in out.err

    def test_a_coefficient_build_that_does_not_converge_exits_3(self, monkeypatch, capsys):
        from dyafact import _gauss, borel

        def fails(nu, M, K):
            raise _gauss.QuadratureError("level 3 did not converge")

        # every evaluation reads its table through borel._table, cached or not
        monkeypatch.setattr(borel, "_table", fails)
        rc = run(["eval", "--function", "bessel-k", "--s", "0.7", "--x-start", "2"])
        assert rc == cli.EXIT_NONCONV == 3
        out = capsys.readouterr()
        assert out.out == "" and "nonconvergence: level 3 did not converge" in out.err

    def test_a_kernel_series_that_does_not_converge_exits_3(self, monkeypatch, capsys):
        import functools

        from dyafact import borel

        # a fresh table cache, so the kernel is built again, with too few
        # series terms for any step to converge
        monkeypatch.setattr(borel, "_table", functools.cache(borel._table.__wrapped__))
        monkeypatch.setattr(borel, "_SERIES_TERMS", 2)
        rc = run(["eval", "--function", "airy", "--x-start", "2"])
        assert rc == cli.EXIT_NONCONV == 3
        out = capsys.readouterr()
        assert out.out == "" and "nonconvergence: kernel series did not converge" in out.err


class TestPlan:
    def test_plan_prints(self, capsys):
        rc = run(["plan", "--function", "ei-stokes", "--x-start", "5", "--points", "1",
                  "--tol", "1e-5"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "n_terms" in text and "predicted_error" in text

    @pytest.mark.parametrize("fn, steps", [("ei-stokes", 0), ("ei-left", 4), ("psi", 4)])
    def test_plan_prints_the_richardson_steps(self, fn, steps, capsys):
        assert run(["plan", "--function", fn, "--x-start", "5", "--points", "1"]) == 0
        assert f"steps = {steps} " in capsys.readouterr().out

    @pytest.mark.parametrize("fn, angle", [("ei-stokes", -60.0), ("ei-left", 170.0), ("psi", 0.0),
                                           ("erfc", 0.0), ("inc-gamma", 0.0), ("airy", 0.0),
                                           ("bessel-k", 0.0)])
    def test_plan_is_the_executed_plan(self, fn, angle, capsys):
        # below the real axis ei_stokes plans at conj x, and ei_left in the
        # left half-plane plans the Stokes family at -x
        assert run(["plan", "--function", fn, "--x-start", "3", "--points", "1",
                    "--ray-angle", str(angle), "--tol", "1e-8"]) == 0
        x = 3.0 * cmath.exp(1j * math.radians(angle))
        plan = FUNCTIONS[fn].evaluate(x, 1e-8, 0.5).plan
        assert f"  n_terms = {plan.n_terms}\n" in capsys.readouterr().out

    def test_plan_at_origin_is_a_domain_error(self):
        for fn in ("ei-stokes", "ei-left", "psi"):
            assert run(["plan", "--function", fn, "--x-start", "0", "--points", "1"]) == 2


class TestFigures:
    def test_fig_terms(self, tmp_path):
        out = tmp_path / "terms.csv"
        assert run(["figure", "fig-terms", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (30, 6)
        # series-0 term magnitude at m = 10 is well below 1e-3 at x = 5
        assert rows[9, 1] < 1e-3

    def test_fig_stokes_dichotomy(self, tmp_path):
        out = tmp_path / "stokes.csv"
        assert run(["figure", "fig-stokes", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        t, im_left, im_right = rows[:, 0], rows[:, 1], rows[:, 2]
        assert t[0] == 1.0 and t[-1] == 10.0
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(im_right))) > 0))
        assert sign_changes >= 3
        mags = np.abs(im_left)
        assert all(mags[i + 1] <= mags[i] * 1.05 for i in range(len(mags) - 1))

    def test_fig_errors_smoke(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run(["figure", "fig-errors", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape[1] == 4 and rows[:, 1].max() < 3e-8


class TestCompare:
    def test_ei_left_report(self, capsys):
        rc = run(["compare", "--function", "ei-left", "--x-start", "5", "--tol", "1e-8"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "dyadic factorial expansion" in text
        assert "classical factorial series" in text
        assert "asymptotic series" in text

    def test_ei_stokes_notes_divergence(self, capsys):
        rc = run(["compare", "--function", "ei-stokes", "--x-start", "5", "--tol", "1e-6"])
        assert rc == 0
        assert "divergent / no half-plane" in capsys.readouterr().out

    def test_unsupported(self):
        assert run(["compare", "--function", "psi", "--x-start", "2"]) == 2

    @pytest.mark.parametrize("fn, x", [("ei-left", "0"), ("ei-left", "-1"), ("ei-left", "nan"),
                                       ("ei-stokes", "0.1")])
    def test_x_outside_the_region_exits_2_before_any_output(self, fn, x, capsys):
        # the id's region is checked before the report or the oracle starts
        assert run(["compare", "--function", fn, "--x-start", x]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"{FUNCTIONS[fn].name} requires" in out.err

    def test_ei_left_at_large_x(self, capsys):
        # the asymptotic series stops at its first term below rounding, and
        # the oracle holds its accuracy (it read 0, an error of the whole
        # value 1e-7): x = 1e7 takes well under a second
        start = time.perf_counter()
        assert run(["compare", "--function", "ei-left", "--x-start", "1e7", "--tol", "1e-8"]) == 0
        assert time.perf_counter() - start < 5.0
        text = capsys.readouterr().out
        assert float(re.search(r"measured error ([^)]+)\)", text).group(1)) <= 1e-8


class TestOperator:
    def _write_matrix(self, path, a):
        with open(path, "w") as fh:
            operators.write_matrix_text(a, fh)

    def test_resolvent_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = (a + a.conj().T) / 2
        mpath = tmp_path / "m.txt"
        self._write_matrix(mpath, a)
        rc = run(["operator", "--matrix", str(mpath), "--mode", "resolvent",
                  "--lambda", "1.0", "--levels", "40"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        final = float(lines[-1].split("=")[-1])
        assert final <= 1e-6

    def test_inverse_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (q * np.linspace(0.5, 8.0, 8)) @ q.T
        mpath = tmp_path / "spd.txt"
        self._write_matrix(mpath, (a + a.T) / 2)
        rc = run(["operator", "--matrix", str(mpath), "--mode", "inverse", "--levels", "36"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        errs = [float(l.split("=")[-1]) for l in lines]
        assert errs[-1] < 1e-9

    def test_power_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = (q * np.linspace(0.5, 4.0, 6)) @ q.T
        mpath = tmp_path / "spd.txt"
        self._write_matrix(mpath, (a + a.T) / 2)
        rc = run(["operator", "--matrix", str(mpath), "--mode", "power",
                  "--s", "0.5", "--levels", "60"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[-1].split("=")[-1]) <= 1e-6

    def test_rejects_a_non_finite_lambda_or_order(self, tmp_path, capsys):
        mpath = tmp_path / "spd.txt"
        self._write_matrix(mpath, np.diag([0.5, 1.0, 2.0]).astype(complex))
        for args in (["--mode", "resolvent", "--lambda", "nan"],
                     ["--mode", "resolvent", "--lambda", "inf"],
                     ["--mode", "power", "--s", "nan"]):
            assert run(["operator", "--matrix", str(mpath)] + args) == 2
            out = capsys.readouterr()
            assert out.out == "" and "finite" in out.err

    def test_rejects_non_hermitian(self, tmp_path):
        mpath = tmp_path / "bad.txt"
        self._write_matrix(mpath, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert run(["operator", "--matrix", str(mpath)]) == 2

    def test_rejects_non_finite_entry(self, tmp_path, capsys):
        mpath = tmp_path / "nan.txt"
        self._write_matrix(mpath, np.diag([1.0, math.nan, 2.0]).astype(complex))
        assert run(["operator", "--matrix", str(mpath), "--mode", "inverse"]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_file(self):
        assert run(["operator", "--matrix", "/nonexistent/m.txt"]) == 4


class TestColdLoads:
    """What a cold command loads: each case runs ``cli.main`` in a fresh
    interpreter and reads the watched modules off its ``sys.modules``."""

    WATCHED = ("dyafact.specfun", "dyafact.borel", "dyafact.operators", "dyafact.oracle",
               "numpy.polynomial", "json")

    def _loaded(self, argv):
        code = ("import sys\nfrom dyafact import cli\n"
                f"rc = cli.main({argv!r})\n"
                f"print(repr((rc, [m for m in {self.WATCHED!r} if m in sys.modules])))\n")
        src = str(pathlib.Path(cli.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        return ast.literal_eval(proc.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("fn", ["psi", "ei-stokes"])
    def test_a_specfun_grid_loads_specfun_alone(self, fn):
        rc, loaded = self._loaded(["eval", "--function", fn, "--x-start", "1", "--x-stop", "8",
                                   "--points", "4", "--tol", "1e-10"])
        assert (rc, loaded) == (0, ["dyafact.specfun"])

    @pytest.mark.parametrize("fn", ["airy", "bessel-k"])
    def test_a_borel_grid_loads_no_specfun_operators_or_oracle(self, fn):
        rc, loaded = self._loaded(["eval", "--function", fn, "--s", "0.7", "--x-start", "1",
                                   "--x-stop", "8", "--points", "4", "--tol", "1e-10"])
        assert rc == 0 and "dyafact.borel" in loaded
        # the coefficient table's Gauss rule is a constant: no numpy.polynomial
        assert not {"dyafact.specfun", "dyafact.operators", "dyafact.oracle",
                    "numpy.polynomial"} & set(loaded)

    def test_an_incomplete_gamma_grid_loads_specfun_alone(self):
        # its order's coefficient rows come from the same constant rule
        rc, loaded = self._loaded(["eval", "--function", "inc-gamma", "--s", "0.3", "--x-start",
                                   "0.5", "--x-stop", "8", "--points", "4", "--tol", "1e-10"])
        assert (rc, loaded) == (0, ["dyafact.specfun"])

    def test_with_oracle_loads_the_oracle(self):
        rc, loaded = self._loaded(["eval", "--function", "psi", "--x-start", "2",
                                   "--points", "2", "--x-stop", "3", "--with-oracle"])
        assert rc == 0 and loaded == ["dyafact.specfun", "dyafact.oracle"]

    def test_json_format_loads_json(self):
        rc, loaded = self._loaded(["eval", "--function", "psi", "--x-start", "2",
                                   "--format", "json"])
        assert rc == 0 and loaded == ["dyafact.specfun", "json"]

    def test_operator_loads_the_operators(self, tmp_path):
        mpath = tmp_path / "spd.txt"
        with open(mpath, "w") as fh:
            operators.write_matrix_text(np.diag([0.5, 1.0, 2.0]).astype(complex), fh)
        rc, loaded = self._loaded(["operator", "--matrix", str(mpath), "--mode", "inverse",
                                   "--levels", "20"])
        assert (rc, loaded) == (0, ["dyafact.operators"])
