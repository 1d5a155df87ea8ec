"""The timed process: imports the program, builds its inputs from the seed,
warms the caches, then runs whole rounds of ops for the requested time and
writes every output and time as one JSON object on stdout.

It imports only what the program imports (numpy, and dyafact itself)
plus the benchmark's own numpy-only modules; the checks run in the parent.

  python3 perfbench/worker.py --workload W --seed N --seconds S \
      --role setup|timed|traced --t0 <time.monotonic() of the parent at spawn>

``setup`` stops after set-up; ``traced`` runs untraced rounds, then the
same number of rounds with spans around the program's names.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib
import clirun
import workloads

HERE = Path(__file__).resolve().parent
SETUP_CALIBRATIONS = 3
# A run makes at least this many rounds, so that each input's median time
# is not set by one burst of contention.
MIN_ROUNDS = 3


class SetupClock:
    """Calibration samples taken during set-up, and the time they took,
    which is not set-up time."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def sample(self, n: int = 1) -> None:
        t = time.monotonic()
        self.samples += [calib.calibration_s() for _ in range(n)]
        self.spent += time.monotonic() - t


class PointOps:
    def __init__(self, items: list):
        from dyafact import borel, specfun
        self.specfun, self.borel = specfun, borel
        self.items = items

    def call(self, i: int):
        it = self.items[i]
        fn, x, tol = it["fn"], complex(*it["x"]), it["tol"]
        sf, bo = self.specfun, self.borel
        if fn == "ei-stokes":
            r = sf.ei_stokes(x, tol)
        elif fn == "ei-left":
            r = sf.ei_left(x, tol)
        elif fn == "psi":
            r = sf.psi_dyadic(x, tol)
        elif fn == "erfc":
            r = sf.erfc_dyadic(x.real, tol)
        elif fn == "inc-gamma":
            r = sf.incomplete_gamma_dyadic(it["s"], x, tol)
        elif fn == "airy":
            r = bo.airy_from_h(x.real, tol)
        else:
            r = bo.bessel_k_dyadic(it["s"], x.real, tol)
        v = complex(r.value)
        return {"value": [v.real, v.imag], "estimate": float(r.error_estimate)}

    def warm_up(self, clock: SetupClock) -> None:
        for i in range(len(self.items)):
            try:
                self.call(i)
            except Exception:   # a failing op is reported by the timed loop
                pass
            clock.sample()


class OperatorOps:
    def __init__(self, items: list):
        from dyafact import operators
        self.operators = operators
        self.items = items
        self.matrices = [workloads.operator_matrix(it) for it in items]
        self.vectors = [workloads.operator_spectrum(it)[2] for it in items]

    def call(self, i: int):
        it, ops = self.items[i], self.operators
        op = ops.HermitianOperator.from_matrix(self.matrices[i])
        if it["mode"] == "resolvent":
            partial, _ = ops.resolvent_dyadic(op, it["lam"], it["K"], self.vectors[i])
        elif it["mode"] == "inverse":
            partial, _ = ops.inverse_dyadic(op, it["K"])
        else:
            partial, _ = ops.fractional_power_dyadic(op, it["s"], it["K"])
        p = np.asarray(partial).ravel()
        return {"re": p.real.tolist(), "im": p.imag.tolist()}

    def warm_up(self, clock: SetupClock) -> None:
        # one op of each mode at the smallest size loads every code path
        for mode in workloads.MODES:
            self.call(min((i for i, it in enumerate(self.items) if it["mode"] == mode),
                          key=lambda i: self.items[i]["n"]))
            clock.sample()


class CliOps:
    """Each op is one fresh ``dyafact eval`` process (clirun.py), which
    calibrates at its own start and end."""

    def __init__(self, items: list):
        self.items = items
        self.traced = False

    def _run(self, argv: list) -> dict:
        head = [sys.executable, str(HERE / "clirun.py")] + (["--trace"] if self.traced else [])
        p = subprocess.run(head + argv, capture_output=True, text=True, timeout=120)
        out = {"rc": p.returncode, "csv": p.stdout}
        stderr = p.stderr
        if clirun.RESULT_MARKER in stderr:
            stderr, _, text = stderr.rpartition(clirun.RESULT_MARKER)
            out.update(json.loads(text))
        out["stderr"] = stderr[-400:]
        return out

    def call(self, i: int):
        return self._run(workloads.cli_argv(self.items[i]))

    def warm_up(self, clock: SetupClock) -> None:
        # one small untimed process: file cache and bytecode are warm after it
        self._run(["eval", "--function", "ei-left", "--x-start", "1.0", "--points", "1"])


def make_ops(workload: str, items: list):
    if workload == "point-values":
        return PointOps(items)
    if workload == "operator-spectral":
        return OperatorOps(items)
    return CliOps(items)


def run_rounds(ops, seconds: float, rounds: int | None, tracer=None, min_rounds: int = MIN_ROUNDS) -> list:
    """Whole rounds over every input; stops after ``rounds`` rounds, or else
    at the first round end past ``seconds`` once ``min_rounds`` are done.

    In this process a calibration runs between every two ops, and an op's
    scale comes from the median of the three calibrations before it and
    the three after: a burst of contention that hits one calibration does
    not move it. A CLI op brings its own calibrations (clirun.py), and its
    scale is the median of those of the op and of its two neighbours."""
    records = []
    in_process = not isinstance(ops, CliOps)
    cals = [calib.calibration_s()] if in_process else []   # cals[k] runs just before op k
    start = time.monotonic()
    done = 0
    while True:
        for i in range(len(ops.items)):
            span = tracer.begin("op", {"input": i}) if tracer is not None else None
            t = time.perf_counter()
            try:
                out, error = ops.call(i), None
            except Exception as exc:   # counted as a failed op by the checker
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if span is not None:
                tracer.end(span)
            if in_process:
                cals.append(calib.calibration_s())
            elif out is not None and "calibration_s" in out:
                dt -= out["calibration_spent_s"]
            records.append({"input": i, "round": done, "raw_s": dt, "out": out, "error": error})
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done >= min_rounds and time.monotonic() - start >= seconds:
            break
    if not in_process:
        cals = [r["out"]["calibration_s"] if r["out"] and "calibration_s" in r["out"] else [] for r in records]
    for k, r in enumerate(records):
        window = cals[max(0, k - 2):k + 4] if in_process else sum(cals[max(0, k - 1):k + 2], [])
        # (empty only when CLI processes died before calibrating; they fail their checks)
        r["scale"] = calib.NOMINAL_S / float(np.median(window)) if window else 1.0
        r["scaled_s"] = r["raw_s"] * r["scale"]
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    clock = SetupClock()
    clock.sample(SETUP_CALIBRATIONS)
    t_import = time.perf_counter()
    if args.workload != "cli-cold":   # there every op imports the program itself
        import dyafact  # noqa: F401  (the whole package, as every caller loads it)
    import_s = time.perf_counter() - t_import

    # the program's own names are wrapped in this process; a traced CLI op
    # wraps them in its child instead (clirun.py --trace)
    tracer = None
    if args.role == "traced" and args.workload != "cli-cold":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    items = workloads.inputs(args.workload, args.seed)
    ops = make_ops(args.workload, items)
    ops.warm_up(clock)
    clock.sample(SETUP_CALIBRATIONS)
    setup_raw = time.monotonic() - args.t0 - clock.spent
    setup_scale = calib.NOMINAL_S / float(np.median(clock.samples))
    result = {"workload": args.workload, "seed": args.seed, "role": args.role,
              "setup_raw_s": setup_raw, "setup_s": setup_raw * setup_scale, "setup_scale": setup_scale,
              "import_s": import_s}

    if args.role == "timed":
        result["records"] = run_rounds(ops, args.seconds, None)
    elif args.role == "traced":
        if tracer is not None:
            tracer.uninstall()
        # per-layer metrics have no bound: one round each way is enough
        plain = run_rounds(ops, 0.5 * args.seconds, None, min_rounds=1)
        rounds = 1 + max(r["round"] for r in plain)
        if tracer is not None:
            tracer.install()
        else:
            ops.traced = True
        traced = run_rounds(ops, 0.0, rounds, tracer)
        result.update(records=plain, traced_records=traced)
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.export()

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF)
    result["rss_peak_mb"] = usage.ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
