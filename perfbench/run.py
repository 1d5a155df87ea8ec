"""Benchmark of dyafact: the cost of a value at stated accuracy.

  python3 perfbench/run.py --workload point-values --seed 1 --seconds 12 --trace 0

Runs the program for one workload and seed in fresh worker processes (one
at a time), checks every output against references computed apart from
the program, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``. Lines before it summarise the run; the full record goes
to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_gmean_ms": "ms", "setup_s": "s", "rss_peak_mb": "MB",
}

PER_LAYER = {
    "dyadic.plan_ms": "ms", "dyadic.plan_share": "ratio", "dyadic.levels": "count",
    "dyadic.terms": "count", "dyadic.est_over_err": "ratio", "dyadic.est_below_err": "count",
    "specfun.assemble_ms": "ms", "specfun.gamma_first_use_ms": "ms",
    "borel.assemble_ms": "ms", "borel.kernel_build_ms": "ms", "borel.kernel_builds": "count",
    "borel.table_build_ms": "ms", "borel.table_builds": "count", "borel.table_hits": "count",
    "oracle.calls_in_eval": "count", "oracle.ms_in_eval": "ms",
    "cli.import_ms": "ms", "cli.grid_ms": "ms", "cli.write_ms": "ms",
    "operators.eigh_ms": "ms", "operators.apply_scalar_ms": "ms", "operators.apply_scalar_calls": "count",
    "scalar.polylog_calls": "count", "scalar.polylog_ms": "ms", "dyadic.partial_calls": "count",
    **{f"family.{f}.p50_ms": "ms" for f in workloads.FUNCTION_IDS + workloads.MODES},
    "trace.overhead": "ratio",
}


# -- worker processes ---------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread in the timed process and in every program process it starts
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, role: str) -> dict:
    """Run one worker to its end and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    t0 = time.monotonic()
    p = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True, env=worker_env(),
                       cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"worker ({role}) exited with {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


# -- checks -----------------------------------------------------------------------


def _parse_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:6] != ["x_re", "x_im", "value_re", "value_im", "error_estimate", "terms_total"]:
        raise ValueError("unexpected CSV header")
    return [[float(v) for v in row] for row in rows[1:]]


class Checker:
    """Checks op outputs of one workload; references are computed once per
    distinct input and reused for every repetition of it."""

    def __init__(self, workload: str, items: list):
        import reference   # mpmath and scipy.linalg: loaded only here
        self.ref = reference
        self.workload, self.items = workload, items
        self._cache: dict = {}

    def _reference(self, i: int):
        if i not in self._cache:
            it, ref = self.items[i], self.ref
            if self.workload == "point-values":
                self._cache[i] = ref.scalar_reference(it["fn"], complex(*it["x"]), it.get("s"))
            elif self.workload == "cli-cold":
                self._cache[i] = [ref.scalar_reference(it["fn"], complex(x), it.get("s"))
                                  for x in workloads.cli_grid(it)]
            else:
                self._cache[i] = ref.operator_reference(it)
        return self._cache[i]

    def check(self, rec: dict) -> dict:
        """{"ok", "fault", "detail", "values": [(estimate, err), ...]} for one op."""
        i = rec["input"]
        it = self.items[i]
        if rec.get("error"):
            return {"ok": False, "fault": None, "detail": rec["error"], "values": []}
        out = rec["out"]
        if self.workload == "point-values":
            c = self.ref.check_scalar(it["fn"], it["tol"], self._reference(i), complex(*out["value"]),
                                      out["estimate"])
            return {"ok": c["ok"], "fault": classify(it, c), "detail": c, "values": [(c["estimate"], c["err"])]}
        if self.workload == "cli-cold":
            return self._check_cli(it, self._reference(i), out)
        n = it["n"]
        shape = (n,) if it["mode"] == "resolvent" else (n, n)
        partial = (np.array(out["re"]) + 1j * np.array(out["im"])).reshape(shape)
        c = self.ref.check_operator(self._reference(i), partial)
        return {"ok": c["ok"], "fault": None, "detail": c, "values": []}

    def _check_cli(self, it: dict, refs: list, out: dict) -> dict:
        if out["rc"] != 0:
            return {"ok": False, "fault": None, "detail": f"exit code {out['rc']}: {out['stderr']}", "values": []}
        try:
            rows = _parse_csv(out["csv"])
        except ValueError as exc:
            return {"ok": False, "fault": None, "detail": str(exc), "values": []}
        grid = workloads.cli_grid(it)
        if len(rows) != len(grid):
            return {"ok": False, "fault": None, "detail": f"{len(rows)} rows for {len(grid)} points", "values": []}
        bad, values = [], []
        for x, ref, row in zip(grid, refs, rows):
            if abs(complex(row[0], row[1]) - x) > 1e-12 * abs(x):
                bad.append(f"row for x = {x} has x = {row[0]} + {row[1]}i")
                continue
            c = self.ref.check_scalar(it["fn"], it["tol"], ref, complex(row[2], row[3]), row[4])
            values.append((c["estimate"], c["err"]))
            if not c["ok"]:
                bad.append(f"x = {x}: {c}")
        return {"ok": not bad, "fault": None, "detail": bad[:3], "values": values}


def classify(item: dict, check: dict):
    """The named fault of a failed output, or None when the failure is
    not the one its input is known for."""
    if check["ok"] or "fault" not in item:
        return None
    if item["fault"] == workloads.ORDER_EDGE and check["err"] > check["estimate"]:
        return item["fault"]   # the estimate was clamped below the true error
    return None


# -- end-to-end metrics -------------------------------------------------------------


def _gmean(values: list) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def per_input_medians(records: list) -> dict:
    by_input: dict = {}
    for r in records:
        by_input.setdefault(r["input"], []).append(r["scaled_s"])
    return {i: statistics.median(v) for i, v in by_input.items()}


def end_to_end(records: list, setup_s: float, rss_mb: float) -> dict:
    """ops_per_s is the rate of a round in which every input takes its
    median scaled time: a burst of contention during one long op would
    otherwise set it."""
    scaled = [r["scaled_s"] for r in records]
    medians = list(per_input_medians(records).values())
    return {
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_gmean_ms": 1e3 * _gmean(medians),
        "setup_s": setup_s,
        "rss_peak_mb": rss_mb,
    }


# -- per-layer metrics ----------------------------------------------------------------

PLAN = ("dyadic.plan_truncation", "borel._h_plan")
PARTIALS = ("dyadic.dyadic_reciprocal_partial", "dyadic.ramified_partial")
EVALUATOR_SPANS = {f"{m.split('.')[-1]}.{n}" for m, n in spans.EVALUATORS}


class Process:
    """Spans of one traced process that ran the program, each with the
    calibration scale of the op (or set-up) it fell in."""

    def __init__(self, span_list: list, op_scales: list, setup_scale: float, import_s: float,
                 one_op: bool = False):
        """``one_op``: the whole process is one op (a CLI process)."""
        self.spans = span_list
        self.import_s = import_s * setup_scale
        op_of = []
        for s in span_list:
            if one_op:
                op_of.append(0)
            elif s[0] == "op" and s[3] == -1:
                op_of.append(1 + max((o for o in op_of if o is not None), default=-1))
            else:
                op_of.append(op_of[s[3]] if s[3] >= 0 else None)
        self.op_of = op_of
        self.scale = [op_scales[o] if o is not None else setup_scale for o in op_of]

    def dur(self, i: int) -> float:
        s = self.spans[i]
        return (s[2] - s[1]) * self.scale[i]

    def named(self, names, in_ops: bool | None = None) -> list:
        return [i for i, s in enumerate(self.spans) if s[0] in names
                and (in_ops is None or (self.op_of[i] is not None) == in_ops)]

    def outermost(self, idx: list) -> list:
        """Spans of ``idx`` not nested in a span of the same name."""
        keep = []
        for i in idx:
            p, name = self.spans[i][3], self.spans[i][0]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                keep.append(i)
        return keep

    def under(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def total(self, names, in_ops: bool | None = None) -> float:
        return sum(self.dur(i) for i in self.outermost(self.named(names, in_ops)))

    def table_hits(self) -> list:
        """get_table calls answered without building a table."""
        built = set()
        for i in self.named({"borel.CoefficientTable.build"}):
            p = self.spans[i][3]
            while p >= 0:
                built.add(p)
                p = self.spans[p][3]
        return [i for i in self.named({"borel.get_table"}) if i not in built]

    def oracle_in_eval(self) -> list:
        """Outermost oracle calls made while an evaluator runs."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0].startswith("oracle.") and not (s[3] >= 0 and self.spans[s[3]][0].startswith("oracle.")) \
                    and self.under(i, EVALUATOR_SPANS):
                out.append(i)
        return out


def _processes(workload: str, res: dict) -> tuple:
    """(processes, number of traced ops) of a traced worker result."""
    traced = res["traced_records"]
    if workload == "cli-cold":
        procs = [Process(r["out"]["spans"], [r["scale"]], r["scale"], r["out"]["import_s"], one_op=True)
                 for r in traced if r["out"] and r["out"].get("spans") is not None]
    else:
        procs = [Process(res["spans"], [r["scale"] for r in traced], res["setup_scale"], res["import_s"])]
    return procs, len(traced)


def _gamma_first_use(p: Process) -> list:
    """First call of incomplete gamma at each order minus a warm call: the
    later median at the same arguments, or else at the same order."""
    calls = [i for i in p.named({"specfun.incomplete_gamma_dyadic"})
             if not p.under(i, {"specfun.incomplete_gamma_dyadic"})]
    out, seen = [], set()
    for i in calls:
        args = p.spans[i][4]["args"]
        order = args[0]
        if order in seen:
            continue
        seen.add(order)
        later = [j for j in calls if j > i and p.spans[j][4]["args"] == args] or \
                [j for j in calls if j > i and p.spans[j][4]["args"][0] == order]
        if later:
            out.append(p.dur(i) - statistics.median(p.dur(j) for j in later))
    return out


def layer_metrics(workload: str, items: list, res: dict, checks: list) -> dict:
    procs, n_ops = _processes(workload, res)
    n_proc = max(len(procs), 1)
    per_op = lambda v: v / max(n_ops, 1)
    per_proc = lambda v: v / n_proc
    ms = 1e3
    plain, traced = res["records"], res["traced_records"]
    op_time = sum(r["scaled_s"] for r in traced)
    rerun = sum(p.total({"specfun.assemble"}, True) for p in procs)

    evals = [(p, i) for p in procs for i in p.named(EVALUATOR_SPANS, True)
             if not p.under(i, EVALUATOR_SPANS) and p.spans[i][4].get("K") is not None]
    first_values = {}
    for rec, chk in zip(plain, checks):
        for j, v in enumerate(chk["values"]):
            first_values.setdefault((rec["input"], j), v)
    ratios = [est / err for est, err in first_values.values() if err > 0]
    first_use = [d for p in procs for d in _gamma_first_use(p)]

    m = {
        "dyadic.plan_ms": ms * per_op(sum(p.total(PLAN, True) for p in procs)),
        "dyadic.plan_share": sum(p.total(PLAN, True) for p in procs) / max(op_time - rerun, 1e-12),
        "dyadic.levels": statistics.fmean(p.spans[i][4]["K"] for p, i in evals) if evals else 0.0,
        "dyadic.terms": statistics.fmean(p.spans[i][4]["terms"] for p, i in evals) if evals else 0.0,
        "dyadic.est_over_err": statistics.median(ratios) if ratios else 0.0,
        "dyadic.est_below_err": float(sum(1 for est, err in first_values.values() if est < err)),
        "specfun.assemble_ms": ms * per_op(rerun),
        "specfun.gamma_first_use_ms": ms * statistics.fmean(first_use) if first_use else 0.0,
        "borel.assemble_ms": ms * per_op(sum(p.total({"borel._h_assemble"}, True) for p in procs)),
        "borel.kernel_build_ms": ms * per_proc(sum(p.total({"borel.BorelKernel.build"}) for p in procs)),
        "borel.kernel_builds": per_proc(sum(len(p.named({"borel.BorelKernel.build"})) for p in procs)),
        "borel.table_build_ms": ms * per_proc(sum(p.total({"borel.CoefficientTable.build"}) for p in procs)),
        "borel.table_builds": per_proc(sum(len(p.named({"borel.CoefficientTable.build"})) for p in procs)),
        "borel.table_hits": per_proc(float(sum(len(p.table_hits()) for p in procs))),
        "cli.import_ms": ms * statistics.fmean(p.import_s for p in procs) if procs else 0.0,
        "cli.grid_ms": ms * per_proc(sum(p.total({"cli.cmd_eval"}) - p.total({"cli._write_rows"}) for p in procs)),
        "cli.write_ms": ms * per_proc(sum(p.total({"cli._write_rows"}) for p in procs)),
        "operators.eigh_ms": ms * per_op(sum(p.total({"operators.HermitianOperator.from_matrix"}, True)
                                             for p in procs)),
        "operators.apply_scalar_ms": ms * per_op(sum(p.total({"operators.HermitianOperator.apply_scalar"}, True)
                                                     for p in procs)),
        "operators.apply_scalar_calls": per_op(sum(len(p.named({"operators.HermitianOperator.apply_scalar"}, True))
                                                   for p in procs)),
        "scalar.polylog_calls": per_op(sum(len(p.named({"scalar.polylog"}, True)) for p in procs)),
        "scalar.polylog_ms": ms * per_op(sum(p.total({"scalar.polylog"}, True) for p in procs)),
        "dyadic.partial_calls": per_op(sum(len(p.outermost(p.named(PARTIALS, True))) for p in procs)),
        "trace.overhead": op_time / sum(r["scaled_s"] for r in plain),
    }
    oracle = [(p, i) for p in procs for i in p.oracle_in_eval()]
    m["oracle.calls_in_eval"] = per_proc(float(len(oracle)))
    m["oracle.ms_in_eval"] = ms * per_proc(sum(p.dur(i) for p, i in oracle))
    key = "mode" if workload == "operator-spectral" else "fn"
    for fam in workloads.FUNCTION_IDS + workloads.MODES:
        times = [r["scaled_s"] for r in plain if items[r["input"]].get(key) == fam]
        m[f"family.{fam}.p50_ms"] = ms * statistics.median(times) if times else 0.0
    return m


# -- main -------------------------------------------------------------------------------


def _metric_json(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items() if name in values}


def _describe(item: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in item.items() if k != "fault")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dyafact" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: the program source {ROOT / 'src' / 'dyafact'} is missing\n")
        return 2
    try:
        if args.trace:
            res = spawn(args, "traced")
            setups = [res["setup_s"]]
        else:
            setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
            res = spawn(args, "timed")
            setups.append(res["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    items = workloads.inputs(args.workload, args.seed)
    checker = Checker(args.workload, items)
    records = res["records"] + res.get("traced_records", [])
    checks = [checker.check(r) for r in records]
    failed = [(r, c) for r, c in zip(records, checks) if not c["ok"]]
    correct = all(c["fault"] is not None for _, c in failed)

    if args.trace:
        values = layer_metrics(args.workload, items, res, checks[:len(res["records"])])
        metrics = _metric_json(values, PER_LAYER)
    else:
        values = end_to_end(res["records"], statistics.median(setups), res["rss_peak_mb"])
        metrics = _metric_json(values, END_TO_END)

    rounds = 1 + max(r["round"] for r in res["records"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(records)} ops "
          f"({rounds} rounds of {len(items)} inputs), op_p50 over {len(res['records'])} samples, "
          f"set-up medians over {len(setups)} processes")
    shown = set()
    for r, c in failed:
        key = (r["input"], c["fault"])
        if key in shown:
            continue
        shown.add(key)
        n = sum(1 for rr, cc in failed if (rr["input"], cc["fault"]) == key)
        print(f"FAILED x{n} [{c['fault'] or 'unexpected'}] {_describe(items[r['input']])}: {c['detail']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    slim = [{k: v for k, v in r.items() if k != "out"} for r in records]
    (OUT / f"run-{stem}.json").write_text(json.dumps(
        {"args": vars(args), "setups_s": setups, "rss_peak_mb": res["rss_peak_mb"], "metrics": values,
         "records": slim, "checks": [{k: c[k] for k in ("ok", "fault")} for c in checks]}, default=str))
    if args.trace:
        traces = [res["spans"]] if "spans" in res else \
            [r["out"]["spans"] for r in res["traced_records"] if r["out"] and r["out"].get("spans") is not None]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(traces))

    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
