"""Self-tests of the benchmark (a few minutes; needs mpmath):

  python3 perfbench/selftest.py

They show that a corrupted output fails in every workload (a value pushed
10 tol off; an operator partial sum shifted by one level), that the three
fault inputs are classified under their named fault, that a seed always
gives the same inputs, and that the printed metric names and units are
those of BENCHMARK.json. Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run        # noqa: E402
import worker     # noqa: E402
import workloads  # noqa: E402

os.environ.update(run.worker_env())   # the CLI processes it starts find the program too

SEED = 1
FAILURES: list = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILURES.append(what)


def _record(i: int, out) -> dict:
    return {"input": i, "round": 0, "raw_s": 1.0, "scaled_s": 1.0, "scale": 1.0, "out": out, "error": None}


def test_seeds() -> None:
    for w in workloads.WORKLOADS:
        a, b = workloads.inputs(w, SEED), workloads.inputs(w, SEED)
        expect(json.dumps(a) == json.dumps(b), f"{w}: seed {SEED} gives the same inputs twice")
        expect(json.dumps(a) != json.dumps(workloads.inputs(w, SEED + 1)), f"{w}: another seed gives other inputs")
    m = workloads.operator_inputs(SEED)[0]
    expect(bool((workloads.operator_matrix(m) == workloads.operator_matrix(m)).all()),
           "operator-spectral: a seed gives the same matrix")


def test_point_values() -> None:
    items = workloads.point_inputs(SEED)
    ops = worker.PointOps(items)
    checker = run.Checker("point-values", items)
    for i, it in enumerate(items):
        out = ops.call(i)
        c = checker.check(_record(i, out))
        if "fault" in it:
            expect(not c["ok"] and c["fault"] == it["fault"],
                   f"point-values: fault input {run._describe(it)} is classified as {it['fault']!r}")
            continue
        expect(c["ok"], f"point-values: {it['fn']} output passes unchanged")
        off = 10.0 * c["detail"]["limit"]
        bad = dict(out, value=[out["value"][0] + off, out["value"][1]])
        c = checker.check(_record(i, bad))
        expect(not c["ok"] and c["fault"] is None, f"point-values: {it['fn']} value pushed 10 tol off fails")


def test_cli_cold() -> None:
    items = workloads.cli_inputs(SEED)
    ops = worker.CliOps(items)
    checker = run.Checker("cli-cold", items)
    for i, it in enumerate(items):
        out = ops.call(i)
        expect(checker.check(_record(i, out))["ok"], f"cli-cold: {it['fn']} grid passes unchanged")
        lines = out["csv"].splitlines()
        row = lines[5].split(",")
        x = complex(float(row[0]), float(row[1]))
        ref = checker._reference(i)[4]
        off = 10.0 * (it["tol"] * abs(ref) if workloads.RELATIVE_TOL[it["fn"]] else it["tol"])
        row[2] = repr(float(row[2]) + off)
        lines[5] = ",".join(row)
        c = checker.check(_record(i, dict(out, csv="\n".join(lines) + "\n")))
        expect(not c["ok"], f"cli-cold: {it['fn']} row at x = {x:.4g} pushed 10 tol off fails")


def test_operator_spectral() -> None:
    items = workloads.operator_inputs(SEED)
    ops = worker.OperatorOps(items)
    checker = run.Checker("operator-spectral", items)
    for i, it in enumerate(items):
        expect(checker.check(_record(i, ops.call(i)))["ok"],
               f"operator-spectral: {it['mode']} n={it['n']} K={it['K']} passes unchanged")
        if it["n"] > workloads.SIZE_STRATA[it["mode"]][1][1]:
            continue   # the shifted check on the two smaller sizes keeps this test short
        for dk in (-1, 1):
            ops.items = items[:i] + [dict(it, K=it["K"] + dk)] + items[i + 1:]
            shifted = ops.call(i)
            ops.items = items
            c = checker.check(_record(i, shifted))
            expect(not c["ok"], f"operator-spectral: {it['mode']} n={it['n']} partial sum at K{dk:+d} fails")


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end names and units in run.py are those of BENCHMARK.json")
    expect(layer == run.PER_LAYER, "per-layer names and units in run.py are those of BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names match")
    for trace, want in ((0, e2e), (1, layer)):
        p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "operator-spectral",
                            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                           capture_output=True, text=True, cwd=ROOT, timeout=600)
        expect(p.returncode == 0, f"run.py --trace {trace} exits with 0")
        if p.returncode != 0:
            print(p.stderr[-2000:])
            continue
        last = json.loads(p.stdout.strip().splitlines()[-1])
        expect(sorted(last) == ["attempted", "correct", "failed", "metrics"], "result line has exactly its four keys")
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        expect(got == want, f"--trace {trace} prints every metric of BENCHMARK.json with its unit")


def main() -> int:
    test_seeds()
    test_metric_names()
    test_operator_spectral()
    test_cli_cold()
    test_point_values()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
