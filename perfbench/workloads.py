"""Seeded inputs of the three workloads.

Imports only numpy and the standard library, so the timed process can
build its own inputs without loading anything the program does not load.
The same seed always gives the same inputs.

Every input is drawn inside a fixed stratum (function id, order, tolerance
band, matrix size), so two seeds run the same mix of costs and differ
only in where inside each stratum the point falls.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("point-values", "cli-cold", "operator-spectral")

FUNCTION_IDS = ("ei-stokes", "ei-left", "psi", "erfc", "inc-gamma", "airy", "bessel-k")
MODES = ("resolvent", "inverse", "power")

# Relative (True) or absolute (False) meaning of each evaluator's tol.
RELATIVE_TOL = {
    "ei-stokes": False, "ei-left": False, "psi": False,
    "erfc": True, "inc-gamma": True, "airy": True, "bessel-k": True,
}

# Fixed orders: every coefficient build of point-values happens in set-up.
INC_GAMMA_ORDERS = (-0.5, -0.5, 0.25, 0.25)
BESSEL_ORDERS = (0.3, 0.7, 2.7, 3.7)

ORDER_EDGE = "order-edge level decay"

# Seed-independent inputs that fail today under ORDER_EDGE: the planner
# runs into MAX_LEVELS or the table depth and clamps its estimate.
FAULT_INPUTS = (
    {"fn": "inc-gamma", "s": 0.9, "x": [2.0, 0.0], "tol": 4e-9, "fault": ORDER_EDGE},
    {"fn": "bessel-k", "s": 1.45, "x": [1.0, 0.0], "tol": 1e-9, "fault": ORDER_EDGE},
    {"fn": "bessel-k", "s": 2.3, "x": [3.0, 0.0], "tol": 1e-9, "fault": ORDER_EDGE},
)

TOL_RANGE = (1e-10, 1e-6)
# erfc (s = 1/2) misses its tolerance below about 2e-9: level decay 2^{-k/2}
# runs the planner into MAX_LEVELS there.
ERFC_TOL_RANGE = (5e-9, 1e-6)
STRATA = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    # SeedSequence takes no negative integers; the map is one-to-one on 64 bits
    return np.random.default_rng([seed % 2**64, stream])


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _tol(rng: np.random.Generator, stratum: int, span: tuple = TOL_RANGE) -> float:
    """Log-uniform tolerance inside stratum ``stratum`` of STRATA equal
    log-width strata of ``span``."""
    lo, hi = (math.log10(v) for v in span)
    width = (hi - lo) / STRATA
    return float(10.0 ** (lo + width * (stratum + rng.uniform(0.0, 1.0))))


def _polar(r: float, deg: float) -> list:
    z = r * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg)))
    return [z.real, z.imag]


def point_inputs(seed: int) -> list:
    """One round of point-values: 30 seeded single-point calls, then the
    three seed-independent fault inputs."""
    rng = _rng(seed, 1)
    out = []
    # ei-stokes: two real points, two above and two below the Stokes ray R+
    for i, sector in enumerate((0, 0, 1, 1, -1, -1)):
        deg = 0.0 if sector == 0 else sector * rng.uniform(3.0, 30.0)
        out.append({"fn": "ei-stokes", "x": _polar(_loguniform(rng, 1.0, 20.0), deg),
                    "tol": _tol(rng, i % STRATA)})
    for d in range(STRATA):
        out.append({"fn": "ei-left", "x": _polar(_loguniform(rng, 0.5, 20.0), rng.uniform(-45.0, 45.0)),
                    "tol": _tol(rng, d)})
    for d in range(STRATA):
        out.append({"fn": "psi", "x": [_loguniform(rng, 0.2, 50.0), 0.0], "tol": _tol(rng, d)})
    for d in range(STRATA):
        out.append({"fn": "erfc", "x": [_loguniform(rng, 0.2, 20.0), 0.0],
                    "tol": _tol(rng, d, ERFC_TOL_RANGE)})
    for d, s in zip(range(STRATA), rng.permutation(INC_GAMMA_ORDERS)):
        out.append({"fn": "inc-gamma", "s": float(s), "x": [_loguniform(rng, 0.3, 20.0), 0.0],
                    "tol": _tol(rng, d)})
    for d in range(STRATA):
        out.append({"fn": "airy", "x": [_loguniform(rng, 1.0, 12.0), 0.0], "tol": _tol(rng, d)})
    for d, s in zip(range(STRATA), rng.permutation(BESSEL_ORDERS)):
        out.append({"fn": "bessel-k", "s": float(s), "x": [_loguniform(rng, 0.5, 15.0), 0.0],
                    "tol": _tol(rng, d)})
    return out + [dict(f) for f in FAULT_INPUTS]


GRID_POINTS = 24

# Grid ranges per function id: x_start, x_stop, ray angle (degrees), order
# range and tolerance band, all inside the domains where the evaluators meet
# tol. The bands are narrow: one cold process per function id makes a
# round, so a wide band would make the cost of a run depend on the seed.
# For airy and bessel-k, the first point, the order and tol set the depth
# of the first coefficient table (rounded up to a multiple of 6 levels), so
# those bands are narrower still.
_CLI_DOMAINS = {
    "ei-stokes": ((1.3, 1.6), (12.0, 14.0), (-25.0, 25.0), None, (1e-9, 1.2e-9)),
    "psi": ((0.5, 0.7), (15.0, 20.0), (0.0, 0.0), None, (1e-9, 1.2e-9)),
    "inc-gamma": ((0.6, 0.8), (9.0, 11.0), (0.0, 0.0), (-0.55, -0.45), (1e-9, 1.2e-9)),
    "airy": ((1.3, 1.35), (9.0, 11.0), (0.0, 0.0), None, (1e-9, 1.2e-9)),
    "bessel-k": ((0.8, 0.85), (9.0, 11.0), (0.0, 0.0), (0.64, 0.66), (1e-9, 1.2e-9)),
}


# erfc is left out: it is incomplete gamma at s = 1/2 (same code and the same
# coefficient build) and would add a third of the round's time; ei-left is
# left out as it shares the cold path of ei-stokes (import, planner, no
# build), and an odd number of inputs keeps op_p50 on one input's samples.
CLI_FUNCTION_IDS = ("ei-stokes", "psi", "inc-gamma", "airy", "bessel-k")


def cli_inputs(seed: int) -> list:
    """One round of cli-cold: one cold ``dyafact eval`` grid per function id."""
    rng = _rng(seed, 2)
    out = []
    for fn in CLI_FUNCTION_IDS:
        (a0, a1), (b0, b1), (r0, r1), orders, tols = _CLI_DOMAINS[fn]
        item = {"fn": fn, "x_start": float(rng.uniform(a0, a1)), "x_stop": float(rng.uniform(b0, b1)),
                "points": GRID_POINTS, "ray": float(rng.uniform(r0, r1)), "tol": _loguniform(rng, *tols)}
        if orders is not None:
            item["s"] = float(rng.uniform(*orders))
        out.append(item)
    return out


def cli_grid(item: dict) -> np.ndarray:
    """The grid ``dyafact eval`` evaluates for a cli-cold input."""
    ray = complex(math.cos(math.radians(item["ray"])), math.sin(math.radians(item["ray"])))
    return np.linspace(item["x_start"], item["x_stop"], item["points"]) * ray


def cli_argv(item: dict) -> list:
    argv = ["eval", "--function", item["fn"], "--x-start", repr(item["x_start"]),
            "--x-stop", repr(item["x_stop"]), "--points", str(item["points"]),
            "--ray-angle", repr(item["ray"]), "--tol", repr(item["tol"]), "--format", "csv"]
    if "s" in item:
        argv += ["--s", repr(item["s"])]
    return argv


# Matrix sizes, one per stratum and mode, n from 8 to 64, and level counts.
# Narrow strata keep the cost of a round nearly the same for every seed.
# Fractional power stops at n = 26: at n = 64 (3.5 s) it alone would take
# most of a round, leaving each run a few samples of its slowest op.
SIZE_STRATA = {
    "resolvent": ((8, 9), (16, 17), (32, 34), (60, 64)),
    "inverse": ((8, 9), (16, 17), (32, 34), (60, 64)),
    "power": ((8, 9), (16, 17), (24, 26)),
}
# Power evaluates its error curve every K // 10 levels, so K = 20 and 21
# cost the same; 11 and 12 would differ by a sixth.
_LEVELS = {"resolvent": (16, 17), "inverse": (16, 17), "power": (20, 21)}


def operator_inputs(seed: int) -> list:
    """One round of operator-spectral: every mode at every size stratum."""
    rng = _rng(seed, 3)
    out = []
    for mode in MODES:
        for lo, hi in SIZE_STRATA[mode]:
            k0, k1 = _LEVELS[mode]
            item = {"mode": mode, "n": int(rng.integers(lo, hi + 1)), "K": int(rng.integers(k0, k1 + 1)),
                    "seed": int(rng.integers(0, 2**31))}
            if mode == "resolvent":
                item["lam"] = float(rng.uniform(0.5, 2.0))
            if mode == "power":
                item["s"] = float(rng.uniform(0.25, 0.75))
            out.append(item)
    return out


def operator_spectrum(item: dict) -> tuple:
    """(eigenvalues, unitary Q, vector v) of an operator input.

    The spectrum is log-spread: a geometric ladder over |w| in [0.05, 5]
    with random signs for the resolvent (Hermitian), over w in [0.05, 20]
    otherwise (positive definite), each rung moved by up to 15 %.
    """
    rng = np.random.default_rng(item["seed"])
    n = item["n"]
    jitter = np.exp(rng.uniform(-0.15, 0.15, n))
    if item["mode"] == "resolvent":
        w = np.geomspace(0.05, 5.0, n) * jitter * rng.choice([-1.0, 1.0], n)
    else:
        w = np.geomspace(0.05, 20.0, n) * jitter
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w, q, v / np.linalg.norm(v)


def operator_matrix(item: dict) -> np.ndarray:
    w, q, _ = operator_spectrum(item)
    a = (q * w) @ q.conj().T
    return (a + a.conj().T) / 2.0


def inputs(workload: str, seed: int) -> list:
    if workload == "point-values":
        return point_inputs(seed)
    if workload == "cli-cold":
        return cli_inputs(seed)
    if workload == "operator-spectral":
        return operator_inputs(seed)
    raise ValueError(f"unknown workload: {workload}")
