"""Checks of the program's outputs against computations made apart from it.

Scalar references use mpmath at 30 digits in each evaluator's documented
convention; operator references use the telescoped closed forms of the
K-level partial sums (scipy ``expm``/``solve``, mpmath ``polylog``) and
numpy/scipy ``solve``/``inv``/``fractional_matrix_power`` for the limit.
This module runs only in the checking process, never in a timed one.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import scipy.linalg as sla

from workloads import RELATIVE_TOL, operator_matrix, operator_spectrum

mp.mp.dps = 30


def scalar_reference(fn: str, x: complex, s: float | None = None) -> complex:
    """The value each evaluator documents, at 30 digits."""
    z = mp.mpc(x.real, x.imag)
    if fn == "ei-stokes":
        # e^{-x} (-E1(-x)) continued from the upper half-plane across R+
        if x.imag > 0:
            v = -mp.e1(-z)
        else:
            v = mp.ei(z) - 1j * mp.pi
        v = mp.exp(-z) * v
    elif fn == "ei-left":
        v = -mp.exp(z) * mp.e1(z)          # e^x Ei(-x), continuous off R-
    elif fn == "psi":
        v = mp.digamma(z + 1)
    elif fn == "erfc":
        v = mp.erfc(mp.sqrt(z.real))
    elif fn == "inc-gamma":
        v = mp.gammainc(mp.mpf(s), z)      # upper incomplete gamma Gamma(s, x)
    elif fn == "airy":
        v = mp.airyai(z.real)
    elif fn == "bessel-k":
        v = mp.besselk(mp.mpf(s), z.real)
    else:
        raise ValueError(f"unknown function id: {fn}")
    return complex(v)


def check_scalar(fn: str, tol: float, ref: complex, value: complex, estimate: float) -> dict:
    """An output passes when its error meets tol (absolute or relative as
    the evaluator documents) and its error_estimate bounds that error."""
    err = abs(complex(value) - ref)
    limit = tol * abs(ref) if RELATIVE_TOL[fn] else tol
    ok = bool(err <= limit and err <= estimate)
    return {"ok": ok, "err": err, "limit": limit, "estimate": float(estimate)}


# -- operators ---------------------------------------------------------------


def _phi1_inverse_times(b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - e^{-B}) y = rhs, writing I - e^{-B} = B phi1(-B).

    phi1(-B) is read off expm of the block matrix [[-B, I], [0, 0]], so
    I - e^{-B} never loses digits to cancellation at small B.
    """
    n = b.shape[0]
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[:n, :n] = -b
    blk[:n, n:] = np.eye(n)
    phi1 = sla.expm(blk)[:n, n:]
    return sla.solve(b @ phi1, rhs)


def operator_reference(item: dict) -> dict:
    """Closed form of the K-level partial sum, the K -> inf limit and the
    largest entrywise distance the truncation leaves from that limit.

    The partial sums telescope:
      inverse    2^-K (I - e^{-A/2^K})^{-1}
      resolvent  i 2^-K (I - e^{-(lam + iA)/2^K})^{-1} v
      power      Gamma(s) sin(pi s) 2^{-K(1-s)} Li_s(e^{-A/2^K})
    """
    mode, K = item["mode"], item["K"]
    a = operator_matrix(item)
    n = a.shape[0]
    if mode == "inverse":
        partial = _phi1_inverse_times(a / 2.0**K, np.eye(n)) / 2.0**K
        limit = np.linalg.inv(a)
        lim_tol = 2.0**-K
    elif mode == "resolvent":
        w, q, v = operator_spectrum(item)
        lam = item["lam"]
        p = lam * np.eye(n) + 1j * a
        partial = 1j * _phi1_inverse_times(p / 2.0**K, v) / 2.0**K
        limit = np.linalg.solve(a - 1j * lam * np.eye(n), v)
        lim_tol = 2.0**-K
    elif mode == "power":
        w, q, _ = operator_spectrum(item)
        s = mp.mpf(item["s"])
        front = mp.gamma(s) * mp.sin(mp.pi * s) * mp.power(2, -K * (1 - s))
        f = np.array([complex(front * mp.polylog(s, mp.exp(-mp.mpf(t) / 2**K))) for t in w])
        partial = (q * f) @ q.conj().T
        limit = math.pi * sla.fractional_matrix_power(a, item["s"] - 1.0)
        # Li_s(e^{-q}) = Gamma(1-s) q^{s-1} + zeta(s) + O(q) leaves the same
        # pi zeta(s) 2^{-K(1-s)} / Gamma(1-s) on every eigenvalue
        lim_tol = 2.0 * float(abs(mp.pi * mp.zeta(s) / mp.gamma(1 - s))) * 2.0 ** (-K * (1.0 - item["s"]))
    else:
        raise ValueError(f"unknown operator mode: {mode}")
    return {"partial": partial, "limit": limit, "lim_tol": lim_tol}


OPERATOR_TOL = 1e-10   # relative to the largest entry of the closed form


def check_operator(ref: dict, partial: np.ndarray) -> dict:
    """The returned partial sum must match the closed form of its own K to
    OPERATOR_TOL, and lie within the truncation bound of the limit."""
    partial = np.asarray(partial)
    scale = float(np.abs(ref["partial"]).max())
    err = float(np.abs(partial - ref["partial"]).max()) / scale
    lim_err = float(np.abs(partial - ref["limit"]).max())
    ok = bool(err <= OPERATOR_TOL and lim_err <= ref["lim_tol"])
    return {"ok": ok, "err": err, "limit": OPERATOR_TOL, "lim_err": lim_err, "lim_tol": ref["lim_tol"]}
