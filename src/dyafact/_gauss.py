"""Fixed-order Gauss-Legendre panels for the evaluator-side coefficient
integrals (smooth, exponentially decaying integrands sampled once on
shared nodes for a whole stack of coefficient rows), the running
geometric sums that give a row's every column from one power per node,
and the check that each row agrees between two panel refinements.

The 48-point rule is a constant: its 24 positive nodes and their weights,
written as round-trip float literals and mirrored, equal numpy's
``leggauss(48)`` bit for bit, so building a coefficient row loads no
numpy.polynomial and solves no eigenproblem.

Deliberately separate from the oracle module's adaptive Gauss-Kronrod
quadrature so reference values never share a code path with the
expansions they check.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from .scalar import QuadratureError

__all__ = ["QuadratureError", "dyadic_edges", "panel_nodes", "geometric_sums", "refined"]

# the positive half of the 48-point Gauss-Legendre rule on [-1, 1]
_HALF_NODES = np.array([
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
    0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
    0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
    0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
    0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261])
_HALF_WEIGHTS = np.array([
    0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
    0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
    0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
    0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
    0.031167227832798097, 0.027426509708357034, 0.023570760839324047, 0.019616160457356056,
    0.015579315722943226, 0.011477234579234614, 0.007327553901276135, 0.0031533460523098414])
_NODES = np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


def dyadic_edges(lo: float, hi: float, refine: int) -> np.ndarray:
    """Panel edges on [lo, hi]: halvings of hi down to lo, each split into
    ``refine`` equal panels, so every panel sees a single scale."""
    es = [hi]
    while es[-1] > 2.0 * lo:
        es.append(0.5 * es[-1])
    es.append(lo)
    lows, highs = np.array(es[:0:-1]), np.array(es[-2::-1])
    out = np.arange(refine)[None, :] * ((highs - lows) / refine)[:, None] + lows[:, None]
    return np.append(out.ravel(), hi)


def panel_nodes(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights of every panel between consecutive edges."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    pts = (mids[:, None] + halfs[:, None] * _NODES[None, :]).ravel()
    wts = (halfs[:, None] * _WEIGHTS[None, :]).ravel()
    return pts, wts


def geometric_sums(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """[sum(p q^j) for j = 0..n-1] for each row of ``p`` (one row or a
    stack): coefficient rows whose m-dependence is a power of one node
    factor.  With ``q`` the shape of ``p`` each power costs one
    multiplication per entry, and a row's sums do not depend on the rows
    stacked with it.  With one row of ``q`` under a stack of rows each
    power q^j is formed once, as a running product over all nodes, and
    column j is p @ q^j.  Terms past the floating range underflow to 0."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape[:-1] + (n,))
    with np.errstate(under="ignore"):
        if np.shape(q) == p.shape:
            p = p.copy()
            for j in range(n):
                out[..., j] = p.sum(axis=-1)
                p *= q
            return out
        qj = np.ones(len(q))
        for j in range(n):
            out[..., j] = p @ qj
            qj *= q
    return out


def refined(rows: Callable[[int, np.ndarray], np.ndarray], refinements: Sequence[int],
            rtol: float, names: Sequence[str], floor: float = 0.0) -> np.ndarray:
    """Stacked rows, row i named ``names[i]``: ``rows(r, live)`` gives the
    rows ``live`` (an index array) at refinement r.  Each row is the one at
    the first refinement r that agrees with the one before to ``rtol``,
    relative to max(|row(r)|, floor), by its own check alone; a settled
    row takes no part in later refinements.  Raises QuadratureError,
    naming the first row whose last pair still disagrees."""
    live = np.arange(len(names))
    a = rows(refinements[0], live)
    out = np.empty_like(a)
    for r in refinements[1:]:
        b = rows(r, live)
        done = ~(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor), axis=1) > rtol)
        out[live[done]] = b[done]
        live, a = live[~done], b[~done]
        if not len(live):
            return out
    raise QuadratureError(f"{names[live[0]]} did not converge")
