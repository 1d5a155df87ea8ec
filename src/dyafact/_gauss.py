"""Fixed-order Gauss-Legendre panels for the evaluator-side coefficient
integrals (smooth, exponentially decaying integrands sampled once on
shared nodes for a whole stack of coefficient rows), the running
geometric sums that give a row's every column from one power per node,
and the check that each row agrees between two panel refinements.

Deliberately separate from the oracle module's adaptive Gauss-Kronrod
quadrature so reference values never share a code path with the
expansions they check.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence, Tuple

import numpy as np

from .scalar import QuadratureError

_ORDER = 48
__all__ = ["QuadratureError", "dyadic_edges", "panel_nodes", "geometric_sums", "refined"]


@functools.lru_cache(maxsize=None)
def _rule() -> Tuple[np.ndarray, np.ndarray]:
    """The _ORDER-point Gauss-Legendre nodes and weights on [-1, 1], made
    on first use so that importing this module loads no numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    nodes, weights = _rule()
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    pts = (mids[:, None] + halfs[:, None] * nodes[None, :]).ravel()
    wts = (halfs[:, None] * weights[None, :]).ravel()
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
