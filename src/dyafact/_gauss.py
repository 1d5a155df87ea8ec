"""Fixed-order Gauss-Legendre panels for the evaluator-side coefficient
integrals (smooth, exponentially decaying integrands sampled once on
shared nodes for a whole coefficient row).

Deliberately separate from the oracle module's adaptive Gauss-Kronrod
quadrature so reference values never share a code path with the
expansions they check.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_ORDER = 48
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
__all__ = ["QuadratureError", "dyadic_edges", "panel_nodes", "geometric_sums"]


class QuadratureError(RuntimeError):
    """Panel refinement failed to converge."""


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
    """[sum(p q^j) for j = 0..n-1]: a coefficient row whose m-dependence
    is a power of one node factor, by one multiplication per power, which
    is cheaper than an exponential per entry.  Terms past the floating
    range underflow to 0."""
    out = np.empty(n)
    p = np.array(p, dtype=float)
    with np.errstate(under="ignore"):
        for j in range(n):
            out[j] = p.sum()
            p *= q
    return out
