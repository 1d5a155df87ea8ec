"""Finite-dimensional realization of the dyadic resolvent identities:
the resolvent of a Hermitian matrix from its unitary evolution sampled at
dyadic times, the inverse of a positive matrix from its semigroup, and
fractional powers through the matrix polylogarithm.

All matrix functions go through one cached spectral decomposition.  The
resolvent and the inverse take every level of the reciprocal identity
over the whole spectrum from one table, and trace their errors in the
eigenbasis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, List, TextIO, Tuple

import numpy as np

from .dyadic import MAX_LEVELS, dyadic_reciprocal_levels, ramified_partial
from .scalar import DomainError

__all__ = [
    "HermitianOperator",
    "OperatorSeriesReport",
    "evolution",
    "resolvent_dyadic",
    "inverse_dyadic",
    "fractional_power_dyadic",
    "read_matrix_text",
    "write_matrix_text",
]

MAX_DIM = 256
_HERM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense self-adjoint matrix with its cached spectral decomposition."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @staticmethod
    def from_matrix(a: np.ndarray) -> "HermitianOperator":
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("operator must be a square matrix")
        if not np.isfinite(a).all():
            raise DomainError("matrix entries must be finite")
        n = a.shape[0]
        if n > MAX_DIM:
            raise DomainError(f"dimension capped at {MAX_DIM}")
        scale = np.abs(a).max() or 1.0
        if np.abs(a - a.conj().T).max() > _HERM_TOL * scale:
            raise DomainError("matrix is not Hermitian to working precision")
        w, v = np.linalg.eigh(a)
        return HermitianOperator(matrix=a, eigenvalues=w, eigenvectors=v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply_scalar(self, f) -> np.ndarray:
        """V diag(f(lambda_j)) V^*, the spectral calculus for f."""
        return self.spectral_matrix(np.array([f(w) for w in self.eigenvalues], dtype=complex))

    def spectral_matrix(self, fw: np.ndarray) -> np.ndarray:
        """V diag(fw) V^*: the matrix taking the values fw on the eigenvectors."""
        return (self.eigenvectors * fw) @ self.eigenvectors.conj().T


@dataclass(eq=False)
class OperatorSeriesReport:
    """Partial sum plus the per-level error trace against a reference."""

    partial: np.ndarray
    error_curve: List[Tuple[int, float]] = field(default_factory=list)


def _trace_levels(K: int, step: int) -> List[int]:
    """Levels 0, step, 2 step, ... below K, then K."""
    return list(range(0, K, step)) + [K]


def _traced(partial_at: Callable[[int], np.ndarray], K: int, step: int,
            error: Callable[[np.ndarray], float]) -> OperatorSeriesReport:
    """The level-K partial with its error at the trace levels; the error
    at K is taken from the returned partial."""
    partial = partial_at(K)
    curve = [(k, error(partial if k == K else partial_at(k))) for k in _trace_levels(K, step)]
    return OperatorSeriesReport(partial, curve)


def evolution(op: HermitianOperator, t: float) -> np.ndarray:
    """Unitary evolution e^{-i t A} via the spectral decomposition."""
    return op.apply_scalar(lambda w: cmath.exp(-1j * t * w))


def resolvent_dyadic(op: HermitianOperator, lam: float, K: int,
                     v: np.ndarray) -> Tuple[np.ndarray, OperatorSeriesReport]:
    """(A - i lam)^{-1} v via the dyadic evolution series

        i (1 - e^{-lam} U_1)^{-1} - i sum_{k=1}^{K} 2^{-k} (1 + e^{-lam/2^k} U_{2^-k})^{-1}

    applied to v; every inner inverse is a scalar function of A.  lam is
    finite and > 0 (conjugate the identity for the other half plane).  The
    series acts on the coefficients c = V^* v: the partial is V (i f_K o c)
    with f_K the level-K reciprocal at lam + i w, and the error at level k
    is ||(i f_k - 1/(w - i lam)) o c||_2, so no n x n matrix is formed.
    """
    if not 0 < lam < math.inf:
        raise DomainError("resolvent_dyadic requires a finite lam > 0")
    w, vecs = op.eigenvalues, op.eigenvectors
    c = vecs.conj().T @ np.asarray(v, dtype=complex)
    # i times the scalar dyadic reciprocal at p = lam + i w, every level
    table = 1j * dyadic_reciprocal_levels(lam + 1j * w, K)
    miss = (table - 1.0 / (w - 1j * lam)) * c
    curve = [(k, float(np.linalg.norm(miss[k]))) for k in _trace_levels(K, max(1, K // 8))]
    partial = vecs @ (table[K] * c)
    return partial, OperatorSeriesReport(partial, curve)


def inverse_dyadic(op: HermitianOperator, K: int) -> Tuple[np.ndarray, OperatorSeriesReport]:
    """A^{-1} for positive definite A via the semigroup series

        (1 - T_1)^{-1} - sum_{k=1}^{K} 2^{-k} (1 + T_{1/2^k})^{-1},  T_t = e^{-tA}.

    The error at level k is the 2-norm of a matrix diagonal in the
    eigenbasis, max_j |f_k(w_j) - 1/w_j|.
    """
    _require_positive(op)
    w = op.eigenvalues
    table = dyadic_reciprocal_levels(w, K)
    miss = np.abs(table - 1.0 / w).max(axis=1)
    partial = op.spectral_matrix(table[K])
    return partial, OperatorSeriesReport(partial, [(k, float(miss[k])) for k in range(K + 1)])


def fractional_power_dyadic(op: HermitianOperator, s: float, K: int
                            ) -> Tuple[np.ndarray, OperatorSeriesReport]:
    """pi A^{s-1} for positive definite A, s < 1 non-integer, via

        Gamma(s) sin(pi s) [ Li_s(T_1) - sum_{k<=K} 2^{-k(1-s)} Li_s(-T_{1/2^k}) ]

    with the matrix polylogarithms applied spectrally.  The spectrum must
    sit inside (1e-3, 1e3) so every polylog argument stays usable.
    """
    _require_positive(op)
    w = op.eigenvalues
    if w.min() <= 1e-3 or w.max() >= 1e3:
        raise DomainError("fractional_power_dyadic needs the spectrum inside (1e-3, 1e3)")
    if not math.isfinite(s) or s >= 1.0 or abs(s - round(s)) < 1e-12:
        raise DomainError("fractional_power_dyadic requires a finite non-integer s < 1")
    if K < 0 or K > MAX_LEVELS:
        raise DomainError(f"level count must be in [0, {MAX_LEVELS}]")
    ref =op.apply_scalar(lambda t: math.pi * t ** (s - 1.0))
    report = _traced(lambda k: op.apply_scalar(lambda t: math.pi * ramified_partial(s, t, k)),
                     K, max(1, K // 10),
                     lambda approx: float(np.linalg.norm(approx - ref, "fro") / np.linalg.norm(ref, "fro")))
    return report.partial, report


def _require_positive(op: HermitianOperator) -> None:
    w = op.eigenvalues
    if w.min() <= 1e-8 * max(w.max(), 0.0):
        raise DomainError("operator must be positive definite (numerical spectral gap)")


def write_matrix_text(a: np.ndarray, fh: TextIO) -> None:
    """n, then n rows of 2n space-separated decimals (re im interleaved)."""
    a = np.asarray(a, dtype=complex)
    fh.write(f"{a.shape[0]}\n")
    for row in a:
        fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")


def read_matrix_text(fh: TextIO) -> np.ndarray:
    n = int(fh.readline())
    rows = []
    for _ in range(n):
        vals = [float(v) for v in fh.readline().split()]
        if len(vals) != 2 * n:
            raise ValueError("matrix row has wrong length")
        rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(n)])
    return np.array(rows, dtype=complex)
