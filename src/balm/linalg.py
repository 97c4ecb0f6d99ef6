"""Dense symmetric linear algebra: Cholesky factors, SPD solves, spectral norms.

SPD solves call LAPACK's triangular solve (dtrtrs) directly, with the
arguments scipy.linalg.solve_triangular would pass it, so results match
that route bit for bit without its per-call validation overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

SYMMETRY_TOL = 1e-12
PIVOT_TOL = 1e-14
POWER_TOL = 1e-8
POWER_CAP = 10_000


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of an SPD matrix, M = L L^T."""

    dim: int
    lower: np.ndarray


def cholesky_factor(m: np.ndarray) -> SpdFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Raises NotPositiveDefinite as soon as a pivot falls at or below
    the pivot threshold, so near-semidefinite inputs are rejected
    rather than silently factored.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.abs(m - m.T) <= SYMMETRY_TOL):
        raise ValueError("matrix is not symmetric to within 1e-12")
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= PIVOT_TOL:
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at column {j}")
        ljj = math.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < n:
            lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / ljj
    return SpdFactor(dim=n, lower=lower)


def solve_spd(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve M y = rhs given the Cholesky factor of M.

    Two LAPACK triangular solves, L z = rhs then L^T y = z, each given
    the Fortran-ordered view of its triangle exactly as
    scipy.linalg.solve_triangular would give it, so the result is the
    same bit for bit for C- and F-ordered factors alike.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (factor.dim,):
        raise DimensionMismatch(f"rhs has shape {rhs.shape}, factor dim is {factor.dim}")
    if factor.dim == 0:
        return rhs.copy()
    z = _solve_triangular(factor.lower, rhs, lower=True)
    return _solve_triangular(factor.lower.T, z, lower=False)


def _solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """a x = b for triangular a; a C-ordered a is passed transposed."""
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dtrtrs")
    return x


def spectral_norm_sq(a: np.ndarray, tol: float = POWER_TOL, max_iters: int = POWER_CAP) -> float:
    """Largest eigenvalue of A^T A (the squared spectral norm of A).

    Power iteration on the Gram matrix, stopped when the Rayleigh
    quotient is stable to a relative tol.  The starting vector comes
    from a fixed-seed generator so repeated calls agree bit for bit.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    if not np.any(a):
        raise ValueError("matrix must be nonzero")
    gram = a.T @ a
    gram = 0.5 * (gram + gram.T)
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    estimate = float(v @ gram @ v)
    for _ in range(max_iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # started inside the nullspace; re-draw deterministically
            v = rng.standard_normal(gram.shape[0])
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        new = float(v @ gram @ v)
        if abs(new - estimate) <= tol * abs(new):
            return new
        estimate = new
    raise NoConvergence(f"power iteration did not stabilize in {max_iters} iterations")


def h_quadratic(h: np.ndarray, v: np.ndarray) -> float:
    """Quadratic form v^T H v; H is assumed symmetric."""
    h = np.asarray(h, dtype=float)
    v = np.asarray(v, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    if v.shape != (h.shape[0],):
        raise DimensionMismatch(f"vector shape {v.shape} does not match matrix dim {h.shape[0]}")
    return float(v @ (h @ v))
