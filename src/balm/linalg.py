"""Dense symmetric linear algebra: Cholesky factors, SPD solves, spectral
norms, and the quadratic form of a metric given densely or as an operator.
The products behind the form (matvec_rows, dot_rows) also take a stack
of vectors, one per row, and give each row the bits of its own product.

Every Cholesky factor is one call of LAPACK's dpotrf, and SPD solves
call its triangular solve (dtrtrs) directly, with the arguments
scipy.linalg.solve_triangular would pass it, so results match that route
bit for bit without its per-call validation overhead; each SpdFactor
picks those arguments for its two triangles once, when it is built.
The bound on ||A^T A|| that the stepsize conditions read calls LAPACK's
symmetric eigensolver (dsyevd) the same way, and the multiplier module's
active-set solves take dpotrf and dpotrs from here.

These four routines are the f2py functions of scipy's LAPACK extension,
scipy/linalg/_flapack, the very objects scipy.linalg.lapack re-exports.
The extension is loaded from its file (_load_flapack), so importing balm
does not run the scipy.linalg package's init, which with scipy 1.17 on a
2-vCPU x86-64 host adds about 24 MB of peak resident memory and 0.2-0.3 s
to every process.  The module is registered under its own name, so a
later `import scipy.linalg` reuses it and scipy.linalg.lapack re-exports
the same objects; only the attribute scipy.linalg._flapack is then
unset, as the package did not load it (`from scipy.linalg import
_flapack` still finds it).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

SYMMETRY_TOL = 1e-12
PIVOT_TOL = 1e-14
POWER_TOL = 1e-8
POWER_CAP = 10_000
GRAM_MARGIN = 4.0
EPS = float(np.finfo(float).eps)
SCALE_EXPONENT = 256  # |log2 max|a_ij|| beyond which gram_norm_bound rescales
_FLAPACK = "scipy.linalg._flapack"


def _load_flapack(folder: str = os.path.join(scipy.__path__[0], "linalg")):
    """scipy's f2py LAPACK module, loaded from its extension file in
    folder (scipy/linalg by default) and registered under its own name.

    A module already imported under that name is reused.  Where no file
    in folder will load, this imports scipy.linalg.lapack, which
    re-exports the same functions.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        spec = importlib.util.spec_from_file_location(_FLAPACK, os.path.join(folder, "_flapack" + suffix))
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:  # no such file, or one that will not load
            continue
        sys.modules[_FLAPACK] = module
        return module
    from scipy.linalg import lapack

    return lapack


_flapack = _load_flapack()
dpotrf, dpotrs, dsyevd, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dsyevd, _flapack.dtrtrs


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of an SPD matrix, M = L L^T.

    The dtrtrs arguments for L and for L^T are chosen here, once, by
    _dtrtrs_arguments, so each solve is two LAPACK calls.
    """

    dim: int
    lower: np.ndarray
    _forward: tuple = field(init=False, repr=False, compare=False)
    _backward: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_forward", _dtrtrs_arguments(self.lower, True))
        object.__setattr__(self, "_backward", _dtrtrs_arguments(self.lower.T, False))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M y = rhs for a float vector rhs of length dim, unchecked: L z = rhs
        then L^T y = z, one dtrtrs call each (a 0 x 0 factor copies rhs)."""
        if not self.dim:
            return rhs.copy()
        a, lower, trans = self._forward
        z, info = dtrtrs(a, rhs, lower, trans)
        if info:
            _dtrtrs_failed(info)
        a, lower, trans = self._backward
        y, info = dtrtrs(a, z, lower, trans)
        if info:
            _dtrtrs_failed(info)
        return y


def cholesky_factor(m: np.ndarray) -> SpdFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    m must be square and symmetric to within SYMMETRY_TOL (a non-finite
    entry fails that test).  Its lower triangle goes to one LAPACK dpotrf
    call, given as the upper triangle of the Fortran-ordered m^T, so the
    factor comes back as U = L^T in Fortran order and L is its C-ordered
    transpose, the layout solve_spd hands to dtrtrs without a copy.

    Raises NotPositiveDefinite naming the first column j whose pivot
    L_jj^2 is at or below PIVOT_TOL, so near-semidefinite inputs are
    rejected rather than silently factored.  dpotrf itself stops only at
    a pivot <= 0 (info > 0); the diagonal before that column is scanned
    first, and a pivot there in (0, PIVOT_TOL] is the one reported.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.abs(m - m.T) <= SYMMETRY_TOL):
        raise ValueError("matrix is not symmetric to within 1e-12")
    n = m.shape[0]
    upper, info = dpotrf(m.T, lower=0, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
    stop = info - 1 if info else n
    pivots = np.square(upper.diagonal()[:stop])
    low = np.flatnonzero(pivots <= PIVOT_TOL)
    if low.size:
        raise NotPositiveDefinite(f"pivot {pivots[low[0]]:.3e} at column {low[0]}")
    if info:
        column = upper[:stop, stop]
        raise NotPositiveDefinite(f"pivot {m[stop, stop] - column @ column:.3e} at column {stop}")
    return SpdFactor(dim=n, lower=upper.T)


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
    return factor.solve(rhs)


def _dtrtrs_arguments(a: np.ndarray, lower: bool) -> tuple:
    """(matrix, lower, trans) for dtrtrs to solve a x = b, triangular a,
    as scipy.linalg.solve_triangular passes them: a Fortran-ordered a as
    it is, any other a transposed."""
    if a.flags.f_contiguous:
        return a, lower, 0
    return a.T, not lower, 1


def _dtrtrs_failed(info: int):
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    raise ValueError(f"illegal value in argument {-info} of LAPACK dtrtrs")


def gram_norm_bound(a: np.ndarray) -> float:
    """A certified upper bound on ||A^T A||, the squared spectral norm of A.

    The smaller Gram matrix (A A^T when m <= n, else A^T A) has the same
    largest eigenvalue; LAPACK dsyevd computes its eigenvalues without
    vectors, and a rounding margin of GRAM_MARGIN (m + n) eps ||A||_F^2
    lifts the top one above the exact value.  A matrix whose largest
    entry lies outside 2^+-SCALE_EXPONENT is first scaled by the power of
    two that brings that entry into [1/2, 1).  The scaling is exact but
    for entries below 2^-1021 times the largest, whose rounding the margin
    absorbs, and the result is rounded up when scaled back, so the bound
    is finite whenever ||A||^2 is representable, +inf when it overflows,
    and the smallest positive float when it underflows.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    peak = max(float(a.max()), -float(a.min())) if a.size else 0.0
    if not math.isfinite(peak):
        raise ValueError("matrix has non-finite entries")
    if peak == 0.0:
        raise ValueError("matrix must be nonzero")
    exponent = math.frexp(peak)[1]
    if abs(exponent) <= SCALE_EXPONENT:
        return _gram_top_eigenvalue_bound(a)
    scaled = _gram_top_eigenvalue_bound(np.ldexp(a, -exponent))
    try:
        bound = math.ldexp(scaled, 2 * exponent)
    except OverflowError:
        return math.inf
    if math.ldexp(bound, -2 * exponent) < scaled:
        bound = math.nextafter(bound, math.inf)  # rounded down into the subnormals
    return bound


def _gram_top_eigenvalue_bound(a: np.ndarray) -> float:
    """Top eigenvalue of the smaller Gram plus the rounding margin below."""
    m, n = a.shape
    gram = a @ a.T if m <= n else a.T @ a
    frobenius_sq = float(np.trace(gram))
    # The Gram is symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK wants, and dsyevd overwrites it without a copy.
    eigenvalues, _, info = dsyevd(gram.T, compute_v=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dsyevd")
    if info > 0:
        raise NoConvergence(f"LAPACK dsyevd did not converge ({info} off-diagonal elements)")
    # Rounding margin, with u = eps / 2, k = max(m, n) the length of each
    # inner product and j = min(m, n) the order of the Gram:
    # - the computed Gram G^ satisfies |G^ - G| <= gamma_k |A||A|^T entrywise
    #   (gamma_k = k u / (1 - k u)), and || |A||A|^T ||_2 <= ||A||_F^2, so
    #   ||G^ - G||_2 <= gamma_k ||A||_F^2;
    # - dsyevd's eigenvalues are exact for G^ + E with ||E||_2 <= p(j) u ||G^||_2,
    #   p(j) a modest multiple of j, and ||G^||_2 <= (1 + gamma_k) ||A||_F^2;
    # - by Weyl, |lambda^ - ||A||_2^2| <= (k + p(j)) u ||A||_F^2 to first order.
    # GRAM_MARGIN (m + n) eps = 8 (k + j) u covers that for p(j) up to about
    # 6 j, with room for trace(G^) standing in for ||A||_F^2 (it is within
    # gamma_k of it) and for the rounding of the final sum.
    return float(eigenvalues[-1]) + GRAM_MARGIN * (m + n) * EPS * frobenius_sq


def spectral_norm_sq(a: np.ndarray, tol: float = POWER_TOL, max_iters: int = POWER_CAP) -> float:
    """Power-iteration estimate of the largest eigenvalue of A^T A.

    Power iteration on the n x n Gram matrix, stopped when the Rayleigh
    quotient is stable to a relative tol.  The quotient approaches the
    eigenvalue from below, so the estimate can fall short of it by more
    than tol; the library reads gram_norm_bound instead, and this stays
    for callers that want the estimate.  The starting vector comes from a
    fixed-seed generator so repeated calls agree bit for bit.
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


def blas_matrix(a) -> np.ndarray:
    """a as a float array in C or F order, the layouts BLAS reads in
    place; a strided view (a column slice, say) is copied to C order.

    For a strided matrix numpy's .dot takes one dot per row and
    np.matmul a loop of its own, and the two differ in bits.  So every
    matrix that a problem, objective or metric keeps passes through
    here, and matvec_rows only ever sees the orders where they agree.
    """
    a = np.asarray(a, dtype=float)
    return a if a.flags.c_contiguous or a.flags.f_contiguous else np.ascontiguousarray(a)


def matvec_rows(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v for one vector v, or for each vector along a stack's last axis.

    A stack is one np.matmul over (..., d, 1) matrices, which numpy runs
    as one BLAS matrix-vector call per row, the call that a @ row and
    a.dot(row) make for a C- or F-ordered a (blas_matrix), so each row
    has their bits.  One vector takes a.dot, which costs less than a
    stack of one, unless a is 1 x 1: .dot then multiplies as scalars,
    which keeps a -0.0 that BLAS's sum from +0.0 turns into +0.0.
    """
    return a.dot(v) if v.ndim == 1 and a.size > 1 else np.matmul(a, v[..., None])[..., 0]


def dot_rows(u: np.ndarray, v: np.ndarray):
    """u . v as a float for two vectors, or per row along the last axis
    of a stack (either side may be one vector, broadcast to every row).

    A stack is one np.matmul over (..., 1, d) @ (..., d, 1), one BLAS dot
    per row with u @ v's bits.  Two vectors take .dot, plus 0.0: .dot
    multiplies vectors of length 1 as scalars and keeps a -0.0 product,
    which BLAS's sum from +0.0 (and so u @ v) gives as +0.0.
    """
    return float(u.dot(v)) + 0.0 if u.ndim == v.ndim == 1 else np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _nonfinite_rows(dx: np.ndarray, dlam: np.ndarray):
    return ~(np.isfinite(dx).all(axis=-1) & np.isfinite(dlam).all(axis=-1))


def _check_vectors(v: np.ndarray, dim: int, what: str) -> None:
    """v is one vector of length dim or a stack of them along its last axis."""
    if v.ndim < 1 or v.shape[-1] != dim:
        raise DimensionMismatch(f"vector shape {v.shape} does not match {what} dim {dim}")


class Metric:
    """A symmetric positive semidefinite metric H on stacked (x, lam)
    vectors, held as an operator: each family states v^T H v as a sum of
    squares that costs O(mn) and never forms the (n + m)^2 matrix.

    dense() builds the matrix itself, and numpy reads the operator as
    that matrix (np.asarray, np.array_equal).  A difference with a
    non-finite entry has quadratic form nan, as h_quadratic gives with
    the identity matrix.  The sums of squares never go negative, so the
    H-norm is their plain square root.

    Every form also takes a stack of vectors, one per row along the last
    axis, and gives one value per row, each with the bits of that row's
    own call (matvec_rows, dot_rows).
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m

    @property
    def shape(self) -> tuple:
        return (self.n + self.m, self.n + self.m)

    def quad(self, v: np.ndarray):
        """v^T H v for a stacked vector v = (dx, dlam), or per row of a stack of them."""
        v = np.asarray(v, dtype=float)
        _check_vectors(v, self.n + self.m, "metric")
        return self.quad_pair(v[..., : self.n], v[..., self.n :])

    def quad_pair(self, dx: np.ndarray, dlam: np.ndarray):
        """v^T H v for v = (dx, dlam), read without stacking; per row for stacks."""
        q = self._sum_of_squares(dx, dlam)
        if dx.ndim > 1:
            q[(q == math.inf) & _nonfinite_rows(dx, dlam)] = math.nan
            return q
        return math.nan if q == math.inf and _nonfinite_rows(dx, dlam) else q

    def _sum_of_squares(self, dx: np.ndarray, dlam: np.ndarray):
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        raise NotImplementedError

    def __array__(self, dtype=None, copy=None):
        h = self.dense()
        return h if dtype is None else h.astype(dtype, copy=False)


def h_quadratic(h, v: np.ndarray):
    """Quadratic form v^T H v; H is a Metric operator or a symmetric matrix.
    A stack of vectors, one per row along the last axis, gives an array
    of forms with each row's bits."""
    if isinstance(h, Metric):
        return h.quad(v)
    h = blas_matrix(h)
    v = np.asarray(v, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    _check_vectors(v, h.shape[0], "matrix")
    return dot_rows(v, matvec_rows(h, v))
