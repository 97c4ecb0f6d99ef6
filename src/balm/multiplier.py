"""Multiplier-update systems: SPD solves and a certified LCP solve.

The dual metric is a shifted Gram matrix of the constraint rows; it is
positive definite for any shift delta > 0, so one Cholesky factor per
run covers every iteration.  Inequality constraints turn the multiplier
update into a small LCP in that metric: a primal-dual active-set
(semismooth Newton) phase, warm-started on the support of the previous
multiplier, usually settles it in one free-block Cholesky solve; projected
Gauss-Seidel takes over whenever that phase does not certify.

The free set moves little from one iteration to the next, so each
system keeps the factors of the FREE_FACTORS_KEPT free blocks its
active-set phase used last, keyed by the free mask: a block seen again
goes to the solve without being gathered or factored.  On nonneg_qp_ineq
at 30 x 60 (seeds 1-32) and 200 x 400 (seeds 1-3), at alpha 1 and 1.5,
four caught every repeat that an unbounded cache caught, and the bound
holds a system's cache to 4 m^2 floats however long the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoConvergence, require_positive
from .linalg import SpdFactor, cholesky_factor, dpotrf, dpotrs, solve_spd

LCP_TOL = 1e-9
LCP_SWEEP_CAP = 10_000
FREE_FACTORS_KEPT = 4


@dataclass(frozen=True)
class MultiplierSystem:
    """Constant dual metric H and its Cholesky factor, with the read-only
    factors of the free blocks that solve_lcp used last, the latest last."""

    h: np.ndarray
    factor: SpdFactor
    free_factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.factor.dim


def _system(scaled: list, shift: float, **weights) -> MultiplierSystem:
    """The shifted Gram H = sum_i (1/r_i) A_i A_i^T + shift I of the
    (A_i, r_i) pairs in scaled, symmetrized exactly, and its factor.
    Blocks that disagree on the row count raise DimensionMismatch.  A
    Gram that overflows, a weight so small that its reciprocal scales
    A A^T (or I) past the float range, raises ValueError naming the
    weights, rather than failing the factor's symmetry test on the inf
    and nan it would hold."""
    m = scaled[0][0].shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.zeros((m, m))
        for a, r in scaled:
            if a.shape[0] != m:
                raise DimensionMismatch("blocks disagree on the constraint row count")
            h += (a @ a.T) / r
        h += shift * np.eye(m)
        h = 0.5 * (h + h.T)
    if not np.isfinite(h).all():
        named = ", ".join(f"{name} = {value}" for name, value in weights.items())
        raise ValueError(f"the dual metric overflows at {named}: it scales by each weight's reciprocal")
    return MultiplierSystem(h=h, factor=cholesky_factor(h))


def build_h0(a: np.ndarray, r: float, delta: float) -> MultiplierSystem:
    """Single-block dual metric (1/r) A A^T + delta I."""
    require_positive(ValueError, r=r, delta=delta)
    return _system([(np.asarray(a, dtype=float), r)], delta, r=r)


def build_hp(scaled_blocks: list, delta: float) -> MultiplierSystem:
    """Multi-block dual metric sum_i (1/r_i) A_i A_i^T + delta I.

    scaled_blocks is a list of (A_i, r_i) pairs.
    """
    require_positive(ValueError, delta=delta)
    if not scaled_blocks:
        raise DimensionMismatch("at least one block is required")
    require_positive(ValueError, r_list=[r for _, r in scaled_blocks])
    weights = {f"r_list[{i}]": r for i, (_, r) in enumerate(scaled_blocks)}
    return _system([(np.asarray(a, dtype=float), r) for a, r in scaled_blocks], delta, **weights)


def build_h2(a2: np.ndarray, r: float, s: float, delta: float) -> MultiplierSystem:
    """Dual metric (1/s) A2 A2^T + (1/r + delta) I for the two-block variant."""
    require_positive(ValueError, r=r, s=s, delta=delta)
    with np.errstate(over="ignore"):
        shift = 1.0 / r + delta
    return _system([(np.asarray(a2, dtype=float), s)], shift, r=r, s=s)


def solve_equality(sys: MultiplierSystem, lam_k: np.ndarray, s_k: np.ndarray) -> np.ndarray:
    """Solve H (lam - lam_k) = -s_k for the unconstrained multiplier update."""
    return lam_k - solve_spd(sys.factor, s_k)


def _active_set(h: np.ndarray, lam_k: np.ndarray, s_k: np.ndarray, max_steps: int, factors: dict | None = None):
    """Primal-dual active-set steps on 0 <= lam  perp  H lam + c >= 0,
    c = s_k - H lam_k, starting from the free set {lam_k > 0}.

    Each step zeroes lam off the free set F, solves H_FF lam_F = -c_F
    and moves to F' = {lam - y > 0} with y = H lam + c.  Returns the
    clipped lam once F' repeats F, or None when it did not within
    max_steps or the free block would not factor, together with the
    number of steps taken.

    The free block H_FF is taken by two boolean indexings, h[F][:, F],
    which copy the same entries as np.ix_ at less per-call cost, and goes
    straight to LAPACK's Cholesky factor and solve (dpotrf, dpotrs) with
    the arguments scipy.linalg.cho_factor and cho_solve would pass, so
    the steps match that route bit for bit; dpotrf's info > 0 (a leading
    minor not positive definite) is the give-up that cho_factor reports
    as LinAlgError.

    Each step reads its free mask once, as bytes: that key tells whether
    F is empty, whether F' repeats F, and which factor in factors (a
    system's free_factors) is H_FF's.  A block found there is solved with
    that very factor object, so every lam keeps its bits.  Each factor is
    read-only; the one just used goes to the end of factors, and past
    FREE_FACTORS_KEPT the least recently used is dropped.  A give-up is
    never kept.  Without factors the call keeps its own, for its steps
    alone.
    """
    if factors is None:
        factors = {}
    c = s_k - h @ lam_k
    m = c.shape[0]
    none_free = bytes(m)
    free = lam_k > 0.0
    key = free.tobytes()
    for step in range(1, max_steps + 1):
        lam = np.zeros(m)
        if key != none_free:
            factor = factors.pop(key, None)
            info = 0
            if factor is None:
                factor, info = dpotrf(h[free][:, free], lower=1, clean=0)
                if info > 0:
                    return None, step
                factor.flags.writeable = False
            lam_free, solve_info = dpotrs(factor, -c[free], lower=1)
            if info or solve_info:
                raise ValueError(f"illegal LAPACK argument (dpotrf info {info}, dpotrs info {solve_info})")
            factors[key] = factor  # the most recently used last
            if len(factors) > FREE_FACTORS_KEPT:
                del factors[next(iter(factors))]
            lam[free] = lam_free
        y = h @ lam + c
        free = lam - y > 0.0
        new_key = free.tobytes()
        if new_key == key:
            return np.maximum(lam, 0.0), step
        key = new_key
    return None, max_steps


def _refused(name: str) -> NoConvergence:
    return NoConvergence(f"the LCP solve refuses {name} with a non-finite entry: no multiplier certifies against it")


def solve_lcp(
    sys: MultiplierSystem,
    lam_k: np.ndarray,
    s_k: np.ndarray,
    tol: float = LCP_TOL,
    max_sweeps: int = LCP_SWEEP_CAP,
) -> np.ndarray:
    """Solve 0 <= lam  perp  H (lam - lam_k) + s_k >= 0.

    A result is returned only once the complementarity certificate
    holds: y >= -tol componentwise and |lam . y| <= tol * (1 + ||s_k||).
    First up to m + 1 primal-dual active-set steps run, warm-started on
    the support of lam_k, each a Cholesky solve on the free block.  If
    the free set does not repeat, the block will not factor or the
    result fails the certificate, projected Gauss-Seidel takes over from
    max(lam_k, 0), sweeping coordinates in ascending order.  max_sweeps
    caps active-set steps and Gauss-Seidel sweeps together.

    An s_k or lam_k with an inf or nan entry raises NoConvergence at
    once, naming it: no lam certifies against it, and the sweeps would
    only spend max_sweeps finding that out.
    """
    m = sys.m
    s_k = np.asarray(s_k, dtype=float)
    if s_k.shape != (m,):
        raise DimensionMismatch(f"s_k has shape {s_k.shape}, system dim is {m}")
    lam_k = np.asarray(lam_k, dtype=float)
    s_sq = s_k.dot(s_k)
    # s_k . s_k is finite for every finite s_k but one whose squares overflow
    if not (math.isfinite(s_sq) or np.isfinite(s_k).all()):
        raise _refused("s_k")
    if not np.isfinite(lam_k).all():
        raise _refused("lam_k")
    h = sys.h
    comp_tol = tol * (1.0 + math.sqrt(s_sq))  # np.linalg.norm, bit for bit

    def certified(lam):
        y = h @ (lam - lam_k) + s_k
        return float(np.minimum.reduce(y)) >= -tol and abs(float(lam @ y)) <= comp_tol

    lam, steps = _active_set(h, lam_k, s_k, min(m + 1, max_sweeps), sys.free_factors)
    if lam is not None and certified(lam):
        return lam
    diag = np.diag(h)
    lam = np.maximum(lam_k, 0.0)
    for _ in range(max_sweeps - steps):
        for i in range(m):
            y_i = h[i] @ (lam - lam_k) + s_k[i]
            lam[i] = max(0.0, lam[i] - y_i / diag[i])
        if certified(lam):
            return lam
    raise NoConvergence(f"the LCP solve did not certify in {max_sweeps} steps and sweeps")
