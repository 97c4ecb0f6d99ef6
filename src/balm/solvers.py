"""Solver steps, the method table and the run driver.

The balanced family decouples the objective from the constraint rows.
Its step has two halves, each written once: a prox on each block at
x_i + A_i^T lam / r_i (PointProducts.prox, which at weight 1 is the
prox the KKT residual has already taken), then one multiplier solve
against s = A(2 x_new - x) - b in a shifted Gram metric, SPD for equality
constraints and an LCP for inequalities (_dual_half).  balanced-alm and
split-balanced are one kernel, _balanced, with the weights (r,) or
r_list; alt-split replaces only block 1's prox; every A x - b is
problems.coupling.  Classic augmented Lagrangian, linearized ALM, a
primal-dual scheme and (linearized) ADMM are included as baselines; their stepsize conditions
are enforced, not assumed, and all but primal-dual end in the same dual
ascent lam - r (A x_new - b) (_dual_ascent).  Each condition, each default stepsize and
each inner FISTA Lipschitz constant reads Problem.gram_norm or
block_gram_norms, a certified upper bound on ||A^T A|| from one
eigensolve of the smaller Gram matrix, so a stepsize inside the
forbidden region is rejected.  Every prox weight, dual shift and
tolerance is a finite positive number (errors.require_positive), every
config scalar one real number, never a bool, str or list
(errors.require_real), every stepsize a finite one, and every iteration
count an integer of at least 1 (errors.require_count).

METHODS holds one MethodSpec per method name: its config from the
shared flags, its checks, dual system, metric, step and recorded
params.  run, the bench helpers and the CLI all read it.  run checks a
method once and then calls only its unchecked kernel.  Every public
step function is the same adapter over the method's row
(_checked_step): the row's check, the point's shapes, then the kernel.
alt_split_step alone also builds block 1's system on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, InnerNoConvergence, UnsupportedCombination, require_count, require_positive, require_real
from .linalg import Metric, SpdFactor, blas_matrix, cholesky_factor, dot_rows, matvec_rows, solve_spd
from .multiplier import MultiplierSystem, build_h0, build_h2, build_hp, solve_equality, solve_lcp
from .problems import (
    PointProducts, PrimalDualPoint, Problem, Sense, SeparableProblem, coupling, default_start, kkt_residual, quadratic_terms,
)
from .prox import Linear, Quadratic, WholeSpace, Zero, contains as _set_contains, prox_constrained


class Method(Enum):
    CLASSIC_ALM = "classic-alm"
    LALM = "lalm"
    PRIMAL_DUAL = "primal-dual"
    ADMM = "admm"
    LINEARIZED_ADMM = "ladmm"


@dataclass(frozen=True)
class BalancedAlmConfig:
    """Parameters of the balanced method: prox weight r, dual shift delta,
    and a relaxation factor alpha (1 = unrelaxed)."""

    method_name: ClassVar[str] = "balanced-alm"
    r: float
    delta: float
    alpha: float = 1.0

    def __post_init__(self):
        require_real(ConfigInvalid, r=self.r, delta=self.delta, alpha=self.alpha)
        require_positive(ConfigInvalid, r=self.r, delta=self.delta)
        if not 0.0 < self.alpha < 2.0:
            raise ConfigInvalid("alpha must lie in the open interval (0, 2)")


@dataclass(frozen=True)
class SplitConfig:
    """Per-block prox weights for the parallel multi-block variant."""

    method_name: ClassVar[str] = "split-balanced"
    r_list: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "r_list", tuple(float(r) for r in self.r_list))
        if not self.r_list:
            raise ConfigInvalid("r_list needs one weight per block")
        require_real(ConfigInvalid, delta=self.delta)
        require_positive(ConfigInvalid, r_list=self.r_list, delta=self.delta)


@dataclass(frozen=True)
class AltSplitConfig:
    """Two-block variant that proxes only the second block; the first block
    is handled through its own regularized normal equations."""

    method_name: ClassVar[str] = "alt-split"
    r: float
    s: float
    delta: float

    def __post_init__(self):
        require_real(ConfigInvalid, r=self.r, s=self.s, delta=self.delta)
        require_positive(ConfigInvalid, r=self.r, s=self.s, delta=self.delta)


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline method selector plus its stepsizes.

    sigma_or_s carries the linearization weight sigma (lalm), the dual
    stepsize s (primal-dual), or the second-block prox weight s (ladmm);
    it is ignored by classic-alm and admm.  sharp_bounds opts into the
    0.75 relaxation of the stepsize condition where the method's METHODS
    row honours it: lalm and ladmm, not primal-dual.
    """

    method: Method
    r: float
    sigma_or_s: float = 0.0
    inner_tol: float = 1e-10
    inner_max_iters: int = 50_000
    sharp_bounds: bool = False

    def __post_init__(self):
        if not isinstance(self.method, Method):
            raise ConfigInvalid(f"unknown method {self.method!r}")
        require_real(ConfigInvalid, r=self.r, sigma_or_s=self.sigma_or_s, inner_tol=self.inner_tol)
        require_positive(ConfigInvalid, r=self.r, inner_tol=self.inner_tol)
        require_count(ConfigInvalid, inner_max_iters=self.inner_max_iters)

    @property
    def method_name(self) -> str:
        return self.method.value


@dataclass(frozen=True)
class StopRule:
    max_iters: int
    kkt_tol: float

    def __post_init__(self):
        require_count(ConfigInvalid, max_iters=self.max_iters)
        require_real(ConfigInvalid, kkt_tol=self.kkt_tol)
        require_positive(ConfigInvalid, kkt_tol=self.kkt_tol)


@dataclass
class RunHistory:
    """Everything a run produced, aligned by iterate index.

    successive_h_steps[k] is the H-norm of the step into iterate k (nan
    at k = 0), between relaxed iterates in a relaxed run; h_distances
    tracks the H-distance to a reference point when one was supplied;
    predictors is populated only by relaxed runs.  run fills both H-norm
    columns after its loop, stacked in blocks of 32 steps; each entry is
    a float with the bits of math.sqrt over its own pair's quad_pair.
    """

    iterates: list
    residuals: list
    successive_h_steps: list
    h_distances: list | None
    predictors: list | None
    metric: Metric
    converged: bool

    def __len__(self) -> int:
        return len(self.iterates)


# ---------------------------------------------------------------------------
# metrics: dense builders and the operators a run measures in


def balanced_metric(a: np.ndarray, r: float, delta: float) -> np.ndarray:
    """The PPA metric [[r I, A^T], [A, (1/r) A A^T + delta I]], split_metric's one-block case."""
    return split_metric([a], [r], delta)


def split_metric(a_list: list, r_list, delta: float) -> np.ndarray:
    """Block-diagonal r_i I over the blocks, bordered by the A_i and the
    multi-block dual metric."""
    a_list = [np.asarray(a, dtype=float) for a in a_list]
    corner = build_hp(list(zip(a_list, r_list)), delta).h
    top = np.diag(np.concatenate([np.full(a_i.shape[1], r_i, dtype=float) for a_i, r_i in zip(a_list, r_list)]))
    a = np.hstack(a_list)
    return np.block([[top, a.T], [a, corner]])


def _block_one_shift(a1: np.ndarray, r: float, delta: float) -> np.ndarray:
    """Alt-split's block-1 term r A1^T A1 + delta I, A1^T A1 symmetrized
    exactly: in its metric and in its block-1 system."""
    g1 = a1.T @ a1
    return r * (0.5 * (g1 + g1.T)) + delta * np.eye(a1.shape[1])


def alt_split_metric(a1: np.ndarray, a2: np.ndarray, r: float, s: float, delta: float) -> np.ndarray:
    """Metric of the prox-one-block variant; the first block carries its
    own Gram regularization r A1^T A1 + delta I."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    corner = build_h2(a2, r, s, delta).h
    n1, n2 = a1.shape[1], a2.shape[1]
    top = np.block([[_block_one_shift(a1, r, delta), np.zeros((n1, n2))], [np.zeros((n2, n1)), s * np.eye(n2)]])
    a = np.hstack([a1, a2])
    return np.block([[top, a.T], [a, corner]])


class BalancedMetric(Metric):
    """Metric of the balanced family: one block (balanced_metric) or
    several (split_metric, which for one block is balanced_metric).

    v^T H v = sum_i (1/r_i) ||r_i dx_i + A_i^T dlam||^2 + delta ||dlam||^2.
    """

    def __init__(self, a_list: list, r_list, delta: float):
        self.a_list = [blas_matrix(a) for a in a_list]
        self.r_list = tuple(r_list)
        self.delta = delta
        if len(self.r_list) != len(self.a_list):
            raise ValueError(f"{len(self.r_list)} prox weights for {len(self.a_list)} blocks")
        require_positive(ValueError, r_list=self.r_list, delta=delta)
        super().__init__(sum(a.shape[1] for a in self.a_list), self.a_list[0].shape[0])

    def _sum_of_squares(self, dx, dlam):
        total, at = self.delta * dot_rows(dlam, dlam), 0
        for a, r in zip(self.a_list, self.r_list):
            u = matvec_rows(a.T, dlam)
            u += r * dx[..., at : at + a.shape[1]]
            total += dot_rows(u, u) / r
            at += a.shape[1]
        return total

    def dense(self):
        return split_metric(self.a_list, self.r_list, self.delta)


class AltSplitMetric(Metric):
    """Metric of the prox-one-block variant (alt_split_metric):

    v^T H v = (1/r) ||r A1 dx1 + dlam||^2 + delta ||dx1||^2
              + (1/s) ||s dx2 + A2^T dlam||^2 + delta ||dlam||^2.
    """

    def __init__(self, a1: np.ndarray, a2: np.ndarray, r: float, s: float, delta: float):
        self.a1 = blas_matrix(a1)
        self.a2 = blas_matrix(a2)
        self.r, self.s, self.delta = r, s, delta
        require_positive(ValueError, r=r, s=s, delta=delta)
        super().__init__(self.a1.shape[1] + self.a2.shape[1], self.a1.shape[0])

    def _sum_of_squares(self, dx, dlam):
        n1 = self.a1.shape[1]
        dx1 = dx[..., :n1]
        u1 = self.r * matvec_rows(self.a1, dx1)
        u1 += dlam
        u2 = matvec_rows(self.a2.T, dlam)
        u2 += self.s * dx[..., n1:]
        return (
            dot_rows(u1, u1) / self.r
            + self.delta * dot_rows(dx1, dx1)
            + dot_rows(u2, u2) / self.s
            + self.delta * dot_rows(dlam, dlam)
        )

    def dense(self):
        return alt_split_metric(self.a1, self.a2, self.r, self.s, self.delta)


class IdentityMetric(Metric):
    """The Euclidean metric the baselines are measured in: v^T v."""

    def _sum_of_squares(self, dx, dlam):
        v = np.concatenate([dx, dlam], axis=-1)
        return dot_rows(v, v)

    def dense(self):
        return np.eye(self.n + self.m)


# ---------------------------------------------------------------------------
# validity checks, each written once as a METHODS row's check(prob, cfg,
# name): run calls it once, before the first step, and a public step
# calls it once per call, through _checked_step


def _require_blocks(prob, label: str, two: bool = False) -> None:
    if not isinstance(prob, SeparableProblem) or two and len(prob.blocks) != 2:
        raise ConfigInvalid(f"{label} needs a {'two-block' if two else 'block-structured'} problem")


def _require_one_block(prob, label: str) -> None:
    if isinstance(prob, SeparableProblem) or not isinstance(prob, Problem):
        raise ConfigInvalid(f"{label} expects a single-block problem (flatten first)")


def _check_split(prob, cfg: SplitConfig, name: str) -> None:
    _require_blocks(prob, name)
    if len(cfg.r_list) != len(prob.blocks):
        raise ConfigInvalid(f"{len(cfg.r_list)} prox weights for {len(prob.blocks)} blocks")


def _check_alt_split(prob, cfg: AltSplitConfig, name: str) -> None:
    _require_blocks(prob, name, two=True)
    blk1 = prob.blocks[0]
    if not isinstance(blk1.x_set, WholeSpace) or not isinstance(blk1.theta, (Quadratic, Linear, Zero)):
        raise UnsupportedCombination("block 1 must be an unconstrained quadratic/linear/zero objective")


def _check_baseline(prob, cfg: BaselineConfig, name: str) -> None:
    """An equality-constrained problem, one block if the method flattens
    and two if not, and the row's stepsize condition, a finite value above
    its bound (0.75 of it with sharp_bounds if the row honours it)."""
    spec = METHODS[name]
    if not spec.flattens:
        _require_blocks(prob, name, two=True)
    else:
        _require_one_block(prob, name)
    if prob.sense is not Sense.EQUALITY:
        raise ConfigInvalid(f"{name} supports equality constraints only")
    if spec.stepsize is not None:
        label, value, bound = spec.stepsize(prob, cfg, 0.75 if cfg.sharp_bounds and spec.sharp_bounds else 1.0)
        if not bound < value < math.inf:
            raise ConfigInvalid(f"{label} = {value} must be finite and exceed {bound}")


def _check_shapes(prob, w: PrimalDualPoint, label: str) -> None:
    if w.x.shape != (prob.n,) or w.lam.shape != (prob.m,):
        raise DimensionMismatch(
            f"{label} point has shapes {w.x.shape}/{w.lam.shape}, expected ({prob.n},)/({prob.m},)"
        )


def _checked_step(name: str, prob, cfg, sys, w: PrimalDualPoint) -> PrimalDualPoint:
    """A public step: the METHODS row's check against its own name, w's
    shapes, then the row's kernel from w."""
    spec = METHODS[name]
    spec.check(prob, cfg, name)
    _check_shapes(prob, w, "step")
    return spec.step(prob, cfg, sys, PointProducts(prob, w)).w


# ---------------------------------------------------------------------------
# steps.  Every method steps through an unchecked kernel
# _name(prob, cfg, [sys,] at), or _balanced(prob, weights, sys, at) for
# the two balanced methods, which maps the current iterate's
# PointProducts to the next one's; run calls only kernels, and name_step
# is _checked_step over the method's row.  primal-dual takes the balanced
# primal half and a scalar dual step.  Matrix-vector products use
# ndarray.dot, which gives @'s bits with less overhead per call.


def _extrapolated(prob, at: PointProducts, x_new: np.ndarray) -> np.ndarray:
    """s = A(2 x_new - x) - b."""
    d = 2.0 * x_new
    d -= at.w.x
    return coupling(prob, d)


def _dual_half(prob, sys: MultiplierSystem, at: PointProducts, parts: list) -> PointProducts:
    """Stack the new blocks into x_new, then solve for the new multiplier
    against s = A(2 x_new - x) - b: the SPD solve for equality constraints,
    the LCP for inequalities."""
    x_new = parts[0] if len(parts) == 1 else np.concatenate(parts)
    solve = solve_equality if prob.sense is Sense.EQUALITY else solve_lcp
    return PointProducts(prob, PrimalDualPoint(x_new, solve(sys, at.w.lam, _extrapolated(prob, at, x_new))))


def _balanced(prob, weights, sys: MultiplierSystem, at: PointProducts) -> PointProducts:
    """The balanced step with one prox weight per block: balanced-alm's
    (r,), split-balanced's r_list."""
    return _dual_half(prob, sys, at, [at.prox(i, r) for i, r in enumerate(weights)])


def balanced_alm_step(prob: Problem, cfg: BalancedAlmConfig, sys: MultiplierSystem, w: PrimalDualPoint) -> PrimalDualPoint:
    """One unrelaxed step: prox at q = x + (1/r) A^T lam, then the dual
    solve against s = A(2 x_new - x) - b."""
    return _checked_step("balanced-alm", prob, cfg, sys, w)


def _relax(w: PrimalDualPoint, pred: PrimalDualPoint, alpha: float) -> PrimalDualPoint:
    if alpha == 1.0:
        return pred
    return PrimalDualPoint(
        w.x - alpha * (w.x - pred.x),
        w.lam - alpha * (w.lam - pred.lam),
    )


def generalized_step(prob: Problem, cfg: BalancedAlmConfig, sys: MultiplierSystem, w: PrimalDualPoint) -> PrimalDualPoint:
    """Relaxed step w - alpha (w - w_pred); alpha = 1 returns the
    predictor itself, bit for bit."""
    return _relax(w, balanced_alm_step(prob, cfg, sys, w), cfg.alpha)


def split_balanced_step(prob: SeparableProblem, cfg: SplitConfig, sys: MultiplierSystem, w: PrimalDualPoint) -> PrimalDualPoint:
    """Parallel per-block proxes, then one shared dual solve."""
    return _checked_step("split-balanced", prob, cfg, sys, w)


@dataclass(frozen=True)
class AltSplitSystem:
    """What an alt-split step solves against: the dual system (build_h2),
    block 1's shift r A1^T A1 + delta I and the factor of P1 + shift."""

    dual: MultiplierSystem
    shift: np.ndarray
    factor: SpdFactor


def _alt_split_system(prob: SeparableProblem, cfg: AltSplitConfig, dual: MultiplierSystem) -> AltSplitSystem:
    blk1 = prob.blocks[0]
    shift = _block_one_shift(blk1.a, cfg.r, cfg.delta)
    return AltSplitSystem(dual, shift, cholesky_factor(shift + quadratic_terms(blk1.theta)[0]))


def _alt_split(prob: SeparableProblem, cfg: AltSplitConfig, sys: AltSplitSystem, at: PointProducts) -> PointProducts:
    """Block 1 from its regularized normal equations, block 2 through the
    primal half with weight s, then the dual half."""
    c1 = quadratic_terms(prob.blocks[0].theta)[1]
    x1_new = solve_spd(sys.factor, at.at_lam(0) - c1 + sys.shift.dot(at.xs[0]))
    return _dual_half(prob, sys.dual, at, [x1_new, at.prox(1, cfg.s)])


def alt_split_step(prob: SeparableProblem, cfg: AltSplitConfig, sys: MultiplierSystem, w: PrimalDualPoint) -> PrimalDualPoint:
    """Two-block step: regularized normal equations for block 1, a prox
    for block 2, then the shared dual solve against sys (build_h2).
    Builds and factors block 1's system on every call, after the check;
    run builds it once, in the METHODS row's system."""
    _check_alt_split(prob, cfg, "alt-split")
    _check_shapes(prob, w, "step")
    return _alt_split(prob, cfg, _alt_split_system(prob, cfg, sys), PointProducts(prob, w)).w


# ---------------------------------------------------------------------------
# baselines


def _fista(theta, x_set, grad, lipschitz: float, x0: np.ndarray, tol: float, cap: int) -> np.ndarray:
    """Accelerated proximal gradient with adaptive restart.

    Stops when the composite optimality residual
    L (y - x_new) + grad(x_new) - grad(y)  (a subgradient of the full
    objective at x_new) drops below tol * (1 + ||x_new||).  Norms are
    sqrt(v . v), np.linalg.norm's value for a 1-d array bit for bit
    (inf once the squares overflow) without its argument handling.
    """
    lip = max(lipschitz, 1e-12)
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    t = 1.0
    for _ in range(cap):
        g_y = grad(y)
        x_new = prox_constrained(theta, x_set, lip, y - g_y / lip)
        back = y - x_new
        opt = lip * back + grad(x_new) - g_y
        if math.sqrt(opt.dot(opt)) <= tol * (1.0 + math.sqrt(x_new.dot(x_new))):
            return x_new
        ahead = x_new - x
        if float(back.dot(ahead)) > 0.0:
            t = 1.0  # momentum points uphill; restart
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * ahead
        x = x_new
        t = t_new
    raise InnerNoConvergence(f"inner solver exceeded {cap} iterations")


def _dual_ascent(prob, cfg: BaselineConfig, at: PointProducts, x_new: np.ndarray) -> PointProducts:
    """The baselines' multiplier update lam - r (A x_new - b); the new
    iterate keeps its A x - b for its KKT residual."""
    resid = coupling(prob, x_new)
    return PointProducts(prob, PrimalDualPoint(x_new, at.w.lam - cfg.r * resid), resid)


def _classic_alm(prob: Problem, cfg: BaselineConfig, at: PointProducts) -> PointProducts:
    r = cfg.r
    d = prob.b + at.w.lam / r
    a = prob.a

    def grad(x):
        return r * a.T.dot(a.dot(x) - d)

    x_new = _fista(prob.theta, prob.x_set, grad, r * prob.gram_norm, at.w.x, cfg.inner_tol, cfg.inner_max_iters)
    return _dual_ascent(prob, cfg, at, x_new)


def classic_alm_step(prob: Problem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Augmented Lagrangian step: inner prox-gradient minimization of
    theta(x) + (r/2)||A x - b - lam/r||^2, then dual ascent."""
    return _checked_step("classic-alm", prob, cfg, None, w)


def _lalm(prob: Problem, cfg: BaselineConfig, at: PointProducts) -> PointProducts:
    w, sigma = at.w, cfg.sigma_or_s
    v = w.x + prob.a.T.dot(w.lam - cfg.r * at.resid()) / sigma
    return _dual_ascent(prob, cfg, at, prox_constrained(prob.theta, prob.x_set, sigma, v))


def lalm_step(prob: Problem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Linearized ALM: prox with weight sigma at the gradient point of the
    augmented term; requires sigma > r ||A^T A|| (0.75 factor when
    sharp_bounds is set)."""
    return _checked_step("lalm", prob, cfg, None, w)


def _primal_dual(prob: Problem, cfg: BaselineConfig, at: PointProducts) -> PointProducts:
    x_new = at.prox(0, cfg.r)
    return PointProducts(prob, PrimalDualPoint(x_new, at.w.lam - _extrapolated(prob, at, x_new) / cfg.sigma_or_s))


def primal_dual_step(prob: Problem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Primal-dual step with the same x-update as the balanced method but
    a scalar dual stepsize 1/s; requires r s > ||A^T A|| (sharp_bounds
    does not relax it)."""
    return _checked_step("primal-dual", prob, cfg, None, w)


def _block_fista(blk, c: np.ndarray, lam: np.ndarray, gram: float, x0: np.ndarray, cfg: BaselineConfig) -> np.ndarray:
    """ADMM block update: minimize theta_i(x) + (r/2)||A_i x - c - lam/r||^2
    over X_i with the inner prox-gradient solver."""
    r = cfg.r
    return _fista(
        blk.theta, blk.x_set, lambda z: blk.a.T.dot(r * (blk.a.dot(z) - c) - lam),
        r * gram, x0, cfg.inner_tol, cfg.inner_max_iters,
    )


def _admm(prob: SeparableProblem, cfg: BaselineConfig, at: PointProducts) -> PointProducts:
    lam = at.w.lam
    blk1, blk2 = prob.blocks
    x1, x2 = at.xs
    g1, g2 = prob.block_gram_norms
    x1_new = _block_fista(blk1, prob.b - blk2.a.dot(x2), lam, g1, x1, cfg)
    x2_new = _block_fista(blk2, prob.b - blk1.a.dot(x1_new), lam, g2, x2, cfg)
    return _dual_ascent(prob, cfg, at, np.concatenate([x1_new, x2_new]))


def admm_step(prob: SeparableProblem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Gauss-Seidel ADMM sweep; both block subproblems go through the
    inner prox-gradient solver."""
    return _checked_step("admm", prob, cfg, None, w)


def _ladmm(prob: SeparableProblem, cfg: BaselineConfig, at: PointProducts) -> PointProducts:
    lam, s = at.w.lam, cfg.sigma_or_s
    blk1, blk2 = prob.blocks
    x1, x2 = at.xs
    x1_new = _block_fista(blk1, prob.b - blk2.a.dot(x2), lam, prob.block_gram_norms[0], x1, cfg)
    q2 = x2 + blk2.a.T.dot(lam - cfg.r * coupling(prob, np.concatenate([x1_new, x2]))) / s
    return _dual_ascent(prob, cfg, at, np.concatenate([x1_new, prox_constrained(blk2.theta, blk2.x_set, s, q2)]))


def ladmm_step(prob: SeparableProblem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """ADMM with a linearized second block: x2 is a single prox with
    weight s; requires s > r ||A2^T A2|| (0.75 factor when sharp)."""
    return _checked_step("ladmm", prob, cfg, None, w)


# ---------------------------------------------------------------------------
# the run driver

_BLOCK = 32  # steps per stacked H-norm form: each stack holds at most 33 x (n + m) floats


def _single_block(prob):
    return prob.flat if isinstance(prob, SeparableProblem) else prob


@dataclass(frozen=True)
class MethodSpec:
    """One row of the method table; the defaults describe a baseline.

    A baseline's params(cfg) are r, sigma_or_s and sharp_bounds, plus
    inner_tol and inner_max_iters each where it is not BaselineConfig's
    default, so a default history keeps its bytes: one rule for all five
    baselines, whether or not the method runs an inner solver.

    config(prob, **flags) builds the config from every flag of
    bench.SOLVER_FLAGS, with validated default stepsizes.
    check(prob, cfg, name) raises for what the method cannot run; run
    calls it once, before the first step, with the row's name.
    A baseline's stepsize(prob, cfg, factor) is its condition as (label,
    value, bound), met when bound < value < inf.  system(prob, cfg) is
    what the step solves against, built once per run: the dual system,
    and for alt-split block 1's factor too.  metric(prob, params(cfg)) is
    the metric of the run and of its replay.  step(prob, cfg, sys, at)
    maps the current iterate's PointProducts to those of the next iterate
    or, when params(cfg) records an alpha other than 1, of the predictor
    that run records and relaxes; it calls the method's unchecked kernel,
    and the method's public step is _checked_step over the row.  The lambdas look kernels, checks and
    builders up in the module when called, so patching one reaches them.
    """

    name: str
    config: Callable
    step: Callable
    check: Callable = lambda prob, cfg, name: _check_baseline(prob, cfg, name)
    stepsize: Callable | None = None
    system: Callable = lambda prob, cfg: None
    params: Callable = lambda cfg: {"r": cfg.r, "sigma_or_s": cfg.sigma_or_s, "sharp_bounds": cfg.sharp_bounds} | {
        name: value
        for name, value in (("inner_tol", cfg.inner_tol), ("inner_max_iters", int(cfg.inner_max_iters)))
        if value != getattr(BaselineConfig, name)
    }
    metric: Callable = lambda prob, params: IdentityMetric(prob.n, prob.m)
    flattens: bool = False  # a SeparableProblem is merged into one block first
    sharp_bounds: bool = False  # the stepsize condition honours BaselineConfig.sharp_bounds

    def problem(self, prob):
        """The problem the method runs on."""
        return _single_block(prob) if self.flattens else prob


def _split_config(prob, r, delta, r_list, **_) -> SplitConfig:
    _require_blocks(prob, "split-balanced")
    return SplitConfig((r,) * len(prob.blocks) if r_list is None else tuple(r_list), delta)


def _ladmm_config(prob, r, s, sharp_bounds, inner_tol, inner_max_iters, **_) -> BaselineConfig:
    _require_blocks(prob, "ladmm", two=True)
    stepsize = s if s is not None else 1.01 * r * prob.block_gram_norms[1]
    return BaselineConfig(Method.LINEARIZED_ADMM, r, stepsize, inner_tol, inner_max_iters, sharp_bounds)


METHODS: dict[str, MethodSpec] = {spec.name: spec for spec in (
    MethodSpec(
        "balanced-alm",
        config=lambda prob, r, delta, alpha, **_: BalancedAlmConfig(r, delta, alpha),
        step=lambda prob, cfg, sys, at: _balanced(prob, (cfg.r,), sys, at),
        check=lambda prob, cfg, name: _require_one_block(prob, name),
        system=lambda prob, cfg: build_h0(prob.a, cfg.r, cfg.delta),
        params=lambda cfg: {"r": cfg.r, "delta": cfg.delta, "alpha": cfg.alpha},
        metric=lambda prob, p: BalancedMetric([prob.a], [p["r"]], p["delta"]),
        flattens=True,
    ),
    MethodSpec(
        "split-balanced",
        config=_split_config,
        step=lambda prob, cfg, sys, at: _balanced(prob, cfg.r_list, sys, at),
        check=_check_split,
        system=lambda prob, cfg: build_hp([(blk.a, r) for blk, r in zip(prob.blocks, cfg.r_list)], cfg.delta),
        params=lambda cfg: {"r_list": list(cfg.r_list), "delta": cfg.delta},
        metric=lambda prob, p: BalancedMetric([blk.a for blk in prob.blocks], p["r_list"], p["delta"]),
    ),
    MethodSpec(
        "alt-split",
        config=lambda prob, r, s, delta, **_: AltSplitConfig(r, s if s is not None else r, delta),
        step=lambda prob, cfg, sys, at: _alt_split(prob, cfg, sys, at),
        check=_check_alt_split,
        system=lambda prob, cfg: _alt_split_system(prob, cfg, build_h2(prob.blocks[1].a, cfg.r, cfg.s, cfg.delta)),
        params=lambda cfg: {"r": cfg.r, "s": cfg.s, "delta": cfg.delta},
        metric=lambda prob, p: AltSplitMetric(prob.blocks[0].a, prob.blocks[1].a, p["r"], p["s"], p["delta"]),
    ),
    MethodSpec(
        "classic-alm",
        config=lambda prob, r, inner_tol, inner_max_iters, **_: BaselineConfig(
            Method.CLASSIC_ALM, r, inner_tol=inner_tol, inner_max_iters=inner_max_iters
        ),
        step=lambda prob, cfg, sys, at: _classic_alm(prob, cfg, at),
        flattens=True,
    ),
    MethodSpec(
        "lalm",
        config=lambda prob, r, sigma, sharp_bounds, **_: BaselineConfig(
            Method.LALM, r, sigma if sigma is not None else 1.01 * r * _single_block(prob).gram_norm,
            sharp_bounds=sharp_bounds,
        ),
        step=lambda prob, cfg, sys, at: _lalm(prob, cfg, at),
        stepsize=lambda prob, cfg, f: ("sigma", cfg.sigma_or_s, f * cfg.r * prob.gram_norm),
        flattens=True,
        sharp_bounds=True,
    ),
    MethodSpec(
        "primal-dual",
        config=lambda prob, r, s, **_: BaselineConfig(
            Method.PRIMAL_DUAL, r, s if s is not None else 1.01 * _single_block(prob).gram_norm / r
        ),
        step=lambda prob, cfg, sys, at: _primal_dual(prob, cfg, at),
        stepsize=lambda prob, cfg, f: ("r*s", cfg.r * cfg.sigma_or_s, f * prob.gram_norm),
        flattens=True,
    ),
    MethodSpec(
        "admm",
        config=lambda prob, r, inner_tol, inner_max_iters, **_: BaselineConfig(
            Method.ADMM, r, inner_tol=inner_tol, inner_max_iters=inner_max_iters
        ),
        step=lambda prob, cfg, sys, at: _admm(prob, cfg, at),
    ),
    MethodSpec(
        "ladmm",
        config=_ladmm_config,
        step=lambda prob, cfg, sys, at: _ladmm(prob, cfg, at),
        stepsize=lambda prob, cfg, f: ("s", cfg.sigma_or_s, f * cfg.r * prob.block_gram_norms[1]),
        sharp_bounds=True,
    ),
)}


def _check_start(prob, w0: PrimalDualPoint) -> PrimalDualPoint:
    _check_shapes(prob, w0, "start")
    if not (np.all(np.isfinite(w0.x)) and np.all(np.isfinite(w0.lam))):
        raise ValueError("start point must be finite")
    if prob.sense is Sense.INEQUALITY and not np.all(w0.lam >= 0):
        raise ValueError("inequality multipliers must start nonnegative")
    for blk, xi in zip(prob.blocks, prob.split(w0.x)):
        if not _set_contains(blk.x_set, xi, tol=1e-12):
            raise ValueError("start point lies outside the primal set")
    return w0


def _h_columns(metric: Metric, iterates: list, reference: PrimalDualPoint | None) -> tuple:
    """(successive_h_steps, h_distances) of a trajectory.  Per block of
    _BLOCK + 1 consecutive iterates, one quad_pair on their stacked steps
    and one on their distances to reference; each row has the bits of its
    own call, and np.sqrt rounds as math.sqrt does."""
    steps, distances = [math.nan], None if reference is None else []
    for start in range(0, len(iterates), _BLOCK):
        block = iterates[start : start + _BLOCK + 1]
        x, lam = np.array([w.x for w in block]), np.array([w.lam for w in block])
        if len(block) > 1:
            steps += np.sqrt(metric.quad_pair(x[:-1] - x[1:], lam[:-1] - lam[1:])).tolist()
        if distances is not None:
            distances += np.sqrt(metric.quad_pair(x[:_BLOCK] - reference.x, lam[:_BLOCK] - reference.lam)).tolist()
    return steps, distances


def run(prob, cfg, stop: StopRule, w0: PrimalDualPoint | None = None, reference: PrimalDualPoint | None = None) -> RunHistory:
    """Iterate until every KKT residual falls below stop.kkt_tol or
    stop.max_iters steps are taken.  Records the full trajectory.

    cfg's METHODS row is checked once, before the first step.  The
    relaxation factor alpha is read from the row's params(cfg), the way a
    replay reads it from the recorded params; at alpha 1 no predictors
    are recorded.  A non-finite KKT residual ends the run at that
    iterate, unconverged, instead of stepping on to stop.max_iters.  Each iterate's A x - b,
    A_i^T lambda and unit-weight proxes (PointProducts) are shared by its
    residual and the step from it, so neither computes one the other has:
    at weight 1 a step's primal half is its residual's prox.

    The loop only steps, relaxes, measures the KKT residual and tests the
    stop.  The H-norm columns are filled after it from the recorded
    iterates (_h_columns): one stacked quad_pair per block of _BLOCK (32)
    steps, and one per block for the distances to reference, each row
    with the bits of its own call.
    """
    spec = METHODS.get(getattr(cfg, "method_name", None))
    if spec is None:
        raise ConfigInvalid(f"unknown config type {type(cfg).__name__}")
    prob = spec.problem(prob)
    spec.check(prob, cfg, spec.name)
    sys = spec.system(prob, cfg)
    params = spec.params(cfg)
    metric = spec.metric(prob, params)
    alpha = params.get("alpha", 1.0)
    w = default_start(prob) if w0 is None else _check_start(prob, w0)
    if reference is not None:
        _check_shapes(prob, reference, "reference")
    at = PointProducts(prob, w)
    iterates = [w]
    residuals = [kkt_residual(prob, w, at)]
    predictors = [] if alpha != 1.0 else None

    worst = residuals[0].max()  # nan if any part is nan: never converged, and the loop stops
    while stop.kkt_tol < worst < math.inf and len(iterates) <= stop.max_iters:
        at = spec.step(prob, cfg, sys, at)
        if predictors is not None:
            predictors.append(at.w)
            at = PointProducts(prob, _relax(w, at.w, alpha))
        w = at.w
        iterates.append(w)
        residuals.append(kkt_residual(prob, w, at))
        worst = residuals[-1].max()
    steps_h, distances = _h_columns(metric, iterates, reference)
    return RunHistory(iterates=iterates, residuals=residuals, successive_h_steps=steps_h, h_distances=distances,
                      predictors=predictors, metric=metric, converged=worst <= stop.kkt_tol)
