"""Solver steps and the run driver.

The balanced family decouples the objective from the constraint rows:
the x-update is a plain prox at q = x + (1/r) A^T lam, and the
multiplier update solves a small SPD system (or an LCP for inequality
constraints) in a shifted Gram metric.  Classic augmented Lagrangian,
linearized ALM, a primal-dual scheme and (linearized) ADMM are
included as baselines; their stepsize conditions are enforced, not
assumed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    InnerNoConvergence,
    UnsupportedCombination,
)
from .linalg import Metric, cholesky_factor, solve_spd
from .multiplier import MultiplierSystem, build_h0, build_h2, build_hp, solve_equality, solve_lcp
from .problems import (
    PrimalDualPoint,
    Problem,
    Sense,
    SeparableProblem,
    default_start,
    flatten_blocks,
    kkt_residual,
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

    r: float
    delta: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.r > 0 and self.delta > 0):
            raise ConfigInvalid("r and delta must be positive")
        if not 0.0 < self.alpha < 2.0:
            raise ConfigInvalid("alpha must lie in the open interval (0, 2)")


@dataclass(frozen=True)
class SplitConfig:
    """Per-block prox weights for the parallel multi-block variant."""

    r_list: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "r_list", tuple(float(r) for r in self.r_list))
        if not self.r_list or not all(r > 0 for r in self.r_list):
            raise ConfigInvalid("every r_i must be positive")
        if not self.delta > 0:
            raise ConfigInvalid("delta must be positive")


@dataclass(frozen=True)
class AltSplitConfig:
    """Two-block variant that proxes only the second block; the first block
    is handled through its own regularized normal equations."""

    r: float
    s: float
    delta: float

    def __post_init__(self):
        if not (self.r > 0 and self.s > 0 and self.delta > 0):
            raise ConfigInvalid("r, s and delta must be positive")


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline method selector plus its stepsizes.

    sigma_or_s carries the linearization weight sigma (lalm), the dual
    stepsize s (primal-dual), or the second-block prox weight s (ladmm);
    it is ignored by classic-alm and admm.  sharp_bounds opts into the
    0.75 relaxation of the lalm/ladmm stepsize conditions.
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
        if not self.r > 0:
            raise ConfigInvalid("r must be positive")
        if not self.inner_tol > 0:
            raise ConfigInvalid("inner_tol must be positive")
        if self.inner_max_iters < 1:
            raise ConfigInvalid("inner_max_iters must be at least 1")


@dataclass(frozen=True)
class StopRule:
    max_iters: int
    kkt_tol: float

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigInvalid("max_iters must be at least 1")
        if not self.kkt_tol > 0:
            raise ConfigInvalid("kkt_tol must be positive")


@dataclass
class RunHistory:
    """Everything a run produced, aligned by iterate index.

    successive_h_steps[k] is the H-norm of the step into iterate k (nan
    at k = 0); h_distances tracks the H-distance to a reference point
    when one was supplied; predictors is populated only by relaxed runs.
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
    """The PPA metric [[r I, A^T], [A, (1/r) A A^T + delta I]]."""
    a = np.asarray(a, dtype=float)
    corner = build_h0(a, r, delta).h
    return np.block([[r * np.eye(a.shape[1]), a.T], [a, corner]])


def split_metric(a_list: list, r_list, delta: float) -> np.ndarray:
    """Block-diagonal r_i I over the blocks, bordered by the A_i and the
    multi-block dual metric."""
    a_list = [np.asarray(a, dtype=float) for a in a_list]
    corner = build_hp(list(zip(a_list, r_list)), delta).h
    rows = []
    for i, (a_i, r_i) in enumerate(zip(a_list, r_list)):
        n_i = a_i.shape[1]
        row = [
            r_i * np.eye(n_i) if j == i else np.zeros((n_i, a_j.shape[1]))
            for j, a_j in enumerate(a_list)
        ]
        row.append(a_i.T)
        rows.append(row)
    rows.append(a_list + [corner])
    return np.block(rows)


def alt_split_metric(a1: np.ndarray, a2: np.ndarray, r: float, s: float, delta: float) -> np.ndarray:
    """Metric of the prox-one-block variant; the first block carries its
    own Gram regularization r A1^T A1 + delta I."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    corner = build_h2(a2, r, s, delta).h
    n1, n2 = a1.shape[1], a2.shape[1]
    g1 = a1.T @ a1
    g1 = 0.5 * (g1 + g1.T)
    return np.block(
        [
            [r * g1 + delta * np.eye(n1), np.zeros((n1, n2)), a1.T],
            [np.zeros((n2, n1)), s * np.eye(n2), a2.T],
            [a1, a2, corner],
        ]
    )


class BalancedMetric(Metric):
    """Metric of the balanced family: one block (balanced_metric) or
    several (split_metric, which for one block is balanced_metric).

    v^T H v = sum_i (1/r_i) ||r_i dx_i + A_i^T dlam||^2 + delta ||dlam||^2.
    """

    def __init__(self, a_list: list, r_list, delta: float):
        self.a_list = [np.asarray(a, dtype=float) for a in a_list]
        self.r_list = tuple(r_list)
        self.delta = delta
        if not (delta > 0 and all(r > 0 for r in self.r_list)):
            raise ValueError("r and delta must be positive")
        super().__init__(sum(a.shape[1] for a in self.a_list), self.a_list[0].shape[0])

    def _sum_of_squares(self, dx, dlam):
        total, at = self.delta * float(dlam.dot(dlam)), 0
        for a, r in zip(self.a_list, self.r_list):
            u = a.T.dot(dlam)
            u += r * dx[at : at + a.shape[1]]
            total += float(u.dot(u)) / r
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
        self.a1 = np.asarray(a1, dtype=float)
        self.a2 = np.asarray(a2, dtype=float)
        self.r, self.s, self.delta = r, s, delta
        if not (r > 0 and s > 0 and delta > 0):
            raise ValueError("r, s and delta must be positive")
        super().__init__(self.a1.shape[1] + self.a2.shape[1], self.a1.shape[0])

    def _sum_of_squares(self, dx, dlam):
        n1 = self.a1.shape[1]
        dx1 = dx[:n1]
        u1 = self.r * self.a1.dot(dx1)
        u1 += dlam
        u2 = self.a2.T.dot(dlam)
        u2 += self.s * dx[n1:]
        return (
            float(u1.dot(u1)) / self.r
            + self.delta * float(dx1.dot(dx1))
            + float(u2.dot(u2)) / self.s
            + self.delta * float(dlam.dot(dlam))
        )

    def dense(self):
        return alt_split_metric(self.a1, self.a2, self.r, self.s, self.delta)


class IdentityMetric(Metric):
    """The Euclidean metric the baselines are measured in: v^T v."""

    def _sum_of_squares(self, dx, dlam):
        v = np.concatenate([dx, dlam])
        return float(v @ v)

    def dense(self):
        return np.eye(self.n + self.m)


# ---------------------------------------------------------------------------
# balanced family steps


def _dual_update(sense: Sense, sys: MultiplierSystem, lam, s_k):
    if sense is Sense.EQUALITY:
        return solve_equality(sys, lam, s_k)
    return solve_lcp(sys, lam, s_k)


def balanced_alm_step(prob: Problem, cfg: BalancedAlmConfig, sys: MultiplierSystem, w: PrimalDualPoint) -> PrimalDualPoint:
    """One unrelaxed step: prox at q = x + (1/r) A^T lam, then the dual
    solve against s = A(2 x_new - x) - b."""
    q = w.x + (prob.a.T @ w.lam) / cfg.r
    x_new = prox_constrained(prob.theta, prob.x_set, cfg.r, q)
    s_k = prob.a @ (2.0 * x_new - w.x) - prob.b
    lam_new = _dual_update(prob.sense, sys, w.lam, s_k)
    return PrimalDualPoint(x_new, lam_new)


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
    if len(cfg.r_list) != len(prob.blocks):
        raise ConfigInvalid(f"{len(cfg.r_list)} prox weights for {len(prob.blocks)} blocks")
    xs = prob.split(w.x)
    s_acc = np.zeros(prob.m)
    new_xs = []
    for blk, xi, r_i in zip(prob.blocks, xs, cfg.r_list):
        q_i = xi + (blk.a.T @ w.lam) / r_i
        xi_new = prox_constrained(blk.theta, blk.x_set, r_i, q_i)
        new_xs.append(xi_new)
        s_acc += blk.a @ (2.0 * xi_new - xi)
    lam_new = _dual_update(prob.sense, sys, w.lam, s_acc - prob.b)
    return PrimalDualPoint(np.concatenate(new_xs), lam_new)


_alt_split_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _alt_split_system(prob: SeparableProblem, cfg: AltSplitConfig):
    """Shift matrix r A1^T A1 + delta I and the factor of (P1 + shift),
    cached per problem and (r, delta)."""
    per_prob = _alt_split_cache.setdefault(prob, {})
    key = (cfg.r, cfg.delta)
    entry = per_prob.get(key)
    if entry is None:
        blk1 = prob.blocks[0]
        g1 = blk1.a.T @ blk1.a
        g1 = 0.5 * (g1 + g1.T)
        shift = cfg.r * g1 + cfg.delta * np.eye(blk1.n)
        p1 = blk1.theta.p if isinstance(blk1.theta, Quadratic) else np.zeros((blk1.n, blk1.n))
        entry = (shift, cholesky_factor(shift + p1))
        per_prob[key] = entry
    return entry


def alt_split_step(prob: SeparableProblem, cfg: AltSplitConfig, sys: MultiplierSystem, w: PrimalDualPoint) -> PrimalDualPoint:
    """Two-block step: regularized normal equations for block 1, a prox
    for block 2, then the shared dual solve."""
    if len(prob.blocks) != 2:
        raise ConfigInvalid("this variant needs exactly two blocks")
    blk1, blk2 = prob.blocks
    if not isinstance(blk1.x_set, WholeSpace) or not isinstance(blk1.theta, (Quadratic, Linear, Zero)):
        raise UnsupportedCombination("block 1 must be an unconstrained quadratic/linear/zero objective")
    x1, x2 = prob.split(w.x)
    shift, factor = _alt_split_system(prob, cfg)
    c1 = blk1.theta.c if isinstance(blk1.theta, (Quadratic, Linear)) else np.zeros(blk1.n)
    x1_new = solve_spd(factor, blk1.a.T @ w.lam - c1 + shift @ x1)
    q2 = x2 + (blk2.a.T @ w.lam) / cfg.s
    x2_new = prox_constrained(blk2.theta, blk2.x_set, cfg.s, q2)
    s_k = blk1.a @ (2.0 * x1_new - x1) + blk2.a @ (2.0 * x2_new - x2) - prob.b
    lam_new = _dual_update(prob.sense, sys, w.lam, s_k)
    return PrimalDualPoint(np.concatenate([x1_new, x2_new]), lam_new)


# ---------------------------------------------------------------------------
# baselines


def _fista(theta, x_set, grad, lipschitz: float, x0: np.ndarray, tol: float, cap: int) -> np.ndarray:
    """Accelerated proximal gradient with adaptive restart.

    Stops when the composite optimality residual
    L (y - x_new) + grad(x_new) - grad(y)  (a subgradient of the full
    objective at x_new) drops below tol * (1 + ||x_new||).
    """
    lip = max(lipschitz, 1e-12)
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    t = 1.0
    for _ in range(cap):
        g_y = grad(y)
        x_new = prox_constrained(theta, x_set, lip, y - g_y / lip)
        opt = lip * (y - x_new) + grad(x_new) - g_y
        if np.linalg.norm(opt) <= tol * (1.0 + np.linalg.norm(x_new)):
            return x_new
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0  # momentum points uphill; restart
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x = x_new
        t = t_new
    raise InnerNoConvergence(f"inner solver exceeded {cap} iterations")


def _require_equality(prob, label: str):
    if isinstance(prob, SeparableProblem) or not isinstance(prob, Problem):
        raise ConfigInvalid(f"{label} expects a single-block problem (flatten first)")
    if prob.sense is not Sense.EQUALITY:
        raise ConfigInvalid(f"{label} supports equality constraints only")


def classic_alm_step(prob: Problem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Augmented Lagrangian step: inner prox-gradient minimization of
    theta(x) + (r/2)||A x - b - lam/r||^2, then dual ascent."""
    _require_equality(prob, "classic-alm")
    r = cfg.r
    d = prob.b + w.lam / r
    a = prob.a

    def grad(x):
        return r * (a.T @ (a @ x - d))

    x_new = _fista(prob.theta, prob.x_set, grad, r * prob.gram_norm, w.x, cfg.inner_tol, cfg.inner_max_iters)
    lam_new = w.lam - r * (a @ x_new - prob.b)
    return PrimalDualPoint(x_new, lam_new)


def lalm_step(prob: Problem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Linearized ALM: prox with weight sigma at the gradient point of the
    augmented term; requires sigma > r ||A^T A|| (0.75 factor when
    sharp_bounds is set)."""
    _require_equality(prob, "lalm")
    r, sigma = cfg.r, cfg.sigma_or_s
    bound = (0.75 if cfg.sharp_bounds else 1.0) * r * prob.gram_norm
    if not sigma > bound:
        raise ConfigInvalid(f"sigma = {sigma} must exceed {bound}")
    v = w.x + (prob.a.T @ (w.lam - r * (prob.a @ w.x - prob.b))) / sigma
    x_new = prox_constrained(prob.theta, prob.x_set, sigma, v)
    lam_new = w.lam - r * (prob.a @ x_new - prob.b)
    return PrimalDualPoint(x_new, lam_new)


def primal_dual_step(prob: Problem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Primal-dual step with the same x-update as the balanced method but
    a scalar dual stepsize 1/s; requires r s > ||A^T A||."""
    _require_equality(prob, "primal-dual")
    r, s = cfg.r, cfg.sigma_or_s
    if not r * s > prob.gram_norm:
        raise ConfigInvalid(f"r*s = {r * s} must exceed {prob.gram_norm}")
    q = w.x + (prob.a.T @ w.lam) / r
    x_new = prox_constrained(prob.theta, prob.x_set, r, q)
    lam_new = w.lam - (prob.a @ (2.0 * x_new - w.x) - prob.b) / s
    return PrimalDualPoint(x_new, lam_new)


def _require_two_block(prob, label: str):
    if not isinstance(prob, SeparableProblem) or len(prob.blocks) != 2:
        raise ConfigInvalid(f"{label} expects a two-block problem")
    if prob.sense is not Sense.EQUALITY:
        raise ConfigInvalid(f"{label} supports equality constraints only")


def admm_step(prob: SeparableProblem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """Gauss-Seidel ADMM sweep; both block subproblems go through the
    inner prox-gradient solver."""
    _require_two_block(prob, "admm")
    r = cfg.r
    blk1, blk2 = prob.blocks
    x1, x2 = prob.split(w.x)
    lam = w.lam
    g1, g2 = prob.block_gram_norms

    c1 = prob.b - blk2.a @ x2
    x1_new = _fista(
        blk1.theta, blk1.x_set,
        lambda z: blk1.a.T @ (r * (blk1.a @ z - c1) - lam),
        r * g1, x1, cfg.inner_tol, cfg.inner_max_iters,
    )
    c2 = prob.b - blk1.a @ x1_new
    x2_new = _fista(
        blk2.theta, blk2.x_set,
        lambda z: blk2.a.T @ (r * (blk2.a @ z - c2) - lam),
        r * g2, x2, cfg.inner_tol, cfg.inner_max_iters,
    )
    lam_new = lam - r * (blk1.a @ x1_new + blk2.a @ x2_new - prob.b)
    return PrimalDualPoint(np.concatenate([x1_new, x2_new]), lam_new)


def ladmm_step(prob: SeparableProblem, cfg: BaselineConfig, w: PrimalDualPoint) -> PrimalDualPoint:
    """ADMM with a linearized second block: x2 is a single prox with
    weight s; requires s > r ||A2^T A2|| (0.75 factor when sharp)."""
    _require_two_block(prob, "ladmm")
    r, s = cfg.r, cfg.sigma_or_s
    blk1, blk2 = prob.blocks
    g2 = prob.block_gram_norms[1]
    bound = (0.75 if cfg.sharp_bounds else 1.0) * r * g2
    if not s > bound:
        raise ConfigInvalid(f"s = {s} must exceed {bound}")
    x1, x2 = prob.split(w.x)
    lam = w.lam

    c1 = prob.b - blk2.a @ x2
    x1_new = _fista(
        blk1.theta, blk1.x_set,
        lambda z: blk1.a.T @ (r * (blk1.a @ z - c1) - lam),
        r * prob.block_gram_norms[0], x1, cfg.inner_tol, cfg.inner_max_iters,
    )
    q2 = x2 + (blk2.a.T @ (lam - r * (blk1.a @ x1_new + blk2.a @ x2 - prob.b))) / s
    x2_new = prox_constrained(blk2.theta, blk2.x_set, s, q2)
    lam_new = lam - r * (blk1.a @ x1_new + blk2.a @ x2_new - prob.b)
    return PrimalDualPoint(np.concatenate([x1_new, x2_new]), lam_new)


# ---------------------------------------------------------------------------
# the run driver


def _single_block(prob):
    return flatten_blocks(prob) if isinstance(prob, SeparableProblem) else prob


def _driver(prob, cfg):
    """Resolve (possibly flattened) problem, step closure, metric and
    whether predictors are tracked."""
    if isinstance(cfg, BalancedAlmConfig):
        p = _single_block(prob)
        sys = build_h0(p.a, cfg.r, cfg.delta)
        metric = BalancedMetric([p.a], [cfg.r], cfg.delta)
        relaxed = cfg.alpha != 1.0

        def step(w):
            pred = balanced_alm_step(p, cfg, sys, w)
            return _relax(w, pred, cfg.alpha), pred

        return p, step, metric, relaxed
    if isinstance(cfg, SplitConfig):
        if not isinstance(prob, SeparableProblem):
            raise ConfigInvalid("the split method needs a block-structured problem")
        if len(cfg.r_list) != len(prob.blocks):
            raise ConfigInvalid(f"{len(cfg.r_list)} prox weights for {len(prob.blocks)} blocks")
        sys = build_hp([(blk.a, r) for blk, r in zip(prob.blocks, cfg.r_list)], cfg.delta)
        metric = BalancedMetric([blk.a for blk in prob.blocks], cfg.r_list, cfg.delta)
        return prob, (lambda w: (split_balanced_step(prob, cfg, sys, w), None)), metric, False
    if isinstance(cfg, AltSplitConfig):
        if not isinstance(prob, SeparableProblem) or len(prob.blocks) != 2:
            raise ConfigInvalid("the alternative split needs exactly two blocks")
        sys = build_h2(prob.blocks[1].a, cfg.r, cfg.s, cfg.delta)
        metric = AltSplitMetric(prob.blocks[0].a, prob.blocks[1].a, cfg.r, cfg.s, cfg.delta)
        return prob, (lambda w: (alt_split_step(prob, cfg, sys, w), None)), metric, False
    if isinstance(cfg, BaselineConfig):
        if cfg.method in (Method.ADMM, Method.LINEARIZED_ADMM):
            _require_two_block(prob, cfg.method.value)
            step_fn = admm_step if cfg.method is Method.ADMM else ladmm_step
            if cfg.method is Method.LINEARIZED_ADMM:
                bound = (0.75 if cfg.sharp_bounds else 1.0) * cfg.r * prob.block_gram_norms[1]
                if not cfg.sigma_or_s > bound:
                    raise ConfigInvalid(f"s = {cfg.sigma_or_s} must exceed {bound}")
            p = prob
        else:
            p = _single_block(prob)
            _require_equality(p, cfg.method.value)
            step_fn = {
                Method.CLASSIC_ALM: classic_alm_step,
                Method.LALM: lalm_step,
                Method.PRIMAL_DUAL: primal_dual_step,
            }[cfg.method]
            if cfg.method is Method.LALM:
                bound = (0.75 if cfg.sharp_bounds else 1.0) * cfg.r * p.gram_norm
                if not cfg.sigma_or_s > bound:
                    raise ConfigInvalid(f"sigma = {cfg.sigma_or_s} must exceed {bound}")
            if cfg.method is Method.PRIMAL_DUAL and not cfg.r * cfg.sigma_or_s > p.gram_norm:
                raise ConfigInvalid(f"r*s = {cfg.r * cfg.sigma_or_s} must exceed {p.gram_norm}")
        metric = IdentityMetric(p.n, p.m)
        return p, (lambda w: (step_fn(p, cfg, w), None)), metric, False
    raise ConfigInvalid(f"unknown config type {type(cfg).__name__}")


def _check_shapes(prob, w: PrimalDualPoint, label: str) -> None:
    if w.x.shape != (prob.n,) or w.lam.shape != (prob.m,):
        raise DimensionMismatch(
            f"{label} point has shapes {w.x.shape}/{w.lam.shape}, expected ({prob.n},)/({prob.m},)"
        )


def _check_start(prob, w0: PrimalDualPoint) -> PrimalDualPoint:
    _check_shapes(prob, w0, "start")
    if not (np.all(np.isfinite(w0.x)) and np.all(np.isfinite(w0.lam))):
        raise ValueError("start point must be finite")
    if prob.sense is Sense.INEQUALITY and not np.all(w0.lam >= 0):
        raise ValueError("inequality multipliers must start nonnegative")
    sets = (
        [(blk.x_set, xi) for blk, xi in zip(prob.blocks, prob.split(w0.x))]
        if isinstance(prob, SeparableProblem)
        else [(prob.x_set, w0.x)]
    )
    for x_set, xi in sets:
        if not _set_contains(x_set, xi, tol=1e-12):
            raise ValueError("start point lies outside the primal set")
    return w0


def run(prob, cfg, stop: StopRule, w0: PrimalDualPoint | None = None, reference: PrimalDualPoint | None = None) -> RunHistory:
    """Iterate until every KKT residual falls below stop.kkt_tol or
    stop.max_iters steps are taken.  Records the full trajectory.

    A non-finite KKT residual ends the run at that iterate, unconverged,
    instead of stepping on to stop.max_iters.
    """
    prob, step, metric, relaxed = _driver(prob, cfg)
    w = default_start(prob) if w0 is None else _check_start(prob, w0)

    def h_dist(u: PrimalDualPoint, v: PrimalDualPoint) -> float:
        return math.sqrt(metric.quad_pair(u.x - v.x, u.lam - v.lam))

    distances = None
    if reference is not None:
        _check_shapes(prob, reference, "reference")
        distances = [h_dist(w, reference)]
    iterates = [w]
    residuals = [kkt_residual(prob, w)]
    steps_h = [math.nan]
    predictors = [] if relaxed else None

    converged = residuals[0].within(stop.kkt_tol)
    while not converged and math.isfinite(residuals[-1].max()) and len(iterates) <= stop.max_iters:
        w_next, pred = step(w)
        iterates.append(w_next)
        residuals.append(kkt_residual(prob, w_next))
        steps_h.append(h_dist(w, w_next))
        if distances is not None:
            distances.append(h_dist(w_next, reference))
        if predictors is not None:
            predictors.append(pred)
        w = w_next
        converged = residuals[-1].within(stop.kkt_tol)
    return RunHistory(
        iterates=iterates,
        residuals=residuals,
        successive_h_steps=steps_h,
        h_distances=distances,
        predictors=predictors,
        metric=metric,
        converged=converged,
    )
