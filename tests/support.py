"""Shared test helpers: independent oracles and random instance builders.

The oracles here deliberately avoid the library's own closed forms:
scalar minimization goes through grid search plus golden-section
refinement, and LCPs are solved by enumerating active sets.  The
reference paths at the end are the library's kernels written the
straightforward way (a per-part loop, scipy's solve wrappers), and each
method's step with its whole update formula written out; the library's
kernels and steps must match them bit for bit.  The one exception is
cholesky_reference, a column loop that the LAPACK factor matches to
rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from balm import (
    Block,
    Box,
    Linear,
    NonnegativeOrthant,
    PrimalDualPoint,
    Problem,
    Quadratic,
    Sense,
    SeparableProblem,
    WholeSpace,
)
from balm.bench import ineq_qp_reference
from balm.diagnostics import ContractionCertificate, GapCertificate, _draw_probe, ergodic_average
from balm.errors import InnerNoConvergence, NotPositiveDefinite
from balm.linalg import PIVOT_TOL, SpdFactor, cholesky_factor, h_quadratic, solve_spd
from balm.multiplier import solve_equality, solve_lcp
from balm.problems import total_objective, vi_operator
from balm.prox import objective_value, prox, prox_constrained

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_min_oracle(f, lo: float, hi: float, coarse: float = 1e-4, fine: float = 1e-9) -> float:
    """Minimize a scalar convex function by coarse grid search, then
    golden-section refinement of the bracketing interval."""
    count = int(math.ceil((hi - lo) / coarse)) + 1
    ys = np.linspace(lo, hi, count)
    vals = f(ys)
    i = int(np.argmin(vals))
    a = ys[max(i - 1, 0)]
    b = ys[min(i + 1, count - 1)]
    while b - a > fine:
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        if f(np.array([c]))[0] <= f(np.array([d]))[0]:
            b = d
        else:
            a = c
    return 0.5 * (a + b)


def prox_oracle_1d(theta_scalar, r: float, q: float) -> float:
    """Grid-search prox for a scalar objective term.

    theta_scalar is a vectorized callable y -> theta(y).
    """
    span = 2.0 * (abs(q) + 1.0) + 10.0 / r
    f = lambda y: theta_scalar(y) + 0.5 * r * (y - q) ** 2
    return scalar_min_oracle(f, q - span, q + span)


def lcp_enumeration_oracle(h: np.ndarray, lam_k: np.ndarray, s_k: np.ndarray) -> np.ndarray:
    """Solve 0 <= lam perp H (lam - lam_k) + s_k >= 0 by trying every
    active set (H symmetric positive definite, small m only)."""
    m = len(s_k)
    base = h @ lam_k - s_k
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            s = list(subset)
            lam = np.zeros(m)
            if s:
                lam[s] = np.linalg.solve(h[np.ix_(s, s)], base[s])
            if np.any(lam < -1e-12):
                continue
            y = h @ (lam - lam_k) + s_k
            if np.all(y >= -1e-10):
                return lam
    raise AssertionError("enumeration found no complementary solution")


def random_spd(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    p = g @ g.T / n + 0.5 * np.eye(n)
    return 0.5 * (p + p.T)


def random_eq_qp(rng, n: int, m: int):
    """Strongly convex equality QP with its KKT saddle point."""
    p = random_spd(rng, n)
    c = rng.standard_normal(n)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    kkt = np.block([[p, -a.T], [a, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-c, b]))
    prob = Problem(Quadratic(p, c), WholeSpace(), a, b, Sense.EQUALITY)
    return prob, PrimalDualPoint(sol[:n], sol[n:])


def random_ineq_qp(rng, n: int, m: int):
    """Strongly convex inequality QP with a polished dual-LCP reference."""
    p = random_spd(rng, n)
    c = rng.standard_normal(n)
    a = rng.standard_normal((m, n))
    b = a @ rng.standard_normal(n) + rng.standard_normal(m)
    prob = Problem(Quadratic(p, c), WholeSpace(), a, b, Sense.INEQUALITY)
    return prob, ineq_qp_reference(p, c, a, b)


def two_block_qp(rng, n1: int, n2: int, m: int):
    """Strongly convex two-block equality QP plus its saddle point
    computed on the flattened problem."""
    p1, p2 = random_spd(rng, n1), random_spd(rng, n2)
    c1, c2 = rng.standard_normal(n1), rng.standard_normal(n2)
    a1 = rng.standard_normal((m, n1))
    a2 = rng.standard_normal((m, n2))
    b = rng.standard_normal(m)
    sep = SeparableProblem(
        (
            Block(Quadratic(p1, c1), WholeSpace(), a1),
            Block(Quadratic(p2, c2), WholeSpace(), a2),
        ),
        b,
        Sense.EQUALITY,
    )
    n = n1 + n2
    p = np.zeros((n, n))
    p[:n1, :n1] = p1
    p[n1:, n1:] = p2
    c = np.concatenate([c1, c2])
    a = np.hstack([a1, a2])
    kkt = np.block([[p, -a.T], [a, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-c, b]))
    return sep, PrimalDualPoint(sol[:n], sol[n:])


def split_second_block(prob: SeparableProblem, k: int) -> SeparableProblem:
    """prob with its second block, a Quadratic over the whole space, cut
    after its first k columns into two blocks: three blocks, the same n
    and m (P's off-diagonal block between the two parts is dropped)."""
    first, second = prob.blocks
    p, c, a = second.theta.p, second.theta.c, second.a
    halves = [Block(Quadratic(p[cut, cut], c[cut]), WholeSpace(), a[:, cut]) for cut in (slice(None, k), slice(k, None))]
    return SeparableProblem((first, *halves), prob.b, prob.sense)


def scalar_problem() -> Problem:
    """min x^2/2 subject to x = 1; saddle point (1, 1)."""
    return Problem(Quadratic(np.eye(1), np.zeros(1)), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)


def separable_prox_loop(theta, r: float, q: np.ndarray) -> np.ndarray:
    """SeparableSum prox one coordinate at a time, through each part's
    own prox rule."""
    out = np.empty_like(q)
    for i, part in enumerate(theta.parts):
        out[i : i + 1] = prox(part, r, q[i : i + 1])
    return out


def separable_objective_loop(theta, x: np.ndarray) -> float:
    """SeparableSum value as the sum, in part order, of each part's value."""
    return float(sum(objective_value(p, x[i : i + 1]) for i, p in enumerate(theta.parts)))


def cholesky_reference(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of m by a Python loop over columns, reading
    m's lower triangle; raises NotPositiveDefinite at the first column
    whose pivot m_jj - ||L_j,:j||^2 is at or below PIVOT_TOL."""
    m = np.asarray(m, dtype=float)
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
    return lower


def solve_spd_scipy(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """M y = rhs from M's Cholesky factor through scipy's triangular solves."""
    y = solve_triangular(factor.lower, rhs, lower=True, check_finite=False)
    return solve_triangular(factor.lower.T, y, lower=False, check_finite=False)


def active_set_scipy(h: np.ndarray, lam_k: np.ndarray, s_k: np.ndarray, max_steps: int):
    """multiplier._active_set with the free block factored and solved by
    scipy's cho_factor and cho_solve."""
    c = s_k - h @ lam_k
    free = lam_k > 0.0
    for step in range(1, max_steps + 1):
        lam = np.zeros_like(c)
        if free.any():
            try:
                factor = cho_factor(h[np.ix_(free, free)], lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                return None, step
            lam[free] = cho_solve(factor, -c[free], check_finite=False)
        y = h @ lam + c
        new_free = lam - y > 0.0
        if np.array_equal(new_free, free):
            return np.maximum(lam, 0.0), step
        free = new_free
    return None, max_steps


def contraction_ledger_three_term(history, h, w_star, alpha: float = 1.0) -> list:
    """diagnostics.contraction_ledger as three metric quadratics per
    iteration: dist_before, dist_after and the step, each evaluated anew."""
    scale = alpha * (2.0 - alpha)
    ref = w_star.as_array()
    certs = []
    for k in range(len(history.iterates) - 1):
        w_k = history.iterates[k].as_array()
        w_next = history.iterates[k + 1].as_array()
        before = h_quadratic(h, w_k - ref)
        after = h_quadratic(h, w_next - ref)
        target = w_next if alpha == 1.0 else history.predictors[k].as_array()
        step = h_quadratic(h, w_k - target)
        certs.append(ContractionCertificate(k, before, after, step, before - after - scale * step))
    return certs


# draws per batch of the gap sampler: doubling from one, 1,000 in all
GAP_SAMPLER_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 489)


def _in_set_oracle(spec, v) -> bool:
    if isinstance(spec, WholeSpace):
        return True
    if isinstance(spec, NonnegativeOrthant):
        return all(vi >= 0.0 for vi in v.tolist())
    if isinstance(spec, Box):
        return all(lo <= vi <= hi for lo, vi, hi in zip(spec.lower.tolist(), v.tolist(), spec.upper.tolist()))
    raise TypeError(type(spec).__name__)


def gap_feasible_oracle(prob, w: np.ndarray, n: int) -> bool:
    """Whether the stacked point w = (x, lambda) lies in every block's set
    and, for an inequality problem, has lambda >= 0; tested coordinate by
    coordinate."""
    if prob.sense is Sense.INEQUALITY and not _in_set_oracle(NonnegativeOrthant(), w[n:]):
        return False
    at = 0
    for blk in prob.blocks:
        if not _in_set_oracle(blk.x_set, w[at : at + blk.n]):
            return False
        at += blk.n
    return True


def gap_probe_oracle(prob, center: np.ndarray, n: int, rng):
    """The gap sampler's law, one draw at a time.

    The stream is read batch by batch as the schedule lays it out (a
    batch's directions, then its radii), and each draw is then tested
    on its own.  Returns (w, projected, draws): the first feasible draw
    with the number of draws up to and including it, or, when no draw of
    the whole schedule passes, the projection of the last one onto the
    feasible set.
    """
    dim = center.size
    draws = 0
    for size in GAP_SAMPLER_BATCHES:
        directions = rng.standard_normal((size, dim))
        uniforms = rng.random(size).tolist()
        for d, u in zip(directions, uniforms):
            draws += 1
            w = center + (u ** (1.0 / dim)) * (d / math.sqrt(d.dot(d)))
            if gap_feasible_oracle(prob, w, n):
                return w, False, draws
    parts, at = [], 0
    for blk in prob.blocks:
        v = w[at : at + blk.n]
        at += blk.n
        if isinstance(blk.x_set, NonnegativeOrthant):
            v = np.maximum(v, 0.0)
        elif isinstance(blk.x_set, Box):
            v = np.clip(v, blk.x_set.lower, blk.x_set.upper)
        parts.append(v)
    lam = np.maximum(w[n:], 0.0) if prob.sense is Sense.INEQUALITY else w[n:]
    return np.concatenate(parts + [lam]), True, draws


def gap_oracle(prob, history, t: int, probe_count: int, rng_seed: int) -> GapCertificate:
    """diagnostics.vi_gap one probe at a time: each probe is drawn, then
    scored on its own through the one-vector objective, operator and
    metric.  The worst probe is the first with the largest lhs - bound,
    or the first whose lhs - bound is nan, after which none replaces it."""
    w_t = ergodic_average(history, t)
    h = history.metric
    w0 = history.iterates[0].as_array()
    center = w_t.as_array()
    n = w_t.x.size
    theta_avg = total_objective(prob, w_t.x)
    rng = np.random.default_rng(rng_seed)
    probes, projected = [], 0
    worst_margin = -np.inf
    max_lhs, bound_at_worst = -np.inf, 0.0
    for _ in range(probe_count):
        w_arr, was_projected = _draw_probe(prob, center, n, rng)
        probe = PrimalDualPoint.from_array(w_arr, n)
        probes.append(probe)
        projected += was_projected
        lhs = theta_avg - total_objective(prob, probe.x) + float((center - w_arr) @ vi_operator(prob, probe))
        bnd = h_quadratic(h, w_arr - w0) / (2.0 * (t + 1))
        if not math.isnan(worst_margin) and (math.isnan(lhs - bnd) or lhs - bnd > worst_margin):
            worst_margin = lhs - bnd
            max_lhs, bound_at_worst = lhs, bnd
    return GapCertificate(t, w_t, tuple(probes), max_lhs, bound_at_worst, projected)


# ---------------------------------------------------------------------------
# reference steps: each method's update written out in full, one function
# per method, with the signature of its public step.  Every A x - b, every
# A_i^T lambda and the dual right-hand side s = A(2 x_new - x) - b are
# formed here in the order the step formulas state them.


def _dual_solve_reference(sense, sys, lam, s_k):
    if sense is Sense.EQUALITY:
        return solve_equality(sys, lam, s_k)
    return solve_lcp(sys, lam, s_k)


def balanced_alm_reference(prob, cfg, sys, w):
    x_new = prox_constrained(prob.theta, prob.x_set, cfg.r, w.x + prob.a.T.dot(w.lam) / cfg.r)
    s_k = prob.a.dot(2.0 * x_new - w.x) - prob.b
    return PrimalDualPoint(x_new, _dual_solve_reference(prob.sense, sys, w.lam, s_k))


def generalized_reference(prob, cfg, sys, w):
    pred = balanced_alm_reference(prob, cfg, sys, w)
    if cfg.alpha == 1.0:
        return pred
    return PrimalDualPoint(w.x - cfg.alpha * (w.x - pred.x), w.lam - cfg.alpha * (w.lam - pred.lam))


def split_balanced_reference(prob, cfg, sys, w):
    """The sum over blocks starts from the first block's product, as
    alt-split's and the one-block s do; a sum started from zeros turns a
    -0 product (only a 1x1 block gives one) into +0."""
    new_xs, parts = [], []
    for blk, xi, r_i in zip(prob.blocks, prob.split(w.x), cfg.r_list):
        xi_new = prox_constrained(blk.theta, blk.x_set, r_i, xi + blk.a.T.dot(w.lam) / r_i)
        new_xs.append(xi_new)
        parts.append(blk.a.dot(2.0 * xi_new - xi))
    s_k = sum(parts[1:], parts[0]) - prob.b
    return PrimalDualPoint(np.concatenate(new_xs), _dual_solve_reference(prob.sense, sys, w.lam, s_k))


def alt_split_reference(prob, cfg, sys, w):
    blk1, blk2 = prob.blocks
    x1, x2 = prob.split(w.x)
    g1 = blk1.a.T @ blk1.a
    g1 = 0.5 * (g1 + g1.T)
    shift = cfg.r * g1 + cfg.delta * np.eye(blk1.n)
    p1 = blk1.theta.p if isinstance(blk1.theta, Quadratic) else np.zeros((blk1.n, blk1.n))
    c1 = blk1.theta.c if isinstance(blk1.theta, (Quadratic, Linear)) else np.zeros(blk1.n)
    x1_new = solve_spd(cholesky_factor(shift + p1), blk1.a.T.dot(w.lam) - c1 + shift.dot(x1))
    x2_new = prox_constrained(blk2.theta, blk2.x_set, cfg.s, x2 + blk2.a.T.dot(w.lam) / cfg.s)
    s_k = blk1.a.dot(2.0 * x1_new - x1) + blk2.a.dot(2.0 * x2_new - x2) - prob.b
    return PrimalDualPoint(np.concatenate([x1_new, x2_new]), _dual_solve_reference(prob.sense, sys, w.lam, s_k))


def fista_reference(theta, x_set, grad, lipschitz, x0, tol, cap):
    """Accelerated proximal gradient with adaptive restart, stopping on the
    composite optimality residual, norms taken as np.linalg.norm."""
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
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x = x_new
        t = t_new
    raise InnerNoConvergence(f"inner solver exceeded {cap} iterations")


def classic_alm_reference(prob, cfg, w):
    r, a = cfg.r, prob.a
    d = prob.b + w.lam / r
    x_new = fista_reference(
        prob.theta, prob.x_set, lambda x: r * a.T.dot(a.dot(x) - d), r * prob.gram_norm, w.x,
        cfg.inner_tol, cfg.inner_max_iters,
    )
    return PrimalDualPoint(x_new, w.lam - r * (a.dot(x_new) - prob.b))


def lalm_reference(prob, cfg, w):
    r, sigma = cfg.r, cfg.sigma_or_s
    v = w.x + prob.a.T.dot(w.lam - r * (prob.a.dot(w.x) - prob.b)) / sigma
    x_new = prox_constrained(prob.theta, prob.x_set, sigma, v)
    return PrimalDualPoint(x_new, w.lam - r * (prob.a.dot(x_new) - prob.b))


def primal_dual_reference(prob, cfg, w):
    r, s = cfg.r, cfg.sigma_or_s
    x_new = prox_constrained(prob.theta, prob.x_set, r, w.x + prob.a.T.dot(w.lam) / r)
    return PrimalDualPoint(x_new, w.lam - (prob.a.dot(2.0 * x_new - w.x) - prob.b) / s)


def _block_fista_reference(blk, c, lam, gram, x0, cfg):
    r = cfg.r
    return fista_reference(
        blk.theta, blk.x_set, lambda z: blk.a.T.dot(r * (blk.a.dot(z) - c) - lam),
        r * gram, x0, cfg.inner_tol, cfg.inner_max_iters,
    )


def admm_reference(prob, cfg, w):
    blk1, blk2 = prob.blocks
    x1, x2 = prob.split(w.x)
    g1, g2 = prob.block_gram_norms
    x1_new = _block_fista_reference(blk1, prob.b - blk2.a.dot(x2), w.lam, g1, x1, cfg)
    x2_new = _block_fista_reference(blk2, prob.b - blk1.a.dot(x1_new), w.lam, g2, x2, cfg)
    lam_new = w.lam - cfg.r * (blk1.a.dot(x1_new) + blk2.a.dot(x2_new) - prob.b)
    return PrimalDualPoint(np.concatenate([x1_new, x2_new]), lam_new)


def ladmm_reference(prob, cfg, w):
    r, s = cfg.r, cfg.sigma_or_s
    blk1, blk2 = prob.blocks
    x1, x2 = prob.split(w.x)
    x1_new = _block_fista_reference(blk1, prob.b - blk2.a.dot(x2), w.lam, prob.block_gram_norms[0], x1, cfg)
    q2 = x2 + blk2.a.T.dot(w.lam - r * (blk1.a.dot(x1_new) + blk2.a.dot(x2) - prob.b)) / s
    x2_new = prox_constrained(blk2.theta, blk2.x_set, s, q2)
    lam_new = w.lam - r * (blk1.a.dot(x1_new) + blk2.a.dot(x2_new) - prob.b)
    return PrimalDualPoint(np.concatenate([x1_new, x2_new]), lam_new)
