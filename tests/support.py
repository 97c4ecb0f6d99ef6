"""Shared test helpers: independent oracles and random instance builders.

The oracles here deliberately avoid the library's own closed forms:
scalar minimization goes through grid search plus golden-section
refinement, and LCPs are solved by enumerating active sets.  The
reference paths at the end are the library's kernels written the
straightforward way (a per-part loop, scipy's solve wrappers); the fast
kernels must match them bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from balm import (
    Block,
    PrimalDualPoint,
    Problem,
    Quadratic,
    Sense,
    SeparableProblem,
    WholeSpace,
)
from balm.bench import ineq_qp_reference
from balm.diagnostics import ContractionCertificate
from balm.linalg import SpdFactor, h_quadratic
from balm.prox import objective_value, prox

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
