"""Run certificates: per-iteration contraction and ergodic gap bounds.

Both certificates are recomputed from recorded iterates and the run's
metric, an operator (linalg.Metric) or an explicit matrix, so they can
replay a finished run without touching the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistory, MissingReference
from .linalg import h_quadratic
from .problems import PrimalDualPoint, multiplier_set, total_objective, vi_operator
from .prox import contains, project

CONTRACTION_SLACK_TOL = 1e-9
GAP_TOL = 1e-8
_REJECTION_CAP = 1000


@dataclass(frozen=True)
class ContractionCertificate:
    """One iteration of the descent ledger, all quantities squared
    H-norms: slack = dist_before - dist_after - scale * step_h with
    scale = alpha (2 - alpha)."""

    iteration: int
    dist_before: float
    dist_after: float
    step_h: float
    slack: float

    @property
    def passes(self) -> bool:
        return self.slack >= -CONTRACTION_SLACK_TOL


@dataclass(frozen=True)
class GapCertificate:
    """Sampled check of the ergodic bound.

    max_lhs and bound belong to the worst probe (largest lhs - bound);
    the certificate passes iff that probe satisfies its own bound, which
    implies every sampled probe does.  probe_count = 0 passes vacuously
    with max_lhs = -inf.
    """

    t: int
    ergodic_point: PrimalDualPoint
    probe_points: tuple
    max_lhs: float
    bound: float

    @property
    def passes(self) -> bool:
        return self.max_lhs <= self.bound + GAP_TOL


def ergodic_average(history, t: int) -> PrimalDualPoint:
    """Mean of the first t + 1 post-step iterates (the start point is
    excluded from the average)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if len(history.iterates) < t + 2:
        raise InsufficientHistory(
            f"need {t + 2} recorded iterates for t = {t}, have {len(history.iterates)}"
        )
    xs = np.mean([w.x for w in history.iterates[1 : t + 2]], axis=0)
    lams = np.mean([w.lam for w in history.iterates[1 : t + 2]], axis=0)
    return PrimalDualPoint(xs, lams)


def contraction_ledger(history, h, w_star: PrimalDualPoint, alpha: float = 1.0) -> list:
    """Per-iteration certificates of H-distance descent toward w_star.

    For relaxed runs (alpha != 1) the step term is the predictor gap
    ||w_k - pred_k||_H^2 and the history must have recorded predictors.
    """
    if w_star is None:
        raise MissingReference("contraction checks need a reference point")
    if alpha != 1.0 and history.predictors is None:
        raise InsufficientHistory("relaxed contraction checks need recorded predictors")
    scale = alpha * (2.0 - alpha)
    ref = w_star.as_array()
    points = history.iterates
    # each iterate's distance is dist_after of one step and dist_before of the next
    dist = [h_quadratic(h, w.as_array() - ref) for w in points] if len(points) > 1 else []
    certs = []
    for k in range(len(points) - 1):
        target = points[k + 1] if alpha == 1.0 else history.predictors[k]
        step = h_quadratic(h, points[k].as_array() - target.as_array())
        certs.append(
            ContractionCertificate(
                iteration=k,
                dist_before=dist[k],
                dist_after=dist[k + 1],
                step_h=step,
                slack=dist[k] - dist[k + 1] - scale * step,
            )
        )
    return certs


def _feasible(prob, x: np.ndarray, lam: np.ndarray) -> bool:
    # the multiplier test first: in the orthant it rejects most draws
    return contains(multiplier_set(prob), lam) and all(
        contains(blk.x_set, xi) for blk, xi in zip(prob.blocks, prob.split(x))
    )


def _project_feasible(prob, x: np.ndarray, lam: np.ndarray):
    x_p = np.concatenate([project(blk.x_set, xi) for blk, xi in zip(prob.blocks, prob.split(x))])
    return x_p, project(multiplier_set(prob), lam)


def _sample_probe(prob, center: np.ndarray, n: int, rng) -> PrimalDualPoint:
    """Uniform draw from the unit ball around the ergodic point,
    intersected with the feasible product set by rejection.  A capped
    rejection loop falls back to projection, which cannot leave the
    ball because the center itself is feasible."""
    dim = center.size
    inv_dim = 1.0 / dim
    for _ in range(_REJECTION_CAP):
        direction = rng.standard_normal(dim)
        direction /= math.sqrt(direction.dot(direction))  # np.linalg.norm, bit for bit
        w = center + (rng.random() ** inv_dim) * direction
        if _feasible(prob, w[:n], w[n:]):
            return PrimalDualPoint(w[:n], w[n:])
    x_p, lam_p = _project_feasible(prob, w[:n], w[n:])
    return PrimalDualPoint(x_p, lam_p)


def vi_gap(prob, history, t: int, probe_count: int, rng_seed: int) -> GapCertificate:
    """Sample feasible probes near the ergodic average and compare the
    saddle-point gap against its (2(t+1))^-1-scaled squared-distance
    bound, measured in the run's own metric from the run's start."""
    w_t = ergodic_average(history, t)
    h = history.metric
    w0 = history.iterates[0].as_array()
    center = w_t.as_array()
    n = w_t.x.size
    theta_avg = total_objective(prob, w_t.x)
    rng = np.random.default_rng(rng_seed)

    probes = []
    worst_margin = -np.inf
    max_lhs, bound_at_worst = -np.inf, 0.0
    for _ in range(probe_count):
        probe = _sample_probe(prob, center, n, rng)
        probes.append(probe)
        w_arr = probe.as_array()
        lhs = theta_avg - total_objective(prob, probe.x) + float((center - w_arr) @ vi_operator(prob, probe))
        bnd = h_quadratic(h, w_arr - w0) / (2.0 * (t + 1))
        if lhs - bnd > worst_margin:
            worst_margin = lhs - bnd
            max_lhs, bound_at_worst = lhs, bnd
    return GapCertificate(
        t=t,
        ergodic_point=w_t,
        probe_points=tuple(probes),
        max_lhs=max_lhs,
        bound=bound_at_worst,
    )
