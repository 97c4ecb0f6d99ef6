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
from .linalg import dot_rows, h_quadratic
from .problems import PrimalDualPoint, multiplier_set, total_objective, vi_operator
from .prox import members, project

CONTRACTION_SLACK_TOL = 1e-9
GAP_TOL = 1e-8
_REJECTION_CAP = 1000
_BLOCK = 32  # probes drawn, then scored as one stack
# rejection draws per batch: doubling from one, then the rest of the cap
_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, _REJECTION_CAP - 511)


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
    implies every sampled probe does.  A worst probe whose lhs - bound is
    nan fails, and so does an infinite bound, which certifies nothing.
    probe_count = 0 passes vacuously with max_lhs = -inf and bound 0.
    projected_probes counts the probes that no rejection draw reached and
    that were projected instead.
    """

    t: int
    ergodic_point: PrimalDualPoint
    probe_points: tuple
    max_lhs: float
    bound: float
    projected_probes: int = 0

    @property
    def passes(self) -> bool:
        return self.max_lhs <= self.bound + GAP_TOL and math.isfinite(self.bound)  # a nan max_lhs fails <=


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
    An alpha outside (0, 2) is a ValueError: its scale alpha (2 - alpha)
    is not positive, so every slack would pass.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in the open interval (0, 2), got {alpha!r}")
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


def _feasible_mask(prob, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Membership of each point (x, lam), read along the last axis, in
    the feasible product set: the multiplier set times every block's set."""
    ok = members(multiplier_set(prob), lam)
    for blk, xi in zip(prob.blocks, prob.split(x)):
        ok &= members(blk.x_set, xi)
    return ok


def _feasible(prob, x: np.ndarray, lam: np.ndarray) -> bool:
    """The gap sampler's accept test of one point (x, lam)."""
    return bool(_feasible_mask(prob, x, lam))


def _project_feasible(prob, x: np.ndarray, lam: np.ndarray):
    x_p = np.concatenate([project(blk.x_set, xi) for blk, xi in zip(prob.blocks, prob.split(x))])
    return x_p, project(multiplier_set(prob), lam)


def _draw_probe(prob, center: np.ndarray, n: int, rng) -> tuple:
    """(w, projected): a probe, stacked as (x, lambda), drawn uniformly
    from the unit ball around center by rejection against the feasible
    product set.

    Draws come in batches of _BATCHES, each batch a block of directions,
    then a block of radii, from rng; the probe is the first feasible draw
    in stream order.  One screen of a batch finds its first feasible row,
    which _feasible, the accept test, then confirms.  Batch one is a
    single draw, so a probe accepted at its first draw uses the stream
    exactly as a one-draw-at-a-time loop.  When all _REJECTION_CAP draws
    fail, the last one is projected onto the feasible set instead
    (projected = True); the projection cannot leave the ball because the
    center itself is feasible.
    """
    dim = center.size
    inv_dim = 1.0 / dim
    for size in _BATCHES:
        directions = rng.standard_normal((size, dim))
        radii = [u ** inv_dim for u in rng.random(size).tolist()]  # Python's pow: numpy's differs in bits
        norms = [math.sqrt(d.dot(d)) for d in directions]  # np.linalg.norm per row, bit for bit
        # w = center + radius * (direction / norm), in place
        w = directions
        w /= np.array(norms)[:, None]
        w *= np.array(radii)[:, None]
        w += center
        # the first feasible row, or row 0 when none is; one row needs no screen
        i = int(_feasible_mask(prob, w[:, :n], w[:, n:]).argmax()) if size > 1 else 0
        w_i = w[i].copy()  # the probe does not keep its batch alive
        if _feasible(prob, w_i[:n], w_i[n:]):
            return w_i, False
    return np.concatenate(_project_feasible(prob, w[-1, :n], w[-1, n:])), True


def _sample_probe(prob, center: np.ndarray, n: int, rng) -> PrimalDualPoint:
    """The probe of _draw_probe as a point, without its projection flag."""
    return PrimalDualPoint.from_array(_draw_probe(prob, center, n, rng)[0], n)


def vi_gap(prob, history, t: int, probe_count: int, rng_seed: int) -> GapCertificate:
    """Sample feasible probes near the ergodic average and compare the
    saddle-point gap against its (2(t+1))^-1-scaled squared-distance
    bound, measured in the run's own metric from the run's start.

    Each probe is the first feasible point among up to _REJECTION_CAP
    (1,000) uniform draws from the unit ball around the ergodic average,
    drawn in batches of 1, 2, 4, ..., 256 and then the remaining 489.
    When no draw is feasible, the last one is projected onto the feasible
    set instead, and counted in projected_probes.  Equality problems over
    the whole space accept every probe at its first draw.  On an
    inequality problem, each multiplier at zero halves the share of the
    ball that is feasible, so with a dozen or more of them the projection
    is the rule rather than the exception.

    The probes go in blocks of _BLOCK (32), each in two passes: the first
    draws the block's probes one after another from the one stream, the
    second stacks them as rows and scores them all at once, objective,
    operator and metric each one call on the stack.  Every stacked
    product is one BLAS call per row, the call one probe alone makes, so
    each probe's lhs and bound have the bits of scoring it by itself.
    The worst probe, one argmax over every probe's lhs - bound, is the
    first with the largest margin; a probe whose lhs - bound is nan (a
    non-finite ergodic point, say) is worse than any other, so the first
    such probe is reported and the certificate fails.  A negative
    probe_count is a ValueError."""
    if probe_count < 0:
        raise ValueError(f"probe_count must be nonnegative, got {probe_count}")
    w_t = ergodic_average(history, t)
    h = history.metric
    w0 = history.iterates[0].as_array()
    center = w_t.as_array()
    n = w_t.x.size
    theta_avg = total_objective(prob, w_t.x)
    rng = np.random.default_rng(rng_seed)

    probes, scored = [], []  # scored: each block's (lhs, bound) rows
    projected = 0
    for start in range(0, probe_count, _BLOCK):
        # pass 1: draw, in stream order
        arrays, flags = zip(*[_draw_probe(prob, center, n, rng) for _ in range(min(_BLOCK, probe_count - start))])
        probes += [PrimalDualPoint.from_array(w_arr, n) for w_arr in arrays]
        projected += sum(flags)
        # pass 2: score the block's probes as the rows of one stack
        w = np.array(arrays)
        x = w[:, :n]
        lhs = theta_avg - total_objective(prob, x) + dot_rows(center - w, vi_operator(prob, PrimalDualPoint(x, w[:, n:])))
        scored.append((lhs, h_quadratic(h, w - w0) / (2.0 * (t + 1))))
    max_lhs, bound_at_worst = -np.inf, 0.0
    if probes:
        lhs, bnd = map(np.concatenate, zip(*scored))
        i = int((lhs - bnd).argmax())  # the first nan, else the first largest
        max_lhs, bound_at_worst = float(lhs[i]), float(bnd[i])
    return GapCertificate(
        t=t,
        ergodic_point=w_t,
        probe_points=tuple(probes),
        max_lhs=max_lhs,
        bound=bound_at_worst,
        projected_probes=projected,
    )
