"""Run certificates: per-iteration contraction and ergodic gap bounds.

Both certificates are recomputed from recorded iterates and the run's
metric, an operator (linalg.Metric) or an explicit matrix, so they can
replay a finished run without touching the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InsufficientHistory, MissingReference
from .linalg import dot_rows, h_quadratic
from .problems import PrimalDualPoint, multiplier_set, total_objective, vi_operator
from .prox import WholeSpace, members, project

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


def _constrained_parts(prob, n: int) -> list:
    """The feasible product set resolved once: (set, columns) for every
    block set and the multiplier set that is not the whole space, the
    columns a slice of the stacked (x, lambda) with n primal entries."""
    edges = list(accumulate((blk.n for blk in prob.blocks), initial=0))
    parts = [(blk.x_set, slice(a, b)) for blk, a, b in zip(prob.blocks, edges, edges[1:])]
    parts.append((multiplier_set(prob), slice(n, None)))
    return [(s, cols) for s, cols in parts if not isinstance(s, WholeSpace)]


def _feasible(parts, w: np.ndarray) -> bool:
    """The gap sampler's accept test of one stacked point w = (x, lambda)
    against the constrained parts of _constrained_parts; with no part it
    passes without a screen.  Kept a module attribute: perfbench hooks it
    by name to count and time the batches tried."""
    return all(members(s, w[cols]) for s, cols in parts)


def _draw_probe(prob, center: np.ndarray, n: int, rng, parts=None) -> tuple:
    """(w, projected): a probe, stacked as (x, lambda), drawn uniformly
    from the unit ball around center by rejection against the feasible
    product set, whose constrained parts (_constrained_parts) vi_gap
    resolves once per check and passes in.

    Draws come in batches of _BATCHES, each batch a block of directions,
    then a block of radii, from rng; the probe is the first feasible draw
    in stream order.  Batch one is a single draw, taken as one vector, so
    a probe accepted at its first draw uses the stream exactly as a
    one-draw-at-a-time loop, and a problem with no constrained part
    accepts it, as _feasible over no part does.  A later batch is shaped
    as one stack (_onto_ball), and one screen of its constrained columns
    finds its first feasible row, which _feasible, the accept test, then
    confirms.  When all _REJECTION_CAP draws fail, the last one is
    projected onto the feasible set instead (projected = True); the
    projection cannot leave the ball because the center itself is
    feasible.  The probe owns its memory, so it does not keep its batch
    alive.
    """
    parts = _constrained_parts(prob, n) if parts is None else parts
    # batch one, a single draw as one vector: w = center + radius * (direction / norm)
    w = rng.standard_normal(center.size)
    w /= math.sqrt(w.dot(w))
    w *= rng.random() ** (1.0 / center.size)
    w += center
    if _feasible(parts, w):
        return w, False
    for size in _BATCHES[1:]:
        # the same for a batch of rows: a block of directions, then a block of radii
        w = _onto_ball(rng.standard_normal((size, center.size)), rng.random(size).tolist(), center)
        # the first feasible row, or row 0 when none is
        i = int(np.logical_and.reduce([members(s, w[:, cols]) for s, cols in parts]).argmax())
        if _feasible(parts, w[i]):
            return w[i].copy(), False
    w = w[-1].copy()
    for s, cols in parts:
        w[cols] = project(s, w[cols])
    return w, True


def _onto_ball(w: np.ndarray, u: list, center: np.ndarray) -> np.ndarray:
    """Rows of Gaussian draws w and uniform draws u made points of the
    unit ball around center, in place: each row divided by its norm (one
    stacked dot_rows, each row with the bits of its own d.dot(d)), times
    u_i ** (1 / dim) by Python's pow (numpy's differs in bits), plus
    center; a row's bits are those of shaping it as one vector."""
    inv_dim = 1.0 / center.size
    w /= np.sqrt(dot_rows(w, w))[:, None]
    w *= np.array([ui ** inv_dim for ui in u])[:, None]
    w += center
    return w


def _first_draws(center: np.ndarray, size: int, rng) -> np.ndarray:
    """The probes of a problem with no constrained part, size of them as
    the rows of one array: each probe's first draw, a direction and then
    a radius, taken in stream order, and all of them shaped at once
    (_onto_ball).  Over no part every first draw is accepted, so the rows
    are the probes _draw_probe gives one at a time, bit for bit."""
    w = np.empty((size, center.size))
    u = []
    for row in w:
        rng.standard_normal(out=row)
        u.append(rng.random())
    _onto_ball(w, u, center)
    for row in w:
        _feasible((), row)  # the accept test once per probe, as _draw_probe runs it; perfbench counts the calls
    return w


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
    set instead, and counted in projected_probes.  The feasible set's
    constrained parts, each block set and the multiplier set that is not
    the whole space, are resolved once per check and screened column by
    column; a problem with no constrained part, an equality problem over
    the whole space, accepts every probe at its first draw.  On an
    inequality problem, each multiplier at zero halves the share of the
    ball that is feasible, so with a dozen or more of them the projection
    is the rule rather than the exception.  The accept test, _feasible,
    runs once per batch tried, so once per probe where there is no
    constrained part; perfbench hooks it by name.

    The probes go in blocks of _BLOCK (32), each in two passes: the first
    draws the block's probes one after another from the one stream, the
    second stacks them as rows and scores them all at once, objective,
    operator and metric each one call on the stack.  Where there is no
    constrained part, the first pass takes each probe's direction and
    radius in stream order and shapes the whole block as one stack
    (_first_draws), with the bits of shaping each probe by itself.  Every
    stacked product is one BLAS call per row, the call one probe alone
    makes, so each probe's lhs and bound have the bits of scoring it by
    itself.
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
    parts = _constrained_parts(prob, n)

    probes, scored = [], []  # scored: each block's (lhs, bound) rows
    projected = 0
    for start in range(0, probe_count, _BLOCK):
        size = min(_BLOCK, probe_count - start)
        # pass 1: draw, in stream order
        if parts:
            arrays, flags = zip(*[_draw_probe(prob, center, n, rng, parts) for _ in range(size)])
            w = np.array(arrays)
            projected += sum(flags)
        else:
            w = _first_draws(center, size, rng)
        probes += [PrimalDualPoint.from_array(row, n) for row in w]
        # pass 2: score the block's probes as the rows of one stack
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
