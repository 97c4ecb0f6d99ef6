"""run's step_h and dist_h columns against the per-iterate forms.

run fills successive_h_steps and h_distances after its loop, one stacked
quad_pair per block of solvers._BLOCK steps.  Each entry must have the
bits of math.sqrt over that pair's own quad_pair call, whichever block
edge the run ends on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import balm.solvers as solvers
from balm.bench import build_config, generate_instance
from balm.problems import PrimalDualPoint, Problem, Sense
from balm.prox import Linear, WholeSpace
from balm.solvers import METHODS, BalancedAlmConfig, StopRule, run

import support

KINDS = {"random_qp_eq": (4, 10), "basis_pursuit": (6, 20), "lasso_eq": (6, 12), "nonneg_qp_ineq": (4, 10)}
EQUALITY = ("random_qp_eq", "basis_pursuit", "lasso_eq", "two_block_qp")
TWO_BLOCK = ("lasso_eq", "two_block_qp")
ACCEPTS = {
    "balanced-alm": EQUALITY + ("nonneg_qp_ineq",),
    "split-balanced": TWO_BLOCK,
    "alt-split": ("two_block_qp",),
    "classic-alm": EQUALITY,
    "lalm": EQUALITY,
    "primal-dual": EQUALITY,
    "admm": TWO_BLOCK,
    "ladmm": TWO_BLOCK,
}
CASES = [(name, kind) for name, kinds in ACCEPTS.items() for kind in kinds]
# 1 step; one short of, at and one past a block edge; past two edges
MAX_ITERS = (1, 31, 32, 33, 65)
TINY_TOL = 1e-300


def _instance(kind: str):
    """(problem, a reference point): its saddle point where the generator
    gives one, else a seeded normal draw."""
    if kind == "two_block_qp":
        return support.two_block_qp(np.random.default_rng(1), 4, 3, 3)
    prob, reference = generate_instance(kind, KINDS[kind], 1)
    if reference is None:
        rng = np.random.default_rng(2)
        reference = PrimalDualPoint(rng.standard_normal(prob.n), rng.standard_normal(prob.m))
    return prob, reference


def _h(metric, u: PrimalDualPoint, v: PrimalDualPoint) -> float:
    return math.sqrt(metric.quad_pair(u.x - v.x, u.lam - v.lam))


def _assert_per_iterate_bits(hist, reference) -> None:
    """Every step_h and dist_h entry is a float with the repr of its own call."""
    w, metric = hist.iterates, hist.metric
    steps = [math.nan] + [_h(metric, w[k - 1], w[k]) for k in range(1, len(w))]
    assert len(hist.successive_h_steps) == len(w)
    assert all(type(v) is float for v in hist.successive_h_steps)
    assert list(map(repr, hist.successive_h_steps)) == list(map(repr, steps))
    if reference is None:
        assert hist.h_distances is None
        return
    assert all(type(v) is float for v in hist.h_distances)
    assert list(map(repr, hist.h_distances)) == [repr(_h(metric, wk, reference)) for wk in w]


def test_every_method_and_kind_is_covered():
    assert set(ACCEPTS) == set(METHODS)


@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("name, kind", CASES, ids=[f"{n}-{k}" for n, k in CASES])
def test_blocked_columns_have_the_per_iterate_bits(name, kind, alpha):
    prob, reference = _instance(kind)
    cfg = build_config(name, prob, alpha=alpha)
    lengths = set()
    for cap in MAX_ITERS:
        hist = run(prob, cfg, StopRule(max_iters=cap, kkt_tol=TINY_TOL), reference=reference)
        lengths.add(len(hist))
        _assert_per_iterate_bits(hist, reference)
        _assert_per_iterate_bits(run(prob, cfg, StopRule(max_iters=cap, kkt_tol=TINY_TOL)), None)
    assert lengths == {cap + 1 for cap in MAX_ITERS}  # no run stopped early


@pytest.mark.parametrize("cap", MAX_ITERS)
def test_each_stack_holds_at_most_one_block_of_rows(cap, monkeypatch):
    prob, reference = _instance("random_qp_eq")
    cfg = build_config("balanced-alm", prob)
    rows = []
    original = solvers.BalancedMetric.quad_pair

    def recorded(self, dx, dlam):
        rows.append(dx.shape[0] if dx.ndim > 1 else None)
        return original(self, dx, dlam)

    monkeypatch.setattr(solvers.BalancedMetric, "quad_pair", recorded)
    run(prob, cfg, StopRule(max_iters=cap, kkt_tol=TINY_TOL), reference=reference)
    blocks = math.ceil((cap + 1) / solvers._BLOCK)
    step_rows = [min(solvers._BLOCK, cap - solvers._BLOCK * b) for b in range(blocks)]
    dist_rows = [min(solvers._BLOCK, cap + 1 - solvers._BLOCK * b) for b in range(blocks)]
    # per block, its steps (none in a last block of one iterate), then its distances
    assert rows == [r for s, d in zip(step_rows, dist_rows) for r in ([s] if s else []) + [d]]


def test_a_run_converged_at_its_start_has_one_row():
    prob, reference = _instance("random_qp_eq")
    hist = run(prob, build_config("balanced-alm", prob), StopRule(max_iters=5, kkt_tol=1e300), reference=reference)
    assert len(hist) == 1 and hist.converged
    assert math.isnan(hist.successive_h_steps[0])
    _assert_per_iterate_bits(hist, reference)


def test_a_non_finite_last_row_has_the_per_iterate_form():
    # the fixture of test_run_stops_at_the_first_non_finite_residual
    prob = Problem(Linear(np.array([1e150])), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)
    reference = PrimalDualPoint(np.zeros(1), np.zeros(1))
    with np.errstate(all="ignore"):
        hist = run(prob, BalancedAlmConfig(1e-160, 0.01), StopRule(max_iters=5000, kkt_tol=1e-8), reference=reference)
        assert len(hist) == 2 and not hist.converged
        assert not math.isfinite(hist.successive_h_steps[1])
        _assert_per_iterate_bits(hist, reference)
