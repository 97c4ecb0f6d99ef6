"""run against the public step functions, and the work run does once.

run calls unchecked step kernels and shares each iterate's matrix
products between its KKT residual and the next step.  The oracle here is
the plain loop over the public steps, kkt_residual and the metric: run
must match it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import balm.problems as problems
import balm.solvers as solvers
from balm.bench import build_config, config_params, generate_instance, metric_for
from balm.errors import BalmError, ConfigInvalid, DimensionMismatch
from balm.multiplier import build_h0, build_h2, build_hp
from balm.problems import PrimalDualPoint, SeparableProblem, default_start, flatten_blocks, kkt_residual
from balm.solvers import (
    METHODS,
    StopRule,
    admm_step,
    alt_split_step,
    balanced_alm_step,
    classic_alm_step,
    generalized_step,
    ladmm_step,
    lalm_step,
    primal_dual_step,
    run,
    split_balanced_step,
)

import support

STOP = StopRule(max_iters=60, kkt_tol=1e-8)
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


def _instance(kind: str):
    if kind == "two_block_qp":
        return support.two_block_qp(np.random.default_rng(1), 4, 3, 3)[0]
    return generate_instance(kind, KINDS[kind], 1)[0]


def _public_step(name: str, prob, cfg):
    """w -> the method's next iterate (its predictor when relaxed), through
    its public step function, with the dual system built once."""
    if name == "balanced-alm":
        sys = build_h0(prob.a, cfg.r, cfg.delta)
        return lambda w: balanced_alm_step(prob, cfg, sys, w)
    if name == "split-balanced":
        sys = build_hp([(blk.a, r) for blk, r in zip(prob.blocks, cfg.r_list)], cfg.delta)
        return lambda w: split_balanced_step(prob, cfg, sys, w)
    if name == "alt-split":
        sys = build_h2(prob.blocks[1].a, cfg.r, cfg.s, cfg.delta)
        return lambda w: alt_split_step(prob, cfg, sys, w)
    step = {
        "classic-alm": classic_alm_step,
        "lalm": lalm_step,
        "primal-dual": primal_dual_step,
        "admm": admm_step,
        "ladmm": ladmm_step,
    }[name]
    return lambda w: step(prob, cfg, w)


def _public_loop(name: str, prob, cfg, stop: StopRule):
    """run's loop written with the public steps: (iterates, residuals,
    step_h, predictors)."""
    metric = metric_for(name, config_params(name, cfg), prob)
    if METHODS[name].flattens and isinstance(prob, SeparableProblem):
        prob = flatten_blocks(prob)
    step = _public_step(name, prob, cfg)
    alpha = getattr(cfg, "alpha", 1.0)
    w = default_start(prob)
    iterates, residuals, steps_h, predictors = [w], [kkt_residual(prob, w)], [math.nan], []
    while stop.kkt_tol < residuals[-1].max() < math.inf and len(iterates) <= stop.max_iters:
        pred = step(w)
        predictors.append(pred)
        w_next = pred if alpha == 1.0 else PrimalDualPoint(w.x - alpha * (w.x - pred.x), w.lam - alpha * (w.lam - pred.lam))
        iterates.append(w_next)
        residuals.append(kkt_residual(prob, w_next))
        steps_h.append(math.sqrt(metric.quad_pair(w.x - w_next.x, w.lam - w_next.lam)))
        w = w_next
    return iterates, residuals, steps_h, predictors


def _same_points(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        (a.x == b.x).all() and (a.lam == b.lam).all() for a, b in zip(got, want)
    )


@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("kind", list(KINDS) + ["two_block_qp"])
@pytest.mark.parametrize("name", list(METHODS))
def test_run_matches_the_loop_over_public_steps_bit_for_bit(name, kind, alpha):
    prob = _instance(kind)
    if kind not in ACCEPTS[name]:
        with pytest.raises(BalmError):
            run(prob, build_config(name, prob, alpha=alpha), STOP)
        return
    cfg = build_config(name, prob, alpha=alpha)
    hist = run(prob, cfg, STOP)
    iterates, residuals, steps_h, predictors = _public_loop(name, prob, cfg, STOP)
    assert len(hist.iterates) > 2
    assert _same_points(hist.iterates, iterates)
    assert hist.residuals == residuals
    assert math.isnan(hist.successive_h_steps[0])
    assert hist.successive_h_steps[1:] == steps_h[1:]
    if hist.predictors is not None:
        assert alpha != 1.0 and _same_points(hist.predictors, predictors)


# (name, kind, flags) of runs away from unit prox weights: every prox
# the step reads misses the memo its KKT residual filled at weight 1.
# alpha is read by balanced-alm alone.
OFF_UNIT = [
    ("balanced-alm", kind, {"r": r, "alpha": alpha})
    for kind in ("random_qp_eq", "nonneg_qp_ineq", "lasso_eq")
    for r in (0.5, 2.0)
    for alpha in (1.0, 1.5)
] + [
    ("split-balanced", "lasso_eq", {"r_list": (1.0, 2.0)}),
    ("split-balanced", "two_block_qp", {"r_list": (1.0, 2.0)}),
    ("alt-split", "two_block_qp", {"s": 2.0}),
    ("primal-dual", "random_qp_eq", {"r": 2.0}),
]


@pytest.mark.parametrize("name, kind, flags", OFF_UNIT, ids=[f"{n}-{k}-{f}" for n, k, f in OFF_UNIT])
def test_run_matches_the_public_steps_bit_for_bit_away_from_unit_weights(name, kind, flags):
    prob = _instance(kind)
    cfg = build_config(name, prob, **flags)
    hist = run(prob, cfg, STOP)
    iterates, residuals, steps_h, predictors = _public_loop(name, prob, cfg, STOP)
    assert len(hist.iterates) > 2
    assert _same_points(hist.iterates, iterates)
    assert hist.residuals == residuals
    assert hist.successive_h_steps[1:] == steps_h[1:]
    if hist.predictors is not None:
        assert _same_points(hist.predictors, predictors)


def _counting(monkeypatch, module, attr: str) -> list:
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name", list(METHODS))
def test_run_enters_kkt_residual_once_per_recorded_iterate(name, monkeypatch):
    prob = _instance("two_block_qp")
    cfg = build_config(name, prob, alpha=1.5)
    calls = _counting(monkeypatch, solvers, "kkt_residual")
    hist = run(prob, cfg, StopRule(max_iters=25, kkt_tol=1e-8))
    assert len(calls) == len(hist.iterates) > 2


# (name, kind, flags, blocks whose step weight is not 1)
PROX_COUNTS = [
    ("balanced-alm", "random_qp_eq", {}, 0),
    ("balanced-alm", "random_qp_eq", {"alpha": 1.5}, 0),
    ("balanced-alm", "nonneg_qp_ineq", {}, 0),
    ("balanced-alm", "random_qp_eq", {"r": 2.0}, 1),
    ("balanced-alm", "random_qp_eq", {"r": 2.0, "alpha": 1.5}, 1),
    ("split-balanced", "lasso_eq", {}, 0),
    ("split-balanced", "lasso_eq", {"r_list": (1.0, 2.0)}, 1),
    ("split-balanced", "lasso_eq", {"r_list": (2.0, 0.5)}, 2),
    ("primal-dual", "basis_pursuit", {}, 0),
    ("alt-split", "two_block_qp", {}, 0),
    ("alt-split", "two_block_qp", {"s": 2.0}, 1),
]


@pytest.mark.parametrize("name, kind, flags, off_unit", PROX_COUNTS, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in PROX_COUNTS])
def test_run_takes_one_prox_per_block_per_iterate_and_one_more_per_off_unit_weight(name, kind, flags, off_unit, monkeypatch):
    """Each recorded iterate's KKT residual proxes every block at weight 1
    and the step from it reads those proxes; a block stepped at another
    weight costs one more prox per step.  alt-split's block 1 is proxed
    by the residual only."""
    prob = _instance(kind)
    cfg = build_config(name, prob, **flags)
    calls = [_counting(monkeypatch, module, "prox_constrained") for module in (problems, solvers)]
    hist = run(prob, cfg, StopRule(max_iters=25, kkt_tol=1e-8))
    n_blocks = len(METHODS[name].problem(prob).blocks)
    iters = len(hist.iterates)
    assert iters > 2
    assert len(calls[0]) == n_blocks * iters + off_unit * (iters - 1) and not calls[1]


@pytest.mark.parametrize("name", ["lalm", "primal-dual"])
def test_run_checks_a_baseline_once(name, monkeypatch):
    prob = _instance("basis_pursuit")
    cfg = build_config(name, prob)
    calls = _counting(monkeypatch, solvers, "_check_baseline")
    hist = run(prob, cfg, StopRule(max_iters=25, kkt_tol=1e-8))
    assert len(hist.iterates) > 2 and len(calls) == 1


@pytest.mark.parametrize("name", ["classic-alm", "admm", "ladmm"])
def test_run_checks_a_fista_baseline_once(name, monkeypatch):
    prob = _instance("lasso_eq")
    cfg = build_config(name, prob)
    calls = _counting(monkeypatch, solvers, "_check_baseline")
    hist = run(prob, cfg, StopRule(max_iters=25, kkt_tol=1e-8))
    assert len(hist.iterates) > 2 and len(calls) == 1


@pytest.mark.parametrize("name, per_step", [("classic-alm", 1), ("lalm", 1), ("admm", 1), ("ladmm", 2)])
def test_a_baseline_step_forms_a_x_minus_b_only_where_it_needs_a_new_one(name, per_step, monkeypatch):
    """The dual ascent's A x+ - b is the next KKT residual's; ladmm also
    forms A x - b at the half-updated point (x1+, x2)."""
    prob = _instance("lasso_eq")
    cfg = build_config(name, prob)
    calls = [_counting(monkeypatch, module, "coupling") for module in (problems, solvers)]
    hist = run(prob, cfg, StopRule(max_iters=25, kkt_tol=1e-8))
    steps = len(hist.iterates) - 1
    assert steps > 1 and sum(map(len, calls)) == 1 + per_step * steps  # 1: the start's residual


@pytest.mark.parametrize("cut", ["x", "lam"])
@pytest.mark.parametrize("name", list(METHODS))
def test_every_public_step_raises_dimension_mismatch_on_a_short_point(name, cut):
    """One-block steps on a one-block problem, block steps on a separable one."""
    kind = "basis_pursuit" if METHODS[name].flattens else "two_block_qp" if name == "alt-split" else "lasso_eq"
    prob = _instance(kind)
    assert isinstance(prob, SeparableProblem) != METHODS[name].flattens
    step = _public_step(name, prob, build_config(name, prob))
    w = default_start(prob)
    short = PrimalDualPoint(w.x[:-1], w.lam) if cut == "x" else PrimalDualPoint(w.x, w.lam[:-1])
    with pytest.raises(DimensionMismatch):
        step(short)


@pytest.mark.parametrize("name", [name for name, spec in METHODS.items() if spec.flattens])
def test_every_one_block_public_step_refuses_a_separable_problem(name):
    """The row's single-block check, where balanced-alm's steps used to
    fail with an IndexError from their per-block prox weights."""
    prob = _instance("lasso_eq")
    cfg = build_config(name, prob)
    w = default_start(prob)
    if name == "balanced-alm":
        sys = build_h0(flatten_blocks(prob).a, cfg.r, cfg.delta)
        steps = [lambda: balanced_alm_step(prob, cfg, sys, w), lambda: generalized_step(prob, cfg, sys, w)]
    else:
        steps = [lambda: _public_step(name, prob, cfg)(w)]
    for step in steps:
        with pytest.raises(ConfigInvalid, match=rf"^{name} expects a single-block problem \(flatten first\)$"):
            step()


def test_alt_split_run_factors_block_one_once(monkeypatch):
    prob = _instance("two_block_qp")
    cfg = build_config("alt-split", prob)
    calls = _counting(monkeypatch, solvers, "cholesky_factor")
    hist = run(prob, cfg, StopRule(max_iters=25, kkt_tol=1e-8))
    assert len(hist.iterates) > 2 and len(calls) == 1


@pytest.mark.parametrize("name", ["lalm", "primal-dual"])
def test_a_flattening_baseline_bounds_the_gram_norm_once(name, monkeypatch):
    prob = _instance("lasso_eq")
    calls = _counting(monkeypatch, problems, "gram_norm_bound")
    hist = run(prob, build_config(name, prob), StopRule(max_iters=5, kkt_tol=1e-8))
    assert len(hist.iterates) > 2 and len(calls) == 1


def test_kkt_residual_fills_the_products_it_is_given():
    prob = _instance("two_block_qp")
    w = PrimalDualPoint(np.linspace(-1.0, 1.0, prob.n), np.linspace(2.0, 3.0, prob.m))
    products = problems.PointProducts(prob, w)
    assert kkt_residual(prob, w, products) == kkt_residual(prob, w)
    assert (products.resid() == problems.coupling(prob, w.x)).all()
    for i, blk in enumerate(prob.blocks):
        assert (products.at_lam(i) == blk.a.T @ w.lam).all()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-300.0, 300.0))
def test_sqrt_dot_is_the_numpy_norm_bit_for_bit(n, seed, log_scale):
    """_fista, the gap sampler and solve_lcp take norms as sqrt(v . v);
    overflow gives inf, as np.linalg.norm does."""
    v = np.random.default_rng(seed).standard_normal(n) * 10.0**log_scale
    with np.errstate(over="ignore", under="ignore"):
        assert math.sqrt(v.dot(v)) == np.linalg.norm(v)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    m=st.integers(1, 80),
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-100.0, 100.0),
)
def test_dot_is_matmul_bit_for_bit(m, n, seed, log_scale):
    """The run loop's matrix-vector products use ndarray.dot in place of @."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * 10.0**log_scale
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    assert (a.dot(x) == a @ x).all()
    assert (a.T.dot(y) == a.T @ y).all()
    assert x.dot(x) == x @ x


def _products_point(prob):
    return PrimalDualPoint(np.linspace(-1.0, 1.0, prob.n), np.linspace(2.0, 3.0, prob.m))


@pytest.mark.parametrize("name, kind", [("balanced-alm", "basis_pursuit"), ("split-balanced", "lasso_eq"), ("primal-dual", "random_qp_eq")])
def test_kkt_residual_after_a_unit_weight_step_is_the_fresh_one(name, kind, monkeypatch):
    """A step at weight 1 fills the products' proxes; the residual read
    from them is the one computed from nothing, and takes no prox."""
    prob = _instance(kind)
    cfg = build_config(name, prob)
    spec = METHODS[name]
    prob = spec.problem(prob)
    w = _products_point(prob)
    products = problems.PointProducts(prob, w)
    spec.step(prob, cfg, spec.system(prob, cfg), products)
    calls = _counting(monkeypatch, problems, "prox_constrained")
    assert kkt_residual(prob, w, products) == kkt_residual(prob, w)
    assert len(calls) == len(prob.blocks)  # the fresh residual's alone


def test_a_prox_is_served_only_for_the_weight_it_was_taken_at():
    prob = _instance("two_block_qp")
    w = _products_point(prob)
    xs = prob.split(w.x)

    def fresh(i, r):
        blk = prob.blocks[i]
        return problems.prox_constrained(blk.theta, blk.x_set, r, xs[i] + blk.a.T.dot(w.lam) / r)

    products = problems.PointProducts(prob, w)
    for i in range(len(prob.blocks)):
        at_two = products.prox(i, 2.0)
        assert (at_two == fresh(i, 2.0)).all()
        assert (products.prox(i, 1.0) == fresh(i, 1.0)).all()
        assert not (products.prox(i, 1.0) == at_two).all()
        assert products.prox(i, 2.0) is at_two
    assert kkt_residual(prob, w, products) == kkt_residual(prob, w)
    # the other order: the residual fills weight 1, and weight 0.5 is its own
    products = problems.PointProducts(prob, w)
    kkt_residual(prob, w, products)
    for i in range(len(prob.blocks)):
        assert (products.prox(i, 0.5) == fresh(i, 0.5)).all()
        assert not (products.prox(i, 0.5) == products.prox(i, 1.0)).all()
