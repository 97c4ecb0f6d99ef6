from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from balm.bench import build_config, generate_instance, metric_for
from balm.errors import ConfigInvalid, DimensionMismatch, InnerNoConvergence, UnsupportedCombination
from balm.linalg import cholesky_factor, h_quadratic
from balm.multiplier import build_h0, build_h2, build_hp
from balm.problems import Block, PrimalDualPoint, Problem, SeparableProblem, Sense, default_start, flatten_blocks, kkt_residual
from balm.prox import Box, L1, Linear, NonnegativeOrthant, Quadratic, WholeSpace, Zero
from balm.solvers import (
    METHODS,
    AltSplitConfig,
    AltSplitMetric,
    BalancedAlmConfig,
    BalancedMetric,
    BaselineConfig,
    IdentityMetric,
    Method,
    RunHistory,
    SplitConfig,
    StopRule,
    admm_step,
    alt_split_metric,
    alt_split_step,
    balanced_alm_step,
    balanced_metric,
    classic_alm_step,
    generalized_step,
    ladmm_step,
    lalm_step,
    primal_dual_step,
    run,
    split_balanced_step,
    split_metric,
)

import balm.solvers as solvers
import support


def _scalar_two_block(theta2=None):
    """Two scalar blocks sharing x1 + x2 = 1."""
    t2 = Quadratic(np.eye(1), np.zeros(1)) if theta2 is None else theta2
    return SeparableProblem(
        (
            Block(Quadratic(np.eye(1), np.zeros(1)), WholeSpace(), np.eye(1)),
            Block(t2, WholeSpace(), np.eye(1)),
        ),
        np.ones(1),
        Sense.EQUALITY,
    )


# ---------------------------------------------------------------------------
# configs


def test_balanced_config_validation():
    BalancedAlmConfig(1.0, 0.1, 1.9)
    for bad in [dict(r=0.0, delta=0.1), dict(r=1.0, delta=0.0)]:
        with pytest.raises(ConfigInvalid):
            BalancedAlmConfig(**bad)
    for alpha in [0.0, 2.0, -0.5]:
        with pytest.raises(ConfigInvalid):
            BalancedAlmConfig(1.0, 0.1, alpha)


def test_split_config_validation():
    SplitConfig((1.0, 2.0), 0.1)
    with pytest.raises(ConfigInvalid):
        SplitConfig((), 0.1)
    with pytest.raises(ConfigInvalid):
        SplitConfig((1.0, -1.0), 0.1)
    with pytest.raises(ConfigInvalid):
        SplitConfig((1.0,), 0.0)


def test_alt_split_config_validation():
    AltSplitConfig(1.0, 1.0, 0.1)
    with pytest.raises(ConfigInvalid):
        AltSplitConfig(1.0, 0.0, 0.1)


def test_baseline_config_validation():
    BaselineConfig(Method.CLASSIC_ALM, 1.0)
    with pytest.raises(ConfigInvalid):
        BaselineConfig("classic-alm", 1.0)
    with pytest.raises(ConfigInvalid):
        BaselineConfig(Method.CLASSIC_ALM, 0.0)
    with pytest.raises(ConfigInvalid):
        BaselineConfig(Method.CLASSIC_ALM, 1.0, inner_tol=0.0)
    with pytest.raises(ConfigInvalid):
        BaselineConfig(Method.CLASSIC_ALM, 1.0, inner_max_iters=0)


def test_stop_rule_validation():
    StopRule(1, 1e-8)
    with pytest.raises(ConfigInvalid):
        StopRule(0, 1e-8)
    with pytest.raises(ConfigInvalid):
        StopRule(10, 0.0)


def test_method_names():
    assert {m.value for m in Method} == {"classic-alm", "lalm", "primal-dual", "admm", "ladmm"}


# ---------------------------------------------------------------------------
# metric matrices


def test_balanced_metric_worked():
    h = balanced_metric(np.eye(1), 1.0, 1.0)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 2.0]], atol=1e-15)


def test_split_metric_single_block_matches_balanced():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 4))
    one = balanced_metric(a, 1.3, 0.2)
    other = split_metric([a], (1.3,), 0.2)
    assert np.array_equal(one, other)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    widths=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.floats(1e-3, 1e3), min_size=7, max_size=7),
)
def test_dense_metric_builders_match_scipy_block_diag_byte_for_byte(widths, m, seed, weights):
    """The top-left blocks were scipy.linalg.block_diag of r_i I (split)
    and of block 1's Gram term and s I (alt-split)."""
    rng = np.random.default_rng(seed)
    a_list = [rng.standard_normal((m, n)) for n in widths]
    r_list, (r, s, delta) = weights[: len(widths)], weights[-3:]

    def bordered(top, a_list, corner):
        a = np.hstack(a_list)
        return np.block([[top, a.T], [a, corner]])

    split = bordered(
        block_diag(*(r_i * np.eye(a.shape[1]) for a, r_i in zip(a_list, r_list))),
        a_list,
        build_hp(list(zip(a_list, r_list)), delta).h,
    )
    a1, a2 = a_list[0], rng.standard_normal((m, widths[-1]))
    alt = bordered(
        block_diag(solvers._block_one_shift(a1, r, delta), s * np.eye(a2.shape[1])), [a1, a2], build_h2(a2, r, s, delta).h
    )
    for got, want in [(split_metric(a_list, r_list, delta), split), (alt_split_metric(a1, a2, r, s, delta), alt)]:
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_split_metric_two_block_layout():
    a1, a2 = np.array([[1.0, 0.0]]), np.array([[2.0]])
    h = split_metric([a1, a2], (2.0, 3.0), 0.5)
    expect = np.array(
        [
            [2.0, 0.0, 0.0, 1.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 2.0],
            [1.0, 0.0, 2.0, 0.5 + 4.0 / 3.0 + 0.5],
        ]
    )
    assert np.allclose(h, expect, atol=1e-14)


def test_alt_split_metric_worked():
    h = alt_split_metric(np.eye(1), np.eye(1), 1.0, 1.0, 1.0)
    expect = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
    assert np.allclose(h, expect, atol=1e-15)


def test_metrics_positive_definite_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a1 = rng.standard_normal((m, n1))
        a2 = rng.standard_normal((m, n2))
        r, s, delta = 0.5 + rng.random(), 0.5 + rng.random(), 0.01 + 0.2 * rng.random()
        cholesky_factor(balanced_metric(np.hstack([a1, a2]), r, delta))
        cholesky_factor(split_metric([a1, a2], (r, s), delta))
        cholesky_factor(alt_split_metric(a1, a2, r, s, delta))


# ---------------------------------------------------------------------------
# balanced family steps


def test_balanced_step_scalar_trajectory():
    prob = support.scalar_problem()
    cfg = BalancedAlmConfig(1.0, 1.0)
    sys = build_h0(prob.a, cfg.r, cfg.delta)
    w0 = PrimalDualPoint(np.zeros(1), np.zeros(1))
    w1 = balanced_alm_step(prob, cfg, sys, w0)
    assert w1.x[0] == pytest.approx(0.0, abs=1e-12)
    assert w1.lam[0] == pytest.approx(0.5, abs=1e-12)
    w2 = balanced_alm_step(prob, cfg, sys, w1)
    assert w2.x[0] == pytest.approx(0.25, abs=1e-12)
    assert w2.lam[0] == pytest.approx(0.75, abs=1e-12)


def test_balanced_step_fixed_point_at_saddle():
    rng = np.random.default_rng(10)
    prob, star = support.random_eq_qp(rng, 5, 3)
    cfg = BalancedAlmConfig(2.0, 0.3)
    sys = build_h0(prob.a, cfg.r, cfg.delta)
    w1 = balanced_alm_step(prob, cfg, sys, star)
    assert np.linalg.norm(w1.as_array() - star.as_array()) <= 1e-9


def test_generalized_alpha_one_is_predictor_object():
    prob = support.scalar_problem()
    cfg = BalancedAlmConfig(1.0, 1.0, alpha=1.0)
    sys = build_h0(prob.a, cfg.r, cfg.delta)
    w0 = PrimalDualPoint(np.zeros(1), np.zeros(1))
    pred = balanced_alm_step(prob, cfg, sys, w0)
    out = generalized_step(prob, cfg, sys, w0)
    assert np.array_equal(out.as_array(), pred.as_array())


def test_generalized_alpha_half_worked():
    prob = support.scalar_problem()
    cfg = BalancedAlmConfig(1.0, 1.0, alpha=0.5)
    sys = build_h0(prob.a, cfg.r, cfg.delta)
    out = generalized_step(prob, cfg, sys, PrimalDualPoint(np.zeros(1), np.zeros(1)))
    # half way from (0, 0) to the predictor (0, 0.5)
    assert out.x[0] == pytest.approx(0.0, abs=1e-12)
    assert out.lam[0] == pytest.approx(0.25, abs=1e-12)


def test_split_step_scalar_worked():
    prob = _scalar_two_block()
    cfg = SplitConfig((1.0, 1.0), 1.0)
    sys = build_hp([(blk.a, r) for blk, r in zip(prob.blocks, cfg.r_list)], cfg.delta)
    w1 = split_balanced_step(prob, cfg, sys, PrimalDualPoint(np.zeros(2), np.zeros(1)))
    assert np.allclose(w1.x, [0.0, 0.0], atol=1e-12)
    assert w1.lam[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_split_step_rejects_weight_mismatch():
    prob = _scalar_two_block()
    cfg = SplitConfig((1.0,), 1.0)
    sys = build_hp([(prob.blocks[0].a, 1.0)], 1.0)
    with pytest.raises(ConfigInvalid):
        split_balanced_step(prob, cfg, sys, PrimalDualPoint(np.zeros(2), np.zeros(1)))


def test_alt_split_step_scalar_worked():
    prob = _scalar_two_block(theta2=Zero())
    cfg = AltSplitConfig(1.0, 1.0, 1.0)
    sys = build_h2(prob.blocks[1].a, cfg.r, cfg.s, cfg.delta)
    w1 = alt_split_step(prob, cfg, sys, PrimalDualPoint(np.zeros(2), np.zeros(1)))
    assert np.allclose(w1.x, [0.0, 0.0], atol=1e-12)
    assert w1.lam[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_alt_split_rejects_constrained_first_block():
    prob = SeparableProblem(
        (
            Block(Quadratic(np.eye(1), np.zeros(1)), NonnegativeOrthant(), np.eye(1)),
            Block(Zero(), WholeSpace(), np.eye(1)),
        ),
        np.ones(1),
        Sense.EQUALITY,
    )
    cfg = AltSplitConfig(1.0, 1.0, 1.0)
    sys = build_h2(prob.blocks[1].a, 1.0, 1.0, 1.0)
    with pytest.raises(UnsupportedCombination):
        alt_split_step(prob, cfg, sys, PrimalDualPoint(np.zeros(2), np.zeros(1)))


def test_alt_split_rejects_wrong_block_count():
    prob = SeparableProblem((Block(Zero(), WholeSpace(), np.eye(1)),), np.ones(1), Sense.EQUALITY)
    sys = build_h2(np.eye(1), 1.0, 1.0, 1.0)
    with pytest.raises(ConfigInvalid):
        alt_split_step(prob, AltSplitConfig(1.0, 1.0, 1.0), sys, PrimalDualPoint(np.zeros(1), np.zeros(1)))


# ---------------------------------------------------------------------------
# baseline steps


def test_classic_step_zero_objective_exact():
    # min 0 s.t. x = 1: the inner solve lands on x = 1, dual stays 0
    prob = Problem(Zero(), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)
    w1 = classic_alm_step(prob, BaselineConfig(Method.CLASSIC_ALM, 1.0), PrimalDualPoint(np.zeros(1), np.zeros(1)))
    assert w1.x[0] == pytest.approx(1.0, abs=1e-10)
    assert w1.lam[0] == pytest.approx(0.0, abs=1e-10)


def test_classic_step_quadratic_worked():
    prob = support.scalar_problem()
    w1 = classic_alm_step(prob, BaselineConfig(Method.CLASSIC_ALM, 1.0), PrimalDualPoint(np.zeros(1), np.zeros(1)))
    # inner: min x^2/2 + (1/2)(x - 1)^2 -> x = 1/2; dual ascent -> 1/2
    assert w1.x[0] == pytest.approx(0.5, abs=1e-8)
    assert w1.lam[0] == pytest.approx(0.5, abs=1e-8)


def test_classic_inner_cap_raises():
    prob = Problem(
        Quadratic(np.eye(2), np.zeros(2)),
        WholeSpace(),
        np.diag([1.0, 2.0]),
        np.ones(2),
        Sense.EQUALITY,
    )
    cfg = BaselineConfig(Method.CLASSIC_ALM, 1.0, inner_tol=1e-12, inner_max_iters=1)
    with pytest.raises(InnerNoConvergence):
        classic_alm_step(prob, cfg, PrimalDualPoint(np.zeros(2), np.zeros(2)))


def test_lalm_step_zero_objective_worked():
    prob = Problem(Zero(), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)
    cfg = BaselineConfig(Method.LALM, 1.0, sigma_or_s=1.1)
    w1 = lalm_step(prob, cfg, PrimalDualPoint(np.zeros(1), np.zeros(1)))
    assert w1.x[0] == pytest.approx(1.0 / 1.1, abs=1e-12)
    assert w1.lam[0] == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-12)


def test_lalm_rejects_small_sigma():
    prob = support.scalar_problem()
    with pytest.raises(ConfigInvalid):
        lalm_step(prob, BaselineConfig(Method.LALM, 1.0, sigma_or_s=0.9), PrimalDualPoint(np.zeros(1), np.zeros(1)))


def test_lalm_sharp_bounds_admits_smaller_sigma():
    prob = support.scalar_problem()
    w = PrimalDualPoint(np.zeros(1), np.zeros(1))
    with pytest.raises(ConfigInvalid):
        lalm_step(prob, BaselineConfig(Method.LALM, 1.0, sigma_or_s=0.8), w)
    lalm_step(prob, BaselineConfig(Method.LALM, 1.0, sigma_or_s=0.8, sharp_bounds=True), w)


def test_primal_dual_step_worked():
    prob = support.scalar_problem()
    cfg = BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=2.0)
    w1 = primal_dual_step(prob, cfg, PrimalDualPoint(np.zeros(1), np.zeros(1)))
    assert w1.x[0] == pytest.approx(0.0, abs=1e-12)
    assert w1.lam[0] == pytest.approx(0.5, abs=1e-12)


def test_primal_dual_rejects_small_product():
    prob = support.scalar_problem()
    cfg = BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=0.9)
    with pytest.raises(ConfigInvalid):
        primal_dual_step(prob, cfg, PrimalDualPoint(np.zeros(1), np.zeros(1)))


def test_admm_step_worked():
    prob = _scalar_two_block()
    w1 = admm_step(prob, BaselineConfig(Method.ADMM, 1.0), PrimalDualPoint(np.zeros(2), np.zeros(1)))
    assert w1.x[0] == pytest.approx(0.5, abs=1e-8)
    assert w1.x[1] == pytest.approx(0.25, abs=1e-8)
    assert w1.lam[0] == pytest.approx(0.25, abs=1e-8)


def test_ladmm_step_worked():
    prob = _scalar_two_block(theta2=Zero())
    cfg = BaselineConfig(Method.LINEARIZED_ADMM, 1.0, sigma_or_s=2.1)
    w1 = ladmm_step(prob, cfg, PrimalDualPoint(np.zeros(2), np.zeros(1)))
    assert w1.x[0] == pytest.approx(0.5, abs=1e-8)
    assert w1.x[1] == pytest.approx(0.5 / 2.1, abs=1e-8)
    assert w1.lam[0] == pytest.approx(0.5 - 0.5 / 2.1, abs=1e-8)


def test_ladmm_rejects_small_s():
    prob = _scalar_two_block(theta2=Zero())
    cfg = BaselineConfig(Method.LINEARIZED_ADMM, 1.0, sigma_or_s=0.5)
    with pytest.raises(ConfigInvalid):
        ladmm_step(prob, cfg, PrimalDualPoint(np.zeros(2), np.zeros(1)))


def test_baselines_reject_inequality():
    prob = Problem(Zero(), WholeSpace(), np.eye(1), np.zeros(1), Sense.INEQUALITY)
    with pytest.raises(ConfigInvalid):
        classic_alm_step(prob, BaselineConfig(Method.CLASSIC_ALM, 1.0), PrimalDualPoint(np.zeros(1), np.zeros(1)))


# ---------------------------------------------------------------------------
# the run driver


def test_run_balanced_converges_to_saddle():
    rng = np.random.default_rng(30)
    prob, star = support.random_eq_qp(rng, 6, 3)
    hist = run(prob, BalancedAlmConfig(1.0, 0.1), StopRule(20_000, 1e-9), reference=star)
    assert hist.converged
    last = hist.iterates[-1]
    assert np.linalg.norm(last.x - star.x) <= 1e-6
    assert hist.h_distances is not None
    diffs = np.diff(hist.h_distances)
    assert np.all(diffs <= 1e-9)


def test_run_starts_at_saddle_stops_immediately():
    rng = np.random.default_rng(31)
    prob, star = support.random_eq_qp(rng, 4, 2)
    hist = run(prob, BalancedAlmConfig(1.0, 0.1), StopRule(100, 1e-7), w0=star)
    assert hist.converged and len(hist) == 1
    assert np.isnan(hist.successive_h_steps[0])


def test_run_respects_max_iters():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(3, 1e-16))
    assert not hist.converged
    assert len(hist) == 4


def test_run_relaxed_records_predictors():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0, alpha=1.5), StopRule(50, 1e-10))
    assert hist.converged
    assert hist.predictors is not None
    assert len(hist.predictors) == len(hist) - 1
    # the corrector interpolates: w1 = w0 - 1.5 (w0 - pred0)
    w0, w1 = hist.iterates[0], hist.iterates[1]
    pred = hist.predictors[0]
    assert np.allclose(w1.as_array(), w0.as_array() - 1.5 * (w0.as_array() - pred.as_array()), atol=1e-15)


def test_run_unrelaxed_has_no_predictors():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(50, 1e-10))
    assert hist.predictors is None


def test_run_alpha_values_all_converge():
    rng = np.random.default_rng(32)
    prob, star = support.random_eq_qp(rng, 4, 2)
    for alpha in (0.5, 1.0, 1.5, 1.9):
        hist = run(prob, BalancedAlmConfig(1.0, 0.2, alpha=alpha), StopRule(50_000, 1e-8))
        assert hist.converged, alpha
        assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-5


def test_run_split_single_block_bitwise_matches_balanced():
    rng = np.random.default_rng(33)
    p = support.random_spd(rng, 4)
    c = rng.standard_normal(4)
    a = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    sep = SeparableProblem((Block(Quadratic(p, c), WholeSpace(), a),), b, Sense.EQUALITY)
    flat = Problem(Quadratic(p.copy(), c.copy()), WholeSpace(), a, b, Sense.EQUALITY)
    stop = StopRule(60, 1e-13)
    h_split = run(sep, SplitConfig((1.2,), 0.3), stop)
    h_bal = run(flat, BalancedAlmConfig(1.2, 0.3), stop)
    assert len(h_split) == len(h_bal)
    for ws, wb in zip(h_split.iterates, h_bal.iterates):
        assert np.array_equal(ws.x, wb.x)
        assert np.array_equal(ws.lam, wb.lam)
    assert np.array_equal(h_split.metric, h_bal.metric)
    assert h_split.successive_h_steps[1:] == h_bal.successive_h_steps[1:]


def test_run_builds_one_dual_system_and_the_exported_metric(monkeypatch):
    import balm.multiplier as multiplier

    factored = []
    original = multiplier.cholesky_factor

    def counting_factor(m):
        factored.append(m)
        return original(m)

    monkeypatch.setattr(multiplier, "cholesky_factor", counting_factor)
    rng = np.random.default_rng(35)
    sep, _ = support.two_block_qp(rng, 3, 2, 2)
    a1, a2 = (blk.a for blk in sep.blocks)
    cases = [
        (BalancedAlmConfig(1.1, 0.2), balanced_metric(np.hstack([a1, a2]), 1.1, 0.2)),
        (SplitConfig((1.1, 0.7), 0.2), split_metric([a1, a2], (1.1, 0.7), 0.2)),
        (AltSplitConfig(1.1, 0.7, 0.2), alt_split_metric(a1, a2, 1.1, 0.7, 0.2)),
    ]
    for cfg, expected in cases:
        factored.clear()
        hist = run(sep, cfg, StopRule(3, 1e-12))
        assert len(factored) == 1, type(cfg).__name__
        assert np.array_equal(hist.metric, expected), type(cfg).__name__


def test_run_balanced_flattens_separable():
    rng = np.random.default_rng(34)
    sep, star = support.two_block_qp(rng, 3, 2, 2)
    hist = run(sep, BalancedAlmConfig(1.0, 0.2), StopRule(30_000, 1e-9))
    assert hist.converged
    assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-6


def test_run_split_two_block_converges():
    rng = np.random.default_rng(35)
    sep, star = support.two_block_qp(rng, 3, 2, 2)
    hist = run(sep, SplitConfig((1.0, 1.5), 0.2), StopRule(40_000, 1e-9))
    assert hist.converged
    assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-6


def test_run_alt_split_two_block_converges():
    rng = np.random.default_rng(36)
    sep, star = support.two_block_qp(rng, 3, 2, 2)
    hist = run(sep, AltSplitConfig(1.0, 1.5, 0.2), StopRule(40_000, 1e-9))
    assert hist.converged
    assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-6


def test_run_inequality_keeps_multiplier_nonnegative():
    rng = np.random.default_rng(37)
    prob, star = support.random_ineq_qp(rng, 5, 3)
    hist = run(prob, BalancedAlmConfig(1.0, 0.2), StopRule(30_000, 1e-9))
    assert hist.converged
    for w in hist.iterates:
        assert w.lam.min() >= -1e-12
    assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-5


def test_run_inequality_constrained_primal_set():
    # min 0.5||x||^2 - x1 s.t. x1 + x2 >= 1, x >= 0
    prob = Problem(
        Quadratic(np.eye(2), np.array([-1.0, 0.0])),
        NonnegativeOrthant(),
        np.array([[1.0, 1.0]]),
        np.ones(1),
        Sense.INEQUALITY,
    )
    hist = run(prob, BalancedAlmConfig(1.0, 0.5), StopRule(20_000, 1e-9))
    assert hist.converged
    x = hist.iterates[-1].x
    assert np.allclose(x, [1.0, 0.0], atol=1e-6)


def test_run_baselines_converge_scalar():
    prob = support.scalar_problem()
    stop = StopRule(5_000, 1e-9)
    for cfg in [
        BaselineConfig(Method.CLASSIC_ALM, 1.0),
        BaselineConfig(Method.LALM, 1.0, sigma_or_s=1.1),
        BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=2.0),
    ]:
        hist = run(prob, cfg, stop)
        assert hist.converged, cfg.method
        assert hist.iterates[-1].x[0] == pytest.approx(1.0, abs=1e-6)
        assert np.array_equal(hist.metric, np.eye(2))


def test_run_two_block_baselines_converge():
    rng = np.random.default_rng(38)
    sep, star = support.two_block_qp(rng, 2, 2, 1)
    stop = StopRule(20_000, 1e-9)
    g2 = sep.block_gram_norms[1]
    for cfg in [
        BaselineConfig(Method.ADMM, 1.0),
        BaselineConfig(Method.LINEARIZED_ADMM, 1.0, sigma_or_s=1.01 * g2),
    ]:
        hist = run(sep, cfg, stop)
        assert hist.converged, cfg.method
        assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-5


def test_run_single_block_baseline_flattens_separable():
    rng = np.random.default_rng(39)
    sep, star = support.two_block_qp(rng, 2, 2, 1)
    hist = run(sep, BaselineConfig(Method.CLASSIC_ALM, 1.0), StopRule(5_000, 1e-9))
    assert hist.converged
    assert np.linalg.norm(hist.iterates[-1].x - star.x) <= 1e-5


def test_run_validates_stepsize_up_front():
    prob = support.scalar_problem()
    stop = StopRule(10, 1e-8)
    with pytest.raises(ConfigInvalid):
        run(prob, BaselineConfig(Method.LALM, 1.0, sigma_or_s=0.5), stop)
    with pytest.raises(ConfigInvalid):
        run(prob, BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=0.5), stop)
    sep = _scalar_two_block()
    with pytest.raises(ConfigInvalid):
        run(sep, BaselineConfig(Method.LINEARIZED_ADMM, 1.0, sigma_or_s=0.5), stop)


def test_run_rejects_stepsizes_between_the_power_estimate_and_the_norm():
    """sigma_max(A)^2 is 599.7975868 on this instance, and power iteration
    stops at 599.7971753; a stepsize between the two violates the
    condition and is rejected."""
    prob, _ = generate_instance("basis_pursuit", (60, 300), 1)
    stop = StopRule(10, 1e-8)
    with pytest.raises(ConfigInvalid):
        run(prob, BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=599.7973), stop)
    with pytest.raises(ConfigInvalid):
        run(prob, BaselineConfig(Method.LALM, 1.0, sigma_or_s=599.7973), stop)


def _scalar_blocks(k: int) -> SeparableProblem:
    """k scalar blocks x_i^2/2 sharing sum_i x_i = 1; saddle x_i = lam = 1/k."""
    blk = Block(Quadratic(np.eye(1), np.zeros(1)), WholeSpace(), np.eye(1))
    return SeparableProblem((blk,) * k, np.ones(1), Sense.EQUALITY)


@pytest.mark.parametrize(
    "prob, cfg",
    [
        (support.scalar_problem(), BaselineConfig(Method.LALM, 1.0, sigma_or_s=0.5)),
        (support.scalar_problem(), BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=0.5)),
        (_scalar_blocks(2), BaselineConfig(Method.LINEARIZED_ADMM, 1.0, sigma_or_s=0.5)),
        (_scalar_blocks(2), SplitConfig((1.0, 1.0, 1.0), 0.5)),
        (_scalar_blocks(3), AltSplitConfig(1.0, 1.0, 0.5)),
    ],
    ids=["lalm", "primal-dual", "ladmm", "split-balanced", "alt-split"],
)
def test_run_validates_before_the_first_step(prob, cfg):
    """An invalid config raises even from a start that already meets the
    tolerance, where no step is taken."""
    k = len(prob.blocks) if isinstance(prob, SeparableProblem) else 1
    saddle = PrimalDualPoint(np.full(k, 1.0 / k), np.full(1, 1.0 / k))
    stop = StopRule(10, 1e-8)
    assert kkt_residual(prob, saddle).within(stop.kkt_tol)
    with pytest.raises(ConfigInvalid):
        run(prob, cfg, stop, w0=saddle)


def test_primal_dual_ignores_sharp_bounds():
    """sharp_bounds relaxes lalm and ladmm only; primal-dual keeps r s > ||A^T A||."""
    assert [name for name, spec in METHODS.items() if spec.sharp_bounds] == ["lalm", "ladmm"]
    prob = support.scalar_problem()
    cfg = BaselineConfig(Method.PRIMAL_DUAL, 1.0, sigma_or_s=0.9, sharp_bounds=True)
    with pytest.raises(ConfigInvalid):
        primal_dual_step(prob, cfg, PrimalDualPoint(np.zeros(1), np.zeros(1)))
    with pytest.raises(ConfigInvalid):
        run(prob, cfg, StopRule(10, 1e-8))


def test_run_rejects_mismatched_start():
    prob = support.scalar_problem()
    with pytest.raises(DimensionMismatch):
        run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(10, 1e-8), w0=PrimalDualPoint(np.zeros(2), np.zeros(1)))


def test_run_rejects_start_outside_set():
    prob = Problem(Zero(), Box(np.zeros(1), np.ones(1)), np.eye(1), np.zeros(1), Sense.EQUALITY)
    with pytest.raises(ValueError):
        run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(10, 1e-8), w0=PrimalDualPoint(np.array([2.0]), np.zeros(1)))


def test_run_rejects_negative_inequality_multiplier_start():
    prob = Problem(Zero(), WholeSpace(), np.eye(1), np.zeros(1), Sense.INEQUALITY)
    with pytest.raises(ValueError):
        run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(10, 1e-8), w0=PrimalDualPoint(np.zeros(1), np.array([-1.0])))


def test_run_rejects_split_on_single_block_problem():
    prob = support.scalar_problem()
    with pytest.raises(ConfigInvalid):
        run(prob, SplitConfig((1.0,), 0.1), StopRule(10, 1e-8))


def test_run_rejects_unknown_config():
    with pytest.raises(ConfigInvalid):
        run(support.scalar_problem(), object(), StopRule(10, 1e-8))


def test_run_deterministic_repeat():
    rng = np.random.default_rng(40)
    prob, _ = support.random_eq_qp(rng, 4, 2)
    stop = StopRule(200, 1e-10)
    h1 = run(prob, BalancedAlmConfig(1.0, 0.3), stop)
    h2 = run(prob, BalancedAlmConfig(1.0, 0.3), stop)
    assert len(h1) == len(h2)
    for a, b in zip(h1.iterates, h2.iterates):
        assert np.array_equal(a.as_array(), b.as_array())


def test_run_history_is_runhistory():
    hist = run(support.scalar_problem(), BalancedAlmConfig(1.0, 1.0), StopRule(5, 1e-2))
    assert isinstance(hist, RunHistory)
    assert len(hist.residuals) == len(hist)
    assert len(hist.successive_h_steps) == len(hist)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_rejects_a_non_finite_start(bad):
    prob = support.scalar_problem()
    cfg = BalancedAlmConfig(1.0, 0.01)
    for w0 in (PrimalDualPoint(np.array([bad]), np.zeros(1)), PrimalDualPoint(np.zeros(1), np.array([bad]))):
        with pytest.raises(ValueError, match="finite"):
            run(prob, cfg, StopRule(max_iters=10, kkt_tol=1e-8), w0=w0)


def test_run_stops_at_the_first_non_finite_residual():
    # the start is finite, but c / r overflows in the first prox step
    prob = Problem(Linear(np.array([1e150])), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)
    with np.errstate(all="ignore"):
        hist = run(prob, BalancedAlmConfig(1e-160, 0.01), StopRule(max_iters=5000, kkt_tol=1e-8))
    assert len(hist.iterates) == 2 and not hist.converged
    assert math.isfinite(hist.residuals[0].max())
    assert not math.isfinite(hist.residuals[1].max())


def test_run_takes_no_step_from_a_non_finite_start_residual():
    prob = Problem(Linear(np.array([np.inf])), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)
    with np.errstate(all="ignore"):
        hist = run(prob, BalancedAlmConfig(1.0, 0.01), StopRule(max_iters=5000, kkt_tol=1e-8))
    assert len(hist.iterates) == 1 and not hist.converged


# ---------------------------------------------------------------------------
# metric operators against their dense matrices


def _rows(rng, m: int, n: int, rank: int) -> np.ndarray:
    """An m x n matrix of rank min(rank, m, n), rows scaled by 10^[-1, 1]."""
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return a * 10.0 ** rng.uniform(-1.0, 1.0, size=(m, 1))


@st.composite
def _metric_cases(draw):
    """(operator, dense builder output, probe vectors) over every family."""
    family = draw(st.sampled_from(["balanced", "split", "alt-split", "identity"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 8))
    dims = [draw(st.integers(1, 12)) for _ in range(draw(st.integers(2, 3)) if family == "split" else 2)]
    rank = draw(st.integers(1, m + 2))  # below m: rank-deficient rows
    a_list = [_rows(rng, m, n, rank) for n in dims]
    weight = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    r_list, s, delta = [draw(weight) for _ in dims], draw(weight), draw(weight)
    if family == "balanced":
        a = np.hstack(a_list)
        op, dense = BalancedMetric([a], [r_list[0]], delta), balanced_metric(a, r_list[0], delta)
    elif family == "split":
        op, dense = BalancedMetric(a_list, r_list, delta), split_metric(a_list, r_list, delta)
    elif family == "alt-split":
        op = AltSplitMetric(a_list[0], a_list[1], r_list[0], s, delta)
        dense = alt_split_metric(a_list[0], a_list[1], r_list[0], s, delta)
    else:
        op, dense = IdentityMetric(sum(dims), m), np.eye(sum(dims) + m)
    vs = [rng.standard_normal(sum(dims) + m) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(4)]
    return op, dense, vs


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_metric_cases())
def test_metric_quad_matches_the_dense_quadratic(case):
    op, dense, vs = case
    assert op.shape == dense.shape
    assert np.array_equal(op.dense(), dense) and np.array_equal(op, dense)
    for v in vs:
        q = op.quad(v)
        scale = float(np.abs(v) @ np.abs(dense) @ np.abs(v))
        assert abs(q - h_quadratic(dense, v)) <= 1e-13 * scale
        assert h_quadratic(op, v) == q == op.quad_pair(v[: op.n], v[op.n :])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_metric_cases(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_metric_quad_of_a_stack_is_each_rows_quad_bit_for_bit(case, bad):
    """A stack of vectors, one per row, gives each row's own form, for
    the operator and for its dense matrix; the operator's form of a
    non-finite row is nan."""
    op, dense, vs = case
    stack = np.array(vs + [vs[0]])
    stack[-1, len(vs) % stack.shape[1]] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        for h in (op, dense):
            got = h_quadratic(h, stack)
            assert got.shape == (len(vs) + 1,)
            assert got.tobytes() == np.array([h_quadratic(h, v) for v in stack]).tobytes()
        assert math.isnan(h_quadratic(op, stack)[-1])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(1, 30),
    m=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-300.0, 300.0),
)
def test_identity_metric_is_the_dense_identity_bit_for_bit(n, m, seed, log_scale):
    v = np.random.default_rng(seed).standard_normal(n + m) * 10.0**log_scale
    with np.errstate(over="ignore"):
        assert IdentityMetric(n, m).quad(v) == h_quadratic(np.eye(n + m), v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 4])
def test_metric_of_a_non_finite_difference_is_nan(bad, at):
    rng = np.random.default_rng(41)
    a1, a2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 3))
    v = rng.standard_normal(7)
    v[at] = bad
    ops = [
        IdentityMetric(5, 2),
        BalancedMetric([np.hstack([a1, a2])], [1.0], 0.1),
        BalancedMetric([a1, a2], [1.0, 2.0], 0.1),
        AltSplitMetric(a1, a2, 1.0, 2.0, 0.1),
    ]
    with np.errstate(invalid="ignore"):
        assert math.isnan(h_quadratic(np.eye(7), v))
        for op in ops:
            assert math.isnan(op.quad(v)), type(op).__name__


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 12), log_r=st.floats(-3.0, 3.0))
def test_single_block_split_metric_is_the_balanced_metric_bit_for_bit(seed, m, n, log_r):
    rng = np.random.default_rng(seed)
    a, r = rng.standard_normal((m, n)), 10.0**log_r
    prob = Problem(Zero(), WholeSpace(), a, np.zeros(m), Sense.EQUALITY)
    sep = SeparableProblem((Block(Zero(), WholeSpace(), a),), np.zeros(m), Sense.EQUALITY)
    balanced = metric_for("balanced-alm", {"r": r, "delta": 0.3}, prob)
    split = metric_for("split-balanced", {"r_list": [r], "delta": 0.3}, sep)
    for _ in range(5):
        v = rng.standard_normal(n + m)
        assert split.quad(v) == balanced.quad(v)


@pytest.mark.parametrize("method", ["balanced-alm", "primal-dual"])
def test_run_never_forms_a_dense_metric(method):
    prob, _ = generate_instance("basis_pursuit", (200, 2000), seed=1)
    ref = PrimalDualPoint(np.ones(prob.n), np.ones(prob.m))  # any point gives a dist_h column
    # primal-dual's stepsize default and check read ||A^T A||, cached on the
    # problem when the config is built; run itself is what is measured here
    cfg = build_config(method, prob)
    dense_mb = (prob.n + prob.m) ** 2 * 8 / 1e6  # 38.7 MB
    tracemalloc.start()
    try:
        hist = run(prob, cfg, StopRule(5, 1e-12), reference=ref)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert len(hist) == 6 and len(hist.h_distances) == 6
    assert peak_mb < dense_mb / 4, peak_mb


def test_metric_and_run_reject_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        h_quadratic(IdentityMetric(1, 1), np.ones(3))
    prob = support.scalar_problem()
    with pytest.raises(DimensionMismatch):
        run(prob, BalancedAlmConfig(1.0, 0.1), StopRule(5, 1e-8), reference=PrimalDualPoint(np.ones(2), np.ones(1)))
