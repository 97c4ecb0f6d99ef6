from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balm import bench
from balm.diagnostics import (
    ContractionCertificate,
    GapCertificate,
    _draw_probe,
    contraction_ledger,
    ergodic_average,
    vi_gap,
)
from balm.errors import InsufficientHistory, MissingReference
from balm.linalg import h_quadratic
from balm.problems import Block, PrimalDualPoint, Problem, SeparableProblem, Sense
from balm.prox import Box, NonnegativeOrthant, Quadratic, contains
from balm.solvers import BalancedAlmConfig, RunHistory, StopRule, run

import support


def _history(points, metric, predictors=None):
    return RunHistory(
        iterates=[PrimalDualPoint(np.atleast_1d(p[0]), np.atleast_1d(p[1])) for p in points],
        residuals=[None] * len(points),
        successive_h_steps=[np.nan] * len(points),
        h_distances=None,
        predictors=predictors,
        metric=metric,
        converged=True,
    )


def test_ergodic_average_worked():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(2, 1e-16))
    # iterates (0,0), (0,1/2), (1/4,3/4)
    w0 = ergodic_average(hist, 0)
    assert w0.x[0] == pytest.approx(0.0, abs=1e-12)
    assert w0.lam[0] == pytest.approx(0.5, abs=1e-12)
    w1 = ergodic_average(hist, 1)
    assert w1.x[0] == pytest.approx(0.125, abs=1e-12)
    assert w1.lam[0] == pytest.approx(0.625, abs=1e-12)


def test_ergodic_average_excludes_start():
    h = _history([(1000.0, 1000.0), (2.0, 4.0)], np.eye(2))
    w = ergodic_average(h, 0)
    assert w.x[0] == 2.0 and w.lam[0] == 4.0


def test_ergodic_average_errors():
    h = _history([(0.0, 0.0), (1.0, 1.0)], np.eye(2))
    with pytest.raises(ValueError):
        ergodic_average(h, -1)
    with pytest.raises(InsufficientHistory):
        ergodic_average(h, 1)


def test_contraction_ledger_worked():
    metric = np.array([[1.0, 1.0], [1.0, 2.0]])
    h = _history([(1.0, 1.0), (1.0, 0.5)], metric)
    certs = contraction_ledger(h, metric, PrimalDualPoint(np.zeros(1), np.zeros(1)))
    assert len(certs) == 1
    c = certs[0]
    assert c.iteration == 0
    assert c.dist_before == pytest.approx(5.0, abs=1e-14)
    assert c.dist_after == pytest.approx(2.5, abs=1e-14)
    assert c.step_h == pytest.approx(0.5, abs=1e-14)
    assert c.slack == pytest.approx(2.0, abs=1e-14)
    assert c.passes


def test_contraction_certificate_tolerance_edge():
    good = ContractionCertificate(0, 1.0, 1.0, 0.0, -1e-9)
    bad = ContractionCertificate(0, 1.0, 1.0, 0.0, -1.1e-9)
    assert good.passes and not bad.passes


def test_contraction_ledger_balanced_run_passes():
    rng = np.random.default_rng(50)
    prob, star = support.random_eq_qp(rng, 5, 3)
    hist = run(prob, BalancedAlmConfig(1.0, 0.2), StopRule(20_000, 1e-10), reference=star)
    certs = contraction_ledger(hist, hist.metric, star)
    assert len(certs) == len(hist) - 1
    assert min(c.slack for c in certs) >= -1e-9
    assert all(c.passes for c in certs)
    for k, c in enumerate(certs):
        assert c.dist_before == pytest.approx(hist.h_distances[k] ** 2, rel=1e-9, abs=1e-12)


def test_contraction_ledger_relaxed_run_passes():
    rng = np.random.default_rng(51)
    prob, star = support.random_eq_qp(rng, 4, 2)
    for alpha in (0.5, 1.5, 1.9):
        hist = run(prob, BalancedAlmConfig(1.0, 0.2, alpha=alpha), StopRule(50_000, 1e-10))
        certs = contraction_ledger(hist, hist.metric, star, alpha=alpha)
        assert all(c.passes for c in certs), alpha


def test_contraction_ledger_inequality_run_passes():
    rng = np.random.default_rng(52)
    prob, star = support.random_ineq_qp(rng, 4, 3)
    hist = run(prob, BalancedAlmConfig(1.0, 0.3), StopRule(30_000, 1e-10))
    certs = contraction_ledger(hist, hist.metric, star)
    assert all(c.passes for c in certs)


def test_contraction_ledger_needs_reference():
    h = _history([(0.0, 0.0), (1.0, 1.0)], np.eye(2))
    with pytest.raises(MissingReference):
        contraction_ledger(h, np.eye(2), None)


def test_contraction_ledger_relaxed_needs_predictors():
    h = _history([(0.0, 0.0), (1.0, 1.0)], np.eye(2))
    with pytest.raises(InsufficientHistory):
        contraction_ledger(h, np.eye(2), PrimalDualPoint(np.zeros(1), np.zeros(1)), alpha=1.5)


def test_contraction_ledger_relaxed_uses_predictor_gap():
    metric = np.eye(2)
    pred = PrimalDualPoint(np.array([2.0]), np.array([0.0]))
    h = _history([(0.0, 0.0), (1.0, 0.0)], metric, predictors=[pred])
    certs = contraction_ledger(h, metric, PrimalDualPoint(np.zeros(1), np.zeros(1)), alpha=0.5)
    # step term is ||w0 - pred||^2 = 4, scale = 0.75
    assert certs[0].step_h == pytest.approx(4.0, abs=1e-14)
    assert certs[0].slack == pytest.approx(0.0 - 1.0 - 0.75 * 4.0, abs=1e-13)


def test_gap_certificate_sentinel_and_edge():
    empty = GapCertificate(0, PrimalDualPoint(np.zeros(1), np.zeros(1)), (), -np.inf, 0.0)
    assert empty.passes
    edge = GapCertificate(0, PrimalDualPoint(np.zeros(1), np.zeros(1)), (), 1e-8, 0.0)
    assert edge.passes
    bad = GapCertificate(0, PrimalDualPoint(np.zeros(1), np.zeros(1)), (), 2e-8, 0.0)
    assert not bad.passes


def test_vi_gap_scalar_run_passes():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(40, 1e-14))
    for t in (0, 5, 20):
        cert = vi_gap(prob, hist, t, probe_count=200, rng_seed=0)
        assert cert.passes, t
        assert len(cert.probe_points) == 200


def test_vi_gap_random_qp_passes():
    rng = np.random.default_rng(53)
    prob, _ = support.random_eq_qp(rng, 4, 2)
    hist = run(prob, BalancedAlmConfig(1.0, 0.3), StopRule(500, 1e-13))
    t = min(100, len(hist) - 2)
    cert = vi_gap(prob, hist, t, probe_count=300, rng_seed=7)
    assert cert.passes


def test_vi_gap_deterministic_in_seed():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(30, 1e-13))
    a = vi_gap(prob, hist, 10, probe_count=50, rng_seed=3)
    b = vi_gap(prob, hist, 10, probe_count=50, rng_seed=3)
    assert a.max_lhs == b.max_lhs and a.bound == b.bound


def test_vi_gap_probes_feasible_and_in_ball():
    prob = Problem(
        Quadratic(np.eye(2), np.array([-1.0, 0.0])),
        NonnegativeOrthant(),
        np.array([[1.0, 1.0]]),
        np.ones(1),
        Sense.INEQUALITY,
    )
    hist = run(prob, BalancedAlmConfig(1.0, 0.5), StopRule(200, 1e-11))
    t = min(50, len(hist) - 2)
    cert = vi_gap(prob, hist, t, probe_count=100, rng_seed=11)
    center = cert.ergodic_point.as_array()
    for probe in cert.probe_points:
        assert contains(NonnegativeOrthant(), probe.x, tol=1e-12)
        assert contains(NonnegativeOrthant(), probe.lam, tol=1e-12)
        assert np.linalg.norm(probe.as_array() - center) <= 1.0 + 1e-9
    assert cert.passes


def test_vi_gap_worst_probe_bookkeeping():
    """Replicating the sampling stream must reproduce the worst probe."""
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(20, 1e-13))
    t, count, seed = 4, 25, 13
    cert = vi_gap(prob, hist, t, probe_count=count, rng_seed=seed)

    from balm.problems import total_objective, vi_operator

    center = ergodic_average(hist, t).as_array()
    w0 = hist.iterates[0].as_array()
    rng = np.random.default_rng(seed)
    worst = -np.inf
    lhs_at, bnd_at = -np.inf, 0.0
    for _ in range(count):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        w = center + (rng.random() ** 0.5) * d
        probe = PrimalDualPoint(w[:1], w[1:])
        lhs = total_objective(prob, center[:1]) - total_objective(prob, probe.x) + float(
            (center - w) @ vi_operator(prob, probe)
        )
        bnd = h_quadratic(hist.metric, w - w0) / (2.0 * (t + 1))
        if lhs - bnd > worst:
            worst, lhs_at, bnd_at = lhs - bnd, lhs, bnd
    assert cert.max_lhs == pytest.approx(lhs_at, rel=1e-12, abs=1e-15)
    assert cert.bound == pytest.approx(bnd_at, rel=1e-12, abs=1e-15)


def test_vi_gap_insufficient_history():
    h = _history([(0.0, 0.0), (1.0, 1.0)], np.eye(2))
    with pytest.raises(InsufficientHistory):
        vi_gap(support.scalar_problem(), h, 5, probe_count=10, rng_seed=0)


@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("dense", [False, True])
def test_contraction_ledger_evaluates_each_distance_once(alpha, dense, monkeypatch):
    import balm.diagnostics as diagnostics

    rng = np.random.default_rng(52)
    prob, star = support.random_eq_qp(rng, 5, 3)
    hist = run(prob, BalancedAlmConfig(1.0, 0.2, alpha=alpha), StopRule(40, 1e-13))
    h = np.asarray(hist.metric) if dense else hist.metric
    expected = support.contraction_ledger_three_term(hist, h, star, alpha=alpha)
    calls = []
    original = diagnostics.h_quadratic
    monkeypatch.setattr(diagnostics, "h_quadratic", lambda *args: calls.append(1) or original(*args))
    certs = contraction_ledger(hist, h, star, alpha=alpha)
    assert len(certs) == len(expected) == len(hist) - 1 == 40
    for got, want in zip(certs, expected):
        assert got.iteration == want.iteration
        assert got.dist_before == want.dist_before
        assert got.dist_after == want.dist_after
        assert got.step_h == want.step_h
        assert got.slack == want.slack
    assert len(calls) == 2 * len(certs) + 1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 20),
    two_block=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(0, 3),
)
def test_vi_gap_first_draw_probes_keep_the_per_draw_stream_bits(n, m, two_block, seed, t):
    """Equality problems over the whole space accept every probe at its
    first draw, a batch of one: the probes are those of a loop that draws
    a direction, then a radius, per probe."""
    rng = np.random.default_rng(seed)
    m = min(m, n)  # the instance builders solve for a saddle point
    if two_block and n >= 2:
        prob, _ = support.two_block_qp(rng, n // 2, n - n // 2, m)
    else:
        prob, _ = support.random_eq_qp(rng, n, m)
    hist = _history([(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(5)], np.eye(n + m))
    cert = vi_gap(prob, hist, t, probe_count=5, rng_seed=seed)
    assert cert.projected_probes == 0

    center = ergodic_average(hist, t).as_array()
    dim = center.size
    replay = np.random.default_rng(seed)
    for probe in cert.probe_points:
        d = replay.standard_normal(dim)
        d /= np.linalg.norm(d)
        w = center + (replay.random() ** (1.0 / dim)) * d
        assert probe.x.tobytes() == w[:n].tobytes()
        assert probe.lam.tobytes() == w[n:].tobytes()


def _box(rng, k: int) -> Box:
    lower, upper = -rng.uniform(0.2, 2.0, k), rng.uniform(0.2, 2.0, k)
    lower[rng.random(k) < 0.2] = -np.inf
    upper[rng.random(k) < 0.2] = np.inf
    return Box(lower, upper)


def _constrained_case(seed: int, layout: str, sense: Sense, n: int, m: int, active: int):
    """A problem whose primal set is an orthant, a box, or both (two
    blocks), and a feasible center with up to `active` coordinates on a
    face of the feasible set; the others lie inside it."""
    rng = np.random.default_rng(seed)
    theta = lambda k: Quadratic(np.eye(k), np.zeros(k))
    b = np.zeros(m)
    if layout == "orthant+box":
        n1 = n // 2
        sets = (NonnegativeOrthant(), _box(rng, n - n1))
        blocks = tuple(Block(theta(k), x_set, rng.standard_normal((m, k))) for k, x_set in zip((n1, n - n1), sets))
        prob = SeparableProblem(blocks, b, sense)
    else:
        x_set = NonnegativeOrthant() if layout == "orthant" else _box(rng, n)
        prob = Problem(theta(n), x_set, rng.standard_normal((m, n)), b, sense)
    inside, faces = [], []
    for blk in prob.blocks:
        if isinstance(blk.x_set, NonnegativeOrthant):
            inside.append(rng.uniform(0.05, 1.5, blk.n))
            faces.append(np.zeros(blk.n))
        else:
            lo, hi = blk.x_set.lower, blk.x_set.upper
            mid = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi - 1.0, 0.0))
            inside.append(np.minimum(mid + rng.uniform(0.05, 0.3, blk.n), hi))
            faces.append(np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, np.nan)))
    if sense is Sense.INEQUALITY:
        inside.append(rng.uniform(0.05, 1.5, m))
        faces.append(np.zeros(m))
    else:
        inside.append(rng.standard_normal(m))
        faces.append(np.full(m, np.nan))
    center, face = np.concatenate(inside), np.concatenate(faces)
    on_face = rng.permutation(np.flatnonzero(~np.isnan(face)))[:active]
    center[on_face] = face[on_face]
    assert support.gap_feasible_oracle(prob, center, n)
    return prob, center


def _check_probes_against_oracle(prob, center, seed: int, count: int) -> list:
    n = prob.n
    lib_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws_made = []
    for _ in range(count):
        w, projected = _draw_probe(prob, center, n, lib_rng)
        want, want_projected, draws = support.gap_probe_oracle(prob, center, n, ref_rng)
        # the first feasible draw in stream order, or the projected last draw
        assert w.tobytes() == want.tobytes()
        # projected exactly when none of the draws passed
        assert projected == want_projected
        assert draws <= 1000
        # no draw past the batch that held the accepted one
        assert lib_rng.bit_generator.state == ref_rng.bit_generator.state
        assert support.gap_feasible_oracle(prob, w, n)
        assert np.linalg.norm(w - center) <= 1.0 + 1e-12
        draws_made.append(draws if not projected else None)
    return draws_made


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(("orthant", "box", "orthant+box")),
    sense=st.sampled_from((Sense.EQUALITY, Sense.INEQUALITY)),
    n=st.integers(2, 8),
    m=st.integers(1, 6),
    active=st.integers(0, 14),
)
def test_gap_sampler_matches_its_one_draw_oracle(seed, layout, sense, n, m, active):
    prob, center = _constrained_case(seed, layout, sense, n, m, active)
    _check_probes_against_oracle(prob, center, seed, count=3)


@pytest.mark.parametrize("active, regime", [(0, "first draw"), (8, "later batch"), (20, "projected")])
def test_gap_sampler_reaches_each_regime(active, regime):
    """With every other coordinate 2 inside the orthant, each of `active`
    faces through the center halves the feasible share of the ball: none
    keeps every probe at its first draw, 8 leave a 1/256 share, and 20
    leave no draw of the 1,000 feasible."""
    rng = np.random.default_rng(5)
    prob = Problem(Quadratic(np.eye(12), np.zeros(12)), NonnegativeOrthant(), rng.standard_normal((8, 12)), np.zeros(8), Sense.INEQUALITY)
    center = np.full(20, 2.0)
    center[:active] = 0.0
    draws = _check_probes_against_oracle(prob, center, seed=5, count=20)
    if regime == "first draw":
        assert draws == [1] * 20
    elif regime == "later batch":
        assert sum(d is not None and d > 1 for d in draws) >= 18
    else:
        assert draws == [None] * 20


def test_vi_gap_projects_every_probe_on_nonneg_qp_ineq():
    """On nonneg_qp_ineq 30x60 about half of the multipliers sit at zero
    at the ergodic point, so no draw is feasible and every probe is the
    projection fallback; the probes equal the oracle's."""
    prob, _ = bench.generate_instance("nonneg_qp_ineq", (30, 60), 1)
    hist = run(prob, bench.build_config("balanced-alm", prob, alpha=1.5), StopRule(2000, 1e-8))
    t, count = len(hist.iterates) - 2, 6
    cert = vi_gap(prob, hist, t, probe_count=count, rng_seed=0)
    assert cert.projected_probes == count
    assert cert.passes
    center = ergodic_average(hist, t).as_array()
    rng = np.random.default_rng(0)
    for probe in cert.probe_points:
        want, projected, _ = support.gap_probe_oracle(prob, center, prob.n, rng)
        assert projected
        assert probe.as_array().tobytes() == want.tobytes()
