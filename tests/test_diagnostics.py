from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from balm import bench, diagnostics
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
from balm.prox import Box, NonnegativeOrthant, Quadratic, WholeSpace, contains
from balm.solvers import AltSplitMetric, BalancedAlmConfig, BalancedMetric, IdentityMetric, RunHistory, StopRule, run

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


@pytest.mark.parametrize("alpha", [0.0, 2.0, 3.0, -1.0, math.nan])
def test_contraction_ledger_refuses_an_alpha_outside_zero_two(alpha):
    """alpha (2 - alpha) <= 0 would pass any slack, even that of a step
    away from the reference, which fails at alpha = 1.5."""
    metric, origin = np.eye(2), PrimalDualPoint(np.zeros(1), np.zeros(1))
    h = _history([(0.0, 0.0), (5.0, 0.0)], metric, predictors=[PrimalDualPoint(np.array([5.0]), np.zeros(1))])
    assert not contraction_ledger(h, metric, origin, alpha=1.5)[0].passes
    with pytest.raises(ValueError, match="alpha must lie in the open interval"):
        contraction_ledger(h, metric, origin, alpha=alpha)


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


@pytest.mark.parametrize("probes", [-1, -33])
def test_vi_gap_refuses_a_negative_probe_count(probes):
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(5, 1e-14))
    with pytest.raises(ValueError, match="probe_count must be nonnegative"):
        vi_gap(prob, hist, 0, probe_count=probes, rng_seed=0)


def test_vi_gap_without_probes_is_the_vacuous_sentinel():
    prob = support.scalar_problem()
    hist = run(prob, BalancedAlmConfig(1.0, 1.0), StopRule(5, 1e-14))
    cert = vi_gap(prob, hist, 2, probe_count=0, rng_seed=0)
    assert (cert.max_lhs, cert.bound, cert.passes) == (-math.inf, 0.0, True)
    assert (cert.probe_points, cert.projected_probes, cert.t) == ((), 0, 2)


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


@pytest.mark.parametrize("probe_count", [0, 1, 31, 32, 33, 65])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 20),
    two_block=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(0, 3),
)
def test_vi_gap_first_draw_probes_keep_the_per_draw_stream_bits_across_blocks(probe_count, n, m, two_block, seed, t):
    """The 5-probe test above, at probe counts on either side of the block
    of 32 that a problem with no constrained part draws and shapes as one
    stack: every probe is still the loop's draw of a direction, then a
    radius, the certificate is the one of scoring each probe by itself
    (support.gap_oracle), and the accept test _feasible runs once per probe."""
    rng = np.random.default_rng(seed)
    m = min(m, n)
    if two_block and n >= 2:
        prob, _ = support.two_block_qp(rng, n // 2, n - n // 2, m)
    else:
        prob, _ = support.random_eq_qp(rng, n, m)
    hist = _history([(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(5)], np.eye(n + m))
    calls = []
    feasible = diagnostics._feasible
    with mock.patch.object(diagnostics, "_feasible", lambda parts, w: calls.append(1) or feasible(parts, w)):
        cert = vi_gap(prob, hist, t, probe_count=probe_count, rng_seed=seed)
    assert len(cert.probe_points) == len(calls) == probe_count
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
    oracle = support.gap_oracle(prob, hist, t, probe_count, seed)
    assert repr((cert.max_lhs, cert.bound)) == repr((oracle.max_lhs, oracle.bound))


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
    return prob, _face_center(rng, prob, active)


def _face_center(rng, prob, active: int) -> np.ndarray:
    """A feasible stacked (x, lambda) with up to `active` coordinates on a
    face of the feasible set, the others inside it; a whole-space block or
    an equality multiplier has no face."""
    inside, faces = [], []
    for blk in prob.blocks:
        if isinstance(blk.x_set, WholeSpace):
            inside.append(rng.standard_normal(blk.n))
            faces.append(np.full(blk.n, np.nan))
        elif isinstance(blk.x_set, NonnegativeOrthant):
            inside.append(rng.uniform(0.05, 1.5, blk.n))
            faces.append(np.zeros(blk.n))
        else:
            lo, hi = blk.x_set.lower, blk.x_set.upper
            mid = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi - 1.0, 0.0))
            inside.append(np.minimum(mid + rng.uniform(0.05, 0.3, blk.n), hi))
            faces.append(np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, np.nan)))
    if prob.sense is Sense.INEQUALITY:
        inside.append(rng.uniform(0.05, 1.5, prob.m))
        faces.append(np.zeros(prob.m))
    else:
        inside.append(rng.standard_normal(prob.m))
        faces.append(np.full(prob.m, np.nan))
    center, face = np.concatenate(inside), np.concatenate(faces)
    on_face = rng.permutation(np.flatnonzero(~np.isnan(face)))[:active]
    center[on_face] = face[on_face]
    assert support.gap_feasible_oracle(prob, center, prob.n)
    return center


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


def _mixed_case(seed: int, constrained: str, whole_first: bool, sense: Sense, n: int, m: int, active: int):
    """A two-block problem with a whole-space block beside an orthant or a
    box block, in either order, and a feasible center with up to `active`
    coordinates on a face of the feasible set."""
    rng = np.random.default_rng(seed)
    sizes, sets = (n // 2, n - n // 2), [WholeSpace(), NonnegativeOrthant() if constrained == "orthant" else _box(rng, n - n // 2)]
    if not whole_first:
        sizes, sets = sizes[::-1], sets[::-1]
    blocks = tuple(Block(Quadratic(np.eye(k), np.zeros(k)), x_set, rng.standard_normal((m, k))) for k, x_set in zip(sizes, sets))
    prob = SeparableProblem(blocks, np.zeros(m), sense)
    return prob, _face_center(rng, prob, active)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    constrained=st.sampled_from(("orthant", "box")),
    whole_first=st.booleans(),
    sense=st.sampled_from((Sense.EQUALITY, Sense.INEQUALITY)),
    n=st.integers(2, 40),
    m=st.integers(1, 6),
    active=st.integers(0, 14),
)
# accepted at draws 265 and 793, inside the 256- and the 489-row batch
@example(seed=2, constrained="orthant", whole_first=False, sense=Sense.EQUALITY, n=12, m=3, active=8)
@example(seed=1, constrained="box", whole_first=True, sense=Sense.INEQUALITY, n=11, m=2, active=8)
def test_gap_sampler_screens_only_the_constrained_columns(seed, constrained, whole_first, sense, n, m, active):
    """Beside a whole-space block, the sampler screens the constrained
    block's columns (and lambda's, for an inequality problem) at their
    place in the stacked (x, lambda): its probes and stream are the one-draw
    oracle's, and vi_gap's certificate is the per-probe oracle's."""
    prob, center = _mixed_case(seed, constrained, whole_first, sense, n, m, active)
    _check_probes_against_oracle(prob, center, seed, count=3)
    start = np.random.default_rng(seed).standard_normal(center.size)
    metric = BalancedMetric([blk.a for blk in prob.blocks], [1.0, 1.0], 0.5)
    hist = _history([(start[:n], start[n:]), (center[:n], center[n:])], metric)
    _assert_same_certificate(vi_gap(prob, hist, 0, 3, seed), support.gap_oracle(prob, hist, 0, 3, seed))


@pytest.mark.parametrize("active, regime", [(0, "first draw"), (8, "later batch"), (20, "projected")])
def test_gap_probe_owns_its_memory(active, regime):
    """In every regime the probe is an array of its own, not a view that
    keeps its batch of draws alive."""
    rng = np.random.default_rng(5)
    prob = Problem(Quadratic(np.eye(12), np.zeros(12)), NonnegativeOrthant(), rng.standard_normal((8, 12)), np.zeros(8), Sense.INEQUALITY)
    center = np.full(20, 2.0)
    center[:active] = 0.0
    draws = _check_probes_against_oracle(prob, center, seed=5, count=20)
    if regime == "later batch":
        assert any(d is not None and d > 1 for d in draws)
    else:
        assert draws == [1 if regime == "first draw" else None] * 20
    rng = np.random.default_rng(5)
    for _ in range(20):
        w, _ = _draw_probe(prob, center, 12, rng)
        assert w.flags.owndata and w.base is None


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


# (generator kind or test problem, method that records the history)
_RUN_CASES = {
    "random_qp_eq": ("random_qp_eq", (4, 10), "balanced-alm"),
    "basis_pursuit": ("basis_pursuit", (6, 20), "primal-dual"),
    "lasso_eq": ("lasso_eq", (6, 12), "split-balanced"),
    "lasso_eq/flat": ("lasso_eq", (6, 12), "balanced-alm"),  # certified on its SeparableSum form
    "nonneg_qp_ineq": ("nonneg_qp_ineq", (4, 10), "balanced-alm"),
    "two_block_qp": (None, None, "alt-split"),
}
_SET_CASES = ("orthant/eq", "orthant/geq", "box/eq", "box/geq", "orthant+box/eq", "orthant+box/geq")
GAP_PROBE_COUNTS = (1, 31, 32, 33, 500)


def _gap_case(case: str, metric: str, seed: int):
    """(problem, history) of one oracle case: a short run on a generator
    kind or on a two-block QP, or, for the orthant and box sets, iterates
    around a feasible center with up to 16 coordinates on a face (with a
    dozen or more, most probes are projected).  The
    history's metric is its own or, whatever the problem, the identity,
    an alt-split operator over a split of the columns, or the dense
    matrix of its own."""
    if case in _RUN_CASES:
        kind, dims, method = _RUN_CASES[case]
        if kind is None:
            prob, _ = support.two_block_qp(np.random.default_rng(seed), 4, 3, 3)
        else:
            prob, _ = bench.generate_instance(kind, dims, seed)
        hist = run(prob, bench.build_config(method, prob), StopRule(30, 1e-10))
        prob = prob.flat if case.endswith("/flat") else prob
    else:
        layout, sense = case.split("/")
        prob, center = _constrained_case(seed, layout, Sense(sense), 12, 4, active=seed % 17)
        start = np.random.default_rng(seed).standard_normal(center.size)
        blocks = [blk.a for blk in prob.blocks]
        points = [(start[: prob.n], start[prob.n :])] + [(center[: prob.n], center[prob.n :])] * 30
        hist = _history(points, BalancedMetric(blocks, [1.0] * len(blocks), 0.5))
    a = np.hstack([blk.a for blk in prob.blocks])
    n, m = a.shape[1], a.shape[0]
    h = {
        "own": hist.metric,
        "identity": IdentityMetric(n, m),
        "alt-split": AltSplitMetric(a[:, : n // 2], a[:, n // 2 :], 1.3, 0.7, 0.2),
        "dense": np.asarray(hist.metric),
    }[metric]
    return prob, dataclasses.replace(hist, metric=h)


def _same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _assert_same_certificate(got, want) -> None:
    assert got.t == want.t
    assert got.ergodic_point.as_array().tobytes() == want.ergodic_point.as_array().tobytes()
    assert len(got.probe_points) == len(want.probe_points)
    for p, q in zip(got.probe_points, want.probe_points):
        assert p.x.tobytes() == q.x.tobytes() and p.lam.tobytes() == q.lam.tobytes()
    assert _same_float(got.max_lhs, want.max_lhs)
    assert _same_float(got.bound, want.bound)
    assert got.projected_probes == want.projected_probes
    assert got.passes == want.passes


@pytest.mark.parametrize("case", list(_RUN_CASES) + list(_SET_CASES))
@settings(derandomize=True, deadline=None, max_examples=4)
@given(
    metric=st.sampled_from(("own", "identity", "alt-split", "dense")),
    seed=st.integers(1, 2**16),
    t=st.integers(0, 28),
    probes=st.sampled_from(GAP_PROBE_COUNTS),
)
@example(metric="own", seed=1, t=28, probes=500)
@example(metric="alt-split", seed=2, t=3, probes=33)
@example(metric="dense", seed=16, t=0, probes=32)
def test_vi_gap_matches_its_per_probe_oracle(case, metric, seed, t, probes):
    """vi_gap, which scores its probes 32 at a time as stacks, equals the
    loop that scores each probe by itself, in every field and bit."""
    prob, hist = _gap_case(case, metric, seed)
    t = min(t, len(hist.iterates) - 2)
    _assert_same_certificate(vi_gap(prob, hist, t, probes, seed), support.gap_oracle(prob, hist, t, probes, seed))


@pytest.mark.parametrize("poisoned", [0, 5, 31, 32, 40])
def test_vi_gap_reports_the_first_nan_margin_as_the_worst_probe(poisoned, monkeypatch):
    """A probe whose bound is nan, in the first block or a later one, is
    the worst probe whatever the others' margins, and the check fails."""
    import balm.diagnostics as diagnostics

    prob, hist = _gap_case("lasso_eq", "own", 1)
    t = len(hist.iterates) - 2

    def poisoning(original):
        seen = []

        def h_quadratic(h, v):
            q = np.array(original(h, v), dtype=float, ndmin=1)
            rows = range(len(seen), len(seen) + q.size)
            seen.extend(rows)
            q[[i for i, row in enumerate(rows) if row == poisoned]] = np.nan
            return q if np.ndim(v) > 1 else float(q[0])

        return h_quadratic

    monkeypatch.setattr(diagnostics, "h_quadratic", poisoning(diagnostics.h_quadratic))
    monkeypatch.setattr(support, "h_quadratic", poisoning(support.h_quadratic))
    got, want = vi_gap(prob, hist, t, 45, 0), support.gap_oracle(prob, hist, t, 45, 0)
    _assert_same_certificate(got, want)
    assert math.isnan(got.bound) and not got.passes


def test_vi_gap_fails_a_history_with_a_nan_iterate():
    """A nan in the last recorded x_0 makes every margin nan: the check
    reports the first probe's nan and fails instead of passing with the
    starting max_lhs = -inf."""
    prob, _ = bench.generate_instance("lasso_eq", (6, 12), 1)
    hist = run(prob, bench.build_config("split-balanced", prob), StopRule(200, 1e-8))
    hist.iterates[-1].x[0] = np.nan
    t = len(hist.iterates) - 2
    cert = vi_gap(prob, hist, t, 45, 0)
    _assert_same_certificate(cert, support.gap_oracle(prob, hist, t, 45, 0))
    assert math.isnan(cert.max_lhs) and math.isnan(cert.bound)
    assert not cert.passes


def test_gap_certificate_fails_a_nan_margin_of_infinite_terms():
    point = PrimalDualPoint(np.zeros(1), np.zeros(1))
    assert not GapCertificate(0, point, (), np.inf, np.inf).passes
    assert not GapCertificate(0, point, (), np.nan, 0.0).passes
