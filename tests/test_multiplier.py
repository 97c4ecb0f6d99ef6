from __future__ import annotations

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balm import bench, multiplier
from balm.errors import DimensionMismatch, NoConvergence
from balm.linalg import SpdFactor, cholesky_factor
from balm.multiplier import MultiplierSystem, _active_set, build_h0, build_h2, build_hp, solve_equality, solve_lcp
from balm.solvers import StopRule, run

import support


def test_build_h0_worked():
    # (1/2) * [[2]] * [[2]]^T + 0.5 I = [[2.5]] with A = [[2]] reading A A^T = 4
    sys = build_h0(np.array([[2.0]]), 2.0, 0.5)
    assert sys.h[0, 0] == pytest.approx(2.5)
    assert sys.m == 1


def test_build_h0_wide_matrix():
    a = np.array([[1.0, 1.0]])
    sys = build_h0(a, 1.0, 0.25)
    assert sys.h[0, 0] == pytest.approx(2.25)


def test_build_h0_rejects_bad_params():
    with pytest.raises(ValueError):
        build_h0(np.eye(1), 0.0, 0.1)
    with pytest.raises(ValueError):
        build_h0(np.eye(1), 1.0, 0.0)


def test_build_hp_two_blocks_worked():
    a1 = np.array([[1.0, 0.0]])
    a2 = np.array([[2.0]])
    sys = build_hp([(a1, 1.0), (a2, 2.0)], 0.5)
    # 1/1 * 1 + 1/2 * 4 + 0.5 = 3.5
    assert sys.h[0, 0] == pytest.approx(3.5)


def test_build_hp_single_block_matches_h0_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        r = 0.2 + 2.0 * rng.random()
        delta = 0.05 + rng.random()
        one = build_h0(a, r, delta)
        other = build_hp([(a, r)], delta)
        assert np.array_equal(one.h, other.h)
        assert np.array_equal(one.factor.lower, other.factor.lower)


def test_build_hp_rejects_empty_and_bad_r():
    with pytest.raises(DimensionMismatch):
        build_hp([], 0.1)
    with pytest.raises(ValueError):
        build_hp([(np.eye(1), -1.0)], 0.1)


def test_build_hp_rejects_row_mismatch():
    with pytest.raises(DimensionMismatch):
        build_hp([(np.ones((2, 1)), 1.0), (np.ones((3, 1)), 1.0)], 0.1)


def test_build_h2_worked():
    # (1/4) * 9 + (1/2 + 0.25) = 3.0
    sys = build_h2(np.array([[3.0]]), 2.0, 4.0, 0.25)
    assert sys.h[0, 0] == pytest.approx(3.0)


def test_build_h2_rejects_bad_params():
    with pytest.raises(ValueError):
        build_h2(np.eye(1), 1.0, 0.0, 0.1)


def test_builds_positive_definite_on_rank_deficient_rows():
    """The shift keeps H factorable even when A A^T is singular."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        a = rng.standard_normal((m, n))
        a[rng.integers(m)] = 0.0
        for sys in (build_h0(a, 1.3, 1e-6), build_hp([(a, 1.3)], 1e-6)):
            eigs = np.linalg.eigvalsh(sys.h)
            assert eigs.min() > 0.0
            back = sys.factor.lower @ sys.factor.lower.T
            assert np.allclose(back, sys.h, atol=1e-10 * (1.0 + np.abs(sys.h).max()))


def test_solve_equality_worked():
    # H = [[2]], lam_k = 1, s = 4: lam = 1 - 4/2 = -1
    sys = build_h0(np.array([[np.sqrt(2.0 - 0.5)]]), 1.0, 0.5)
    out = solve_equality(sys, np.array([1.0]), np.array([4.0]))
    assert out[0] == pytest.approx(-1.0, abs=1e-12)


def test_solve_equality_residual_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.standard_normal((m, n))
        sys = build_h0(a, 0.5 + rng.random(), 0.01 + rng.random())
        lam_k = rng.standard_normal(m)
        s_k = rng.standard_normal(m)
        lam = solve_equality(sys, lam_k, s_k)
        resid = sys.h @ (lam - lam_k) + s_k
        assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(s_k))


def test_solve_lcp_interior_case():
    # H = I, lam_k = 0, s = (-1, 1): unconstrained solve gives (1, -1), LCP gives (1, 0)
    sys = build_h0(np.sqrt(0.5) * np.eye(2), 1.0, 0.5)
    lam = solve_lcp(sys, np.zeros(2), np.array([-1.0, 1.0]))
    assert np.allclose(lam, [1.0, 0.0], atol=1e-8)


def test_solve_lcp_coupled_worked():
    # H = [[2, 1], [1, 2]], lam_k = 0, s = (1, -1): lam = (0, 0.5), y = (1.5, 0)
    a = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]) - 0.5 * np.eye(2))
    sys = build_h0(a, 1.0, 0.5)
    assert np.allclose(sys.h, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
    lam = solve_lcp(sys, np.zeros(2), np.array([1.0, -1.0]))
    assert np.allclose(lam, [0.0, 0.5], atol=1e-8)
    y = sys.h @ lam + np.array([1.0, -1.0])
    assert np.allclose(y, [1.5, 0.0], atol=1e-8)


def test_solve_lcp_zero_when_slack_nonnegative():
    sys = build_h0(np.eye(3), 1.0, 0.5)
    lam = solve_lcp(sys, np.zeros(3), np.array([0.5, 1.0, 0.0]))
    assert np.allclose(lam, 0.0, atol=1e-9)


def test_solve_lcp_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, m + 1))
        sys = build_h0(a, 0.5 + rng.random(), 0.05 + rng.random())
        lam_k = np.abs(rng.standard_normal(m))
        s_k = rng.standard_normal(m)
        lam = solve_lcp(sys, lam_k, s_k)
        ref = support.lcp_enumeration_oracle(sys.h, lam_k, s_k)
        assert np.allclose(lam, ref, atol=1e-7)


def test_solve_lcp_certificate_holds():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((m, m))
        sys = build_h0(a, 1.0, 0.1)
        lam_k = rng.standard_normal(m)
        s_k = 3.0 * rng.standard_normal(m)
        lam = solve_lcp(sys, lam_k, s_k)
        y = sys.h @ (lam - lam_k) + s_k
        assert lam.min() >= 0.0
        assert y.min() >= -1e-9
        assert abs(float(lam @ y)) <= 1e-9 * (1.0 + np.linalg.norm(s_k))


def test_solve_lcp_negative_warm_start_clipped():
    sys = build_h0(np.sqrt(0.5) * np.eye(1), 1.0, 0.5)
    lam = solve_lcp(sys, np.array([-5.0]), np.array([0.0]))
    # y = lam - lam_k = lam + 5 > 0 forces lam = 0
    assert lam[0] == 0.0


def test_solve_lcp_dim_mismatch():
    sys = build_h0(np.eye(2), 1.0, 0.5)
    with pytest.raises(DimensionMismatch):
        solve_lcp(sys, np.zeros(2), np.zeros(3))


def test_solve_lcp_sweep_cap():
    a = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]) - 0.5 * np.eye(2))
    sys = build_h0(a, 1.0, 0.5)
    with pytest.raises(NoConvergence):
        solve_lcp(sys, np.zeros(2), np.array([-1.0, -1.0]), tol=0.0, max_sweeps=1)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    m=st.integers(1, 6),
    extra_cols=st.integers(0, 2),
    log_shift=st.floats(-6.0, 0.0),
    warm=st.sampled_from(["signed", "half-support", "nonpositive", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_lcp_matches_enumeration_property(m, extra_cols, log_shift, warm, seed):
    """Random full-row-rank shifted-Gram systems with row scales 10^+-1,
    shifts down to 1e-6 and warm starts that are signed, half zero,
    nonpositive or zero."""
    rng = np.random.default_rng(seed)
    a = (10.0 ** rng.uniform(-1.0, 1.0, m))[:, None] * rng.standard_normal((m, m + extra_cols))
    sys = build_h0(a, 1.0, 10.0**log_shift)
    lam_k = {
        "signed": rng.standard_normal(m),
        "half-support": np.abs(rng.standard_normal(m)) * (rng.random(m) < 0.5),
        "nonpositive": -np.abs(rng.standard_normal(m)) * (rng.random(m) < 0.5),
        "zero": np.zeros(m),
    }[warm]
    s_k = rng.standard_normal(m)
    lam = solve_lcp(sys, lam_k, s_k)
    ref = support.lcp_enumeration_oracle(sys.h, lam_k, s_k)
    assert np.max(np.abs(lam - ref)) <= 1e-7


def _cycling_system():
    """A seeded system on which active-set steps from the support of lam_k
    cycle: none of 200 steps leaves the free set unchanged.  Found by
    searching random shifted-Gram systems (m = 3..6, row scales 10^+-1,
    shifts 1e-4..1, half of lam_k zero)."""
    rng = np.random.default_rng(13596)
    m = int(rng.integers(3, 7))
    a = (10.0 ** rng.uniform(-1.0, 1.0, m))[:, None] * rng.standard_normal((m, m + 1))
    sys = build_h0(a, 1.0, 10.0 ** rng.uniform(-4.0, 0.0))
    lam_k = np.abs(rng.standard_normal(m)) * (rng.random(m) < 0.5)
    return sys, lam_k, rng.standard_normal(m)


def test_solve_lcp_falls_back_when_active_set_cycles():
    sys, lam_k, s_k = _cycling_system()
    lam, steps = _active_set(sys.h, lam_k, s_k, 200)
    assert lam is None and steps == 200
    out = solve_lcp(sys, lam_k, s_k)
    ref = support.lcp_enumeration_oracle(sys.h, lam_k, s_k)
    assert np.max(np.abs(out - ref)) <= 1e-7


def test_solve_lcp_active_set_steps_count_against_cap():
    sys, lam_k, s_k = _cycling_system()
    # m + 1 active-set steps use the whole budget, leaving no sweep
    with pytest.raises(NoConvergence):
        solve_lcp(sys, lam_k, s_k, max_sweeps=sys.m + 1)


def test_active_set_gives_up_when_free_block_will_not_factor():
    lam, steps = _active_set(np.array([[-1.0]]), np.array([1.0]), np.array([0.0]), 2)
    assert lam is None and steps == 1


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    m=st.integers(1, 40),
    extra_cols=st.integers(-2, 2),
    log_shift=st.floats(-6.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gram", "indefinite"]),
)
def test_active_set_matches_cho_factor_route_bit_for_bit(m, extra_cols, log_shift, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "gram":
        h = build_h0(rng.standard_normal((m, max(m + extra_cols, 1))), 1.0, 10.0**log_shift).h
    else:
        g = rng.standard_normal((m, m))
        h = 0.5 * (g + g.T)
    lam_k = np.abs(rng.standard_normal(m)) * (rng.random(m) < 0.5)
    s_k = rng.standard_normal(m)
    lam, steps = _active_set(h, lam_k, s_k, m + 1)
    ref, ref_steps = support.active_set_scipy(h, lam_k, s_k, m + 1)
    assert steps == ref_steps
    assert (lam is None) == (ref is None)
    if lam is not None:
        assert lam.tobytes() == ref.tobytes()


TINY = 1e-320  # a finite positive weight whose reciprocal overflows


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda a: build_h0(a, TINY, 0.01), "r = 1e-320"),
        (lambda a: build_hp([(a, TINY), (a, 1.0)], 0.01), "r_list[0] = 1e-320, r_list[1] = 1.0"),
        (lambda a: build_h2(a, TINY, 1.0, 0.01), "r = 1e-320, s = 1.0"),
        (lambda a: build_h2(a, 1.0, TINY, 0.01), "r = 1.0, s = 1e-320"),
    ],
    ids=["h0", "hp", "h2-shift", "h2-gram"],
)
def test_a_weight_whose_reciprocal_overflows_is_named_without_a_warning(build, named):
    """1/r overflowing used to print numpy RuntimeWarnings and fail the
    factor's symmetry test on the inf and nan entries."""
    a = np.random.default_rng(1).standard_normal((3, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(f"the dual metric overflows at {named}:")):
            build(a)


@pytest.mark.parametrize(
    "method, problem, flags, named",
    [
        ("balanced-alm", "qp", {"r": TINY}, "r = 1e-320"),
        ("split-balanced", "two_block", {"r_list": (TINY, 1.0)}, "r_list[0] = 1e-320, r_list[1] = 1.0"),
        ("alt-split", "two_block", {"r": TINY, "s": 1.0}, "r = 1e-320, s = 1.0"),
    ],
)
def test_a_run_refuses_a_weight_whose_reciprocal_overflows(method, problem, flags, named):
    rng = np.random.default_rng(1)
    prob = support.random_eq_qp(rng, 10, 4)[0] if problem == "qp" else support.two_block_qp(rng, 4, 3, 3)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(f"the dual metric overflows at {named}:")):
            run(prob, bench.build_config(method, prob, **flags), StopRule(max_iters=5, kkt_tol=1e-8))


@pytest.mark.parametrize(
    "lam_k, s_k, named",
    [
        (np.zeros(30), np.full(30, np.nan), "s_k"),
        (np.zeros(30), np.r_[np.ones(29), np.inf], "s_k"),
        (np.r_[np.ones(29), -np.inf], np.ones(30), "lam_k"),
        (np.r_[np.nan, np.ones(29)], np.full(30, np.nan), "s_k"),
    ],
    ids=["s_k-nan", "s_k-inf", "lam_k-inf", "both"],
)
def test_solve_lcp_refuses_a_non_finite_input_at_once(monkeypatch, lam_k, s_k, named):
    """A nan or inf used to run all 10,000 sweeps before NoConvergence."""
    sys = build_h0(np.random.default_rng(3).standard_normal((30, 60)), 1.0, 0.1)
    monkeypatch.setattr(multiplier, "_active_set", None)  # never reached
    with pytest.raises(NoConvergence, match=f"^the LCP solve refuses {named} with a non-finite entry"):
        solve_lcp(sys, lam_k, s_k)


def test_solve_lcp_accepts_a_finite_slack_whose_squares_overflow():
    sys = build_h0(np.eye(3), 1.0, 0.5)
    with np.errstate(over="ignore"):  # the certificate's ||s_k|| is inf
        lam = solve_lcp(sys, np.zeros(3), np.array([1e200, 1.0, 0.0]))
    assert lam.tobytes() == np.zeros(3).tobytes()


def _lcp_chain(h: np.ndarray, lam0: np.ndarray, slacks: list, max_sweeps: int) -> tuple:
    """A warm-started chain of solve_lcp calls on one system, each lam_k
    the previous answer (the previous lam_k after a NoConvergence),
    checked call by call against the same call on a fresh system.

    Returns the number of distinct free sets the shared system kept, the
    free blocks that would not factor and the calls that the active-set
    phase did not settle.
    """
    m = len(lam0)
    factor = SpdFactor(dim=m, lower=np.eye(m))  # solve_lcp reads only its dim
    shared = MultiplierSystem(h=h, factor=factor)
    kept, give_ups, settled = set(), [], []
    real_dpotrf, real_active_set = multiplier.dpotrf, multiplier._active_set

    def dpotrf(*args, **kwargs):
        out = real_dpotrf(*args, **kwargs)
        give_ups.append(out[1] > 0)
        return out

    def active_set(*args):
        out = real_active_set(*args)
        settled.append(out[0])
        return out

    def solve(sys, lam_k, s_k):
        try:
            return solve_lcp(sys, lam_k, s_k, max_sweeps=max_sweeps)
        except NoConvergence as exc:
            return str(exc)

    lam_k, fallbacks = lam0, 0
    for s_k in slacks:
        with mock.patch.object(multiplier, "dpotrf", dpotrf), mock.patch.object(multiplier, "_active_set", active_set):
            out = solve(shared, lam_k, s_k)
        fallbacks += out is not settled[-1]
        ref = solve(MultiplierSystem(h=h, factor=factor), lam_k, s_k)
        assert type(out) is type(ref)
        assert out == ref if isinstance(out, str) else out.tobytes() == ref.tobytes()
        assert len(shared.free_factors) <= multiplier.FREE_FACTORS_KEPT == 4
        assert not any(kept_factor.flags.writeable for kept_factor in shared.free_factors.values())
        kept |= set(shared.free_factors)
        lam_k = lam_k if isinstance(out, str) else out
    return len(kept), sum(give_ups), fallbacks


def _chain_case(kind: str, m: int, seed: int, length: int, log_scale: float) -> tuple:
    """A shifted Gram, or a symmetric matrix with a positive diagonal that
    is indefinite (some free blocks will not factor), a half-support warm
    start and length slacks."""
    rng = np.random.default_rng(seed)
    if kind == "gram":
        h = build_h0(rng.standard_normal((m, m + 1)), 1.0, 1e-3).h
    else:
        g = rng.standard_normal((m, m))
        h = 0.5 * (g + g.T) + 1.5 * math.sqrt(m) * np.eye(m)
    lam0 = np.abs(rng.standard_normal(m)) * (rng.random(m) < 0.5)
    return h, lam0, [10.0**log_scale * rng.standard_normal(m) for _ in range(length)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(["gram", "indefinite"]),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(2, 12),
    log_scale=st.floats(-2.0, 2.0),
)
def test_a_chain_on_one_system_gives_the_bytes_of_fresh_systems(kind, m, seed, length, log_scale):
    _lcp_chain(*_chain_case(kind, m, seed, length, log_scale), max_sweeps=60)


def test_a_chain_that_evicts_gives_up_and_falls_back_keeps_its_bytes():
    kept, give_ups, fallbacks = _lcp_chain(*_chain_case("indefinite", 6, 23, 12, 0.0), max_sweeps=60)
    assert kept > multiplier.FREE_FACTORS_KEPT and give_ups and fallbacks


def test_a_system_made_from_another_starts_with_no_kept_factors():
    rng = np.random.default_rng(3)
    first = build_h0(rng.standard_normal((5, 9)), 1.0, 1e-3)
    solve_lcp(first, np.ones(5), rng.standard_normal(5))
    assert first.free_factors
    h2 = build_h0(rng.standard_normal((5, 9)), 1.0, 1e-3).h
    replaced = dataclasses.replace(first, h=h2, factor=cholesky_factor(h2))
    assert replaced.free_factors == {} and replaced.free_factors is not first.free_factors
    with pytest.raises(TypeError):
        MultiplierSystem(h=h2, factor=replaced.factor, free_factors=first.free_factors)


@pytest.mark.parametrize("alpha, distinct", [(1.0, 5), (1.5, 7)])
def test_a_run_whose_free_blocks_are_evicted_keeps_its_iterates(monkeypatch, alpha, distinct):
    """nonneg_qp_ineq 30 x 60 factors more distinct free blocks than a
    system keeps; the digest's 4 x 10 inequality cases never evict."""
    prob, _ = bench.generate_instance("nonneg_qp_ineq", (30, 60), 1)
    cfg = bench.build_config("balanced-alm", prob, alpha=alpha)
    real_dpotrf = multiplier.dpotrf

    def traced(kept: int) -> tuple:
        blocks = []

        def dpotrf(a, **kwargs):
            blocks.append(a.tobytes())
            return real_dpotrf(a, **kwargs)

        monkeypatch.setattr(multiplier, "dpotrf", dpotrf)
        monkeypatch.setattr(multiplier, "FREE_FACTORS_KEPT", kept)
        history = run(prob, cfg, StopRule(max_iters=1000, kkt_tol=1e-8))
        return [w.x.tobytes() + w.lam.tobytes() for w in history.iterates], blocks

    cached, cached_blocks = traced(4)
    uncached, uncached_blocks = traced(0)
    assert cached == uncached
    assert len(set(uncached_blocks)) == len(cached_blocks) == distinct > 4
    assert len(uncached_blocks) > 2 * len(cached_blocks)
