from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balm.errors import DimensionMismatch, NotPositiveDefinite, UnsupportedCombination, UnsupportedObjective
from balm.linalg import SpdFactor, cholesky_factor, gram_norm_bound, solve_spd
from balm.prox import (
    Box,
    L1,
    Linear,
    NonnegativeOrthant,
    Quadratic,
    SeparableSum,
    WholeSpace,
    Zero,
    contains,
    objective_value,
    project,
    prox,
    prox_constrained,
)

import support


def test_prox_zero_is_identity():
    q = np.array([1.5, -2.0])
    assert np.array_equal(prox(Zero(), 3.0, q), q)


def test_prox_l1_soft_threshold():
    out = prox(L1(1.0), 1.0, np.array([2.0, -0.5]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)


def test_prox_l1_half_shift():
    # weight/r = 0.5
    out = prox(L1(1.0), 2.0, np.array([1.0, -1.0, 0.25]))
    assert np.allclose(out, [0.5, -0.5, 0.0], atol=1e-15)


def test_prox_linear_shifts():
    out = prox(Linear(np.array([2.0, -4.0])), 2.0, np.array([1.0, 1.0]))
    assert np.allclose(out, [0.0, 3.0], atol=1e-15)


def test_prox_quadratic_worked():
    theta = Quadratic(np.eye(2), np.zeros(2))
    assert np.allclose(prox(theta, 1.0, np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-14)


def test_prox_quadratic_stationarity_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n))
        p = g @ g.T / n
        p = 0.5 * (p + p.T)
        theta = Quadratic(p, rng.standard_normal(n))
        r = 0.1 + 2.0 * rng.random()
        q = rng.standard_normal(n)
        y = prox(theta, r, q)
        grad = theta.p @ y + theta.c + r * (y - q)
        assert np.linalg.norm(grad) <= 1e-9 * (1.0 + np.linalg.norm(q))


def test_prox_separable_sum_mixed():
    theta = SeparableSum((L1(1.0), Zero(), Linear(np.array([2.0]))))
    out = prox(theta, 2.0, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [0.5, 1.0, 0.0], atol=1e-15)


def test_prox_factor_cache_reused():
    theta = Quadratic(np.eye(3), np.zeros(3))
    q = np.ones(3)
    first = prox(theta, 2.0, q)
    second = prox(theta, 2.0, q)
    assert np.array_equal(first, second)
    assert len(theta._factors) == 1
    prox(theta, 3.0, q)
    assert len(theta._factors) == 2


def test_a_replaced_quadratic_factors_its_own_p():
    """dataclasses.replace builds a Quadratic with a cache of its own, so
    after the original has factored P + r I the copy with another P
    proxes, one vector or a stack, with the bits of a freshly built one."""
    original = Quadratic(np.eye(2), np.zeros(2))
    prox(original, 1.0, np.ones(2))
    for q in (np.ones(2), np.array([[1.0, 1.0], [3.0, -2.0]])):
        replaced = dataclasses.replace(original, p=4.0 * np.eye(2))
        assert replaced._factors == {} and replaced._factors is not original._factors
        assert prox(replaced, 1.0, q).tobytes() == prox(Quadratic(4.0 * np.eye(2), np.zeros(2)), 1.0, q).tobytes()
    # P = I's factor would give [0.5, 0.5]
    assert np.allclose(prox(dataclasses.replace(original, p=4.0 * np.eye(2)), 1.0, np.ones(2)), 0.2, rtol=0.0, atol=1e-15)


def test_a_quadratic_takes_no_factor_cache_at_construction():
    with pytest.raises(TypeError):
        Quadratic(np.eye(2), np.zeros(2), _factors={})


def test_prox_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        prox(Zero(), 0.0, np.ones(1))


def test_prox_rejects_unknown_objective():
    with pytest.raises(UnsupportedObjective):
        prox(object(), 1.0, np.ones(1))


def test_prox_optimality_certificate():
    """The prox output beats 50 random perturbations for every kind."""
    rng = np.random.default_rng(4)
    kinds = [
        Zero(),
        L1(0.7),
        Linear(np.array([0.3, -1.2, 0.0])),
        Quadratic(np.diag([1.0, 2.0, 0.5]), np.array([0.1, 0.0, -0.4])),
        SeparableSum((L1(0.5), Zero(), Quadratic(np.array([[2.0]]), np.array([0.3])))),
    ]
    for theta in kinds:
        for _ in range(40):
            r = 0.2 + 3.0 * rng.random()
            q = 2.0 * rng.standard_normal(3)
            y = prox(theta, r, q)
            best = objective_value(theta, y) + 0.5 * r * np.sum((y - q) ** 2)
            for _ in range(50):
                z = y + 0.5 * rng.standard_normal(3)
                other = objective_value(theta, z) + 0.5 * r * np.sum((z - q) ** 2)
                assert best <= other + 1e-12


def test_prox_firmly_nonexpansive():
    rng = np.random.default_rng(9)
    theta = L1(1.3)
    for _ in range(100):
        q1, q2 = rng.standard_normal(4), rng.standard_normal(4)
        d = prox(theta, 1.7, q1) - prox(theta, 1.7, q2)
        assert np.sum(d * d) <= float(d @ (q1 - q2)) + 1e-12


def test_prox_constrained_orthant_clips():
    out = prox_constrained(L1(1.0), NonnegativeOrthant(), 1.0, np.array([2.0, -2.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)


def test_prox_constrained_box_clips():
    box = Box(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    out = prox_constrained(Zero(), box, 1.0, np.array([2.0, -1.0]))
    assert np.allclose(out, [0.5, 0.0], atol=1e-15)


def test_prox_constrained_whole_space_matches_free():
    rng = np.random.default_rng(1)
    theta = Quadratic(rng.standard_normal((3, 3)) @ np.eye(3) * 0.0 + np.eye(3), np.zeros(3))
    q = rng.standard_normal(3)
    assert np.array_equal(prox_constrained(theta, WholeSpace(), 2.0, q), prox(theta, 2.0, q))


def test_prox_constrained_diagonal_quadratic_orthant():
    theta = Quadratic(np.diag([2.0, 2.0]), np.array([0.0, 4.0]))
    out = prox_constrained(theta, NonnegativeOrthant(), 2.0, np.array([1.0, 1.0]))
    # free prox: (2 q - c) / 4 = (0.5, -0.5), clipped to (0.5, 0)
    assert np.allclose(out, [0.5, 0.0], atol=1e-15)


def test_prox_constrained_rejects_coupled_quadratic_on_orthant():
    theta = Quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
    with pytest.raises(UnsupportedCombination):
        prox_constrained(theta, NonnegativeOrthant(), 1.0, np.ones(2))


def test_prox_constrained_clip_matches_search():
    """Clipped prox equals brute-force minimization over a fine grid."""
    rng = np.random.default_rng(6)
    theta = L1(0.8)
    box = Box(np.array([-0.3]), np.array([0.9]))
    for _ in range(50):
        r = 0.3 + 2.0 * rng.random()
        q = 2.0 * rng.standard_normal(1)
        y = prox_constrained(theta, box, r, q)[0]
        grid = np.linspace(-0.3, 0.9, 20001)
        vals = 0.8 * np.abs(grid) + 0.5 * r * (grid - q[0]) ** 2
        assert abs(y - grid[np.argmin(vals)]) <= 1e-4


def test_project_examples():
    assert np.allclose(project(NonnegativeOrthant(), np.array([1.0, -2.0])), [1.0, 0.0])
    box = Box(np.array([0.0]), np.array([1.0]))
    assert project(box, np.array([3.0]))[0] == 1.0
    v = np.array([-5.0, 5.0])
    assert np.array_equal(project(WholeSpace(), v), v)


def test_contains():
    assert contains(WholeSpace(), np.array([-1.0]))
    assert contains(NonnegativeOrthant(), np.zeros(2))
    assert not contains(NonnegativeOrthant(), np.array([-1e-6]))
    box = Box(np.array([0.0]), np.array([np.inf]))
    assert contains(box, np.array([1e9]))


def test_objective_values():
    assert objective_value(Zero(), np.ones(3)) == 0.0
    assert objective_value(L1(2.0), np.array([1.0, -2.0])) == pytest.approx(6.0)
    assert objective_value(Linear(np.array([1.0, -1.0])), np.array([2.0, 3.0])) == pytest.approx(-1.0)
    theta = Quadratic(np.diag([2.0, 4.0]), np.array([1.0, 0.0]))
    assert objective_value(theta, np.array([1.0, 1.0])) == pytest.approx(4.0)


def test_l1_rejects_negative_weight():
    with pytest.raises(ValueError):
        L1(-0.1)


def test_quadratic_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        Quadratic(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))


def test_quadratic_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        Quadratic(np.eye(2), np.zeros(3))


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize(
    "lower, upper",
    [([np.inf], [np.inf]), ([-np.inf], [-np.inf]), ([0.0, np.inf], [1.0, np.inf]), ([-np.inf, 0.0], [-np.inf, 1.0])],
    ids=["lower-inf", "upper-minus-inf", "lower-inf-at-1", "upper-minus-inf-at-0"],
)
def test_box_rejects_a_bound_with_no_feasible_point(lower, upper):
    with pytest.raises(ValueError, match="box has no feasible point"):
        Box(np.array(lower), np.array(upper))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_COEF = st.floats(-1e3, 1e3, allow_nan=False)
_PART = {
    "zero": st.just(Zero()),
    "l1": st.builds(L1, st.floats(0.0, 1e3)),
    "linear": st.builds(lambda c: Linear(np.array([c])), _COEF),
    "quadratic": st.builds(lambda p, c: Quadratic(np.array([[p]]), np.array([c])), st.floats(0.0, 1e3), _COEF),
}


@st.composite
def _separable_cases(draw):
    """A SeparableSum over a random subset of the part kinds (the others
    empty), a set, a prox weight in [1e-8, 1e8] and a point."""
    kinds = sorted(draw(st.sets(st.sampled_from(sorted(_PART)), min_size=1)))
    n = draw(st.integers(1, 12))
    theta = SeparableSum(tuple(draw(_PART[draw(st.sampled_from(kinds))]) for _ in range(n)))
    r = 10.0 ** draw(st.floats(-8.0, 8.0))
    q = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["whole", "orthant", "box"]))
    if kind == "whole":
        x_set = WholeSpace()
    elif kind == "orthant":
        x_set = NonnegativeOrthant()
    else:
        lower = np.array(draw(st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(-np.inf)), min_size=n, max_size=n)))
        width = np.array(draw(st.lists(st.one_of(st.floats(0.0, 1e3), st.just(np.inf)), min_size=n, max_size=n)))
        x_set = Box(lower, np.where(np.isinf(lower), 0.0, lower) + width)
    return theta, x_set, r, q


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_separable_cases())
def test_separable_sum_matches_per_part_loop_bit_for_bit(case):
    theta, x_set, r, q = case
    expected = support.separable_prox_loop(theta, r, q)
    assert _same_bits(prox(theta, r, q), expected)
    assert _same_bits(prox_constrained(theta, x_set, r, q), project(x_set, expected))
    assert objective_value(theta, q) == support.separable_objective_loop(theta, q)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_separable_cases(), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_objective_value_of_a_stack_is_each_rows_value_bit_for_bit(case, k, seed):
    """A stack of points, one per row, gives each row's own value for
    every objective kind; a SeparableSum row is summed left to right."""
    theta, _, _, q = case
    n = q.size
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
    stack[0] = q
    g = rng.standard_normal((n, n))
    specs = (theta, Zero(), L1(0.7), Linear(rng.standard_normal(n)), Quadratic(0.5 * (g @ g.T + g.T @ g), rng.standard_normal(n)))
    for spec in specs:
        got = objective_value(spec, stack)
        assert got.shape == (k,), type(spec).__name__
        assert got.tobytes() == np.array([objective_value(spec, row) for row in stack]).tobytes(), type(spec).__name__


@settings(derandomize=True, deadline=None, max_examples=200)
@given(p=st.floats(-9e-11, 1e-13), r=st.floats(1e-16, 1e-10))
def test_separable_quadratic_pivot_raises_exactly_when_its_factor_would(p, r):
    theta = SeparableSum((L1(1.0), Quadratic(np.array([[p]]), np.array([0.5])), Zero()))
    q = np.array([2.0, -1.0, 3.0])
    try:
        expected = support.separable_prox_loop(theta, r, q)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            prox(theta, r, q)
    else:
        assert _same_bits(prox(theta, r, q), expected)


def test_separable_quadratic_pivot_at_threshold_raises():
    # p + r equal to the pivot threshold is rejected, as the 1x1 factor rejects it
    theta = SeparableSum((Zero(), Quadratic(np.zeros((1, 1)), np.zeros(1))))
    with pytest.raises(NotPositiveDefinite):
        support.separable_prox_loop(theta, 1e-14, np.ones(2))
    with pytest.raises(NotPositiveDefinite):
        prox(theta, 1e-14, np.ones(2))


def test_a_diagonal_quadratic_prox_over_the_orthant_builds_no_n_by_n_temporary():
    """Whether P is diagonal is settled when the Quadratic is built; a prox
    with its factor cached then allocates only vectors."""
    n = 1000
    theta = Quadratic(np.diag(np.linspace(1.0, 2.0, n)), np.ones(n))
    q = np.linspace(-1.0, 1.0, n)
    first = prox_constrained(theta, NonnegativeOrthant(), 2.0, q)  # factors P + 2 I
    tracemalloc.start()
    try:
        again = prox_constrained(theta, NonnegativeOrthant(), 2.0, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (again == first).all()
    assert peak < 1 << 20


class _Ball:
    """A set kind that no Block admits."""


def test_prox_constrained_over_an_unknown_set_kind():
    """A coordinatewise theta clips through project, which refuses the
    unknown kind; any other theta has no exact rule over it."""
    with pytest.raises(UnsupportedObjective, match="unknown set spec _Ball"):
        prox_constrained(L1(1.0), _Ball(), 1.0, np.ones(2))
    coupled = Quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
    with pytest.raises(UnsupportedCombination, match="Quadratic over _Ball has no exact rule"):
        prox_constrained(coupled, _Ball(), 1.0, np.ones(2))


def _quadratic_case(n: int, seed: int):
    rng = np.random.default_rng(seed)
    theta = Quadratic(support.random_spd(rng, n), rng.standard_normal(n))
    # classic-alm's FISTA weight: r ||A||^2 for a coupling matrix A
    lipschitz = 1.3 * gram_norm_bound(rng.standard_normal((max(n // 2, 1), n)))
    return theta, lipschitz, rng


@pytest.mark.parametrize("n", range(1, 41))
def test_quadratic_prox_and_solve_spd_match_the_scipy_route_bit_for_bit(n):
    """A 1 x 1 factor is C- and F-contiguous at once, so n = 1 takes the
    Fortran branch of the dtrtrs arguments for both triangles."""
    theta, lipschitz, rng = _quadratic_case(n, n)
    for r in (1.0, 0.5, lipschitz):
        factor = cholesky_factor(theta.p + r * np.eye(n))
        q = rng.standard_normal(n)
        expected = support.solve_spd_scipy(factor, r * q - theta.c)
        assert prox(theta, r, q).tobytes() == expected.tobytes()
        stack = rng.standard_normal((1 + n % 4, n))
        rows = [support.solve_spd_scipy(factor, r * row - theta.c).tobytes() for row in stack]
        assert [row.tobytes() for row in prox(theta, r, stack)] == rows
        for order in "CF":
            ordered = SpdFactor(dim=n, lower=np.asarray(factor.lower, order=order))
            rhs = rng.standard_normal(n)
            assert solve_spd(ordered, rhs).tobytes() == support.solve_spd_scipy(ordered, rhs).tobytes()


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
def test_quadratic_prox_refuses_a_bad_weight_by_its_message(r):
    theta, _, _ = _quadratic_case(3, 1)
    with pytest.raises(ValueError, match=f"^prox parameter r = {r} must be a finite positive number$"):
        prox(theta, r, np.ones(3))


@pytest.mark.parametrize(
    "shape, message",
    [
        ((4,), "vector shape (4,) does not match objective shape (3,)"),
        ((2, 4), "vector shape (2, 4) does not match objective shape (3,)"),
        ((2, 5, 3), "rhs has shape (5, 3), factor dim is 3"),
    ],
)
def test_quadratic_prox_refuses_a_wrong_width_by_its_message(shape, message):
    theta, _, _ = _quadratic_case(3, 1)
    with pytest.raises(DimensionMismatch, match="^" + re.escape(message) + "$"):
        prox(theta, 1.0, np.ones(shape))
    with pytest.raises(DimensionMismatch, match="^" + re.escape("rhs has shape (4,), factor dim is 3") + "$"):
        solve_spd(theta.shifted_factor(1.0), np.ones(4))
