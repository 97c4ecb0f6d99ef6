from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from balm.bench import GENERATOR_KINDS, generate_instance
from balm.diagnostics import _sample_probe
from balm.errors import DimensionMismatch, NoConvergence, UnsupportedCombination, UnsupportedObjective
from balm.problems import (
    Block,
    KktResidual,
    PrimalDualPoint,
    Problem,
    SeparableProblem,
    Sense,
    coupling,
    default_start,
    flatten_blocks,
    kkt_residual,
    lagrangian,
    multiplier_set,
    total_objective,
    vi_operator,
)
from balm.prox import Box, L1, Linear, NonnegativeOrthant, Quadratic, SeparableSum, WholeSpace, Zero, prox_constrained
from balm.solvers import BalancedAlmConfig, StopRule, run

import support


def _toy_eq():
    # min 0.5 ||x||^2 s.t. x1 + x2 = 1
    return Problem(Quadratic(np.eye(2), np.zeros(2)), WholeSpace(), np.array([[1.0, 1.0]]), np.array([1.0]), Sense.EQUALITY)


def test_problem_dims():
    prob = _toy_eq()
    assert prob.m == 1 and prob.n == 2
    assert prob.gram_norm == pytest.approx(2.0, rel=1e-8)


def test_problem_rejects_bad_rhs():
    with pytest.raises(DimensionMismatch):
        Problem(Zero(), WholeSpace(), np.eye(2), np.zeros(3), Sense.EQUALITY)


def test_problem_rejects_nonfinite():
    with pytest.raises(ValueError):
        Problem(Zero(), WholeSpace(), np.array([[np.nan]]), np.zeros(1), Sense.EQUALITY)


def test_separable_dims_and_split():
    prob = support.two_block_qp(np.random.default_rng(0), 3, 2, 2)[0]
    assert prob.n == sum(prob.block_dims)
    parts = prob.split(np.arange(float(prob.n)))
    assert sum(p.size for p in parts) == prob.n
    assert np.array_equal(np.concatenate(parts), np.arange(float(prob.n)))


def test_problem_is_its_own_only_block():
    prob = _toy_eq()
    x = np.array([0.25, -0.5])
    assert isinstance(prob, Block)
    assert prob.blocks == (prob,)
    assert len(prob.split(x)) == 1 and prob.split(x)[0] is x
    sep = SeparableProblem((Block(prob.theta, prob.x_set, prob.a),), prob.b, prob.sense)
    assert sep.m == sep.blocks[0].m == prob.m == 1


def test_separable_rejects_empty():
    with pytest.raises(DimensionMismatch):
        SeparableProblem((), np.zeros(1), Sense.EQUALITY)


def test_separable_rejects_row_mismatch():
    b1 = Block(Zero(), WholeSpace(), np.ones((2, 1)))
    b2 = Block(Zero(), WholeSpace(), np.ones((3, 1)))
    with pytest.raises(DimensionMismatch):
        SeparableProblem((b1, b2), np.zeros(2), Sense.EQUALITY)


def test_point_array_roundtrip():
    w = PrimalDualPoint(np.array([1.0, 2.0]), np.array([3.0]))
    back = PrimalDualPoint.from_array(w.as_array(), 2)
    assert np.array_equal(back.x, w.x) and np.array_equal(back.lam, w.lam)


def test_multiplier_set_by_sense():
    prob = _toy_eq()
    assert isinstance(multiplier_set(prob), WholeSpace)
    ineq = Problem(prob.theta, prob.x_set, prob.a, prob.b, Sense.INEQUALITY)
    assert isinstance(multiplier_set(ineq), NonnegativeOrthant)


def test_coupling_worked():
    prob = _toy_eq()
    assert coupling(prob, np.array([2.0, 3.0]))[0] == pytest.approx(4.0)


def test_total_objective_blockwise():
    b1 = Block(Quadratic(np.array([[2.0]]), np.zeros(1)), WholeSpace(), np.ones((1, 1)))
    b2 = Block(L1(3.0), WholeSpace(), np.ones((1, 1)))
    prob = SeparableProblem((b1, b2), np.zeros(1), Sense.EQUALITY)
    # 0.5 * 2 * 4 + 3 * 1 = 7
    assert total_objective(prob, np.array([2.0, -1.0])) == pytest.approx(7.0)


def test_vi_operator_worked():
    prob = _toy_eq()
    w = PrimalDualPoint(np.array([1.0, 0.0]), np.array([2.0]))
    f = vi_operator(prob, w)
    assert np.allclose(f, [-2.0, -2.0, 0.0], atol=1e-15)


def test_vi_operator_affine_skew():
    """(w1 - w2)^T (F(w1) - F(w2)) = 0: the operator is affine skew-symmetric."""
    rng = np.random.default_rng(11)
    prob, _ = support.random_eq_qp(rng, 7, 4)
    for _ in range(100):
        w1 = PrimalDualPoint(rng.standard_normal(7), rng.standard_normal(4))
        w2 = PrimalDualPoint(rng.standard_normal(7), rng.standard_normal(4))
        d = w1.as_array() - w2.as_array()
        df = vi_operator(prob, w1) - vi_operator(prob, w2)
        assert abs(float(d @ df)) <= 1e-12 * (1.0 + float(d @ d))


def test_lagrangian_worked():
    prob = _toy_eq()
    w = PrimalDualPoint(np.array([1.0, 1.0]), np.array([0.5]))
    # theta = 1.0, constraint slack = 1, lagrangian = 1 - 0.5
    assert lagrangian(prob, w) == pytest.approx(0.5)


def test_kkt_zero_at_solution():
    prob = _toy_eq()
    w = PrimalDualPoint(np.array([0.5, 0.5]), np.array([0.5]))
    res = kkt_residual(prob, w)
    assert res.max() <= 1e-14
    assert res.within(1e-12)


def test_kkt_primal_eq_worked():
    prob = _toy_eq()
    res = kkt_residual(prob, PrimalDualPoint(np.zeros(2), np.zeros(1)))
    assert res.primal == pytest.approx(1.0)
    assert res.complementarity == 0.0


def test_kkt_inequality_one_sided():
    prob = Problem(Zero(), WholeSpace(), np.array([[1.0]]), np.array([1.0]), Sense.INEQUALITY)
    # x = 2 satisfies x >= 1: primal residual must be zero, comp = lam * slack
    res = kkt_residual(prob, PrimalDualPoint(np.array([2.0]), np.array([3.0])))
    assert res.primal == 0.0
    assert res.complementarity == pytest.approx(3.0)
    res = kkt_residual(prob, PrimalDualPoint(np.array([0.0]), np.array([0.0])))
    assert res.primal == pytest.approx(1.0)


def test_kkt_residual_separable_matches_flat():
    rng = np.random.default_rng(3)
    prob, _ = support.two_block_qp(rng, 3, 2, 2)
    flat = flatten_blocks(prob)
    w = PrimalDualPoint(rng.standard_normal(prob.n), rng.standard_normal(prob.m))
    a, b = kkt_residual(prob, w), kkt_residual(flat, w)
    assert a.primal == pytest.approx(b.primal, abs=1e-12)
    assert a.dual == pytest.approx(b.dual, abs=1e-10)


def test_default_start_projected():
    prob = Problem(Zero(), Box(np.array([1.0]), np.array([2.0])), np.ones((1, 1)), np.zeros(1), Sense.EQUALITY)
    w0 = default_start(prob)
    assert w0.x[0] == 1.0 and w0.lam.shape == (1,)


def test_flatten_quadratic_blocks():
    b1 = Block(Quadratic(np.array([[2.0]]), np.array([1.0])), WholeSpace(), np.array([[1.0]]))
    b2 = Block(Linear(np.array([3.0])), WholeSpace(), np.array([[2.0]]))
    prob = SeparableProblem((b1, b2), np.array([1.0]), Sense.EQUALITY)
    flat = flatten_blocks(prob)
    assert np.array_equal(flat.a, np.array([[1.0, 2.0]]))
    assert np.array_equal(flat.theta.p, np.diag([2.0, 0.0]))
    assert np.array_equal(flat.theta.c, np.array([1.0, 3.0]))
    x = np.array([0.7, -0.4])
    assert total_objective(flat, x) == pytest.approx(total_objective(prob, x))


def test_flatten_scalar_blocks():
    b1 = Block(L1(2.0), NonnegativeOrthant(), np.array([[1.0, 0.0]]))
    b2 = Block(Zero(), WholeSpace(), np.array([[1.0]]))
    prob = SeparableProblem((b1, b2), np.array([1.0]), Sense.EQUALITY)
    flat = flatten_blocks(prob)
    assert isinstance(flat.theta, SeparableSum)
    assert isinstance(flat.x_set, Box)
    assert np.array_equal(flat.x_set.lower, [0.0, 0.0, -np.inf])
    x = np.array([0.5, 1.5, -2.0])
    assert total_objective(flat, x) == pytest.approx(total_objective(prob, x))


def test_flatten_uniform_sets_stay_simple():
    b1 = Block(Zero(), NonnegativeOrthant(), np.ones((1, 2)))
    b2 = Block(Zero(), NonnegativeOrthant(), np.ones((1, 1)))
    flat = flatten_blocks(SeparableProblem((b1, b2), np.zeros(1), Sense.EQUALITY))
    assert isinstance(flat.x_set, NonnegativeOrthant)


def test_kkt_residual_type():
    r = KktResidual(primal=1.0, dual=2.0, complementarity=0.5)
    assert r.max() == 2.0
    assert not r.within(1.0)


def test_kkt_residual_nan_is_never_within():
    for parts in ((1e-12, math.nan, 0.0), (math.nan, 0.0, 0.0), (0.0, 0.0, math.nan)):
        r = KktResidual(*parts)
        assert math.isnan(r.max())
        assert not r.within(1e-8)
        assert not r.within(math.inf)


def test_kkt_residual_norms_do_not_overflow_on_finite_entries():
    prob = Problem(Quadratic(np.eye(1), np.zeros(1)), WholeSpace(), np.eye(1), [1e308], Sense.EQUALITY)
    with np.errstate(over="ignore"):
        res = kkt_residual(prob, default_start(prob))
        assert res.primal == 1e308 and res.dual == 0.0
        wide = Problem(Quadratic(np.eye(2), np.zeros(2)), WholeSpace(), np.eye(2), [1e200, -1e200], Sense.EQUALITY)
        assert kkt_residual(wide, default_start(wide)).primal == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        gap = kkt_residual(wide, PrimalDualPoint(np.zeros(2), np.array([3e200, 4e200])))
        assert gap.dual == pytest.approx(2.5e200, rel=1e-15)  # x - prox = -lam / 2
        hist = run(prob, BalancedAlmConfig(1.0, 0.01), StopRule(max_iters=3, kkt_tol=1e-8))
    assert len(hist) > 1


def test_kkt_residual_bits_unchanged_below_overflow():
    rng = np.random.default_rng(12)
    prob, _ = support.random_ineq_qp(rng, 6, 3)
    for _ in range(50):
        w = PrimalDualPoint(rng.standard_normal(6), np.abs(rng.standard_normal(3)))
        res = kkt_residual(prob, w)
        resid = prob.a @ w.x - prob.b
        target = prox_constrained(prob.theta, prob.x_set, 1.0, w.x + prob.a.T @ w.lam)
        assert res.primal == float(np.linalg.norm(np.minimum(resid, 0.0)))
        assert res.dual == float(np.linalg.norm(w.x - target))


_ENTRY = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))


@st.composite
def _one_block_cases(draw):
    """A Problem over one of every objective and set kind, either sense,
    entries that include signed zeros, a point and a sampler seed."""

    def vec(k):
        return np.array(draw(st.lists(_ENTRY, min_size=k, max_size=k)))

    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    set_kind = draw(st.sampled_from(["whole", "orthant", "box"]))
    if set_kind == "whole":
        x_set = WholeSpace()
    elif set_kind == "orthant":
        x_set = NonnegativeOrthant()
    else:
        lower = vec(n)
        x_set = Box(lower, lower + np.abs(vec(n)))
    kind = draw(st.sampled_from(["zero", "l1", "linear", "quadratic", "separable_sum"]))
    if kind == "zero":
        theta = Zero()
    elif kind == "l1":
        theta = L1(draw(st.one_of(st.just(-0.0), st.floats(0.0, 10.0))))  # -0.0 makes theta(x) = -0.0
    elif kind == "linear":
        theta = Linear(vec(n))
    elif kind == "quadratic":
        p = np.diag(np.abs(vec(n)))
        if set_kind == "whole":  # a dense P has an exact prox on the whole space only
            g = vec(n * n).reshape(n, n)
            p = p + 0.5 * (g @ g.T + (g @ g.T).T)
        theta = Quadratic(p, vec(n))
    else:
        parts = [Zero(), L1(1.5), Linear(np.array([-2.0])), Quadratic(np.array([[3.0]]), np.array([0.5]))]
        theta = SeparableSum(tuple(parts[i] for i in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    prob = Problem(theta, x_set, vec(m * n).reshape(m, n), vec(m), draw(st.sampled_from(list(Sense))))
    return prob, PrimalDualPoint(vec(n), vec(m)), draw(st.integers(0, 2**32 - 1))


def _bits(v) -> str:
    """repr of a value, arrays as lists of floats, so that the sign of zero counts."""
    if isinstance(v, PrimalDualPoint):
        return repr((v.x.tolist(), v.lam.tolist()))
    return repr(v.tolist() if isinstance(v, np.ndarray) else v)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_one_block_cases())
def test_problem_matches_its_one_block_separable_bit_for_bit(case):
    prob, w, seed = case
    sep = SeparableProblem((Block(prob.theta, prob.x_set, prob.a),), prob.b, prob.sense)
    for f in (
        lambda p: coupling(p, w.x),
        lambda p: vi_operator(p, w),
        lambda p: kkt_residual(p, w),
        lambda p: total_objective(p, w.x),
        lambda p: lagrangian(p, w),
        default_start,
        lambda p: _sample_probe(p, w.as_array(), prob.n, np.random.default_rng(seed)),
    ):
        assert _bits(f(prob)) == _bits(f(sep))


# ---------------------------------------------------------------------------
# a block fits its columns where it is built; flattening reads each kind's rule


def test_problem_rejects_a_nonfinite_rhs():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="rhs has non-finite entries"):
            Problem(Zero(), WholeSpace(), np.eye(2), np.array([0.0, bad]), Sense.EQUALITY)


def test_separable_split_refuses_the_wrong_width():
    prob = support.two_block_qp(np.random.default_rng(0), 3, 2, 2)[0]
    with pytest.raises(DimensionMismatch, match=re.escape(f"x has shape ({prob.n + 1},)")):
        prob.split(np.zeros(prob.n + 1))


@pytest.mark.parametrize(
    "theta, x_set, message",
    [
        (Linear(np.ones(2)), WholeSpace(), "objective shape"),
        (Quadratic(np.eye(4), np.zeros(4)), NonnegativeOrthant(), "objective shape"),
        (SeparableSum((Zero(), L1(1.0))), WholeSpace(), "objective shape"),
        (L1(1.0), Box(np.zeros(2), np.ones(2)), "box bounds"),
    ],
    ids=["linear", "quadratic", "separable-sum", "box"],
)
def test_a_block_refuses_an_objective_or_set_of_another_width(theta, x_set, message):
    """The prox module's own shape checks run once where the block is
    built, for a Block and for a Problem, instead of mid-run."""
    with pytest.raises(DimensionMismatch, match=message):
        Block(theta, x_set, np.ones((2, 3)))
    with pytest.raises(DimensionMismatch, match=message):
        Problem(theta, x_set, np.ones((2, 3)), np.zeros(2), Sense.EQUALITY)


@dataclass(frozen=True)
class _Ball:
    """A spec no prox rule knows."""


def test_a_block_refuses_an_unknown_set_or_objective_kind():
    with pytest.raises(UnsupportedObjective, match="unknown set spec _Ball"):
        Block(Zero(), _Ball(), np.ones((1, 2)))
    with pytest.raises(UnsupportedObjective, match="unknown objective _Ball"):
        Block(_Ball(), WholeSpace(), np.ones((1, 2)))


def test_the_width_check_is_silent_on_non_finite_coefficients():
    """Refusing non-finite coefficients is the problem file's rule
    (bench.parse_problem); a caller may build such a block on purpose, and
    evaluating it at zeros(n) for the width check warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Problem(Linear(np.array([np.inf])), WholeSpace(), np.ones((1, 1)), np.ones(1), Sense.EQUALITY)
        Block(SeparableSum((L1(np.inf), Linear(np.array([np.nan])))), NonnegativeOrthant(), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch, match="objective shape"):
            Block(Linear(np.array([np.inf, np.nan])), WholeSpace(), np.ones((1, 3)))


def test_flatten_merges_a_box_beside_whole_space_and_orthant_blocks_bit_for_bit():
    """A Box block gives its own bounds, so its -0.0 lower bound stays
    -0.0; the other blocks give their set's projection of -inf and +inf."""
    box = Box(np.array([-0.0, -1.0]), np.array([2.0, np.inf]))
    blocks = (
        Block(Zero(), WholeSpace(), np.ones((1, 1))),
        Block(Zero(), box, np.ones((1, 2))),
        Block(Zero(), NonnegativeOrthant(), np.ones((1, 2))),
    )
    flat = flatten_blocks(SeparableProblem(blocks, np.zeros(1), Sense.EQUALITY))
    assert isinstance(flat.x_set, Box)
    assert flat.x_set.lower.tobytes() == np.array([-np.inf, -0.0, -1.0, 0.0, 0.0]).tobytes()
    assert flat.x_set.upper.tobytes() == np.array([np.inf, 2.0, np.inf, np.inf, np.inf]).tobytes()


def test_flatten_gives_each_coordinate_its_blocks_own_scalar_part():
    """A Zero or L1 block's own object serves each of its coordinates, a
    SeparableSum's parts are kept, and a Linear block is sliced; the
    flattened prox equals the blockwise one."""
    l1, zero = L1(0.5), Zero()
    sep = SeparableSum((Linear(np.array([1.5])), Zero(), Quadratic(np.array([[2.0]]), np.array([-1.0]))))
    blocks = (
        Block(l1, NonnegativeOrthant(), np.ones((1, 2))),
        Block(Linear(np.array([0.25, -3.0])), WholeSpace(), np.ones((1, 2))),
        Block(sep, Box(-np.ones(3), np.ones(3)), np.ones((1, 3))),
        Block(zero, WholeSpace(), np.ones((1, 1))),
    )
    prob = SeparableProblem(blocks, np.zeros(1), Sense.EQUALITY)
    parts = flatten_blocks(prob).theta.parts
    assert parts[0] is l1 and parts[1] is l1 and parts[7] is zero
    assert all(p is q for p, q in zip(parts[4:7], sep.parts))
    assert [type(p) for p in parts[2:4]] == [Linear, Linear] and [p.c.tolist() for p in parts[2:4]] == [[0.25], [-3.0]]
    flat = flatten_blocks(prob)
    q = 3.0 * np.random.default_rng(0).standard_normal(prob.n)
    for r in (0.5, 1.0, 4.0):
        blockwise = [prox_constrained(b.theta, b.x_set, r, qi) for b, qi in zip(blocks, prob.split(q))]
        assert np.array_equal(prox_constrained(flat.theta, flat.x_set, r, q), np.concatenate(blockwise))


def test_flatten_refuses_a_coupled_quadratic_beside_an_l1_block():
    coupled = Quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
    blocks = (Block(coupled, WholeSpace(), np.ones((1, 2))), Block(L1(1.0), WholeSpace(), np.ones((1, 1))))
    with pytest.raises(UnsupportedCombination, match="do not merge"):
        flatten_blocks(SeparableProblem(blocks, np.zeros(1), Sense.EQUALITY))


# ---------------------------------------------------------------------------
# a stack of points, one per row, gives each row the bits of its own call


def _stack_rows(draw, rng, width: int) -> np.ndarray:
    """A C-ordered stack of rows of the given width: plain Gaussian rows, rows of
    signed zeros among them, rows holding a nan or an infinity, and rows
    whose entries near 1e200 overflow the squares of a norm."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(["plain", "zeros", "nan", "inf", "huge"]), min_size=1, max_size=6)):
        row = rng.standard_normal(width)
        if kind == "zeros":
            hit = rng.random(width) < 0.6
            row[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
        elif kind in ("nan", "inf"):
            row[rng.integers(width)] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
        elif kind == "huge":
            row *= 1e200
        rows.append(row)
    return np.array(rows)


@st.composite
def _residual_stacks(draw):
    """A problem and a stack of points for it, x and lambda as row slices
    of one C-ordered table.  The problems: the one-block cases above (every objective kind,
    whole space, orthant and box, both senses, n = 1 or m = 1), every
    generator kind (lasso_eq also flattened to its SeparableSum) and the
    two-block QPs."""
    source = draw(st.sampled_from(["one-block", "two-block", *GENERATOR_KINDS, "lasso_eq flattened"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if source == "one-block":
        prob = draw(_one_block_cases())[0]
    elif source == "two-block":
        n1, n2, m = (draw(st.integers(1, 4)) for _ in range(3))
        prob = support.two_block_qp(np.random.default_rng(seed), n1, n2, m)[0]
    else:
        m = draw(st.integers(1, 5))
        try:
            prob = generate_instance(source.split()[0], (m, draw(st.integers(m, 8))), seed)[0]
        except NoConvergence:  # the instance's reference LCP (nonneg_qp_ineq 3x3 seed 2), not under test here
            reject()
        prob = prob.flat if source.endswith("flattened") else prob
    w = _stack_rows(draw, np.random.default_rng(seed), prob.n + prob.m)
    return prob, w[:, : prob.n], w[:, prob.n :]  # row slices of one C-ordered table, as a replay passes them


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_residual_stacks())
def test_kkt_residual_of_a_stack_equals_each_rows_own_residual_field_for_field(case):
    """One kkt_residual call on a stack gives one KktResidual per row, each
    equal to the residual of its row alone: repr compares every field as a
    Python float, the sign of zero and nan included."""
    prob, x, lam = case
    with np.errstate(all="ignore"):
        stacked = kkt_residual(prob, PrimalDualPoint(x, lam))
        alone = [kkt_residual(prob, PrimalDualPoint(xi.copy(), li.copy())) for xi, li in zip(x, lam)]
    assert [repr(r) for r in stacked] == [repr(r) for r in alone]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_one_block_cases(), rows=st.integers(1, 5))
def test_prox_constrained_of_a_stack_equals_each_rows_own_prox(case, rows):
    """prox_constrained, and with it prox and project, on a stack of q,
    one per row, gives each row the bits of its own call, at every weight."""
    prob, w, seed = case
    q = np.random.default_rng(seed).standard_normal((rows, prob.n)) * 10.0
    q[0] = w.x
    for r in (0.5, 1.0, 3.0):
        with np.errstate(all="ignore"):
            stacked = prox_constrained(prob.theta, prob.x_set, r, q)
            alone = [prox_constrained(prob.theta, prob.x_set, r, row.copy()) for row in q]
        assert _bits(stacked) == _bits(np.array(alone))
