"""Every public step against its update formula written out in full.

support.*_reference spells out each method's step on its own; the
library's steps share a primal half, a dual half and problems.coupling.
Both must give the same bits, compared through repr so that the sign of
zero counts, on every generator kind and support.two_block_qp, in both
senses where a method accepts them, at their test sizes and at 1x1 (the
only size whose matrix-vector products give -0), from starts at +0, -0,
random points and coordinates mixing signed zeros with small values,
with some entries of b set to zero.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balm.bench import build_config, generate_instance
from balm.errors import BalmError
from balm.multiplier import build_h0, build_h2, build_hp
from balm.problems import Block, PrimalDualPoint, Problem, Sense, SeparableProblem, flatten_blocks
from balm.prox import L1, Linear, Quadratic, WholeSpace, Zero
from balm.solvers import (
    BalancedAlmConfig,
    SplitConfig,
    admm_step,
    alt_split_step,
    balanced_alm_step,
    classic_alm_step,
    generalized_step,
    ladmm_step,
    lalm_step,
    primal_dual_step,
    split_balanced_step,
)

import support

KINDS = {"random_qp_eq": (4, 10), "basis_pursuit": (6, 20), "lasso_eq": (6, 12), "nonneg_qp_ineq": (4, 10)}
ALL_KINDS = tuple(KINDS) + ("two_block_qp",)


def _instance(kind: str, seed: int, tiny: bool = False):
    if kind == "two_block_qp":
        return support.two_block_qp(np.random.default_rng(seed), *((1, 1, 1) if tiny else (4, 3, 3)))[0]
    return generate_instance(kind, (1, 1) if tiny else KINDS[kind], seed)[0]


def _one_block(prob):
    return flatten_blocks(prob) if isinstance(prob, SeparableProblem) else prob


def _blocks(prob):
    if isinstance(prob, SeparableProblem):
        return prob
    return SeparableProblem((Block(prob.theta, prob.x_set, prob.a),), prob.b, prob.sense)


def _two_blocks(prob):
    """Two blocks whose first has the unconstrained quadratic, linear or
    zero objective alt-split needs: lasso_eq with its blocks swapped, or a
    single-block problem cut after its first three columns, the first part
    keeping only the linear term (a Quadratic) or nothing (an L1)."""
    if isinstance(prob, SeparableProblem):
        return SeparableProblem(prob.blocks[::-1] if isinstance(prob.blocks[0].theta, L1) else prob.blocks, prob.b, prob.sense)
    t = prob.theta
    k = min(3, prob.n - 1)
    if isinstance(t, Quadratic):
        first, second = Linear(t.c[:k]), Quadratic(t.p[k:, k:], t.c[k:])
    else:
        first, second = Zero(), t
    blocks = (Block(first, WholeSpace(), prob.a[:, :k]), Block(second, WholeSpace(), prob.a[:, k:]))
    return SeparableProblem(blocks, prob.b, prob.sense)


# name: (shape of the problem it steps on, public step, reference, dual
# system or None, whether it accepts inequality constraints)
STEPS = {
    "balanced-alm": (_one_block, balanced_alm_step, support.balanced_alm_reference,
                     lambda prob, cfg: build_h0(prob.a, cfg.r, cfg.delta), True),
    "generalized": (_one_block, generalized_step, support.generalized_reference,
                    lambda prob, cfg: build_h0(prob.a, cfg.r, cfg.delta), True),
    "split-balanced": (_blocks, split_balanced_step, support.split_balanced_reference,
                       lambda prob, cfg: build_hp([(blk.a, r) for blk, r in zip(prob.blocks, cfg.r_list)], cfg.delta), True),
    "alt-split": (_two_blocks, alt_split_step, support.alt_split_reference,
                  lambda prob, cfg: build_h2(prob.blocks[1].a, cfg.r, cfg.s, cfg.delta), True),
    "classic-alm": (_one_block, classic_alm_step, support.classic_alm_reference, None, False),
    "lalm": (_one_block, lalm_step, support.lalm_reference, None, False),
    "primal-dual": (_one_block, primal_dual_step, support.primal_dual_reference, None, False),
    "admm": (_two_blocks, admm_step, support.admm_reference, None, False),
    "ladmm": (_two_blocks, ladmm_step, support.ladmm_reference, None, False),
}
# the inner FISTA solves make these steps slower; fewer examples keep the test short
SLOW = {"classic-alm", "admm", "ladmm"}


def _outcome(step, *args):
    """The step's result as the reprs of x and lambda, or its error."""
    try:
        w = step(*args)
    except BalmError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(w.x.tolist()), repr(w.lam.tolist())


MIXED = np.array([0.0, -0.0, 1e-3, -1e-3, 0.3, -0.3])


def _start(rng, prob, start: str) -> PrimalDualPoint:
    if start == "random":
        x, lam = rng.standard_normal(prob.n), rng.standard_normal(prob.m)
    elif start == "mixed":
        x, lam = rng.choice(MIXED, prob.n), rng.choice(MIXED, prob.m)
    else:
        x, lam = np.full(prob.n, float(start)), np.full(prob.m, float(start))
    return PrimalDualPoint(x, np.abs(lam) if prob.sense is Sense.INEQUALITY else lam)


def _check_step(name, kind, seed, start, zero_b, inequality, r, alpha, tiny=False) -> bool:
    """Compare the step with its reference once; False when the instance
    has a single column, which two blocks cannot share."""
    shape, step, reference, system, takes_inequality = STEPS[name]
    base = _instance(kind, seed, tiny)
    if shape is _two_blocks and base.n < 2:
        return False
    rng = np.random.default_rng(seed)
    b = np.where(rng.random(base.m) < 0.5, 0.0, base.b) if zero_b else base.b
    sense = Sense.INEQUALITY if inequality and takes_inequality else Sense.EQUALITY
    if isinstance(base, SeparableProblem):
        base = SeparableProblem(base.blocks, b, sense)
    else:
        base = Problem(base.theta, base.x_set, base.a, b, sense)
    prob = shape(base)
    cfg = build_config("balanced-alm" if name == "generalized" else name, prob, r=r, alpha=alpha)
    w = _start(rng, prob, start)
    head = (prob, cfg) if system is None else (prob, cfg, system(prob, cfg))
    assert _outcome(step, *head, w) == _outcome(reference, *head, w)
    return True


def _test_for(name):
    @settings(derandomize=True, deadline=None, max_examples=25 if name in SLOW else 120)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(0, 2**16),
        start=st.sampled_from(("0.0", "-0.0", "random", "mixed")),
        zero_b=st.booleans(),
        inequality=st.booleans(),
        r=st.sampled_from((0.5, 1.0, 2.0)),
        alpha=st.sampled_from((1.0, 1.5)),
        tiny=st.booleans(),
    )
    def check(kind, seed, start, zero_b, inequality, r, alpha, tiny):
        _check_step(name, kind, seed, start, zero_b, inequality, r, alpha, tiny)

    return check


@pytest.mark.parametrize("name", list(STEPS))
def test_public_step_matches_its_reference_formula_bit_for_bit(name):
    _test_for(name)()


@pytest.mark.parametrize("name", list(STEPS))
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("start", ["0.0", "-0.0", "mixed"])
@pytest.mark.parametrize("tiny", [False, True])
def test_every_kind_steps_like_its_reference_from_signed_zero(name, kind, start, tiny):
    """Each (method, kind, size) at least once, from +0, -0 and mixed
    signed zeros, with b's entries zeroed at random and, where accepted,
    inequality constraints."""
    if not _check_step(name, kind, 7, start, True, True, 1.0, 1.5, tiny):
        pytest.skip("a 1x1 instance has no second block")


@pytest.mark.parametrize("a", [0.65, -0.65])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_one_block_split_balanced_step_is_the_balanced_alm_step_at_signed_zeros(a, r):
    """Both take s = A(2 x_new - x) - b from the one dual half.  A 1x1 block
    can give a -0 product; with b = 0 and a -0 multiplier, a sum over the
    blocks started from zeros would turn it into +0 and flip the sign of
    the new multiplier's zero."""
    prob = Problem(L1(1.0), WholeSpace(), np.array([[a]]), np.zeros(1), Sense.EQUALITY)
    sys = build_h0(prob.a, r, 0.01)
    for x, lam in itertools.product(MIXED, repeat=2):
        w = PrimalDualPoint(np.array([x]), np.array([lam]))
        split = _outcome(split_balanced_step, _blocks(prob), SplitConfig((r,), 0.01), sys, w)
        assert split == _outcome(balanced_alm_step, prob, BalancedAlmConfig(r, 0.01), sys, w)
