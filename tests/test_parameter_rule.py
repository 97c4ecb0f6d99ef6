"""One rule for every prox weight, dual shift and tolerance: a finite
number above zero (errors.require_positive), at each of the ten sites
that take one, each raising its own exception type and naming the value;
a baseline's stepsize is finite as well as above its bound; prox refuses
a non-finite weight for every objective kind; a gap certificate with
an infinite bound does not pass; and every iteration count is an integer
of at least 1 (errors.require_count)."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from balm import bench
from balm.diagnostics import GapCertificate, vi_gap
from balm.errors import ConfigInvalid, DimensionMismatch, require_count, require_positive
from balm.multiplier import build_h0, build_h2, build_hp
from balm.problems import PrimalDualPoint, default_start
from balm.prox import L1, Linear, NonnegativeOrthant, Quadratic, SeparableSum, Zero, prox, prox_constrained
from balm.solvers import (
    AltSplitConfig, AltSplitMetric, BalancedAlmConfig, BalancedMetric, BaselineConfig, Method, SplitConfig, StopRule,
    ladmm_step, lalm_step, primal_dual_step, run,
)

BAD = [0.0, -1.0, math.nan, math.inf, -math.inf]
A1 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
A2 = np.array([[1.0, -1.0], [2.0, 0.5]])


def _site(error, build, **values):
    """A site that takes the named values: error is what it raises, build(v)
    calls it with v, and values are ones it accepts."""
    return error, build, values


SITES = {
    "BalancedAlmConfig": _site(ConfigInvalid, lambda v: BalancedAlmConfig(v["r"], v["delta"]), r=1.0, delta=0.1),
    "SplitConfig": _site(
        ConfigInvalid, lambda v: SplitConfig((v["r_list[0]"], v["r_list[1]"]), v["delta"]),
        **{"r_list[0]": 1.0, "r_list[1]": 2.0, "delta": 0.1},
    ),
    "AltSplitConfig": _site(ConfigInvalid, lambda v: AltSplitConfig(v["r"], v["s"], v["delta"]), r=1.0, s=2.0, delta=0.1),
    "BaselineConfig": _site(
        ConfigInvalid, lambda v: BaselineConfig(Method.CLASSIC_ALM, v["r"], inner_tol=v["inner_tol"]), r=1.0, inner_tol=1e-10,
    ),
    "StopRule": _site(ConfigInvalid, lambda v: StopRule(10, v["kkt_tol"]), kkt_tol=1e-8),
    "BalancedMetric": _site(
        ValueError, lambda v: BalancedMetric([A1, A1], [v["r_list[0]"], v["r_list[1]"]], v["delta"]),
        **{"r_list[0]": 1.0, "r_list[1]": 2.0, "delta": 0.1},
    ),
    "AltSplitMetric": _site(ValueError, lambda v: AltSplitMetric(A1, A2, v["r"], v["s"], v["delta"]), r=1.0, s=2.0, delta=0.1),
    "build_h0": _site(ValueError, lambda v: build_h0(A1, v["r"], v["delta"]), r=1.0, delta=0.1),
    "build_hp": _site(
        ValueError, lambda v: build_hp([(A1, v["r_list[0]"]), (A1, v["r_list[1]"])], v["delta"]),
        **{"delta": 0.1, "r_list[0]": 1.0, "r_list[1]": 2.0},
    ),
    "build_h2": _site(ValueError, lambda v: build_h2(A2, v["r"], v["s"], v["delta"]), r=1.0, s=2.0, delta=0.1),
}
CASES = [(site, name, bad) for site, (_, _, values) in SITES.items() for name in values for bad in BAD]


@pytest.mark.parametrize("site, name, bad", CASES, ids=[f"{s}-{n}-{b}" for s, n, b in CASES])
def test_each_site_refuses_a_value_that_is_not_finite_and_positive(site, name, bad):
    error, build, values = SITES[site]
    build(values)
    with pytest.raises(error) as info:
        build({**values, name: bad})
    assert type(info.value) is error
    assert str(info.value) == f"{name} = {bad} must be a finite positive number"


@pytest.mark.parametrize("site", list(SITES))
def test_each_site_names_the_first_bad_value(site):
    error, build, values = SITES[site]
    every_bad = dict.fromkeys(values, math.inf)
    with pytest.raises(error, match=f"^{re.escape(next(iter(values)))} = inf "):
        build(every_bad)


def test_require_positive_accepts_finite_positive_values_and_lists():
    require_positive(ValueError, r=1e-300, delta=1e300, r_list=(0.5, 2), empty=[])
    with pytest.raises(KeyError, match="r_list"):
        require_positive(KeyError, r=1.0, r_list=[1.0, 2.0, -0.0])


CONFIG_SCALARS = [(site, name) for site in SITES if site.endswith(("Config", "StopRule")) for name in SITES[site][2]
                  if name in ("r", "delta", "s", "inner_tol", "kkt_tol")]


@pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "str"])
@pytest.mark.parametrize("site, name", CONFIG_SCALARS, ids=[f"{s}-{n}" for s, n in CONFIG_SCALARS])
def test_each_config_scalar_refuses_a_value_that_is_not_a_real_number(site, name, bad):
    """True would run as 1 and be recorded as true, which the history
    reader refuses; "1" would fail later with a TypeError."""
    error, build, values = SITES[site]
    with pytest.raises(ConfigInvalid) as info:
        build({**values, name: bad})
    assert str(info.value) == f"{name} = {bad} must be a finite positive number"


def test_build_config_refuses_a_bool_weight():
    prob, _ = bench.generate_instance("random_qp_eq", (4, 10), 1)
    with pytest.raises(ConfigInvalid, match="^r = True "):
        bench.build_config("balanced-alm", prob, r=True)


def test_the_other_checks_keep_their_order():
    """The empty r_list, build_hp's empty block list after its delta, the
    weight count of a metric before its weights, alpha and the counts."""
    with pytest.raises(ConfigInvalid, match="r_list needs one weight per block"):
        SplitConfig((), math.inf)
    with pytest.raises(ValueError, match="^delta = inf "):
        build_hp([], math.inf)
    with pytest.raises(DimensionMismatch):
        build_hp([], 0.1)
    with pytest.raises(ValueError, match="1 prox weights for 2 blocks"):
        BalancedMetric([A1, A1], [math.inf], 0.1)
    with pytest.raises(ConfigInvalid, match="alpha must lie"):
        BalancedAlmConfig(1.0, 0.1, alpha=2.0)
    with pytest.raises(ConfigInvalid, match="^r = inf "):
        BalancedAlmConfig(math.inf, 0.1, alpha=2.0)
    with pytest.raises(ConfigInvalid, match="inner_max_iters must be at least 1"):
        BaselineConfig(Method.ADMM, 1.0, inner_max_iters=0)
    with pytest.raises(ConfigInvalid, match="^r = nan "):
        BaselineConfig(Method.ADMM, math.nan, inner_max_iters=0)
    with pytest.raises(ConfigInvalid, match="max_iters must be at least 1"):
        StopRule(0, math.inf)


STEPSIZE_CASES = [
    ("lalm", Method.LALM, "random_qp_eq", lalm_step, "sigma"),
    ("primal-dual", Method.PRIMAL_DUAL, "random_qp_eq", primal_dual_step, "r*s"),
    ("ladmm", Method.LINEARIZED_ADMM, "lasso_eq", ladmm_step, "s"),
]


@pytest.mark.parametrize("name, method, kind, step, label", STEPSIZE_CASES, ids=[c[0] for c in STEPSIZE_CASES])
def test_an_infinite_stepsize_is_refused_by_run_and_by_the_public_step(name, method, kind, step, label):
    """inf is above every bound, but a baseline stepsize must be finite too:
    primal-dual at s = inf would freeze lambda, lalm and ladmm at inf would
    freeze x or its second block."""
    prob, _ = bench.generate_instance(kind, (4, 10), 1)
    cfg = BaselineConfig(method, 1.0, math.inf)
    message = f"^{re.escape(label)} = inf must be finite and exceed "
    with pytest.raises(ConfigInvalid, match=message):
        run(prob, cfg, StopRule(5, 1e-8))
    with pytest.raises(ConfigInvalid, match=message):
        step(prob, cfg, default_start(prob))
    with pytest.raises(ConfigInvalid, match=message):
        run(prob, bench.build_config(name, prob, **{"sigma" if name == "lalm" else "s": math.inf}), StopRule(5, 1e-8))
    # the default stepsize, just above the bound, still runs
    run(prob, bench.build_config(name, prob), StopRule(5, 1e-8))


OBJECTIVES = {
    "zero": Zero(),
    "l1": L1(1.0),
    "linear": Linear(np.array([1.0, -2.0])),
    "quadratic": Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, 0.0])),
    "separable": SeparableSum((L1(0.5), Quadratic(np.array([[1.0]]), np.array([2.0])))),
}


@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf, 0.0])
@pytest.mark.parametrize("kind", list(OBJECTIVES))
def test_prox_refuses_a_weight_that_is_not_finite_and_positive(kind, r):
    """At r = inf the L1 prox used to return q and the quadratic one to fail
    its symmetry test on a nan matrix."""
    q = np.array([0.3, -1.2])
    with pytest.raises(ValueError, match=f"^prox parameter r = {r} must be a finite positive number$"):
        prox(OBJECTIVES[kind], r, q)
    if kind != "quadratic":
        with pytest.raises(ValueError, match="prox parameter r"):
            prox_constrained(OBJECTIVES[kind], NonnegativeOrthant(), r, q)
    assert np.all(np.isfinite(prox(OBJECTIVES[kind], 1e300, q)))


def _certificate(max_lhs: float, bound: float) -> GapCertificate:
    w = PrimalDualPoint(np.zeros(2), np.zeros(1))
    return GapCertificate(3, w, (w,), max_lhs, bound)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_a_gap_certificate_with_a_bound_that_is_not_finite_fails(bound):
    assert not _certificate(-0.19, bound).passes
    assert not _certificate(-math.inf, bound).passes


def test_a_gap_certificate_with_a_finite_bound_is_unchanged():
    assert _certificate(-0.19, 0.27).passes
    assert _certificate(0.27 + 5e-9, 0.27).passes
    assert not _certificate(0.28, 0.27).passes
    assert not _certificate(math.nan, 0.27).passes
    assert not _certificate(math.inf, 0.27).passes
    # probe_count = 0: no probe, nothing to fail
    assert _certificate(-math.inf, 0.0).passes


def test_vi_gap_fails_when_the_bound_overflows():
    """A start so far off that its squared H-distance overflows makes an
    infinite bound: every finite lhs lies below it, and it certifies nothing."""
    prob, _ = bench.generate_instance("random_qp_eq", (4, 10), 1)
    history = run(prob, BalancedAlmConfig(1.0, 0.1), StopRule(30, 1e-8))
    t = len(history.iterates) - 2
    assert vi_gap(prob, history, t, 20, 0).passes
    w0 = history.iterates[0]
    far = dataclasses.replace(history, iterates=[PrimalDualPoint(np.full_like(w0.x, 1e200), w0.lam)] + history.iterates[1:])
    with np.errstate(over="ignore"):
        cert = vi_gap(prob, far, t, 20, 0)
    assert cert.bound == math.inf and math.isfinite(cert.max_lhs)
    assert not cert.passes


COUNTS = {
    "StopRule": ("max_iters", lambda v: StopRule(v, 1e-8)),
    "BaselineConfig": ("inner_max_iters", lambda v: BaselineConfig(Method.ADMM, 1.0, inner_max_iters=v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 2.0, True, False, 0, -3, np.int64(0), "3"])
@pytest.mark.parametrize("site", COUNTS)
def test_an_iteration_count_that_is_not_an_integer_of_at_least_one_is_named(site, value):
    """max_iters = nan used to build and stop run after 0 steps, 2.5 to take
    2 steps, and inner_max_iters = nan or 2.5 to die in range()."""
    name, build = COUNTS[site]
    with pytest.raises(ConfigInvalid, match=f"^{name} must be at least 1 and an integer, not {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("site", COUNTS)
def test_an_iteration_count_may_be_a_numpy_integer(site):
    name, build = COUNTS[site]
    for value in (1, np.int32(7), np.int64(50_000)):
        assert getattr(build(value), name) == value


def test_a_numpy_integer_cap_runs_its_steps():
    prob, _ = bench.generate_instance("lasso_eq", (4, 10), 1)
    hist = run(prob, BaselineConfig(Method.ADMM, 1.0, inner_max_iters=np.int64(50_000)), StopRule(np.int64(3), 1e-300))
    assert len(hist) == 4
    # recorded as a Python int, which the history's JSON line can hold
    params = bench.config_params("admm", BaselineConfig(Method.ADMM, 1.0, inner_max_iters=np.int64(9)))
    assert params == {"r": 1.0, "sigma_or_s": 0.0, "sharp_bounds": False, "inner_max_iters": 9}
    assert type(params["inner_max_iters"]) is int


def test_require_count_names_the_first_bad_count():
    require_count(KeyError, a=1, b=np.uint8(200))
    with pytest.raises(KeyError, match="c must be at least 1 and an integer, not 1.0"):
        require_count(KeyError, a=1, c=1.0, d=0)


def test_a_weight_is_checked_before_the_inner_count():
    with pytest.raises(ConfigInvalid, match="^r = nan "):
        BaselineConfig(Method.ADMM, math.nan, inner_max_iters=2.5)
