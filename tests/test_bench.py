from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

from balm import cli
from balm.bench import (
    GENERATOR_KINDS,
    METHOD_NAMES,
    SOLVER_FLAGS,
    ReportRow,
    atomic_write,
    build_config,
    config_params,
    generate_instance,
    history_from_table,
    ineq_qp_reference,
    metric_for,
    parse_problem,
    read_history_table,
    read_problem,
    run_matchup,
    run_method,
    serialize_history,
    serialize_problem,
    write_history,
    write_problem,
)
from balm.diagnostics import contraction_ledger
from balm.errors import ConfigInvalid, InvalidDims, SchemaError
from balm.problems import Problem, SeparableProblem, Sense, kkt_residual
from balm.prox import Box, L1, Quadratic, WholeSpace
from balm.solvers import (
    METHODS,
    AltSplitConfig,
    BalancedAlmConfig,
    BaselineConfig,
    Method,
    SplitConfig,
    StopRule,
    alt_split_metric,
    balanced_metric,
    run,
    split_metric,
)

import support


# ---------------------------------------------------------------------------
# generators


def test_generator_kind_names():
    assert GENERATOR_KINDS == ("random_qp_eq", "basis_pursuit", "lasso_eq", "nonneg_qp_ineq")
    assert len(METHOD_NAMES) == 8


def test_random_qp_eq_scalar_canonical():
    prob, ref = generate_instance("random_qp_eq", (1, 1), seed=0)
    assert prob.sense is Sense.EQUALITY
    assert ref.x[0] == 1.0 and ref.lam[0] == 1.0
    assert kkt_residual(prob, ref).max() <= 1e-12


def test_random_qp_eq_reference_is_saddle():
    prob, ref = generate_instance("random_qp_eq", (3, 6), seed=4)
    assert kkt_residual(prob, ref).max() <= 1e-8


def test_random_qp_eq_rejects_wide():
    with pytest.raises(InvalidDims):
        generate_instance("random_qp_eq", (5, 3), seed=0)
    with pytest.raises(InvalidDims):
        generate_instance("random_qp_eq", (0, 3), seed=0)


def test_basis_pursuit_consistent_rhs():
    prob, ref = generate_instance("basis_pursuit", (3, 8), seed=1, sparsity=2)
    assert ref is None
    assert isinstance(prob.theta, L1)
    # b must be reachable: rerun the generator's draw and verify b = A x_true
    assert prob.b.shape == (3,)


def test_basis_pursuit_zero_sparsity_gives_zero_rhs():
    prob, _ = generate_instance("basis_pursuit", (3, 8), seed=1, sparsity=0)
    assert np.array_equal(prob.b, np.zeros(3))


def test_basis_pursuit_sparsity_bounds():
    with pytest.raises(InvalidDims):
        generate_instance("basis_pursuit", (3, 8), seed=1, sparsity=9)


def test_lasso_eq_structure():
    prob, ref = generate_instance("lasso_eq", (4, 10), seed=2)
    assert ref is None
    assert isinstance(prob, SeparableProblem) and len(prob.blocks) == 2
    assert isinstance(prob.blocks[0].theta, L1)
    assert isinstance(prob.blocks[1].theta, Quadratic)
    assert np.array_equal(prob.b, np.zeros(4))
    assert np.array_equal(prob.blocks[1].a, -np.eye(4))


def test_nonneg_qp_ineq_reference_certificates():
    prob, ref = generate_instance("nonneg_qp_ineq", (3, 5), seed=6)
    assert prob.sense is Sense.INEQUALITY
    slack = prob.a @ ref.x - prob.b
    assert ref.lam.min() >= 0.0
    assert slack.min() >= -1e-9
    assert abs(float(ref.lam @ slack)) <= 1e-8
    assert kkt_residual(prob, ref).max() <= 1e-7


def test_generate_deterministic_in_seed():
    a = serialize_problem(*generate_instance("random_qp_eq", (2, 4), seed=9))
    b = serialize_problem(*generate_instance("random_qp_eq", (2, 4), seed=9))
    c = serialize_problem(*generate_instance("random_qp_eq", (2, 4), seed=10))
    assert a == b
    assert a != c


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate_instance("nope", (2, 2), seed=0)


def test_ineq_qp_reference_active_worked():
    # min x^2/2 s.t. x >= 1: saddle (1, 1)
    ref = ineq_qp_reference(np.eye(1), np.zeros(1), np.eye(1), np.ones(1))
    assert ref.x[0] == pytest.approx(1.0, abs=1e-10)
    assert ref.lam[0] == pytest.approx(1.0, abs=1e-10)


def test_ineq_qp_reference_inactive_worked():
    # min x^2/2 s.t. x >= -1: saddle (0, 0), the constraint stays slack
    ref = ineq_qp_reference(np.eye(1), np.zeros(1), np.eye(1), -np.ones(1))
    assert ref.x[0] == pytest.approx(0.0, abs=1e-10)
    assert ref.lam[0] == 0.0


def test_ineq_qp_reference_random_kkt():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        p = support.random_spd(rng, n)
        c = rng.standard_normal(n)
        a = rng.standard_normal((m, n))
        b = a @ rng.standard_normal(n) + rng.standard_normal(m)
        ref = ineq_qp_reference(p, c, a, b)
        prob = Problem(Quadratic(p, c), WholeSpace(), a, b, Sense.INEQUALITY)
        assert kkt_residual(prob, ref).max() <= 1e-7


# ---------------------------------------------------------------------------
# problem files


def test_problem_roundtrip_single_block():
    prob, ref = generate_instance("random_qp_eq", (2, 4), seed=3)
    text = serialize_problem(prob, ref)
    prob2, ref2 = parse_problem(text)
    assert serialize_problem(prob2, ref2) == text
    assert np.array_equal(prob2.a, prob.a)
    assert np.array_equal(ref2.as_array(), ref.as_array())


def test_problem_roundtrip_separable():
    prob, _ = generate_instance("lasso_eq", (3, 6), seed=5)
    text = serialize_problem(prob)
    prob2, ref2 = parse_problem(text)
    assert ref2 is None
    assert serialize_problem(prob2) == text
    assert isinstance(prob2, SeparableProblem)


def test_problem_roundtrip_box_with_infinity():
    prob = Problem(
        L1(0.5),
        Box(np.array([0.0, -np.inf]), np.array([np.inf, 2.5])),
        np.eye(2),
        np.zeros(2),
        Sense.EQUALITY,
    )
    text = serialize_problem(prob)
    assert "Infinity" in text
    prob2, _ = parse_problem(text)
    assert serialize_problem(prob2) == text
    assert np.array_equal(prob2.x_set.upper, prob.x_set.upper)


def test_parse_problem_rejects_garbage():
    with pytest.raises(SchemaError):
        parse_problem("not json at all{")
    with pytest.raises(SchemaError):
        parse_problem("[1, 2]")
    with pytest.raises(SchemaError):
        parse_problem(json.dumps({"schema_version": "99"}))


def test_parse_problem_rejects_unknown_kinds():
    prob, _ = generate_instance("random_qp_eq", (1, 2), seed=0)
    doc = json.loads(serialize_problem(prob))
    doc["objective"] = {"kind": "mystery"}
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))
    doc = json.loads(serialize_problem(prob))
    doc["set"] = {"kind": "mystery"}
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))
    doc = json.loads(serialize_problem(prob))
    doc["sense"] = "maybe"
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_atomic_write_no_temp_left(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_read_problem_disk(tmp_path):
    prob, ref = generate_instance("nonneg_qp_ineq", (2, 3), seed=8)
    path = str(tmp_path / "inst.json")
    write_problem(path, prob, ref)
    prob2, ref2 = read_problem(path)
    assert np.array_equal(prob2.b, prob.b)
    assert np.array_equal(ref2.as_array(), ref.as_array())


def test_read_problem_missing_file():
    with pytest.raises(SchemaError):
        read_problem("/nonexistent/path.json")


# ---------------------------------------------------------------------------
# history tables


def _scalar_run(reference=True, alpha=1.0):
    prob, ref = generate_instance("random_qp_eq", (1, 1), seed=0)
    cfg = BalancedAlmConfig(1.0, 1.0, alpha=alpha)
    hist = run(prob, cfg, StopRule(50, 1e-10), reference=ref if reference else None)
    return prob, ref, cfg, hist


def test_history_roundtrip_bitwise(tmp_path):
    prob, ref, cfg, hist = _scalar_run()
    path = str(tmp_path / "hist.csv")
    write_history(path, hist, "balanced-alm", config_params("balanced-alm", cfg))
    meta, cols = read_history_table(path)
    assert meta["method"] == "balanced-alm"
    assert meta["n"] == 1 and meta["m"] == 1
    assert meta["converged"] is True
    assert meta["has_reference"] is True
    back = history_from_table(prob, meta, cols)
    assert len(back) == len(hist)
    for a, b in zip(back.iterates, hist.iterates):
        assert np.array_equal(a.as_array(), b.as_array())
    assert back.h_distances == hist.h_distances
    assert np.array_equal(back.metric, hist.metric)


def test_history_replay_reproduces_contraction_ledger(tmp_path):
    prob, ref, cfg, hist = _scalar_run()
    path = str(tmp_path / "hist.csv")
    write_history(path, hist, "balanced-alm", config_params("balanced-alm", cfg))
    meta, cols = read_history_table(path)
    back = history_from_table(prob, meta, cols)
    live = contraction_ledger(hist, hist.metric, ref)
    replay = contraction_ledger(back, back.metric, ref)
    assert [c.slack for c in live] == [c.slack for c in replay]


def test_history_roundtrip_predictors(tmp_path):
    prob, ref, cfg, hist = _scalar_run(alpha=1.5)
    assert hist.predictors is not None
    path = str(tmp_path / "hist.csv")
    write_history(path, hist, "balanced-alm", config_params("balanced-alm", cfg))
    meta, cols = read_history_table(path)
    assert meta["has_predictors"] is True
    back = history_from_table(prob, meta, cols)
    assert len(back.predictors) == len(hist.predictors)
    for a, b in zip(back.predictors, hist.predictors):
        assert np.array_equal(a.as_array(), b.as_array())
    live = contraction_ledger(hist, hist.metric, ref, alpha=1.5)
    replay = contraction_ledger(back, back.metric, ref, alpha=1.5)
    assert [c.slack for c in live] == [c.slack for c in replay]


@pytest.mark.parametrize("alpha", ["1.5", True, False, None, [1.5], {"value": 1.5}])
def test_history_from_table_refuses_an_alpha_that_is_not_a_number(tmp_path, alpha):
    prob, ref, cfg, hist = _scalar_run(alpha=1.5)
    path = str(tmp_path / "hist.csv")
    write_history(path, hist, "balanced-alm", config_params("balanced-alm", cfg))
    meta, cols = read_history_table(path)
    for number in (1.5, 1, 3.0):  # a number out of (0, 2) is the ledger's to refuse
        meta["params"]["alpha"] = number
        history_from_table(prob, meta, cols)
    meta["params"]["alpha"] = alpha
    with pytest.raises(SchemaError, match="is not a number"):
        history_from_table(prob, meta, cols)


def test_history_table_residuals_recomputed(tmp_path):
    prob, ref, cfg, hist = _scalar_run()
    path = str(tmp_path / "hist.csv")
    write_history(path, hist, "balanced-alm", config_params("balanced-alm", cfg))
    meta, cols = read_history_table(path)
    back = history_from_table(prob, meta, cols)
    for a, b in zip(back.residuals, hist.residuals):
        assert a.primal == pytest.approx(b.primal, abs=1e-14)
        assert a.dual == pytest.approx(b.dual, abs=1e-14)


def test_history_serialization_deterministic():
    _, _, cfg, h1 = _scalar_run()
    _, _, _, h2 = _scalar_run()
    p = config_params("balanced-alm", cfg)
    assert serialize_history(h1, "balanced-alm", p) == serialize_history(h2, "balanced-alm", p)


REPLAY_CASES = [
    (name, kind, {})
    for name, spec in METHODS.items()
    for kind in (("single", "two-block") if spec.flattens else ("two-block",))
] + [("balanced-alm", kind, {"alpha": 1.5}) for kind in ("single", "two-block")]


@pytest.mark.parametrize("name, kind, flags", REPLAY_CASES, ids=[f"{n}-{k}{'-relaxed' if f else ''}" for n, k, f in REPLAY_CASES])
def test_history_replay_roundtrip_every_method(tmp_path, name, kind, flags):
    """run -> table -> history_from_table keeps the residuals and the metric
    bit for bit; single-block methods also on a two-block instance, which
    both the run and the replay flatten."""
    rng = np.random.default_rng(17)
    if kind == "single":
        prob, ref = generate_instance("random_qp_eq", (2, 4), seed=17)
    else:
        prob, ref = support.two_block_qp(rng, 2, 2, 1)
    cfg = build_config(name, prob, **flags)
    hist = run(prob, cfg, StopRule(40, 1e-12), reference=ref)
    path = str(tmp_path / "hist.csv")
    write_history(path, hist, name, config_params(name, cfg))
    meta, cols = read_history_table(path)
    back = history_from_table(prob, meta, cols)
    assert back.residuals == hist.residuals
    for _ in range(5):
        v = rng.standard_normal(hist.metric.shape[0]) * 10.0 ** rng.uniform(-3, 3)
        assert back.metric.quad(v) == hist.metric.quad(v)
    relaxed = flags.get("alpha", 1.0) != 1.0
    assert (back.predictors is not None) == (hist.predictors is not None) == relaxed
    for a, b in zip(back.predictors or (), hist.predictors or ()):
        assert np.array_equal(a.as_array(), b.as_array())


def test_read_history_table_rejects_bad_files(tmp_path):
    no_meta = tmp_path / "a.csv"
    no_meta.write_text("k,primal\n0,1.0\n")
    with pytest.raises(SchemaError):
        read_history_table(str(no_meta))
    ragged = tmp_path / "b.csv"
    ragged.write_text('# {"schema": 1}\nk,primal\n0,1.0,9.9\n')
    with pytest.raises(SchemaError):
        read_history_table(str(ragged))
    with pytest.raises(SchemaError):
        read_history_table(str(tmp_path / "missing.csv"))


def test_metric_for_all_methods():
    prob, _ = generate_instance("random_qp_eq", (2, 3), seed=1)
    sep, _ = generate_instance("lasso_eq", (2, 3), seed=1)
    assert np.array_equal(
        metric_for("balanced-alm", {"r": 1.5, "delta": 0.2}, prob),
        balanced_metric(prob.a, 1.5, 0.2),
    )
    assert np.array_equal(
        metric_for("split-balanced", {"r_list": [1.0, 2.0], "delta": 0.2}, sep),
        split_metric([blk.a for blk in sep.blocks], [1.0, 2.0], 0.2),
    )
    assert np.array_equal(
        metric_for("alt-split", {"r": 1.0, "s": 2.0, "delta": 0.2}, sep),
        alt_split_metric(sep.blocks[0].a, sep.blocks[1].a, 1.0, 2.0, 0.2),
    )
    assert np.array_equal(metric_for("classic-alm", {}, prob), np.eye(prob.n + prob.m))


# ---------------------------------------------------------------------------
# config factory


def test_build_config_stepsize_default_needs_no_n_by_n_gram():
    # A is 200 x 2000 (3.2 MB); the 2000 x 2000 Gram would take 32 MB
    prob, _ = generate_instance("basis_pursuit", (200, 2000), seed=1)
    tracemalloc.start()
    try:
        build_config("primal-dual", prob)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 2.0, peak_mb


def test_build_config_each_name():
    prob, _ = generate_instance("random_qp_eq", (2, 3), seed=2)
    sep, _ = generate_instance("lasso_eq", (2, 3), seed=2)
    assert isinstance(build_config("balanced-alm", prob, r=2.0, alpha=1.5), BalancedAlmConfig)
    cfg = build_config("split-balanced", sep, r=1.5)
    assert isinstance(cfg, SplitConfig) and cfg.r_list == (1.5, 1.5)
    cfg = build_config("split-balanced", sep, r_list=(1.0, 3.0))
    assert cfg.r_list == (1.0, 3.0)
    cfg = build_config("alt-split", sep, r=2.0)
    assert isinstance(cfg, AltSplitConfig) and cfg.s == 2.0
    assert build_config("classic-alm", prob).method is Method.CLASSIC_ALM
    cfg = build_config("lalm", prob, r=2.0)
    assert cfg.sigma_or_s == pytest.approx(1.01 * 2.0 * prob.gram_norm)
    cfg = build_config("primal-dual", prob, r=2.0)
    assert cfg.sigma_or_s == pytest.approx(1.01 * prob.gram_norm / 2.0)
    cfg = build_config("ladmm", sep, r=1.5)
    assert cfg.sigma_or_s == pytest.approx(1.01 * 1.5 * sep.block_gram_norms[1])
    assert build_config("admm", sep).method is Method.ADMM


def test_build_config_default_stepsizes_run():
    """The auto defaults must satisfy each method's validity check."""
    prob, ref = generate_instance("random_qp_eq", (2, 3), seed=7)
    stop = StopRule(20_000, 1e-7)
    for name in ("lalm", "primal-dual"):
        hist = run(prob, build_config(name, prob), stop)
        assert hist.converged, name


def test_build_config_rejections():
    prob, _ = generate_instance("random_qp_eq", (2, 3), seed=2)
    with pytest.raises(ConfigInvalid):
        build_config("split-balanced", prob)
    with pytest.raises(ConfigInvalid):
        build_config("ladmm", prob)
    with pytest.raises(ValueError):
        build_config("no-such-method", prob)


def test_build_config_names_each_unknown_flag():
    prob, _ = generate_instance("random_qp_eq", (2, 3), seed=2)
    with pytest.raises(TypeError, match="unknown solver flags: rr$"):
        build_config("balanced-alm", prob, rr=2.0)
    with pytest.raises(TypeError, match="unknown solver flags: rr, tol$"):
        build_config("balanced-alm", prob, r=2.0, tol=1e-8, rr=2.0)


def test_solver_flags_hold_the_documented_defaults():
    assert SOLVER_FLAGS == {"r": 1.0, "delta": 0.01, "alpha": 1.0, "s": None, "sigma": None, "r_list": None,
                            "sharp_bounds": False, "inner_tol": 1e-10, "inner_max_iters": 50_000}


def test_config_params_carry_metric_inputs():
    prob, _ = generate_instance("random_qp_eq", (2, 3), seed=2)
    sep, _ = generate_instance("lasso_eq", (2, 3), seed=2)
    p = config_params("balanced-alm", build_config("balanced-alm", prob, r=2.0, delta=0.3, alpha=1.2))
    assert p == {"r": 2.0, "delta": 0.3, "alpha": 1.2}
    p = config_params("split-balanced", build_config("split-balanced", sep, r_list=(1.0, 2.0), delta=0.3))
    assert p == {"r_list": [1.0, 2.0], "delta": 0.3}
    p = config_params("alt-split", build_config("alt-split", sep, r=1.0, s=2.0, delta=0.3))
    assert p == {"r": 1.0, "s": 2.0, "delta": 0.3}
    p = config_params("lalm", build_config("lalm", prob, sigma=5.0))
    assert p["sigma_or_s"] == 5.0


def test_config_params_refuse_another_methods_config():
    """A name that does not match the config's method is refused, naming
    both, instead of recording the config's own method's parameters."""
    prob, _ = generate_instance("random_qp_eq", (2, 3), seed=2)
    with pytest.raises(ValueError, match="'admm'.*'balanced-alm'"):
        config_params("admm", build_config("balanced-alm", prob))


# ---------------------------------------------------------------------------
# matchup runner


def test_report_row_lines():
    ok = ReportRow(method="balanced-alm", status="converged", iterations=12, primal=1e-9, dual=2e-9, complementarity=0.0, objective=1.5, wall_time=0.01, history_path="h.csv")
    line = ok.line()
    assert "method=balanced-alm" in line and "status=converged" in line and "iterations=12" in line
    err = ReportRow(method="x", status="error", error="boom")
    assert "status=error" in err.line() and "boom" in err.line()


def test_run_matchup_single_block(tmp_path):
    prob, ref = generate_instance("random_qp_eq", (2, 4), seed=11)
    ppath = str(tmp_path / "p.json")
    write_problem(ppath, prob, ref)
    report = str(tmp_path / "report.txt")
    rows = run_matchup(
        ppath,
        ["balanced-alm", "classic-alm", "lalm", "primal-dual", "bogus"],
        StopRule(50_000, 1e-8),
        report,
        delta=0.1,
    )
    by_name = {row.method: row for row in rows}
    for name in ("balanced-alm", "classic-alm", "lalm", "primal-dual"):
        assert by_name[name].status == "converged", name
        assert os.path.exists(by_name[name].history_path)
    assert by_name["bogus"].status == "error"
    text = open(report).read()
    assert text.startswith("# matchup schema=1")
    assert "method=bogus status=error" in text


@pytest.mark.parametrize("name", ["balanced-alm", "lalm"])
def test_run_method_gives_the_matchup_row_and_history(tmp_path, name):
    ppath, report = str(tmp_path / "p.json"), str(tmp_path / "report.txt")
    write_problem(ppath, *generate_instance("random_qp_eq", (2, 4), seed=11))
    stop = StopRule(50_000, 1e-8)
    (matched,) = run_matchup(ppath, [name], stop, report, delta=0.1)
    prob, ref = read_problem(ppath)
    hpath = str(tmp_path / "h.csv")
    row = run_method(name, prob, stop, ref, hpath, delta=0.1)
    assert (row.summary(), row.history_path, row.error) == (matched.summary(), hpath, None)
    with open(hpath) as got, open(matched.history_path) as want:
        assert got.read() == want.read()
    unrecorded = run_method(name, prob, stop, ref, delta=0.1)
    assert (unrecorded.summary(), unrecorded.history_path) == (row.summary(), None)


def test_run_matchup_objectives_agree(tmp_path):
    prob, ref = generate_instance("random_qp_eq", (2, 4), seed=12)
    ppath = str(tmp_path / "p.json")
    write_problem(ppath, prob, ref)
    rows = run_matchup(
        ppath,
        ["balanced-alm", "classic-alm"],
        StopRule(50_000, 1e-9),
        str(tmp_path / "r.txt"),
        delta=0.1,
    )
    assert abs(rows[0].objective - rows[1].objective) <= 1e-6 * (1.0 + abs(rows[0].objective))


def test_run_matchup_two_block(tmp_path):
    prob, _ = generate_instance("lasso_eq", (3, 5), seed=13)
    ppath = str(tmp_path / "p.json")
    write_problem(ppath, prob)
    rows = run_matchup(
        ppath,
        ["split-balanced", "admm", "ladmm", "alt-split"],
        StopRule(20_000, 1e-6),
        str(tmp_path / "r.txt"),
        delta=0.1,
    )
    by_name = {row.method: row for row in rows}
    for name in ("split-balanced", "admm", "ladmm"):
        assert by_name[name].status == "converged", name
    # the first lasso block is nonsmooth, which this variant cannot take
    assert by_name["alt-split"].status == "error"


# ---------------------------------------------------------------------------
# command line


def test_cli_generate_and_solve(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    assert cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath]) == 0
    assert os.path.exists(ppath)
    hpath = str(tmp_path / "h.csv")
    code = cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--history", hpath])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=converged" in out
    assert os.path.exists(hpath)


def test_cli_solve_non_convergence_exit(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    code = cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--max-iters", "2", "--tol", "1e-12"])
    assert code == 1
    assert "status=max-iters" in capsys.readouterr().out


def test_cli_solve_split_with_r_list(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "lasso_eq", "--m", "2", "--n", "4", "--seed", "5", "--out", ppath])
    code = cli.main(["solve", "--problem", ppath, "--method", "split-balanced", "--r-list", "1.0,2.0", "--tol", "1e-6"])
    assert code == 0
    assert "status=converged" in capsys.readouterr().out


def test_cli_bad_method_choice_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--problem", "x.json", "--method", "nope"])
    assert exc.value.code == 2


def test_cli_missing_problem_exits_three(tmp_path, capsys):
    code = cli.main(["solve", "--problem", str(tmp_path / "none.json"), "--method", "balanced-alm"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_exits_two(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    code = cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--alpha", "2.5"])
    assert code == 2


def test_cli_matchup(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    rpath = str(tmp_path / "report.txt")
    code = cli.main(["matchup", "--problem", ppath, "--methods", "balanced-alm,lalm", "--report", rpath, "--delta", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert os.path.exists(rpath)
    assert out.count("status=converged") == 2


def test_cli_certify_passes(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    hpath = str(tmp_path / "h.csv")
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--history", hpath])
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction,gap", "--probes", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "contraction: PASS" in out
    assert "gap: PASS" in out


@pytest.mark.parametrize("kind, m, n, projected", [("random_qp_eq", 2, 4, 0), ("nonneg_qp_ineq", 30, 60, 5)])
def test_cli_certify_reports_projected_probes(tmp_path, capsys, kind, m, n, projected):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", kind, "--m", str(m), "--n", str(n), "--seed", "1", "--out", ppath])
    hpath = str(tmp_path / "h.csv")
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--history", hpath])
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "gap", "--probes", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gap: PASS" in out
    assert f"projected={projected})" in out


def test_cli_certify_detects_corruption(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    hpath = str(tmp_path / "h.csv")
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--history", hpath])
    lines = open(hpath).read().splitlines()
    col = lines[1].split(",").index("x_0")
    mid = len(lines) // 2
    parts = lines[mid].split(",")
    parts[col] = repr(float(parts[col]) + 100.0)  # push one x coordinate far off the trajectory
    lines[mid] = ",".join(parts)
    with open(hpath, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction"])
    out = capsys.readouterr().out
    assert code == 1
    assert "contraction: FAIL" in out


def test_cli_certify_unknown_check_exits_two(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "1", "--n", "1", "--out", ppath])
    hpath = str(tmp_path / "h.csv")
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--history", hpath])
    assert cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "vibes"]) == 2


def test_cli_certify_external_reference(tmp_path, capsys):
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    _, ref = read_problem(ppath)
    refpath = str(tmp_path / "ref.json")
    with open(refpath, "w") as fh:
        json.dump({"x": ref.x.tolist(), "lambda": ref.lam.tolist()}, fh)
    hpath = str(tmp_path / "h.csv")
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--history", hpath])
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction", "--reference", refpath])
    assert code == 0
    assert "contraction: PASS" in capsys.readouterr().out


def _solved_instance(tmp_path, capsys):
    """A problem file with its reference, and a balanced-alm history of it."""
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    hpath = str(tmp_path / "h.csv")
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--history", hpath])
    capsys.readouterr()
    return ppath, hpath


def _assert_io_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "reference",
    [
        {"x": [0.0] * 4},
        {"lambda": [0.0] * 2},
        {"x": [0.0] * 3, "lambda": [0.0] * 2},
        {"x": [0.0] * 4, "lambda": [0.0]},
        [1.0],
    ],
)
def test_cli_solve_malformed_embedded_reference_exits_three(tmp_path, capsys, reference):
    ppath, _ = _solved_instance(tmp_path, capsys)
    doc = json.loads(open(ppath).read())
    doc["reference"] = reference
    with open(ppath, "w") as fh:
        json.dump(doc, fh)
    _assert_io_error(cli.main(["solve", "--problem", ppath, "--method", "balanced-alm"]), capsys)


@pytest.mark.parametrize(
    "text",
    [
        '{"x": [0, 0, 0, 0]}',
        "not json{",
        '{"x": [0, 0, 0], "lambda": [0, 0]}',
        '{"x": [0, 0, 0, 0], "lambda": [0, 0, 0]}',
        "[0]",
    ],
)
def test_cli_certify_malformed_reference_file_exits_three(tmp_path, capsys, text):
    ppath, hpath = _solved_instance(tmp_path, capsys)
    refpath = str(tmp_path / "ref.json")
    with open(refpath, "w") as fh:
        fh.write(text)
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction", "--reference", refpath])
    _assert_io_error(code, capsys)


def _drop_meta(key):
    def edit(lines):
        meta = json.loads(lines[0][2:])
        del meta[key]
        return ["# " + json.dumps(meta, sort_keys=True)] + lines[1:]

    return edit


def _set_meta(key, value):
    def edit(lines):
        meta = json.loads(lines[0][2:])
        meta[key] = value
        return ["# " + json.dumps(meta, sort_keys=True)] + lines[1:]

    return edit


def _drop_column(name):
    def edit(lines):
        col = lines[1].split(",").index(name)
        return [lines[0]] + [",".join(p for i, p in enumerate(ln.split(",")) if i != col) for ln in lines[1:]]

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop_meta("n"),
        _drop_meta("m"),
        _drop_meta("method"),
        _drop_meta("params"),
        _set_meta("n", 5),
        _set_meta("params", [1.0]),
        _set_meta("params", {"delta": 0.1, "alpha": 1.0}),
        _drop_column("k"),
        _drop_column("step_h"),
        _drop_column("x_2"),
        _drop_column("lam_1"),
        _set_meta("method", "nope"),
        _set_meta("params", {"r": -1.0, "delta": 0.1, "alpha": 1.0}),
        lambda lines: ["# [1]"] + lines[1:],
        lambda lines: lines[:2],
        lambda lines: lines[:2] + ["0,abc" + lines[2][2:]] + lines[3:],
    ],
    ids=[
        "no-n", "no-m", "no-method", "no-params", "wrong-n", "params-list", "params-no-r",
        "no-k", "no-step_h", "no-x_2", "no-lam_1", "unknown-method", "params-negative-r", "meta-list", "no-rows",
        "bad-cell",
    ],
)
def test_cli_certify_malformed_history_exits_three(tmp_path, capsys, edit):
    ppath, hpath = _solved_instance(tmp_path, capsys)
    lines = open(hpath).read().splitlines()
    with open(hpath, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction,gap", "--probes", "5"])
    _assert_io_error(code, capsys)


def test_cli_certify_relaxed_history_without_predictor_columns_exits_three(tmp_path, capsys):
    ppath, _ = _solved_instance(tmp_path, capsys)
    hpath = str(tmp_path / "relaxed.csv")
    cli.main(
        ["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--alpha", "1.5", "--history", hpath]
    )
    lines = open(hpath).read().splitlines()
    with open(hpath, "w") as fh:
        fh.write("\n".join(_drop_column("plam_0")(lines)) + "\n")
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction"])
    _assert_io_error(code, capsys)
