"""The CLI's refusals of requests that would check nothing, and the one
summary line that balm solve and the matchup report share."""

from __future__ import annotations

import argparse
import json
import warnings

import numpy as np
import pytest

from balm import bench, cli
from balm.solvers import StopRule, run

import support


@pytest.fixture
def solved(tmp_path, capsys):
    """A problem file and the history of a balanced-alm run on it."""
    ppath, hpath = str(tmp_path / "p.json"), str(tmp_path / "h.csv")
    assert cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath]) == 0
    assert cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--delta", "0.1", "--history", hpath]) == 0
    capsys.readouterr()
    return ppath, hpath


@pytest.mark.parametrize("probes", ["0", "-5"])
def test_certify_gap_without_probes_exits_two(solved, capsys, probes):
    ppath, hpath = solved
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "gap", "--probes", probes])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert "PASS" not in out and "--probes must be at least 1" in err


@pytest.mark.parametrize("check", ["", ",", ",,"])
def test_certify_with_no_check_exits_two(solved, capsys, check):
    ppath, hpath = solved
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", check])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert out == "" and "names no check" in err


@pytest.mark.parametrize("methods", ["", ","])
def test_matchup_with_no_method_exits_two_and_writes_no_report(solved, tmp_path, capsys, methods):
    ppath, _ = solved
    rpath = tmp_path / "report.txt"
    code = cli.main(["matchup", "--problem", ppath, "--methods", methods, "--report", str(rpath)])
    assert code == cli.EXIT_BAD_CONFIG
    assert "no method to run" in capsys.readouterr().err
    assert not rpath.exists()


@pytest.mark.parametrize(
    "kind, method",
    [("random_qp_eq", "balanced-alm"), ("random_qp_eq", "lalm"), ("lasso_eq", "split-balanced"), ("lasso_eq", "admm")],
)
def test_solve_prints_the_prefix_of_the_matchup_report_row(tmp_path, capsys, kind, method):
    ppath, rpath = str(tmp_path / "p.json"), str(tmp_path / "report.txt")
    cli.main(["generate", "--kind", kind, "--m", "3", "--n", "6", "--seed", "2", "--out", ppath])
    flags = ["--problem", ppath, "--tol", "1e-6", "--max-iters", "400"]
    capsys.readouterr()
    cli.main(["solve", "--method", method] + flags)
    solve_line = capsys.readouterr().out.strip()
    cli.main(["matchup", "--methods", method, "--report", rpath] + flags)
    with open(rpath) as fh:
        header, row = fh.read().splitlines()
    assert header.startswith("# matchup") and solve_line.startswith(f"method={method} status=")
    assert row.startswith(solve_line + " wall_time=")


def test_solver_flags_forward_only_what_is_given():
    """bench.build_config's keyword defaults are the only ones: a solver
    flag left out is not forwarded, and the stop rule keeps its own."""
    base = ["solve", "--problem", "p.json", "--method", "split-balanced"]
    args = cli._parser().parse_args(base)
    assert cli._flags(args) == {}
    assert (args.tol, args.max_iters) == (1e-8, 100_000)
    args = cli._parser().parse_args(base + ["--r", "2", "--r-list", "1,2.5", "--sharp-bounds", "--inner-max-iters", "7"])
    assert cli._flags(args) == {"r": 2.0, "r_list": (1.0, 2.5), "sharp_bounds": True, "inner_max_iters": 7}


def test_the_solver_flags_are_the_keys_of_the_flag_table():
    """solve and matchup offer one option per SOLVER_FLAGS key, and _flags forwards each."""
    parser = cli._parser()
    (commands,) = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    for command in ("solve", "matchup"):
        dests = {a.dest for a in commands[command]._actions if a.default is argparse.SUPPRESS and a.dest != "help"}
        assert dests == set(bench.SOLVER_FLAGS), command
    every = ["--r", "2", "--delta", "0.1", "--alpha", "1.5", "--s", "3", "--sigma", "4", "--r-list", "1,2",
             "--sharp-bounds", "--inner-tol", "1e-9", "--inner-max-iters", "7"]
    args = parser.parse_args(["solve", "--problem", "p.json", "--method", "lalm"] + every)
    assert cli._flags(args).keys() == bench.SOLVER_FLAGS.keys()


@pytest.mark.parametrize("alpha", [3.0, -1.0])
def test_certify_contraction_refuses_a_recorded_alpha_outside_zero_two(tmp_path, capsys, alpha):
    """A relaxed history whose recorded alpha is edited out of (0, 2) exits 2
    instead of passing every slack; the unedited history passes."""
    ppath, hpath, edited = (str(tmp_path / name) for name in ("qp.json", "relaxed.csv", "edited.csv"))
    assert cli.main(["generate", "--kind", "random_qp_eq", "--m", "4", "--n", "10", "--seed", "1", "--out", ppath]) == 0
    assert cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--alpha", "1.5", "--history", hpath]) == 0
    certify = ["certify", "--problem", ppath, "--check", "contraction", "--history"]
    assert cli.main(certify + [hpath]) == cli.EXIT_OK
    with open(hpath) as fh:
        first, rest = fh.read().split("\n", 1)
    meta = json.loads(first[2:])
    meta["params"]["alpha"] = alpha
    with open(edited, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n" + rest)
    capsys.readouterr()
    code = cli.main(certify + [edited])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert out == "" and "alpha must lie in the open interval (0, 2)" in err


@pytest.mark.parametrize("alpha", ["1.5", True, None, [1.5]])
def test_certify_contraction_refuses_a_recorded_alpha_that_is_not_a_number(tmp_path, capsys, alpha):
    """A recorded alpha that is not an int or float is a bad history file,
    exit 3, where it used to crash the ledger with a TypeError."""
    ppath, hpath, edited = (str(tmp_path / name) for name in ("qp.json", "relaxed.csv", "edited.csv"))
    assert cli.main(["generate", "--kind", "random_qp_eq", "--m", "4", "--n", "10", "--seed", "1", "--out", ppath]) == 0
    assert cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--alpha", "1.5", "--history", hpath]) == 0
    with open(hpath) as fh:
        first, rest = fh.read().split("\n", 1)
    meta = json.loads(first[2:])
    meta["params"]["alpha"] = alpha
    with open(edited, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n" + rest)
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--check", "contraction", "--history", edited])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and f"history alpha={alpha!r} is not a number" in err


@pytest.fixture
def qp(tmp_path, capsys):
    """random_qp_eq 4x10 seed 1, whose start is 1.72 from feasible."""
    ppath = str(tmp_path / "qp.json")
    assert cli.main(["generate", "--kind", "random_qp_eq", "--m", "4", "--n", "10", "--seed", "1", "--out", ppath]) == 0
    capsys.readouterr()
    return ppath


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--method", "balanced-alm", "--tol", "inf"], "kkt_tol = inf must be a finite positive number"),
        (["--method", "primal-dual", "--s", "inf"], "r*s = inf must be finite and exceed"),
        (["--method", "balanced-alm", "--r", "inf"], "r = inf must be a finite positive number"),
        (["--method", "balanced-alm", "--delta", "nan"], "delta = nan must be a finite positive number"),
        (["--method", "lalm", "--sigma", "inf"], "sigma = inf must be finite and exceed"),
    ],
    ids=["tol", "primal-dual-s", "r", "delta", "lalm-sigma"],
)
def test_solve_refuses_a_parameter_that_is_not_finite_and_positive(qp, capsys, flags, named):
    """--tol inf used to report status=converged at iteration 0, primal-dual's
    --s inf to run every step with lambda frozen and --r inf to fail on a nan
    matrix; each is now a bad configuration that names the parameter, exit 2."""
    code = cli.main(["solve", "--problem", qp, "--max-iters", "50"] + flags)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert out == "" and err.startswith(f"error: {named}")


def test_solve_refuses_an_infinite_block_weight(tmp_path, capsys):
    ppath = str(tmp_path / "lasso.json")
    assert cli.main(["generate", "--kind", "lasso_eq", "--m", "6", "--n", "12", "--seed", "1", "--out", ppath]) == 0
    capsys.readouterr()
    code = cli.main(["solve", "--problem", ppath, "--method", "split-balanced", "--r-list", "1,inf"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert out == "" and err.startswith("error: r_list[1] = inf must be a finite positive number")


@pytest.mark.parametrize("delta", [float("inf"), float("nan"), float("-inf")])
def test_certify_gap_refuses_a_recorded_delta_that_is_not_finite(qp, tmp_path, capsys, delta):
    """A relaxed history whose recorded delta is edited to Infinity used to
    certify gap: PASS with bound=inf; every non-finite delta is a bad history
    file, exit 3, while the unedited history passes."""
    hpath, edited = str(tmp_path / "relaxed.csv"), str(tmp_path / "edited.csv")
    assert cli.main(["solve", "--problem", qp, "--method", "balanced-alm", "--alpha", "1.5", "--history", hpath]) == 0
    certify = ["certify", "--problem", qp, "--check", "gap", "--history"]
    assert cli.main(certify + [hpath]) == cli.EXIT_OK
    with open(hpath) as fh:
        first, rest = fh.read().split("\n", 1)
    meta = json.loads(first[2:])
    meta["params"]["delta"] = delta
    with open(edited, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n" + rest)
    capsys.readouterr()
    code = cli.main(certify + [edited])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and f"delta = {delta} must be a finite positive number" in err


@pytest.mark.parametrize(
    "method, flags, named",
    [
        ("balanced-alm", ["--r", "1e-320"], "r = 1e-320"),
        ("split-balanced", ["--r-list", "1e-320,1"], "r_list[0] = 1e-320, r_list[1] = 1.0"),
        ("alt-split", ["--r", "1e-320", "--s", "1"], "r = 1e-320, s = 1.0"),
    ],
)
def test_solve_names_a_weight_whose_reciprocal_overflows(tmp_path, capsys, method, flags, named):
    """--r 1e-320 used to print two numpy RuntimeWarnings and "matrix is not
    symmetric"; the weight is now named, with no warning, exit 2."""
    ppath = str(tmp_path / "p.json")
    if method == "alt-split":
        bench.write_problem(ppath, *support.two_block_qp(np.random.default_rng(1), 4, 3, 3))
    else:
        kind = "random_qp_eq" if method == "balanced-alm" else "lasso_eq"
        assert cli.main(["generate", "--kind", kind, "--m", "4", "--n", "10", "--seed", "1", "--out", ppath]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--problem", ppath, "--method", method] + flags)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert out == "" and err.startswith(f"error: the dual metric overflows at {named}:")


def test_solve_exits_three_on_a_quadratic_that_is_not_semidefinite(qp, capsys):
    """P with p[0][0] = -1 fails the Quadratic's PSD screen, a factor of
    P + 1e-10 I: a bad problem file, exit 3, naming the pivot's column."""
    with open(qp) as fh:
        doc = json.load(fh)
    doc["objective"]["p"][0][0] = -1.0
    with open(qp, "w") as fh:
        json.dump(doc, fh)
    code = cli.main(["solve", "--problem", qp, "--method", "balanced-alm"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and "at column 0" in err


def test_a_classic_alm_history_records_an_inner_tol_that_is_not_the_default(qp, tmp_path, capsys):
    """The FISTA baselines record inner_tol and inner_max_iters in params only
    away from BaselineConfig's defaults: a default history keeps its bytes,
    and one run at --inner-tol 1e-9 carries the key and replays."""
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("default", "spelled", "tight")}
    solve = ["solve", "--problem", qp, "--method", "classic-alm", "--history"]
    assert cli.main(solve + [paths["default"]]) == 0
    assert cli.main(solve + [paths["spelled"], "--inner-tol", "1e-10", "--inner-max-iters", "50000"]) == 0
    assert cli.main(solve + [paths["tight"], "--inner-tol", "1e-9"]) == 0
    capsys.readouterr()
    text = {name: open(path).read() for name, path in paths.items()}
    prob, reference = bench.read_problem(qp)
    hist = run(prob, bench.build_config("classic-alm", prob), StopRule(100_000, 1e-8), reference=reference)
    old = bench.serialize_history(hist, "classic-alm", {"r": 1.0, "sigma_or_s": 0.0, "sharp_bounds": False})
    assert text["default"] == text["spelled"] == old
    meta, cols = bench.read_history_table(paths["tight"])
    assert meta["params"] == {"r": 1.0, "sigma_or_s": 0.0, "sharp_bounds": False, "inner_tol": 1e-9}
    replay = bench.history_from_table(prob, meta, cols)
    assert len(replay) == len(cols["k"]) and replay.converged
    # a certificate's verdict, not a refused file (exit 3)
    code = cli.main(["certify", "--problem", qp, "--history", paths["tight"], "--check", "contraction"])
    assert code in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)


def test_solve_exits_one_when_the_inner_solver_hits_its_cap(qp, capsys):
    """classic-alm's FISTA at --inner-max-iters 1 stops short: NoConvergence, exit 1."""
    code = cli.main(["solve", "--problem", qp, "--method", "classic-alm", "--inner-max-iters", "1"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NO_CONVERGENCE
    assert out == "" and err == "error: inner solver exceeded 1 iterations\n"


def test_certify_refuses_a_history_whose_method_does_not_fit_the_problem(qp, tmp_path, capsys):
    """A one-block history relabelled as alt-split, a two-block method, is
    a bad history file, exit 3, not an IndexError out of its metric."""
    hpath, edited = str(tmp_path / "h.csv"), str(tmp_path / "edited.csv")
    assert cli.main(["solve", "--problem", qp, "--method", "balanced-alm", "--history", hpath]) == 0
    with open(hpath) as fh:
        first, rest = fh.read().split("\n", 1)
    meta = json.loads(first[2:])
    meta.update(method="alt-split", params={"r": 1.0, "s": 1.0, "delta": 0.01})
    with open(edited, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n" + rest)
    capsys.readouterr()
    code = cli.main(["certify", "--problem", qp, "--history", edited, "--check", "contraction"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and "IndexError" in err


@pytest.mark.parametrize("check", ["contraction", "gap"])
def test_certify_refuses_a_history_with_no_step(qp, tmp_path, capsys, check):
    """With c, b and the reference zero the start is the saddle point, so
    the run converges at iteration 0 and records one iterate: there is no
    step to certify, exit 2, from either check."""
    zero, hpath = str(tmp_path / "zero.json"), str(tmp_path / "zero.csv")
    with open(qp) as fh:
        doc = json.load(fh)
    doc["objective"]["c"] = [0.0] * len(doc["objective"]["c"])
    doc["b"] = [0.0] * len(doc["b"])
    doc["reference"] = {key: [0.0] * len(value) for key, value in doc["reference"].items()}
    with open(zero, "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["solve", "--problem", zero, "--method", "balanced-alm", "--history", hpath]) == 0
    assert "iterations=0" in capsys.readouterr().out
    code = cli.main(["certify", "--problem", zero, "--history", hpath, "--check", check])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_CONFIG
    assert out == "" and "the history records no step" in err


def _edit_meta(src: str, dst: str, edit) -> None:
    """Copy the history table src to dst with edit applied to its metadata."""
    with open(src) as fh:
        first, rest = fh.read().split("\n", 1)
    meta = json.loads(first[2:])
    edit(meta)
    with open(dst, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n" + rest)


@pytest.mark.parametrize("name, value", [("r", [1.0]), ("delta", [1.0]), ("r", True)])
def test_certify_refuses_a_recorded_weight_that_is_not_a_number(qp, tmp_path, capsys, name, value):
    """A recorded r or delta of [1.0] used to end certify in a TypeError
    traceback, and an r of true to certify PASS, exit 0, as the weight 1;
    each is a bad history file, exit 3."""
    hpath, edited = str(tmp_path / "h.csv"), str(tmp_path / "edited.csv")
    assert cli.main(["solve", "--problem", qp, "--method", "balanced-alm", "--history", hpath]) == 0
    certify = ["certify", "--problem", qp, "--check", "contraction,gap", "--history"]
    assert cli.main(certify + [hpath]) == cli.EXIT_OK
    _edit_meta(hpath, edited, lambda meta: meta["params"].update({name: value}))
    capsys.readouterr()
    code = cli.main(certify + [edited])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and f"history {name}={value!r} is not a number" in err


def test_certify_refuses_an_alt_split_history_replayed_on_three_blocks(tmp_path, capsys):
    """alt-split's history on the two-block QP, replayed on the same QP with
    block 1 cut in two, builds its metric from blocks 0 and 1 only, over 9
    of the 10 coordinates: it used to stop in the ledger, exit 2, and is a
    history that does not fit the problem, exit 3."""
    two, three, hpath = (str(tmp_path / name) for name in ("two.json", "three.json", "alt.csv"))
    prob, reference = support.two_block_qp(np.random.default_rng(1), 4, 3, 3)
    bench.write_problem(two, prob, reference)
    bench.write_problem(three, support.split_second_block(prob, 2), reference)
    assert cli.main(["solve", "--problem", two, "--method", "alt-split", "--history", hpath]) == 0
    certify = ["certify", "--history", hpath, "--check", "contraction", "--problem"]
    assert cli.main(certify + [two]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(certify + [three])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and "builds a metric of shape (9, 9) on this problem, not (10, 10)" in err


@pytest.mark.parametrize("schema", ["x", 2, None])
def test_certify_refuses_a_history_schema_other_than_one(solved, tmp_path, capsys, schema):
    """A history whose schema key is edited, or deleted (None), used to
    certify PASS; only serialize_history's schema 1 is read, else exit 3."""
    ppath, hpath = solved
    edited = str(tmp_path / "edited.csv")
    _edit_meta(hpath, edited, lambda meta: meta.pop("schema") if schema is None else meta.update(schema=schema))
    code = cli.main(["certify", "--problem", ppath, "--history", edited, "--check", "contraction,gap"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and f"history schema={schema!r} is not 1" in err
