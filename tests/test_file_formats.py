"""The two file formats, each declared once in balm.bench: problem files
(one kind table per spec family, decoded through the spec constructors)
and history tables (one column layout, which the header must match)."""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balm import cli
from balm.bench import generate_instance, parse_problem, read_history_table, serialize_problem
from balm.errors import SchemaError
from balm.problems import Block, PrimalDualPoint, Problem, SeparableProblem, Sense
from balm.prox import L1, Box, Linear, NonnegativeOrthant, Quadratic, SeparableSum, WholeSpace, Zero
from balm.solvers import BalancedMetric

OBJECTIVE_KINDS = ("zero", "l1", "quadratic", "linear", "separable_sum")
SET_KINDS = ("whole_space", "nonnegative_orthant", "box")
PART_KINDS = ("zero", "l1", "quadratic", "linear")
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEG = st.floats(min_value=0.0, allow_infinity=False)


def _vector(data, size: int, elements=FINITE) -> np.ndarray:
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)


def _objective(data, kind: str, n: int):
    """An objective of the file kind on n coordinates; a separable sum
    has every part kind once, then n - 4 parts of drawn kinds."""
    if kind == "zero":
        return Zero()
    if kind == "l1":
        return L1(data.draw(NONNEG))
    if kind == "linear":
        return Linear(_vector(data, n))
    if kind == "quadratic":
        g = _vector(data, n * n, st.floats(-10.0, 10.0)).reshape(n, n)
        return Quadratic(g @ g.T + np.diag(_vector(data, n, st.floats(1.0, 1e6))), _vector(data, n))
    kinds = PART_KINDS + tuple(data.draw(st.lists(st.sampled_from(PART_KINDS), min_size=n - 4, max_size=n - 4)))
    return SeparableSum(tuple(_objective(data, part, 1) for part in kinds))


def _set(data, kind: str, n: int):
    if kind == "whole_space":
        return WholeSpace()
    if kind == "nonnegative_orthant":
        return NonnegativeOrthant()
    lower = _vector(data, n, st.one_of(st.just(-np.inf), FINITE))
    return Box(lower, np.maximum(lower, _vector(data, n, st.one_of(st.just(np.inf), FINITE))))


def _block(data, objective_kind: str, set_kind: str, m: int) -> Block:
    n = data.draw(st.integers(4, 6) if objective_kind == "separable_sum" else st.integers(1, 3))
    return Block(_objective(data, objective_kind, n), _set(data, set_kind, n), _vector(data, m * n).reshape(m, n))


@pytest.mark.parametrize("layout", ["one-block", "separable"])
@pytest.mark.parametrize("set_kind", SET_KINDS)
@pytest.mark.parametrize("objective_kind", OBJECTIVE_KINDS)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_problem_file_round_trips_byte_for_byte(objective_kind, set_kind, layout, data):
    """Every objective and set kind, its fields drawn over the whole float
    range (ties, subnormals, -0.0, infinite box sides), in the first block
    of a one-block or a separable file."""
    m = data.draw(st.integers(1, 3))
    blocks = [_block(data, objective_kind, set_kind, m)]
    if layout == "separable":
        for _ in range(data.draw(st.integers(1, 2))):
            kinds = data.draw(st.sampled_from(OBJECTIVE_KINDS)), data.draw(st.sampled_from(SET_KINDS))
            blocks.append(_block(data, *kinds, m))
    b, sense = _vector(data, m), data.draw(st.sampled_from(Sense))
    if layout == "one-block":
        prob = Problem(blocks[0].theta, blocks[0].x_set, blocks[0].a, b, sense)
    else:
        prob = SeparableProblem(tuple(blocks), b, sense)
    n = sum(blk.n for blk in blocks)
    ref = PrimalDualPoint(_vector(data, n), _vector(data, m)) if data.draw(st.booleans()) else None
    text = serialize_problem(prob, ref)
    assert serialize_problem(*parse_problem(text)) == text


def _qp_doc() -> dict:
    prob, ref = generate_instance("random_qp_eq", (1, 2), seed=0)
    return json.loads(serialize_problem(prob, ref))


def _lasso_doc() -> dict:
    prob, _ = generate_instance("lasso_eq", (2, 3), seed=0)
    return json.loads(serialize_problem(prob))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["objective"].update(weight=1.0),
        lambda doc: doc["objective"].update(_factors={}),
        lambda doc: doc["objective"].pop("c"),
        lambda doc: doc.update(objective={"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}),
        lambda doc: doc.update(objective={"kind": "mystery"}),
        lambda doc: doc.update(set={"kind": "l1", "weight": 1.0}),
        lambda doc: doc["set"].update(lower=[0.0, 0.0]),
        lambda doc: doc.update(objective={"kind": "separable_sum", "parts": [{"kind": "zero"}] * 2, "_groups": None}),
        lambda doc: doc.update(objective={"kind": "separable_sum", "parts": [{"kind": "whole_space"}] * 2}),
        lambda doc: doc.update(objective={"kind": "l1", "weight": [1.0]}),
    ],
    ids=[
        "unknown-key", "private-key", "missing-field", "set-kind-as-objective", "unknown-kind",
        "objective-kind-as-set", "whole-space-with-bounds", "separable-sum-groups", "set-kind-as-part",
        "l1-weight-list",
    ],
)
def test_problem_codec_rejects_a_spec_its_kind_table_does_not_declare(edit):
    doc = _qp_doc()
    edit(doc)
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_problem_codec_checks_every_block_of_a_separable_file():
    doc = _lasso_doc()
    doc["blocks"][1]["set"]["_extra"] = 0.0
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_problem_codec_decodes_l1_weight_as_a_float():
    doc = _lasso_doc()
    doc["blocks"][0]["objective"]["weight"] = 2
    prob, _ = parse_problem(json.dumps(doc))
    assert type(prob.blocks[0].theta.weight) is float
    assert '"weight": 2.0' in serialize_problem(prob)


# ---------------------------------------------------------------------------
# malformed problem files exit 3 through the CLI


def _rewrite_problem(path: str, edit) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["b"].append(0.0),
        lambda doc: doc.update(a=doc["a"][0]),
        lambda doc: doc["objective"].update(c=doc["objective"]["c"][:-1]),
        lambda doc: doc["objective"].update(p=(-np.eye(len(doc["objective"]["c"]))).tolist()),
        lambda doc: doc.update(blocks=[]),
    ],
    ids=["long-b", "1-d-a", "short-c", "negative-definite-p", "no-blocks"],
)
def test_cli_solve_inconsistent_problem_file_exits_three(tmp_path, capsys, edit):
    """The constructors' DimensionMismatch and NotPositiveDefinite are a
    file-format fault here, not a configuration one."""
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "2", "--n", "4", "--seed", "3", "--out", ppath])
    _rewrite_problem(ppath, edit)
    capsys.readouterr()
    code = cli.main(["solve", "--problem", ppath, "--method", "balanced-alm"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_IO
    assert err.startswith("error: bad problem file:") and "Traceback" not in err


def _cut_objective_to(width: int):
    def edit(doc):
        doc["objective"].update(c=doc["objective"]["c"][:width], p=[row[:width] for row in doc["objective"]["p"][:width]])
    return edit


@pytest.mark.parametrize(
    "edit",
    [_cut_objective_to(9), lambda doc: doc.update(set={"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3})],
    ids=["objective-of-9", "box-of-3"],
)
def test_cli_a_problem_file_whose_block_misfits_its_columns_exits_three(tmp_path, capsys, edit):
    """random_qp_eq 4x10 seed 1 with p and c cut to 9, or a box of length
    3, used to fail mid-run: balm solve exited 2 and balm matchup exited 0
    with an error row.  Each is now a bad problem file, refused at read."""
    ppath, report = str(tmp_path / "p.json"), str(tmp_path / "m.md")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "4", "--n", "10", "--seed", "1", "--out", ppath])
    _rewrite_problem(ppath, edit)
    capsys.readouterr()
    for command in (["solve", "--method", "balanced-alm"], ["matchup", "--methods", "balanced-alm", "--report", report]):
        code = cli.main(command + ["--problem", ppath])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_BAD_IO and out == ""
        assert err.startswith("error: bad problem file: vector shape (10,) does not match")
    assert not os.path.exists(report)


def _first_c(spec: dict, value: float) -> None:
    spec.update(c=[value] + spec["c"][1:])


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("random_qp_eq", lambda doc: _first_c(doc["objective"], float("nan"))),
        ("random_qp_eq", lambda doc: _first_c(doc["objective"], float("inf"))),
        ("random_qp_eq", lambda doc: _first_c(doc["objective"], float("-inf"))),
        ("random_qp_eq", lambda doc: doc.update(objective={
            "kind": "separable_sum", "parts": [{"kind": "linear", "c": [float("nan")]}] + [{"kind": "zero"}] * 9})),
        ("basis_pursuit", lambda doc: doc["objective"].update(weight=float("inf"))),
        ("lasso_eq", lambda doc: doc["blocks"][0]["objective"].update(weight=float("inf"))),
        ("lasso_eq", lambda doc: _first_c(doc["blocks"][1]["objective"], float("nan"))),
    ],
    ids=["c-nan", "c-inf", "c-minus-inf", "separable-part-nan", "l1-weight-inf", "block-weight-inf", "block-c-nan"],
)
def test_cli_solve_a_problem_file_of_non_finite_coefficients_exits_three(tmp_path, capsys, kind, edit):
    """A NaN in c used to print status=max-iters iterations=0 ... dual=nan
    and exit 1; a non-finite coefficient is now refused as a non-finite a
    or b is, exit 3, with no numpy warning on the way."""
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", kind, "--m", "4", "--n", "10", "--seed", "1", "--out", ppath])
    _rewrite_problem(ppath, edit)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--problem", ppath, "--method", "split-balanced" if kind == "lasso_eq" else "balanced-alm"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO and out == ""
    assert err == "error: bad problem file: objective has non-finite coefficients\n"


_INF = float("inf")


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("random_qp_eq", lambda doc: doc["objective"].update(p=doc["objective"]["p"][:9]), "P must be square"),
        ("random_qp_eq", lambda doc: doc.update(objective={"kind": "linear", "c": [[1.0] * 10]}), "c must be a vector"),
        ("random_qp_eq", lambda doc: doc.update(objective={"kind": "separable_sum", "parts": [
            {"kind": "separable_sum", "parts": [{"kind": "zero"}]}] + [{"kind": "zero"}] * 9}), "unsupported part"),
        ("random_qp_eq", lambda doc: doc.update(objective={"kind": "separable_sum", "parts": [
            {"kind": "linear", "c": [1.0, 2.0]}] + [{"kind": "zero"}] * 9}), "separable parts must be scalar"),
        ("random_qp_eq", lambda doc: doc.update(set={"kind": "box", "lower": [0.0] * 10, "upper": [1.0] * 9}),
         "box bounds must be vectors of equal length"),
        ("basis_pursuit", lambda doc: doc.update(set={
            "kind": "box", "lower": [-_INF] * 9 + [_INF], "upper": [_INF] * 10}), "box has no feasible point"),
        ("random_qp_eq", lambda doc: doc.update(set={"kind": "box", "lower": [_INF] * 10, "upper": [_INF] * 10}),
         "box has no feasible point"),
        ("random_qp_eq", lambda doc: doc.update(set={"kind": "box", "lower": [-_INF] * 10, "upper": [-_INF] * 10}),
         "box has no feasible point"),
    ],
    ids=["non-square-p", "linear-c-matrix", "nested-separable-sum", "non-scalar-part", "box-bounds-unequal",
         "box-lower-inf-at-9", "box-all-inf", "box-upper-minus-inf"],
)
def test_cli_solve_a_problem_file_that_its_classes_refuse_exits_three(tmp_path, capsys, kind, edit, message):
    """Each spec class's own check refuses these at read, exit 3.  An
    empty box (a lower bound of +inf, an upper one of -inf) used to be
    read: basis_pursuit 4x10 seed 1 with coordinate 9's box [inf, inf]
    warned from matvec_rows, printed status=max-iters iterations=0 and
    exited 1, and random_qp_eq with an all-inf box exited 2."""
    ppath = str(tmp_path / "p.json")
    cli.main(["generate", "--kind", kind, "--m", "4", "--n", "10", "--seed", "1", "--out", ppath])
    _rewrite_problem(ppath, edit)
    with pytest.raises(SchemaError, match=message):
        parse_problem((tmp_path / "p.json").read_text())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--problem", ppath, "--method", "balanced-alm"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO and out == ""
    assert err.startswith(f"error: bad problem file: {message}")


def _nan_x(doc):
    doc["reference"]["x"] = [float("nan")] * len(doc["reference"]["x"])


def _nan_x0(doc):
    doc["reference"]["x"][0] = float("nan")


def _inf_lambda(doc):
    doc["reference"]["lambda"][-1] = _INF


@pytest.mark.parametrize("edit", [_nan_x, _nan_x0, _inf_lambda], ids=["x-all-nan", "x0-nan", "lambda-inf"])
def test_cli_an_embedded_reference_of_non_finite_entries_exits_three(tmp_path, capsys, edit):
    """random_qp_eq 4x10 seed 1 with reference.x all NaN used to solve
    (exit 0) and then fail its contraction certificate with min
    slack=nan (exit 1); the reference is now refused at read, exit 3."""
    ppath, hpath = str(tmp_path / "p.json"), str(tmp_path / "h.csv")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "4", "--n", "10", "--seed", "1", "--out", ppath])
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--history", hpath])
    _rewrite_problem(ppath, edit)
    capsys.readouterr()
    commands = (["solve", "--method", "balanced-alm"], ["certify", "--history", hpath, "--check", "contraction"])
    for command in commands:
        code = cli.main(command + ["--problem", ppath])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_BAD_IO and out == ""
        assert err == "error: reference has non-finite entries\n"


@pytest.mark.parametrize("key", ["x", "lambda"])
@pytest.mark.parametrize("value", [float("nan"), _INF, -_INF], ids=["nan", "inf", "minus-inf"])
def test_cli_certify_a_reference_file_of_non_finite_entries_exits_three(tmp_path, capsys, key, value):
    """A --reference file whose lambda is Infinity used to fail the
    contraction certificate (exit 1); it is now a bad file, exit 3."""
    ppath, hpath = str(tmp_path / "p.json"), str(tmp_path / "h.csv")
    cli.main(["generate", "--kind", "random_qp_eq", "--m", "4", "--n", "10", "--seed", "1", "--out", ppath])
    cli.main(["solve", "--problem", ppath, "--method", "balanced-alm", "--history", hpath])
    ref = json.loads((tmp_path / "p.json").read_text())["reference"]
    ref[key][-1] = value
    refpath = str(tmp_path / "ref.json")
    with open(refpath, "w") as fh:
        json.dump(ref, fh)
    capsys.readouterr()
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction", "--reference", refpath])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO and out == ""
    assert err == "error: reference has non-finite entries\n"


# ---------------------------------------------------------------------------
# history tables


def _history(tmp_path, capsys, *flags, kind="random_qp_eq", dims=("2", "4"), method="balanced-alm"):
    """A problem file (seed 3) and the history of a run on it."""
    ppath, hpath = str(tmp_path / "p.json"), str(tmp_path / "h.csv")
    cli.main(["generate", "--kind", kind, "--m", dims[0], "--n", dims[1], "--seed", "3", "--out", ppath])
    cli.main(["solve", "--problem", ppath, "--method", method, "--history", hpath, *flags])
    capsys.readouterr()
    return ppath, hpath


def _edit_table(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _drop_dist_h(lines):
    col = lines[1].split(",").index("dist_h")
    return [lines[0]] + [",".join(p for i, p in enumerate(ln.split(",")) if i != col) for ln in lines[1:]]


def _swap_x0_x1(lines):
    names = lines[1].split(",")
    i, j = names.index("x_0"), names.index("x_1")
    names[i], names[j] = names[j], names[i]
    return [lines[0], ",".join(names)] + lines[2:]


def _extra_column(lines):
    return [lines[0], lines[1] + ",extra"] + [ln + ",0.0" for ln in lines[2:]]


@pytest.mark.parametrize("edit", [_drop_dist_h, _swap_x0_x1, _extra_column], ids=["no-dist_h", "x0-x1-swapped", "extra"])
def test_cli_certify_history_header_off_its_metadata_exits_three(tmp_path, capsys, edit):
    """A header that is not the one layout of the metadata's n, m,
    has_reference and has_predictors is refused, not read by name."""
    ppath, hpath = _history(tmp_path, capsys)
    _edit_table(hpath, edit)
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BAD_IO
    assert err.startswith("error: history header") and "Traceback" not in err


def test_read_history_table_gives_float_columns_of_one_matrix(tmp_path, capsys):
    _, hpath = _history(tmp_path, capsys, "--alpha", "1.5")
    meta, cols = read_history_table(hpath)
    assert meta["has_predictors"] is True
    assert list(cols)[-1] == "plam_1"
    assert all(isinstance(col, np.ndarray) and col.dtype == float for col in cols.values())
    assert len({id(col.base) for col in cols.values()}) == 1
    assert cols["k"].tolist() == list(range(len(cols["k"])))


def test_read_history_table_rejects_a_repeated_column_name(tmp_path, capsys):
    _, hpath = _history(tmp_path, capsys)
    _edit_table(hpath, lambda lines: [lines[0], lines[1].replace("dual,", "primal,", 1)] + lines[2:])
    with pytest.raises(SchemaError):
        read_history_table(hpath)


@pytest.mark.parametrize("r_list", [[1.0], [1.0, 1.0, 5.0]])
def test_cli_certify_split_history_whose_weights_miss_the_blocks_exits_three(tmp_path, capsys, r_list):
    """A metric of fewer weights than blocks used to drop a block silently."""
    ppath, hpath = _history(tmp_path, capsys, kind="lasso_eq", dims=("6", "12"), method="split-balanced")

    def edit(lines):
        meta = json.loads(lines[0][2:])
        meta["params"]["r_list"] = r_list
        return ["# " + json.dumps(meta, sort_keys=True)] + lines[1:]

    _edit_table(hpath, edit)
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "gap", "--probes", "20"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert "PASS" not in out and "prox weights for 2 blocks" in err


def test_balanced_metric_needs_one_weight_per_block():
    a_list = [np.ones((2, 3)), -np.eye(2)]
    for r_list in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="prox weights for 2 blocks"):
            BalancedMetric(a_list, r_list, 0.1)
    assert BalancedMetric(a_list, [1.0, 2.0], 0.1).dense().shape == (7, 7)


def test_cli_certify_history_whose_metadata_line_is_not_json_exits_three(tmp_path, capsys):
    ppath, hpath = _history(tmp_path, capsys)
    _edit_table(hpath, lambda lines: ["# {not json"] + lines[1:])
    with pytest.raises(SchemaError, match="bad metadata line"):
        read_history_table(hpath)
    code = cli.main(["certify", "--problem", ppath, "--history", hpath, "--check", "contraction"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_IO
    assert out == "" and err.startswith("error: bad metadata line:")
