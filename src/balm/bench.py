"""Instance generators, file formats, and the benchmark matchup runner.

Problem files are canonical JSON (sorted keys, two-space indent); floats
serialize through repr, the shortest decimal that reparses to the same
bit pattern, so parse-then-serialize is the identity on canonical files.
Each objective and set is {"kind": ...} plus the public dataclass fields
of its prox class, looked up in one kind table per family
(_OBJECTIVE_KINDS, _SET_KINDS); decoding calls the class, whose
__post_init__ checks the fields, and any error in building the problem
is a SchemaError.

History tables are CSV with a single JSON metadata comment up front and
carry full iterates, so every certificate can be replayed offline.  Their
header is _history_columns of the metadata's n, m, has_reference and
has_predictors: serialize_history writes it and history_from_table
refuses any other.

The method helpers (METHOD_NAMES, build_config, config_params,
metric_for and history_from_table's flatten rule) each read one row of
solvers.METHODS.  SOLVER_FLAGS is the one table of solver flags and
their defaults: build_config merges it, and the CLI forwards only its
keys.  run_method is the one path that solves and records a run, for
balm solve and for each method of a matchup.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import BalmError, ConfigInvalid, InvalidDims, SchemaError
from .linalg import Metric, cholesky_factor, solve_spd
from .multiplier import MultiplierSystem, solve_lcp
from .problems import Block, PrimalDualPoint, Problem, Sense, SeparableProblem, kkt_residual, total_objective
from .prox import Box, L1, Linear, NonnegativeOrthant, Quadratic, SeparableSum, WholeSpace, Zero
from .solvers import METHODS, MethodSpec, RunHistory, StopRule, run

SCHEMA_VERSION = "1"
METHOD_NAMES = tuple(METHODS)


# ---------------------------------------------------------------------------
# instance generators


def generate_instance(kind: str, dims: tuple, seed: int, sparsity: int | None = None):
    """Build a named random instance; returns (problem, reference) where
    reference is a saddle point when one is computed with the instance."""
    m, n = dims
    if m < 1 or n < 1:
        raise InvalidDims(f"dims must be positive, got {dims}")
    if kind not in _GENERATORS:
        raise ValueError(f"unknown instance kind {kind!r}")
    return _GENERATORS[kind](m, n, np.random.default_rng(seed), sparsity)


def _random_qp(kind: str, m: int, n: int, rng) -> tuple:
    """(P, c, A) of a random QP, drawn in that order: P = G G^T / n + I / 2
    from a Gaussian factor G, then c and A Gaussian."""
    if m > n:
        raise InvalidDims(f"{kind} needs m <= n for full-row-rank constraints")
    g = rng.standard_normal((n, n))
    p = g @ g.T / n + 0.5 * np.eye(n)
    return 0.5 * (p + p.T), rng.standard_normal(n), rng.standard_normal((m, n))


def _eq_qp_solve(p: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """(x, lam) of min 0.5 x'Px + c'x s.t. A x = b, read off its KKT system."""
    n, m = p.shape[0], a.shape[0]
    sol = np.linalg.solve(np.block([[p, -a.T], [a, np.zeros((m, m))]]), np.concatenate([-c, b]))
    return sol[:n], sol[n:]


def _random_qp_eq(m: int, n: int, rng, _sparsity):
    """Equality QP with its saddle point read off the KKT system."""
    if m == 1 and n == 1:
        # canonical scalar instance: min x^2/2 subject to x = 1
        prob = Problem(Quadratic(np.eye(1), np.zeros(1)), WholeSpace(), np.eye(1), np.ones(1), Sense.EQUALITY)
        return prob, PrimalDualPoint(np.ones(1), np.ones(1))
    p, c, a = _random_qp("random_qp_eq", m, n, rng)
    b = rng.standard_normal(m)
    prob = Problem(Quadratic(p, c), WholeSpace(), a, b, Sense.EQUALITY)
    return prob, PrimalDualPoint(*_eq_qp_solve(p, c, a, b))


def _sparse_vector(n: int, k: int, rng) -> np.ndarray:
    """k nonzero entries at random places, each of magnitude about 1 or more."""
    if not 0 <= k <= n:
        raise InvalidDims(f"sparsity {k} outside [0, {n}]")
    x = np.zeros(n)
    if k:
        support = rng.choice(n, size=k, replace=False)
        x[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
    return x


def _basis_pursuit(m: int, n: int, rng, sparsity):
    if m > n:
        raise InvalidDims("basis_pursuit needs m <= n")
    a = rng.standard_normal((m, n))
    x_true = _sparse_vector(n, max(1, m // 4) if sparsity is None else sparsity, rng)
    prob = Problem(L1(1.0), WholeSpace(), a, a @ x_true, Sense.EQUALITY)
    return prob, None


def _lasso_eq(m: int, n: int, rng, sparsity):
    """Lasso in two-block form: min gamma||x||_1 + 0.5||y - d||^2
    subject to A x - y = 0."""
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    x_true = _sparse_vector(n, max(1, n // 10) if sparsity is None else sparsity, rng)
    d = a @ x_true + 0.05 * rng.standard_normal(m)
    gamma = 0.1 * float(np.max(np.abs(a.T @ d)))
    blocks = (
        Block(L1(gamma), WholeSpace(), a),
        Block(Quadratic(np.eye(m), -d), WholeSpace(), -np.eye(m)),
    )
    return SeparableProblem(blocks, np.zeros(m), Sense.EQUALITY), None


def _nonneg_qp_ineq(m: int, n: int, rng, _sparsity):
    p, c, a = _random_qp("nonneg_qp_ineq", m, n, rng)
    b = a @ rng.standard_normal(n) + rng.standard_normal(m)
    prob = Problem(Quadratic(p, c), WholeSpace(), a, b, Sense.INEQUALITY)
    return prob, ineq_qp_reference(p, c, a, b)


# each builder takes (m, n, rng, sparsity); the two QPs have no sparsity
_GENERATORS = {
    "random_qp_eq": _random_qp_eq,
    "basis_pursuit": _basis_pursuit,
    "lasso_eq": _lasso_eq,
    "nonneg_qp_ineq": _nonneg_qp_ineq,
}
GENERATOR_KINDS = tuple(_GENERATORS)


def ineq_qp_reference(p: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> PrimalDualPoint:
    """Saddle point of min 0.5 x'Px + c'x s.t. A x >= b (P positive
    definite, A full row rank).

    Reduces to the dual linear complementarity problem in lam with
    matrix A P^-1 A^T, solves it with solve_lcp at a tight tolerance
    (active-set Newton steps from lam = 0, projected Gauss-Seidel if
    they do not certify), then polishes by re-solving the equality KKT
    system on the identified active set.
    """
    m = a.shape[0]
    p_factor = cholesky_factor(p)
    pinv_at = np.column_stack([solve_spd(p_factor, a[i]) for i in range(m)])
    dual_mat = a @ pinv_at
    dual_mat = 0.5 * (dual_mat + dual_mat.T)
    q = -(a @ solve_spd(p_factor, c)) - b
    sys = MultiplierSystem(h=dual_mat, factor=cholesky_factor(dual_mat))
    lam = solve_lcp(sys, np.zeros(m), q, tol=1e-12, max_sweeps=200_000)
    x = solve_spd(p_factor, a.T @ lam - c)
    active = np.flatnonzero(lam > 1e-9)
    if active.size:
        x_pol, lam_active = _eq_qp_solve(p, c, a[active], b[active])
        lam_pol = np.zeros(m)
        lam_pol[active] = lam_active
        slack = a @ x_pol - b
        if np.all(lam_pol >= -1e-12) and np.all(slack >= -1e-11 * (1.0 + np.abs(b))):
            return PrimalDualPoint(x_pol, np.maximum(lam_pol, 0.0))
    return PrimalDualPoint(x, lam)


# ---------------------------------------------------------------------------
# problem files


# A spec is {"kind": ...} plus its class's public dataclass fields; the
# class's __post_init__ checks and coerces what a file gives it.
_OBJECTIVE_KINDS = {"zero": Zero, "l1": L1, "quadratic": Quadratic, "linear": Linear, "separable_sum": SeparableSum}
_SET_KINDS = {"whole_space": WholeSpace, "nonnegative_orthant": NonnegativeOrthant, "box": Box}
_KIND_OF = {cls: kind for kinds in (_OBJECTIVE_KINDS, _SET_KINDS) for kind, cls in kinds.items()}


def _spec_fields(cls) -> list:
    return [f.name for f in fields(cls) if not f.name.startswith("_")]


def _encode_spec(spec) -> dict:
    """Numbers and arrays go out through tolist, a tuple of specs as a list of encoded specs."""
    if type(spec) not in _KIND_OF:
        raise SchemaError(f"cannot encode {type(spec).__name__}")
    doc = {"kind": _KIND_OF[type(spec)]}
    for name in _spec_fields(type(spec)):
        value = getattr(spec, name)
        doc[name] = [_encode_spec(part) for part in value] if isinstance(value, tuple) else np.asarray(value).tolist()
    return doc


def _decode_spec(doc, kinds: dict):
    """The spec of one of kinds' classes that doc encodes; a list of JSON
    objects decodes as a tuple of specs from the same table."""
    if doc["kind"] not in kinds:
        raise SchemaError(f"unknown kind {doc['kind']!r}, expected one of {', '.join(kinds)}")
    cls = kinds[doc["kind"]]
    names = _spec_fields(cls)
    if doc.keys() != {"kind", *names}:
        raise SchemaError(f"{doc['kind']} takes the keys kind, {', '.join(names)}; got {', '.join(sorted(doc))}")
    args = {name: doc[name] for name in names}
    for name, value in args.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            args[name] = tuple(_decode_spec(part, kinds) for part in value)
    return cls(**args)


def _encode_block(blk) -> dict:
    return {"objective": _encode_spec(blk.theta), "set": _encode_spec(blk.x_set), "a": blk.a.tolist()}


def _decode_block(doc) -> tuple:
    """(theta, x_set, a) of one block's entries, for a Block or a Problem."""
    objective, x_set = _decode_spec(doc["objective"], _OBJECTIVE_KINDS), _decode_spec(doc["set"], _SET_KINDS)
    return objective, x_set, np.array(doc["a"], dtype=float)


def serialize_problem(prob, reference: PrimalDualPoint | None = None) -> str:
    """A one-block problem keeps objective, set and a at the top level; a SeparableProblem, per block."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "sense": prob.sense.value,
        "b": prob.b.tolist(),
        "reference": None if reference is None else {"x": reference.x.tolist(), "lambda": reference.lam.tolist()},
    }
    if isinstance(prob, SeparableProblem):
        doc.update(objective=None, set=None, a=None, blocks=[_encode_block(blk) for blk in prob.blocks])
    else:
        doc.update(_encode_block(prob), blocks=None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_json(text: str, phrase: str):
    """The JSON value of text; a syntax error is a SchemaError led by phrase."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{phrase}: {exc}") from exc


def parse_problem(text: str):
    doc = _parse_json(text, "not valid JSON")
    if not isinstance(doc, dict):
        raise SchemaError("problem file must hold a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    try:
        sense = Sense(doc["sense"])
        b = np.array(doc["b"], dtype=float)
        if doc.get("blocks") is not None:
            prob = SeparableProblem(tuple(Block(*_decode_block(blk)) for blk in doc["blocks"]), b, sense)
        else:
            prob = Problem(*_decode_block(doc), b, sense)
        # every term of theta(0) is a coefficient times zero, so it is
        # finite exactly when each coefficient is (a and b are checked already)
        with np.errstate(invalid="ignore"):
            if not math.isfinite(total_objective(prob, np.zeros(prob.n))):
                raise ValueError("objective has non-finite coefficients")
    except (KeyError, TypeError, ValueError, BalmError) as exc:
        # the constructors' DimensionMismatch and NotPositiveDefinite included
        raise SchemaError(f"bad problem file: {exc}") from exc
    ref_doc = doc.get("reference")
    return prob, None if ref_doc is None else _decode_reference(ref_doc, prob)


def _decode_reference(doc, prob) -> PrimalDualPoint:
    """The point {"x": [...], "lambda": [...]} of a problem file or a
    reference file, checked against prob's dimensions.  Every entry must
    be finite: a NaN or infinite reference certifies nothing."""
    try:
        ref = PrimalDualPoint(np.array(doc["x"], dtype=float), np.array(doc["lambda"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad reference entry: {exc!r}") from exc
    if ref.x.shape != (prob.n,) or ref.lam.shape != (prob.m,):
        raise SchemaError(f"reference has shapes {ref.x.shape}/{ref.lam.shape}, expected ({prob.n},)/({prob.m},)")
    if not (np.all(np.isfinite(ref.x)) and np.all(np.isfinite(ref.lam))):
        raise SchemaError("reference has non-finite entries")
    return ref


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_problem(path: str, prob, reference: PrimalDualPoint | None = None) -> None:
    atomic_write(path, serialize_problem(prob, reference))


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def read_problem(path: str):
    return parse_problem(_read_text(path))


def read_reference(path: str, prob) -> PrimalDualPoint:
    """A reference point for prob from its own JSON file."""
    return _decode_reference(_parse_json(_read_text(path), "reference file is not valid JSON"), prob)


# ---------------------------------------------------------------------------
# history tables


def _history_columns(n: int, m: int, has_reference: bool, has_predictors: bool) -> list:
    """The one header of a history table: k, the KKT residual components,
    step_h, dist_h when a reference is known, the iterate, and for a
    relaxed run the predictor."""
    cols = ["k", "primal", "dual", "complementarity", "step_h"] + (["dist_h"] if has_reference else [])
    cols += [f"x_{i}" for i in range(n)] + [f"lam_{j}" for j in range(m)]
    if has_predictors:
        cols += [f"px_{i}" for i in range(n)] + [f"plam_{j}" for j in range(m)]
    return cols


def serialize_history(history: RunHistory, method: str, params: dict) -> str:
    n = history.iterates[0].x.size
    m = history.iterates[0].lam.size
    has_reference, has_predictors = history.h_distances is not None, history.predictors is not None
    meta = {"schema": 1, "method": method, "params": params, "n": n, "m": m, "converged": history.converged,
            "has_reference": has_reference, "has_predictors": has_predictors}
    lines = ["# " + json.dumps(meta, sort_keys=True), ",".join(_history_columns(n, m, has_reference, has_predictors))]
    for k, (w, res) in enumerate(zip(history.iterates, history.residuals)):
        parts = [[res.primal, res.dual, res.complementarity, history.successive_h_steps[k]]]
        if has_reference:
            parts.append([history.h_distances[k]])
        parts += [w.x, w.lam]
        if has_predictors:
            # predictors lead the iterate list by one step; pad the first row
            pred = history.predictors[k - 1] if k >= 1 else history.iterates[0]
            parts += [pred.x, pred.lam]
        # tolist gives Python floats, whose repr is the shortest round-trip form
        lines.append(f"{k}," + ",".join(map(repr, np.concatenate(parts).tolist())))
    return "\n".join(lines) + "\n"


def write_history(path: str, history: RunHistory, method: str, params: dict) -> None:
    atomic_write(path, serialize_history(history, method, params))


def read_history_table(path: str):
    """Parse a history table into (meta, {name: column}), each column a
    float array; all of them are views of one matrix, filled row by row.
    A missing metadata line, a repeated column name, a ragged row or a
    cell that is not a float raises SchemaError.  The header is checked
    against the metadata by history_from_table."""
    lines = _read_text(path).splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise SchemaError("history table is missing its metadata line")
    meta = _parse_json(lines[0][2:], "bad metadata line")
    names = lines[1].split(",")
    rows = [ln for ln in lines[2:] if ln]
    table = np.empty((len(rows), len(names)))
    try:
        for i, ln in enumerate(rows):
            cells = ln.split(",")
            if len(cells) != len(names):
                raise SchemaError("ragged history table row")
            # one row of strings at a time: all of them at once would outweigh the floats
            table[i] = cells
    except ValueError as exc:
        raise SchemaError(f"bad history table cell: {exc}") from exc
    cols = dict(zip(names, table.T))
    if len(cols) != len(names):
        raise SchemaError("history table repeats a column name")
    return meta, cols


def _method(name: str) -> MethodSpec:
    try:
        return METHODS[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r}") from None


def metric_for(method: str, params: dict, prob) -> Metric:
    """Rebuild the metric a run used, from its recorded parameters."""
    spec = _method(method)
    return spec.metric(spec.problem(prob), params)


def history_from_table(prob, meta: dict, cols: dict) -> RunHistory:
    """Reconstruct a RunHistory (iterates, predictors, metric) from a
    parsed table.  The residuals are recomputed from the iterates by one
    kkt_residual call on the stack of them, each equal to the residual of
    its iterate alone.  The header must be the one the metadata's n, m,
    has_reference and has_predictors give.  A table raises SchemaError
    when it: records a schema other than the 1 that serialize_history
    writes; lacks a field; has another header; does not fit prob; records
    an alpha, r, delta, s or sigma_or_s that is not an int or float, or
    an r_list that is not a list of them (a bool is not a number); or
    records a method or params whose metric cannot be built on prob (a
    two-block method over one block, say) or is not of prob's dimension
    n + m (alt-split's, over three blocks)."""
    if not isinstance(meta, dict) or not {"n", "m", "method", "params"} <= meta.keys():
        raise SchemaError("history metadata needs n, m, method and params")
    schema = meta.get("schema")
    if not (type(schema) is int and schema == 1):
        raise SchemaError(f"history schema={schema!r} is not 1")
    n, m, params = meta["n"], meta["m"], meta["params"]
    if not (type(n) is type(m) is int and (n, m) == (prob.n, prob.m) and isinstance(params, dict)):
        raise SchemaError(f"history n={n!r}, m={m!r}, params={params!r} do not fit the problem's n={prob.n}, m={prob.m}")
    for name in ("alpha", "r", "delta", "s", "sigma_or_s"):
        if name in params and type(params[name]) not in (int, float):  # bool and str are not numbers
            raise SchemaError(f"history {name}={params[name]!r} is not a number")
    r_list = params.get("r_list", [])
    if type(r_list) is not list or any(type(r) not in (int, float) for r in r_list):
        raise SchemaError(f"history r_list={r_list!r} is not a list of numbers")
    has_reference, has_predictors = bool(meta.get("has_reference")), bool(meta.get("has_predictors"))
    header = _history_columns(n, m, has_reference, has_predictors)
    if list(cols) != header:
        raise SchemaError(f"history header is not the one of n={n}, m={m}, has_reference={has_reference},"
                          f" has_predictors={has_predictors}")

    def points(at: int, first_row: int) -> list:
        return [PrimalDualPoint(row[at : at + n], row[at + n : at + n + m]) for row in table[first_row:]]

    try:
        table = np.column_stack(list(cols.values()))
        metric = metric_for(meta["method"], params, prob)
        run_prob = METHODS[meta["method"]].problem(prob)
    except (LookupError, TypeError, ValueError) as exc:
        raise SchemaError(f"history columns, method or parameters unusable: {exc!r}") from exc
    if metric.shape != (n + m, n + m):
        raise SchemaError(f"history method {meta['method']!r} builds a metric of shape {metric.shape} on this problem,"
                          f" not ({n + m}, {n + m})")
    if not len(table):
        raise SchemaError("history table has no rows")
    at = header.index("x_0")
    return RunHistory(
        iterates=points(at, 0),
        # row slices of the C-ordered table: each row's entries sit next to each other, as kkt_residual needs
        residuals=kkt_residual(run_prob, PrimalDualPoint(table[:, at : at + n], table[:, at + n : at + n + m])),
        successive_h_steps=table[:, header.index("step_h")].tolist(),
        h_distances=table[:, header.index("dist_h")].tolist() if has_reference else None,
        # predictors lead the iterates by one step; row 0 only pads the table
        predictors=points(header.index("px_0"), 1) if has_predictors else None,
        metric=metric,
        converged=bool(meta.get("converged")),
    )


# ---------------------------------------------------------------------------
# configs by name, matchup runner


# The shared solver flags and their defaults: every method's config takes
# all of them and reads the ones it uses.
SOLVER_FLAGS = {"r": 1.0, "delta": 0.01, "alpha": 1.0, "s": None, "sigma": None, "r_list": None,
                "sharp_bounds": False, "inner_tol": 1e-10, "inner_max_iters": 50_000}


def build_config(name: str, prob, **flags):
    """Turn a method name plus solver flags into a config; a flag not
    given takes its SOLVER_FLAGS default, and stepsizes that carry
    validity conditions get safe defaults from the instance.  A flag that
    SOLVER_FLAGS lacks is a TypeError."""
    unknown = sorted(flags.keys() - SOLVER_FLAGS.keys())
    if unknown:
        raise TypeError(f"unknown solver flags: {', '.join(unknown)}")
    return _method(name).config(prob, **{**SOLVER_FLAGS, **flags})


def config_params(name: str, cfg) -> dict:
    """The parameters a history table needs to rebuild the run metric.
    A config of another method than name is a ValueError."""
    if cfg.method_name != name:
        raise ValueError(f"config_params for {name!r} was given a {cfg.method_name!r} config")
    return METHODS[name].params(cfg)


@dataclass
class ReportRow:
    """One method's outcome: the matchup report's row, whose summary is
    the line balm solve prints."""

    method: str
    status: str
    iterations: int = 0
    primal: float = float("nan")
    dual: float = float("nan")
    complementarity: float = float("nan")
    objective: float = float("nan")
    wall_time: float = 0.0
    error: str | None = None
    history_path: str | None = None

    def summary(self) -> str:
        return (
            f"method={self.method} status={self.status} iterations={self.iterations}"
            f" primal={self.primal:.6e} dual={self.dual:.6e}"
            f" complementarity={self.complementarity:.6e} objective={self.objective:.12e}"
        )

    def line(self) -> str:
        if self.status == "error":
            return f"method={self.method} status=error error={self.error!r}"
        return f"{self.summary()} wall_time={self.wall_time:.3f}s history={self.history_path}"


def run_method(name: str, prob, stop: StopRule, reference=None, history_path: str | None = None, **flags) -> ReportRow:
    """Run the named method on prob from the default start and write its
    history table to history_path when one is given.  Returns the row of
    its status, iteration count, final residuals and objective."""
    cfg = build_config(name, prob, **flags)
    history = run(prob, cfg, stop, reference=reference)
    if history_path:
        write_history(history_path, history, name, config_params(name, cfg))
    final = history.residuals[-1]
    return ReportRow(
        name, "converged" if history.converged else "max-iters", iterations=len(history.iterates) - 1,
        primal=final.primal, dual=final.dual, complementarity=final.complementarity,
        objective=total_objective(prob, history.iterates[-1].x), history_path=history_path,
    )


def run_matchup(problem_path: str, methods, stop: StopRule, report_path: str, **flags) -> list:
    """Run each named method on the same instance from the same start and
    write a summary report plus one history table per method.  A method
    that raises keeps its error in the report without stopping the rest;
    no method at all is a ConfigInvalid."""
    methods = list(methods)
    if not methods:
        raise ConfigInvalid("no method to run")
    prob, reference = read_problem(problem_path)
    rows = []
    for name in methods:
        row = ReportRow(method=name, status="error")
        started = time.perf_counter()
        try:
            row = run_method(name, prob, stop, reference, f"{report_path}.{name}.csv", **flags)
        except (BalmError, ValueError) as exc:
            row.error = str(exc)
        row.wall_time = time.perf_counter() - started
        rows.append(row)
    header = f"# matchup schema=1 problem={os.path.basename(problem_path)} tol={stop.kkt_tol} max_iters={stop.max_iters}"
    atomic_write(report_path, "\n".join([header] + [row.line() for row in rows]) + "\n")
    return rows
