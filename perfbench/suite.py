"""Workloads, the measurement loop, output checks and metrics.

A workload is a list of instance groups.  Each group draws ``count``
instances of one generator kind from the run seed and solves every one of
them with each listed (method, flags) pair.  Some pairs also have their
history replayed through the certificates.  Every solve loads its problem
file fresh, the way ``balm solve`` does, so no per-problem cache survives
from one repeat to the next.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from balm import bench, diagnostics, problems, solvers
from balm.errors import BalmError

from laps import Laps, fastest
from spans import Tracer

# by import path: the package re-exports a function named ``prox``
BALM_MODULES = {
    name: importlib.import_module(f"balm.{name}")
    for name in ("linalg", "multiplier", "prox", "problems", "solvers", "bench", "diagnostics")
}

KKT_TOL = 1e-8  # the CLI default
MAX_ITERS = 100_000  # the CLI default; a solve that needs more counts as failed
PROBES = 500  # the CLI default for the gap check
REF_RTOL = 1e-6  # final x against a stored reference point
OBJ_RTOL = 1e-6  # objective agreement between methods on one instance
LAPS = Laps()


@dataclass(frozen=True)
class Group:
    kind: str
    dims: tuple
    count: int
    methods: tuple  # ((method, flags), ...)
    sparsity: int | None = None
    certify: tuple = ()  # ((method index, checks), ...) replayed on the first instances
    certified: int | None = None  # how many instances are replayed; None: all
    agree: bool = False  # methods must reach the same objective (no stored reference)
    probes: int = PROBES

    def tiny(self) -> "Group":
        m, n = self.dims
        sparsity = None if self.sparsity is None else max(1, self.sparsity // 4)
        return replace(self, dims=(max(2, m // 4), max(4, n // 4)), count=1, sparsity=sparsity)


@dataclass(frozen=True)
class Workload:
    why: str
    groups: tuple


BALANCED = ("balanced-alm", {})
RELAXED = ("balanced-alm", {"alpha": 1.5})
PRIMAL_DUAL = ("primal-dual", {})

# One pass over a workload takes 6-7 s on one core, so a 50 s run repeats
# every item seven or eight times; each lap's fastest repeat settles after
# about five (see laps.py).  The instance counts average out seed-to-seed
# differences in iterations and in the LCP's sweep counts.
WORKLOADS = {
    "equality": Workload(
        "basis pursuit (balanced vs primal-dual vs lalm; dense metric quadratic), two-block lasso (per-coordinate prox, the largest layer) and classic ALM (FISTA)",
        (
            Group("basis_pursuit", (60, 300), 20, (BALANCED, PRIMAL_DUAL, ("lalm", {})), sparsity=2, agree=True),
            Group(
                "lasso_eq", (30, 60), 6, (("split-balanced", {}), BALANCED, ("admm", {}), ("ladmm", {})),
                sparsity=3, agree=True, certify=((0, ("gap",)),),
            ),
            Group("random_qp_eq", (20, 80), 3, (("classic-alm", {}),)),
        ),
    ),
    "inequality": Workload(
        "inequality QPs whose multiplier step is the projected Gauss-Seidel LCP, plus replays of relaxed and baseline histories through CSV and the certificates",
        (
            # m = n/2: nearer to square, the LCP's conditioning, and so its
            # sweep count, varies too much from instance to instance
            Group(
                "nonneg_qp_ineq", (30, 60), 32, (BALANCED, RELAXED),
                certify=((1, ("contraction",)),), certified=8,
            ),
            Group(
                "random_qp_eq", (40, 160), 3, (RELAXED, PRIMAL_DUAL),
                certify=((0, ("contraction", "gap")), (1, ("contraction", "gap"))),
            ),
            # many multipliers are zero here, so every gap probe exhausts its
            # 1,000 rejection draws: a fixed load on the sampler, cut to 10
            # probes so that it repeats as often as the rest.  The solve
            # joins the first group's cell.
            Group("nonneg_qp_ineq", (30, 60), 1, (RELAXED,), certify=((0, ("contraction", "gap")),), probes=10),
        ),
    ),
}

E2E_METRICS = (
    ("solve_s", "s"),
    ("iters", "count"),
    ("ms_per_iter", "ms"),
    ("setup_s", "s"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MB"),
)
SPAN_LAYERS = (
    "linalg.h_quadratic",
    "linalg.cholesky_factor",
    "linalg.spectral_norm_sq",
    "multiplier.solve_lcp",
    "multiplier.solve_equality",
    "multiplier.build",
    "prox.prox_constrained",
    "problems.kkt_residual",
    "solvers.run",
    "solvers.step",
    "solvers.metric_build",
    "bench.read_problem",
    "bench.build_config",
    "bench.write_history",
    "bench.read_history_table",
    "bench.history_from_table",
    "diagnostics.contraction_ledger",
    "diagnostics.vi_gap",
)
LAYER_METRICS = tuple(
    (f"{span}.{stat}", unit) for span in SPAN_LAYERS for stat, unit in (("self_s", "s"), ("calls", "count"))
) + (
    ("linalg.h_quadratic.bytes_computed", "B"),
    ("solvers.fista.inner_iters", "count"),
    ("solvers.fista.step_self_s", "s"),
    ("solvers.history_bytes_computed", "B"),
    ("bench.write_history.bytes", "B"),
    ("diagnostics.probe_draws", "count"),
    ("diagnostics.probe_accept_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)


@dataclass
class Pair:
    group: Group
    cell: tuple  # (kind, dims, label): instances of one shape solved one way
    seed: int
    path: str
    method: str
    flags: dict
    label: str
    iters: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    solve: list = field(default_factory=list)
    solve_laps: np.ndarray | None = None  # each lap's fastest repeat
    objective: float = math.nan
    history_bytes: int = 0  # computed: (iterates + predictors) x (n + m) x 8
    attempts: int = 0
    failures: list = field(default_factory=list)
    loaded: tuple | None = None  # (problem, reference, config, history) of the last solve


@dataclass
class Replay:
    pair: Pair
    checks: tuple
    path: str
    cell: tuple
    times: list = field(default_factory=list)
    laps: np.ndarray | None = None
    attempts: int = 0
    failures: list = field(default_factory=list)


def instance_seeds(seed: int, workload_index: int, group_index: int, count: int) -> list:
    state = np.random.SeedSequence([seed, workload_index, group_index]).generate_state(count)
    return [int(s) for s in state]


def prepare(name: str, seed: int, workdir: str, tiny: bool = False):
    """Generate the workload's instances into problem files; return the
    solve pairs and the replays, in run order."""
    workload = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    pairs, replays = [], []
    for g_index, group in enumerate(workload.groups):
        group = group.tiny() if tiny else group
        for i, inst_seed in enumerate(instance_seeds(seed, index, g_index, group.count)):
            prob, reference = bench.generate_instance(group.kind, group.dims, inst_seed, group.sparsity)
            path = os.path.join(workdir, f"{group.kind}-{inst_seed}.json")
            bench.write_problem(path, prob, reference)
            inst_pairs = []
            for method, flags in group.methods:
                label = method + "".join(f" {k}={v}" for k, v in sorted(flags.items()))
                inst_pairs.append(Pair(group, (group.kind, group.dims, label), inst_seed, path, method, dict(flags), label))
            pairs += inst_pairs
            if group.certified is not None and i >= group.certified:
                continue
            for m_index, checks in group.certify:
                hist_path = os.path.join(workdir, f"history-{len(replays)}.csv")
                pair = inst_pairs[m_index]
                replays.append(Replay(pair, checks, hist_path, pair.cell + (checks,)))
    return pairs, replays


def _solve(pair: Pair, keep: bool) -> None:
    t0 = time.perf_counter()
    prob, reference = bench.read_problem(pair.path)
    cfg = bench.build_config(pair.method, prob, **pair.flags)
    pair.setup.append(time.perf_counter() - t0)
    LAPS.start()
    history = solvers.run(prob, cfg, solvers.StopRule(MAX_ITERS, KKT_TOL), reference=reference)
    laps = LAPS.stop()
    iters = len(history.iterates) - 1
    pair.solve.append(float(laps.sum()))
    pair.iters.append(iters)
    kept = len(history.iterates) + len(history.predictors or ())
    pair.history_bytes = kept * (prob.n + prob.m) * 8
    pair.loaded = (prob, reference, cfg, history) if keep else None
    failures = _check_solve(pair, prob, reference, history, iters)
    pair.failures += failures
    if not failures:
        pair.solve_laps = fastest(pair.solve_laps, laps)


def _check_solve(pair: Pair, prob, reference, history, iters: int) -> list:
    """Judge the final iterate directly; RunHistory.converged is not trusted."""
    final = history.residuals[-1]
    parts = (final.primal, final.dual, final.complementarity)
    x = history.iterates[-1].x
    if not all(math.isfinite(v) for v in parts):
        return [f"non-finite final residual {parts}"]
    if max(parts) > KKT_TOL:
        return [f"stopped at {iters} iterations with residual {max(parts):.3e} > {KKT_TOL}"]
    if not np.all(np.isfinite(x)):
        return ["non-finite final iterate"]
    if len(pair.iters) > 1 and iters != pair.iters[0]:
        return [f"iteration count changed between repeats: {pair.iters[0]} then {iters}"]
    if reference is not None:
        err = float(np.linalg.norm(x - reference.x)) / max(1.0, float(np.linalg.norm(reference.x)))
        if not err <= REF_RTOL:
            return [f"final x is {err:.3e} (relative) from the stored reference"]
    pair.objective = problems.total_objective(prob, x)
    return []


def _replay(replay: Replay, tracer: Tracer | None) -> None:
    prob, reference, cfg, history = replay.pair.loaded
    LAPS.start()
    bench.write_history(replay.path, history, replay.pair.method, bench.config_params(replay.pair.method, cfg))
    meta, cols = bench.read_history_table(replay.path)
    replayed = bench.history_from_table(prob, meta, cols)
    verdicts = []
    if "contraction" in replay.checks:
        certs = diagnostics.contraction_ledger(replayed, replayed.metric, reference, alpha=meta["params"].get("alpha", 1.0))
        verdicts.append(("contraction", all(c.passes for c in certs)))
    if "gap" in replay.checks:
        cert = diagnostics.vi_gap(prob, replayed, len(replayed.iterates) - 2, replay.pair.group.probes, 0)
        verdicts.append(("gap", cert.passes))
    laps = LAPS.stop()
    replay.times.append(float(laps.sum()))
    replay.laps = fastest(replay.laps, laps)
    replay.failures += [f"{check} certificate FAIL" for check, ok in verdicts if not ok]
    if tracer:
        tracer.count("bench.write_history.bytes", os.path.getsize(replay.path))


def _pass(pairs, replays, tracer=None, deadline=None) -> bool:
    """One sweep over every solve and replay; with a deadline, stop early
    once it has passed.  Returns True if the sweep completed."""
    keep = {id(r.pair) for r in replays}
    for item in pairs + replays:
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        if tracer:
            tracer.run_id += 1
        item.attempts += 1
        try:
            if isinstance(item, Pair):
                _solve(item, id(item) in keep)
            elif item.pair.loaded is None:
                item.failures.append("no history to replay: its solve failed")
            else:
                _replay(item, tracer)
        except (BalmError, ValueError, ArithmeticError) as exc:
            item.failures.append(f"{type(exc).__name__}: {exc}")
            if isinstance(item, Pair):
                item.loaded = None
    return True


def _check_agreement(pairs) -> None:
    by_instance = {}
    for pair in pairs:
        if pair.group.agree and not pair.failures:
            by_instance.setdefault(pair.path, []).append(pair)
    for group in by_instance.values():
        ref = statistics.median(p.objective for p in group)
        for pair in group:
            if not abs(pair.objective - ref) <= OBJ_RTOL * max(1.0, abs(ref)):
                pair.failures.append(f"objective {pair.objective!r} disagrees with the instance median {ref!r}")


def measure(pairs, replays, seconds: float) -> None:
    """Repeat passes until ``seconds`` have gone by; every item runs at least
    once.  Solves and replays are timed lap by lap."""
    start = time.perf_counter()
    with LAPS.installed():
        _pass(pairs, replays)
        while _pass(pairs, replays, deadline=start + seconds):
            pass
    _check_agreement(pairs)


def measure_traced(pairs, replays, tracer: Tracer) -> float:
    """An untraced pass, which also warms caches, then a traced one;
    returns the tracing overhead as traced over untraced solve time."""
    _pass(pairs, replays)
    with tracer.installed(BALM_MODULES):
        _pass(pairs, replays, tracer)
    _check_agreement(pairs)
    untraced = sum(p.solve[0] for p in pairs if len(p.solve) == 2)
    traced = sum(p.solve[1] for p in pairs if len(p.solve) == 2)
    return traced / untraced if untraced > 0 else math.nan


def _cell_total(items, value) -> float:
    """Per cell, the mean over its instances of each item's value; summed
    over cells, i.e. one average instance of every group solved (or
    replayed) every way.  Every instance counts, the slowest too."""
    cells = {}
    for item in items:
        sample = value(item)
        if sample is not None:
            cells.setdefault(item.cell, []).append(sample)
    return sum(statistics.fmean(v) for v in cells.values())


def _fastest(samples):
    """An item's repeats do the same work (the iteration count is checked),
    so time above the fastest repeat is the machine's, not the program's."""
    return min(samples) if samples else None


def _lap_total(laps):
    return float(laps.sum()) if laps is not None else None


def e2e_metrics(pairs, replays) -> dict:
    solve_s = _cell_total(pairs, lambda p: _lap_total(p.solve_laps))
    iters = _cell_total(pairs, lambda p: p.iters[0] if p.iters else None)
    values = {
        "solve_s": solve_s,
        "iters": iters,
        "ms_per_iter": 1000.0 * solve_s / iters if iters else math.nan,
        "setup_s": _cell_total(pairs, lambda p: _fastest(p.setup)),
        "certify_s": _cell_total(replays, lambda r: _lap_total(r.laps)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}


def layer_metrics(pairs, tracer: Tracer, overhead: float) -> dict:
    totals = tracer.layer_totals()
    values = {}
    for span in SPAN_LAYERS:
        self_s, calls = totals.get(span, (0.0, 0))
        values[f"{span}.self_s"] = self_s
        values[f"{span}.calls"] = calls
    draws = tracer.counts.get("diagnostics.probe_draws", 0)
    values.update({
        "linalg.h_quadratic.bytes_computed": tracer.counts.get("linalg.h_quadratic.bytes_computed", 0),
        "solvers.fista.inner_iters": totals["solvers.fista.inner_iters"][1],
        "solvers.fista.step_self_s": totals["solvers.fista.step_self_s"][0],
        "solvers.history_bytes_computed": sum(p.history_bytes for p in pairs),
        "bench.write_history.bytes": tracer.counts.get("bench.write_history.bytes", 0),
        "diagnostics.probe_draws": draws,
        "diagnostics.probe_accept_ratio": tracer.counts.get("diagnostics.probe_accepted", 0) / draws if draws else 0.0,
        "trace.overhead": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def pair_rows(pairs) -> list:
    """One line per (instance, method): iterations and ms/iter side by side."""
    rows = []
    for p in pairs:
        solve = _lap_total(p.solve_laps) or math.nan
        iters = p.iters[0] if p.iters else 0
        rows.append(
            f"pair kind={p.group.kind} m={p.group.dims[0]} n={p.group.dims[1]} seed={p.seed}"
            f" method={p.label.replace(' ', ',')} iters={iters} converged={not p.failures}"
            f" ms_per_iter={1000.0 * solve / max(iters, 1):.4f} solve_s={solve:.4f} repeats={len(p.solve)}"
        )
    return rows
