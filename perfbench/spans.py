"""In-memory span tracer for the benchmark's traced run.

The tracer wraps balm's module-level functions from the outside: every
module attribute bound to a traced function is replaced by a wrapper that
records a span (name, function, parent, run id, start, end), and the
originals are put back when the ``installed`` block exits.  Nothing under
``src/balm`` knows about it.  A layer's self time is its span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import time
from contextlib import contextmanager

# (defining module, function, span name).  Every balm module that binds the
# same function object gets the wrapper, so calls through imported names
# are traced too.
SPANNED = [
    ("linalg", "h_quadratic", "linalg.h_quadratic"),
    ("linalg", "cholesky_factor", "linalg.cholesky_factor"),
    ("linalg", "spectral_norm_sq", "linalg.spectral_norm_sq"),
    ("multiplier", "solve_lcp", "multiplier.solve_lcp"),
    ("multiplier", "solve_equality", "multiplier.solve_equality"),
    ("multiplier", "build_h0", "multiplier.build"),
    ("multiplier", "build_hp", "multiplier.build"),
    ("multiplier", "build_h2", "multiplier.build"),
    ("prox", "prox_constrained", "prox.prox_constrained"),
    ("problems", "kkt_residual", "problems.kkt_residual"),
    ("solvers", "run", "solvers.run"),
    ("solvers", "balanced_metric", "solvers.metric_build"),
    ("solvers", "split_metric", "solvers.metric_build"),
    ("solvers", "alt_split_metric", "solvers.metric_build"),
    ("bench", "read_problem", "bench.read_problem"),
    ("bench", "build_config", "bench.build_config"),
    ("bench", "write_history", "bench.write_history"),
    ("bench", "read_history_table", "bench.read_history_table"),
    ("bench", "history_from_table", "bench.history_from_table"),
    ("diagnostics", "contraction_ledger", "diagnostics.contraction_ledger"),
    ("diagnostics", "vi_gap", "diagnostics.vi_gap"),
]
STEPS = [
    "balanced_alm_step",
    "split_balanced_step",
    "alt_split_step",
    "classic_alm_step",
    "lalm_step",
    "primal_dual_step",
    "admm_step",
    "ladmm_step",
]
SPANNED += [("solvers", step, "solvers.step") for step in STEPS]
# steps that run FISTA inner loops; the prox calls under them are inner iterations
INNER_STEPS = frozenset({"classic_alm_step", "admm_step", "ladmm_step"})

# The gap sampler's test of one draw: counted (draws, acceptances), not spanned.
PROBE_TEST = ("diagnostics", "_feasible")

# span record fields
NAME, FUNC, PARENT, RUN, START, END = range(6)


class Tracer:
    """Spans and counters kept in memory until ``write`` is called."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.run_id = 0
        self._stack = []

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _spanned(self, original, name: str):
        spans, stack = self.spans, self._stack
        func = original.__name__
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, func, stack[-1] if stack else -1, self.run_id, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if func == "h_quadratic":  # bytes of the dense metric it reads, computed
                self.count("linalg.h_quadratic.bytes_computed", args[0].shape[0] ** 2 * 8)
            return result

        return traced

    def _probe_counted(self, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            accepted = original(*args, **kwargs)
            self.count("diagnostics.probe_draws")
            self.count("diagnostics.probe_accepted", int(bool(accepted)))
            return accepted

        return counted

    @contextmanager
    def installed(self, balm_modules: dict):
        """Patch the traced functions in every balm module that binds them,
        and the probe test in its own module; restore on exit."""
        saved = []
        try:
            for home, attr, name in SPANNED:
                original = getattr(balm_modules[home], attr)
                wrapper = self._spanned(original, name)
                for mod in balm_modules.values():
                    if getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            home, attr = PROBE_TEST
            mod = balm_modules[home]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._probe_counted(getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> list:
        """Self time of each span, aligned with ``spans``."""
        selfs = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                selfs[s[PARENT]] -= s[END] - s[START]
        return selfs

    def layer_totals(self) -> dict:
        """{span name: [self seconds, calls]} plus the inner-iteration count."""
        totals = {}
        inner = 0
        inner_self = 0.0
        for s, self_s in zip(self.spans, self.self_times()):
            entry = totals.setdefault(s[NAME], [0.0, 0])
            entry[0] += self_s
            entry[1] += 1
            if s[FUNC] in INNER_STEPS:
                inner_self += self_s
            elif s[FUNC] == "prox_constrained" and s[PARENT] >= 0 and self.spans[s[PARENT]][FUNC] in INNER_STEPS:
                inner += 1
        totals["solvers.fista.inner_iters"] = [0.0, inner]
        totals["solvers.fista.step_self_s"] = [inner_self, 0]
        return totals

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV (id,parent,run,name,function,start,end)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,run,name,function,start,end\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[RUN]},{s[NAME]},{s[FUNC]},{s[START]!r},{s[END]!r}\n")
