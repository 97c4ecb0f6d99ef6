"""One digest over everything a run produces, to show that a change keeps
every bit.

Every method in solvers.METHODS is built through bench.build_config and
run on seeded instances: the four generator kinds, one-block
SeparableProblem copies of the single-block kinds, and the two-block QPs
of tests/support.py, each at alpha = 1 and 1.5.  The digest covers:

- the history file bytes, and the residuals recomputed from them;
- the problem file bytes;
- the certificate fields (contraction when a reference exists, and the
  gap certificate with its probe points);
- the final objective;
- coupling, vi_operator, kkt_residual, total_objective and lagrangian
  at the default start, and at the reference when there is one;
- the text of every error a method raises on an instance it rejects.

Floats enter through repr and arrays through their raw bytes, so the sign
of zero counts.  Run it against two source trees and compare the digests:

    PYTHONPATH=src python tools/identity_hashes.py
    PYTHONPATH=/path/to/other/checkout/src python tools/identity_hashes.py

--each prints one digest per case as well, to find the case that differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from balm import bench  # noqa: E402
from balm.diagnostics import contraction_ledger, vi_gap  # noqa: E402
from balm.errors import BalmError  # noqa: E402
from balm.problems import (  # noqa: E402
    Block,
    PrimalDualPoint,
    SeparableProblem,
    coupling,
    default_start,
    kkt_residual,
    lagrangian,
    total_objective,
    vi_operator,
)
from balm.solvers import METHODS, StopRule, run  # noqa: E402
from support import two_block_qp  # noqa: E402

STOP = StopRule(max_iters=120, kkt_tol=1e-8)
ALPHAS = (1.0, 1.5)
PROBES = 8


def instances():
    """(label, problem, reference) for every case."""
    sizes = {"random_qp_eq": (4, 10), "basis_pursuit": (6, 20), "lasso_eq": (6, 12), "nonneg_qp_ineq": (4, 10)}
    for kind, dims in sizes.items():
        for seed in (1, 2):
            prob, ref = bench.generate_instance(kind, dims, seed)
            yield f"{kind}/{seed}", prob, ref
            if not isinstance(prob, SeparableProblem):
                one = SeparableProblem((Block(prob.theta, prob.x_set, prob.a),), prob.b, prob.sense)
                yield f"{kind}/{seed}/one-block", one, ref
    yield "random_qp_eq/scalar", *bench.generate_instance("random_qp_eq", (1, 1), 0)
    for seed in (1, 2):
        prob, ref = two_block_qp(np.random.default_rng(seed), 4, 3, 3)
        yield f"two_block_qp/{seed}", prob, ref


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        if isinstance(value, np.ndarray):
            text = f"{value.dtype}{value.shape}".encode() + value.tobytes()
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self.add(f"{label}[{i}]", item)
            return
        elif isinstance(value, PrimalDualPoint):
            self.add(f"{label}.x", value.x)
            self.add(f"{label}.lam", value.lam)
            return
        elif isinstance(value, (bytes, str)):
            text = value.encode() if isinstance(value, str) else value
        else:
            text = repr(value).encode()
        self.h.update(label.encode() + b"=" + text + b";")

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def problem_functions(d: Digest, prob, ref) -> None:
    d.add("problem_file", bench.serialize_problem(prob, ref))
    points = [("start", default_start(prob))] + ([("reference", ref)] if ref is not None else [])
    for label, w in points:
        d.add(f"{label}.point", w)
        d.add(f"{label}.coupling", coupling(prob, w.x))
        d.add(f"{label}.vi_operator", vi_operator(prob, w))
        d.add(f"{label}.kkt_residual", kkt_residual(prob, w))
        d.add(f"{label}.total_objective", total_objective(prob, w.x))
        d.add(f"{label}.lagrangian", lagrangian(prob, w))


def method_case(d: Digest, prob, ref, name: str, alpha: float, tmp: str) -> None:
    try:
        cfg = bench.build_config(name, prob, alpha=alpha)
        params = bench.config_params(name, cfg)
        history = run(prob, cfg, STOP, reference=ref)
    except (BalmError, ValueError) as exc:
        d.add("error", f"{type(exc).__name__}: {exc}")
        return
    text = bench.serialize_history(history, name, params)
    d.add("history", text)
    d.add("objective", total_objective(prob, history.iterates[-1].x))
    path = os.path.join(tmp, "history.csv")
    bench.write_history(path, history, name, params)
    meta, cols = bench.read_history_table(path)
    replay = bench.history_from_table(prob, meta, cols)
    d.add("replay.residuals", replay.residuals)
    if ref is not None:
        for cert in contraction_ledger(replay, replay.metric, ref, alpha=params.get("alpha", 1.0)):
            d.add("contraction", (cert.iteration, cert.dist_before, cert.dist_after, cert.step_h, cert.slack))
    if len(replay.iterates) >= 2:
        cert = vi_gap(prob, replay, len(replay.iterates) - 2, PROBES, 0)
        d.add("gap", (cert.t, cert.max_lhs, cert.bound, cert.passes))
        d.add("gap.ergodic", cert.ergodic_point)
        d.add("gap.probes", list(cert.probe_points))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--each", action="store_true", help="print one digest per case as well")
    args = parser.parse_args(argv)
    total = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        for label, prob, ref in instances():
            cases = [("functions", lambda d: problem_functions(d, prob, ref))]
            cases += [
                (f"{name}/alpha={alpha}", lambda d, name=name, alpha=alpha: method_case(d, prob, ref, name, alpha, tmp))
                for name in METHODS
                for alpha in ALPHAS
            ]
            for case, fill in cases:
                d = Digest()
                fill(d)
                total.add(f"{label}/{case}", d.hexdigest())
                if args.each:
                    print(f"{d.hexdigest()}  {label}/{case}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
