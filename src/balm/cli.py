"""Command line front end: generate instances, solve, compare, certify.

solve and matchup take one option per key of bench.SOLVER_FLAGS and run
each method through bench.run_method.

Exit codes: 0 success, 1 non-convergence or a failed certificate,
2 invalid configuration, 3 I/O or file-format trouble.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bench
from .diagnostics import contraction_ledger, vi_gap
from .errors import BalmError, ConfigInvalid, InsufficientHistory, NoConvergence, SchemaError
from .solvers import METHODS, StopRule

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_BAD_CONFIG = 2
EXIT_BAD_IO = 3


def _float_list(text: str):
    return tuple(float(tok) for tok in text.split(",")) if text else None


def _add_shared_solver_flags(p: argparse.ArgumentParser) -> None:
    # no defaults here: bench.SOLVER_FLAGS holds them, one per solver flag
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--r", type=float, help="primal prox weight")
    flag("--delta", type=float, help="dual metric shift")
    flag("--alpha", type=float, help="relaxation factor in (0, 2)")
    flag("--s", type=float, help="dual/second-block stepsize")
    flag("--sigma", type=float, help="linearization weight for lalm")
    flag("--r-list", type=_float_list, help="comma-separated per-block prox weights")
    sharp = " and ".join(name for name, spec in METHODS.items() if spec.sharp_bounds)
    flag("--sharp-bounds", action="store_true", help=f"relax the stepsize condition of {sharp} by 0.75")
    flag("--inner-tol", type=float)
    flag("--inner-max-iters", type=int)
    p.add_argument("--tol", type=float, default=1e-8, help="KKT stopping tolerance")
    p.add_argument("--max-iters", type=int, default=100_000)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balm")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance to a problem file")
    g.add_argument("--kind", choices=bench.GENERATOR_KINDS, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sparsity", type=int, default=None)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="run one method on a problem file")
    s.add_argument("--problem", required=True)
    s.add_argument("--method", choices=bench.METHOD_NAMES, required=True)
    s.add_argument("--history", default=None, help="write the iteration table here")
    _add_shared_solver_flags(s)

    m = sub.add_parser("matchup", help="run several methods and write a report")
    m.add_argument("--problem", required=True)
    m.add_argument("--methods", required=True, help="comma-separated method names")
    m.add_argument("--report", required=True)
    _add_shared_solver_flags(m)

    c = sub.add_parser("certify", help="replay a history table against the certificates")
    c.add_argument("--problem", required=True)
    c.add_argument("--history", required=True)
    c.add_argument("--check", required=True, help="comma subset of contraction,gap")
    c.add_argument("--reference", default=None, help="JSON file with x and lambda arrays")
    c.add_argument("--t", type=int, default=None, help="ergodic index for the gap check")
    c.add_argument("--probes", type=int, default=500)
    c.add_argument("--seed", type=int, default=0)
    return parser


def _flags(args) -> dict:
    """The solver flags given on the command line, as bench.build_config keywords."""
    return {key: value for key, value in vars(args).items() if key in bench.SOLVER_FLAGS}


def _cmd_generate(args) -> int:
    prob, reference = bench.generate_instance(args.kind, (args.m, args.n), args.seed, args.sparsity)
    bench.write_problem(args.out, prob, reference)
    print(f"wrote {args.kind} instance (m={args.m}, n={args.n}, seed={args.seed}) to {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    prob, reference = bench.read_problem(args.problem)
    stop = StopRule(max_iters=args.max_iters, kkt_tol=args.tol)
    row = bench.run_method(args.method, prob, stop, reference, args.history, **_flags(args))
    print(row.summary())
    return EXIT_OK if row.status == "converged" else EXIT_NO_CONVERGENCE


def _cmd_matchup(args) -> int:
    methods = [tok for tok in args.methods.split(",") if tok]
    stop = StopRule(max_iters=args.max_iters, kkt_tol=args.tol)
    rows = bench.run_matchup(args.problem, methods, stop, args.report, **_flags(args))
    for row in rows:
        print(row.line())
    print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    checks = [tok for tok in args.check.split(",") if tok]
    unknown = set(checks) - {"contraction", "gap"}
    if unknown:
        raise ConfigInvalid(f"unknown checks: {sorted(unknown)}")
    if not checks:
        raise ConfigInvalid("--check names no check; give a comma subset of contraction,gap")
    if args.probes < 1:
        raise ConfigInvalid(f"--probes must be at least 1, got {args.probes}")
    prob, embedded = bench.read_problem(args.problem)
    meta, cols = bench.read_history_table(args.history)
    history = bench.history_from_table(prob, meta, cols)
    if len(history.iterates) < 2:
        raise InsufficientHistory("the history records no step, one iterate: certify needs at least two")
    all_ok = True
    if "contraction" in checks:
        reference = bench.read_reference(args.reference, prob) if args.reference else embedded
        alpha = meta["params"].get("alpha", 1.0)
        certs = contraction_ledger(history, history.metric, reference, alpha=alpha)
        min_slack = min((c.slack for c in certs), default=float("inf"))
        ok = all(c.passes for c in certs)
        all_ok &= ok
        print(f"contraction: {'PASS' if ok else 'FAIL'} (iterations={len(certs)}, min slack={min_slack:.3e})")
    if "gap" in checks:
        t = args.t if args.t is not None else len(history.iterates) - 2
        cert = vi_gap(prob, history, t, args.probes, args.seed)
        all_ok &= cert.passes
        print(
            f"gap: {'PASS' if cert.passes else 'FAIL'} (t={cert.t}, probes={len(cert.probe_points)},"
            f" max_lhs={cert.max_lhs:.6e}, bound={cert.bound:.6e}, projected={cert.projected_probes})"
        )
    return EXIT_OK if all_ok else EXIT_NO_CONVERGENCE


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "matchup": _cmd_matchup,
        "certify": _cmd_certify,
    }
    try:
        return handlers[args.command](args)
    except (BalmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SchemaError, OSError)):
            return EXIT_BAD_IO
        return EXIT_NO_CONVERGENCE if isinstance(exc, NoConvergence) else EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
