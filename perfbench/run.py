"""Benchmark entry point: time to KKT tolerance on seeded balm workloads.

    python3 perfbench/run.py --workload equality --seed 1 --seconds 50 --trace 0

Run from the repository root.  The library is imported from ``src/``.
With ``--trace 0`` the last output line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it sweeps the workload once
untraced and once traced, and carries the per-layer metrics instead.
``--workload all`` runs every workload, each in its own process.  The exit
code is nonzero when any output check fails.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("equality", "inequality")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to keep repeating the workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes: one small instance per group")
    return p


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "balm", "__init__.py")):
        print(f"error: the balm sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite
    from spans import Tracer

    print("env " + json.dumps(_environment(args.seed), sort_keys=True), flush=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pairs, replays = suite.prepare(args.workload, args.seed, workdir, tiny=args.tiny)
        if args.trace:
            tracer = Tracer()
            overhead = suite.measure_traced(pairs, replays, tracer)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}.csv.gz"))
            metrics = suite.layer_metrics(pairs, tracer, overhead)
        else:
            suite.measure(pairs, replays, args.seconds)
            metrics = suite.e2e_metrics(pairs, replays)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for row in suite.pair_rows(pairs):
        print(row)
    items = pairs + replays
    failures = [(item, msg) for item in items for msg in item.failures]
    for item, msg in failures:
        pair = item if isinstance(item, suite.Pair) else item.pair
        who = pair.label if pair is item else f"replay of {pair.label}"
        print(f"FAILED {pair.group.kind} seed={pair.seed} {who}: {msg}")
    attempted = sum(item.attempts for item in items)
    print(f"workload={args.workload} attempted={attempted} failed={len(failures)} failed_frac={len(failures) / attempted:.4f}")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    if args.trace:
        selfs = sorted((m["value"], name) for name, m in metrics.items() if name.endswith(".self_s"))
        print("largest self times: " + ", ".join(f"{name} {value:.3f} s" for value, name in reversed(selfs[-4:])))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined, sort_keys=True), flush=True)
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
