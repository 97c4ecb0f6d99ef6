"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the library's default test collection;
they start benchmark processes and take under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import suite  # noqa: E402
from spans import END, NAME, PARENT, START, Tracer  # noqa: E402

WORKLOADS = list(suite.WORKLOADS)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_matches_suite():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(suite.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(suite.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert f"metric {m['name']} = " in proc.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_iters_repeat_at_fixed_seed():
    runs = [_bench("--workload", "equality", "--seed", "5", "--seconds", "0.1", "--tiny") for _ in range(2)]
    rows = [[ln for ln in proc.stdout.splitlines() if ln.startswith("pair ")] for proc in runs]
    iters = [[tok for ln in r for tok in ln.split() if tok.startswith("iters=")] for r in rows]
    assert iters[0] and iters[0] == iters[1]
    assert _result(runs[0])["metrics"]["iters"] == _result(runs[1])["metrics"]["iters"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_invariants(workload, tmp_path):
    pairs, replays = suite.prepare(workload, 7, str(tmp_path), tiny=True)
    tracer = Tracer()
    original_run = suite.solvers.run
    suite.measure_traced(pairs, replays, tracer)
    assert suite.solvers.run is original_run  # every wrapper was removed
    spans = tracer.spans
    assert spans
    selfs = tracer.self_times()
    roots = {}
    for i, s in enumerate(spans):
        assert s[START] <= s[END]
        assert selfs[i] >= -1e-9
        root = i
        while spans[root][PARENT] >= 0:
            parent = spans[spans[root][PARENT]]
            assert parent[START] <= spans[root][START] and spans[root][END] <= parent[END]
            root = spans[root][PARENT]
        roots.setdefault(root, []).append(selfs[i])
    for root, parts in roots.items():
        assert sum(parts) == pytest.approx(spans[root][END] - spans[root][START], rel=1e-9, abs=1e-12)
    # every probe takes at least one draw, and is accepted at most once
    gap_replays = [r for r in replays if "gap" in r.checks]
    assert gap_replays
    assert sum(1 for s in spans if s[NAME] == "diagnostics.vi_gap") == len(gap_replays)
    probes = sum(r.pair.group.probes for r in gap_replays)
    accepted, draws = tracer.counts["diagnostics.probe_accepted"], tracer.counts["diagnostics.probe_draws"]
    assert accepted <= probes <= draws


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "equality", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
