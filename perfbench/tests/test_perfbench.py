"""The benchmark's own tests: metric names and units, output checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import estlab.cli as cli
import tracing
import workloads
from conftest import BENCH
from run import Runner

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_call(call, path):
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([*call.argv, "-o", str(path)]) == 0
    return path


def _small_calls():
    """One call of every kind at sizes small enough to recheck many times."""
    rng = random.Random("small")
    return [
        workloads.fig7_call(rng, "periodic", n=200, points=4),
        workloads.fig7_call(rng, "bernoulli", n=200, points=4, reps=4),
        workloads.fisher_call(rng, n=200),
        workloads.table1_call(rng, n=1000),
        workloads.fig2_call(4, 5),
        workloads.fig345_call(7),
        workloads.fig6_call(rng, n=50, phi_points=6),
        workloads.delta_i_call(rng, n=1000),
    ]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-trials", "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for line in ("error_rate", "invariant_violations", "call_p90_s" if trace == 0 else ""):
        assert line in proc.stdout


def test_correct_outputs_pass_and_perturbed_values_fail(tmp_path):
    for k, call in enumerate(_small_calls()):
        path = _run_call(call, tmp_path / f"{k}.csv")
        checks.check(call, path)
        lines = path.read_text().split("\n")
        for i in range(2, len(lines) - 1):
            cells = lines[i].split(",")
            for j, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if abs(value) < 1e-3:  # below the checks' absolute slack
                    continue
                bad = cells.copy()
                bad[j] = repr(value * (1.0 + 1e-6))
                path.write_text("\n".join(lines[:i] + [",".join(bad)] + lines[i + 1:]))
                with pytest.raises(checks.CheckFailed):
                    checks.check(call, path)
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(checks.CheckFailed):
            checks.check(call, path)


def test_monte_carlo_check_uses_exact_moments(tmp_path):
    rounds = workloads.round_stream("mc-trials", 3)
    for call in next(rounds):
        path = _run_call(call, tmp_path / "sim.csv")
        assert checks.check(call, path) == 0
        w, mu, cov = checks.estimator_weights(call.params)
        sd = math.sqrt(w @ cov @ w / call.params["trials"])
        lines = path.read_text().split("\n")
        cells = lines[2].split(",")
        cells[5] = repr(float(cells[5]) + 10.0 * sd)
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]))
        with pytest.raises(checks.CheckFailed):
            checks.check(call, path)


def test_missing_output_and_nonzero_exit_count_as_failed(tmp_path):
    runner = Runner(cli, checks, tmp_path)
    good = workloads.delta_i_call(random.Random(1), n=10)
    bad = workloads.Call("delta-i", ("delta-i", "--a", "-1", "--c", "0", "--n", "10"), 1.0,
                         good.params)
    result = runner.play([good, bad])
    assert (len(result.latencies), result.failed) == (2, 1)
    assert not (tmp_path / "1-delta-i.csv").exists()


def test_dense_sweep_invariant_check_is_not_blind(tmp_path):
    # Seed 3's first round draws a bernoulli fig7 whose realized retention
    # exceeds gamma*n, so WVA beats direct in the white limit (a known defect).
    calls = next(workloads.round_stream("dense-sweep", 3))
    bernoulli = calls[1]
    assert bernoulli.params["scheme"] == "bernoulli"
    path = _run_call(bernoulli, tmp_path / "fig7.csv")
    assert checks.check(bernoulli, path) > 0


def test_trace_self_times_sum_to_traced_wall_time(tmp_path):
    import estlab.experiments

    original = estlab.cli.fig7_sweep
    runner = Runner(cli, checks, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert estlab.cli.fig7_sweep is not original
        played = runner.play(_small_calls() + next(workloads.round_stream("mc-trials", 1)))
    finally:
        tracer.uninstall()
    assert estlab.cli.fig7_sweep is original is estlab.experiments.fig7_sweep
    assert played.failed == 0
    fid, dur, self_time, outer = tracer.arrays()
    roots = np.frombuffer(tracer.parent, dtype=np.int64) < 0
    assert roots.sum() == len(played.latencies)
    assert self_time.sum() == pytest.approx(dur[roots].sum(), rel=1e-9)
    assert self_time.sum() == pytest.approx(played.busy, rel=0.02)
    assert (self_time > -1e-9).all()
    metrics = tracing.round_metrics(tracer, 0, len(tracer.fid), tracer.take_counts())
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.UNITS)
    assert metrics["montecarlo.trials"] == 5 * 2000
    assert metrics["matkernel.eigendecompose.calls"] == 1


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-trials", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
