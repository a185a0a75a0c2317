"""estlab benchmark: seeded rounds of CLI calls, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process drives ``estlab.cli.main(argv)`` in a closed loop, one call at
a time.  A run measures set-up in fresh interpreters, plays one untimed
warm-up round, then plays whole rounds until the time spent inside calls
reaches ``--seconds``.  Every output CSV is checked independently
(see checks.py).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one untraced round is timed, the
tracer is installed and the per-layer metrics of the traced rounds are
reported instead.  The lines above it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
P90_MIN_CALLS = 100
IMPORT_PROBE = "import sys, estlab.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"


@dataclass
class RoundResult:
    latencies: list[float] = field(default_factory=list)
    units: float = 0.0
    failed: int = 0
    violations: int = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``import estlab.cli`` done."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE,
                              env=src_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"import probe failed with exit code {proc.returncode}")
    return times


class Runner:
    """Plays rounds of calls against ``cli.main`` and checks each output."""

    def __init__(self, cli, checks, out_dir: Path) -> None:
        self.cli = cli
        self.checks = checks
        self.out_dir = out_dir
        self.errors: list[str] = []

    def play(self, calls) -> RoundResult:
        result = RoundResult()
        for slot, call in enumerate(calls):
            path = self.out_dir / f"{slot}-{call.kind}.csv"
            path.unlink(missing_ok=True)
            argv = [*call.argv, "-o", str(path)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                start = perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:  # a crash is a failed call, not a failed run
                    code = traceback.format_exc()
                elapsed = perf_counter() - start
            result.latencies.append(elapsed)
            result.units += call.units
            try:
                if code != 0:
                    raise self.checks.CheckFailed(f"exit {code}: {stderr.getvalue().strip()}")
                result.violations += self.checks.check(call, path)
            except self.checks.CheckFailed as exc:
                result.failed += 1
                self.errors.append(f"{' '.join(call.argv)}: {exc}")
        return result


def play_for(runner: Runner, rounds, seconds: float, on_round=None) -> list[RoundResult]:
    """Whole rounds until the time spent inside calls reaches ``seconds``."""
    played: list[RoundResult] = []
    while not played or sum(r.busy for r in played) < seconds:
        played.append(runner.play(next(rounds)))
        if on_round is not None:
            on_round()
    return played


def report(line: str) -> None:
    print(line, flush=True)


def untraced_run(args, runner, rounds, workload, setup: list[float]):
    timed = play_for(runner, rounds, args.seconds)
    latencies = [t for r in timed for t in r.latencies]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (statistics.median(r.units / r.busy for r in timed), "1/s"),
        "call_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report(f"  setup_s              {metrics['setup_s'][0]:.4f} s   "
           f"(median of {len(setup)} fresh interpreters)")
    report(f"  work_per_s           {metrics['work_per_s'][0]:.6g} {workload.unit}/s   "
           f"(median of {len(timed)} rounds)")
    report(f"  call_p50_s           {metrics['call_p50_s'][0]:.6f} s   ({len(latencies)} calls)")
    if len(latencies) >= P90_MIN_CALLS:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        report(f"  call_p90_s           {p90:.6f} s   ({len(latencies)} calls)")
    else:
        report(f"  call_p90_s           n/a   ({len(latencies)} calls < {P90_MIN_CALLS})")
    report(f"  peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB   (ru_maxrss, 1 process)")
    return timed, metrics


def traced_run(args, runner, rounds):
    import tracing

    reference = runner.play(next(rounds))
    tracer = tracing.Tracer()
    per_round: list[dict[str, float]] = []
    bounds = [0]

    def close_round():
        hi = len(tracer.fid)
        per_round.append(tracing.round_metrics(tracer, bounds[-1], hi, tracer.take_counts()))
        bounds.append(hi)

    tracer.install()
    try:
        timed = play_for(runner, rounds, args.seconds, on_round=close_round)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{args.workload}.npz")
    metrics = {name: (statistics.median(r[name] for r in per_round), unit)
               for name, unit in tracing.UNITS.items() if name != "trace.overhead_s"}
    overhead = statistics.median(r.busy for r in timed) - reference.busy
    metrics["trace.overhead_s"] = (overhead, "s/round")
    _fid, _dur, self_time, _outer = tracer.arrays()
    report(f"  traced rounds {len(timed)}, spans {len(tracer.fid)}, self time "
           f"{self_time.sum():.4f} s of {sum(r.busy for r in timed):.4f} s in calls")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        report(f"  {name:40s} {value:.6g} {unit}{label}")
    return [reference, *timed], metrics


def run_one(args, setup: list[float]) -> int:
    # Imported only after the checkout is known to hold estlab's sources.
    sys.path.insert(0, str(SRC))
    import checks
    import envinfo
    import estlab
    import estlab.cli as cli
    from workloads import WORKLOADS, round_stream

    if Path(estlab.__file__).resolve().parent != SRC / "estlab":
        print(f"perfbench: estlab imported from {estlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    env = envinfo.record()
    report("env " + json.dumps(env, sort_keys=True))
    runner = Runner(cli, checks, out_dir)
    rounds = round_stream(args.workload, args.seed)
    warm = runner.play(next(rounds))
    report(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
           f"1 caller, {len(warm.latencies)} calls per round")
    if args.trace:
        timed, metrics = traced_run(args, runner, rounds)
    else:
        timed, metrics = untraced_run(args, runner, rounds, workload, setup)
    attempted = sum(len(r.latencies) for r in timed)
    failed = sum(r.failed for r in timed)
    report(f"  error_rate           {failed / attempted:.6g}   ({failed}/{attempted} calls)")
    report(f"  invariant_violations {warm.violations}   "
           f"(rows of the seed's first round, {len(warm.latencies)} calls)")
    for error in runner.errors:
        print(f"perfbench: failed call: {error}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        status |= subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT,
        ).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-sweep", "mc-trials", "report-mix", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "estlab" / "cli.py").is_file():
        print(f"perfbench: no estlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Set-up is timed before this process imports numpy, so it stays a cold
    # measure of what every user command pays.
    return run_one(args, [] if args.trace else measure_setup(SETUP_SAMPLES))


if __name__ == "__main__":
    sys.exit(main())
