"""The benchmark's workloads: seeded rounds of estlab CLI calls.

A round is a fixed list of calls whose sizes never change, so every round
does the same work; the workload seed only draws the parameters the program
receives (a, c, eta, grid endpoints and every ``--seed``).  Sizes and
gamma = 0.005, the paper's benchmark point, are constants.

Each call carries the parameters its output check needs, in ``params``, and
the work units it contributes to ``work_per_s``.  Floats reach the program as
``repr`` strings, which round-trip, so a check sees exactly the floats the
program parsed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

GAMMA = 0.005


@dataclass(frozen=True)
class Call:
    """One ``estlab.cli.main`` call without its ``-o`` output path."""

    kind: str
    argv: tuple[str, ...]
    units: float
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    make_round: Callable[[random.Random], list[Call]]


def _a_c(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.5, 2.0), rng.uniform(0.01, 0.1)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


def fig7_call(rng: random.Random, scheme: str, n: int, points: int, reps: int = 32) -> Call:
    a, c = _a_c(rng)
    eta_min = 1e-2 * 10.0 ** rng.uniform(-0.1, 0.1)
    eta_max = 1e6 * 10.0 ** rng.uniform(-0.1, 0.1)
    params = dict(n=n, a=a, c=c, gamma=GAMMA, eta_min=eta_min, eta_max=eta_max,
                  eta_points=points, scheme=scheme)
    argv = ["figure", "fig7", "--scheme", scheme, "--n", str(n),
            "--a", repr(a), "--c", repr(c), "--gamma", repr(GAMMA),
            "--eta-min", repr(eta_min), "--eta-max", repr(eta_max),
            "--eta-points", str(points)]
    if scheme == "bernoulli":
        params.update(reps=reps, seed=_seed(rng))
        argv += ["--reps", str(reps), "--seed", str(params["seed"])]
    return Call("fig7", tuple(argv), float(points), params)


def fisher_call(rng: random.Random, n: int) -> Call:
    a, c = _a_c(rng)
    eta = rng.uniform(10.0, 300.0)
    argv = ("fisher", "--model", "exponential", "--n", str(n),
            "--a", repr(a), "--c", repr(c), "--eta", repr(eta))
    return Call("fisher", argv, 1.0, dict(n=n, a=a, c=c, eta=eta))


def bernoulli_mask(n: int, gamma: float, seed: int) -> np.ndarray:
    """Retention mask of estlab's documented bernoulli design (PCG64 draw)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.random(n) < gamma


def simulate_call(rng: random.Random, estimator: str, scheme: str, model: str,
                  n: int, trials: int, gamma: float | None = None,
                  eta: float | None = None) -> Call:
    a, c = _a_c(rng)
    seed = _seed(rng)
    if scheme == "bernoulli":
        # An empty retention pattern is a usage error, not a measurement.
        while not bernoulli_mask(n, gamma, seed).any():
            seed = _seed(rng)
    argv = ["simulate", "--model", model, "--n", str(n), "--a", repr(a), "--c", repr(c),
            "--estimator", estimator, "--scheme", scheme,
            "--trials", str(trials), "--seed", str(seed)]
    if eta is not None:
        argv += ["--eta", repr(eta)]
    if gamma is not None:
        argv += ["--gamma", repr(gamma)]
    params = dict(model=model, n=n, a=a, c=c, eta=eta, scheme=scheme, gamma=gamma,
                  estimator=estimator, trials=trials, seed=seed)
    return Call("simulate", tuple(argv), float(trials), params)


def table1_call(rng: random.Random, n: int) -> Call:
    a, c = _a_c(rng)
    argv = ("table1", "--a", repr(a), "--c", repr(c), "--n", str(n),
            "--gamma", repr(GAMMA))
    return Call("table1", argv, 6.0, dict(n=n, a=a, c=c, gamma=GAMMA))


def fig2_call(x_points: int, r_points: int) -> Call:
    argv = ("figure", "fig2", "--x-points", str(x_points), "--r-points", str(r_points))
    return Call("fig2", argv, float(x_points * r_points),
                dict(x_points=x_points, r_points=r_points))


# estlab's built-in fig345 curve family, (x, r) per curve.
FIG345_SPECS = (
    (0.25, 0.5), (0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (4.0, 0.5),
    (0.25, 1.0), (0.5, 1.0), (2.0, 1.0), (4.0, 1.0),
    (1.0, -1.0), (1.0, -0.5), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0),
)


def fig345_call(alpha_points: int) -> Call:
    argv = ("figure", "fig345", "--alpha-points", str(alpha_points))
    return Call("fig345", argv, float(len(FIG345_SPECS) * alpha_points),
                dict(alpha_points=alpha_points))


def fig6_call(rng: random.Random, n: int, phi_points: int) -> Call:
    a, c = _a_c(rng)
    ratio = c / a
    argv = ("figure", "fig6", "--n", str(n), "--c-over-a", repr(ratio),
            "--phi-points", str(phi_points))
    return Call("fig6", argv, float(phi_points),
                dict(n=n, c_over_a=ratio, phi_points=phi_points))


def delta_i_call(rng: random.Random, n: int) -> Call:
    a, c = _a_c(rng)
    argv = ("delta-i", "--a", repr(a), "--c", repr(c), "--n", str(n))
    return Call("delta-i", argv, 1.0, dict(n=n, a=a, c=c))


def dense_sweep(rng: random.Random) -> list[Call]:
    return [
        fig7_call(rng, "periodic", n=2000, points=8),
        fig7_call(rng, "bernoulli", n=1000, points=8, reps=32),
        fisher_call(rng, n=2000),
    ]


def mc_trials(rng: random.Random) -> list[Call]:
    n, trials = 100, 2000
    return [
        simulate_call(rng, "equal", "direct", "solvable", n, trials),
        simulate_call(rng, "ml", "alternating", "exponential", n, trials, eta=10.0),
        simulate_call(rng, "wva", "periodic", "exponential", n, trials, gamma=0.05, eta=10.0),
        simulate_call(rng, "bgsub", "alternating", "solvable", n, trials),
        simulate_call(rng, "wva-corrected", "bernoulli", "solvable", n, trials, gamma=0.1),
    ]


def report_mix(rng: random.Random) -> list[Call]:
    return [
        table1_call(rng, n=1000),
        fig2_call(200, 200),
        fig345_call(2001),
        fig6_call(rng, n=200, phi_points=200),
        delta_i_call(rng, n=1000),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-sweep", "covariances", dense_sweep),
        Workload("mc-trials", "trials", mc_trials),
        Workload("report-mix", "rows", report_mix),
    )
}


def round_stream(workload: str, seed: int):
    """Endless rounds for one workload; the same seed gives the same argv."""
    rng = random.Random(f"{workload}/{seed}")
    make_round = WORKLOADS[workload].make_round
    while True:
        yield make_round(rng)
