"""Acceptance gate: each criterion checked at its stated tolerance.

Every test prints one PASS/FAIL line (run with -s to see them inline).
Seeds are frozen so the Monte Carlo criteria are reproducible.
"""

import math
import time

import numpy as np

from estlab.cli import main as cli_main
from estlab.covariance import CovSpec
from estlab.experiments import fig7_sweep, table1
from estlab.fisher import (
    TwoOutcomeSpec,
    fi_matched,
    fi_opm_solvable,
    optimal_alpha,
    two_outcome_variance,
)
from estlab.montecarlo import run_trials
from estlab.partition import make_design, spin_model

from conftest import Dense, build, column, random_spd, solvable_inverse


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_table1_reproduction():
    started = time.monotonic()
    result = table1(a=1.0, c=0.05, n=1000, gamma=0.005)
    elapsed = time.monotonic() - started

    cells = {(r[0], r[1]): r for r in result.rows}
    expected = {
        ("direct", "uncorrelated"): 952.381,
        ("wva", "uncorrelated"): 952.381,
        ("opm", "uncorrelated"): 952.381,
        ("direct", "correlated"): 19.6078,
        ("wva", "correlated"): 800.0,
        ("opm", "correlated"): 1000.0,
    }
    ok = True
    for key, target in expected.items():
        strategy, regime, closed, numeric, rel, agree = cells[key]
        ok &= abs(closed - target) <= 1e-4 * abs(target)
        ok &= abs(closed - numeric) <= 1e-8 * abs(closed)
    ok &= elapsed < 30.0
    _report(
        f"criterion 1: table1 six cells, closed vs numeric <= 1e-8, "
        f"runtime {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_2_fig7_shape():
    n, a, c, gamma = 1000, 1.0, 0.05, 0.005
    started = time.monotonic()
    sweep = fig7_sweep(n=n, a=a, c=c, gamma=gamma, eta_grid=np.logspace(-2, 6, 40),
                       scheme="periodic", reps=1, seed=0)
    elapsed = time.monotonic() - started

    eta = column(sweep, "eta")
    direct = column(sweep, "fi_direct")
    wva = column(sweep, "fi_wva")
    bgsub = column(sweep, "fi_bgsub")
    plateau = n / (a + c)
    floor = n / (a + n * c)

    ok = abs(direct[0] - plateau) <= 0.01 * plateau
    ok &= abs(direct[-1] - floor) <= 0.01 * floor
    knee = eta[direct >= 0.9 * direct[0]].max()
    ok &= 0.1 <= knee <= 10.0
    ok &= (np.abs(wva[eta <= 100.0] - plateau) <= 0.05 * plateau).all()
    ok &= (np.abs(wva[eta >= 1e5] - 800.0) <= 0.02 * 800.0).all()
    ok &= bool((bgsub >= wva).all())
    ok &= elapsed < 600.0
    _report(
        f"criterion 2: fig7 shape (knee at eta~{knee:.2f}, bgsub >= wva "
        f"everywhere), runtime {elapsed:.1f}s < 600s",
        ok,
    )


def test_criterion_3_phi_independence():
    a, c, n = 1.0, 0.5, 100
    target = n / a
    cov = Dense(build(CovSpec("solvable", a, c, n)))
    worst_closed = 0.0
    worst_numeric = 0.0
    for phi in np.linspace(0.01, math.pi - 0.01, 100):
        model = spin_model(float(phi))
        closed = fi_opm_solvable(a, c, n, model.gamma, model.aw, model.awp)[0]
        worst_closed = max(worst_closed, abs(closed - target) / target)
        n1 = min(max(int(round(model.gamma * n)), 1), n - 1)
        design = make_design(n, "blocks", gamma=n1 / n)
        numeric, _ = fi_matched(cov, design.mu_prime)
        worst_numeric = max(worst_numeric, abs(numeric - target) / target)
    ok = worst_closed < 1e-9 and worst_numeric < 1e-7
    _report(
        f"criterion 3: phi-independence (closed dev {worst_closed:.2e} < 1e-9, "
        f"numeric dev {worst_numeric:.2e} < 1e-7)",
        ok,
    )


def test_criterion_4_cramer_rao_suite():
    rng = np.random.default_rng(424242)
    worst_product = np.inf
    for _ in range(500):
        dim = int(rng.integers(1, 65))
        fi, iv = fi_matched(Dense(random_spd(dim, int(rng.integers(0, 2**31)))), np.ones(dim))
        worst_product = min(worst_product, fi / iv)
    ok = worst_product >= 1.0 - 1e-12

    worst_gap = 0.0
    for a in (0.5, 1.0, 2.0):
        for n in (2, 10, 100, 512):
            for c in (-0.4 * a / n, 0.0, 0.05, 1.5):
                fi, iv = fi_matched(Dense(build(CovSpec("solvable", a, c, n))), np.ones(n))
                worst_gap = max(worst_gap, abs(fi / iv - 1.0))
    ok &= worst_gap <= 1e-10
    _report(
        f"criterion 4: Cramer-Rao on 500 random SPD (min var*FI = "
        f"{worst_product:.15f} >= 1-1e-12) and solvable saturation "
        f"(worst gap {worst_gap:.2e} <= 1e-10)",
        ok,
    )


def test_criterion_5_monte_carlo_efficiency():
    spec = CovSpec("solvable", 1.0, 0.05, 100)
    trials = 100_000
    started = time.monotonic()

    equal = run_trials(spec, make_design(100, "direct"), "equal",
                       d_true=1.0, trials=trials, seed=20240101)
    bgsub = run_trials(
        spec, make_design(100, "alternating"), "bgsub",
        d_true=1.0, trials=trials, seed=20240102,
    )
    blocks = make_design(100, "blocks", gamma=0.5)
    ml = run_trials(spec, blocks, "ml", d_true=1.0, trials=trials, seed=20240103)
    elapsed = time.monotonic() - started

    fi_ml, _ = fi_matched(Dense(build(spec)), blocks.mu_prime)

    ok = abs(equal.empirical_variance - 0.06) <= 0.02 * 0.06
    ok &= abs(bgsub.empirical_variance - 0.01) <= 0.02 * 0.01
    ok &= abs(ml.empirical_variance - 1.0 / fi_ml) <= 0.03 / fi_ml
    for ens in (equal, bgsub, ml):
        se = math.sqrt(ens.empirical_variance / ens.trials)
        ok &= abs(ens.empirical_mean - 1.0) <= 4.0 * se
    ok &= elapsed < 300.0
    _report(
        f"criterion 5: Monte Carlo efficiency at 1e5 trials "
        f"(equal {equal.empirical_variance:.5f}~0.06, "
        f"bgsub {bgsub.empirical_variance:.5f}~0.01, "
        f"ml {ml.empirical_variance:.5f}~{1/fi_ml:.5f}), "
        f"runtime {elapsed:.0f}s < 300s",
        ok,
    )


def test_criterion_6_exact_inverse_identity():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 513))
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        if k % 3 == 0:
            c = float(-0.9 * a / n * rng.uniform(0.0, 1.0))
        else:
            c = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        product = solvable_inverse(a, c, n).entries @ build(
            CovSpec("solvable", a, c, n)
        ).entries
        worst = max(worst, np.abs(product - np.eye(n)).max())
    ok = worst <= 1e-10
    _report(
        f"criterion 6: closed-form inverse identity on 50 random triples "
        f"(worst deviation {worst:.2e} <= 1e-10)",
        ok,
    )


def test_criterion_7_two_outcome_limits():
    # Perfect anticorrelation: optimal variance vanishes.
    anti = TwoOutcomeSpec(1.0, 1.0, -1.0)
    v_anti = two_outcome_variance(anti, optimal_alpha(anti))
    ok = abs(v_anti) <= 1e-9

    # Perfect positive correlation with asymmetry: optimal variance vanishes.
    pos = TwoOutcomeSpec(4.0, 1.0, 2.0)
    v_pos = two_outcome_variance(pos, optimal_alpha(pos))
    ok &= abs(v_pos) <= 1e-9

    # Symmetric perfect correlation: every weighting is equally good, so the
    # equal weighting is optimal; off the degenerate point alpha* is 1/2.
    flat = TwoOutcomeSpec(1.0, 1.0, 1.0)
    grid = np.linspace(-1.0, 2.0, 301)
    values = np.array([two_outcome_variance(flat, al) for al in grid])
    ok &= np.abs(values - two_outcome_variance(flat, 0.5)).max() <= 1e-9
    for r in (0.0, 0.5, 0.999):
        ok &= abs(optimal_alpha(TwoOutcomeSpec(1.0, 1.0, r)) - 0.5) <= 1e-9
    _report(
        f"criterion 7: two-outcome limits (anti {v_anti:.1e}, "
        f"asymmetric-positive {v_pos:.1e}, symmetric flat curve)",
        ok,
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def data_section(path):
        return path.read_text().split("\n", 1)[1]

    ok = True
    for args in (
        ["table1", "--n", "200", "--gamma", "0.01"],
        ["simulate", "--model", "solvable", "--n", "50", "--estimator", "equal",
         "--trials", "500", "--seed", "42"],
        ["figure", "fig7", "--n", "100", "--gamma", "0.05", "--eta-points", "5"],
    ):
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        ok &= cli_main(args + ["-o", str(out1)]) == 0
        ok &= cli_main(args + ["-o", str(out2)]) == 0
        ok &= data_section(out1) == data_section(out2)
        ok &= out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    _report("criterion 8: CLI reruns are byte-identical", ok)
