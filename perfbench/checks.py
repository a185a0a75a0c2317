"""Independent checks of estlab's CSV outputs.

Every check recomputes the expected values with numpy/scipy from the call's
parameters, never through estlab.  A mismatch raises ``CheckFailed`` (the
call counts as failed); otherwise the check returns the number of output rows
that break a physical invariant.  The invariants, applied to ``fig7`` and
``fisher`` rows, are: WVA <= direct at the smallest eta, fi_bgsub >= fi_wva,
inverse equal-weight variance <= Fisher information for each strategy, and
fi_direct <= n/a.  Known program defects show up as invariant violations,
not as failed calls.

Deterministic outputs must match to 1e-8 relative or tighter, so a value
perturbed by 1e-6 relative fails.  Monte Carlo moments are checked against
the exact mean w.mu'd and variance w'Cw of the linear estimator d = w.s with
|z| <= 6, which is robust to a change of random stream.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_toeplitz

from workloads import FIG345_SPECS, Call, bernoulli_mask

# Relative slack before an invariant counts as broken: closed-form equalities
# (such as WVA = direct in the white limit) hold only to rounding.
INVARIANT_SLACK = 1e-9
Z_LIMIT = 6.0

FIG7_HEADERS = ("eta", "fi_direct", "fi_wva", "fi_bgsub",
                "inv_var_equal_direct", "inv_var_equal_wva", "inv_var_equal_bgsub")
FISHER_HEADERS = ("model", "method", "value", "equal_weight_variance")
SIMULATE_HEADERS = ("estimator", "scheme", "trials", "seed", "d_true",
                    "empirical_mean", "empirical_variance")
TABLE1_HEADERS = ("strategy", "regime", "closed_form", "numeric", "rel_err", "agree")
FIG2_HEADERS = ("x", "r", "inverse_fi_scaled")
FIG345_HEADERS = ("x", "r", "alpha", "variance", "alpha_star", "min_variance")
FIG6_HEADERS = ("phi", "gamma", "n_retained", "i1", "i2", "i3", "total", "total_numeric")
DELTA_I_HEADERS = ("a", "c", "n", "delta_i_exact", "delta_i_small_c_approx")


class CheckFailed(Exception):
    """The output is missing, malformed or disagrees with the recomputation."""


def read_csv(path: Path, headers: tuple[str, ...], numeric: bool = False):
    """Rows of an estlab CSV: a float array if ``numeric``, else lists of cells."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"cannot read output: {exc}") from exc
    lines = text.split("\n")
    if not lines[0].startswith("# estlab-version=") or lines[-1] != "" or len(lines) < 4:
        raise CheckFailed("output lacks the metadata line, rows or final newline")
    if tuple(lines[1].split(",")) != headers:
        raise CheckFailed(f"unexpected headers {lines[1]!r}")
    if numeric:
        try:
            table = np.loadtxt(lines[2:-1], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"unparsable row: {exc}") from exc
        if table.shape[1] != len(headers):
            raise CheckFailed("ragged row")
        return table
    rows = [line.split(",") for line in lines[2:-1]]
    if any(len(row) != len(headers) for row in rows):
        raise CheckFailed("ragged row")
    return rows


def _floats(rows, columns) -> np.ndarray:
    try:
        return np.array([[row[k] for k in columns] for row in rows], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"unparsable number: {exc}") from exc


def _expect(name: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        k = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(
            f"{name}: {got.ravel()[k]!r} != {want.ravel()[k]!r} (rtol {rtol})"
        )


def _exceeds(x, limit) -> np.ndarray:
    return np.asarray(x) > np.asarray(limit) * (1.0 + INVARIANT_SLACK)


def _exp_column(n: int, a: float, c: float, eta: float) -> np.ndarray:
    """First column of the Toeplitz covariance a*I + c*exp(-|i-j|/eta)."""
    col = c * np.exp(-np.arange(n) / eta)
    col[0] += a
    return col


def _toeplitz_sum(col: np.ndarray, alternating: bool = False) -> float:
    """v'Cv for the symmetric Toeplitz C with first column ``col``, in O(n).

    v is all ones, or (+1, -1, +1, ...) when ``alternating``, so that
    v_i v_j depends on the lag |i - j| only.
    """
    n = col.size
    lag_weight = 2.0 * (n - np.arange(n))
    lag_weight[0] = n
    if alternating:
        lag_weight[1::2] *= -1.0
    return float(lag_weight @ col)


def _alternating(n: int) -> np.ndarray:
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def _retained_sets(p: dict) -> list[np.ndarray]:
    n, gamma = p["n"], p["gamma"]
    if p["scheme"] == "periodic":
        return [np.flatnonzero(np.arange(n) % int(round(1.0 / gamma)) == 0)]
    # Documented bernoulli draws: seeds seed, seed+1, ..., skipping empty ones.
    sets, draw = [], 0
    while len(sets) < p["reps"]:
        idx = np.flatnonzero(bernoulli_mask(n, gamma, p["seed"] + draw))
        draw += 1
        if idx.size:
            sets.append(idx)
    return sets


def check_fig7(p: dict, path: Path) -> int:
    got = read_csv(path, FIG7_HEADERS, numeric=True)
    if len(got) != p["eta_points"]:
        raise CheckFailed(f"{len(got)} rows, expected {p['eta_points']}")
    n, a, c, gamma = p["n"], p["a"], p["c"], p["gamma"]
    etas = np.logspace(math.log10(p["eta_min"]), math.log10(p["eta_max"]), p["eta_points"])
    g = _alternating(n)
    retained = _retained_sets(p)
    want = np.empty_like(got)
    for k, eta in enumerate(etas):
        col = _exp_column(n, a, c, eta)
        solved = solve_toeplitz(col, np.column_stack([np.ones(n), g]))
        fi_wva, iv_wva = [], []
        for idx in retained:
            sub = col[np.abs(idx[:, None] - idx[None, :])]
            ones = np.ones(idx.size)
            fi_wva.append(ones @ np.linalg.solve(sub, ones) / gamma)
            iv_wva.append(idx.size ** 2 / (gamma * sub.sum()))
        want[k] = (eta, solved[:, 0].sum(), np.mean(fi_wva), g @ solved[:, 1],
                   n * n / _toeplitz_sum(col), np.mean(iv_wva),
                   n * n / _toeplitz_sum(col, alternating=True))
    _expect("fig7", got, want, rtol=1e-8)

    eta, fi_d, fi_w, fi_b, iv_d, iv_w, iv_b = got.T
    broken = (
        _exceeds(fi_w, fi_b)
        | _exceeds(iv_d, fi_d) | _exceeds(iv_w, fi_w) | _exceeds(iv_b, fi_b)
        | _exceeds(fi_d, n / a)
    )
    broken[np.argmin(eta)] |= bool(_exceeds(fi_w, fi_d)[np.argmin(eta)])
    return int(broken.sum())


def check_fisher(p: dict, path: Path) -> int:
    rows = read_csv(path, FISHER_HEADERS)
    if [row[:2] for row in rows] != [["exponential", "numeric_inverse"],
                                     ["exponential", "eigen_weighted"]]:
        raise CheckFailed("unexpected fisher rows")
    got = _floats(rows, (2, 3))
    _expect("fisher numeric vs eigen", got[1], got[0], rtol=1e-8)
    n, a = p["n"], p["a"]
    col = _exp_column(n, a, p["c"], p["eta"])
    fi = solve_toeplitz(col, np.ones(n)).sum()
    _expect("fisher", got, [[fi, _toeplitz_sum(col) / n**2]] * 2, rtol=1e-8)
    value, ew_var = got.T
    return int((_exceeds(value, n / a) | _exceeds(1.0 / ew_var, value)).sum())


def estimator_weights(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, mu', C) of the linear estimator d_hat = w.s that ``simulate`` runs."""
    n, a, c = p["n"], p["a"], p["c"]
    lags = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    cov = a * np.eye(n) + (c * np.exp(-lags / p["eta"]) if p["model"] == "exponential" else c)
    scheme, name = p["scheme"], p["estimator"]
    if scheme == "direct":
        mu = np.ones(n)
    elif scheme == "alternating":
        mu = _alternating(n)
    else:
        if scheme == "periodic":
            kept = np.arange(n) % int(round(1.0 / p["gamma"])) == 0
        else:
            kept = bernoulli_mask(n, p["gamma"], p["seed"])
        aw = math.sqrt(1.0 / p["gamma"])
        mu = aw * kept
    if name == "equal":
        w = np.full(n, 1.0 / n)
    elif name == "bgsub":
        w = mu / n
    elif name == "ml":
        y = np.linalg.solve(cov, mu)
        w = y / (y @ mu)
    else:
        m = kept.sum()
        w = kept / (aw * m)
        if name == "wva-corrected":
            w = w - aw * c * (m / n) / (a + n * c)
    return w, mu, cov


def check_simulate(p: dict, path: Path) -> int:
    rows = read_csv(path, SIMULATE_HEADERS)
    if len(rows) != 1:
        raise CheckFailed("simulate writes one summary row")
    row = rows[0]
    if row[:4] != [p["estimator"], p["scheme"], str(p["trials"]), str(p["seed"])]:
        raise CheckFailed(f"summary row {row[:4]} does not echo the call")
    d, mean, var = _floats([row], (4, 5, 6))[0]
    if d != 1.0:
        raise CheckFailed(f"d_true {d!r}, expected 1.0")
    w, mu, cov = estimator_weights(p)
    exact_mean = float(w @ mu) * d
    exact_var = float(w @ cov @ w)
    t = p["trials"]
    z_mean = (mean - exact_mean) / math.sqrt(exact_var / t)
    z_var = (var - exact_var) / (exact_var * math.sqrt(2.0 / (t - 1)))
    if not (abs(z_mean) <= Z_LIMIT and abs(z_var) <= Z_LIMIT):
        raise CheckFailed(f"Monte Carlo moments off: z_mean={z_mean:.2f} z_var={z_var:.2f}")
    return 0


def _closed_table1(a: float, c: float, n: int, gamma: float) -> list[float]:
    white = n / (a + c)
    # Rows: direct, wva, opm, each uncorrelated then correlated.
    return [white, n / (a + n * c), white, n / (a + gamma * n * c), white, n / a]


def check_table1(p: dict, path: Path) -> int:
    rows = read_csv(path, TABLE1_HEADERS)
    labels = [[s, r] for s in ("direct", "wva", "opm") for r in ("uncorrelated", "correlated")]
    if [row[:2] for row in rows] != labels:
        raise CheckFailed("unexpected table1 cells")
    if any(row[5] != "true" for row in rows):
        raise CheckFailed("table1 closed and numeric disagree")
    closed, numeric, rel = _floats(rows, (2, 3, 4)).T
    want = _closed_table1(p["a"], p["c"], p["n"], p["gamma"])
    _expect("table1 closed_form", closed, want, rtol=1e-10)
    _expect("table1 numeric", numeric, want, rtol=1e-8)
    _expect("table1 rel_err", rel, np.abs(closed - numeric) / np.abs(closed), rtol=1e-9)
    return 0


def check_fig2(p: dict, path: Path) -> int:
    got = read_csv(path, FIG2_HEADERS, numeric=True)
    x = np.repeat(np.logspace(-1.0, 1.0, p["x_points"]), p["r_points"])
    r = np.tile(np.linspace(-0.99, 0.99, p["r_points"]), p["x_points"])
    info = (x + 1.0 - 2.0 * r * np.sqrt(x)) / (x - r * r * x)
    _expect("fig2", got, np.column_stack([x, r, 1.0 / (info * np.sqrt(x))]),
            rtol=1e-10, atol=1e-15)
    return 0


def _two_outcome_variance(x, r, alpha):
    return alpha**2 * x + (1.0 - alpha) ** 2 + 2.0 * alpha * (1.0 - alpha) * r * np.sqrt(x)


def check_fig345(p: dict, path: Path) -> int:
    got = read_csv(path, FIG345_HEADERS, numeric=True)
    points = p["alpha_points"]
    x, r = np.repeat(np.array(FIG345_SPECS), points, axis=0).T
    alpha = np.tile(np.linspace(-1.5, 2.5, points), len(FIG345_SPECS))
    denom = x + 1.0 - 2.0 * r * np.sqrt(x)
    star = np.where(denom > 0.0, (1.0 - r * np.sqrt(x)) / np.where(denom > 0, denom, 1.0), 0.5)
    want = np.column_stack([x, r, alpha, _two_outcome_variance(x, r, alpha), star,
                            _two_outcome_variance(x, r, star)])
    _expect("fig345", got, want, rtol=1e-9, atol=1e-12)
    return 0


def check_fig6(p: dict, path: Path) -> int:
    got = read_csv(path, FIG6_HEADERS, numeric=True)
    n, c = p["n"], p["c_over_a"]
    phi = np.linspace(0.01, math.pi - 0.01, p["phi_points"])
    half = phi / 2.0
    gamma = np.sin(half) ** 2
    aw, awp = -1.0 / np.tan(half), np.tan(half)
    n1, n2 = gamma * n, (1.0 - gamma) * n
    denom = 1.0 + n * c  # a = 1, so the unit N/a is n
    i1 = aw**2 * n1 * (1.0 + c * n2) / denom / n
    i2 = awp**2 * n2 * (1.0 + c * n1) / denom / n
    i3 = -2.0 * c * aw * awp * n1 * n2 / denom / n
    n_kept = [min(max(int(round(gm * n)), 1), n - 1) for gm in gamma]
    ones = np.ones_like(phi)
    _expect("fig6", got[:, :6], np.column_stack([phi, gamma, n_kept, i1, i2, i3]),
            rtol=1e-9, atol=1e-12)
    _expect("fig6 totals", got[:, 6:], np.column_stack([ones, ones]), rtol=1e-9)
    return 0


def check_delta_i(p: dict, path: Path) -> int:
    got = read_csv(path, DELTA_I_HEADERS, numeric=True)
    a, c, n = p["a"], p["c"], p["n"]
    _expect("delta-i", got,
            [[a, c, n, n / a - n / (a + c), 1.0 / (a + a / n)]], rtol=1e-12)
    return 0


CHECKS = {
    "fig7": check_fig7,
    "fisher": check_fisher,
    "simulate": check_simulate,
    "table1": check_table1,
    "fig2": check_fig2,
    "fig345": check_fig345,
    "fig6": check_fig6,
    "delta-i": check_delta_i,
}


def check(call: Call, path: Path) -> int:
    """Raise CheckFailed on a wrong output; return its invariant violations."""
    return CHECKS[call.kind](call.params, path)
