"""Named parameter sweeps comparing the three estimation strategies.

Each function returns a SweepResult (headers, rows, metadata) that
write_csv serializes with a single metadata comment line, 17-significant-
digit floats and LF line endings, so repeated runs are byte identical.
Each study takes every argument: the CLI holds the defaults.  The
two-outcome studies evaluate fisher's closed forms over whole grids at once.

Built-in studies:

* ``table1``  six Fisher-information cells: {direct, wva, opm} x
  {uncorrelated, correlated} on the solvable model, each computed in closed
  form and by numeric inversion with an agreement flag.
* ``fig2``    scaled inverse information of a two-sample set over (x, r).
* ``fig345``  estimator variance versus weighting alpha for families of
  (x, r), with the optimal weight and minimum marked per curve.
* ``fig6``    block decomposition (I1, I2, I3) of the two-channel
  information versus overlap angle phi, in units of N/a.
* ``fig7``    information of all three strategies versus the dimensionless
  correlation time eta of the exponential model, plus the inverse variance
  of the matched plain-average estimator for each.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from . import __version__
from .covariance import (
    KIND_EXPONENTIAL, KIND_SOLVABLE, KIND_WHITE, Chain, CovSpec, check_model, make_covariance,
)
from .errors import DegenerateDenominator, InvalidSpec
from .fisher import (
    TwoOutcomeSpec,
    fi_matched,
    fi_opm_solvable,
    fi_two_outcome,
    fi_wva_solvable,
    optimal_alpha,
    two_outcome_variance,
)
from .partition import (
    SCHEME_BERNOULLI,
    SCHEME_PERIODIC,
    PartitionDesign,
    check_seed,
    make_design,
    spin_coefficients,
    spin_model,
)


@dataclass(frozen=True)
class SweepResult:
    """One row per grid point; metadata records parameters, seed and build."""

    name: str
    headers: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)


def _metadata(name: str, seed: int | None = None, **params) -> dict[str, str]:
    md = {"name": name, "build": __version__}
    for key in sorted(params):
        md[key] = repr(params[key])
    md["seed"] = "none" if seed is None else str(seed)
    return md


def config_digest(metadata: dict[str, str]) -> str:
    text = ";".join(f"{k}={v}" for k, v in sorted(metadata.items()) if k != "build")
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _column_format(kinds: set[type]) -> str | None:
    """The %-format that writes cells of these types as _format_cell does, or None
    for other types and mixes (bools; int with float), written cell by cell."""
    for fmt, allowed in (("%s", {str}), ("%.17g", {float, np.float64}), ("%d", {int, np.int64})):
        if kinds <= allowed:
            return fmt
    return None


def write_csv(result: SweepResult, fh) -> None:
    """Serialize: `# estlab-version=... config=... seed=...`, headers, rows."""
    seed = result.metadata.get("seed", "none")
    fh.write(
        f"# estlab-version={__version__} "
        f"config={config_digest(result.metadata)} seed={seed}\n"
    )
    fh.write(",".join(result.headers) + "\n")
    formats = [_column_format(set(map(type, map(itemgetter(k), result.rows))))
               for k in range(len(result.headers))]
    if None in formats:
        fh.writelines(",".join(map(_format_cell, row)) + "\n" for row in result.rows)
    else:
        fh.writelines(map((",".join(formats) + "\n").__mod__, result.rows))


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def table1(a: float, c: float, n: int, gamma: float) -> SweepResult:
    """Fisher information of the three strategies in both noise limits.

    The numeric twin of each closed-form cell is ``fi_matched``'s information
    of the slots the strategy reads, on the actual covariance; the WVA cells
    use the idealized amplification Aw^2 = 1/gamma, under which the closed
    WVA cell on white noise is the direct one.  Closed and numeric
    agree to 1e-8 whenever gamma*n is an integer (the retained block is then
    realizable slot for slot).  The retained block is the first channel of
    the blocks design, so gamma obeys that design's rules.
    """
    blocks = make_design(n, "blocks", gamma=gamma)
    retained = blocks.channel_slots("retained")
    aw2 = 1.0 / gamma
    # Factored last, so invalid inputs are reported before a numeric failure.
    covs = {
        "uncorrelated": make_covariance(CovSpec(KIND_WHITE, a, c, n)),
        "correlated": make_covariance(CovSpec(KIND_SOLVABLE, a, c, n)),
    }

    # Full retention with Aw = 1 is the direct strategy; white noise is the
    # solvable model with variance a + c and no common offset.  With
    # Aw^2 = 1/gamma, post-selection on white noise is the direct strategy:
    # the gamma*n retained slots, amplified by 1/gamma, carry n/(a + c).
    direct_white = fi_wva_solvable(a + c, 0.0, n, 1.0, 1.0).value
    closed = {
        ("direct", "uncorrelated"): direct_white,
        ("wva", "uncorrelated"): direct_white,
        ("opm", "uncorrelated"): direct_white,
        ("direct", "correlated"): fi_wva_solvable(a, c, n, 1.0, 1.0).value,
        ("wva", "correlated"): fi_wva_solvable(a, c, n, gamma, math.sqrt(aw2)).value,
        ("opm", "correlated"): fi_opm_solvable(a, c, n, gamma, *spin_coefficients(gamma)).value,
    }
    numeric = {}
    for regime, cov in covs.items():
        numeric["direct", regime] = fi_matched(cov, np.ones(n))[0]
        numeric["wva", regime] = fi_matched(
            cov.restrict(retained), np.ones(retained.size), aw2)[0]
        numeric["opm", regime] = fi_matched(cov, blocks.mu_prime)[0]

    rows = []
    for strategy in ("direct", "wva", "opm"):
        for regime in ("uncorrelated", "correlated"):
            cf = closed[(strategy, regime)]
            num = numeric[(strategy, regime)]
            rel = abs(cf - num) / abs(cf)
            rows.append((strategy, regime, cf, num, rel, rel < 1e-8))
    return SweepResult(
        name="table1",
        headers=("strategy", "regime", "closed_form", "numeric", "rel_err", "agree"),
        rows=rows,
        metadata=_metadata("table1", a=a, c=c, n=n, gamma=gamma),
    )


# ---------------------------------------------------------------------------
# fig2 / fig345: two-outcome studies
# ---------------------------------------------------------------------------

def fig2_surface(x_grid, r_grid) -> SweepResult:
    """Scaled inverse information over asymmetry x and correlation r.

    Values are 1/I in units of sqrt(var1*var2), i.e. with var2 = 1 and
    var1 = x the cell holds 1/(I*sqrt(x)).  The |r| = 1 boundary is excluded
    (information diverges there).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    if (np.abs(r_grid) > 0.999).any():
        raise InvalidSpec("fig2 grid must keep |r| <= 0.999")
    info = fi_two_outcome(TwoOutcomeSpec.from_xr(x_grid[:, None], r_grid))
    scaled = 1.0 / (info * np.sqrt(x_grid)[:, None])
    r_cells = r_grid.tolist()
    rows = []
    for x, values in zip(x_grid.tolist(), scaled.tolist()):
        rows.extend(zip(repeat(x), r_cells, values))
    return SweepResult(
        name="fig2",
        headers=("x", "r", "inverse_fi_scaled"),
        rows=rows,
        metadata=_metadata(
            "fig2",
            x_min=float(x_grid.min()),
            x_max=float(x_grid.max()),
            x_points=x_grid.size,
            r_min=float(r_grid.min()),
            r_max=float(r_grid.max()),
            r_points=r_grid.size,
        ),
    )


DEFAULT_CURVE_SPECS = (
    (0.25, 0.5), (0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (4.0, 0.5),
    (0.25, 1.0), (0.5, 1.0), (2.0, 1.0), (4.0, 1.0),
    (1.0, -1.0), (1.0, -0.5), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0),
)


def fig345_curves(alpha_grid) -> SweepResult:
    """Estimator variance versus weighting alpha for the DEFAULT_CURVE_SPECS.

    Each row carries the curve's optimal weight alpha_star and its minimum
    variance.  The fully degenerate curve (r = 1, x = 1) is flat; its
    alpha_star is reported as 0.5 by symmetry.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    alpha_cells = alpha_grid.tolist()
    rows = []
    for x, r in DEFAULT_CURVE_SPECS:
        spec = TwoOutcomeSpec.from_xr(x, r)
        try:
            alpha_star = optimal_alpha(spec)
        except DegenerateDenominator:
            # r = 1, x = 1: the curve is flat, every weighting is optimal.
            alpha_star = 0.5
        minimum = two_outcome_variance(spec, alpha_star)
        rows.extend(zip(
            repeat(x), repeat(r), alpha_cells, two_outcome_variance(spec, alpha_grid).tolist(),
            repeat(float(alpha_star)), repeat(float(minimum)),
        ))
    return SweepResult(
        name="fig345",
        headers=("x", "r", "alpha", "variance", "alpha_star", "min_variance"),
        rows=rows,
        metadata=_metadata(
            "fig345",
            curves=len(DEFAULT_CURVE_SPECS),
            alpha_min=float(alpha_grid.min()),
            alpha_max=float(alpha_grid.max()),
            alpha_points=alpha_grid.size,
        ),
    )


# ---------------------------------------------------------------------------
# fig6: block decomposition versus overlap angle
# ---------------------------------------------------------------------------

def fig6_decomposition(n: int, c_over_a: float, phi_grid) -> SweepResult:
    """Two-channel information terms versus phi on the solvable model.

    Columns I1, I2, I3 and their sum are in units of N/a (the uncorrelated
    information); the sum is 1.0 at every phi.  ``total_numeric`` is the
    numeric mu'C^-1 mu' of the contiguous-blocks design at the realized
    retained fraction round(gamma*n)/n, whose own closed form is also N/a.
    """
    if n < 2 or c_over_a < 0.0:
        raise InvalidSpec(f"fig6 needs n >= 2 and c_over_a >= 0, got {n}, {c_over_a}")
    phi_grid = np.asarray(phi_grid, dtype=float)
    a = 1.0
    c = c_over_a * a
    unit = n / a
    models = [spin_model(phi) for phi in phi_grid]
    retained = [min(max(int(round(m.gamma * n)), 1), n - 1) for m in models]
    # One pass over the mu' columns of every phi, not one solve per phi.
    mu_prime = np.column_stack(
        [make_design(n, "blocks", gamma=n1 / n).mu_prime for n1 in retained]
    )
    numeric, _ = fi_matched(make_covariance(CovSpec(KIND_SOLVABLE, a, c, n)), mu_prime)
    rows = []
    for phi, model, n1, total_numeric in zip(phi_grid, models, retained, numeric):
        report = fi_opm_solvable(a, c, n, model.gamma, model.aw, model.awp)
        rows.append(
            (
                phi,
                model.gamma,
                n1,
                report.terms[0] / unit,
                report.terms[1] / unit,
                report.terms[2] / unit,
                report.value / unit,
                total_numeric / unit,
            )
        )
    return SweepResult(
        name="fig6",
        headers=(
            "phi", "gamma", "n_retained", "i1", "i2", "i3", "total", "total_numeric",
        ),
        rows=rows,
        metadata=_metadata(
            "fig6", n=n, c_over_a=c_over_a, phi_points=phi_grid.size
        ),
    )


# ---------------------------------------------------------------------------
# fig7: exponential-correlation sweep
# ---------------------------------------------------------------------------

def retention_designs(
    n: int, gamma: float, scheme: str, reps: int, seed: int
) -> list[PartitionDesign]:
    """fig7's retention patterns: the periodic design, or ``reps`` bernoulli ones.

    Bernoulli patterns use the seeds seed, seed + 1, ... in turn, skipping
    any that retain no slot.  That stream is fixed by (n, gamma, seed,
    reps), so one without ``reps`` non-empty patterns in its first
    100 * reps + 1 draws is a configuration error, not a numeric failure.
    """
    if reps < 1:
        raise InvalidSpec(f"reps must be at least 1, got {reps}")
    if scheme == SCHEME_PERIODIC:
        return [make_design(n, SCHEME_PERIODIC, gamma=gamma)]
    if scheme != SCHEME_BERNOULLI:
        raise InvalidSpec("fig7 retention scheme must be periodic or bernoulli")
    designs = []
    draw = 0
    while len(designs) < reps:
        design = make_design(n, SCHEME_BERNOULLI, gamma=gamma, seed=seed + draw)
        draw += 1
        if design.channel_slots("retained").size > 0:
            designs.append(design)
        if draw > 100 * reps:
            raise InvalidSpec(
                f"bernoulli retention (n={n}, gamma={gamma!r}) kept no slot in "
                f"{draw - len(designs)} of {draw} patterns from seed {seed}; "
                f"{reps} non-empty patterns are needed")
    return designs


def fig7_sweep(
    n: int, a: float, c: float, gamma: float, eta_grid, scheme: str, reps: int, seed: int
) -> SweepResult:
    """Strategy comparison versus dimensionless correlation time eta.

    Per eta: fi_direct = 1'C^-1 1; fi_wva = Aw^2 * 1'C'^-1 1 on the
    retained slots; fi_bgsub = g'C^-1 g with alternating signs g.  The
    inv_var_equal_* columns are the inverse variances of the matched
    plain-average estimators, computed analytically as direct contractions
    of C.  The periodic scheme is deterministic and amplifies by its
    realized n/m, m retained slots of n; the bernoulli scheme keeps the
    idealized Aw^2 = 1/gamma and averages the weak-value columns over
    ``reps`` seeded retention patterns (fixed across eta).  The whole eta
    grid shares one covariance chain, at O(n) per eta.
    """
    eta_grid = np.asarray(eta_grid, dtype=float).ravel()
    check_model(KIND_EXPONENTIAL, a, c, n)
    seed = check_seed(seed)

    designs = retention_designs(n, gamma, scheme, reps, seed)
    retained_sets = [d.channel_slots("retained") for d in designs]

    g = make_design(n, "alternating").mu_prime
    cov = Chain(a, c, eta_grid, np.arange(n))
    fi, iv = fi_matched(cov, np.column_stack([np.ones(n), g]))
    fi_direct, fi_bgsub = fi.T
    iv_direct, iv_bgsub = iv.T

    # One (fi, iv) pair of per-eta arrays for each retention pattern.
    wva = [
        fi_matched(
            cov.restrict(retained), np.ones(retained.size),
            n / retained.size if scheme == SCHEME_PERIODIC else 1.0 / gamma,
        )
        for retained in retained_sets
    ]
    fi_wva, iv_wva = np.mean(wva, axis=0)

    rows = list(zip(eta_grid, fi_direct, fi_wva, fi_bgsub, iv_direct, iv_wva, iv_bgsub))
    return SweepResult(
        name="fig7",
        headers=(
            "eta",
            "fi_direct",
            "fi_wva",
            "fi_bgsub",
            "inv_var_equal_direct",
            "inv_var_equal_wva",
            "inv_var_equal_bgsub",
        ),
        rows=rows,
        metadata=_metadata(
            "fig7",
            seed=seed if scheme == SCHEME_BERNOULLI else None,
            n=n,
            a=a,
            c=c,
            gamma=gamma,
            scheme=scheme,
            reps=reps if scheme == SCHEME_BERNOULLI else 1,
            eta_min=float(eta_grid.min()),
            eta_max=float(eta_grid.max()),
            eta_points=eta_grid.size,
        ),
    )


# ---------------------------------------------------------------------------
# delta-i
# ---------------------------------------------------------------------------

def delta_i(a: float, c: float, n: int) -> float:
    """Information gap N/a - N/(a+c) between full partitioning and WVA.

    Computed as N*c/(a*(a+c)), since the difference cancels when c << a.
    """
    if c < 0.0:
        raise InvalidSpec("delta_i requires c >= 0")
    check_model(KIND_SOLVABLE, a, c, n)
    return n * c / (a * (a + c))


def delta_i_summary(a: float, c: float, n: int) -> SweepResult:
    """Exact gap plus its small-offset (c = a/N) approximation 1/(a + a/N)."""
    exact = delta_i(a, c, n)
    approx = 1.0 / (a + a / n)
    return SweepResult(
        name="delta_i",
        headers=("a", "c", "n", "delta_i_exact", "delta_i_small_c_approx"),
        rows=[(a, c, n, exact, approx)],
        metadata=_metadata("delta_i", a=a, c=c, n=n),
    )
