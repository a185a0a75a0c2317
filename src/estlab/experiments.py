"""Every result table estlab writes, and its CSV serialization.

Each function returns SweepResults, whose blocks hold a grid axis or a
per-curve constant once, and write_csv formats each of them once.  It
writes a single metadata comment line, 17-significant-digit floats and LF
line endings, so repeated runs are byte identical.  Each function takes
every argument: the CLI holds the defaults.  The two-outcome studies and
fig6 evaluate fisher's closed forms over whole grids at once.  Every grid
needs at least one point.

* ``fisher``  information of one model by every method that applies.
* ``simulate``  seeded Monte Carlo of one estimator, and on request its
  per-trial estimates.
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
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import __version__
from .covariance import (
    KIND_EXPONENTIAL, KIND_SOLVABLE, KIND_WHITE, Chain, CovSpec, check_model, make_covariance,
)
from .errors import InvalidSpec, finite_positive
from .fisher import (
    TwoOutcomeSpec,
    fi_eigen,
    fi_matched,
    fi_opm_solvable,
    fi_two_outcome,
    fi_wva_solvable,
    optimal_alpha,
    two_outcome_variance,
)
from .montecarlo import GENERATOR_NAME, NORMAL_METHOD, run_trials
from .partition import (
    SCHEME_ALTERNATING,
    SCHEME_BERNOULLI,
    SCHEME_DIRECT,
    SCHEME_PERIODIC,
    bernoulli_retained,
    blocks_layout,
    check_inside,
    check_seed,
    make_design,
    spin_coefficients,
    spin_model,
)


def _block_length(block: tuple) -> int:
    """Rows in a block: the length of its lists, or 1 if it holds scalars only."""
    lengths = {len(entry) for entry in block if isinstance(entry, list)}
    if len(lengths) > 1:
        raise ValueError(f"the lists of one block differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else 1


class Rows:
    """The row tuples of a result's blocks, to iterate; len() expands no block."""

    def __init__(self, blocks: list[tuple]) -> None:
        self._blocks = blocks

    def __len__(self) -> int:
        return sum(map(_block_length, self._blocks))

    def __iter__(self):
        for block in self._blocks:
            length = _block_length(block)
            yield from zip(*(e if isinstance(e, list) else repeat(e, length) for e in block))


@dataclass(frozen=True)
class SweepResult:
    """Blocks of rows; metadata records the name, parameters, seed and build.

    A block has one entry per header: a list (one cell per row, and perhaps
    shared with other blocks) or a scalar (the cell of every row).
    """

    headers: tuple[str, ...]
    blocks: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def rows(self) -> Rows:
        return Rows(self.blocks)


def _metadata(name: str, seed: int | None = None, **params) -> dict[str, str]:
    md = {"name": name, "build": __version__}
    for key in sorted(params):
        md[key] = repr(params[key])
    md["seed"] = "none" if seed is None else str(seed)
    return md


def config_digest(metadata: dict[str, str]) -> str:
    text = ";".join(f"{k}={v}" for k, v in sorted(metadata.items()) if k != "build")
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# The format of each cell type; bools and other numpy scalars are not cells.
_CELL_FORMATS = {str: "%s", float: "%.17g", np.float64: "%.17g", int: "%d", np.int64: "%d"}
_WRITE_ROWS = 1 << 14  # rows write_csv formats and joins at a time


def _cells(values, header: str) -> list[str]:
    try:
        return [_CELL_FORMATS[type(v)] % v for v in values]
    except KeyError as exc:
        raise TypeError(f"column {header!r} holds a {exc.args[0].__name__} cell; "
                        "CSV cells are str, float or int") from None


def write_csv(result: SweepResult, fh) -> None:
    """Serialize: `# estlab-version=... config=... seed=...`, headers, rows.

    A list in several blocks is formatted once; any other entry is formatted
    _WRITE_ROWS rows of its block at a time, and those rows joined.
    """
    seed = result.metadata.get("seed", "none")
    fh.write(
        f"# estlab-version={__version__} "
        f"config={config_digest(result.metadata)} seed={seed}\n"
    )
    fh.write(",".join(result.headers) + "\n")
    uses = Counter(id(e) for block in result.blocks for e in block if isinstance(e, list))
    shared = {}  # id(list) -> its cells, for lists in several blocks; all outlive the call
    for block in result.blocks:
        length = _block_length(block)
        for start in range(0, length, _WRITE_ROWS):
            part = slice(start, min(length, start + _WRITE_ROWS))
            columns = []
            for header, e in zip(result.headers, block, strict=True):
                if not isinstance(e, list):
                    columns.append(repeat(_cells([e], header)[0], part.stop - start))
                elif uses[id(e)] == 1:
                    columns.append(_cells(e[part], header))
                else:
                    if id(e) not in shared:
                        shared[id(e)] = _cells(e, header)
                    columns.append(shared[id(e)][part])
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _points(name: str, grid) -> np.ndarray:
    """A study's grid as floats; an empty one is a configuration error."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidSpec(f"the {name} grid needs at least one point")
    return grid


def _span(name: str, grid: np.ndarray) -> dict:
    """The metadata of a study's grid: its least and greatest point and its size."""
    return {f"{name}_min": float(grid.min()), f"{name}_max": float(grid.max()),
            f"{name}_points": grid.size}


# ---------------------------------------------------------------------------
# fisher / simulate: one model
# ---------------------------------------------------------------------------

def _direct_closed(
    kind: str, a: float, c: float, n: int, shift: float = 1.0
) -> tuple[float, float]:
    """(fi, var) of direct in closed form, full retention with Aw = shift; white
    noise is the solvable model with variance a + c and no common offset."""
    if kind == KIND_WHITE:
        a, c = a + c, 0.0
    return fi_wva_solvable(a, c, n, 1.0, shift)


def fisher_table(
    kind: str, a: float, c: float, n: int, eta: float | None, mean_shift: float
) -> SweepResult:
    """Rows by method: closed_form (solvable and white models), numeric_inverse
    (with fi_matched's equal-weight variance) and eigen_weighted."""
    cov = make_covariance(CovSpec(kind, a, c, n, eta=eta))
    fi, iv = fi_matched(cov, np.ones(n), mean_shift * mean_shift)
    methods = {} if kind == KIND_EXPONENTIAL else {
        "closed_form": _direct_closed(kind, a, c, n, mean_shift)}
    methods["numeric_inverse"] = float(fi), float(1.0 / iv)
    methods["eigen_weighted"] = fi_eigen(cov.spectrum(), mean_shift=mean_shift)
    return SweepResult(
        headers=("model", "method", "value", "equal_weight_variance"),
        blocks=[(kind, list(methods), *map(list, zip(*methods.values())))],
        metadata=_metadata("fisher", model=kind, a=a, c=c, n=n, eta=eta, mean_shift=mean_shift),
    )


def simulate_tables(
    kind: str, a: float, c: float, n: int, eta: float | None, scheme: str,
    gamma: float | None, phi: float | None, estimator: str, d: float, trials: int,
    seed: int, dump: bool,
) -> list[SweepResult]:
    """The summary row of seeded Monte Carlo trials, then each trial's estimate if ``dump``;
    metadata["digest"] records the run: model, design, estimator, d, trials, seed, generator."""
    spec = CovSpec(kind, a, c, n, eta=eta)
    design = make_design(n, scheme, gamma=gamma, seed=seed, phi=phi)
    ensemble = run_trials(spec, design, estimator, d_true=d, trials=trials, seed=seed)
    names = {SCHEME_DIRECT: ("retained",), SCHEME_ALTERNATING: ("plus", "minus")}.get(
        scheme, ("retained", "rejected"))
    digest = " | ".join([
        f"kind={kind} a={a!r} c={c!r} n={n}" + ("" if eta is None else f" eta={eta!r}"),
        f"scheme={scheme} n={n} channels=" + ",".join(
            f"{name}:{coef!r}" for name, coef in zip(names, (design.aw, design.awp))),
        f"estimator={estimator}", f"d_true={d!r}", f"trials={ensemble.trials}",
        f"seed={ensemble.seed}", f"rng={GENERATOR_NAME} normal={NORMAL_METHOD}",
    ])
    metadata = _metadata(
        "simulate", seed=seed, model=kind, a=a, c=c, n=n, eta=eta, scheme=design.scheme,
        gamma=gamma, phi=phi, estimator=estimator, d=d, trials=trials, digest=digest,
    )
    tables = [SweepResult(
        headers=("estimator", "scheme", "trials", "seed", "d_true",
                 "empirical_mean", "empirical_variance"),
        blocks=[(estimator, design.scheme, ensemble.trials, ensemble.seed,
                 d, ensemble.empirical_mean, ensemble.empirical_variance)],
        metadata=metadata,
    )]
    if dump:
        tables.append(SweepResult(
            headers=("trial", "estimate"),
            blocks=[(list(range(ensemble.trials)), ensemble.estimates.tolist())],
            metadata=metadata,
        ))
    return tables


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
    design = make_design(n, "blocks", gamma=gamma)
    retained = design.retained
    aw2 = 1.0 / gamma
    # Factored last, so invalid inputs are reported before a numeric failure.
    covs = [make_covariance(CovSpec(kind, a, c, n)) for kind in (KIND_WHITE, KIND_SOLVABLE)]

    # Rows are (direct, wva, opm) x (uncorrelated, correlated).  With
    # Aw^2 = 1/gamma, post-selection on white noise is the direct strategy:
    # the gamma*n retained slots, amplified by 1/gamma, carry n/(a + c).
    direct_white = _direct_closed(KIND_WHITE, a, c, n)[0]
    closed = [
        direct_white, _direct_closed(KIND_SOLVABLE, a, c, n)[0],
        direct_white, fi_wva_solvable(a, c, n, gamma, math.sqrt(aw2))[0],
        direct_white, fi_opm_solvable(a, c, n, gamma, *spin_coefficients(gamma))[0],
    ]
    numeric = [
        *(fi_matched(cov, np.ones(n))[0] for cov in covs),
        *(fi_matched(cov.restrict(retained), np.ones(retained.size), aw2)[0] for cov in covs),
        *(fi_matched(cov, design.mu_prime)[0] for cov in covs),
    ]
    rel = [abs(x - y) / abs(x) for x, y in zip(closed, numeric)]
    return SweepResult(
        headers=("strategy", "regime", "closed_form", "numeric", "rel_err", "agree"),
        blocks=[(
            ["direct", "direct", "wva", "wva", "opm", "opm"], ["uncorrelated", "correlated"] * 3,
            closed, numeric, rel, ["true" if e < 1e-8 else "false" for e in rel],
        )],
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
    x_grid = _points("x", x_grid)
    r_grid = _points("r", r_grid)
    if (np.abs(r_grid) > 0.999).any():
        raise InvalidSpec("fig2 grid must keep |r| <= 0.999")
    info = fi_two_outcome(TwoOutcomeSpec.from_xr(x_grid[:, None], r_grid))
    scaled = 1.0 / (info * np.sqrt(x_grid)[:, None])
    r_cells = r_grid.tolist()
    return SweepResult(
        headers=("x", "r", "inverse_fi_scaled"),
        blocks=[(x, r_cells, values) for x, values in zip(x_grid.tolist(), scaled.tolist())],
        metadata=_metadata("fig2", **_span("x", x_grid), **_span("r", r_grid)),
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
    alpha_grid = _points("alpha", alpha_grid)
    alpha_cells = alpha_grid.tolist()
    blocks = []
    for x, r in DEFAULT_CURVE_SPECS:
        spec = TwoOutcomeSpec.from_xr(x, r)
        alpha_star = optimal_alpha(spec)
        minimum = two_outcome_variance(spec, alpha_star)
        blocks.append((
            x, r, alpha_cells, two_outcome_variance(spec, alpha_grid).tolist(),
            float(alpha_star), float(minimum),
        ))
    return SweepResult(
        headers=("x", "r", "alpha", "variance", "alpha_star", "min_variance"),
        blocks=blocks,
        metadata=_metadata("fig345", curves=len(DEFAULT_CURVE_SPECS), **_span("alpha", alpha_grid)),
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
    phi_grid = _points("phi", phi_grid).ravel()
    a = 1.0
    c = c_over_a * a
    unit = n / a
    model = spin_model(phi_grid)
    retained = np.clip(np.rint(model.gamma * n), 1, n - 1).astype(int)
    # One pass over the mu' columns of every phi, not one solve per phi.
    layout, pair = blocks_layout(n, retained)
    numeric, _ = fi_matched(make_covariance(CovSpec(KIND_SOLVABLE, a, c, n)),
                            np.where(layout, *pair))
    total, _, terms = fi_opm_solvable(a, c, n, model.gamma, model.aw, model.awp)
    return SweepResult(
        headers=("phi", "gamma", "n_retained", "i1", "i2", "i3", "total", "total_numeric"),
        blocks=[(phi_grid.tolist(), model.gamma.tolist(), retained.tolist(),
                 *((column / unit).tolist() for column in (*terms, total, numeric)))],
        metadata=_metadata("fig6", n=n, c_over_a=c_over_a, phi_points=phi_grid.size),
    )


# ---------------------------------------------------------------------------
# fig7: exponential-correlation sweep
# ---------------------------------------------------------------------------

def retention_sets(n: int, gamma: float, scheme: str, reps: int, seed: int) -> list[np.ndarray]:
    """fig7's retention patterns as retained slots: the periodic one, or ``reps`` bernoulli ones.

    Bernoulli patterns use the seeds seed, seed + 1, ... in turn, skipping
    any that retain no slot.  That stream is fixed by (n, gamma, seed,
    reps), so one without ``reps`` non-empty patterns in its first
    100 * reps + 1 draws is a configuration error, not a numeric failure.
    """
    if reps < 1:
        raise InvalidSpec(f"reps must be at least 1, got {reps}")
    if scheme == SCHEME_PERIODIC:
        return [make_design(n, SCHEME_PERIODIC, gamma=gamma).retained]
    if scheme != SCHEME_BERNOULLI:
        raise InvalidSpec("fig7 retention scheme must be periodic or bernoulli")
    check_inside("gamma", gamma, 1.0, "1")
    sets, draw = [], 0
    while len(sets) < reps:
        retained = np.flatnonzero(bernoulli_retained(n, gamma, seed + draw))
        draw += 1
        if retained.size > 0:
            sets.append(retained)
        if draw > 100 * reps:
            raise InvalidSpec(
                f"bernoulli retention (n={n}, gamma={gamma!r}) kept no slot in "
                f"{draw - len(sets)} of {draw} patterns from seed {seed}; "
                f"{reps} non-empty patterns are needed")
    return sets


# fig7 solves at most this many (eta, slot) cells at once, about 71 B each.
BUDGET = 2**20


def _packs(sets: list[np.ndarray], cap: int) -> list[list[np.ndarray]]:
    """The sets in order, in runs of at most ``cap`` slots in all; a larger set runs alone."""
    packs, size = [], cap
    for s in sets:
        if size + s.size > cap:
            packs.append([])
            size = 0
        packs[-1].append(s)
        size += s.size
    return packs


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
    ``reps`` seeded retention patterns (fixed across eta).  Chunks of at
    most BUDGET // n etas share one covariance chain, at O(n) per eta, so
    the work arrays stay near BUDGET cells however large n is.  Per chunk,
    the retention patterns (the periodic one alone, or every bernoulli one)
    share segmented chains of one segment per pattern, each holding at
    most BUDGET // 16 // etas slots (a sixteenth of the chunk's cells)
    unless one pattern alone holds more, so a few chains cover any number
    of patterns in bounded memory.
    """
    eta_grid = _points("eta", eta_grid).ravel()
    check_model(KIND_EXPONENTIAL, a, c, n)
    seed = check_seed(seed)

    ones_and_g = np.column_stack([np.ones(n), make_design(n, "alternating").mu_prime])
    retained_sets = retention_sets(n, gamma, scheme, reps, seed)
    aw2 = n / retained_sets[0].size if scheme == SCHEME_PERIODIC else 1.0 / gamma
    step = max(1, BUDGET // n)
    chunks = []
    for k in range(0, eta_grid.size, step):
        cov = Chain(a, c, eta_grid[k:k + step], np.arange(n))
        fi, iv = fi_matched(cov, ones_and_g)
        # One (eta, pattern) pair of (fi, iv) arrays per pack of patterns.
        wva = [
            fi_matched(cov.restrict(pack), np.ones(sum(s.size for s in pack)), aw2)
            for pack in _packs(retained_sets, BUDGET // 16 // cov.eta.size)
        ]
        # The mean over a contiguous (pattern, 2, eta) array rounds as it always has.
        per_pattern = np.concatenate([np.stack([f.T, i.T], axis=1) for f, i in wva])
        chunks.append(np.vstack([fi.T, iv.T, np.mean(per_pattern, axis=0)]))
        del cov  # freed before the next chunk's chain is built
    fi_direct, fi_bgsub, iv_direct, iv_bgsub, fi_wva, iv_wva = np.hstack(chunks).tolist()
    return SweepResult(
        headers=(
            "eta",
            "fi_direct",
            "fi_wva",
            "fi_bgsub",
            "inv_var_equal_direct",
            "inv_var_equal_wva",
            "inv_var_equal_bgsub",
        ),
        blocks=[(eta_grid.tolist(), fi_direct, fi_wva, fi_bgsub, iv_direct, iv_wva, iv_bgsub)],
        metadata=_metadata(
            "fig7",
            seed=seed if scheme == SCHEME_BERNOULLI else None,
            n=n,
            a=a,
            c=c,
            gamma=gamma,
            scheme=scheme,
            reps=reps if scheme == SCHEME_BERNOULLI else 1,
            **_span("eta", eta_grid),
        ),
    )


# ---------------------------------------------------------------------------
# delta-i
# ---------------------------------------------------------------------------

def delta_i(a: float, c: float, n: int) -> float:
    """Information gap N/a - N/(a+c) between full partitioning and WVA.

    Computed as N*c/(a*(a+c)), since the difference cancels when c << a.
    It is 0 at c = 0; any other result must be a finite positive float.
    """
    if c < 0.0:
        raise InvalidSpec("delta_i requires c >= 0")
    check_model(KIND_SOLVABLE, a, c, n)
    if c == 0.0:
        return 0.0
    denom = a * (a + c)  # 0 where it underflows, at a tiny a
    return finite_positive("delta_i", n * c / denom if denom > 0.0 else math.inf)


def delta_i_summary(a: float, c: float, n: int) -> SweepResult:
    """Exact gap plus its small-offset (c = a/N) approximation 1/(a + a/N)."""
    exact = delta_i(a, c, n)
    approx = finite_positive("the small-c approximation", 1.0 / (a + a / n))
    return SweepResult(
        headers=("a", "c", "n", "delta_i_exact", "delta_i_small_c_approx"),
        blocks=[(a, c, n, exact, approx)],
        metadata=_metadata("delta_i", a=a, c=c, n=n),
    )
