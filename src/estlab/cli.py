"""Command-line front end.

Commands
--------
fisher     Fisher information of one covariance model, by every applicable
           method (closed form, numeric inversion, eigenvalue weighting).
simulate   Seeded Monte Carlo trials of one estimator on one model/design.
figure     Built-in studies fig2, fig345, fig6, fig7 (see experiments).
table1     Six-cell strategy/regime comparison on the solvable model.
delta-i    Information gap between full partitioning and weak-value
           amplification.

Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 I/O failure,
5 numeric failure during the run.  Output CSVs are written atomically
(temp file then rename); all randomness is traceable to --seed, with the
ESTLAB_SEED environment variable as fallback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import make_covariance
from .covmodel import (
    KIND_EXPONENTIAL,
    KIND_SOLVABLE,
    KIND_WHITE,
    CovSpec,
    solvable_spectrum,
)
from .errors import EstlabError
from .estimators import ESTIMATOR_NAMES, check_fits
from .experiments import (
    SweepResult,
    _metadata,
    delta_i_summary,
    fig2_surface,
    fig345_curves,
    fig6_decomposition,
    fig7_sweep,
    retention_designs,
    table1,
    write_csv,
)
from .fisher import fi_direct_numeric, fi_eigen, fi_wva_solvable
from .montecarlo import MAX_TRIALS, run_trials
from .partition import (
    SCHEME_ALTERNATING,
    SCHEME_BERNOULLI,
    SCHEME_BLOCKS,
    SCHEME_DIRECT,
    SCHEME_PERIODIC,
    direct_design,
    make_design,
    spin_model,
)

_SCHEMES = (
    SCHEME_DIRECT,
    SCHEME_BERNOULLI,
    SCHEME_PERIODIC,
    SCHEME_ALTERNATING,
    SCHEME_BLOCKS,
)


def _default_seed() -> int:
    raw = os.environ.get("ESTLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"ESTLAB_SEED must be an integer, got {raw!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-o", "--output", required=True, metavar="PATH",
        help="output CSV path (written atomically)",
    )
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="flat key=value file supplying defaults for this command's "
        "flags (explicit flags win)",
    )


def _add_model(parser: argparse.ArgumentParser, require_model: bool = True) -> None:
    parser.add_argument(
        "--model", choices=(KIND_SOLVABLE, KIND_EXPONENTIAL, KIND_WHITE),
        required=require_model, help="covariance model kind",
    )
    parser.add_argument(
        "--a", type=float, default=1.0, metavar="VAR",
        help="white-noise variance per sample (default 1.0)",
    )
    parser.add_argument(
        "--c", type=float, default=0.05, metavar="VAR",
        help="correlated-noise variance (default 0.05)",
    )
    parser.add_argument(
        "--n", type=int, default=1000, metavar="COUNT",
        help="number of measurements (default 1000)",
    )
    parser.add_argument(
        "--eta", type=float, default=None, metavar="RATIO",
        help="correlation time over sampling interval (exponential model only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="estlab",
        description="Precision of estimation strategies under correlated "
        "Gaussian noise: Fisher information, sweeps, and Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=f"estlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fisher", help="Fisher information of one covariance model"
    )
    _add_model(p)
    p.add_argument(
        "--mean-shift", type=float, default=1.0, metavar="A",
        help="per-sample mean coefficient <A> (default 1.0)",
    )
    _add_common(p)

    p = sub.add_parser(
        "simulate", help="seeded Monte Carlo trials of one estimator"
    )
    _add_model(p)
    p.add_argument(
        "--scheme", choices=_SCHEMES, default=SCHEME_DIRECT,
        help="partition design (default direct: no partitioning)",
    )
    p.add_argument(
        "--gamma", type=float, default=None, metavar="PROB",
        help="retention probability in (0, 1) for bernoulli/periodic/blocks",
    )
    p.add_argument(
        "--phi", type=float, default=None, metavar="RAD",
        help="overlap angle in (0, pi); sets channel coefficients from the "
        "two-state overlap model (and gamma, unless given)",
    )
    p.add_argument(
        "--estimator", choices=ESTIMATOR_NAMES, required=True,
        help="estimator to run",
    )
    p.add_argument(
        "--trials", type=int, default=1000, metavar="T",
        help="number of trials (default 1000)",
    )
    p.add_argument(
        "--d", type=float, default=1.0, metavar="VALUE",
        help="true parameter value (default 1.0)",
    )
    p.add_argument(
        "--seed", type=int, default=None, metavar="INT",
        help="generator seed (default: ESTLAB_SEED env var, else 0)",
    )
    p.add_argument(
        "--dump-estimates", metavar="PATH", default=None,
        help="also write the full per-trial estimate vector to this CSV",
    )
    _add_common(p)

    p = sub.add_parser("figure", help="built-in comparison studies")
    fig = p.add_subparsers(dest="which", required=True)

    f2 = fig.add_parser("fig2", help="scaled inverse information over (x, r)")
    f2.add_argument("--x-min", type=float, default=0.1, help="asymmetry grid start (>0)")
    f2.add_argument("--x-max", type=float, default=10.0, help="asymmetry grid end")
    f2.add_argument("--x-points", type=int, default=41, help="asymmetry grid size")
    f2.add_argument("--r-min", type=float, default=-0.99, help="correlation grid start (|r|<=0.999)")
    f2.add_argument("--r-max", type=float, default=0.99, help="correlation grid end")
    f2.add_argument("--r-points", type=int, default=45, help="correlation grid size")
    _add_common(f2)

    f345 = fig.add_parser("fig345", help="estimator variance versus weighting")
    f345.add_argument("--alpha-min", type=float, default=-1.5, help="weight grid start")
    f345.add_argument("--alpha-max", type=float, default=2.5, help="weight grid end")
    f345.add_argument("--alpha-points", type=int, default=201, help="weight grid size")
    _add_common(f345)

    f6 = fig.add_parser("fig6", help="two-channel information terms versus phi")
    f6.add_argument("--n", type=int, default=100, help="measurement count (default 100)")
    f6.add_argument(
        "--c-over-a", type=float, default=0.5,
        help="correlated-to-white variance ratio (default 0.5)",
    )
    f6.add_argument("--phi-points", type=int, default=100, help="phi grid size")
    _add_common(f6)

    f7 = fig.add_parser(
        "fig7", help="strategies versus correlation time (exponential model)"
    )
    f7.add_argument("--n", type=int, default=1000, help="measurement count (benchmark default 1000)")
    f7.add_argument("--a", type=float, default=1.0, help="white-noise variance (benchmark default 1.0)")
    f7.add_argument("--c", type=float, default=0.05, help="correlated variance (benchmark default 0.05)")
    f7.add_argument(
        "--gamma", type=float, default=0.005,
        help="retention probability (benchmark default 0.005)",
    )
    f7.add_argument("--eta-min", type=float, default=1e-2, help="correlation-time grid start")
    f7.add_argument("--eta-max", type=float, default=1e6, help="correlation-time grid end")
    f7.add_argument("--eta-points", type=int, default=40, help="log-spaced grid size")
    f7.add_argument(
        "--scheme", choices=(SCHEME_PERIODIC, SCHEME_BERNOULLI),
        default=SCHEME_PERIODIC,
        help="retention pattern for the weak-value column (default periodic)",
    )
    f7.add_argument(
        "--reps", type=int, default=32,
        help="bernoulli retention patterns to average over (default 32)",
    )
    f7.add_argument(
        "--seed", type=int, default=None,
        help="seed for bernoulli patterns (default: ESTLAB_SEED env var, else 0)",
    )
    _add_common(f7)

    p = sub.add_parser(
        "table1", help="six-cell strategy/regime comparison (solvable model)"
    )
    p.add_argument("--a", type=float, default=1.0, help="white-noise variance (default 1.0)")
    p.add_argument("--c", type=float, default=0.05, help="correlated variance (default 0.05)")
    p.add_argument("--n", type=int, default=1000, help="measurement count (default 1000)")
    p.add_argument(
        "--gamma", type=float, default=0.005,
        help="retention probability (default 0.005)",
    )
    _add_common(p)

    p = sub.add_parser(
        "delta-i", help="information gap between full partitioning and WVA"
    )
    p.add_argument("--a", type=float, required=True, help="white-noise variance (> 0)")
    p.add_argument("--c", type=float, required=True, help="correlated variance (>= 0)")
    p.add_argument("--n", type=int, required=True, help="measurement count (>= 1)")
    _add_common(p)

    return parser


def _load_config_tokens(argv: list[str]) -> list[str]:
    """Splice key=value file contents (if --config given) ahead of user flags."""
    argv = list(argv)
    path = None
    cleaned: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                cleaned.append(tok)
                i += 1
                continue
            path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
        else:
            cleaned.append(tok)
            i += 1
    if path is None:
        return argv
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            tokens.extend([f"--{key.strip()}", value.strip()])
    # Insert after leading positionals so explicit flags override file values.
    head = 0
    while head < len(cleaned) and not cleaned[head].startswith("-"):
        head += 1
    return cleaned[:head] + tokens + cleaned[head:]


def _make_cov_spec(args: argparse.Namespace) -> CovSpec:
    eta = args.eta if args.model == KIND_EXPONENTIAL else None
    if args.model != KIND_EXPONENTIAL and args.eta is not None:
        raise EstlabError("--eta applies to the exponential model only")
    if args.model == KIND_EXPONENTIAL and eta is None:
        raise EstlabError("the exponential model requires --eta")
    return _nonsingular(CovSpec(args.model, args.a, args.c, args.n, eta=eta))


def _nonsingular(spec: CovSpec) -> CovSpec:
    """``spec``, unless its covariance is singular by construction.

    CovSpec keeps these boundaries representable, but each covariance has a
    zero-variance direction that no command can use.
    """
    solvable = spec.kind == KIND_SOLVABLE
    if (spec.a == 0.0 and (spec.c == 0.0 or solvable)) or (
            solvable and spec.c <= -spec.a / spec.n):
        raise EstlabError(
            f"the {spec.kind} covariance with a={spec.a!r}, c={spec.c!r} is singular")
    return spec


def _fisher_result(args: argparse.Namespace, spec: CovSpec) -> SweepResult:
    shift = args.mean_shift
    cov = make_covariance(spec)
    rows = []
    # Full retention with Aw = shift is the direct strategy.
    if spec.kind == KIND_SOLVABLE:
        closed = fi_wva_solvable(spec.a, spec.c, spec.n, 1.0, shift)
        closed_ew = (spec.a / spec.n + spec.c) / (shift * shift)
        rows.append((spec.kind, "closed_form", closed, closed_ew))
        spectrum = solvable_spectrum(spec.a, spec.c, spec.n)
    elif spec.kind == KIND_WHITE:
        closed = fi_wva_solvable(spec.a + spec.c, 0.0, spec.n, 1.0, shift)
        rows.append((spec.kind, "closed_form", closed, 1.0 / closed))
        spectrum = solvable_spectrum(spec.a + spec.c, 0.0, spec.n)
    else:
        spectrum = cov.spectrum()
    numeric = fi_direct_numeric(cov, shift)
    rows.append((spec.kind, numeric.method, numeric.value, numeric.equal_weight_variance))
    eigen = fi_eigen(spectrum, spec.n, shift)
    rows.append((spec.kind, eigen.method, eigen.value, eigen.equal_weight_variance))
    return SweepResult(
        name="fisher",
        headers=("model", "method", "value", "equal_weight_variance"),
        rows=rows,
        metadata=_metadata(
            "fisher",
            model=spec.kind, a=spec.a, c=spec.c, n=spec.n,
            eta=spec.eta, mean_shift=shift,
        ),
    )


def _simulate_design(args: argparse.Namespace):
    if args.scheme == SCHEME_DIRECT:
        return direct_design(args.n)
    gamma = args.gamma
    coefficients = None
    if args.phi is not None:
        model = spin_model(args.phi)
        coefficients = (model.aw, model.awp)
        if gamma is None:
            gamma = model.gamma
    return make_design(
        args.n, args.scheme, gamma=gamma, seed=args.seed, coefficients=coefficients
    )


def _simulate_results(args: argparse.Namespace, spec: CovSpec, design):
    ensemble = run_trials(
        spec, design, args.estimator,
        d_true=args.d, trials=args.trials, seed=args.seed,
    )
    metadata = _metadata(
        "simulate",
        seed=args.seed,
        model=spec.kind, a=spec.a, c=spec.c, n=spec.n, eta=spec.eta,
        scheme=design.scheme, gamma=args.gamma, phi=args.phi,
        estimator=args.estimator, d=args.d, trials=args.trials,
        digest=ensemble.config_digest,
    )
    summary = SweepResult(
        name="simulate",
        headers=(
            "estimator", "scheme", "trials", "seed", "d_true",
            "empirical_mean", "empirical_variance",
        ),
        rows=[(
            args.estimator, design.scheme, ensemble.trials, ensemble.seed,
            args.d, ensemble.empirical_mean, ensemble.empirical_variance,
        )],
        metadata=metadata,
    )
    outputs = [(summary, Path(args.output))]
    if args.dump_estimates is not None:
        dump = SweepResult(
            name="simulate-estimates",
            headers=("trial", "estimate"),
            rows=[(t, float(v)) for t, v in enumerate(ensemble.estimates)],
            metadata=metadata,
        )
        outputs.append((dump, Path(args.dump_estimates)))
    return outputs


def _figure_result(args: argparse.Namespace) -> SweepResult:
    if args.which == "fig2":
        return fig2_surface(
            x_grid=np.logspace(
                math.log10(args.x_min), math.log10(args.x_max), args.x_points
            ),
            r_grid=np.linspace(args.r_min, args.r_max, args.r_points),
        )
    if args.which == "fig345":
        return fig345_curves(
            alpha_grid=np.linspace(args.alpha_min, args.alpha_max, args.alpha_points)
        )
    if args.which == "fig6":
        return fig6_decomposition(
            n=args.n,
            c_over_a=args.c_over_a,
            phi_grid=np.linspace(0.01, math.pi - 0.01, args.phi_points),
        )
    return fig7_sweep(
        n=args.n, a=args.a, c=args.c, gamma=args.gamma,
        eta_grid=np.logspace(
            math.log10(args.eta_min), math.log10(args.eta_max), args.eta_points
        ),
        scheme=args.scheme, reps=args.reps, seed=args.seed,
    )


def _write_atomic(result: SweepResult, path: Path) -> None:
    tmp = path.with_name(path.name + ".part")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(result, fh)
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _load_config_tokens(list(argv))
    except OSError as exc:
        print(f"estlab: cannot read config file: {exc}", file=sys.stderr)
        return 4
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if hasattr(args, "seed"):
        if args.seed is None:
            try:
                args.seed = _default_seed()
            except ValueError as exc:
                print(f"estlab: {exc}", file=sys.stderr)
                return 3
        if args.seed < 0:
            print(f"estlab: invalid configuration: seed must be >= 0, got {args.seed}",
                  file=sys.stderr)
            return 3

    # Validation phase: every parameter checked against module preconditions
    # before any work is dispatched.
    try:
        outputs: list[tuple[SweepResult, Path]] = []
        if args.command == "fisher":
            spec = _make_cov_spec(args)
            if args.mean_shift == 0.0:
                raise EstlabError("--mean-shift must be nonzero")
            runner = lambda: [(_fisher_result(args, spec), Path(args.output))]
        elif args.command == "simulate":
            spec = _make_cov_spec(args)
            design = _simulate_design(args)
            check_fits(args.estimator, spec, design)
            if args.trials < 2:
                raise EstlabError("--trials must be at least 2")
            if args.trials > MAX_TRIALS:
                raise EstlabError("--trials must be at most 2**32")
            runner = lambda: _simulate_results(args, spec, design)
        elif args.command == "figure":
            _figure_validate(args)
            runner = lambda: [(_figure_result(args), Path(args.output))]
        elif args.command == "table1":
            if not 0.0 < args.gamma < 1.0:
                raise EstlabError("--gamma must lie strictly inside (0, 1)")
            _nonsingular(CovSpec(KIND_SOLVABLE, args.a, args.c, args.n))
            _nonsingular(CovSpec(KIND_WHITE, args.a, args.c, args.n))
            make_design(args.n, SCHEME_BLOCKS, gamma=args.gamma)
            runner = lambda: [
                (table1(args.a, args.c, args.n, args.gamma), Path(args.output))
            ]
        else:
            if args.a <= 0.0 or args.c < 0.0 or args.n < 1:
                raise EstlabError("delta-i requires a > 0, c >= 0, n >= 1")
            runner = lambda: [
                (delta_i_summary(args.a, args.c, args.n), Path(args.output))
            ]
    except (EstlabError, ValueError) as exc:
        print(f"estlab: invalid configuration: {exc}", file=sys.stderr)
        return 3

    try:
        outputs = runner()
    except (EstlabError, FloatingPointError) as exc:
        print(f"estlab: numeric failure: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"estlab: I/O failure: {exc}", file=sys.stderr)
        return 4

    try:
        for result, path in outputs:
            _write_atomic(result, path)
            print(
                f"estlab: wrote {path} "
                f"({len(result.rows)} rows; {_describe(result.metadata)})",
                file=sys.stderr,
            )
    except OSError as exc:
        print(f"estlab: I/O failure: {exc}", file=sys.stderr)
        return 4
    return 0


def _figure_validate(args: argparse.Namespace) -> None:
    """Precondition checks run before any figure work is dispatched."""
    if args.which == "fig2":
        if args.x_points < 1 or args.r_points < 1:
            raise EstlabError("grid sizes must be positive")
        if args.x_min <= 0.0 or args.x_max < args.x_min:
            raise EstlabError("fig2 needs 0 < x-min <= x-max")
        if abs(args.r_min) > 0.999 or abs(args.r_max) > 0.999 or args.r_max < args.r_min:
            raise EstlabError("fig2 needs -0.999 <= r-min <= r-max <= 0.999")
    elif args.which == "fig345":
        if args.alpha_points < 1:
            raise EstlabError("grid sizes must be positive")
    elif args.which == "fig6":
        if args.phi_points < 1:
            raise EstlabError("grid sizes must be positive")
        if args.n < 2 or args.c_over_a < 0.0:
            raise EstlabError("fig6 needs n >= 2 and c-over-a >= 0")
    else:
        if args.eta_points < 1 or args.eta_min <= 0.0 or args.eta_max < args.eta_min:
            raise EstlabError(
                "fig7 needs 0 < eta-min <= eta-max and a positive grid size"
            )
        if args.reps < 1:
            raise EstlabError("--reps must be at least 1")
        if not 0.0 < args.gamma < 1.0:
            raise EstlabError("--gamma must lie strictly inside (0, 1)")
        _nonsingular(CovSpec(KIND_EXPONENTIAL, args.a, args.c, args.n, eta=1.0))
        # Only drawing the retention stream tells whether it is usable; the
        # run draws it again, at a small fraction of the sweep's cost.
        retention_designs(args.n, args.gamma, args.scheme, args.reps, args.seed)


def _describe(metadata: dict[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in metadata.items())


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
