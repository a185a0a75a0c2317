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
5 numeric failure.  The class of the error decides, not where it was raised:
a NumericFailure (valid inputs, failed computation), FloatingPointError or
MemoryError is 5, any other EstlabError 3 and an OSError 4.  The library
checks what its inputs mean, such as a covariance singular by construction
(covariance.check_model) or a negative seed (partition.check_seed); this
module checks only what lives in argv: finite float flags, an integer
ESTLAB_SEED, the grid ranges and --config written in full.  Output CSVs are
written atomically (temp file then rename); all randomness is traceable to
--seed, with the ESTLAB_SEED environment variable as fallback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import KIND_EXPONENTIAL, KIND_SOLVABLE, KIND_WHITE, CovSpec, make_covariance
from .errors import EstlabError, NumericFailure
from .estimators import ESTIMATOR_NAMES
from .experiments import (
    SweepResult,
    _metadata,
    delta_i_summary,
    fig2_surface,
    fig345_curves,
    fig6_decomposition,
    fig7_sweep,
    table1,
    write_csv,
)
from .fisher import METHOD_NUMERIC_INVERSE, FisherReport, fi_eigen, fi_matched, fi_wva_solvable
from .montecarlo import run_trials
from .partition import SCHEME_BERNOULLI, SCHEME_DIRECT, SCHEME_PERIODIC, SCHEMES, make_design


def _default_seed() -> int:
    raw = os.environ.get("ESTLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise EstlabError(f"ESTLAB_SEED must be an integer, got {raw!r}") from exc


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


def _add_acn(parser: argparse.ArgumentParser, required: bool = False) -> None:
    """--a, --c and --n; the defaults are the paper's benchmark point."""
    for flag, kind, default, metavar, text in (
        ("--a", float, 1.0, "VAR", "white-noise variance per sample"),
        ("--c", float, 0.05, "VAR", "correlated-noise variance"),
        ("--n", int, 1000, "COUNT", "number of measurements"),
    ):
        parser.add_argument(
            flag, type=kind, required=required, default=default, metavar=metavar,
            help=text if required else f"{text} (default {default})",
        )


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", choices=(KIND_SOLVABLE, KIND_EXPONENTIAL, KIND_WHITE),
        required=True, help="covariance model kind",
    )
    _add_acn(parser)
    parser.add_argument(
        "--eta", type=float, default=None, metavar="RATIO",
        help="correlation time over sampling interval (exponential model only)",
    )


# One parser per process: no default is mutable, and each parse fills a new Namespace.
@functools.cache
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
        "--scheme", choices=SCHEMES, default=SCHEME_DIRECT,
        help="partition design (default direct: no partitioning)",
    )
    p.add_argument(
        "--gamma", type=float, default=None, metavar="PROB",
        help="retention probability in (0, 1) for bernoulli/periodic/blocks",
    )
    p.add_argument(
        "--phi", type=float, default=None, metavar="RAD",
        help="overlap angle in (0, pi) for every scheme but direct; sets channel "
        "coefficients from the two-state overlap model (and gamma, unless given)",
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
    _add_acn(f7)
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
    _add_acn(p)
    p.add_argument(
        "--gamma", type=float, default=0.005,
        help="retention probability (default 0.005)",
    )
    _add_common(p)

    p = sub.add_parser(
        "delta-i", help="information gap between full partitioning and WVA"
    )
    _add_acn(p, required=True)
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


def _check_argv(args: argparse.Namespace) -> None:
    """The rules on the flags themselves: finite floats; an unset --seed takes ESTLAB_SEED."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise EstlabError(f"{flag} must be finite, got {value!r}")
    if hasattr(args, "seed") and args.seed is None:
        args.seed = _default_seed()


def _grid(name: str, lo: float, hi: float, points: int, log: bool = False) -> np.ndarray:
    """The --NAME-* grid: ``points`` values from lo to hi, log-spaced if ``log``."""
    if points < 1:
        raise EstlabError(f"--{name}-points must be at least 1, got {points}")
    if not lo <= hi:
        raise EstlabError(f"the {name} grid needs min <= max, got {lo!r} > {hi!r}")
    if not log:
        return np.linspace(lo, hi, points)
    if lo <= 0.0:
        raise EstlabError(f"the log-spaced {name} grid needs min > 0, got {lo!r}")
    return np.logspace(math.log10(lo), math.log10(hi), points)


def _fisher_result(args: argparse.Namespace) -> SweepResult:
    spec = CovSpec(args.model, args.a, args.c, args.n, eta=args.eta)
    shift = args.mean_shift
    cov = make_covariance(spec)
    # First, as it rejects a zero shift, which the closed forms divide by.
    fi, iv = fi_matched(cov, np.ones(spec.n), shift * shift)
    numeric = FisherReport(float(fi), METHOD_NUMERIC_INVERSE,
                           equal_weight_variance=float(1.0 / iv))
    rows = []
    # Full retention with Aw = shift is the direct strategy; white noise is
    # the solvable model with variance a + c and no common offset.
    if spec.kind != KIND_EXPONENTIAL:
        a, c = (spec.a, spec.c) if spec.kind == KIND_SOLVABLE else (spec.a + spec.c, 0.0)
        closed = fi_wva_solvable(a, c, spec.n, 1.0, shift)
        rows.append((spec.kind, closed.method, closed.value, closed.equal_weight_variance))
    rows.append((spec.kind, numeric.method, numeric.value, numeric.equal_weight_variance))
    eigen = fi_eigen(cov.spectrum(), mean_shift=shift)
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


def _simulate_results(args: argparse.Namespace) -> list[tuple[SweepResult, Path]]:
    spec = CovSpec(args.model, args.a, args.c, args.n, eta=args.eta)
    design = make_design(
        args.n, args.scheme, gamma=args.gamma, seed=args.seed, phi=args.phi
    )
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
            rows=list(zip(range(ensemble.trials), ensemble.estimates.tolist())),
            metadata=metadata,
        )
        outputs.append((dump, Path(args.dump_estimates)))
    return outputs


def _figure_result(args: argparse.Namespace) -> SweepResult:
    if args.which == "fig2":
        return fig2_surface(
            x_grid=_grid("x", args.x_min, args.x_max, args.x_points, log=True),
            r_grid=_grid("r", args.r_min, args.r_max, args.r_points),
        )
    if args.which == "fig345":
        return fig345_curves(
            alpha_grid=_grid("alpha", args.alpha_min, args.alpha_max, args.alpha_points)
        )
    if args.which == "fig6":
        return fig6_decomposition(
            n=args.n,
            c_over_a=args.c_over_a,
            phi_grid=_grid("phi", 0.01, math.pi - 0.01, args.phi_points),
        )
    return fig7_sweep(
        n=args.n, a=args.a, c=args.c, gamma=args.gamma,
        eta_grid=_grid("eta", args.eta_min, args.eta_max, args.eta_points, log=True),
        scheme=args.scheme, reps=args.reps, seed=args.seed,
    )


def _outputs(args: argparse.Namespace) -> list[tuple[SweepResult, Path]]:
    """Run the parsed command: each result with the path it is written to."""
    _check_argv(args)
    if args.command == "simulate":
        return _simulate_results(args)
    if args.command == "fisher":
        result = _fisher_result(args)
    elif args.command == "figure":
        result = _figure_result(args)
    elif args.command == "table1":
        result = table1(args.a, args.c, args.n, args.gamma)
    else:
        result = delta_i_summary(args.a, args.c, args.n)
    return [(result, Path(args.output))]


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
    parser = build_parser()
    try:
        args = parser.parse_args(_load_config_tokens(list(argv)))
        # Only --config spelled in full is read; argparse would take any
        # prefix of it (--conf, or --c where no --c flag exists) and ignore it.
        if args.config is not None:
            parser.error("write --config in full: an abbreviation of it is not read")
    except OSError as exc:
        print(f"estlab: cannot read config file: {exc}", file=sys.stderr)
        return 4
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for result, path in _outputs(args):
            _write_atomic(result, path)
            print(
                f"estlab: wrote {path} "
                f"({len(result.rows)} rows; {_describe(result.metadata)})",
                file=sys.stderr,
            )
    except (NumericFailure, FloatingPointError, MemoryError) as exc:
        print(f"estlab: numeric failure: {exc}", file=sys.stderr)
        return 5
    except EstlabError as exc:
        print(f"estlab: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"estlab: I/O failure: {exc}", file=sys.stderr)
        return 4
    return 0


def _describe(metadata: dict[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in metadata.items())


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
