import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_toeplitz

import estlab
from estlab import __version__
from estlab.cli import build_parser, main
from estlab.covariance import Chain
from estlab.experiments import table1, write_csv

from conftest import Dense, chain_matrix

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def read_csv(path):
    lines = path.read_text().split("\n")
    headers = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return lines[0], headers, rows


def _config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _csv_text(result):
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue()


SIMULATE_SMALL = ["simulate", "--model", "white", "--n", "4", "--estimator", "equal",
                  "--trials", "3", "--seed", "1"]


class TestParsing:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["delta-i", "--a", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "fisher" in out and "simulate" in out

    def test_subcommand_help_lists_units(self, capsys):
        assert main(["table1", "--help"]) == 0
        out = capsys.readouterr().out
        assert "variance" in out
        assert "-o" in out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestValidation:
    def test_solvable_c_below_bound(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["fisher", "--model", "solvable", "--c", "-2", "--a", "1", "--n", "3",
             "-o", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    def test_exponential_requires_eta(self, tmp_path, capsys):
        code = main(
            ["fisher", "--model", "exponential", "--a", "1", "--c", "0.1",
             "--n", "5", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 3
        capsys.readouterr()

    def test_estimator_design_mismatch(self, tmp_path, capsys):
        code = main(
            ["simulate", "--model", "solvable", "--estimator", "equal",
             "--scheme", "alternating", "--n", "10", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["fisher", "--model", "solvable", "--a", "0", "--c", "0.05", "--n", "10"],
        ["simulate", "--model", "solvable", "--a", "0", "--c", "0.05", "--n", "10",
         "--estimator", "equal", "--trials", "10"],
        ["fisher", "--model", "solvable", "--a", "1", "--c", "-0.1", "--n", "10"],
        ["simulate", "--model", "white", "--a", "0", "--c", "0", "--n", "10",
         "--estimator", "equal", "--trials", "10"],
        ["fisher", "--model", "exponential", "--a", "0", "--c", "0", "--n", "10",
         "--eta", "2"],
        ["table1", "--a", "1", "--c", "-0.1", "--n", "10"],
        ["table1", "--n", "100", "--gamma", "0.001"],
        ["figure", "fig7", "--a", "0", "--c", "0", "--n", "50"],
    ], ids=["solvable-a0-fisher", "solvable-a0-simulate", "solvable-c-boundary",
            "white-zero", "exponential-zero", "table1-c-boundary",
            "table1-empty-block", "fig7-zero"])
    def test_singular_covariance_is_invalid_configuration(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(argv + ["-o", str(out)]) == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    def test_all_empty_bernoulli_stream_is_invalid_configuration(self, tmp_path, capsys):
        # gamma * n = 0.001: every pattern the stream draws retains no slot.
        out = tmp_path / "x.csv"
        code = main(["figure", "fig7", "--scheme", "bernoulli", "--gamma", "0.0001",
                     "--n", "10", "--reps", "2", "-o", str(out)])
        assert code == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    def test_exponential_without_white_noise_is_valid(self, tmp_path, capsys):
        code = main(
            ["fisher", "--model", "exponential", "--a", "0", "--c", "0.05",
             "--n", "10", "--eta", "2", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 0
        capsys.readouterr()

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ESTLAB_SEED", "not-an-int")
        code = main(
            ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
             "--trials", "10", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,env_seed",
        [
            (["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
              "--scheme", "direct", "--trials", "20", "--seed", "-1"], None),
            (["figure", "fig7", "--scheme", "bernoulli", "--n", "50", "--reps", "2",
              "--seed", "-1"], None),
            (["figure", "fig7", "--scheme", "periodic", "--n", "50", "--seed", "-1"], None),
            (["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
              "--scheme", "direct", "--trials", "20"], "-1"),
        ],
        ids=["simulate", "fig7-bernoulli", "fig7-periodic", "env-seed"],
    )
    def test_negative_seed_is_invalid_configuration(
        self, argv, env_seed, tmp_path, capsys, monkeypatch
    ):
        if env_seed is None:
            monkeypatch.delenv("ESTLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("ESTLAB_SEED", env_seed)
        out = tmp_path / "x.csv"
        assert main(argv + ["-o", str(out)]) == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure", "fig7", "--eta-points", "0"],
        ["figure", "fig7", "--eta-min", "10", "--eta-max", "1"],
        ["figure", "fig7", "--reps", "0"],
        ["figure", "fig7", "--reps", "0", "--scheme", "bernoulli"],
        ["figure", "fig7", "--gamma", "1.2"],
        ["figure", "fig7", "--n", "1"],
        ["figure", "fig2", "--x-points", "0"],
        ["figure", "fig2", "--x-min", "0"],
        ["figure", "fig2", "--x-min", "5", "--x-max", "1"],
        ["figure", "fig2", "--r-max", "0.9995"],
        ["figure", "fig2", "--r-min", ".5", "--r-max", ".1"],
        ["figure", "fig345", "--alpha-points", "0"],
        ["figure", "fig345", "--alpha-min", "3", "--alpha-max", "1"],
        ["figure", "fig6", "--phi-points", "0"],
        ["figure", "fig6", "--n", "1"],
        ["figure", "fig6", "--c-over-a", "-0.001"],
        ["fisher", "--model", "solvable", "--n", "10", "--mean-shift", "0"],
        ["fisher", "--model", "exponential", "--eta", "3", "--n", "10", "--mean-shift", "0"],
        # The squared shift underflows to 0 (once a ZeroDivisionError, exit 1).
        ["fisher", "--model", "solvable", "--n", "10", "--mean-shift", "1e-200"],
        # The squared shift is subnormal (once exit 0, with inf variances).
        ["fisher", "--model", "solvable", "--n", "10", "--mean-shift", "1e-160"],
        ["table1", "--gamma", "1.5"],
        ["table1", "--n", "1"],
        ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
         "--trials", "1"],
        ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
         "--scheme", "direct", "--gamma", "0.3"],
        ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
         "--scheme", "direct", "--phi", "1.0"],
        ["simulate", "--model", "solvable", "--n", "10", "--estimator", "bgsub",
         "--scheme", "alternating", "--gamma", "0.3"],
        ["delta-i", "--a", "0", "--c", "1", "--n", "10"],
        ["delta-i", "--a", "1", "--c", "-0.5", "--n", "10"],
        ["delta-i", "--a", "1", "--c", "1", "--n", "0"],
    ], ids=["fig7-eta-points", "fig7-eta-reversed", "fig7-reps-periodic",
            "fig7-reps-bernoulli", "fig7-gamma", "fig7-n", "fig2-x-points",
            "fig2-x-min", "fig2-x-reversed", "fig2-r-max", "fig2-r-reversed",
            "fig345-alpha-points", "fig345-alpha-reversed", "fig6-phi-points",
            "fig6-n", "fig6-c-over-a", "fisher-mean-shift", "fisher-mean-shift-exponential",
            "fisher-mean-shift-underflow", "fisher-mean-shift-subnormal", "table1-gamma",
            "table1-n", "simulate-trials", "simulate-direct-gamma", "simulate-direct-phi",
            "simulate-alternating-gamma", "delta-i-a", "delta-i-c", "delta-i-n"])
    def test_rejected_configuration_exit_code(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(argv + ["-o", str(out)]) == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure", "fig6", "--c-over-a", "nan"],
        ["figure", "fig6", "--c-over-a", "inf"],
        ["figure", "fig7", "--eta-max", "inf"],
        ["figure", "fig7", "--eta-max", "nan"],
        ["fisher", "--model", "solvable", "--n", "10", "--mean-shift", "nan"],
        ["fisher", "--model", "solvable", "--n", "10", "--mean-shift", "inf"],
        ["delta-i", "--a", "nan", "--c", "1", "--n", "10"],
        ["delta-i", "--a", "1", "--c", "inf", "--n", "10"],
        ["figure", "fig2", "--x-min", "nan"],
        ["figure", "fig345", "--alpha-min", "nan"],
        ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
         "--trials", "10", "--d", "nan"],
    ], ids=["fig6-c-over-a-nan", "fig6-c-over-a-inf", "fig7-eta-max-inf",
            "fig7-eta-max-nan", "fisher-mean-shift-nan", "fisher-mean-shift-inf",
            "delta-i-a-nan", "delta-i-c-inf", "fig2-x-min-nan",
            "fig345-alpha-min-nan", "simulate-d-nan"])
    def test_non_finite_float_flag_is_invalid_configuration(self, argv, tmp_path,
                                                           capsys):
        out = tmp_path / "x.csv"
        assert main(argv + ["-o", str(out)]) == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fisher"],
        ["simulate", "--estimator", "ml", "--scheme", "alternating", "--trials", "10"],
    ], ids=["fisher", "simulate"])
    def test_numerically_singular_covariance_is_numeric_failure(self, argv, tmp_path,
                                                                capsys):
        # No white noise and eta >> n: singular in floating point, though not
        # by construction, so only factoring it can tell.
        model = ["--model", "exponential", "--a", "0", "--c", "1", "--eta", "1e12",
                 "--n", "2000"]
        out = tmp_path / "x.csv"
        assert main(argv + model + ["-o", str(out)]) == 5
        assert not out.exists()
        assert "numeric failure" in capsys.readouterr().err

    def test_subnormal_a_is_numeric_failure_without_a_warning(self, tmp_path, capsys):
        # E/(a + cE) overflows to inf, and inf*c at c = 0 is nan: a
        # RuntimeWarning, which the suite's filter would raise out of main.
        out = tmp_path / "x.csv"
        assert main(["fisher", "--model", "solvable", "--a", "1e-310", "--c", "0",
                     "--n", "2", "-o", str(out)]) == 5
        assert not out.exists()
        assert "effectively zero variance direction" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # a*(a + c) underflows to 0: once a ZeroDivisionError, exit 1.
        ["delta-i", "--a", "1e-310", "--c", "1e-310", "--n", "200"],
        # n*c and a*(a + c) overflow: once exit 0 with nan, then with inf.
        ["delta-i", "--a", "3", "--c", "1e308", "--n", "200"],
        ["delta-i", "--a", "1", "--c", "1e308", "--n", "1000"],
        # The information overflows at x = 1e-310: once exit 0, with a
        # RuntimeWarning and inverse_fi_scaled = 0 on those rows.
        ["figure", "fig2", "--x-min", "1e-310", "--x-points", "3", "--r-points", "3"],
    ], ids=["delta-i-underflow", "delta-i-nan", "delta-i-inf", "fig2-subnormal-x"])
    def test_result_outside_the_positive_floats_is_numeric_failure(self, argv, tmp_path,
                                                                   capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["-o", str(out)]) == 5
        assert not out.exists()
        assert "is not a finite positive float" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [2**32 + 1, 100_000_000_000])
    def test_more_than_2_pow_32_trials_is_invalid_configuration(
        self, trials, tmp_path, capsys
    ):
        # Rejected in the validation phase, before any allocation or draw.
        out = tmp_path / "x.csv"
        code = main(
            ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
             "--trials", str(trials), "--seed", "1", "-o", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err


# The same steps under the command's numeric policy: each once warned and wrote
# nan or inf (or, under -W error, left a traceback).
OVERFLOWING_ARGV = {
    "fig345-alpha-max": ["figure", "fig345", "--alpha-min", "0.005", "--alpha-max", "1e200"],
    "fisher-huge-c-subnormal-eta": ["fisher", "--model", "exponential", "--a", "2",
                                    "--c", "1e308", "--n", "50", "--eta", "5e-324"],
    "fisher-huge-a": ["fisher", "--model", "white", "--a", "1e308", "--c", "1", "--n", "50"],
    "fig7-huge-a": ["figure", "fig7", "--a", "1e308", "--c", "3", "--n", "50",
                    "--eta-points", "3"],
    "simulate-huge-d": ["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
                        "--trials", "10", "--d", "1e308"],
    # Aw = -2e160 is finite, but its square is not.
    "simulate-huge-aw": ["simulate", "--model", "white", "--a", "1", "--c", "1", "--n", "10",
                         "--scheme", "bernoulli", "--estimator", "ml", "--trials", "2",
                         "--seed", "50", "--gamma", "0.6", "--phi", "1e-160"],
    # Every r is inside 0.99, but var1*var2 - cov^2 underflows to 0 at x = 5e-324.
    "fig2-subnormal-determinant": ["figure", "fig2", "--x-min", "5e-324", "--x-points", "3",
                                   "--r-points", "3"],
}


class TestNumericPolicy:
    @pytest.mark.parametrize("argv", OVERFLOWING_ARGV.values(), ids=OVERFLOWING_ARGV.keys())
    def test_overflow_is_numeric_failure(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["-o", str(out)]) == 5
        assert not list(tmp_path.iterdir())
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--model", "solvable", "--estimator", "ml", "--scheme", "alternating",
         "--phi", "1e-310"],
        ["--model", "white", "--a", "1", "--c", "1", "--scheme", "periodic",
         "--estimator", "wva", "--gamma", "5e-324"],
    ], ids=["aw-minus-inf", "idealized-aw-inf"])
    def test_infinite_coefficient_is_invalid_configuration(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--n", "10", "--trials", "10", *argv, "-o", str(out)])
        assert code == 3
        assert not out.exists()
        assert "coefficients must be finite" in capsys.readouterr().err

    def test_subnormal_eta_is_white_noise(self, tmp_path, capsys):
        # lag = 1/eta overflows to inf, as it is at eta = 0, so K = I.  The
        # numeric_inverse row is the one earlier builds wrote; in the eigen_weighted
        # row each symmetric mode carries 2/n, so it reads 47.619047619047613 and
        # 0.021000000000000001 (47.61904761904762 and 0.020999999999999998 when
        # all n modes of the full K^-1 carried 1/n each; 50/1.05 and 0.021 exact).
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fisher", "--model", "exponential", "--a", "1", "--c", "0.05",
                         "--n", "50", "--eta", "5e-324", "-o", str(out)]) == 0
        assert out.read_text().split("\n")[1:] == [
            "model,method,value,equal_weight_variance",
            "exponential,numeric_inverse,47.619047619047613,0.020999999999999998",
            "exponential,eigen_weighted,47.619047619047613,0.021000000000000001",
            "",
        ]
        capsys.readouterr()


# Floats at the edges of the doubles, and log-uniform ones, mostly positive.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, -1e-200, 1e200, -1e200,
                     1e308, -1e308]),
    st.builds(lambda sign, power: sign * 10.0**power,
              st.sampled_from([1.0, 1.0, 1.0, -1.0]), st.floats(-12.0, 12.0)),
)
_N = st.one_of(st.integers(-1, 12), st.sampled_from([100, 1000]))
_POINTS = st.integers(0, 5)
_SEEDS = st.integers(-1, 2**64)
_MODEL = ("--model", st.sampled_from(["solvable", "exponential", "white"]))
_ACN = [("--a", _EDGE_FLOATS), ("--c", _EDGE_FLOATS), ("--n", _N)]
# Per command: its words, the flags always given (grid sizes, trials and reps
# among them, so no call runs at a default size) and the flags given or not.
_COMMANDS = {
    "fisher": (["fisher"], [_MODEL], [*_ACN, ("--eta", _EDGE_FLOATS),
                                      ("--mean-shift", _EDGE_FLOATS)]),
    "simulate": (
        ["simulate"],
        [_MODEL, ("--estimator", st.sampled_from(["equal", "ml", "wva", "bgsub",
                                                  "wva-corrected"])),
         ("--trials", st.integers(-1, 50))],
        [*_ACN, ("--eta", _EDGE_FLOATS), ("--gamma", _EDGE_FLOATS), ("--phi", _EDGE_FLOATS),
         ("--d", _EDGE_FLOATS), ("--seed", _SEEDS),
         ("--scheme", st.sampled_from(["direct", "bernoulli", "periodic", "alternating",
                                       "blocks"]))],
    ),
    "fig2": (["figure", "fig2"], [("--x-points", _POINTS), ("--r-points", _POINTS)],
             [("--x-min", _EDGE_FLOATS), ("--x-max", _EDGE_FLOATS),
              ("--r-min", _EDGE_FLOATS), ("--r-max", _EDGE_FLOATS)]),
    "fig345": (["figure", "fig345"], [("--alpha-points", _POINTS)],
               [("--alpha-min", _EDGE_FLOATS), ("--alpha-max", _EDGE_FLOATS)]),
    "fig6": (["figure", "fig6"], [("--phi-points", _POINTS)],
             [("--n", _N), ("--c-over-a", _EDGE_FLOATS)]),
    "fig7": (["figure", "fig7"], [("--eta-points", _POINTS), ("--reps", st.integers(0, 5))],
             [*_ACN, ("--gamma", _EDGE_FLOATS), ("--eta-min", _EDGE_FLOATS),
              ("--eta-max", _EDGE_FLOATS), ("--seed", _SEEDS),
              ("--scheme", st.sampled_from(["periodic", "bernoulli"]))]),
    "table1": (["table1"], [], [*_ACN, ("--gamma", _EDGE_FLOATS)]),
    "delta-i": (["delta-i"], _ACN, []),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_code_and_finite_cells_or_no_file(data, tmp_path_factory):
    words, always, optional = _COMMANDS[data.draw(st.sampled_from(sorted(_COMMANDS)))]
    flags = always + [flag for flag in optional if data.draw(st.booleans())]
    argv = words + [f"{flag}={data.draw(values)}" for flag, values in flags]
    folder = tmp_path_factory.mktemp("argv")
    outputs = [folder / "out.csv"]
    argv += ["-o", str(outputs[0])]
    if words == ["simulate"] and data.draw(st.booleans()):
        outputs.append(folder / "dump.csv")
        argv += ["--dump-estimates", str(outputs[1])]
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        assert not list(folder.iterdir())
        return
    for path in outputs:
        for line in path.read_text().splitlines()[2:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a name, such as a model or method
                assert math.isfinite(value), (argv, line)


class TestFactorsOnce:
    """Each command factors each covariance it contracts exactly once."""

    @pytest.fixture
    def factored(self, monkeypatch):
        """Dimensions of every covariance factored: a Chain factors once, when built."""
        dims = []
        original = Chain.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            dims.append(self.dim)

        monkeypatch.setattr(Chain, "__init__", counting)
        return dims

    @pytest.mark.parametrize("argv,dims", [
        (["figure", "fig6", "--phi-points", "12"], [100]),
        # Two n x n covariances and their two retained blocks.
        (["table1"], [5, 5, 1000, 1000]),
        (["simulate", "--model", "solvable", "--n", "40", "--scheme", "blocks",
          "--gamma", "0.5", "--estimator", "ml", "--trials", "50"], [40]),
    ], ids=["fig6", "table1", "simulate-ml"])
    def test_factor_count(self, argv, dims, factored, tmp_path, capsys):
        assert main(argv + ["-o", str(tmp_path / "x.csv")]) == 0
        assert sorted(factored) == dims
        capsys.readouterr()

    @pytest.mark.parametrize("points", [1, 12, 200])
    def test_fig6_contracts_every_phi_in_one_pass(self, points, monkeypatch, tmp_path,
                                                  capsys):
        passes = []
        for name in ("quad", "solve"):
            original = getattr(Chain, name)

            def counting(self, U, _original=original, _name=name):
                passes.append(_name)
                return _original(self, U)

            monkeypatch.setattr(Chain, name, counting)
        argv = ["figure", "fig6", "--phi-points", str(points), "-o", str(tmp_path / "x.csv")]
        assert main(argv) == 0
        assert passes == ["quad"]
        capsys.readouterr()


class TestCallsPerStudy:
    """A study's calls into its closed forms and designs do not grow with its grid."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls per name of the patched ``experiments`` functions."""
        import estlab.experiments as experiments

        counts = {}
        for name in ("make_design", "spin_model", "fi_opm_solvable"):
            original = getattr(experiments, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counting)
        return counts

    def test_fig6_calls_do_not_grow_with_phi_points(self, calls, tmp_path, capsys):
        seen = []
        for points in (1, 12, 200):
            calls.clear()
            assert main(["figure", "fig6", "--phi-points", str(points),
                         "-o", str(tmp_path / "x.csv")]) == 0
            seen.append(dict(calls))
        assert seen == [{"spin_model": 1, "fi_opm_solvable": 1}] * 3
        capsys.readouterr()

    def test_bernoulli_fig7_designs_do_not_grow_with_reps(self, monkeypatch, tmp_path, capsys):
        import estlab.experiments as experiments

        built = []
        original = experiments.make_design
        monkeypatch.setattr(experiments, "make_design", lambda n, scheme, **kw:
                            built.append(scheme) or original(n, scheme, **kw))
        seen = []
        for reps in (1, 32, 200):
            built.clear()
            assert main(["figure", "fig7", "--scheme", "bernoulli", "--reps", str(reps),
                         "--eta-points", "3", "--seed", "5",
                         "-o", str(tmp_path / "x.csv")]) == 0
            seen.append(list(built))
        assert seen == [["alternating"]] * 3
        capsys.readouterr()


class TestTable1Command:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        code = main(
            ["table1", "--a", "1", "--c", "0.05", "--n", "1000",
             "--gamma", "0.005", "-o", str(out)]
        )
        assert code == 0
        meta, headers, rows = read_csv(out)
        assert meta.startswith(f"# estlab-version={__version__}")
        assert headers[0] == "strategy"
        assert len(rows) == 6
        cells = {(r[0], r[1]): float(r[2]) for r in rows}
        assert cells[("wva", "correlated")] == pytest.approx(800.0)
        assert all(r[-1] == "true" for r in rows)
        capsys.readouterr()


class TestFisherCommand:
    def test_solvable_methods_agree(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = main(
            ["fisher", "--model", "solvable", "--a", "1", "--c", "0.05",
             "--n", "100", "-o", str(out)]
        )
        assert code == 0
        _, headers, rows = read_csv(out)
        values = [float(r[headers.index("value")]) for r in rows]
        assert len(rows) == 3
        assert max(values) - min(values) <= 1e-8 * max(values)
        assert values[0] == pytest.approx(100 / 6.0, rel=1e-10)
        capsys.readouterr()

    def test_solvable_numeric_row_moves_by_rounding_only(self, tmp_path):
        # At the golden's point the numeric row's equal-weight variance is
        # 1'C1/n^2 = 0.066, held to the dense matrix's correctly rounded 1'C1.
        out = tmp_path / "f.csv"
        assert main(["fisher", "--model", "solvable", "--a", "0.8", "--c", "0.05",
                     "--n", "50", "-o", str(out)]) == 0
        _, headers, rows = read_csv(out)
        row = next(r for r in rows if r[headers.index("method")] == "numeric_inverse")
        ew_var = float(row[headers.index("equal_weight_variance")])
        want = Dense(chain_matrix(0.8, 0.05, np.inf, 50)).exact_form(np.ones(50)) / 50**2
        assert abs(ew_var - want) <= 5e-15 * want

    def test_exponential_numeric_only(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = main(
            ["fisher", "--model", "exponential", "--a", "1", "--c", "0.05",
             "--n", "50", "--eta", "2.0", "-o", str(out)]
        )
        assert code == 0
        _, headers, rows = read_csv(out)
        methods = {r[headers.index("method")] for r in rows}
        assert methods == {"numeric_inverse", "eigen_weighted"}
        capsys.readouterr()

    def test_exponential_at_eta_zero_has_the_white_spectrum(self, tmp_path, capsys):
        # eta = 0 is the white model: the same closed-form spectrum, same bytes.
        rows = {}
        for model in (["white"], ["exponential", "--eta", "0"]):
            out = tmp_path / f"{model[0]}.csv"
            assert main(["fisher", "--model", *model, "--a", "1.3", "--c", "0.4",
                         "--n", "777", "-o", str(out)]) == 0
            rows[model[0]] = {r[1]: r[2:] for r in read_csv(out)[2]}
        assert rows["exponential"]["eigen_weighted"] == rows["white"]["eigen_weighted"]
        assert rows["exponential"]["numeric_inverse"] == rows["white"]["numeric_inverse"]
        capsys.readouterr()

    @pytest.mark.parametrize("eta", [1e-2, 0.37, 10.0, 123.4, 1e3, 1e4, 1e5, 1e6])
    def test_exponential_rows_match_levinson(self, tmp_path, capsys, eta):
        n, a, c = 2000, 1.3, 0.07
        out = tmp_path / "f.csv"
        code = main(
            ["fisher", "--model", "exponential", "--a", repr(a), "--c", repr(c),
             "--n", str(n), "--eta", repr(eta), "-o", str(out)]
        )
        assert code == 0
        _, headers, rows = read_csv(out)
        column = c * np.exp(-np.arange(n) / eta)
        column[0] += a
        fi = solve_toeplitz(column, np.ones(n)).sum()
        lag_weights = 2.0 * (n - np.arange(n))
        lag_weights[0] = n
        ew_var = lag_weights @ column / (n * n)
        for row in rows:
            assert float(row[headers.index("value")]) == pytest.approx(fi, rel=1e-10)
            assert float(row[headers.index("equal_weight_variance")]) == pytest.approx(
                ew_var, rel=1e-10
            )
        capsys.readouterr()

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(1e-3, 1e3),
        c=st.floats(0.0, 1e3),
        n=st.integers(1, 5000),
        shift=st.floats(0.1, 10.0),
    )
    def test_white_closed_row_moves_by_rounding_only(self, tmp_path_factory, a, c, n, shift):
        # The closed row's equal-weight variance is ((a + c)/n)/shift^2 from the
        # report; it was 1/value.  Both are exact to a few ulps.
        out = tmp_path_factory.mktemp("white") / "f.csv"
        assert main(["fisher", "--model", "white", "--a", repr(a), "--c", repr(c),
                     "--n", str(n), "--mean-shift", repr(shift), "-o", str(out)]) == 0
        _, headers, rows = read_csv(out)
        closed = next(r for r in rows if r[headers.index("method")] == "closed_form")
        value = float(closed[headers.index("value")])
        ew_var = float(closed[headers.index("equal_weight_variance")])
        assert abs(ew_var - 1.0 / value) <= 1e-15 * (1.0 / value)

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["solvable", "white", "exponential"]),
        a=st.floats(0.1, 10.0),
        c=st.floats(0.0, 2.0),
        n=st.integers(1, 500),
        shift=st.floats(0.1, 10.0),
    )
    def test_numeric_row_moves_by_rounding_only(self, tmp_path_factory, model, a, c, n, shift):
        # The numeric row's equal-weight variance is 1/iv of fi_matched; it
        # was 1'C1 / (n^2 shift^2).  The value is unchanged.
        out = tmp_path_factory.mktemp("numeric") / "f.csv"
        eta = ["--eta", "3.7"] if model == "exponential" else []
        assert main(["fisher", "--model", model, "--a", repr(a), "--c", repr(c),
                     "--n", str(n), *eta, "--mean-shift", repr(shift), "-o", str(out)]) == 0
        _, headers, rows = read_csv(out)
        row = next(r for r in rows if r[headers.index("method")] == "numeric_inverse")
        cov = Chain(a, c, {"solvable": np.inf, "white": 0.0, "exponential": 3.7}[model],
                    np.arange(n))
        ones = np.ones(n)
        assert float(row[headers.index("value")]) == shift * shift * float(cov.quad(ones))
        before = float(cov.form(ones)) / (n * n * shift * shift)
        ew_var = float(row[headers.index("equal_weight_variance")])
        assert abs(ew_var - before) <= 1e-15 * before


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "simulate", "--model", "solvable", "--a", "1", "--c", "0.05",
            "--n", "50", "--estimator", "equal", "--trials", "1000",
            "--seed", "42",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ESTLAB_SEED", "99")
        out = tmp_path / "s.csv"
        code = main(
            ["simulate", "--model", "solvable", "--n", "20", "--estimator", "equal",
             "--trials", "10", "-o", str(out)]
        )
        assert code == 0
        _, headers, rows = read_csv(out)
        assert rows[0][headers.index("seed")] == "99"
        capsys.readouterr()

    def test_dump_estimates(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        dump = tmp_path / "est.csv"
        code = main(
            ["simulate", "--model", "solvable", "--n", "20", "--estimator", "equal",
             "--trials", "25", "--seed", "1", "-o", str(out),
             "--dump-estimates", str(dump)]
        )
        assert code == 0
        _, headers, rows = read_csv(dump)
        assert headers == ["trial", "estimate"]
        assert len(rows) == 25
        _, sheaders, srows = read_csv(out)
        mean = float(srows[0][sheaders.index("empirical_mean")])
        estimates = np.array([float(r[1]) for r in rows])
        assert mean == pytest.approx(estimates.mean(), rel=1e-12)
        capsys.readouterr()

    def test_wva_with_phi(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["simulate", "--model", "solvable", "--n", "100", "--estimator", "wva",
             "--scheme", "blocks", "--phi", "0.45", "--trials", "50",
             "--seed", "3", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()


class TestFigureCommands:
    def test_fig6_sum_column(self, tmp_path, capsys):
        out = tmp_path / "f6.csv"
        code = main(["figure", "fig6", "--phi-points", "40", "-o", str(out)])
        assert code == 0
        _, headers, rows = read_csv(out)
        totals = np.array([float(r[headers.index("total")]) for r in rows])
        assert np.abs(totals - 1.0).max() <= 1e-9
        capsys.readouterr()

    def test_fig7_benchmark_defaults(self):
        args = build_parser().parse_args(["figure", "fig7", "-o", "x.csv"])
        assert args.n == 1000
        assert args.a == 1.0
        assert args.c == 0.05
        assert args.gamma == 0.005
        assert args.scheme == "periodic"

    def test_figure_grid_validation_exit_code(self, tmp_path, capsys):
        code = main(
            ["figure", "fig7", "--eta-min", "-1", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 3
        capsys.readouterr()

    def test_fig7_bernoulli_draws_retention_stream_once(self, monkeypatch, tmp_path,
                                                        capsys):
        import estlab.experiments as experiments

        drawn = []
        original = experiments.bernoulli_retained

        def counting(n, gamma, seed):
            drawn.append(seed)
            return original(n, gamma, seed)

        monkeypatch.setattr(experiments, "bernoulli_retained", counting)
        # gamma * n = 20: no pattern of the stream comes out empty.
        argv = ["figure", "fig7", "--scheme", "bernoulli", "--n", "200",
                "--gamma", "0.1", "--reps", "4", "--seed", "9", "--eta-points", "3",
                "-o", str(tmp_path / "x.csv")]
        assert main(argv) == 0
        assert drawn == [9, 10, 11, 12]
        capsys.readouterr()

    def test_fig7_defaults_periodic(self, tmp_path, capsys):
        out = tmp_path / "f7.csv"
        code = main(
            ["figure", "fig7", "--n", "100", "--gamma", "0.05",
             "--eta-points", "4", "-o", str(out)]
        )
        assert code == 0
        meta, headers, rows = read_csv(out)
        assert len(rows) == 4
        assert "seed=none" in meta  # periodic retention needs no seed
        capsys.readouterr()

    def test_fig2_grid_flags(self, tmp_path, capsys):
        out = tmp_path / "f2.csv"
        code = main(
            ["figure", "fig2", "--x-points", "3", "--r-points", "5", "-o", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 15
        capsys.readouterr()

    def test_fig345_grid_flags(self, tmp_path, capsys):
        out = tmp_path / "f345.csv"
        code = main(["figure", "fig345", "--alpha-points", "11", "-o", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 14 * 11
        capsys.readouterr()


class TestDeltaICommand:
    def test_values(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["delta-i", "--a", "1", "--c", "0.05", "--n", "1000", "-o", str(out)])
        assert code == 0
        _, headers, rows = read_csv(out)
        assert float(rows[0][headers.index("delta_i_exact")]) == pytest.approx(
            47.61904761904762
        )
        capsys.readouterr()


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=2\nc=0.1\nn=50\ngamma=0.1\n")
        out = tmp_path / "t.csv"
        code = main(["table1", "--config", str(cfg), "--c", "0.0", "-o", str(out)])
        assert code == 0
        _, headers, rows = read_csv(out)
        # c overridden to 0: every cell is n/a = 25.
        for row in rows:
            assert float(row[headers.index("closed_form")]) == pytest.approx(25.0)
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["table1", "--conf"],
        ["figure", "fig2", "--c"],
    ], ids=["table1-conf", "fig2-c"])
    def test_abbreviated_config_is_usage_error(self, argv, tmp_path, capsys):
        # argparse takes any unique prefix of --config, but only the full
        # spelling is read; an abbreviation must not run on the defaults.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=20\n")
        out = tmp_path / "t.csv"
        assert main([*argv, str(cfg), "-o", str(out)]) == 2
        assert not out.exists()
        assert "--config in full" in capsys.readouterr().err

    def test_calls_leave_each_other_their_own_values(self, tmp_path, capsys, monkeypatch):
        # One parser serves every call of a process: a call with --config
        # and calls without it, in either order, each see only their own
        # flags and the defaults.
        monkeypatch.delenv("ESTLAB_SEED", raising=False)
        assert build_parser() is build_parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=2\nc=0.1\nn=50\ngamma=0.1\n")
        calls = {
            "config": (["table1", "--config", str(cfg)], table1(2.0, 0.1, 50, 0.1)),
            "plain": (["table1"], table1(1.0, 0.05, 1000, 0.005)),
        }
        for name in ("plain", "config", "plain", "config"):
            argv, expected = calls[name]
            out = tmp_path / "t.csv"
            assert main([*argv, "-o", str(out)]) == 0
            buf = io.StringIO()
            write_csv(expected, buf)
            assert out.read_text() == buf.getvalue(), name
        # main sets an unset --seed on its Namespace, never on the parser.
        seeded = ["simulate", "--model", "white", "--n", "4", "--estimator", "equal",
                  "--trials", "2"]
        assert main([*seeded, "--seed", "5", "-o", str(tmp_path / "s.csv")]) == 0
        assert build_parser().parse_args([*seeded, "-o", "s.csv"]).seed is None
        assert main([*seeded, "-o", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "s.csv").read_text().splitlines()[0].endswith(" seed=0")
        capsys.readouterr()

    def test_equals_form(self, tmp_path, capsys):
        cfg = _config(tmp_path, "a=2\nc=0.1\nn=50\ngamma=0.1\n")
        out = tmp_path / "t.csv"
        assert main(["table1", f"--config={cfg}", "-o", str(out)]) == 0
        assert out.read_text() == _csv_text(table1(2.0, 0.1, 50, 0.1))
        capsys.readouterr()

    def test_last_of_two_config_flags_wins(self, tmp_path, capsys):
        first = _config(tmp_path, "n=50\ngamma=0.1\n", "first.cfg")
        last = _config(tmp_path, "n=20\ngamma=0.25\n", "last.cfg")
        out = tmp_path / "t.csv"
        argv = ["table1", "--config", str(first), "--config", str(last), "-o", str(out)]
        assert main(argv) == 0
        assert out.read_text() == _csv_text(table1(1.0, 0.05, 20, 0.25))
        capsys.readouterr()

    def test_file_supplies_a_required_flag(self, tmp_path, capsys):
        cfg = _config(tmp_path, "model=white\nn=10\n")
        out, plain = tmp_path / "f.csv", tmp_path / "plain.csv"
        assert main(["fisher", "--config", str(cfg), "-o", str(out)]) == 0
        assert main(["fisher", "--model", "white", "--n", "10", "-o", str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        capsys.readouterr()

    def test_comments_blank_lines_and_spaces_around_equals(self, tmp_path, capsys):
        cfg = _config(tmp_path, "# run at n=50\n\n  a = 2 \nc= 0.1\n# gamma=0.5\n"
                      "gamma =0.1\n\nn=50\n")
        out = tmp_path / "t.csv"
        assert main(["table1", "--config", str(cfg), "-o", str(out)]) == 0
        assert out.read_text() == _csv_text(table1(2.0, 0.1, 50, 0.1))
        capsys.readouterr()

    def test_explicit_flag_before_config_overrides_the_file(self, tmp_path, capsys):
        cfg = _config(tmp_path, "n=50\ngamma=0.1\n")
        out = tmp_path / "t.csv"
        assert main(["table1", "--n", "20", "--config", str(cfg), "-o", str(out)]) == 0
        assert out.read_text() == _csv_text(table1(1.0, 0.05, 20, 0.1))
        capsys.readouterr()

    def test_config_followed_by_a_flag_is_usage_error(self, tmp_path, capsys):
        # A path that starts with "-" is written --config=PATH.
        out = tmp_path / "x.csv"
        assert main(["fisher", "--model", "white", "--config", "-o", str(out)]) == 2
        assert not out.exists()
        assert "--config" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["table1", "--config", str(tmp_path / "nope.cfg"),
             "-o", str(tmp_path / "t.csv")]
        )
        assert code == 4
        capsys.readouterr()


class TestIoFailures:
    def test_unwritable_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "deep" / "t.csv"
        code = main(["delta-i", "--a", "1", "--c", "0.0", "--n", "5", "-o", str(out)])
        assert code == 4
        assert not out.exists()
        capsys.readouterr()

    def test_no_partial_file_on_failure(self, tmp_path, capsys):
        target = tmp_path / "missing" / "t.csv"
        main(["table1", "-o", str(target), "--n", "100"])
        assert not list(tmp_path.glob("**/*.part"))
        capsys.readouterr()


    def test_no_output_written_when_another_fails(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(SIMULATE_SMALL + ["-o", str(out),
                                      "--dump-estimates", str(tmp_path / "missing" / "x.csv")])
        assert code == 4
        assert not out.exists()
        assert not list(tmp_path.glob("**/*.part"))
        capsys.readouterr()

    def test_dump_to_the_output_path_keeps_the_dump(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(SIMULATE_SMALL + ["-o", str(out), "--dump-estimates", str(out)])
        assert code == 0
        _, headers, rows = read_csv(out)
        assert headers == ["trial", "estimate"]
        assert len(rows) == 3
        assert not list(tmp_path.glob("*.part"))
        capsys.readouterr()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_out_of_memory_is_numeric_failure(tmp_path):
    # 2**32 trials pass validation, then the estimate vector needs 32 GiB; the
    # child process alone is capped at 1 GiB of address space.
    out = tmp_path / "x.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(estlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "estlab", "simulate", "--model", "solvable", "--n", "10",
         "--estimator", "equal", "--trials", str(2**32), "--seed", "1", "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 5, proc.stderr
    assert "Unable to allocate" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "estlab", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
