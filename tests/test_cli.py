import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from estlab import __version__
from estlab.cli import main
from estlab.covariance import Chain


def read_csv(path):
    lines = path.read_text().split("\n")
    headers = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return lines[0], headers, rows


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
            (["simulate", "--model", "solvable", "--n", "10", "--estimator", "equal",
              "--scheme", "direct", "--trials", "20"], "-1"),
        ],
        ids=["simulate", "fig7-bernoulli", "env-seed"],
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

    @pytest.mark.parametrize("trials", [2**32 + 1, 100_000_000_000])
    def test_trials_beyond_spawn_keys_is_invalid_configuration(
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
        from estlab.cli import build_parser

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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "estlab", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
