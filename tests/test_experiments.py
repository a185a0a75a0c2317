import io
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from estlab import experiments
from estlab.cli import main
from estlab.covariance import KIND_SOLVABLE, KIND_WHITE, Chain, CovSpec, make_covariance
from estlab.errors import EstlabError, InvalidSpec, NumericFailure
from estlab.estimators import estimator_weights
from estlab.experiments import (
    DEFAULT_CURVE_SPECS,
    SweepResult,
    delta_i,
    delta_i_summary,
    fig2_surface,
    fig345_curves,
    fig6_decomposition,
    fig7_sweep,
    table1,
    write_csv,
)

from estlab.fisher import fi_opm_solvable
from estlab.montecarlo import run_trials
from estlab.partition import make_design, spin_model

from conftest import (
    Dense,
    block_terms,
    chain_matrix,
    column,
    fig2_pointwise,
    fig6_pointwise,
    fig345_pointwise,
    per_cell_csv,
)


def _csv(result) -> str:
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue()


def _cli_csv(tmp_path, argv) -> str:
    out = tmp_path / "out.csv"
    assert main([*argv, "-o", str(out)]) == 0
    return out.read_text()


class TestTable1:
    def test_benchmark_cells(self):
        result = table1(a=1.0, c=0.05, n=1000, gamma=0.005)
        cells = {(r[0], r[1]): r for r in result.rows}
        assert len(result.rows) == 6
        for strategy in ("direct", "wva", "opm"):
            assert cells[(strategy, "uncorrelated")][2] == pytest.approx(
                952.3809523809523, rel=1e-12
            )
        assert cells[("direct", "correlated")][2] == pytest.approx(
            19.607843137254903, rel=1e-12
        )
        assert cells[("wva", "correlated")][2] == pytest.approx(800.0, rel=1e-12)
        assert cells[("opm", "correlated")][2] == pytest.approx(1000.0, rel=1e-12)
        for row in result.rows:
            closed, numeric, rel, agree = row[2], row[3], row[4], row[5]
            assert agree == "true"
            assert abs(closed - numeric) <= 1e-8 * abs(closed)
            assert rel <= 1e-8

    def test_zero_c_collapses_all_cells(self):
        result = table1(a=2.0, c=0.0, n=100, gamma=0.05)
        for row in result.rows:
            assert row[2] == pytest.approx(50.0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @example(a=3.902, c=0.498, n=46, gamma=0.813)
    @given(
        a=st.floats(1e-3, 1e3),
        c=st.floats(0.0, 1e3),
        n=st.integers(2, 400),
        gamma=st.floats(1e-3, 0.999),
    )
    def test_uncorrelated_wva_cell_is_the_direct_cell(self, a, c, n, gamma):
        # With Aw^2 = 1/gamma, post-selection on white noise is the direct
        # strategy; the closed-form cells are one number, bit for bit.
        assume(1 <= round(gamma * n) <= n - 1)
        cells = {(r[0], r[1]): r[2] for r in table1(a, c, n, gamma).rows}
        assert cells[("wva", "uncorrelated")] == cells[("direct", "uncorrelated")]

    def test_opm_numeric_cells_move_by_rounding_only(self):
        # At the golden's point.  The opm cells were the sum of the numeric
        # block terms; they are now one positive-term quad.
        a, c, n, gamma = 1.3, 0.07, 300, 0.02
        cells = {(r[0], r[1]): r[3] for r in table1(a, c, n, gamma).rows}
        blocks = make_design(n, "blocks", gamma=gamma)
        for regime, kind in (("uncorrelated", KIND_WHITE), ("correlated", KIND_SOLVABLE)):
            before = sum(block_terms(make_covariance(CovSpec(kind, a, c, n)), blocks))
            assert abs(cells["opm", regime] - before) <= 1e-15 * before

    def test_opm_closed_cell_moves_by_rounding_only(self):
        # At the golden's point.  The cell was the Sherman-Morrison value; for
        # c >= 0 it is now the grouped block form, whose terms are non-negative.
        a, c, n, gamma = 1.3, 0.07, 300, 0.02
        rows = list(table1(a, c, n, gamma).rows)
        row = next(r for r in rows if r[:2] == ("opm", "correlated"))
        assert abs(row[2] - n / a) <= 1e-15 * (n / a)
        assert row[4] < 1e-12
        assert [r[5] for r in rows] == ["true"] * 6

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-1.0, 1.0).map(lambda x: 10.0**x),
        c=st.floats(-3.0, 1.0).map(lambda x: 10.0**x),
        n=st.integers(4, 5000),
        gamma=st.floats(0.01, 0.99),
    )
    @example(a=1.0, c=0.05, n=1000, gamma=0.005)
    def test_opm_numeric_cells_are_the_exact_information(self, a, c, n, gamma):
        # Blocks at the realized fraction are an exact overlap-model
        # partition: N/(a + c) on white noise and N/a on the solvable model.
        # The block-term sums were up to 3e-14 off; the quad is within 8e-15.
        assume(1 <= round(gamma * n) <= n - 1)
        cells = {(r[0], r[1]): r[3] for r in table1(a, c, n, gamma).rows}
        for regime, exact in (("uncorrelated", n / (a + c)), ("correlated", n / a)):
            assert abs(cells["opm", regime] - exact) <= 2e-14 * exact

    def test_gamma_validated(self):
        with pytest.raises(InvalidSpec):
            table1(1.0, 0.05, 1000, 1.5)
        with pytest.raises(InvalidSpec):
            table1(1.0, 0.05, 10, 0.001)


class TestFig2:
    def test_unit_symmetric_point(self):
        result = fig2_surface(x_grid=[1.0], r_grid=[0.0])
        [(_, _, value)] = result.rows
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_toward_perfect_anticorrelation(self):
        result = fig2_surface(x_grid=[1.0], r_grid=[-0.9, -0.99, -0.999])
        values = column(result, "inverse_fi_scaled")
        assert (np.diff(values) < 0.0).all()
        assert values[-1] < 5e-4

    def test_asymmetry_symmetry(self):
        # In units sqrt(var1*var2) the surface is invariant under x -> 1/x.
        result = fig2_surface(x_grid=[0.2, 5.0], r_grid=[-0.5, 0.0, 0.7])
        lookup = {(round(r[0], 12), r[1]): r[2] for r in result.rows}
        for r in (-0.5, 0.0, 0.7):
            assert lookup[(0.2, r)] == pytest.approx(lookup[(5.0, r)], rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(InvalidSpec):
            fig2_surface(x_grid=[1.0], r_grid=[0.9999])
        with pytest.raises(InvalidSpec):
            fig2_surface(x_grid=[-1.0], r_grid=[0.0])

    def test_row_count(self):
        result = fig2_surface(x_grid=np.ones(3), r_grid=np.zeros(4))
        assert len(result.rows) == 12

    def test_one_block_per_x_sharing_the_r_cells(self):
        result = fig2_surface(x_grid=[0.5, 1.0, 2.0], r_grid=[-0.5, 0.0, 0.5, 0.9])
        assert [block[0] for block in result.blocks] == [0.5, 1.0, 2.0]
        assert all(block[1] is result.blocks[0][1] for block in result.blocks)
        assert [len(block[2]) for block in result.blocks] == [4, 4, 4]

    def test_benchmark_size_is_the_pointwise_oracle(self, tmp_path, capsys):
        # The CLI's grid at the benchmark's size, evaluated point by point and
        # written cell by cell, gives the same bytes.
        x_grid, r_grid = np.logspace(-1.0, 1.0, 200), np.linspace(-0.99, 0.99, 200)
        result = fig2_surface(x_grid, r_grid)
        oracle = replace(result, blocks=fig2_pointwise(x_grid, r_grid))
        text = _cli_csv(tmp_path, ["figure", "fig2", "--x-points", "200", "--r-points", "200"])
        assert text == per_cell_csv(oracle)
        capsys.readouterr()

    @settings(max_examples=60, deadline=None)
    @given(
        x_grid=st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0**e), min_size=1, max_size=6),
        r_grid=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=6),
    )
    def test_grid_is_the_pointwise_oracle(self, x_grid, r_grid):
        result = fig2_surface(x_grid, r_grid)
        assert _csv(result) == per_cell_csv(replace(result, blocks=fig2_pointwise(x_grid, r_grid)))

    @pytest.mark.parametrize("x_grid,r_grid,message", [
        ([1.0, -2.0], [0.0], "the asymmetry x must be > 0, got -2.0"),
        ([2.0, math.nan], [0.5], "the asymmetry x must be > 0, got nan"),
        # r*sqrt(x) squares to x itself at the least subnormal x: det = 0.
        ([1.0, 5e-324], [0.999, 0.0], r"\|r\| = 1: degenerate covariance"),
    ])
    def test_rules_keep_their_messages(self, x_grid, r_grid, message):
        with pytest.raises(InvalidSpec, match=message):
            fig2_pointwise(x_grid, r_grid)
        with pytest.raises(InvalidSpec, match=message):
            fig2_surface(x_grid, r_grid)

    def test_whole_grid_names_its_smallest_bad_x(self):
        # The point-by-point loop named the first bad x in grid order.
        with pytest.raises(InvalidSpec, match="x must be > 0, got -3.0"):
            fig2_surface([1.0, -2.0, -3.0], [0.0])


def _curve(result, x, r):
    """The rows of the (x, r) curve, once per alpha."""
    rows = [row for row in result.rows if (row[0], row[1]) == (x, r)]
    return rows[: len(rows) // DEFAULT_CURVE_SPECS.count((x, r))]


class TestFig345:
    def test_equal_weight_half_correlated(self):
        row = _curve(fig345_curves(alpha_grid=[0.5]), 1.0, 0.5)[0]
        assert row[3] == pytest.approx(0.75, rel=1e-12)
        assert row[4] == pytest.approx(0.5)  # alpha_star by symmetry
        assert row[5] == pytest.approx(0.75, rel=1e-12)

    def test_degenerate_curve_is_constant_one(self):
        rows = _curve(fig345_curves(alpha_grid=np.linspace(0, 1, 11)), 1.0, 1.0)
        values = np.array([row[3] for row in rows])
        assert np.allclose(values, 1.0, rtol=1e-12)
        assert rows[0][4] == 0.5

    def test_optimum_marks_grid_minimum(self):
        grid = np.linspace(-1.5, 2.5, 401)
        result = fig345_curves(alpha_grid=grid)
        for x, r in ((4.0, 0.5), (0.25, 1.0)):
            rows = _curve(result, x, r)
            min_on_grid = min(row[3] for row in rows)
            assert rows[0][5] <= min_on_grid + 1e-12

    def test_perfect_positive_correlation_zero_minimum(self):
        row = _curve(fig345_curves(alpha_grid=[0.0]), 4.0, 1.0)[0]
        assert row[5] == pytest.approx(0.0, abs=1e-12)

    def test_default_families_row_count(self):
        result = fig345_curves(alpha_grid=np.linspace(-1.5, 2.5, 201))
        assert len(result.rows) == 14 * 201

    def test_one_block_per_curve_sharing_the_alpha_cells(self):
        result = fig345_curves(alpha_grid=np.linspace(0.0, 1.0, 5))
        assert [block[:2] for block in result.blocks] == list(DEFAULT_CURVE_SPECS)
        assert all(block[2] is result.blocks[0][2] for block in result.blocks)
        assert all(len(block[3]) == 5 and isinstance(block[4], float) for block in result.blocks)

    def test_benchmark_size_is_the_pointwise_oracle(self, tmp_path, capsys):
        alpha_grid = np.linspace(-1.5, 2.5, 2001)
        result = fig345_curves(alpha_grid)
        oracle = replace(result, blocks=fig345_pointwise(alpha_grid))
        text = _cli_csv(tmp_path, ["figure", "fig345", "--alpha-points", "2001"])
        assert text == per_cell_csv(oracle)
        capsys.readouterr()

    @settings(max_examples=60, deadline=None)
    @given(alpha_grid=st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=8))
    def test_grid_is_the_pointwise_oracle(self, alpha_grid):
        result = fig345_curves(alpha_grid)
        assert _csv(result) == per_cell_csv(replace(result, blocks=fig345_pointwise(alpha_grid)))


class TestFig6:
    def test_sum_is_unity_everywhere(self):
        result = fig6_decomposition(
            n=100, c_over_a=0.5, phi_grid=np.linspace(0.01, math.pi - 0.01, 100)
        )
        assert len(result.rows) == 100
        total = column(result, "total")
        assert np.abs(total - 1.0).max() <= 1e-9
        numeric = column(result, "total_numeric")
        assert np.abs(numeric - 1.0).max() <= 1e-7

    @pytest.mark.parametrize("n,c_over_a,points", [(40, 0.3, 12), (100, 0.5, 100)])
    def test_total_moves_by_rounding_only(self, n, c_over_a, points):
        # The total was the sum of the closed block terms; it is now the
        # Sherman-Morrison form of the same information.
        phi_grid = np.linspace(0.01, math.pi - 0.01, points)
        result = fig6_decomposition(n, c_over_a, phi_grid)
        for phi, total in zip(phi_grid, column(result, "total")):
            model = spin_model(float(phi))
            before = sum(fi_opm_solvable(1.0, c_over_a, n, model.gamma, model.aw,
                                         model.awp)[2]) / n
            assert abs(total - before) <= 1e-15 * before

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 2000),
        c_over_a=st.floats(0.0, 10.0),
        phi_grid=st.lists(st.one_of(
            st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
            st.floats(5e-324, 1e-3),
            st.floats(5e-324, 1e-3).map(lambda e: math.pi - e).filter(lambda p: p < math.pi),
        ), min_size=1, max_size=12),
    )
    @example(n=100, c_over_a=0.5, phi_grid=[1e-160, 0.5, math.nextafter(math.pi, 0.0)])
    @example(n=2, c_over_a=0.0, phi_grid=[1e-3, math.pi - 1e-3])
    def test_grid_is_the_pointwise_oracle(self, n, c_over_a, phi_grid):
        # Near 0 or pi gamma rounds to 0 or 1, or the information overflows:
        # then the grid raises the error of one of its points.
        errors = set()
        for phi in phi_grid:
            try:
                fig6_pointwise(n, c_over_a, [phi])
            except EstlabError as exc:
                errors.add((type(exc), str(exc)))
        if errors:
            with pytest.raises(EstlabError) as raised:
                fig6_decomposition(n, c_over_a, phi_grid)
            assert (type(raised.value), str(raised.value)) in errors
            return
        result = fig6_decomposition(n, c_over_a, phi_grid)
        rows = fig6_pointwise(n, c_over_a, phi_grid)
        assert _csv(result) == per_cell_csv(replace(result, blocks=rows))

    def test_small_angle_limit(self):
        result = fig6_decomposition(n=100, c_over_a=0.5, phi_grid=[0.001])
        [row] = result.rows
        i1, i2, i3 = row[3], row[4], row[5]
        assert i1 == pytest.approx(1.0, abs=1e-4)
        assert abs(i2) < 1e-6
        assert abs(i3) < 1e-3

    def test_terms_positive_shares(self):
        result = fig6_decomposition(
            n=100, c_over_a=0.5, phi_grid=np.linspace(0.3, math.pi - 0.3, 7)
        )
        for name in ("i1", "i2", "i3"):
            assert (column(result, name) > 0.0).all()


def _fig7(**given):
    """fig7_sweep at the paper's benchmark point, periodic, but for ``given``."""
    args = dict(n=1000, a=1.0, c=0.05, gamma=0.005, eta_grid=np.logspace(-2, 6, 40),
                scheme="periodic", reps=32, seed=0)
    return fig7_sweep(**{**args, **given})


@pytest.fixture(scope="module")
def sweep():
    return fig7_sweep(
        n=400, a=1.0, c=0.05, gamma=0.01,
        eta_grid=np.logspace(-3, 6, 10), scheme="periodic", reps=1, seed=0,
    )


def _fig7_golden(eta_grid):
    """fig7 at its golden's point: n=300, gamma=0.05, where n/m = 1/gamma."""
    return fig7_sweep(n=300, a=1.0, c=0.05, gamma=0.05, eta_grid=eta_grid,
                      scheme="periodic", reps=1, seed=0)


class TestFig7:
    @pytest.mark.parametrize("strategy,estimator,scheme", [
        ("direct", "equal", "direct"), ("wva", "wva", "periodic"),
        ("bgsub", "bgsub", "alternating"),
    ])
    def test_inv_var_columns_are_the_estimator_variances(self, strategy, estimator, scheme):
        # One matched-average rule: each column is 1/(w'Cw) of the weights a
        # simulate run applies.
        eta_grid = np.logspace(-2, 6, 6)
        got = column(_fig7_golden(eta_grid), f"inv_var_equal_{strategy}")
        gamma = 0.05 if scheme == "periodic" else None
        design = make_design(300, scheme, gamma=gamma)
        for eta, iv in zip(eta_grid, got):
            spec = CovSpec("exponential", 1.0, 0.05, 300, eta=float(eta))
            cov = make_covariance(spec)
            w = estimator_weights(estimator, spec, design, cov)
            assert iv == pytest.approx(1.0 / float(cov.form(w)), rel=1e-12)

    def test_inv_var_columns_move_by_rounding_only(self):
        # At the golden's point.  The columns were |mu|^4 over a u'u + c u'Ku
        # rebuilt from the model; the form is now sum_i D_i (L'u)_i^2.
        eta_grid = np.logspace(-2, 6, 6)
        result = _fig7_golden(eta_grid)
        retained = make_design(300, "periodic", gamma=0.05).channel_slots("retained")
        m = retained.size
        g = make_design(300, "alternating").mu_prime
        for k, eta in enumerate(eta_grid):
            dense = Dense(chain_matrix(1.0, 0.05, float(eta), 300))
            want = {
                "direct": 300.0**2 / dense.exact_form(np.ones(300)),
                "wva": 300 / m * m * m / dense.restrict(retained).exact_form(np.ones(m)),
                "bgsub": 300.0**2 / dense.exact_form(g),
            }
            for strategy, iv in want.items():
                got = column(result, f"inv_var_equal_{strategy}")[k]
                assert abs(got - iv) <= 5e-15 * iv

    def test_inv_var_wva_matches_simulate(self):
        # The sample variance of T estimates has variance 2 sigma^4 / (T - 1).
        sigma2 = 1.0 / column(_fig7_golden([10.0]), "inv_var_equal_wva")[0]
        spec = CovSpec("exponential", 1.0, 0.05, 300, eta=10.0)
        design = make_design(300, "periodic", gamma=0.05)
        trials = 20_000
        ens = run_trials(spec, design, "wva", d_true=1.0, trials=trials, seed=11)
        z = (ens.empirical_variance - sigma2) / (sigma2 * math.sqrt(2.0 / (trials - 1)))
        assert abs(z) < 4.0

    def test_white_limit(self, sweep):
        plateau = 400 / 1.05
        for name in ("fi_direct", "fi_wva", "fi_bgsub"):
            assert column(sweep, name)[0] == pytest.approx(plateau, rel=1e-9)

    def test_slow_noise_limit(self, sweep):
        assert column(sweep, "fi_direct")[-1] == pytest.approx(400 / 21, rel=5e-3)
        assert column(sweep, "fi_wva")[-1] == pytest.approx(400 / 1.2, rel=5e-3)
        assert column(sweep, "fi_bgsub")[-1] == pytest.approx(400.0, rel=5e-3)

    def test_monotone_directions(self, sweep):
        direct = column(sweep, "fi_direct")
        wva = column(sweep, "fi_wva")
        bgsub = column(sweep, "fi_bgsub")
        assert (np.diff(direct) <= 1e-12 * direct[:-1]).all()
        assert (np.diff(wva) <= 1e-12 * wva[:-1]).all()
        # Alternating signs turn slow correlations into an asset, so the
        # background-subtraction information grows toward its N/a ceiling.
        assert (np.diff(bgsub) >= -1e-12 * bgsub[:-1]).all()
        assert bgsub.min() >= 400 / 1.1 - 1e-9  # floor n/(a+2c)

    def test_bgsub_dominates_wva(self, sweep):
        assert (column(sweep, "fi_bgsub") >= column(sweep, "fi_wva")).all()

    def test_equal_weight_matches_information_in_both_limits(self, sweep):
        for fi_name, iv_name in (
            ("fi_direct", "inv_var_equal_direct"),
            ("fi_wva", "inv_var_equal_wva"),
            ("fi_bgsub", "inv_var_equal_bgsub"),
        ):
            fi = column(sweep, fi_name)
            iv = column(sweep, iv_name)
            assert iv[0] == pytest.approx(fi[0], rel=1e-6)
            assert iv[-1] == pytest.approx(fi[-1], rel=5e-3)
            # The plain average can never beat the optimum.
            assert (iv <= fi * (1 + 1e-9)).all()

    def test_bernoulli_scheme_runs_and_is_deterministic(self):
        kwargs = dict(
            n=200, a=1.0, c=0.05, gamma=0.05,
            eta_grid=[0.1, 10.0], scheme="bernoulli", reps=8, seed=5,
        )
        a = fig7_sweep(**kwargs)
        b = fig7_sweep(**kwargs)
        assert list(a.rows) == list(b.rows)
        assert np.isfinite(column(a, "fi_wva")).all()

    def test_eta_grid_validation(self):
        with pytest.raises(InvalidSpec):
            _fig7(eta_grid=[-1.0])
        with pytest.raises(InvalidSpec, match="eta must be"):
            _fig7(n=50, eta_grid=[math.nan])
        with pytest.raises(InvalidSpec):
            _fig7(scheme="chop")
        with pytest.raises(InvalidSpec):
            _fig7(scheme="bernoulli", reps=0)
        # Rejected as invalid before any chain is factored.
        for a, c in [(1.0, -0.1), (-1.0, 0.5), (0.0, 0.0), (math.nan, 0.05)]:
            with pytest.raises(InvalidSpec):
                _fig7(n=50, a=a, c=c, gamma=0.1, eta_grid=[0.1, 10.0])

    @pytest.mark.parametrize("scheme,seed", [
        ("bernoulli", -3), ("periodic", -1), ("bernoulli", 1.5),
    ])
    def test_seed_rule_for_every_scheme(self, scheme, seed):
        with pytest.raises(InvalidSpec, match="seed must be"):
            _fig7(n=50, scheme=scheme, reps=2, seed=seed, eta_grid=[1.0])

    @settings(deadline=None, max_examples=50)
    @given(
        gamma=st.floats(0.0, 0.9, exclude_min=True),
        n=st.integers(2, 2000),
        a=st.floats(0.05, 20.0),
        c=st.floats(0.0, 1.0),
    )
    def test_periodic_wva_never_beats_direct_in_white_limit(self, gamma, n, a, c):
        # The periodic design retains m = ceil(n/round(1/gamma)) slots, so
        # its amplification is the realized n/m, not 1/gamma.
        sweep = _fig7(n=n, a=a, c=c, gamma=gamma, eta_grid=[0.0, 1e-2])
        direct = column(sweep, "fi_direct")
        assert (column(sweep, "fi_wva") <= direct * (1 + 1e-9)).all()
        assert direct == pytest.approx(n / (a + c), rel=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 600),
        a=st.floats(0.05, 20.0),
        c=st.floats(0.0, 1.0),
        eta=st.floats(-2.0, 6.0).map(lambda x: 10.0**x),
        gamma=st.floats(0.001, 0.9),
    )
    def test_periodic_invariants(self, n, a, c, eta, gamma):
        sweep = _fig7(n=n, a=a, c=c, gamma=gamma, eta_grid=[eta])
        assert (column(sweep, "fi_bgsub") >= column(sweep, "fi_wva") * (1 - 1e-9)).all()
        for strategy in ("direct", "wva", "bgsub"):
            fi = column(sweep, f"fi_{strategy}")
            assert (column(sweep, f"inv_var_equal_{strategy}") <= fi * (1 + 1e-9)).all()

    @pytest.mark.parametrize("scheme", ["periodic", "bernoulli"])
    def test_chunked_grid_is_the_single_chunk_grid(self, monkeypatch, scheme):
        n, eta_grid = 300, np.logspace(-2, 6, 11)
        whole = _csv(_fig7(n=n, gamma=0.05, eta_grid=eta_grid, scheme=scheme, reps=4, seed=3))
        chunks = []
        chain = experiments.Chain
        monkeypatch.setattr(experiments, "Chain",
                            lambda a, c, eta, times: chunks.append(eta.size) or chain(a, c, eta, times))
        for budget, sizes in ((3 * n + 2, [3, 3, 3, 2]), (1, [1] * 11)):
            chunks.clear()
            monkeypatch.setattr(experiments, "BUDGET", budget)
            chunked = _fig7(n=n, gamma=0.05, eta_grid=eta_grid, scheme=scheme, reps=4, seed=3)
            assert chunks == sizes
            assert _csv(chunked) == whole
        # The 4 patterns hold 9, 8, 18 and 9 slots.  One chunk of all 11 etas
        # with 20-slot segmented chains splits them in three, bytes unchanged.
        packs = []
        restrict = chain.restrict
        monkeypatch.setattr(chain, "restrict",
                            lambda self, sets: packs.append(len(sets)) or restrict(self, sets))
        monkeypatch.setattr(experiments, "BUDGET", 16 * 20 * 11)
        chunks.clear()
        chunked = _fig7(n=n, gamma=0.05, eta_grid=eta_grid, scheme=scheme, reps=4, seed=3)
        assert chunks == [11]
        assert packs == ([2, 1, 1] if scheme == "bernoulli" else [1])
        assert _csv(chunked) == whole

    def test_chain_count_does_not_grow_with_reps(self, monkeypatch):
        # One chain of the n slots and one segmented chain of every pattern.
        segments = []
        original = Chain.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            segments.append(None if self.segments is None else len(self.segments))

        monkeypatch.setattr(Chain, "__init__", counting)
        for reps in (4, 64):
            segments.clear()
            _fig7(n=200, gamma=0.1, eta_grid=[0.1, 10.0, 1e4], scheme="bernoulli", reps=reps,
                  seed=9)
            assert segments == [None, reps]

    def test_memory_is_linear_in_n(self):
        n = 20_000
        tracemalloc.start()
        try:
            _fig7(n=n, eta_grid=np.logspace(-2, 6, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One dense n x n covariance would be 8*n^2 bytes (3.2 GB here).
        assert peak < 8 * n * n / 100


class TestDeltaI:
    def test_zero_offset(self):
        assert delta_i(1.0, 0.0, 100) == 0.0

    def test_typical_offset_magnitude(self):
        # c = a/N: exact gap and the small-offset approximation coincide.
        exact = delta_i(1.0, 0.001, 1000)
        assert exact == pytest.approx(0.999000999000999, rel=1e-9)
        [row] = delta_i_summary(1.0, 0.001, 1000).rows
        assert row[3] == pytest.approx(exact, rel=1e-12)
        assert row[4] == pytest.approx(1.0 / 1.001, rel=1e-12)
        assert row[3] == pytest.approx(row[4], rel=1e-6)

    def test_benchmark_gap(self):
        assert delta_i(1.0, 0.05, 1000) == pytest.approx(47.61904761904762, rel=1e-12)

    def test_product_form_moves_the_benchmark_gap_by_rounding_only(self):
        a, c, n = 1.0, 0.05, 1000
        difference = n / a - n / (a + c)
        assert abs(delta_i(a, c, n) - difference) <= 2e-15 * difference

    @pytest.mark.parametrize("a,c,n", [
        (1.0, 1e-12, 1000), (1.0, 1e-8, 10), (1.0, 0.05, 1000), (2.5, 3e-10, 7),
        (0.3, 1e-15, 100000), (7.0, 4.0, 3),
    ])
    def test_matches_the_exact_rational(self, a, c, n):
        # N/a - N/(a+c) cancels when c << a: at (1, 1e-12, 1000) it is 1e-4 off.
        fa, fc = Fraction(a), Fraction(c)
        exact = n * fc / (fa * (fa + fc))
        assert abs(Fraction(delta_i(a, c, n)) - exact) <= Fraction(1, 10**15) * exact

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            delta_i(0.0, 0.1, 10)
        with pytest.raises(InvalidSpec):
            delta_i(1.0, -0.1, 10)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_CELLS = {
    "str": st.text(),
    "int": st.integers(),
    "int past 2**53": st.integers(2**53, 2**80) | st.integers(-(2**80), -(2**53)),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "float": _FLOATS | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    "np.float64": _FLOATS.map(np.float64),
}
_MIXED = st.one_of(*_CELLS.values())
_KINDS = st.sampled_from([*_CELLS, "mixed"])


@st.composite
def _tables(draw):
    kinds = draw(st.lists(_KINDS, min_size=1, max_size=5))
    count = draw(st.integers(0, 12))
    columns = [
        draw(st.lists(_CELLS.get(kind, _MIXED), min_size=count, max_size=count))
        for kind in kinds
    ]
    return SweepResult(
        headers=tuple(f"{kind}{k}" for k, kind in enumerate(kinds)),
        blocks=[tuple(columns)],
        metadata={"name": "table", "seed": "7"},
    )


@st.composite
def _block_tables(draw):
    """Drawn blocks, with the rows they stand for expanded here, not by Rows.

    Entries are scalars or lists; a list may be one drawn for an earlier
    entry of the same length, shared by identity.
    """
    width = draw(st.integers(1, 5))
    shared = {}  # length -> the lists drawn so far
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.integers(0, 6))
        block = []
        for _ in range(width):
            pool = shared.setdefault(length, [])
            if draw(st.booleans()):
                block.append(draw(_MIXED))
            elif pool and draw(st.booleans()):
                block.append(pool[draw(st.integers(0, len(pool) - 1))])
            else:
                cells = draw(st.lists(_CELLS.get(draw(_KINDS), _MIXED),
                                      min_size=length, max_size=length))
                pool.append(cells)
                block.append(cells)
        count = length if any(isinstance(e, list) for e in block) else 1
        rows.extend(zip(*(e if isinstance(e, list) else [e] * count for e in block)))
        blocks.append(tuple(block))
    headers = tuple(f"h{k}" for k in range(width))
    return SweepResult(headers, blocks, {"name": "blocks", "seed": "7"}), rows


_EXAMPLES = {
    "no-rows": [],
    "one-kind-columns": [(np.int64(1), 2**53 + 1, -0.0), (2, np.int64(-5), np.float64(5e-324))],
    "mixed": [(1, 2**53 + 1, "a"), (2.5, 2**63, 3), ("b", -(2**70), 4.0)],
    "percent": [("5%", "%s", 1.0), ("%%d", "%", 2)],
}


@pytest.mark.parametrize("call,grid", [
    (lambda: fig2_surface([], [0.0]), "x"),
    (lambda: fig2_surface([1.0], []), "r"),
    (lambda: fig345_curves([]), "alpha"),
    (lambda: fig6_decomposition(10, 0.5, []), "phi"),
    (lambda: fig7_sweep(100, 1.0, 0.05, 0.05, [], "periodic", 1, 0), "eta"),
], ids=["fig2-x", "fig2-r", "fig345", "fig6", "fig7"])
def test_empty_grid_is_invalid_spec(call, grid):
    with pytest.raises(InvalidSpec, match=f"the {grid} grid"):
        call()


class TestCsvSerialization:
    @settings(max_examples=300, deadline=None)
    @given(result=_tables())
    def test_column_formats_are_the_per_cell_formats(self, result):
        assert _csv(result) == per_cell_csv(result)

    @settings(max_examples=300, deadline=None)
    @given(drawn=_block_tables(), write_rows=st.sampled_from([1, 2, 5, 1 << 14]))
    def test_blocks_are_the_per_cell_formats_of_their_rows(self, drawn, write_rows):
        result, rows = drawn
        assert len(result.rows) == len(rows)
        assert list(result.rows) == rows
        # A list of row tuples is itself a blocks list: one scalar block per row.
        with patch.object(experiments, "_WRITE_ROWS", write_rows):
            assert _csv(result) == per_cell_csv(replace(result, blocks=rows))

    @pytest.mark.parametrize("rows", _EXAMPLES.values(), ids=_EXAMPLES)
    def test_examples(self, rows):
        result = SweepResult(("a", "b", "c"), rows, {"seed": "none"})
        assert _csv(result) == per_cell_csv(result)
        if rows:
            as_columns = replace(result, blocks=[tuple(map(list, zip(*rows)))])
            assert _csv(as_columns) == per_cell_csv(result)

    @pytest.mark.parametrize("cell", [
        True, np.bool_(False), np.uint64(2**64 - 1), np.float32(0.5), None, (1.0,),
    ], ids=["bool", "np.bool_", "np.uint64", "np.float32", "None", "tuple"])
    @pytest.mark.parametrize("as_list", [False, True], ids=["scalar", "list"])
    def test_other_cell_types_raise(self, cell, as_list):
        entry = [1.0, cell] if as_list else cell
        result = SweepResult(("a", "b"), [(0.5, entry)], {"seed": "none"})
        with pytest.raises(TypeError, match="column 'b' holds a"):
            _csv(result)

    @pytest.mark.parametrize("block", [([1.0], [2.0, 3.0]), ([1.0, 2.0], [3.0]), (1.0,)],
                             ids=["longer-list", "shorter-list", "too-few-entries"])
    def test_malformed_blocks_raise(self, block):
        result = SweepResult(("a", "b"), [block], {"seed": "none"})
        with pytest.raises(ValueError):
            _csv(result)

    def test_rows_view(self):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("len(rows) expanded a block")

        shared = [0.5, 1.5]
        result = SweepResult(("a", "b", "c"), [
            (1, shared, "x"), ("s", 2.0, 3), (2, shared, ["p", "q"]), (4, [], []),
        ], {})
        expected = [(1, 0.5, "x"), (1, 1.5, "x"), ("s", 2.0, 3), (2, 0.5, "p"), (2, 1.5, "q")]
        assert len(result.rows) == 5
        assert list(result.rows) == expected
        assert len(SweepResult(("a",), [(Unread(range(7)),)]).rows) == 7

    def test_format_contract(self):
        result = table1(1.0, 0.05, 100, 0.05)
        buf = io.StringIO()
        write_csv(result, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0].startswith("# estlab-version=")
        assert "config=" in lines[0] and "seed=none" in lines[0]
        assert lines[1] == "strategy,regime,closed_form,numeric,rel_err,agree"
        assert len(lines) == 2 + 6 + 1  # metadata, header, rows, trailing LF
        first = lines[2].split(",")
        assert first[0] == "direct" and first[-1] in ("true", "false")
        # 17-significant-digit decimal floats.
        assert first[2] == format(next(iter(result.rows))[2], ".17g")

    def test_byte_identical_reruns(self):
        a, b = io.StringIO(), io.StringIO()
        write_csv(fig6_decomposition(n=20, c_over_a=0.5, phi_grid=np.linspace(0.1, 3.0, 5)), a)
        write_csv(fig6_decomposition(n=20, c_over_a=0.5, phi_grid=np.linspace(0.1, 3.0, 5)), b)
        assert a.getvalue() == b.getvalue()

    def test_lf_line_endings_only(self):
        buf = io.StringIO()
        write_csv(delta_i_summary(1.0, 0.05, 100), buf)
        assert "\r" not in buf.getvalue()

    def test_column_helper(self):
        result = delta_i_summary(1.0, 0.05, 100)
        assert column(result, "delta_i_exact")[0] == pytest.approx(
            100 - 100 / 1.05, rel=1e-12
        )
