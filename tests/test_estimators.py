import dataclasses
import math

import numpy as np
import pytest

from estlab.covariance import CovSpec, make_covariance
from estlab.errors import InvalidSpec
from estlab.estimators import Dataset, check_fits, estimator_weights
from estlab.montecarlo import run_trials
from estlab.partition import PartitionDesign, make_design

from conftest import Dense, build

def _dataset(samples, design):
    return Dataset(np.asarray(samples, dtype=float), design)


def _spec(design):
    """Unit white noise: the identity covariance."""
    return CovSpec("white", 1.0, 0.0, design.n)


def _estimate(name, samples, design, spec=None):
    """check_fits, then estimator_weights applied to the samples: d_hat = w @ s."""
    spec = _spec(design) if spec is None else spec
    check_fits(name, spec, design)
    weights = estimator_weights(name, spec, design, make_covariance(spec))
    return float(weights @ np.asarray(samples, dtype=float))


class TestDataset:
    def test_length_checked(self):
        with pytest.raises(InvalidSpec, match="2 samples for a design with 3 slots"):
            _dataset([1.0, 2.0], make_design(3, "direct"))

    def test_samples_read_only(self):
        data = _dataset([1.0, 2.0, 3.0], make_design(3, "direct"))
        with pytest.raises(ValueError):
            data.samples[0] = 0.0


class TestEqualWeight:
    def test_simple_mean(self):
        design = make_design(3, "direct")
        assert _estimate("equal", [1.0, 2.0, 3.0], design) == pytest.approx(2.0)

    def test_noise_free_recovery(self):
        d0 = 0.37
        design = make_design(9, "direct")
        assert _estimate("equal", np.full(9, d0), design) == pytest.approx(d0)

    def test_rejects_partitioned_design(self):
        design = make_design(4, "alternating")
        with pytest.raises(InvalidSpec, match="the equal estimator needs a single channel"):
            check_fits("equal", _spec(design), design)


class TestMaximumLikelihood:
    def test_identity_covariance_is_mean(self):
        design = make_design(4, "direct")
        assert _estimate("ml", [1.0, 2.0, 3.0, 6.0], design) == pytest.approx(3.0)

    @pytest.mark.parametrize("scheme,gamma", [("blocks", 0.25), ("alternating", None)])
    def test_noise_free_recovery_any_design(self, scheme, gamma):
        design = make_design(8, scheme, gamma=gamma)
        d0 = -2.5
        spec = CovSpec("solvable", 1.0, 0.4, 8)
        assert _estimate("ml", design.mu_prime * d0, design, spec) == pytest.approx(
            d0, rel=1e-12
        )

    def test_equals_background_subtraction_on_balanced_solvable(self):
        design = make_design(10, "blocks", gamma=0.5)
        spec = CovSpec("solvable", 1.0, 0.7, 10)
        rng = np.random.default_rng(5)
        for _ in range(5):
            samples = design.mu_prime + rng.normal(size=10)
            assert _estimate("ml", samples, design, spec) == pytest.approx(
                _estimate("bgsub", samples, design, spec), rel=1e-12
            )

    def test_rejects_design_without_signal(self):
        design = PartitionDesign("bernoulli", np.ones(3, dtype=np.intp), aw=2.0, awp=0.0)
        with pytest.raises(InvalidSpec, match="ml needs a design with a nonzero mean"):
            check_fits("ml", _spec(design), design)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec):
            check_fits("ml", CovSpec("white", 1.0, 0.0, 3), make_design(4, "direct"))


class TestWeakValue:
    def test_noise_free_recovery(self):
        design = dataclasses.replace(
            make_design(10, "periodic", gamma=0.2), aw=5.0
        )
        d0 = 0.9
        assert _estimate("wva", design.mu_prime * d0, design) == pytest.approx(d0, rel=1e-12)

    def test_full_retention_unit_weak_value_is_mean(self):
        design = PartitionDesign("periodic", np.zeros(4, dtype=np.intp), aw=1.0, awp=0.0)
        assert _estimate("wva", [1.0, 2.0, 3.0, 6.0], design) == pytest.approx(3.0)

    def test_empty_retained_set(self):
        design = PartitionDesign("bernoulli", np.ones(3, dtype=np.intp), aw=2.0, awp=0.0)
        with pytest.raises(InvalidSpec, match="this retention pattern kept no slots"):
            check_fits("wva", _spec(design), design)

    def test_rejects_design_without_retained_channel(self):
        design = make_design(4, "alternating")
        with pytest.raises(InvalidSpec, match="wva needs a retained channel"):
            check_fits("wva", _spec(design), design)


class TestBackgroundSubtraction:
    @pytest.mark.parametrize("offset", [2.0, -0.25, 1024.0])
    def test_common_mode_rejection_exact(self, offset):
        # Binary-exact values: the +/- channel sums cancel the offset with no
        # rounding at all, so the estimate is bitwise unchanged.
        design = make_design(4, "alternating")
        clean = design.mu_prime * 0.5
        assert _estimate("bgsub", clean + offset, design) == _estimate("bgsub", clean, design)

    def test_common_mode_rejection_generic_offset(self):
        design = make_design(8, "alternating")
        clean = design.mu_prime * 0.8
        shifted = _estimate("bgsub", clean + 123.456, design)
        assert shifted == pytest.approx(0.8, abs=1e-12)

    def test_plus_minus_channel_difference(self):
        design = make_design(4, "alternating")
        d, b = 0.5, 2.0
        samples = [d + b, -d + b, d + b, -d + b]
        assert _estimate("bgsub", samples, design) == pytest.approx(d)

    def test_rejects_non_unit_coefficients(self):
        design = make_design(6, "blocks", gamma=1.0 / 3)
        with pytest.raises(InvalidSpec, match="bgsub needs a two-channel design"):
            check_fits("bgsub", _spec(design), design)

    def test_balanced_blocks_accepted(self):
        design = make_design(6, "blocks", gamma=0.5)
        assert _estimate("bgsub", design.mu_prime * 1.25, design) == pytest.approx(1.25)


class TestWeakValueCorrected:
    def test_zero_c_equals_plain_wva(self):
        design = make_design(100, "blocks", gamma=0.05)
        spec = CovSpec("solvable", 1.0, 0.0, 100)
        samples = np.random.default_rng(3).normal(size=100)
        assert _estimate("wva-corrected", samples, design, spec) == pytest.approx(
            _estimate("wva", samples, design, spec), rel=1e-12
        )

    def test_noise_free_default_base_exact(self):
        design = make_design(200, "blocks", gamma=0.02)
        d0 = 1.4
        spec = CovSpec("solvable", 1.0, 0.05, 200)
        assert _estimate("wva-corrected", design.mu_prime * d0, design, spec) == pytest.approx(
            d0, rel=1e-12
        )

    def test_requires_two_channels(self):
        design = make_design(4, "direct")
        with pytest.raises(InvalidSpec, match="wva-corrected needs a retained/rejected design"):
            check_fits("wva-corrected", CovSpec("solvable", 1.0, 0.1, 4), design)

    def test_invalid_model_parameters(self):
        design = make_design(10, "blocks", gamma=0.2)
        with pytest.raises(InvalidSpec):
            check_fits("wva-corrected", CovSpec("solvable", 0.0, 0.1, 10), design)

    def test_paired_variance_no_worse_than_wva(self):
        # Same seeds, same datasets: using the rejected data cannot hurt.
        spec = CovSpec("solvable", 1.0, 0.05, 100)
        design = make_design(100, "blocks", gamma=0.05)
        wva = run_trials(spec, design, "wva", d_true=1.0, trials=30_000, seed=777)
        cor = run_trials(spec, design, "wva-corrected", d_true=1.0, trials=30_000, seed=777)
        assert cor.empirical_variance <= wva.empirical_variance


class TestMonteCarloCalibration:
    def test_wva_variance_matches_information(self):
        # Retained-slot equivalent of n=1000, gamma=0.005, Aw^2 = 1/gamma on
        # the flat-offset model: five retained samples with Aw = sqrt(200).
        # Predicted variance 1/800.
        spec = CovSpec("solvable", 1.0, 0.05, 5)
        design = PartitionDesign(
            "periodic", np.zeros(5, dtype=np.intp), aw=math.sqrt(200.0), awp=0.0
        )
        ens = run_trials(spec, design, "wva", d_true=1.0, trials=100_000, seed=31415)
        assert ens.empirical_variance == pytest.approx(1.0 / 800.0, rel=0.03)
        se = math.sqrt(ens.empirical_variance / ens.trials)
        assert abs(ens.empirical_mean - 1.0) <= 4 * se

    def test_equal_weight_variance_moderate_run(self):
        spec = CovSpec("solvable", 1.0, 0.05, 100)
        ens = run_trials(spec, make_design(100, "direct"), "equal",
                         d_true=1.0, trials=20_000, seed=8)
        assert ens.empirical_variance == pytest.approx(0.06, rel=0.05)
        se = math.sqrt(ens.empirical_variance / ens.trials)
        assert abs(ens.empirical_mean - 1.0) <= 4 * se

    def test_ml_efficiency_moderate_run(self):
        from estlab.fisher import fi_matched

        spec = CovSpec("solvable", 1.0, 0.05, 50)
        design = make_design(50, "blocks", gamma=0.5)
        target = 1.0 / fi_matched(Dense(build(spec)), design.mu_prime)[0]
        ens = run_trials(spec, design, "ml", d_true=1.0, trials=20_000, seed=9)
        assert ens.empirical_variance == pytest.approx(target, rel=0.05)

    def test_wva_corrected_unbiased(self):
        spec = CovSpec("solvable", 1.0, 0.05, 100)
        design = make_design(100, "blocks", gamma=0.05)
        ens = run_trials(spec, design, "wva-corrected",
                         d_true=1.0, trials=100_000, seed=7777)
        se = math.sqrt(ens.empirical_variance / ens.trials)
        assert abs(ens.empirical_mean - 1.0) <= 4 * se
