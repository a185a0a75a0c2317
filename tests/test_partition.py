import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estlab.covariance import CovSpec
from estlab.errors import InvalidSpec
from estlab.fisher import fi_matched
from estlab.matkernel import SymMatrix
from estlab.partition import (
    bernoulli_retained,
    blocks_layout,
    check_seed,
    make_design,
    spin_coefficients,
    spin_model,
)

from conftest import Dense, build, solvable_inverse, submatrix

# Retained slots for make_design(1000, "bernoulli", gamma=0.005, seed=12345),
# frozen from a recorded run of this build's generator.
GOLDEN_BERNOULLI_12345 = [147, 378, 509, 617, 794]


class TestSpinModel:
    def test_balanced_angle(self):
        model = spin_model(math.pi / 2)
        assert model.aw == pytest.approx(-1.0)
        assert model.awp == pytest.approx(1.0)
        assert model.gamma == pytest.approx(0.5)

    def test_small_angle(self):
        model = spin_model(0.2)
        assert model.aw == pytest.approx(-9.966644423259238, rel=1e-12)
        assert model.awp == pytest.approx(0.10033467208545055, rel=1e-12)
        assert model.gamma == pytest.approx(0.009966711079379185, rel=1e-12)
        # Small-angle behavior: Aw ~ -2/phi, gamma ~ phi^2/4.
        assert model.aw == pytest.approx(-2 / 0.2, rel=0.01)
        assert model.gamma == pytest.approx(0.2**2 / 4, rel=0.01)

    def test_amplification_identity(self):
        for phi in np.linspace(0.05, math.pi - 0.05, 50):
            model = spin_model(float(phi))
            assert model.aw**2 * model.gamma == pytest.approx(
                math.cos(phi / 2) ** 2, rel=1e-12
            )

    def test_product_identity_bulk(self):
        rng = np.random.default_rng(99)
        phis = rng.uniform(1e-6, math.pi - 1e-6, size=10_000)
        for phi in phis:
            model = spin_model(float(phi))
            assert abs(model.aw * model.awp + 1.0) <= 1e-9 * abs(model.aw * model.awp)
            assert 0.0 < model.gamma < 1.0

    @pytest.mark.parametrize("phi", [0.0, math.pi, -0.5, 4.0])
    def test_domain(self, phi):
        with pytest.raises(InvalidSpec, match=r"phi must lie strictly inside \(0, pi\)"):
            spin_model(phi)

    def test_spin_coefficients_match_model(self):
        model = spin_model(1.1)
        aw, awp = spin_coefficients(model.gamma)
        assert aw == pytest.approx(model.aw, rel=1e-12)
        assert awp == pytest.approx(model.awp, rel=1e-12)


def _bits(values) -> list[int]:
    """The IEEE bit patterns of ``values``: equal only if the floats are identical."""
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


# Anywhere in (0, pi), and close to either end, down to the subnormals and
# the last float below pi.
PHIS = st.one_of(
    st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    st.floats(5e-324, 1e-3),
    st.floats(5e-324, 1e-3).map(lambda e: math.pi - e).filter(lambda p: p < math.pi),
    st.sampled_from([5e-324, 1e-310, math.nextafter(math.pi, 0.0)]),
)
GAMMAS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-310, math.nextafter(1.0, 0.0)]),
)


class TestWholeArrays:
    """Array calls are their per-entry scalar calls, bit for bit and rule for rule."""

    @settings(max_examples=300, deadline=None)
    @given(phi=PHIS)
    def test_spin_model_rounds_as_math_sin_and_cos(self, phi):
        half = 0.5 * phi
        sin_h, cos_h = math.sin(half), math.cos(half)
        model = spin_model(phi)
        assert [type(v) for v in (model.aw, model.awp, model.gamma)] == [float] * 3
        # At phi = 5e-324 half underflows to 0, and Aw is -inf.
        aw = -cos_h / sin_h if sin_h else -math.inf
        assert _bits([model.aw, model.awp, model.gamma]) == _bits(
            [aw, sin_h / cos_h, sin_h * sin_h])

    @settings(max_examples=100, deadline=None)
    @given(phis=st.lists(PHIS, min_size=1, max_size=40))
    def test_spin_model_array_is_its_scalar_calls(self, phis):
        model = spin_model(np.array(phis))
        scalars = [spin_model(phi) for phi in phis]
        for name in ("aw", "awp", "gamma"):
            assert _bits(getattr(model, name)) == _bits([getattr(m, name) for m in scalars])

    @settings(max_examples=100, deadline=None)
    @given(gammas=st.lists(GAMMAS, min_size=1, max_size=40))
    def test_spin_coefficients_array_is_its_scalar_calls(self, gammas):
        aw, awp = spin_coefficients(np.array(gammas))
        assert all(type(v) is float for v in spin_coefficients(gammas[0]))
        pairs = [spin_coefficients(g) for g in gammas]
        assert _bits(aw) == _bits([p[0] for p in pairs])
        assert _bits(awp) == _bits([p[1] for p in pairs])

    @pytest.mark.parametrize("call,bad", [
        (spin_model, 0.0), (spin_model, math.pi), (spin_model, -1.0), (spin_model, math.nan),
        (spin_coefficients, 0.0), (spin_coefficients, 1.0), (spin_coefficients, math.inf),
    ])
    def test_one_bad_entry_raises_as_its_scalar_call(self, call, bad):
        with pytest.raises(InvalidSpec) as scalar:
            call(bad)
        with pytest.raises(InvalidSpec, match=f"^{re.escape(str(scalar.value))}$"):
            call(np.array([0.5, 0.25, bad, 0.75]))

    def test_blocks_layout_of_many_sizes_is_each_blocks_design(self):
        n, sizes = 12, np.array([1, 5, 6, 11])
        retained, (aw, awp) = blocks_layout(n, sizes)
        for k, n1 in enumerate(sizes.tolist()):
            design = make_design(n, "blocks", gamma=n1 / n)
            assert np.array_equal(np.where(retained[:, k], aw[k], awp[k]), design.mu_prime)

    def test_bernoulli_retained_is_the_bernoulli_design(self):
        mask = bernoulli_retained(1000, 0.005, 12345)
        assert np.flatnonzero(mask).tolist() == GOLDEN_BERNOULLI_12345


class TestMakeDesign:
    def test_periodic_count_and_spacing(self):
        design = make_design(1000, "periodic", gamma=0.005)
        retained = design.channel_slots("retained")
        assert retained.size == 5
        assert np.array_equal(np.diff(retained), [200, 200, 200, 200])

    def test_alternating_pattern(self):
        design = make_design(4, "alternating")
        assert np.array_equal(design.mu_prime, [1.0, -1.0, 1.0, -1.0])
        assert design.channels == ("plus", "minus")

    def test_bernoulli_golden_pattern(self):
        design = make_design(1000, "bernoulli", gamma=0.005, seed=12345)
        assert design.channel_slots("retained").tolist() == GOLDEN_BERNOULLI_12345

    def test_bernoulli_reproducible(self):
        a = make_design(1000, "bernoulli", gamma=0.005, seed=7)
        b = make_design(1000, "bernoulli", gamma=0.005, seed=7)
        assert np.array_equal(a.assignment, b.assignment)

    def test_bernoulli_mean_retained_count(self):
        counts = [
            make_design(1000, "bernoulli", gamma=0.005, seed=s)
            .channel_slots("retained")
            .size
            for s in range(10_000)
        ]
        assert abs(np.mean(counts) - 5.0) <= 0.15

    def test_blocks_layout(self):
        design = make_design(10, "blocks", gamma=0.3)
        assert design.channel_slots("retained").tolist() == [0, 1, 2]
        assert design.channel_slots("rejected").tolist() == list(range(3, 10))

    def test_blocks_default_coefficients_are_spin_pair(self):
        design = make_design(10, "blocks", gamma=0.5)
        assert design.coefficients.tolist() == pytest.approx([-1.0, 1.0])

    def test_postselect_default_coefficients_idealized(self):
        design = make_design(100, "periodic", gamma=0.04)
        assert design.coefficient("retained") == pytest.approx(5.0)
        assert design.coefficient("rejected") == 0.0

    def test_coefficient_override(self):
        design = dataclasses.replace(
            make_design(100, "periodic", gamma=0.04), coefficients=(-3.0, 0.5)
        )
        assert design.coefficient("retained") == -3.0
        assert design.coefficient("rejected") == 0.5

    @pytest.mark.parametrize("gamma", [None, 0.0, 1.0, -0.2])
    def test_gamma_required_for_postselect(self, gamma):
        with pytest.raises(InvalidSpec, match="periodic scheme requires gamma strictly inside"):
            make_design(100, "periodic", gamma=gamma)

    def test_blocks_rejects_empty_channel(self):
        with pytest.raises(InvalidSpec, match="gamma=0.01 leaves an empty channel for n=10"):
            make_design(10, "blocks", gamma=0.01)

    def test_unknown_scheme(self):
        with pytest.raises(InvalidSpec, match="unknown partition scheme 'chop'"):
            make_design(10, "chop", gamma=0.5)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidSpec, match=r"partition designs require n >= 2"):
            make_design(1, "alternating")

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "non-integral"])
    def test_bernoulli_seed_rule(self, seed, message):
        with pytest.raises(InvalidSpec, match=message):
            make_design(10, "bernoulli", gamma=0.5, seed=seed)

    def test_check_seed_returns_a_python_int(self):
        seed = check_seed(np.int64(7))
        assert seed == 7 and type(seed) is int
        assert check_seed(0) == 0 and check_seed(2**70) == 2**70

    def test_direct_scheme(self):
        design = make_design(5, "direct")
        assert design.channels == ("retained",)
        assert np.array_equal(design.mu_prime, np.ones(5))

    @pytest.mark.parametrize("scheme", ["bernoulli", "periodic", "alternating", "blocks"])
    def test_phi_gives_the_overlap_pair(self, scheme):
        model = spin_model(1.0)
        design = make_design(40, scheme, phi=1.0)
        assert design.coefficients.tolist() == [model.aw, model.awp]

    @pytest.mark.parametrize("scheme", ["bernoulli", "periodic", "blocks"])
    def test_phi_sets_gamma_unless_given(self, scheme):
        gamma = spin_model(1.0).gamma
        assert np.array_equal(
            make_design(40, scheme, phi=1.0, seed=3).assignment,
            make_design(40, scheme, gamma=gamma, seed=3).assignment,
        )
        assert np.array_equal(
            make_design(40, scheme, gamma=0.5, phi=1.0, seed=3).assignment,
            make_design(40, scheme, gamma=0.5, seed=3).assignment,
        )

    @pytest.mark.parametrize("scheme,params,message", [
        ("direct", dict(gamma=0.3), "gamma does not apply to the direct scheme"),
        ("direct", dict(phi=1.0), "phi does not apply to the direct scheme"),
        ("alternating", dict(gamma=0.3), "gamma does not apply to the alternating scheme"),
    ], ids=["direct-gamma", "direct-phi", "alternating-gamma"])
    def test_parameter_outside_its_schemes(self, scheme, params, message):
        with pytest.raises(InvalidSpec, match=message):
            make_design(10, scheme, **params)


class TestSubmatrix:
    def test_retain_all_is_identity_operation(self):
        m = build(CovSpec("solvable", 1.0, 0.5, 6))
        sub = submatrix(m, np.arange(6))
        assert np.array_equal(sub.entries, m.entries)

    def test_solvable_structure_preserved(self):
        # Any retained subset of the flat-offset model keeps the same a, c.
        m = build(CovSpec("solvable", 1.3, 0.7, 20))
        sub = submatrix(m, [2, 3, 11, 19])
        assert np.array_equal(sub.entries, build(CovSpec("solvable", 1.3, 0.7, 4)).entries)

    def test_solvable_submatrix_closed_inverse(self):
        m = build(CovSpec("solvable", 1.0, 0.2, 50))
        sub = submatrix(m, [0, 7, 21, 33, 44])
        closed = solvable_inverse(1.0, 0.2, 5)
        assert np.abs(sub.entries @ closed.entries - np.eye(5)).max() <= 1e-12

    def test_exponential_wide_spacing_is_effectively_white(self):
        m = build(CovSpec("exponential", 1.0, 0.05, 1000, eta=1.0))
        sub = submatrix(m, [0, 200, 400, 600, 800])
        off = sub.entries - np.diag(np.diagonal(sub.entries))
        assert np.abs(off).max() <= 0.05 * math.exp(-200.0) + 1e-300

    def test_errors(self):
        m = SymMatrix(np.eye(5))
        with pytest.raises(InvalidSpec, match="retained indices must be strictly increasing"):
            submatrix(m, [3, 1])
        with pytest.raises(InvalidSpec, match=r"retained indices must lie in \[0, 4\]"):
            submatrix(m, [0, 5])
        with pytest.raises(InvalidSpec, match="retained index set must be a non-empty vector"):
            submatrix(m, [])
        with pytest.raises(InvalidSpec, match=r"retained indices must lie in \[0, 4\]"):
            submatrix(m, [-1, 2])


class TestMeanVector:
    """The expected samples mu_prime * d of each layout."""

    def test_alternating(self):
        design = make_design(6, "alternating")
        assert np.array_equal(design.mu_prime * 2.0, [2, -2, 2, -2, 2, -2])

    def test_balanced_blocks_spin_values(self):
        design = make_design(4, "blocks", gamma=0.5)
        assert design.mu_prime.tolist() == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_retained_only_amplification(self):
        design = dataclasses.replace(
            make_design(10, "periodic", gamma=0.2), coefficients=(4.0, 0.0)
        )
        vec = design.mu_prime * 0.5
        retained = design.channel_slots("retained")
        assert np.array_equal(vec[retained], np.full(retained.size, 2.0))
        assert not vec[np.setdiff1d(np.arange(10), retained)].any()


class TestBalancedBlocksInformation:
    @pytest.mark.parametrize(
        "a,c,n", [(1.0, 0.5, 10), (2.0, 0.05, 64), (0.5, 3.0, 100)]
    )
    def test_balanced_information_hits_white_floor(self, a, c, n):
        design = make_design(n, "blocks", gamma=0.5)
        m = build(CovSpec("solvable", a, c, n))
        mu = design.mu_prime
        value = float(mu @ Dense(m).solve(mu))
        assert value == pytest.approx(n / a, rel=1e-10)

    def test_matches_fi_matched(self):
        design = make_design(12, "blocks", gamma=0.5)
        m = build(CovSpec("solvable", 1.0, 0.3, 12))
        value, _ = fi_matched(Dense(m), design.mu_prime)
        assert value == pytest.approx(12.0, rel=1e-10)
