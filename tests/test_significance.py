import numpy as np
import pytest

from forecastability import (
    ConfigError,
    EstimatorConfig,
    GaussianProcessSpec,
    InformationSetSpec,
    TimeSeries,
    add_one_p_value,
    permutation_test,
    simulate,
)


class TestAddOnePValue:
    def test_formula(self):
        null = [0.1, 0.2, 0.3, 0.4]
        assert add_one_p_value(0.25, null) == (1 + 2) / 5
        assert add_one_p_value(0.5, null) == 1 / 5
        assert add_one_p_value(-1.0, null) == 1.0

    def test_ties_count_against_rejection(self):
        assert add_one_p_value(0.3, [0.3, 0.1]) == (1 + 1) / 3

    def test_monotone_in_observed(self, rng):
        null = rng.standard_normal(99)
        observed = np.linspace(-3, 3, 50)
        ps = [add_one_p_value(o, null) for o in observed]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_never_zero(self, rng):
        assert add_one_p_value(np.inf, rng.standard_normal(99)) == 1 / 100


class TestPermutationTest:
    def test_replicate_floor(self, white_noise, config):
        with pytest.raises(ConfigError):
            permutation_test(
                white_noise, InformationSetSpec(1, (1,)), config, replicates=5, seed=0
            )
        with pytest.raises(ConfigError):
            permutation_test(
                white_noise, InformationSetSpec(1, (1,)), config, replicates=18, seed=0
            )

    def test_negative_seed_rejected(self, white_noise, config):
        with pytest.raises(ConfigError):
            permutation_test(
                white_noise, InformationSetSpec(1, (1,)), config, replicates=19, seed=-1
            )

    def test_white_noise_not_significant(self, config):
        for seed in (0, 1, 2):
            series = simulate(GaussianProcessSpec.ar1(0.0), 1000, seed=seed + 50)
            (res,) = permutation_test(
                series, InformationSetSpec(1, (1,)), config, replicates=99, seed=seed
            )
            assert res.p_value > 0.05

    def test_strong_dependence_saturates(self, config):
        for seed in (0, 1):
            series = simulate(GaussianProcessSpec.ar1(0.95), 1000, seed=seed + 60)
            (res,) = permutation_test(
                series, InformationSetSpec(1, (1,)), config, replicates=99, seed=seed
            )
            assert res.p_value == 1 / 100
            assert res.observed_nats > max(res.null_samples)

    def test_result_structure(self, white_noise, config):
        results = permutation_test(
            white_noise, InformationSetSpec(1, (1, 3)), config, replicates=19, seed=7
        )
        assert [r.horizon for r in results] == [1, 3]
        for r in results:
            assert len(r.null_samples) == 19
            assert r.replicates == 19
            assert r.seed == 7
            assert 0.0 < r.p_value <= 1.0

    def test_prefix_stability_of_replicates(self, white_noise, config):
        spec = InformationSetSpec(1, (1,))
        short = permutation_test(white_noise, spec, config, replicates=19, seed=3)
        long = permutation_test(white_noise, spec, config, replicates=29, seed=3)
        assert short[0].null_samples == long[0].null_samples[:19]

    def test_deterministic(self, white_noise, config):
        spec = InformationSetSpec(1, (2,))
        a = permutation_test(white_noise, spec, config, replicates=19, seed=5)
        b = permutation_test(white_noise, spec, config, replicates=19, seed=5)
        assert a[0].null_samples == b[0].null_samples
        assert a[0].p_value == b[0].p_value

    def test_gap_horizons_omitted(self, config):
        series = TimeSeries(np.linspace(0.0, 1.0, 30))
        results = permutation_test(
            series, InformationSetSpec(1, (1, 28)), config, replicates=19, seed=0
        )
        assert [r.horizon for r in results] == [1]

    def test_all_gaps_gives_empty(self, config):
        series = TimeSeries(np.linspace(0.0, 1.0, 10))
        results = permutation_test(
            series, InformationSetSpec(1, (8, 9)), config, replicates=19, seed=0
        )
        assert results == []

