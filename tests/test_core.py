import math

import numpy as np
import pytest

import forecastability
from forecastability import (
    EmbeddedPairs,
    EstimatorMeta,
    ForecastabilityProfile,
    InformationSetSpec,
    InsufficientData,
    MissingHorizon,
    TimeSeries,
    lag_embed,
)


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]), name="abc")
        assert len(ts) == 3
        assert ts.name == "abc"

    def test_too_short(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, bad, 2.0]))

    def test_rejects_a_2d_array(self):
        with pytest.raises(ValueError, match="expected a 1-dimensional array"):
            TimeSeries(np.zeros((3, 2)))

    def test_values_are_read_only(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_does_not_alias_caller_array(self):
        raw = np.array([1.0, 2.0, 3.0])
        ts = TimeSeries(raw)
        raw[0] = 99.0
        assert ts.values[0] == 1.0


class TestInformationSetSpec:
    def test_valid(self):
        spec = InformationSetSpec(lag_order=2, horizons=(1, 3, 12))
        assert spec.horizons == (1, 3, 12)

    @pytest.mark.parametrize(
        "p,hs",
        [(0, (1,)), (1, ()), (1, (0, 1)), (1, (2, 2)), (1, (3, 1)), (1.5, (1,))],
    )
    def test_invalid(self, p, hs):
        with pytest.raises(ValueError):
            InformationSetSpec(lag_order=p, horizons=hs)

    @pytest.mark.parametrize("hs", [(1.5, 2.7), (1, 2.5), (math.nan,), (math.inf,)])
    def test_rejects_horizons_that_are_not_integers(self, hs):
        with pytest.raises(ValueError, match="integers"):
            InformationSetSpec(lag_order=1, horizons=hs)

    def test_integral_horizons_are_stored_as_int(self):
        spec = InformationSetSpec(lag_order=2.0, horizons=(1.0, np.int64(3)))
        assert spec.horizons == (1, 3)
        assert all(type(h) is int for h in (spec.lag_order, *spec.horizons))


class TestLagEmbed:
    def test_p1_h1(self):
        pairs = lag_embed(TimeSeries(np.arange(1.0, 6.0)), p=1, h=1)
        assert pairs.n_effective == 4
        assert pairs.past.tolist() == [[1.0], [2.0], [3.0], [4.0]]
        assert pairs.future.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_p2_h2(self):
        pairs = lag_embed(TimeSeries(np.arange(1.0, 6.0)), p=2, h=2)
        assert pairs.n_effective == 2
        assert pairs.past.tolist() == [[2.0, 1.0], [3.0, 2.0]]
        assert pairs.future.tolist() == [4.0, 5.0]

    def test_boundary_insufficient(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InsufficientData):
            lag_embed(series, p=3, h=8)  # 10 - 8 - 3 + 1 = 0
        pairs = lag_embed(series, p=3, h=7)  # exactly one pair
        assert pairs.n_effective == 1

    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("h", [1, 3, 10])
    def test_round_trip_indices(self, p, h, rng):
        y = rng.standard_normal(60)
        pairs = lag_embed(TimeSeries(y), p=p, h=h)
        assert pairs.n_effective == 60 - h - p + 1
        for i in range(pairs.n_effective):
            assert pairs.future[i] == y[p - 1 + i + h]
            np.testing.assert_array_equal(
                pairs.past[i], y[i + p - 1 :: -1][:p]
            )

    def test_n_effective_monotone_in_h_and_p(self, rng):
        y = TimeSeries(rng.standard_normal(50))
        for p in (1, 2, 3):
            sizes = [lag_embed(y, p, h).n_effective for h in range(1, 6)]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
        for h in (1, 2, 3):
            sizes = [lag_embed(y, p, h).n_effective for p in range(1, 6)]
            assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_deterministic(self, rng):
        y = TimeSeries(rng.standard_normal(40))
        a = lag_embed(y, 3, 2)
        b = lag_embed(y, 3, 2)
        np.testing.assert_array_equal(a.past, b.past)
        np.testing.assert_array_equal(a.future, b.future)

    def test_invalid_args(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(ValueError):
            lag_embed(series, p=0, h=1)
        with pytest.raises(ValueError):
            lag_embed(series, p=1, h=0)
        with pytest.raises(ValueError):
            lag_embed(series, p=1.5, h=1)
        with pytest.raises(ValueError):
            lag_embed(series, p=1, h=1.5)


class TestEmbeddedPairs:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddedPairs(
                past=np.zeros((3, 2)), future=np.zeros(2), horizon=1
            )

    @pytest.mark.parametrize("horizon", [0, 1.5, math.nan])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(ValueError):
            EmbeddedPairs(past=np.zeros((2, 1)), future=np.zeros(2), horizon=horizon)

    def test_integral_horizon_is_stored_as_int(self):
        pairs = EmbeddedPairs(past=np.zeros((2, 1)), future=np.zeros(2), horizon=np.int64(3))
        assert type(pairs.horizon) is int and pairs.horizon == 3


class TestForecastabilityProfile:
    def test_analytic_rejects_negative(self):
        with pytest.raises(ValueError):
            ForecastabilityProfile(
                horizons=(1,), values_nats=(-0.01,), source="analytic"
            )

    def test_analytic_rejects_nan(self):
        with pytest.raises(ValueError):
            ForecastabilityProfile(
                horizons=(1,), values_nats=(math.nan,), source="analytic"
            )

    def test_estimated_keeps_negative_and_gap(self):
        prof = ForecastabilityProfile(
            horizons=(1, 2, 3),
            values_nats=(-0.004, 0.2, math.nan),
            source="estimated",
            estimator_meta=EstimatorMeta(k=5, p=1, n_effective=(10, 9, 0), seed=0),
        )
        assert prof.value_at(1) == -0.004
        assert prof.clamped_nonneg()[0] == 0.0
        assert prof.clamped_nonneg()[1] == 0.2
        assert math.isnan(prof.clamped_nonneg()[2])
        assert prof.gaps() == (3,)
        assert prof.horizons_with_data() == (1, 2)

    def test_horizons_with_data_are_the_complement_of_gaps(self):
        horizons = tuple(range(1, 2001))
        values = tuple(math.nan if h % 3 == 0 or h > 1500 else 0.1 for h in horizons)
        prof = ForecastabilityProfile(horizons, values, source="estimated")
        with_data, gaps = prof.horizons_with_data(), prof.gaps()
        assert with_data == tuple(h for h in horizons if h not in set(gaps))
        assert sorted(with_data + gaps) == list(horizons)
        assert len(with_data) == 1000

    def test_missing_horizon(self):
        prof = ForecastabilityProfile(
            horizons=(1,), values_nats=(0.1,), source="estimated"
        )
        with pytest.raises(MissingHorizon):
            prof.value_at(2)

    def test_bad_source(self):
        with pytest.raises(ValueError):
            ForecastabilityProfile(horizons=(1,), values_nats=(0.1,), source="other")

    def test_misaligned(self):
        with pytest.raises(ValueError):
            ForecastabilityProfile(
                horizons=(1, 2), values_nats=(0.1,), source="estimated"
            )

    def test_rejects_a_horizon_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="integers"):
            ForecastabilityProfile(
                horizons=(1.9,), values_nats=(0.1,), source="estimated"
            )


def test_public_names():
    assert sorted(forecastability.__all__) == [
        "ConfigError", "CoverageError", "DegenerateSample", "DomainError",
        "EmbeddedPairs", "EstimatorConfig", "EstimatorMeta", "FiniteWindowBudget",
        "FloorBounds", "ForecastabilityError", "ForecastabilityProfile",
        "GaussianEntropySummary", "GaussianProcessSpec", "InformationSetSpec",
        "InsufficientData", "LossDecomposition", "MissingHorizon",
        "ProbeEvaluation", "SignificanceResult", "SingularSystem", "TimeSeries",
        "__version__", "add_one_p_value", "ar1_profile", "decompose_loss",
        "digamma", "estimate_profile", "fano_bound", "finite_window_budget",
        "gaussian_entropy_summary", "gaussian_profile_from_acf", "kl_entropy",
        "ksg_mutual_information", "lag_embed", "permutation_test",
        "pinsker_bound", "seasonal_ar_acf", "simulate",
    ]
    for name in forecastability.__all__:
        assert getattr(forecastability, name) is not None
