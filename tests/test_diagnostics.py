import math

import numpy as np
import pytest

from forecastability import (
    ConfigError,
    DomainError,
    EstimatorConfig,
    ForecastabilityProfile,
    GaussianProcessSpec,
    InformationSetSpec,
    MissingHorizon,
    ProbeEvaluation,
    decompose_loss,
    estimate_profile,
    fano_bound,
    pinsker_bound,
    simulate,
)

LN8 = math.log(8.0)


def conditional_ar1_probe(series, phi, h, sigma2=1.0):
    """Log densities of the exact AR(1) h-step conditional distribution."""
    y = series.values
    idx = np.arange(h, len(y))
    mean = (phi ** h) * y[idx - h]
    var = sigma2 * (1.0 - phi ** (2 * h)) / (1.0 - phi * phi)
    log_dens = -0.5 * np.log(2 * np.pi * var) - (y[idx] - mean) ** 2 / (2 * var)
    return ProbeEvaluation(horizon=h, log_densities=log_dens, eval_indices=idx)


def marginal_probe(series, variance, h):
    """Log densities of the true stationary marginal, ignoring the past."""
    y = series.values
    idx = np.arange(h, len(y))
    log_dens = -0.5 * np.log(2 * np.pi * variance) - y[idx] ** 2 / (2 * variance)
    return ProbeEvaluation(horizon=h, log_densities=log_dens, eval_indices=idx)


class TestProbeEvaluation:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeEvaluation(0, np.array([1.0, 2.0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            ProbeEvaluation(1, np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError):
            ProbeEvaluation(1, np.array([1.0, np.inf]), np.array([0, 1]))
        with pytest.raises(ValueError):
            ProbeEvaluation(1, np.array([1.0, 2.0]), np.array([0]))

    def test_n_eval(self):
        probe = ProbeEvaluation(1, np.zeros(40), np.arange(40))
        assert probe.n_eval == 40

    def test_copies_the_callers_arrays(self):
        ld, idx = np.array([-1.0, -2.0]), np.array([3, 4])
        probe = ProbeEvaluation(1, ld, idx)
        ld[0], idx[0] = 1.0, 7
        assert probe.log_densities.tolist() == [-1.0, -2.0]
        assert probe.eval_indices.tolist() == [3, 4]
        assert not probe.eval_indices.flags.writeable
        floats = ProbeEvaluation(1, ld, [-(2.0 ** 63), 5.0])
        assert floats.eval_indices.tolist() == [-(2 ** 63), 5]

    @pytest.mark.parametrize("indices", [
        [0.5, 1.7, 2.2], [1e30, 1.0, 2.0], [np.nan, 1.0, 2.0],
        [-np.inf, 1.0, 2.0], [2.0 ** 63, 1.0, 2.0], [2 ** 70, 1, 2],
    ])
    def test_rejects_indices_that_are_not_int64(self, indices):
        with pytest.raises(ValueError, match="int64"):
            ProbeEvaluation(1, np.zeros(3), indices)

    def test_rejects_a_repeated_index(self):
        with pytest.raises(ValueError, match="duplicate t_index 5 at horizon 1"):
            ProbeEvaluation(1, np.zeros(3), [5, 5, 6])

    @pytest.mark.parametrize("horizon", [1.5, math.nan, np.array([3]), np.float64(0.0)])
    def test_rejects_a_horizon_that_is_not_an_integer(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            ProbeEvaluation(horizon, np.zeros(3), [5, 6, 7])

    def test_horizon_has_no_int64_bound(self):
        # like an InformationSetSpec horizon, unlike an eval index
        probe = ProbeEvaluation(2 ** 70, np.zeros(2), [5, 6])
        assert probe.horizon == 2 ** 70

    def test_rejects_strings_as_the_scalar_rule_does(self):
        with pytest.raises(ValueError):
            InformationSetSpec(1, ("3",))
        with pytest.raises(ValueError, match="horizon"):
            ProbeEvaluation("3", [-1.0, -1.2], [10, 11])
        with pytest.raises(ValueError, match="eval_indices"):
            ProbeEvaluation(3, [-1.0, -1.2], ["10", "11.0"])

    def test_integral_horizon_is_stored_as_int(self):
        probe = ProbeEvaluation(np.float64(2.0), np.zeros(2), [5, 6])
        assert type(probe.horizon) is int and probe.horizon == 2


class TestDecomposeLoss:
    def test_oracle_probe_nearly_attains_bound(self, ar1_strong, config):
        probe = conditional_ar1_probe(ar1_strong, 0.95, h=1)
        fhat = estimate_profile(ar1_strong, InformationSetSpec(1, (1,)), config)
        dec = decompose_loss(probe, ar1_strong, fhat, config)
        assert 0.85 <= dec.exploitation_ratio <= 1.1
        assert dec.exploitability_nats <= dec.forecastability_nats + 0.08
        assert not dec.low_forecastability

    def test_marginal_probe_has_no_exploitability(self, ar1_strong, config):
        variance = 1.0 / (1.0 - 0.95 ** 2)
        probe = marginal_probe(ar1_strong, variance, h=1)
        fhat = estimate_profile(ar1_strong, InformationSetSpec(1, (1,)), config)
        dec = decompose_loss(probe, ar1_strong, fhat, config)
        assert abs(dec.exploitability_nats) <= 0.05
        assert abs(dec.exploitation_ratio) <= 0.05

    def test_constant_probe_identity_is_exact(self, ar1_strong):
        # two evaluations: (c + c) / 2 == c exactly in IEEE arithmetic, so the
        # definitional identity X_q = H_hat - loss collapses to exactly zero
        config = EstimatorConfig(k=1)
        idx = np.arange(100, 102)
        fhat = estimate_profile(ar1_strong, InformationSetSpec(1, (1,)), config)
        entropy_only = decompose_loss(
            ProbeEvaluation(1, np.zeros(2), idx), ar1_strong, fhat, config
        ).marginal_entropy_nats
        probe = ProbeEvaluation(1, np.full(2, -entropy_only), idx)
        dec = decompose_loss(probe, ar1_strong, fhat, config)
        assert dec.exploitability_nats == 0.0
        assert dec.expected_loss_nats == dec.marginal_entropy_nats
        assert dec.approximation_gap_nats == dec.forecastability_nats

    def test_identities_hold_by_construction(self, ar1_strong, config):
        probe = conditional_ar1_probe(ar1_strong, 0.95, h=2)
        fhat = estimate_profile(ar1_strong, InformationSetSpec(1, (2,)), config)
        dec = decompose_loss(probe, ar1_strong, fhat, config)
        assert dec.expected_loss_nats == pytest.approx(
            dec.marginal_entropy_nats - dec.exploitability_nats, abs=1e-12
        )
        assert dec.approximation_gap_nats == pytest.approx(
            dec.forecastability_nats - dec.exploitability_nats, abs=1e-12
        )

    def test_complexity_futility_on_white_noise(self, white_noise, config):
        """No probe beats the floor when there is nothing to exploit."""
        fhat = estimate_profile(white_noise, InformationSetSpec(1, (1,)), config)
        y = white_noise.values
        idx = np.arange(11, len(y))
        # true marginal
        marg = ProbeEvaluation(
            1, -0.5 * np.log(2 * np.pi) - y[idx] ** 2 / 2.0, idx
        )
        # overfit AR(10) fitted in-sample
        design = np.column_stack(
            [np.ones(idx.size)] + [y[idx - 1 - j] for j in range(10)]
        )
        beta, *_ = np.linalg.lstsq(design, y[idx], rcond=None)
        resid = y[idx] - design @ beta
        s2 = float(np.mean(resid ** 2))
        overfit = ProbeEvaluation(
            1, -0.5 * np.log(2 * np.pi * s2) - resid ** 2 / (2 * s2), idx
        )
        for probe in (marg, overfit):
            dec = decompose_loss(probe, white_noise, fhat, config)
            assert abs(dec.exploitability_nats) <= 0.08
            assert dec.exploitability_nats <= dec.forecastability_nats + 0.08

    def test_low_forecastability_ratio_floor(self, white_noise, config):
        fhat = ForecastabilityProfile(
            horizons=(1,), values_nats=(-0.002,), source="estimated"
        )
        probe = ProbeEvaluation(1, np.zeros(64), np.arange(1, 65))
        dec = decompose_loss(probe, white_noise, fhat, config)
        assert dec.low_forecastability
        # denominator floored at 1e-6, not the raw negative estimate
        assert dec.exploitation_ratio == dec.exploitability_nats / 1e-6

    def test_missing_horizon(self, white_noise, config):
        fhat = ForecastabilityProfile(
            horizons=(1,), values_nats=(0.2,), source="estimated"
        )
        probe = ProbeEvaluation(3, np.zeros(40), np.arange(40))
        with pytest.raises(MissingHorizon):
            decompose_loss(probe, white_noise, fhat, config)

    def test_gap_horizon_rejected(self, white_noise, config):
        fhat = ForecastabilityProfile(
            horizons=(1,), values_nats=(math.nan,), source="estimated"
        )
        probe = ProbeEvaluation(1, np.zeros(40), np.arange(40))
        with pytest.raises(MissingHorizon):
            decompose_loss(probe, white_noise, fhat, config)

    @pytest.mark.parametrize("lags", [1, 3])
    def test_forecast_origin_before_first_lag_window(self, white_noise, config, lags):
        h = 2
        first = h + lags - 1
        fhat = estimate_profile(white_noise, InformationSetSpec(lags, (h,)), config)
        early = ProbeEvaluation(h, np.zeros(40), np.arange(first - 1, first + 39))
        with pytest.raises(ConfigError, match=f"t_index {first - 1} .* = {first}"):
            decompose_loss(early, white_noise, fhat, config)
        boundary = ProbeEvaluation(h, np.zeros(40), np.arange(first, first + 40))
        decompose_loss(boundary, white_noise, fhat, config)

    def test_profile_without_meta_takes_one_lag(self, white_noise, config):
        fhat = ForecastabilityProfile(
            horizons=(1,), values_nats=(0.2,), source="analytic"
        )
        probe = ProbeEvaluation(1, np.zeros(40), np.arange(40))
        with pytest.raises(ConfigError, match="t_index 0 .* = 1"):
            decompose_loss(probe, white_noise, fhat, config)

    @staticmethod
    def _loss_near_float_range(log_densities, config):
        series = simulate(GaussianProcessSpec.ar1(0.9), 300, seed=1)
        fhat = estimate_profile(series, InformationSetSpec(1, (1,)), config)
        probe = ProbeEvaluation(1, log_densities, np.arange(1, 31))
        return decompose_loss(probe, series, fhat, config).expected_loss_nats

    def test_cancelling_huge_log_densities(self, config):
        ld = np.resize([1.5e308, -1.5e308], 30)
        assert self._loss_near_float_range(ld, config) == 0.0

    def test_huge_log_densities_do_not_overflow_the_mean(self, config):
        # the ratio is not checked: its true value is beyond the float range
        loss = self._loss_near_float_range(np.full(30, -1.7e308), config)
        assert loss == pytest.approx(1.7e308, rel=1e-15)

    def test_out_of_range_indices(self, white_noise, config):
        fhat = ForecastabilityProfile(
            horizons=(1,), values_nats=(0.2,), source="estimated"
        )
        n = len(white_noise)
        probe = ProbeEvaluation(1, np.zeros(40), np.arange(n - 20, n + 20))
        message = f"horizon 1: t_index {n + 19} is beyond the last series row {n - 1}"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            decompose_loss(probe, white_noise, fhat, config)


class TestFanoBound:
    def test_reference_value(self):
        bounds = fano_bound(0.0, LN8, 8)
        assert bounds.fano_min_error == pytest.approx((LN8 - 1.0) / LN8, abs=1e-12)
        assert bounds.fano_vacuous is False
        assert bounds.alphabet_size == 8

    def test_binary_case_is_vacuous(self):
        bounds = fano_bound(0.0, math.log(2.0), 2)
        assert bounds.fano_min_error < 0.0
        assert bounds.fano_vacuous is True

    def test_full_information_is_vacuous(self):
        bounds = fano_bound(LN8, LN8, 8)
        assert bounds.fano_min_error < 0.0
        assert bounds.fano_vacuous is True

    def test_decreasing_in_forecastability(self):
        values = [fano_bound(f, LN8, 8).fano_min_error for f in np.linspace(0, 2, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_alphabet_contract(self):
        with pytest.raises(DomainError):
            fano_bound(0.0, 1.0, 1)

    @pytest.mark.parametrize("alphabet_size", [2.5, math.nan, math.inf, "8"])
    def test_alphabet_must_be_an_integer(self, alphabet_size):
        with pytest.raises(DomainError, match="alphabet_size"):
            fano_bound(0.1, 2.0, alphabet_size)

    def test_integral_alphabet_is_stored_as_int(self):
        bounds = fano_bound(0.0, LN8, 8.0)
        assert type(bounds.alphabet_size) is int
        assert bounds == fano_bound(0.0, LN8, 8)

    @pytest.mark.parametrize("f,h", [(0.1, math.nan), (math.nan, LN8)])
    def test_nan_bound_is_vacuous(self, f, h):
        bounds = fano_bound(f, h, 4)
        assert math.isnan(bounds.fano_min_error)
        assert bounds.fano_vacuous is True


class TestPinskerBound:
    def test_zero(self):
        assert pinsker_bound(0.0).pinsker_tv_bound == 0.0

    def test_reference_values(self):
        assert pinsker_bound(0.02).pinsker_tv_bound == 0.1
        assert pinsker_bound(0.5).pinsker_tv_bound == 0.5

    def test_monotone_and_concave(self):
        grid = np.linspace(0.0, 2.0, 21)
        vals = [pinsker_bound(f).pinsker_tv_bound for f in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            pinsker_bound(-0.01)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            pinsker_bound(math.nan)
