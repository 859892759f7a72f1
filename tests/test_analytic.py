import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from forecastability import (
    DomainError,
    CoverageError,
    GaussianProcessSpec,
    SingularSystem,
    ar1_profile,
    gaussian_entropy_summary,
    gaussian_profile_from_acf,
    seasonal_ar_acf,
    simulate,
)
from forecastability import analytic

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)  # 1.4189385332046727

# phi and Phi of both signs, s from 1 to 365, either factor switched off, and
# both factors near the unit circle
ACF_CASES = [
    (0.5, 0.8, 12), (-0.6, 0.7, 4), (0.3, -0.9, 7), (-0.7, -0.5, 1),
    (0.4, 0.6, 365), (0.0, 0.8, 12), (0.5, 0.0, 12), (0.99, 0.99, 12),
]


def psi_weights_acf(phi, Phi, s, max_lag, n_terms=100_000):
    """Oracle: autocorrelations from a fixed-length MA(inf) expansion,
    ``gamma(h) = sum_j psi_j psi_{j+h}``.  The psi weights are the impulse
    response of ``(1 - phi*B)(1 - Phi*B^s)``; 100 000 terms leave a tail far
    below 1e-16 for every case in ACF_CASES."""
    poles = np.zeros(s + 2)
    poles[0] = 1.0
    poles[1] -= phi
    poles[s] -= Phi
    poles[s + 1] += phi * Phi
    impulse = np.zeros(n_terms)
    impulse[0] = 1.0
    psi = lfilter([1.0], poles, impulse)
    gammas = np.array([psi[: n_terms - h] @ psi[h:] for h in range(max_lag + 1)])
    return gammas[1:] / gammas[0]


def exact_seasonal_acf(phi, Phi, s, max_lag):
    """Oracle: the closed form of ``seasonal_ar_acf`` in exact rational
    arithmetic.  Float inputs are exact binary fractions, and carrying
    ``gamma(h) (1 - Phi phi^s)`` instead of ``gamma(h)`` keeps every value a
    binary fraction until the final division, which keeps the arithmetic
    fast."""
    phi, Phi = Fraction(phi), Fraction(Phi)
    wrap = 1 - Phi * phi ** s
    inner = [Fraction(0)] * (max_lag + 1)
    scaled = []
    for h in range(max_lag + 1):
        q = h // s
        if q:
            inner[h] = Phi * (phi ** (h - s) + inner[h - s])
        scaled.append(phi ** h + Phi ** (q + 1) * phi ** ((q + 1) * s - h)
                      + wrap * inner[h])
    return [g / scaled[0] for g in scaled[1:]]


class TestAr1Profile:
    def test_weak_dependence_values(self):
        prof = ar1_profile(0.3, (1, 2))
        # -0.5*log(1 - 0.09) and -0.5*log(1 - 0.0081)
        assert prof.value_at(1) == pytest.approx(0.047155339735620645, abs=1e-15)
        assert prof.value_at(2) == pytest.approx(0.004066491615094496, abs=1e-15)
        assert prof.value_at(2) < 0.005

    def test_independence_gives_zero(self):
        prof = ar1_profile(0.0, (1, 5, 20))
        assert prof.values_nats == (0.0, 0.0, 0.0)

    def test_strong_dependence_far_horizon(self):
        assert ar1_profile(0.95, (10,)).value_at(10) == pytest.approx(
            0.22196207518185482, abs=1e-12
        )

    def test_monotone_decay(self):
        vals = ar1_profile(0.8, range(1, 30)).values_nats
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("phi", [1.0, -1.0, 1.3])
    def test_stationarity_contract(self, phi):
        with pytest.raises(DomainError):
            ar1_profile(phi, (1,))

    def test_source_is_analytic(self):
        assert ar1_profile(0.5, (1,)).source == "analytic"

    # (1 - 2**-53)**(2**63) = exp(-1024) rounds to 0.0, so F has reached its
    # limit +0.0 at 2**62 for every stationary phi, and stays there beyond
    # the float range, where phi ** (2 * h) would overflow
    @pytest.mark.parametrize("phi", [0.5, -(1 - 2 ** -53), 0.0])
    def test_horizons_beyond_the_float_range_give_the_limit(self, phi):
        horizons = (2 ** 62 - 1, 2 ** 62, 10 ** 400)
        values = ar1_profile(phi, horizons).values_nats
        assert [repr(v) for v in values] == ["0.0"] * 3
        assert values[:2] == tuple(-0.5 * math.log1p(-(phi ** (2 * h))) for h in horizons[:2])


class TestSeasonalAcf:
    def test_collapses_to_ar1_when_seasonal_off(self):
        rho = seasonal_ar_acf(0.5, 0.0, 12, 20)
        np.testing.assert_allclose(rho, 0.5 ** np.arange(1, 21), rtol=1e-12)

    def test_pure_seasonal_when_phi_off(self):
        rho = seasonal_ar_acf(0.0, 0.8, 12, 36)
        np.testing.assert_allclose(rho[[11, 23, 35]], [0.8, 0.64, 0.512], rtol=1e-12)
        assert np.all(np.abs(np.delete(rho, [11, 23, 35])) < 1e-12)

    def test_reference_values(self):
        # frozen from two independent routes: spectral-density quadrature and a
        # 1e7-observation simulated sample ACF (both agree to ~4 decimals)
        rho = seasonal_ar_acf(0.5, 0.8, 12, 36)
        assert rho[0] == pytest.approx(0.500293, abs=5e-4)
        assert rho[11] == pytest.approx(0.800088, abs=5e-4)
        assert rho[23] == pytest.approx(0.640070, abs=5e-4)
        assert rho[35] == pytest.approx(0.512056, abs=5e-4)

    def test_one_step_forecastability_matches_reported_level(self):
        rho = seasonal_ar_acf(0.5, 0.8, 12, 1)
        assert -0.5 * math.log1p(-rho[0] ** 2) == pytest.approx(0.14, abs=0.02)

    @pytest.mark.parametrize("phi,Phi", [(1.0, 0.5), (0.5, 1.0), (-1.2, 0.0)])
    def test_stationarity_contract(self, phi, Phi):
        with pytest.raises(DomainError):
            seasonal_ar_acf(phi, Phi, 12, 10)

    @pytest.mark.parametrize("max_lag", [0, 2.5, math.nan, "2"])
    def test_max_lag_must_be_a_positive_integer(self, max_lag):
        with pytest.raises(ValueError, match="max_lag"):
            seasonal_ar_acf(0.5, 0.8, 12, max_lag)

    def test_integral_max_lag_gives_the_same_acf(self):
        np.testing.assert_array_equal(seasonal_ar_acf(0.5, 0.8, 12, 40.0),
                                      seasonal_ar_acf(0.5, 0.8, 12, 40))

    @pytest.mark.parametrize("phi,Phi,s", ACF_CASES)
    def test_matches_psi_weights_oracle(self, phi, Phi, s):
        max_lag = max(48, 2 * s + 2)
        rho = seasonal_ar_acf(phi, Phi, s, max_lag)
        oracle = psi_weights_acf(phi, Phi, s, max_lag)
        assert np.max(np.abs(rho - oracle)) <= 1e-14

    @pytest.mark.parametrize("phi,Phi,s", list(itertools.product(
        (-0.99, 0.3, 0.99), (-0.99, -0.5, 0.8, 0.99), (1, 2, 12))))
    def test_rounding_error_grows_only_as_the_conditioning(self, phi, Phi, s):
        # 1 + Phi phi^s is 0.0199 at (0.99, -0.99, 1), where the error is 2.2e-14
        rho = seasonal_ar_acf(phi, Phi, s, 48)
        exact = exact_seasonal_acf(phi, Phi, s, 48)
        error = max(abs(Fraction(r) - e) for r, e in zip(rho.tolist(), exact))
        assert error <= 16 * np.finfo(float).eps / (1 + Phi * phi ** s)

    @pytest.mark.parametrize("Phi", [0.999, 0.9999])
    def test_satisfies_ar_recursion_near_unit_root(self, Phi):
        phi, s = 0.5, 12
        rho = np.concatenate([[1.0], seasonal_ar_acf(phi, Phi, s, 48)])
        h = np.arange(s + 2, 49)
        implied = (phi * rho[h - 1] + Phi * rho[h - s]
                   - phi * Phi * rho[h - s - 1])
        assert np.max(np.abs(rho[h] - implied)) <= 1e-12


class TestProfileFromAcf:
    def test_matches_ar1_closed_form(self):
        horizons = tuple(range(1, 21))
        rho = np.array([0.95 ** h for h in range(1, 21)])
        via_acf = gaussian_profile_from_acf(rho, 1, horizons)
        closed = ar1_profile(0.95, horizons)
        for h in horizons:
            assert via_acf.value_at(h) == pytest.approx(
                closed.value_at(h), abs=1e-12
            )

    def test_white_noise_profile_is_zero(self):
        prof = gaussian_profile_from_acf(np.zeros(30), 3, (1, 5, 20))
        assert all(v == 0.0 for v in prof.values_nats)

    def test_periodic_acf_periodic_profile(self):
        base = [0.6 * math.cos(2 * math.pi * h / 12) for h in range(1, 13)]
        rho = np.array(base + base)  # exact float periodic extension
        prof = gaussian_profile_from_acf(rho, 1, tuple(range(1, 25)))
        for h in range(1, 13):
            assert prof.value_at(h) == prof.value_at(h + 12)

    def test_coverage_contract(self):
        with pytest.raises(CoverageError):
            gaussian_profile_from_acf(np.zeros(5), 2, (1, 5))  # needs lag 6

    @pytest.mark.parametrize("p", [0, 1.5, math.nan, "2"])
    def test_lag_order_must_be_a_positive_integer(self, p):
        with pytest.raises(ValueError, match="lag order"):
            gaussian_profile_from_acf(np.zeros(10), p, (1, 2))

    def test_integral_lag_order_gives_the_same_profile(self):
        rho = seasonal_ar_acf(0.5, 0.8, 12, 40)
        assert (gaussian_profile_from_acf(rho, np.float64(13.0), (1, 12, 24))
                == gaussian_profile_from_acf(rho, 13, (1, 12, 24)))

    def test_rho_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            gaussian_profile_from_acf(np.zeros((5, 2)), 1, (1,))

    def test_perfect_correlation_is_singular(self):
        with pytest.raises(SingularSystem, match=r"R\^2 >= 1 at horizon 1"):
            gaussian_profile_from_acf([1.0], 1, (1,))

    def test_non_positive_definite_window(self):
        # corr(y_t, y_{t-1}) = 0.9 with corr(y_t, y_{t-2}) = 0 is infeasible
        with pytest.raises(SingularSystem):
            gaussian_profile_from_acf(np.array([0.9, 0.0, 0.0]), 3, (1,))

    def test_dpi_monotone_in_window_size(self):
        rho = seasonal_ar_acf(0.5, 0.8, 12, 40)
        profiles = [
            gaussian_profile_from_acf(rho, p, tuple(range(1, 25)))
            for p in range(1, 8)
        ]
        for small, large in zip(profiles, profiles[1:]):
            for h in range(1, 25):
                assert large.value_at(h) >= small.value_at(h)

    def test_seasonal_profile_is_non_monotone(self):
        rho = seasonal_ar_acf(0.5, 0.8, 12, 14)
        prof = gaussian_profile_from_acf(rho, 1, tuple(range(1, 14)))
        interior_min = min(prof.value_at(h) for h in range(5, 10))
        assert interior_min < prof.value_at(1)
        assert prof.value_at(12) > prof.value_at(11)
        assert prof.value_at(12) > prof.value_at(13)

    def test_window_matrix_is_the_scipy_toeplitz_matrix(self, monkeypatch):
        rho = seasonal_ar_acf(0.5, 0.8, 12, 40)
        full = np.concatenate([[1.0], rho])
        factored, nested_cholesky = [], analytic._nested_cholesky

        def record(R):
            factored.append(R)
            return nested_cholesky(R)

        monkeypatch.setattr(analytic, "_nested_cholesky", record)
        for p in range(1, 41):
            gaussian_profile_from_acf(rho, p, (1,))
            assert np.array_equal(factored[-1], toeplitz(full[:p]))

    def test_cholesky_factor_is_nested(self):
        R = toeplitz(np.concatenate([[1.0], seasonal_ar_acf(0.5, 0.8, 12, 39)]))
        L = analytic._nested_cholesky(R)
        for m in range(1, 41):
            assert np.array_equal(analytic._nested_cholesky(R[:m, :m]), L[:m, :m])

    def test_seasonal_profile_bytes_are_pinned(self):
        prof = gaussian_profile_from_acf(seasonal_ar_acf(0.5, 0.8, 12, 60), 13,
                                         range(1, 49))
        digest = hashlib.sha256(np.asarray(prof.values_nats, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "9901c750ffb70751a3d91571762591480ddd60f58966e6ebfc70e95d9d89bedc")

    def test_markov_budget_is_zero_for_ar1(self):
        horizons = tuple(range(1, 13))
        rho = np.array([0.9 ** h for h in range(1, 20)])
        base = gaussian_profile_from_acf(rho, 1, horizons)
        for p in (2, 3, 5):
            wide = gaussian_profile_from_acf(rho, p, horizons)
            for h in horizons:
                delta = wide.value_at(h) - base.value_at(h)
                assert 0.0 <= delta <= 1e-12


class TestEntropySummary:
    def test_iid_case(self):
        summary = gaussian_entropy_summary(GaussianProcessSpec.ar1(0.0))
        assert summary.marginal_entropy_nats == pytest.approx(HALF_LN_2PIE, abs=1e-15)
        assert summary.entropy_rate_nats == pytest.approx(HALF_LN_2PIE, abs=1e-15)
        assert summary.one_step_forecastability_nats == 0.0

    def test_identity_holds_exactly(self):
        summary = gaussian_entropy_summary(GaussianProcessSpec.ar1(0.7, 2.5))
        assert summary.one_step_forecastability_nats == (
            summary.marginal_entropy_nats - summary.entropy_rate_nats
        )

    def test_anchors_profile_at_h1(self):
        for phi in (0.3, 0.7, 0.95):
            summary = gaussian_entropy_summary(GaussianProcessSpec.ar1(phi))
            assert summary.one_step_forecastability_nats == pytest.approx(
                ar1_profile(phi, (1,)).value_at(1), abs=1e-12
            )

    def test_scale_invariant_forecastability(self):
        lo = gaussian_entropy_summary(GaussianProcessSpec.ar1(0.95, 1.0))
        hi = gaussian_entropy_summary(GaussianProcessSpec.ar1(0.95, 2.0))
        assert hi.one_step_forecastability_nats == pytest.approx(
            lo.one_step_forecastability_nats, abs=1e-12
        )
        assert hi.one_step_forecastability_nats == pytest.approx(1.1639514504891677, abs=1e-12)
        assert hi.entropy_rate_nats > lo.entropy_rate_nats

    def test_requires_ar1(self):
        with pytest.raises(DomainError):
            gaussian_entropy_summary(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12))

    def test_seasonal_spec_at_Phi_zero_is_an_ar1(self):
        summary = gaussian_entropy_summary(GaussianProcessSpec.seasonal_ar(0.5, 0.0, 12))
        assert summary == gaussian_entropy_summary(GaussianProcessSpec.ar1(0.5))


class TestSimulate:
    def test_deterministic(self):
        spec = GaussianProcessSpec.ar1(0.6)
        a = simulate(spec, 500, seed=123)
        b = simulate(spec, 500, seed=123)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_matters(self):
        spec = GaussianProcessSpec.ar1(0.6)
        a = simulate(spec, 500, seed=1)
        b = simulate(spec, 500, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_iid_moments(self):
        ts = simulate(GaussianProcessSpec.ar1(0.0), 10_000, seed=0)
        assert abs(ts.values.mean()) < 4.0 / math.sqrt(10_000)
        assert abs(ts.values.var() - 1.0) < 0.1

    def test_ar1_sample_autocorrelation(self):
        ts = simulate(GaussianProcessSpec.ar1(0.95), 10_000, seed=1)
        y = ts.values - ts.values.mean()
        rho1 = (y[:-1] @ y[1:]) / (y @ y)
        assert rho1 == pytest.approx(0.95, abs=0.02)

    def test_seasonal_metadata_and_acf(self):
        ts = simulate(GaussianProcessSpec.seasonal_ar(0.0, 0.8, 12), 50_000, seed=3)
        y = ts.values - ts.values.mean()
        rho12 = (y[:-12] @ y[12:]) / (y @ y)
        assert rho12 == pytest.approx(0.8, abs=0.02)

    def test_innovation_variance_scales_path(self):
        a = simulate(GaussianProcessSpec.ar1(0.5, 1.0), 2000, seed=7)
        b = simulate(GaussianProcessSpec.ar1(0.5, 4.0), 2000, seed=7)
        np.testing.assert_allclose(b.values, 2.0 * a.values, rtol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, -0.7, 0.95])
    def test_ar1_matches_two_coefficient_filter(self, phi):
        n, burn_in = 700, 1000
        ts = simulate(GaussianProcessSpec.ar1(phi), n, seed=4, burn_in=burn_in)
        e = np.random.default_rng(4).standard_normal(n + burn_in)
        np.testing.assert_array_equal(ts.values, lfilter([1.0], [1.0, -phi], e)[burn_in:])

    # lfilter is the oracle: simulate promises its float operations, in its
    # order, so the two paths must agree in every bit
    @staticmethod
    def _lfilter_path(spec, n, seed, burn_in):
        poles = np.zeros(spec.s + 2)
        poles[0] = 1.0
        poles[1] = -spec.phi
        poles[spec.s] += -spec.Phi
        poles[spec.s + 1] += spec.phi * spec.Phi
        e = np.random.default_rng(seed).standard_normal(n + burn_in)
        return lfilter([1.0], poles, e * math.sqrt(spec.innovation_variance))[burn_in:]

    @pytest.mark.parametrize("s", [1, 2, 12, 52])
    @pytest.mark.parametrize("phi,Phi", [
        (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (0.5, 0.8), (-0.7, 0.6), (0.3, -0.9),
        (-0.4, -0.5), (0.9999999, 0.0), (-0.0, -0.9999999), (0.9999999, -0.9999999),
        (-0.9999999, 0.9999999),
    ])
    def test_seasonal_family_matches_lfilter_bit_for_bit(self, s, phi, Phi):
        spec = GaussianProcessSpec(phi, Phi, s)
        got = simulate(spec, 700, seed=4).values
        expected = self._lfilter_path(spec, 700, 4, 1000)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    # innovation variances at both ends of the float range, no burn-in, the
    # shortest path, and a path longer than one chunk of innovations
    @pytest.mark.parametrize("s", [1, 12])
    @pytest.mark.parametrize("variance,n,burn_in", [
        (1e-300, 700, 1000), (1e300, 700, 1000), (1.0, 700, 0), (1.0, 2, 0),
        (1.0, analytic._CHUNK + 1, 1000),
    ], ids=["variance-1e-300", "variance-1e300", "no-burn-in", "n-2", "beyond-a-chunk"])
    def test_sizes_and_scales_match_lfilter_bit_for_bit(self, s, variance, n, burn_in):
        spec = GaussianProcessSpec(0.5, -0.8, s, variance)
        got = simulate(spec, n, seed=6, burn_in=burn_in).values
        expected = self._lfilter_path(spec, n, 6, burn_in)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_period_longer_than_the_path_matches_lfilter(self):
        spec = GaussianProcessSpec(0.5, 0.8, 5000)
        got = simulate(spec, 40, seed=2, burn_in=10).values
        np.testing.assert_array_equal(got.view(np.uint64),
                                      self._lfilter_path(spec, 40, 2, 10).view(np.uint64))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            simulate(GaussianProcessSpec.ar1(0.5), 0, seed=0)

    def test_one_value_is_no_series(self):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            simulate(GaussianProcessSpec.ar1(0.5), 1, seed=0, burn_in=0)

    @pytest.mark.parametrize("n,burn_in,seed", [
        (10.5, 0, 0), ("10", 0, 0), (math.nan, 0, 0), (10, -1, 0), (10, 2.5, 0),
        (10, 0, -1), (10, 0, 1.5), (10, 0, "3"),
    ], ids=["n-float", "n-str", "n-nan", "burn_in-negative", "burn_in-float",
            "seed-negative", "seed-float", "seed-str"])
    def test_counts_and_seed_must_be_integers(self, n, burn_in, seed):
        with pytest.raises(ValueError):
            simulate(GaussianProcessSpec.ar1(0.5), n, seed=seed, burn_in=burn_in)

    def test_integral_counts_and_seed_give_the_same_path(self):
        spec = GaussianProcessSpec.ar1(0.5)
        a = simulate(spec, 10.0, seed=np.int64(3), burn_in=np.float64(5.0))
        b = simulate(spec, 10, seed=3, burn_in=5)
        np.testing.assert_array_equal(a.values, b.values)


class TestGaussianProcessSpec:
    def test_innovation_variance_positive(self):
        with pytest.raises(DomainError):
            GaussianProcessSpec.ar1(0.5, innovation_variance=0.0)

    @pytest.mark.parametrize("make", [
        lambda: GaussianProcessSpec.ar1(math.nan),
        lambda: GaussianProcessSpec.seasonal_ar(math.nan, 0.5, 12),
        lambda: GaussianProcessSpec.seasonal_ar(0.5, math.nan, 12),
        lambda: GaussianProcessSpec.ar1(0.5, innovation_variance=math.nan),
        lambda: GaussianProcessSpec.ar1(0.5, innovation_variance=math.inf),
    ], ids=["phi-nan", "seasonal-phi-nan", "Phi-nan", "variance-nan", "variance-inf"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("s", [2.5, math.nan, math.inf, 0])
    def test_seasonal_period_must_be_a_positive_integer(self, s):
        with pytest.raises(DomainError):
            GaussianProcessSpec.seasonal_ar(0.5, 0.5, s)
        with pytest.raises(DomainError):
            seasonal_ar_acf(0.5, 0.5, s, 5)

    def test_ar1_is_the_seasonal_model_at_Phi_zero(self):
        assert GaussianProcessSpec.ar1(0.5, 2.0) == GaussianProcessSpec.seasonal_ar(
            0.5, 0.0, 1, 2.0
        )
