import concurrent.futures
import math
import threading
import time

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import digamma as scipy_digamma

from forecastability import (
    ConfigError,
    DegenerateSample,
    DomainError,
    EstimatorConfig,
    InformationSetSpec,
    TimeSeries,
    ar1_profile,
    digamma,
    estimate_profile,
    finite_window_budget,
    kl_entropy,
    ksg_mutual_information,
    permutation_test,
    simulate,
    GaussianProcessSpec,
)
from forecastability import estimators
from forecastability.estimators import _ksg_conditional_mutual_information
from knn_oracle import counts_within, joint_radii_and_counts, kernel_calls_match_oracle

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)
EULER_GAMMA = 0.5772156649015329


def gaussian_pair(rho, n, seed):
    g = np.random.default_rng(seed)
    z = g.standard_normal((n, 2))
    return z[:, 0], rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.k == 5 and cfg.seed == 0

    @pytest.mark.parametrize("kwargs", [dict(k=0), dict(k=-2), dict(seed=-1),
                                        dict(k=2.5), dict(seed=1.5)])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            EstimatorConfig(**kwargs)

    def test_integral_values_are_stored_as_int(self):
        cfg = EstimatorConfig(k=True, seed=np.int64(7))
        assert (cfg.k, cfg.seed) == (1, 7)
        assert type(cfg.k) is int and type(cfg.seed) is int


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)

    def test_large_argument_expansion(self):
        # leading asymptotic terms: log(x) - 1/(2x); next correction ~1e-5
        assert digamma(100.0) == pytest.approx(math.log(100.0) - 0.005, abs=1e-5)

    def test_recurrence_identity(self):
        for x in (0.01, 0.3, 1.7, 4.2, 8.9, 33.0):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)

    def test_against_scipy_grid(self):
        xs = np.concatenate(
            [np.linspace(1e-3, 6.0, 400), np.linspace(6.0, 400.0, 400)]
        )
        assert np.max(np.abs(digamma(xs) - scipy_digamma(xs))) < 1e-10

    def test_array_and_scalar_shapes(self):
        out = digamma(np.array([1.0, 2.0, 3.0]))
        assert out.shape == (3,)
        assert isinstance(digamma(1.5), float)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, np.array([2.0, math.nan])])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            digamma(x)


class TestKlEntropy:
    def test_standard_normal_1d(self, rng):
        sample = rng.standard_normal(5000)
        assert kl_entropy(sample, k=5) == pytest.approx(HALF_LN_2PIE, abs=0.05)

    def test_uniform_1d(self, rng):
        sample = rng.uniform(0.0, 1.0, 5000)
        assert kl_entropy(sample, k=5) == pytest.approx(0.0, abs=0.05)

    def test_independent_normal_2d(self, rng):
        sample = rng.standard_normal((5000, 2))
        assert kl_entropy(sample, k=5) == pytest.approx(2 * HALF_LN_2PIE, abs=0.08)

    def test_scaling_shifts_entropy_by_log_a(self, rng):
        sample = rng.standard_normal(3000)
        base = kl_entropy(sample, k=5)
        assert kl_entropy(7.0 * sample, k=5) == pytest.approx(
            base + math.log(7.0), abs=1e-9
        )

    def test_duplicates_rejected(self):
        sample = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0])
        with pytest.raises(DegenerateSample):
            kl_entropy(sample, k=2)

    @pytest.mark.parametrize("shape", [(0,), (10, 0), (0, 2), (2, 2, 2)])
    def test_sample_shape_contract(self, shape):
        with pytest.raises(ValueError, match="sample must be"):
            kl_entropy(np.zeros(shape))
        with pytest.raises(ValueError, match="sample must be"):
            ksg_mutual_information(np.zeros(shape), np.arange(shape[0], dtype=float))

    def test_k_contract(self):
        with pytest.raises(ConfigError):
            kl_entropy(np.arange(5.0), k=5)
        with pytest.raises(ConfigError):
            kl_entropy(np.arange(5.0), k=0)
        with pytest.raises(ConfigError):
            kl_entropy(np.arange(5.0), k=2.5)


class TestKsgMutualInformation:
    def test_bivariate_gaussian(self):
        x, y = gaussian_pair(0.6, 2000, seed=0)
        truth = -0.5 * math.log1p(-0.36)
        assert ksg_mutual_information(x, y, k=5) == pytest.approx(truth, abs=0.03)

    def test_independent(self):
        x, y = gaussian_pair(0.0, 2000, seed=1)
        assert abs(ksg_mutual_information(x, y, k=5)) <= 0.02

    def test_deterministic_copy_diverges_with_n(self, rng):
        x = rng.standard_normal(1000)
        small = ksg_mutual_information(x[:250], x[:250], k=5)
        large = ksg_mutual_information(x, x, k=5)
        assert small > 1.0
        assert large > small

    def test_brute_force_matches_tree_exactly(self, rng, monkeypatch):
        x = rng.standard_normal(400)
        y = 0.6 * x + 0.8 * rng.standard_normal(400)
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: ksg_mutual_information(x, y, k=5)
        )
        assert called == ["eps", "count", "count"]
        xm = rng.standard_normal((300, 3))
        ym = xm[:, :1] + rng.standard_normal((300, 1))
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: ksg_mutual_information(xm, ym, k=4)
        )
        assert called == ["eps", "count", "count"]
        # a wide x-marginal: the fused query gives eps and the x-count
        xw = rng.standard_normal((300, estimators._FUSED_FROM))
        yw = xw[:, :2] + rng.standard_normal((300, 2))
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: ksg_mutual_information(xw, yw, k=4)
        )
        assert called == ["joint", "count"]

    def test_entropy_paths_match_exactly(self, rng, monkeypatch):
        sample = rng.standard_normal((400, 2))
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: kl_entropy(sample, k=5)
        )
        assert called == ["eps"]

    def test_consistency_with_entropies(self, rng):
        x, y = gaussian_pair(0.6, 5000, seed=9)
        mi = ksg_mutual_information(x, y, k=5)
        h_sum = kl_entropy(x, k=5) + kl_entropy(y, k=5) - kl_entropy(
            np.column_stack([x, y]), k=5
        )
        assert mi == pytest.approx(h_sum, abs=0.05)

    def test_contracts(self, rng):
        x = rng.standard_normal(10)
        with pytest.raises(ConfigError):
            ksg_mutual_information(x, x, k=10)
        with pytest.raises(ConfigError):
            ksg_mutual_information(x, rng.standard_normal(9), k=2)
        dup = np.ones(10)
        with pytest.raises(DegenerateSample):
            ksg_mutual_information(dup, dup, k=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("d", [1, 8])
    def test_non_finite_samples_are_refused_before_any_tree(self, monkeypatch, bad, where, d):
        g = np.random.default_rng(6)
        x, y = g.standard_normal((500, d)), g.standard_normal((500, d))
        (x if where == "x" else y)[123, -1] = bad

        def unused(points):
            raise AssertionError("a k-d tree was built on non-finite points")

        monkeypatch.setattr(estimators, "_tree", unused)
        with pytest.raises(ValueError, match="finite"):
            ksg_mutual_information(x, y, k=5)
        with pytest.raises(ValueError, match="finite"):
            kl_entropy(x if where == "x" else y, k=5)


class TestEstimateProfile:
    def test_ar1_tracks_closed_form(self, ar1_strong, config):
        horizons = (1, 2, 3, 4, 5)
        est = estimate_profile(
            ar1_strong, InformationSetSpec(1, horizons), config
        )
        closed = ar1_profile(0.95, horizons)
        for h in horizons:
            assert est.value_at(h) == pytest.approx(closed.value_at(h), abs=0.08)

    def test_white_noise_is_flat_zero(self, white_noise, config):
        est = estimate_profile(
            white_noise, InformationSetSpec(1, tuple(range(1, 11))), config
        )
        assert max(abs(v) for v in est.values_nats) <= 0.03

    def test_gap_markers_and_meta(self, config):
        series = TimeSeries(np.linspace(0.0, 1.0, 20))
        est = estimate_profile(series, InformationSetSpec(2, (1, 10, 14, 18)), config)
        assert not math.isnan(est.value_at(1))
        assert math.isnan(est.value_at(14))  # n_eff = 5 <= k+1
        assert math.isnan(est.value_at(18))  # n_eff = 1
        assert est.gaps() == (14, 18)
        assert est.estimator_meta.n_effective == (18, 9, 5, 1)
        assert est.estimator_meta.k == 5 and est.estimator_meta.p == 2
        assert est.source == "estimated"

    def test_all_gaps_profile(self, config):
        series = TimeSeries(np.linspace(0.0, 1.0, 8))
        est = estimate_profile(series, InformationSetSpec(1, (5, 7)), config)
        assert est.gaps() == (5, 7)

    def test_deterministic(self, ar1_strong, config):
        spec = InformationSetSpec(1, (1, 2))
        a = estimate_profile(ar1_strong, spec, config)
        b = estimate_profile(ar1_strong, spec, config)
        assert a.values_nats == b.values_nats

    def test_jitter_seed_changes_result_only_marginally(self, ar1_strong):
        spec = InformationSetSpec(1, (1,))
        a = estimate_profile(ar1_strong, spec, EstimatorConfig(seed=0))
        b = estimate_profile(ar1_strong, spec, EstimatorConfig(seed=99))
        assert a.value_at(1) == pytest.approx(b.value_at(1), abs=1e-3)

    @pytest.mark.parametrize("a,b", [(2.5, 7.0), (-3.0, 1.5), (0.001, -40.0)])
    def test_affine_invariance(self, ar1_strong, config, a, b):
        spec = InformationSetSpec(1, (1, 2, 3))
        base = estimate_profile(ar1_strong, spec, config)
        moved = estimate_profile(
            TimeSeries(a * ar1_strong.values + b), spec, config
        )
        for h in spec.horizons:
            assert moved.value_at(h) == pytest.approx(base.value_at(h), abs=1e-3)

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 1e-300])
    def test_scale_invariance_near_float_range(self, config, scale):
        # the standard deviation of such a series overflows or underflows
        # unless it is taken on an exactly rescaled copy
        series = simulate(GaussianProcessSpec.ar1(0.9), 2000, seed=1)
        spec = InformationSetSpec(1, (1, 2, 3))
        base = estimate_profile(series, spec, config)
        scaled = estimate_profile(TimeSeries(series.values * scale), spec, config)
        assert base.value_at(1) == pytest.approx(0.831, abs=0.01)
        assert scaled.values_nats == pytest.approx(base.values_nats, abs=1e-12)

    def test_seasonal_profile_levels(self, config):
        # population values from the exact ACF: 0.144, 0.0004, 0.511
        series = simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), 20_000, seed=8)
        est = estimate_profile(series, InformationSetSpec(1, (1, 6, 12)), config)
        assert est.value_at(1) == pytest.approx(0.144, abs=0.05)
        assert est.value_at(6) <= 0.03
        assert est.value_at(12) == pytest.approx(0.511, abs=0.07)

    def test_convergence_in_n(self):
        target = ar1_profile(0.95, (1,)).value_at(1)
        spec = InformationSetSpec(1, (1,))
        config = EstimatorConfig()
        medians = []
        for n in (500, 2000, 8000):
            errors = [
                abs(
                    estimate_profile(
                        simulate(GaussianProcessSpec.ar1(0.95), n, seed=100 + s),
                        spec,
                        config,
                    ).value_at(1)
                    - target
                )
                for s in range(20)
            ]
            medians.append(float(np.median(errors)))
        assert all(a >= b for a, b in zip(medians, medians[1:]))

    @pytest.mark.one_core
    @pytest.mark.parametrize("n, seed, p, expected", [
        (1000, 0, 3, (0.15877745130426568, 0.5142255757814338)),
        (1000, 0, 4, (0.15071193578727815, 0.4874512350901403)),
        (1000, 0, 5, (0.17905191905125228, 0.4702565840230717)),
        (1000, 0, 6, (0.22689300574803362, 0.4495070518697428)),
        (1000, 1, 3, (0.20293779900953268, 0.50194977443845)),
        (1000, 1, 4, (0.23236006439520906, 0.47283982430671223)),
        (1000, 1, 5, (0.21608768451880422, 0.4111683481284194)),
        (1000, 1, 6, (0.2033314688247181, 0.40511365635127294)),
        (1000, 2, 3, (0.08823861603932492, 0.3788034093551218)),
        (1000, 2, 4, (0.07905251717716233, 0.361659227672984)),
        (1000, 2, 5, (0.07889171628553804, 0.338192656031552)),
        (1000, 2, 6, (0.0811060826071408, 0.29657244499640534)),
        (20000, 0, 3, (0.16077559867649072, 0.5174391805483349)),
        (20000, 0, 4, (0.15681298756975792, 0.5138932653113617)),
        (20000, 0, 5, (0.16223889207196507, 0.5034026825143734)),
        (20000, 0, 6, (0.16159784279972556, 0.4942937461027803)),
    ])
    def test_profile_beyond_two_lags_is_pinned_to_the_last_bit(self, n, seed, p, expected,
                                                                config):
        # the golden outputs run at p = 2; these cover the x-marginal counts
        # of three to six dimensions, at both sample sizes
        series = simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), n, seed=seed)
        profile = estimate_profile(series, InformationSetSpec(p, (1, 12)), config)
        n_effective = (n - p, n - p - 11)
        assert repr(profile) == (
            f"ForecastabilityProfile(horizons=(1, 12), values_nats={expected!r}, "
            f"source='estimated', estimator_meta=EstimatorMeta(k=5, p={p}, "
            f"n_effective={n_effective!r}, seed=0))"
        )


class TestFiniteWindowBudget:
    def test_contract(self, white_noise, config):
        with pytest.raises(ConfigError):
            finite_window_budget(white_noise, 3, 3, (1,), config)
        with pytest.raises(ConfigError):
            finite_window_budget(white_noise, 0, 3, (1,), config)
        with pytest.raises(ConfigError):
            finite_window_budget(white_noise, 1.5, 3, (1,), config)
        with pytest.raises(ConfigError):
            finite_window_budget(white_noise, 1, 3.5, (1,), config)

    def test_markov_series_has_no_budget(self, ar1_strong, config):
        budget = finite_window_budget(ar1_strong, 1, 3, (1,), config)
        assert abs(budget.delta_nats[0]) <= 0.05
        assert budget.p_small == 1 and budget.p_large == 3

    def test_seasonal_remote_lags_detected(self, seasonal_series, config):
        # population budget at h=1 between p=13 and p=1 is about 0.51 nats;
        # the 14-dimensional estimate is biased low but stays far above 0.1
        budget = finite_window_budget(seasonal_series, 1, 13, (1,), config)
        assert budget.delta_nats[0] > 0.1

    def test_gap_marker(self, config):
        series = TimeSeries(np.linspace(0.0, 1.0, 20))
        budget = finite_window_budget(series, 1, 4, (1, 14), config)
        assert not math.isnan(budget.delta_nats[0])
        assert math.isnan(budget.delta_nats[1])

    @pytest.mark.parametrize("z_cols", [1, 2, 3])
    def test_conditional_counts_brute_force_matches_tree_exactly(
        self, z_cols, monkeypatch
    ):
        g = np.random.default_rng(7)
        n = 300
        # a narrow (z, w) takes the k-th search and the count, a wide one the
        # fused query; (1, 2) is a 3-D (z, w) below the fused query, and at
        # z_cols = 3 both narrow counts, (z, y) and z, take the ball query
        for w_cols in (2, 6):
            expected = (["joint", "count", "count"]
                        if z_cols + w_cols >= estimators._FUSED_FROM
                        else ["eps", "count", "count", "count"])
            # exact ties in z, grid values in w (marginal distances land exactly
            # on eps), one-ulp near-ties in w, and 2**-40 steps keeping y distinct
            z = g.integers(0, 4, (n, z_cols)).astype(float)
            w = g.integers(0, 8, (n, w_cols)) * 0.5
            w[::3, 0] = np.nextafter(w[::3, 0], np.inf)
            y = g.integers(0, 16, n) * 0.25 + np.arange(n) * 2.0 ** -40
            value, called = kernel_calls_match_oracle(
                monkeypatch,
                lambda: _ksg_conditional_mutual_information(np.hstack([z, w]), z_cols, y, 4),
            )
            assert math.isfinite(value)
            assert called == expected

    @pytest.mark.parametrize("seed, expected", [
        (0, (0.28890186631651615, 0.047159367273232666)),
        (1, (0.2842178228833414, 0.03601765845684035)),
        (2, (0.26923185849979836, 0.03904565770127655)),
    ])
    def test_budget_is_pinned_to_the_last_bit(self, seed, expected, config):
        # the 14-D joint space and 13-D (z, w) count of criterion 6, small
        series = simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), 4000, seed=seed)
        budget = finite_window_budget(series, 1, 13, (1, 12), config)
        assert repr(budget) == (
            f"FiniteWindowBudget(horizons=(1, 12), p_small=1, p_large=13, "
            f"delta_nats={expected!r})"
        )

    @pytest.mark.one_core
    @pytest.mark.parametrize("p_small, p_large, seed, expected", [
        (2, 13, 0, (0.2880870704883547, 0.04673601954185491)),
        (2, 13, 1, (0.2846517388915424, 0.033501965354645336)),
        (2, 13, 2, (0.2667914008798713, 0.03537440870812869)),
        (3, 13, 0, (0.28626133723058156, 0.04635439475213787)),
        (3, 13, 1, (0.2837423855742751, 0.03278432483218552)),
        (3, 13, 2, (0.26427847563895956, 0.03501137130376786)),
        (6, 8, 0, (0.04300163083080677, 0.015567892283003815)),
        (6, 8, 1, (0.040628798457973625, 0.0028601092561397756)),
        (6, 8, 2, (0.03336742095838163, 0.01249263985127258)),
    ])
    def test_budget_beyond_one_conditioning_lag_is_pinned_to_the_last_bit(
        self, p_small, p_large, seed, expected, config
    ):
        # z is a strided view of the window: a 2-D rank count on z and a 3-D
        # (z, y) count at p_small = 2, k-d tree counts on both from 3 on, and
        # a fused (z, w) query at p_large = 8
        series = simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), 4000, seed=seed)
        budget = finite_window_budget(series, p_small, p_large, (1, 12), config)
        assert repr(budget) == (
            f"FiniteWindowBudget(horizons=(1, 12), p_small={p_small}, "
            f"p_large={p_large}, delta_nats={expected!r})"
        )

    @pytest.mark.one_core
    @pytest.mark.parametrize("seed, expected", [
        (0, 0.025090226732240373),
        (1, 0.02731130292836159),
        (2, 0.02311008117638802),
    ])
    def test_the_fused_budget_is_pinned_at_n_20000(self, seed, expected, config):
        # criterion 6 at full size: about 3 % of the 19 976 points widen the
        # fused query, which a sample of 4000 points exercises less
        series = simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), 20_000, seed=seed)
        budget = finite_window_budget(series, 1, 13, (12,), config)
        assert budget.delta_nats == (expected,)


_R = 1.5
# value pools whose max-norm distances land exactly on the radii or one ulp
# either side: grids, one-ulp neighbours of a grid, a few values repeated
# in runs, values near 0 under large radii, and values near +-r with r = _R
_POOLS = {
    "grid": [0.5 * v for v in range(-3, 4)],
    "near_tie": [u for v in range(-3, 4) for u in (
        0.1 * v, np.nextafter(0.1 * v, np.inf), np.nextafter(0.1 * v, -np.inf))],
    "runs": [-1.25, 0.3, 2.0],
    "near_zero": [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.0 ** -60, -(2.0 ** -60),
                  1e-17, -1e-17],
    "near_r": [_R, -_R, np.nextafter(_R, 0.0), np.nextafter(_R, 3.0), -np.nextafter(_R, 0.0),
               0.0, 2.0 ** -60, -(2.0 ** -60), 1e-17, 0.75, 2.0 * _R],
}
_RADII = [_R, np.nextafter(_R, 0.0), np.nextafter(_R, 3.0), 1.0, 1e10, 2.0 ** -52]


@st.composite
def _count_inputs(draw):
    """Points from one pool; each radius is the distance to a drawn partner
    point, nudged by at most one ulp, or one of ``_RADII`` (always > 0)."""
    n = draw(st.integers(1, 70))
    d = draw(st.integers(1, 4))
    pool = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
    points = draw(hnp.arrays(float, (n, d), elements=st.sampled_from(pool)))
    if d > 1 and draw(st.booleans()):
        points[:, 0] = points[0, 0]  # one marginal tied throughout
    partner = draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))
    radii = np.abs(points - points[partner]).max(axis=1)
    nudge = draw(hnp.arrays(np.int8, n, elements=st.integers(-1, 1)))
    radii = np.where(nudge == 0, radii, np.nextafter(radii, np.copysign(np.inf, nudge)))
    fixed = draw(hnp.arrays(float, n, elements=st.sampled_from(_RADII)))
    use_fixed = draw(hnp.arrays(bool, n)) | ~(radii > 0.0)
    return points, np.where(use_fixed, fixed, radii)


@st.composite
def _joint_inputs(draw):
    """Wide and narrow points, each from one pool, and k.  The narrow points
    may be made distinct by 2**-40 steps, so that fewer samples hold
    duplicates; the wide ones may be nearly flat, one value per column
    moved by at most one ulp, so that almost every point widens its
    query to all n points."""
    n = draw(st.integers(2, 70))
    k = draw(st.integers(1, n - 1))

    def points(d):
        pool = _POOLS[draw(st.sampled_from(sorted(_POOLS)))]
        return draw(hnp.arrays(float, (n, d), elements=st.sampled_from(pool)))

    wide, narrow = points(draw(st.integers(1, 6))), points(draw(st.integers(1, 2)))
    if draw(st.booleans()):
        narrow[:, 0] += np.arange(n) * 2.0 ** -40
    if draw(st.booleans()):
        flat = np.broadcast_to(wide[0], wide.shape)
        nudge = draw(hnp.arrays(np.int8, wide.shape, elements=st.integers(-1, 1)))
        wide = np.where(nudge == 0, flat, np.nextafter(flat, np.copysign(np.inf, nudge)))
    return wide, narrow, k


def clumped(n, d=3):
    """Uniform points with a clump whose members hold more than the fused
    query's first neighbour list at any radius, so that the clump widens
    its query; radii from 1e-4 to 2 in random order."""
    g = np.random.default_rng(3)
    points = g.uniform(0.0, 1.0, (n, d))
    points[:60] = 0.5 + g.uniform(0.0, 1e-6, (60, d))
    return points, g.permutation(np.geomspace(1e-4, 2.0, n))


def record_workers(monkeypatch, held=None):
    """Log ``(site, workers)`` for every k-d tree query the estimators make;
    the site is "fused" for a query holding one of the fused query's
    neighbour counts (_FUSED_SLOTS + 1, then four times as many at each
    widening, clamped to the tree size; so k + 1 must be none of them),
    else "kth" or "ball".  A k-NN query also appends its
    ``(rows, neighbours)`` to the list ``held``, if one is given."""
    log = []

    class Tree(scipy.spatial.cKDTree):
        def query(self, x, k, **kwargs):
            widths = {min((estimators._FUSED_SLOTS + 1) * 4 ** j, self.n) for j in range(16)}
            site = "fused" if k in widths else "kth"
            log.append((site, kwargs["workers"]))
            if held is not None:
                held.append((len(x), k))
            return super().query(x, k, **kwargs)

        def query_ball_point(self, x, r, **kwargs):
            log.append(("ball", kwargs["workers"]))
            return super().query_ball_point(x, r, **kwargs)

    # the estimators import cKDTree when they build a tree, so they get this one
    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    return log


class TestThreadCount:
    def test_a_small_ksg_runs_single_threaded(self, monkeypatch):
        monkeypatch.setattr(estimators, "_cores", lambda: 1)
        log = record_workers(monkeypatch)
        x, y = gaussian_pair(0.6, 1000, 0)
        ksg_mutual_information(x, y, k=5)
        assert log == [("kth", 1)]
        # a 3-D x-marginal: the joint search and the ball query
        g = np.random.default_rng(1)
        xm = np.vstack([g.standard_normal((1000, 3)), 1e-9 * g.standard_normal((40, 3))])
        ksg_mutual_information(xm, xm[:, 0] + g.standard_normal(1040), k=5)
        assert {site for site, _ in log} == {"kth", "ball"}
        assert all(workers == 1 for _, workers in log)

    def test_a_large_count_tree_stays_threaded(self, monkeypatch):
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        # the tree size does not matter: 300 values or 12 000
        for n in (100, 4000):
            points, radii = clumped(n)
            log = record_workers(monkeypatch)
            estimators._counts_within(points, radii)
            assert {site for site, _ in log} == {"ball"}
            assert all(workers == 2 for _, workers in log)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_thread_count_never_changes_a_result(self, monkeypatch, d):
        points, radii = clumped(1280, d)
        # the fused query runs in blocks, the last one short
        assert len(points) % estimators._BLOCK
        narrow = radii[:, None]
        results = []
        for cores in (3, 1):
            monkeypatch.setattr(estimators, "_cores", lambda: cores)
            held = []
            log = record_workers(monkeypatch, held)
            plain = (estimators._kth_distances(points, 5),
                     estimators._counts_within(points, radii))
            assert {site for site, _ in log} == (
                {"kth", "ball"} if d >= 3 else {"kth"})
            fused_from, widths_from = len(log), len(held)
            fused = estimators._joint_radii_and_counts(points, narrow, 5)
            # the clump is not certified: it widens its fused query, on the
            # same tree, and no other query runs
            assert {site for site, _ in log[fused_from:]} == {"fused"}
            assert max(k for _, k in held[widths_from:]) > estimators._FUSED_SLOTS + 1
            assert all(w == cores for _, w in log)
            results.append((*plain, *fused))
        threaded, single = results
        assert all(map(np.array_equal, threaded, single))


class Boom(Exception):
    pass


def count_pools(monkeypatch):
    """Log the worker count of every pool ``estimators._map`` opens."""
    log = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            log.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # _map imports the executor when it opens a pool, so it gets this one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return log


class TestThreadPool:
    def test_the_core_count_never_changes_a_result(self, monkeypatch, config):
        series = simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), 400, seed=4)
        spec = InformationSetSpec(2, (1, 2, 12, 395, 398))  # the last two are gaps
        results = []
        for cores in (1, 4):
            monkeypatch.setattr(estimators, "_cores", lambda: cores)
            pools = count_pools(monkeypatch)
            profile = estimate_profile(series, spec, config)
            budget = finite_window_budget(series, 1, 3, (1, 6, 12), config)
            null = permutation_test(series, spec, config, replicates=19, seed=3)
            # gaps run no task: three live horizons, then 19 replicates
            assert pools == ([] if cores == 1 else [3, 3, 3, 4])
            results.append(np.array(
                [*profile.values_nats, *budget.delta_nats,
                 *(v for r in null for v in (r.observed_nats, *r.null_samples))]
            ).tobytes())
        assert results[0] == results[1]
        assert math.isnan(profile.values_nats[-1]) and len(null) == 3

    def test_estimates_at_once_never_exceed_the_cores(self, monkeypatch, config):
        cores = 3
        monkeypatch.setattr(estimators, "_cores", lambda: cores)
        lock = threading.Lock()
        running, peak = 0, 0
        ksg = estimators.ksg_mutual_information

        def counted(*args, **kwargs):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            try:
                time.sleep(0.002)  # let the other workers catch up
                return ksg(*args, **kwargs)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(estimators, "ksg_mutual_information", counted)
        pools = count_pools(monkeypatch)
        series = simulate(GaussianProcessSpec.ar1(0.5), 200, seed=2)
        permutation_test(series, InformationSetSpec(1, (1, 2, 3)), config,
                         replicates=29, seed=0)
        # the observed profile's pool, then the replicates' pool: a replicate's
        # profile runs inline in its worker
        assert pools == [3, 3]
        assert 2 <= peak <= cores

    @pytest.mark.parametrize("cores", [1, 4])
    def test_an_error_in_one_horizon_surfaces_with_its_class(self, monkeypatch, config,
                                                            cores):
        monkeypatch.setattr(estimators, "_cores", lambda: cores)
        ksg = estimators.ksg_mutual_information

        def failing(x, y, k):
            if len(y) == 300 - 3:  # n_eff at h = 3
                raise Boom("h = 3")
            return ksg(x, y, k)

        monkeypatch.setattr(estimators, "ksg_mutual_information", failing)
        series = simulate(GaussianProcessSpec.ar1(0.5), 300, seed=2)
        with pytest.raises(Boom, match="h = 3"):
            estimate_profile(series, InformationSetSpec(1, range(1, 9)), config)

    def test_a_pool_worker_queries_on_one_thread(self, monkeypatch, config):
        series = simulate(GaussianProcessSpec.ar1(0.5), 302, seed=2)
        for cores in (1, 2):
            monkeypatch.setattr(estimators, "_cores", lambda: cores)
            assert estimators._threads() == cores
            assert estimators._map(lambda _: estimators._threads(), [0, 0]) == [1, 1]
            # one horizon runs inline, outside a pool
            log = record_workers(monkeypatch)
            estimate_profile(series, InformationSetSpec(1, (1,)), config)
            assert log == [("kth", cores)]
            log.clear()
            estimate_profile(series, InformationSetSpec(1, (1, 2)), config)
            assert log == [("kth", 1), ("kth", 1)]


class TestCountKernel:
    @given(_count_inputs())
    # a centre at +r sees every value within ulp(r)/2 of 0 at distance r
    @example((np.array([[1.0], [0.0], [2.0 ** -60], [-(2.0 ** -60)], [1e-300]]),
              np.array([1.0, 1.0, 1.0, 1.0, 1.0])))
    def test_counts_match_the_oracle(self, inputs):
        points, radii = inputs
        assert np.array_equal(estimators._counts_within(points, radii),
                              counts_within(points, radii))

    @pytest.mark.parametrize("tie", [lambda c: np.round(c, 1), lambda c: np.full_like(c, c[0])],
                             ids=["runs", "constant"])
    def test_rank_path_runs_in_two_dimensions(self, monkeypatch, tie):
        g = np.random.default_rng(4)
        n = 500
        points = g.standard_normal((n, 2))
        points[:, 0] = tie(points[:, 0])
        partner = g.permutation(n)
        radii = np.abs(points - points[partner]).max(axis=1)
        radii = np.where(radii > 0.0, radii, 0.5)
        radii[::2] = np.nextafter(radii[::2], np.inf)
        radii[1::4] = np.nextafter(radii[1::4], 0.0)

        def unused(points):
            raise AssertionError("a k-d tree was built on 2-D points")

        monkeypatch.setattr(estimators, "_tree", unused)
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: estimators._counts_within(points, radii))
        assert called == ["count"]


class TestJointKernel:
    @given(_joint_inputs())
    # n <= K + 1: every point is a candidate of every other
    @example((np.array([[0.0], [0.5], [1.0]]), np.array([[1.0], [0.0], [0.5]]), 1))
    def test_fused_query_matches_the_oracle(self, inputs):
        wide, narrow, k = inputs
        eps, counts = joint_radii_and_counts(wide, narrow, k)
        if np.any(eps == 0.0):
            with pytest.raises(DegenerateSample):
                estimators._joint_radii_and_counts(wide, narrow, k)
        else:
            assert all(map(np.array_equal, estimators._joint_radii_and_counts(wide, narrow, k),
                           (eps, counts)))

    def test_a_flat_wide_space_widens_to_every_point(self, monkeypatch):
        g = np.random.default_rng(5)
        n = 300
        wide = np.nextafter(np.ones((n, 3)), g.choice([0.0, 2.0], (n, 3)))
        narrow = g.standard_normal((n, 2))
        held, trees = [], []
        log = record_workers(monkeypatch, held)
        build = estimators._tree

        def tree(points):
            trees.append(points.shape)
            return build(points)

        monkeypatch.setattr(estimators, "_tree", tree)
        (_, counts), called = kernel_calls_match_oracle(
            monkeypatch, lambda: estimators._joint_radii_and_counts(wide, narrow, 4))
        # one tree, on the wide points, answers every query
        assert called == ["joint"] and trees == [wide.shape]
        assert {site for site, _ in log} == {"fused"}
        assert np.all(counts == n)
        # no point is certified until it holds all n points, and every stage
        # queries every point
        stages = {}
        for rows, k in held:
            stages.setdefault(k, []).append(rows)
        first = estimators._FUSED_SLOTS + 1
        assert list(stages) == [first, 4 * first, 16 * first, n]
        assert all(sum(rows) == n for rows in stages.values())
        # the last stage runs in more than one block, and no query holds
        # more neighbours than a first block
        assert len(stages[n]) > 1
        assert max(rows * k for rows, k in held) <= estimators._BLOCK * (
            estimators._FUSED_SLOTS + 1)

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_point_left_out_one_ulp_inside_the_radius_is_found(self, order):
        # k = 1, so the centre 0 holds 17 of the 18 points: itself, 15 nearer
        # points at joint distance 1, and one of the two tied at the widest
        # distance d, one ulp below 1.  The one left out may be the only
        # point closer than 1 in the joint space: the radius the held points
        # give is then not certified, since d < 1
        d = np.nextafter(1.0, 0.0)
        wide = np.concatenate([[0.0], 0.5 * np.arange(1, 16) / 16, [d, -d]])[:, None]
        narrow = np.concatenate([[0.0], np.ones(15), [0.5, 2.0][::order]])[:, None]
        eps, counts = estimators._joint_radii_and_counts(wide, narrow, 1)
        assert all(map(np.array_equal, (eps, counts),
                       joint_radii_and_counts(wide, narrow, 1)))
        assert (eps[0], counts[0]) == (d, 16)
