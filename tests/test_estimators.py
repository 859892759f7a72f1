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
from knn_oracle import counts_within, kernel_calls_match_oracle

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

    @pytest.mark.parametrize("z_cols", [1, 2])
    def test_conditional_counts_brute_force_matches_tree_exactly(
        self, z_cols, monkeypatch
    ):
        g = np.random.default_rng(7)
        n = 300
        # exact ties in z, grid values in w (marginal distances land exactly
        # on eps), one-ulp near-ties in w, and 2**-40 steps keeping y distinct
        z = g.integers(0, 4, (n, z_cols)).astype(float)
        w = g.integers(0, 8, (n, 2)) * 0.5
        w[::3, 0] = np.nextafter(w[::3, 0], np.inf)
        y = g.integers(0, 16, n) * 0.25 + np.arange(n) * 2.0 ** -40
        value, called = kernel_calls_match_oracle(
            monkeypatch, lambda: _ksg_conditional_mutual_information(z, w, y, 4)
        )
        assert math.isfinite(value)
        assert called == ["eps", "count", "count", "count"]


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
    d = draw(st.integers(1, 3))
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


def clumped(n, d=3):
    """Uniform points with a clump whose members hold more than the k-NN
    slots at any radius, so that a count from d = 3 on runs the ball-query
    pass; radii from 1e-4 to 2 in random order."""
    g = np.random.default_rng(3)
    points = g.uniform(0.0, 1.0, (n, d))
    points[:60] = 0.5 + g.uniform(0.0, 1e-6, (60, d))
    return points, g.permutation(np.geomspace(1e-4, 2.0, n))


def record_workers(monkeypatch):
    """Log ``(site, workers)`` for every k-d tree query the estimators make;
    the site is "kth", "bounded" or "ball"."""
    log = []

    class Tree(scipy.spatial.cKDTree):
        def query(self, x, k, **kwargs):
            site = "bounded" if "distance_upper_bound" in kwargs else "kth"
            log.append((site, kwargs["workers"]))
            return super().query(x, k, **kwargs)

        def query_ball_point(self, x, r, **kwargs):
            log.append(("ball", kwargs["workers"]))
            return super().query_ball_point(x, r, **kwargs)

    # the estimators import cKDTree when they build a tree, so they get this one
    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    return log


class TestThreadCount:
    def test_a_small_ksg_runs_single_threaded(self, monkeypatch):
        log = record_workers(monkeypatch)
        x, y = gaussian_pair(0.6, 1000, 0)
        ksg_mutual_information(x, y, k=5)
        assert log == [("kth", 1)]
        # a 3-D x-marginal: the joint search and both count passes
        g = np.random.default_rng(1)
        xm = np.vstack([g.standard_normal((1000, 3)), 1e-9 * g.standard_normal((40, 3))])
        ksg_mutual_information(xm, xm[:, 0] + g.standard_normal(1040), k=5)
        assert {site for site, _ in log} == {"kth", "bounded", "ball"}
        assert all(workers == 1 for _, workers in log)

    def test_a_large_count_tree_stays_threaded(self, monkeypatch):
        points, radii = clumped(estimators._THREADED_VALUES // 3 + 1)
        log = record_workers(monkeypatch)
        estimators._counts_within(points, radii)
        assert {site for site, _ in log} == {"bounded", "ball"}
        assert all(workers == -1 for _, workers in log)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_thread_count_never_changes_a_result(self, monkeypatch, d):
        points, radii = clumped(40 * estimators._BINS, d)
        results = []
        for threshold, workers in ((0, -1), (2 ** 62, 1)):
            monkeypatch.setattr(estimators, "_THREADED_VALUES", threshold)
            log = record_workers(monkeypatch)
            results.append((estimators._kth_distances(points, 5),
                            estimators._counts_within(points, radii)))
            assert {site for site, _ in log} == (
                {"kth", "bounded", "ball"} if d >= 3 else {"kth"})
            assert all(w == workers for _, w in log)
        (eps_threaded, counts_threaded), (eps_single, counts_single) = results
        assert np.array_equal(eps_threaded, eps_single)
        assert np.array_equal(counts_threaded, counts_single)


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
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        tree = scipy.spatial.cKDTree(np.arange(float(estimators._THREADED_VALUES))[:, None])
        assert estimators._workers(tree) == -1
        assert estimators._map(estimators._workers, [tree, tree]) == [1, 1]
        # a 2-D joint space of 6000 points holds more than _THREADED_VALUES
        series = simulate(GaussianProcessSpec.ar1(0.5), 6002, seed=2)
        log = record_workers(monkeypatch)
        estimate_profile(series, InformationSetSpec(1, (1,)), config)
        assert log == [("kth", -1)]
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

    def test_bounded_pass_then_one_ball_query(self, monkeypatch):
        n = 40 * estimators._BINS
        points, radii = clumped(n)
        bounded, ball = [], []

        def record(log, kernel):
            def wrapper(tree, centres, *args):
                out = kernel(tree, centres, *args)
                log.append((centres, out))
                return out
            return wrapper

        monkeypatch.setattr(estimators, "_bounded_counts",
                            record(bounded, estimators._bounded_counts))
        monkeypatch.setattr(estimators, "_ball_counts",
                            record(ball, estimators._ball_counts))
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: estimators._counts_within(points, radii))
        assert called == ["count"]
        # every bin is queried once, and the bins hold each point once
        assert len(bounded) == estimators._BINS
        queried = np.concatenate([centres for centres, _ in bounded])
        assert len(queried) == n
        assert np.array_equal(np.unique(queried, axis=0), np.unique(points, axis=0))
        # one ball query, on exactly the points that filled all slots
        full = np.concatenate([centres[out == estimators._SLOTS] for centres, out in bounded])
        assert 0 < len(full) < n
        assert len(ball) == 1 and len(ball[0][0]) == len(full)
        assert np.array_equal(np.unique(ball[0][0], axis=0), np.unique(full, axis=0))

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

        def unused(*args):
            raise AssertionError("a k-d tree count ran on 2-D points")

        monkeypatch.setattr(estimators, "_bounded_counts", unused)
        monkeypatch.setattr(estimators, "_ball_counts", unused)
        _, called = kernel_calls_match_oracle(
            monkeypatch, lambda: estimators._counts_within(points, radii))
        assert called == ["count"]
