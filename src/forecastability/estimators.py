"""Nonparametric entropy and mutual-information estimation.

The estimators are the classical k-nearest-neighbour constructions: the
Kozachenko-Leonenko differential entropy estimator and the first Kraskov-
Stogbauer-Grassberger (KSG) mutual-information estimator, both under the
max norm.  For point i, ``eps_i`` is the distance to its k-th nearest
neighbour in the joint space (the point itself excluded); ``n_x(i)`` counts
the points whose x-marginal distance is strictly below ``eps_i``, and

    I_hat = psi(k) + psi(N) - mean_i[ psi(n_x(i)+1) + psi(n_y(i)+1) ].

The truncation budget is the conditional mutual information I(w; y | z) of
the extra lags w given the leading lags z, estimated in the same style
(Frenzel & Pompe, PRL 99, 204101, 2007) on the lag window itself, which is
(z, w), and z its first p_small columns.  ``eps_i`` is taken in the joint
(z, w, y) space and the (z, w), (z, y) and z marginals count within it,

    delta_hat = psi(k) - mean_i[ psi(n_zw(i)+1) + psi(n_zy(i)+1) - psi(n_z(i)+1) ],

so all terms share one neighbourhood per point and the dimension-dependent
biases of the separate windows cancel instead of adding up.

The dimension alone sets the path of each neighbour search, and every
path is exact; ``_neighbour_counts`` applies it, once per KSG estimate.
``eps_i`` comes from one k-d tree query of the joint space, or, from four
dimensions of the wide marginal on (the budget's (z, w), the x-marginal
from p = 4), from the fused query below, which gives that marginal's count
with it.  Every other count takes the path of its own dimension.  In one
dimension (the y-marginal, the x-marginal at p=1, the budget's z) the
points inside a ball are one run of positions in the sorted values, found
with ``searchsorted``.  In two dimensions (the x-marginal at p=2, the
budget's (z, y)) the runs on both coordinates make the ball a rectangle of
rank pairs, counted by a merge-sort tree over the ranks (Bentley, CACM
23(4), 1980); no float is compared beyond the two runs.  From three
dimensions on, one k-d tree ball query counts every ball.

The fused query uses that the wide marginal is the joint space without the
narrow coordinates y.  Under the max norm a point's joint distance is
``max(d_wide, max|y_j - y_i|)``, the same float the joint tree would
return.  One k-NN query of the wide tree, in blocks of 1024 points, holds
each point's 16 nearest neighbours and the point itself; ``eps_i`` is the
k-th smallest joint distance among them, and the count is the number with
``d_wide < eps_i``.  Both are exact when the farthest of them lies at
``eps_i`` or beyond in the wide space: every other point is at least as
far there, so it can neither come closer in the joint space nor fall
strictly inside the ball.  A point without this certificate is queried
again on the same tree, holding four times as many neighbours (68, 272,
...), until it is certified or holds all N points, where the answer is
exact by construction.  A widened pass queries fewer points at a time,
down to one, so that a query holds no more neighbours than a first block
of 1024 points, or than one point's list.

The fused query starts at four dimensions, since from there on the ball
query alone is slower on large samples (about twice as slow at p = 6,
n = 20000).  The one cost of this rule is a 4-D wide marginal from
n = 8000 on: there the balls hold more points than the first list, so
most points widen, and the KSG at p = 4 and the budget from p 1 to 4 run
10-40 % slower than a count that holds a bounded neighbour list per point.
No selector wins it back; the path stays a function of the dimension.

The tests check the distances and every count path bit for bit against a
brute-force oracle, which pins down the strict-inequality counting
convention.

Independent estimates run side by side: the horizons of a profile or a
budget, and the replicates of a permutation test, are tasks on a pool of
one thread per usable core (``_map``).  The k-d tree queries and the numpy
count kernels release the GIL for most of an estimate.  One rule
(``_threads``) sets the thread count of the pool and of every k-d tree
query: one inside a task, one per usable core everywhere else.  So there is
one level of threads.  A task's queries run on one thread, and an estimate
called inside a task maps its horizons inline.  A single estimate (a budget
at one horizon, ``kl_entropy``) queries on every usable core, at about
0.2 ms of thread start-up per query, and a process pinned to one core
starts no thread at all.  The thread count never changes a result: the
jitter is drawn before mapping, every task is a pure function of its
inputs, and each query point is answered on its own.  Each task builds its
own lag embedding, so the memory held grows with the cores, not the
horizons.

Sample points must be pairwise distinct.  Series-level entry points handle
this the same way every time: they standardize the series to zero mean and
unit variance, then add seeded uniform jitter of amplitude 1e-10 (relative
to the standard deviation), many orders of magnitude below the data scale.
The raw estimators reject degenerate samples instead of silently perturbing
them.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    EstimatorMeta,
    ForecastabilityProfile,
    InformationSetSpec,
    TimeSeries,
    _ascending_horizons,
    _integer,
    lag_embed,
)
from .errors import ConfigError, DegenerateSample, DomainError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "EstimatorConfig",
    "FiniteWindowBudget",
    "digamma",
    "kl_entropy",
    "ksg_mutual_information",
    "estimate_profile",
    "finite_window_budget",
]

_LN2 = math.log(2.0)

# tie-breaking jitter amplitude, relative to the sample standard deviation
_JITTER_SCALE = 1e-10

# the fused query of the module note: the dimension of the wide marginal it
# starts at, the neighbours its first pass holds per point, and the points
# in each block of that pass
_FUSED_FROM = 4
_FUSED_SLOTS = 16
_BLOCK = 1024

# marks the worker threads of _map's pool
_pool_thread = threading.local()

# Stirling-series coefficients of -psi'(x) tail in powers of x^-2
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    1.0 / 120.0,
    1.0 / 252.0,
    1.0 / 240.0,
    1.0 / 132.0,
    691.0 / 32760.0,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by all estimation entry points.

    k is the neighbour count and seed seeds the tie-breaking jitter.  The
    rest of the estimator is fixed: series are standardized to zero mean and
    unit variance (mutual information is invariant to it, and it conditions
    the neighbour search), then jittered by seeded uniform noise of 1e-10
    times the standard deviation.
    """

    k: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(
            self.k, 1, ConfigError, "neighbour count k must be an integer >= 1"))
        object.__setattr__(self, "seed", _integer(
            self.seed, 0, ConfigError, "seed must be a nonnegative integer"))


@dataclass(frozen=True)
class FiniteWindowBudget:
    """Estimated forecastability lost by truncating the lag window.

    delta_nats[i] estimates the conditional mutual information between the
    future value at horizon h_i and lags p_small+1..p_large given lags
    1..p_small, on shared neighbourhoods over the sample window implied by
    p_large.  In population it equals F(h_i; p_large) - F(h_i; p_small)
    and is >= 0.  Near conditional independence the estimate carries a small
    positive bias (about +0.02 nats at h=12 on the seasonal AR test series,
    n=20000, k=5, where the population value is ~2e-8); entries may also be
    slightly negative from estimator noise.
    """

    horizons: tuple[int, ...]
    p_small: int
    p_large: int
    delta_nats: tuple[float, ...]


def digamma(x):
    """Digamma function psi(x) for x > 0 (scalar or array).

    Upward recurrence ``psi(x) = psi(x+1) - 1/x`` is applied until the
    argument reaches 6, then the Stirling expansion is evaluated through
    the x^-12 term; absolute error is below 1e-10 over the domain.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0):  # NaN is outside the domain too
        raise DomainError("digamma requires x > 0")
    z = arr.copy() if arr.ndim else arr.reshape(1).copy()
    acc = np.zeros_like(z)
    for _ in range(6):
        small = z < 6.0
        if not small.any():
            break
        acc[small] -= 1.0 / z[small]
        z[small] += 1.0
    w = 1.0 / (z * z)
    tail = _DIGAMMA_TAIL[-1]
    for c in _DIGAMMA_TAIL[-2::-1]:
        tail = c - w * tail
    out = acc + np.log(z) - 0.5 / z - w * tail
    if arr.ndim == 0:
        return float(out[0])
    return out


def _as_points(sample) -> np.ndarray:
    pts = np.asarray(sample, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("sample must be a nonempty (N,) or (N, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample values must be finite (no NaN/inf)")
    return np.ascontiguousarray(pts)


def _tree(points: np.ndarray) -> cKDTree:
    """A k-d tree on the points.  scipy.spatial is imported here, on first
    use, so that importing the package does not load it."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads() -> int:
    """The thread count of a ``_map`` pool or a k-d tree query: 1 inside a
    ``_map`` worker, so there is one level of threads, and ``_cores()``
    everywhere else.  The thread count never changes a result."""
    return 1 if getattr(_pool_thread, "worker", False) else _cores()


def _map(func, items) -> list:
    """``[func(item) for item in items]``, run on a pool of ``_threads()``
    threads, at most one per item.

    It runs inline for fewer than two items, on one core, and inside a
    worker of its own, so an estimate nested in a task never opens a
    second pool.  ``pool.map`` cancels the pending tasks when one raises
    (or on KeyboardInterrupt), and the error surfaces unchanged once the
    running ones finish.  concurrent.futures is imported here, on first
    use, so that commands which estimate nothing do not load it.
    """
    items = list(items)
    threads = min(_threads(), len(items))
    if threads < 2:
        return [func(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads, initializer=_enter_worker) as pool:
        return list(pool.map(func, items))


def _enter_worker():
    _pool_thread.worker = True


def _checked_k(k, n: int) -> int:
    """k as an int; ConfigError unless ``1 <= k < n``."""
    k = _integer(k, 1, ConfigError, "neighbour count k must be an integer >= 1")
    if k >= n:
        raise ConfigError(f"k={k} requires more than k samples, got {n}")
    return k


def _nonzero(eps: np.ndarray) -> np.ndarray:
    """eps, unless a k-th neighbour distance is zero (duplicate points)."""
    if np.any(eps == 0.0):
        raise DegenerateSample(
            "duplicate points: k-th neighbour distance is zero (jitter the sample)"
        )
    return eps


def _kth_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Max-norm distance from each point to its k-th nearest neighbour
    (self excluded); ConfigError unless k is an integer with ``1 <= k < N``,
    and a zero distance (duplicate points) is rejected."""
    k = _checked_k(k, len(points))
    dists, _ = _tree(points).query(points, k=k + 1, p=np.inf, workers=_threads())
    return _nonzero(dists[:, k])


def _neighbour_counts(wide: np.ndarray, narrow: np.ndarray, k: int, *marginals):
    """The counts of points strictly inside each point's ``eps_i``, its k-th
    neighbour distance in the joint (wide, narrow) space, the centre
    included: in ``wide``, then in each of ``marginals``.  The module note
    states which path each takes."""
    if wide.shape[1] >= _FUSED_FROM:
        eps, counts = _joint_radii_and_counts(wide, narrow, k)
    else:
        eps = _kth_distances(np.hstack([wide, narrow]), k)
        counts = _counts_within(wide, eps)
    return (counts, *(_counts_within(m, eps) for m in marginals))


def _joint_radii_and_counts(wide: np.ndarray, narrow: np.ndarray, k: int):
    """``(eps, counts)``: the k-th neighbour distance of each point in the
    joint (wide, narrow) space, and the number of points strictly inside it
    in ``wide``, the centre included; both equal
    ``_kth_distances(hstack([wide, narrow]), k)`` and
    ``_counts_within(wide, eps)`` bit for bit, by the fused query of the
    module note; its first pass holds ``max(_FUSED_SLOTS, k)`` neighbours
    per point, at most N - 1.
    """
    n = len(wide)
    k = _checked_k(k, n)
    tree = _tree(wide)
    eps = np.empty(n)
    counts = np.empty(n, dtype=np.intp)
    todo = np.arange(n)
    slots = min(max(_FUSED_SLOTS, k), n - 1) + 1
    while todo.size:
        rows = max(1, _BLOCK * (_FUSED_SLOTS + 1) // slots)
        farthest = np.empty(len(todo))
        for start in range(0, len(todo), rows):
            block = todo[start:start + rows]
            dists, idx = tree.query(wide[block], k=slots, p=np.inf, workers=_threads())
            gaps = narrow[idx]
            gaps -= narrow[block, None, :]
            joint = np.abs(gaps, out=gaps).max(axis=2)
            np.maximum(joint, dists, out=joint)
            eps[block] = np.partition(joint, k, axis=1)[:, k]
            counts[block] = np.count_nonzero(dists < eps[block, None], axis=1)
            farthest[start:start + rows] = dists[:, -1]
        # a point that holds all n points needs no certificate
        todo = todo[farthest < eps[todo]] if slots < n else todo[:0]
        slots = min(4 * slots, n)
    return _nonzero(eps), counts


def _counts_within(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Number of points strictly inside the max-norm ball of each point
    (the centre point itself included in the count); radii must be > 0.
    The dimension picks the path, as the module note states."""
    if points.shape[1] == 1:
        lo, hi = _ball_runs(points[:, 0], radii)
        return hi - lo
    if points.shape[1] == 2:
        return _rank_counts(points, radii)
    return _tree(points).query_ball_point(
        points, np.nextafter(radii, 0.0), p=np.inf,
        workers=_threads(), return_length=True,
    )


def _ball_runs(values: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run ``[lo, hi)`` of positions in the sorted values that lie
    strictly inside the ball of each value.  The values above a ball are
    those below the ball of the negated value, since rounding is symmetric
    under negation."""
    return _below_ball(values, radii), values.size - _below_ball(-values, radii)


def _below_ball(values: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Number of values below v_i that lie outside the ball of radius r_i.

    Rounding is monotone, so ``|v_j - v_i| < r_i`` holds on one contiguous
    run of the sorted values around v_i.  Every value below the rounded
    ``v_i - r_i`` fails the test: no float lies strictly between a number
    and its rounding, so such a value is at most v_i - r_i exactly.  The
    run's lower edge therefore starts at ``searchsorted`` of the rounded
    bound and only moves up, one run of equal values at a time, while its
    value fails the test.  That can take many steps: when |v_i| is near
    r_i the difference rounds by ulp(r_i), which can span many values
    near 0, so a window widened by a fixed margin would not do.
    """
    ordered = np.sort(values)
    edge = np.searchsorted(ordered, values - radii)
    # the edge stops at the latest at the first copy of v_i, which passes
    todo = np.arange(values.size)
    while todo.size:
        at = edge[todo]
        outside = ~(np.abs(ordered[at] - values[todo]) < radii[todo])
        todo = todo[outside]
        edge[todo] = np.searchsorted(ordered, ordered[at[outside]], "right")
    return edge


def _rank_counts(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Points strictly inside each 2-D ball, counted in rank space.

    Tied values are all inside or all outside a ball, so the run of a
    coordinate's sorted positions inside ball i is also the run
    ``[lo, hi)`` of its ranks from a stable argsort, and the ball holds the
    points whose rank pair lies in ``[lo_a, hi_a) x [lo_b, hi_b)``.  That
    count is ``P(hi_a) - P(lo_a)``, where ``P(e)`` counts the points of
    first rank below e and second rank in ``[lo_b, hi_b)``.  The first
    ranks below e split into one power-of-two block per set bit L of e,
    block ``(e >> L) - 1`` of size 2**L.  Each level L sorts the keys
    ``block * n + second rank`` once, so every block count is the
    difference of two ``searchsorted`` calls: O(n log^2 n) time and O(n)
    extra memory.
    """
    n = len(points)
    (lo_a, hi_a), (lo_b, hi_b) = (_ball_runs(points[:, j], radii) for j in (0, 1))
    rank_b = np.empty(n, dtype=np.intp)
    rank_b[np.argsort(points[:, 1], kind="stable")] = np.arange(n)
    # the second rank of the point at each first rank
    second = rank_b[np.argsort(points[:, 0], kind="stable")]
    first = np.arange(n)
    edges = np.concatenate([hi_a, lo_a])
    lo_b, hi_b = np.tile(lo_b, 2), np.tile(hi_b, 2)
    below = np.zeros(2 * n, dtype=np.intp)
    for level in range(n.bit_length()):
        at = np.flatnonzero((edges >> level) & 1)
        base = ((edges[at] >> level) - 1) * n
        keys = np.sort((first >> level) * n + second)
        below[at] += (np.searchsorted(keys, base + hi_b[at])
                      - np.searchsorted(keys, base + lo_b[at]))
    return below[:n] - below[n:]


def kl_entropy(sample, k: int = 5) -> float:
    """Kozachenko-Leonenko differential entropy estimate in nats.

    H_hat = psi(N) - psi(k) + d*log(2) + (d/N) * sum_i log(eps_i), with
    eps_i the max-norm distance to the k-th nearest neighbour; d*log(2) is
    the log-volume of the max-norm unit ball.
    """
    pts = _as_points(sample)
    n, d = pts.shape
    eps = _kth_distances(pts, k)
    return float(digamma(n) - digamma(k) + d * _LN2 + d * np.mean(np.log(eps)))


def ksg_mutual_information(x, y, k: int = 5) -> float:
    """KSG (variant 1) mutual-information estimate between x and y, in nats.

    x and y are equal-length samples of shape (N,) or (N, d).
    """
    xs = _as_points(x)
    ys = _as_points(y)
    if xs.shape[0] != ys.shape[0]:
        raise ConfigError("x and y must have the same number of samples")
    # counts include the centre point, i.e. equal n_x + 1 in the KSG formula
    nx, ny = _neighbour_counts(xs, ys, k, ys)
    return float(
        digamma(k) + digamma(len(xs)) - np.mean(digamma(nx) + digamma(ny))
    )


def _ksg_conditional_mutual_information(window, p_small: int, y, k: int) -> float:
    """KSG-style conditional mutual information I(w; y | z) in nats, as in
    the module note: (z, w) is the lag ``window`` and z a view of its
    leading ``p_small`` columns, so neither is copied.
    """
    zw, ys = _as_points(window), _as_points(y)
    z = zw[:, :p_small]
    # counts include the centre point, i.e. equal n + 1 in the estimator
    n_zw, n_zy, n_z = _neighbour_counts(zw, ys, k, np.hstack([z, ys]), z)
    return float(
        digamma(k) - np.mean(digamma(n_zw) + digamma(n_zy) - digamma(n_z))
    )


def _binary_exponent(y: np.ndarray) -> int:
    """The e with max|y| in [2**(e-1), 2**e); 0 for an empty or all-zero y.

    Scaling by 2**-e is exact, and keeps sums of squares of values near the
    ends of the float range from overflowing or underflowing.
    """
    return int(np.frexp(np.max(np.abs(y)))[1]) if y.size else 0


def _prepare_values(values: np.ndarray, seed: int) -> np.ndarray:
    """Standardize, then jitter."""
    y = np.asarray(values, dtype=float)
    y = np.ldexp(y, -_binary_exponent(y))
    sd = float(y.std())
    if sd == 0.0:
        raise DegenerateSample("constant series cannot be standardized")
    return _jitter((y - y.mean()) / sd, seed)


def _jitter(y: np.ndarray, seed: int) -> np.ndarray:
    """Add seeded uniform tie-breaking noise of amplitude _JITTER_SCALE times
    the standard deviation of y (times 1 when y is constant)."""
    e = _binary_exponent(y)
    sd = math.ldexp(float(np.ldexp(y, -e).std()), e)
    amplitude = _JITTER_SCALE * (sd if sd > 0.0 else 1.0)
    return y + np.random.default_rng(seed).uniform(-amplitude, amplitude, size=y.size)


def _per_horizon(series: TimeSeries, p: int, horizons, config: EstimatorConfig, estimate):
    """Prepare the series once, then map ``estimate`` over its lag
    embeddings at (p, h), one task per horizon.

    Returns ``(n_effs, values)``.  ``n_eff = n - h - p + 1`` is the
    effective sample size; at a gap, where ``n_eff <= k + 1``, the value is
    NaN.  The horizons ascend, so the gaps are a suffix and run no task.
    Each task embeds its own horizon, so the pool holds one embedding per
    running task, not one per horizon.
    """
    prepared = TimeSeries(_prepare_values(series.values, config.seed))
    n_effs = [len(series) - h - p + 1 for h in horizons]
    live = horizons[:sum(n_eff > config.k + 1 for n_eff in n_effs)]
    values = _map(lambda h: estimate(lag_embed(prepared, p, h)), live)
    return n_effs, values + [math.nan] * (len(horizons) - len(live))


def estimate_profile(
    series: TimeSeries, spec: InformationSetSpec, config: EstimatorConfig
) -> ForecastabilityProfile:
    """Estimate the forecastability profile F_hat(h) of a series.

    For each horizon the series is lag-embedded at (p, h) and F_hat(h) is the
    KSG mutual information between the past window and the future value.
    Horizons whose effective sample size ``n - h - p + 1`` does not exceed
    ``k + 1`` get a NaN gap marker instead of failing the whole profile.
    Deterministic given the config seed.
    """
    p = spec.lag_order
    n_effs, values = _per_horizon(
        series, p, spec.horizons, config,
        lambda pairs: ksg_mutual_information(pairs.past, pairs.future, config.k),
    )
    return ForecastabilityProfile(
        horizons=spec.horizons,
        values_nats=tuple(values),
        source="estimated",
        estimator_meta=EstimatorMeta(
            k=config.k, p=p, n_effective=tuple(max(n, 0) for n in n_effs),
            seed=config.seed,
        ),
    )


def finite_window_budget(
    series: TimeSeries,
    p_small: int,
    p_large: int,
    horizons,
    config: EstimatorConfig,
) -> FiniteWindowBudget:
    """Estimate the information lost by truncating the window to p_small lags.

    The series is lag-embedded at p_large, and that window is the (z, w)
    block: its leading p_small columns are the conditioning lags z, the rest
    the extra lags w.  Each delta is the KSG-style conditional mutual
    information I(w; future | z), which by the chain rule equals
    F(h; p_large) - F(h; p_small) in population.  Horizons whose effective
    sample size ``n - h - p_large + 1`` does not exceed ``k + 1`` get a NaN
    gap marker.  Deterministic given the config seed.
    """
    message = "need integers 1 <= p_small < p_large"
    p_small = _integer(p_small, 1, ConfigError, message)
    p_large = _integer(p_large, p_small + 1, ConfigError, message)
    horizons = _ascending_horizons(horizons)
    _, deltas = _per_horizon(
        series, p_large, horizons, config,
        lambda pairs: _ksg_conditional_mutual_information(
            pairs.past, p_small, pairs.future, config.k
        ),
    )
    return FiniteWindowBudget(
        horizons=horizons,
        p_small=p_small,
        p_large=p_large,
        delta_nats=tuple(deltas),
    )
