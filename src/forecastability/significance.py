"""Permutation-null significance testing for estimated forecastability.

Shuffling the whole series uniformly destroys the dependence between past
and future while preserving the marginal distribution, so re-estimating
F_hat on shuffled copies samples the null distribution of the statistic.
The add-one p-value (1 + #{null >= observed}) / (B + 1) is exact for
finite B and never returns zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import InformationSetSpec, TimeSeries, _integer
from .estimators import EstimatorConfig, _map, estimate_profile
from .errors import ConfigError

__all__ = ["SignificanceResult", "permutation_test", "add_one_p_value"]

_MIN_REPLICATES = 19  # resolution floor for p <= 0.05


def add_one_p_value(observed: float, null_samples) -> float:
    """Exact permutation p-value with the observed statistic counted once."""
    null = np.asarray(null_samples, dtype=float)
    return float((1 + int(np.sum(null >= observed))) / (null.size + 1))


@dataclass(frozen=True)
class SignificanceResult:
    """Observed statistic and permutation null sample for one horizon.

    ``p_value`` (the add-one p-value of ``observed_nats`` against
    ``null_samples``) and ``replicates`` (the null sample size) are computed
    properties.
    """

    horizon: int
    observed_nats: float
    null_samples: tuple[float, ...]
    seed: int

    @property
    def p_value(self) -> float:
        return add_one_p_value(self.observed_nats, self.null_samples)

    @property
    def replicates(self) -> int:
        return len(self.null_samples)


def permutation_test(
    series: TimeSeries,
    spec: InformationSetSpec,
    config: EstimatorConfig,
    replicates: int,
    seed: int,
) -> list[SignificanceResult]:
    """Test F_hat(h) > 0 against the shuffled-series null, per horizon.

    Replicate b permutes the series with a generator seeded ``seed XOR b``
    and re-runs the identical estimation pipeline (same jitter seed, same
    standardization), so the null statistics are exchangeable with the
    observed one.  Results are deterministic in (series, spec, config,
    replicates, seed), and extending ``replicates`` never changes null
    samples already drawn.  Horizons whose observed estimate is a gap are
    omitted from the result list.  A shuffled copy has the series' length,
    and the gap rule depends only on the length, the horizon, p and k, so
    every null profile has the observed gaps and is kept whole.  More
    replicates than ``sys.maxsize`` cannot be indexed and are refused.
    """
    replicates = _integer(replicates, _MIN_REPLICATES, ConfigError,
                          f"need at least {_MIN_REPLICATES} replicates to resolve p <= 0.05")
    if replicates > sys.maxsize:
        raise ConfigError(f"replicates must be <= {sys.maxsize}, got {replicates}")
    seed = _integer(seed, 0, ConfigError, "seed must be a nonnegative integer")
    observed = estimate_profile(series, spec, config)
    if not observed.horizons_with_data():
        return []
    values = series.values

    def replicate(b):
        # prefix-stable splitting rule: replicate b shuffles with seed XOR b
        rng = np.random.default_rng(seed ^ b)
        shuffled = TimeSeries(values[rng.permutation(values.size)], name=series.name)
        return estimate_profile(shuffled, spec, config).values_nats

    nulls = _map(replicate, range(replicates))
    return [
        SignificanceResult(horizon=h, observed_nats=v, null_samples=null, seed=seed)
        for h, v, null in zip(observed.horizons, observed.values_nats, zip(*nulls))
        if not math.isnan(v)
    ]
