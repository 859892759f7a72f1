"""Loss decomposition for a probe forecaster, and low-forecastability bounds.

A probe supplies its realised log predictive densities; the expected log
loss is split against two information-theoretic anchors:

    exploitability      X_q = H_hat(Y) - expected_loss
    approximation gap         = F_hat(h) - X_q

so that expected_loss = H_hat(Y) - X_q holds exactly by construction, and
the exploitation ratio chi_q = X_q / F_hat(h) reports the fraction of the
available forecastability the probe captures.

Unit hazard: probe log densities must be in the same (original) units as
the series.  The marginal entropy here is estimated in original units for
that reason -- unlike mutual information, differential entropy is NOT
invariant to rescaling, and the mismatch cannot be detected automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ForecastabilityProfile, TimeSeries, _integer, _integers
from .errors import ConfigError, DomainError, MissingHorizon
from .estimators import EstimatorConfig, _binary_exponent, _jitter, kl_entropy

__all__ = [
    "ProbeEvaluation",
    "LossDecomposition",
    "FloorBounds",
    "decompose_loss",
    "fano_bound",
    "pinsker_bound",
]

_RATIO_FLOOR = 1e-6
_LOW_FORECASTABILITY = 0.01


@dataclass(frozen=True, eq=False)
class ProbeEvaluation:
    """Realised log predictive densities of one probe at one horizon.

    ``eval_indices[i]`` is the series index of the realised outcome scored by
    ``log_densities[i]`` (the forecast was issued at ``eval_indices[i] - horizon``);
    each outcome is scored once.  Averages are unstable below roughly 30
    evaluations; only a hard floor of 2 is enforced.
    """

    horizon: int
    log_densities: np.ndarray
    eval_indices: np.ndarray

    def __post_init__(self):
        horizon = _integer(self.horizon, 1, ValueError, "horizon must be an integer >= 1")
        ld = np.array(self.log_densities, dtype=float)
        idx = _integers(self.eval_indices,
                        "eval_indices must be finite integers in the int64 range")
        if ld.ndim != 1 or idx.shape != ld.shape:
            raise ValueError("log_densities and eval_indices must be equal-length 1-d")
        if ld.size < 2:
            raise ValueError("need at least 2 probe evaluations")
        if not np.all(np.isfinite(ld)):
            raise ValueError("log densities must be finite")
        ordered = np.sort(idx)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate t_index {repeated[0]} at horizon {horizon}")
        ld.flags.writeable = False
        idx.flags.writeable = False
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "log_densities", ld)
        object.__setattr__(self, "eval_indices", idx)

    @property
    def n_eval(self) -> int:
        return int(self.log_densities.size)


@dataclass(frozen=True)
class LossDecomposition:
    """Per-horizon split of a probe's expected log loss (all in nats)."""

    horizon: int
    expected_loss_nats: float
    marginal_entropy_nats: float
    forecastability_nats: float
    exploitability_nats: float
    exploitation_ratio: float
    approximation_gap_nats: float
    low_forecastability: bool


@dataclass(frozen=True)
class FloorBounds:
    """Classical floors at low forecastability.

    Either part may be absent: ``fano_min_error`` (with ``alphabet_size`` and
    ``fano_vacuous``) comes from the misclassification bound, and
    ``pinsker_tv_bound`` from the total-variation bound.  A vacuous
    misclassification bound (value <= 0 or NaN) is reported raw and flagged.
    """

    fano_min_error: float | None = None
    fano_vacuous: bool | None = None
    alphabet_size: int | None = None
    pinsker_tv_bound: float | None = None


def decompose_loss(
    probe: ProbeEvaluation,
    series: TimeSeries,
    fhat: ForecastabilityProfile,
    config: EstimatorConfig,
) -> LossDecomposition:
    """Decompose a probe's realised log loss at its horizon.

    Every evaluation index must lie in the series and be at least
    ``horizon + p - 1``, so that each forecast origin has a full window of
    the profile's p lags (p = 1 for a profile without estimator metadata),
    and the probe needs more than ``config.k`` evaluations.
    The marginal entropy is the Kozachenko-Leonenko estimate on the outcomes
    at the probe's evaluation times, in original series units (standardization
    is never applied here; see the module note on units).  The ratio
    denominator is floored at 1e-6, and ``low_forecastability`` flags
    F_hat < 0.01 nats, where the ratio carries no interpretation.
    """
    f_value = fhat.value_at(probe.horizon)
    if math.isnan(f_value):
        raise MissingHorizon(
            f"profile has only a gap marker at horizon {probe.horizon}"
        )
    idx = probe.eval_indices
    p = 1 if fhat.estimator_meta is None else fhat.estimator_meta.p
    first = probe.horizon + p - 1
    if idx.min() < first:
        raise ConfigError(
            f"horizon {probe.horizon}: t_index {idx.min()} is below horizon + "
            f"lags - 1 = {first}, so its forecast origin has no full lag window"
        )
    if idx.max() >= len(series):
        raise ConfigError(
            f"horizon {probe.horizon}: t_index {idx.max()} is beyond the last "
            f"series row {len(series) - 1}"
        )
    if probe.n_eval <= config.k:
        raise ConfigError(
            f"horizon {probe.horizon}: {probe.n_eval} probe rows, but the "
            f"marginal entropy with k={config.k} needs more than k"
        )
    outcomes = _jitter(series.values[idx], config.seed)
    marginal_entropy = kl_entropy(outcomes, k=config.k)
    # scaling by a power of two is exact and keeps the sum from overflowing
    e = _binary_exponent(probe.log_densities)
    expected_loss = -math.ldexp(float(np.mean(np.ldexp(probe.log_densities, -e))), e)
    exploitability = marginal_entropy - expected_loss
    return LossDecomposition(
        horizon=probe.horizon,
        expected_loss_nats=expected_loss,
        marginal_entropy_nats=marginal_entropy,
        forecastability_nats=f_value,
        exploitability_nats=exploitability,
        exploitation_ratio=exploitability / max(f_value, _RATIO_FLOOR),
        approximation_gap_nats=f_value - exploitability,
        low_forecastability=f_value < _LOW_FORECASTABILITY,
    )


def fano_bound(
    forecastability_nats: float, marginal_entropy_nats: float, alphabet_size: int
) -> FloorBounds:
    """Minimum misclassification probability over an M-symbol alphabet:
    ``(H - F - 1) / log(M)`` with everything, including the 1, in nats.

    The value is reported raw; when it is <= 0 or NaN the bound says nothing
    and the vacuous flag is set.
    """
    alphabet_size = _integer(
        alphabet_size, 2, DomainError, "alphabet_size must be an integer >= 2")
    value = (marginal_entropy_nats - forecastability_nats - 1.0) / math.log(
        alphabet_size
    )
    return FloorBounds(
        fano_min_error=value,
        fano_vacuous=not value > 0.0,
        alphabet_size=alphabet_size,
    )


def pinsker_bound(forecastability_nats: float) -> FloorBounds:
    """Total-variation distance between conditional and marginal predictive
    distributions is at most sqrt(F/2)."""
    if not forecastability_nats >= 0:  # NaN is rejected too
        raise DomainError("forecastability must be clamped nonnegative upstream")
    return FloorBounds(pinsker_tv_bound=math.sqrt(forecastability_nats / 2.0))
