"""Core domain types and the lag-embedding construction.

A univariate series is paired with its own past through ``lag_embed``:
each row couples a window of ``p`` consecutive observations (most recent
first) with the observation ``h`` steps after the window's end.  Every
horizon-resolved quantity in this package is computed from such pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, MissingHorizon

__all__ = [
    "TimeSeries",
    "InformationSetSpec",
    "EmbeddedPairs",
    "EstimatorMeta",
    "ForecastabilityProfile",
    "lag_embed",
]


def _frozen_array(values, ndim=1) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _ascending_horizons(horizons) -> tuple[int, ...]:
    """The horizons as ints; ValueError unless strictly ascending and positive."""
    horizons = tuple(int(h) for h in horizons)
    if not horizons or horizons[0] < 1 or any(
        b <= a for a, b in zip(horizons, horizons[1:])
    ):
        raise ValueError("horizons must be strictly ascending positive integers")
    return horizons


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An ordered sequence of real observations in original units."""

    values: np.ndarray
    name: str | None = None

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.size < 2:
            raise ValueError("a time series needs at least 2 observations")
        if not np.all(np.isfinite(arr)):
            raise ValueError("time series values must be finite (no NaN/inf)")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class InformationSetSpec:
    """Declared conditioning structure: a p-lag window and a set of horizons."""

    lag_order: int
    horizons: tuple[int, ...]

    def __post_init__(self):
        if self.lag_order < 1:
            raise ValueError("lag_order must be >= 1")
        object.__setattr__(self, "horizons", _ascending_horizons(self.horizons))


@dataclass(frozen=True, eq=False)
class EmbeddedPairs:
    """Paired (past window, future value) samples for one horizon.

    ``past[i]`` holds the window ``(y[p-1+i], ..., y[i])`` -- most recent lag
    first -- and ``future[i] = y[p-1+i+h]``.  The computed property
    ``n_effective`` is the number of pairs, ``future.size``.
    """

    past: np.ndarray
    future: np.ndarray
    horizon: int

    def __post_init__(self):
        past = _frozen_array(self.past, ndim=2)
        future = _frozen_array(self.future)
        if past.shape[0] != future.shape[0]:
            raise ValueError("past and future must have equal length")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "past", past)
        object.__setattr__(self, "future", future)

    @property
    def n_effective(self) -> int:
        return self.future.size


@dataclass(frozen=True)
class EstimatorMeta:
    """Estimation settings recorded alongside an estimated profile."""

    k: int
    p: int
    n_effective: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class ForecastabilityProfile:
    """Per-horizon forecastability F(h) in nats.

    ``source`` is ``"analytic"`` for closed-form Gaussian profiles (values
    are nonnegative by construction) or ``"estimated"`` for nonparametric
    estimates, which may be slightly negative from estimator noise and may
    carry NaN gap markers at horizons where the data were insufficient.
    Negative estimates are deliberately preserved: they are diagnostic
    information about the estimator, not errors.  Use ``clamped_nonneg``
    when a nonnegative value is required downstream.
    """

    horizons: tuple[int, ...]
    values_nats: tuple[float, ...]
    source: str
    estimator_meta: EstimatorMeta | None = None

    def __post_init__(self):
        horizons = _ascending_horizons(self.horizons)
        values = tuple(float(v) for v in self.values_nats)
        if self.source not in ("analytic", "estimated"):
            raise ValueError("source must be 'analytic' or 'estimated'")
        if len(horizons) != len(values):
            raise ValueError("horizons and values_nats must align")
        if self.source == "analytic":
            if any(not math.isfinite(v) or v < 0 for v in values):
                raise ValueError("analytic profiles must be finite and nonnegative")
        object.__setattr__(self, "horizons", horizons)
        object.__setattr__(self, "values_nats", values)

    def value_at(self, horizon: int) -> float:
        """Return F(horizon); NaN marks a gap. Raises MissingHorizon if absent."""
        try:
            return self.values_nats[self.horizons.index(horizon)]
        except ValueError:
            raise MissingHorizon(f"profile has no horizon {horizon}") from None

    def clamped_nonneg(self) -> tuple[float, ...]:
        """Values with negative estimates clamped to 0 (gaps stay NaN)."""
        return tuple(v if math.isnan(v) else max(v, 0.0) for v in self.values_nats)

    def gaps(self) -> tuple[int, ...]:
        """Horizons where estimation failed for lack of data."""
        return tuple(
            h for h, v in zip(self.horizons, self.values_nats) if math.isnan(v)
        )

    def horizons_with_data(self) -> tuple[int, ...]:
        """Horizons that carry a value, i.e. every horizon not in ``gaps()``."""
        gaps = self.gaps()
        return tuple(h for h in self.horizons if h not in gaps)


def lag_embed(series: TimeSeries, p: int, h: int) -> EmbeddedPairs:
    """Build the (past window, future value) pairs for lag order p and horizon h.

    Pair i (0-based) has past ``(y[p-1+i], ..., y[i])`` and future
    ``y[p-1+i+h]``; there are ``n - h - p + 1`` pairs.

    Raises
    ------
    InsufficientData
        If the series is too short, i.e. ``n - h - p + 1 < 1``.
    """
    if p < 1 or h < 1:
        raise ValueError("p and h must be positive integers")
    n = len(series)
    n_eff = n - h - p + 1
    if n_eff < 1:
        raise InsufficientData(
            f"series of length {n} admits no pairs at p={p}, h={h}"
        )
    y = series.values
    rows = np.arange(n_eff)[:, None] + np.arange(p - 1, -1, -1)[None, :]
    past = y[rows]
    future = y[p - 1 + np.arange(n_eff) + h]
    return EmbeddedPairs(past=past, future=future, horizon=h)
