"""Exact Gaussian forecastability profiles and a seeded simulator.

For a stationary Gaussian process the forecastability at horizon h given a
p-lag window is ``-0.5*log(1 - R_h^2)``, where ``R_h^2`` is the population
R-squared from regressing the future value on the window.  The AR(1) case
collapses to the closed form ``-0.5*log(1 - phi^(2h))``, and because AR(1) is
Markov that holds for every window size p.  The seasonal AR is reached through
its autocorrelations, which have an exact closed form; any other process
through ``gaussian_profile_from_acf`` on its autocorrelations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ForecastabilityProfile, TimeSeries, _ascending_horizons, _integer
from .errors import CoverageError, DomainError, SingularSystem

__all__ = [
    "GaussianProcessSpec",
    "GaussianEntropySummary",
    "ar1_profile",
    "seasonal_ar_acf",
    "gaussian_profile_from_acf",
    "gaussian_entropy_summary",
    "simulate",
]

# innovations drawn and filtered per pass of ``simulate``: bounds its lists
_CHUNK = 1 << 16


@dataclass(frozen=True)
class GaussianProcessSpec:
    """A stationary Gaussian multiplicative seasonal AR process,
    ``(1 - phi*B)(1 - Phi*B^s) y = e`` with ``Var(e) = innovation_variance``,
    that is ``y[t] = phi*y[t-1] + Phi*y[t-s] - phi*Phi*y[t-s-1] + e[t]``.

    AR(1) is the member with ``Phi = 0``.  Constructing one is the package's
    single check that the parameters describe a stationary process.  Profiles
    of other processes go through ``gaussian_profile_from_acf``.
    """

    phi: float
    Phi: float = 0.0
    s: int = 1
    innovation_variance: float = 1.0

    def __post_init__(self):
        # written as "not inside" so that NaN parameters are rejected too
        if not 0 < self.innovation_variance < math.inf:
            raise DomainError("innovation_variance must be positive and finite")
        if not (abs(self.phi) < 1 and abs(self.Phi) < 1):
            raise DomainError("a stationary process requires |phi| < 1 and |Phi| < 1")
        object.__setattr__(self, "s", _integer(
            self.s, 1, DomainError, "seasonal period s must be an integer >= 1"))

    @classmethod
    def ar1(cls, phi: float, innovation_variance: float = 1.0) -> "GaussianProcessSpec":
        return cls(phi, innovation_variance=innovation_variance)

    @classmethod
    def seasonal_ar(
        cls, phi: float, Phi: float, s: int, innovation_variance: float = 1.0
    ) -> "GaussianProcessSpec":
        return cls(phi, Phi, s, innovation_variance)


@dataclass(frozen=True)
class GaussianEntropySummary:
    """Marginal entropy and entropy rate, in nats.

    The computed property ``one_step_forecastability_nats`` is their exact
    float difference ``marginal_entropy_nats - entropy_rate_nats``.
    """

    marginal_entropy_nats: float
    entropy_rate_nats: float

    @property
    def one_step_forecastability_nats(self) -> float:
        return self.marginal_entropy_nats - self.entropy_rate_nats


def ar1_profile(phi: float, horizons) -> ForecastabilityProfile:
    """Exact profile of a stationary AR(1): F(h) = -0.5*log(1 - phi^(2h))."""
    GaussianProcessSpec.ar1(phi)
    horizons = _ascending_horizons(horizons)
    values = tuple(-0.5 * math.log1p(-(phi ** (2 * h))) for h in horizons)
    return ForecastabilityProfile(horizons=horizons, values_nats=values, source="analytic")


def seasonal_ar_acf(phi: float, Phi: float, s: int, max_lag: int) -> np.ndarray:
    """Stationary autocorrelations rho_1..rho_max_lag of the multiplicative
    seasonal model ``(1 - phi*B)(1 - Phi*B^s) y = e``.

    The spectral density factorises, so the autocovariance is the convolution
    of the two AR(1) factors' autocovariances,
    ``gamma(h) (1 - phi^2)(1 - Phi^2) = sum_m Phi^|m| phi^|h - m*s|``
    (Box, Jenkins & Reinsel, *Time Series Analysis*, ch. 9).  For
    ``h = q*s + r`` with ``0 <= r < s`` both tails are geometric series, which
    leaves the exact closed form

        gamma(h) ~ [phi^h + Phi^(q+1) phi^((q+1)s - h)] / (1 - Phi phi^s)
                   + sum_{m=1..q} Phi^m phi^(h - m*s)

    whose last sum obeys ``S(h) = Phi (phi^(h-s) + S(h-s))``.  Time and memory
    are O(max_lag) whatever ``s``, ``phi`` and ``Phi``.  Terms of order one add
    up to ``gamma(0) ~ (1 + Phi phi^s) / (1 - Phi phi^s)``, so rounding error
    grows like ``1 / (1 + Phi phi^s)``: about 2e-14 at phi = 0.99,
    Phi = -0.99, s = 1.
    """
    s = GaussianProcessSpec.seasonal_ar(phi, Phi, s).s
    max_lag = _integer(max_lag, 1, ValueError, "max_lag must be an integer >= 1")
    wrap = 1.0 - Phi * phi ** s
    gammas = np.empty(max_lag + 1)
    inner = np.zeros(max_lag + 1)  # sum_{m=1..q} Phi^m phi^(h - m*s)
    for h in range(max_lag + 1):
        q = h // s
        if q:
            inner[h] = Phi * (phi ** (h - s) + inner[h - s])
        tails = phi ** h + Phi ** (q + 1) * phi ** ((q + 1) * s - h)
        gammas[h] = tails / wrap + inner[h]
    return gammas[1:] / gammas[0]


def _nested_cholesky(matrix: np.ndarray) -> np.ndarray:
    """Unblocked lower Cholesky; the factor of each leading block equals the
    corresponding block of the full factor bit-for-bit, which makes nested
    lag-window R^2 values monotone by construction."""
    p = matrix.shape[0]
    L = np.zeros((p, p))
    for i in range(p):
        # row i solves L[:i, :i] x = R[i, :i], so a leading block never
        # depends on the rows below it
        L[i, :i] = _forward_solve(L[:i, :i], matrix[i, :i])
        d = matrix[i, i] - float(L[i, :i] @ L[i, :i])
        if d <= 0.0 or not math.isfinite(d):
            raise SingularSystem(
                f"lag-window correlation matrix is not positive definite "
                f"(pivot {i} has value {d})"
            )
        L[i, i] = math.sqrt(d)
    return L


def gaussian_profile_from_acf(rho, p: int, horizons) -> ForecastabilityProfile:
    """Profile of a Gaussian process with the given autocorrelations, under a
    p-lag window: F(h) = -0.5*log(1 - R_h^2).

    ``rho`` lists the autocorrelations at lags 1, 2, ... and must reach lag
    ``max(horizons) + p - 1``.  For each horizon the Toeplitz system
    ``R beta = r_h`` with ``r_h = (rho_h, ..., rho_{h+p-1})`` is solved through
    an unblocked Cholesky factorisation, and ``R_h^2 = r_h . beta`` is
    accumulated term by term so that enlarging the window can never shrink it.
    """
    p = _integer(p, 1, ValueError, "lag order p must be an integer >= 1")
    horizons = _ascending_horizons(horizons)
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ValueError("rho must be a 1-d sequence of autocorrelations")
    needed = horizons[-1] + p - 1
    if rho.size < needed:
        raise CoverageError(
            f"need autocorrelations up to lag {needed}, got {rho.size}"
        )
    full = np.concatenate([[1.0], rho])
    lags = np.arange(p)
    # the Toeplitz matrix R[i, j] = full[|i - j|], gathered without scipy.linalg
    L = _nested_cholesky(full[np.abs(np.subtract.outer(lags, lags))])
    values = []
    for h in horizons:
        z = _forward_solve(L, full[h: h + p])
        r2 = 0.0
        for zi in z:  # sequential sum: adding a lag can only raise R^2
            r2 += zi * zi
        if r2 >= 1.0:
            raise SingularSystem(
                f"implied R^2 >= 1 at horizon {h}; the autocorrelation "
                "sequence is not consistent with a nondegenerate process"
            )
        values.append(-0.5 * math.log1p(-r2))
    return ForecastabilityProfile(
        horizons=horizons, values_nats=tuple(values), source="analytic"
    )


def _forward_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = np.zeros(len(b))
    for i in range(len(b)):
        z[i] = (b[i] - float(L[i, :i] @ z[:i])) / L[i, i]
    return z


def gaussian_entropy_summary(spec: GaussianProcessSpec) -> GaussianEntropySummary:
    """Marginal entropy, entropy rate and one-step forecastability of an AR(1).

    Only the AR(1) case (``Phi = 0``) has the closed-form entropy rate
    ``0.5*log(2*pi*e*s2)``; seasonal specs are rejected (their profiles go
    through the ACF route, which never needs the entropy rate).
    """
    if spec.Phi != 0:
        raise DomainError("entropy summary is only available for AR(1) specs (Phi = 0)")
    phi, s2 = spec.phi, spec.innovation_variance
    marginal = 0.5 * math.log(2.0 * math.pi * math.e * s2 / (1.0 - phi * phi))
    rate = 0.5 * math.log(2.0 * math.pi * math.e * s2)
    return GaussianEntropySummary(marginal_entropy_nats=marginal, entropy_rate_nats=rate)


def simulate(
    spec: GaussianProcessSpec, n: int, seed: int, burn_in: int = 1000
) -> TimeSeries:
    """Simulate an unnamed sample path by running the AR recursion from zero
    initial conditions of ``(1 - phi*B)(1 - Phi*B^s)``, discarding ``burn_in``
    transient observations.  Deterministic in (spec, n, seed, burn_in).

    Each value is, in this order,

        y[t] = (((0.0 - y[t-s-1]*far) - y[t-s]*seasonal) - y[t-1]*near) + e[t]

    with ``far = phi*Phi``, ``seasonal = -Phi``, ``near = -phi`` (at ``s = 1``
    ``near = -phi + -Phi`` and ``seasonal = 0``) and ``e`` the seeded
    innovations.  These are the float operations that
    ``scipy.signal.lfilter([1.0], a, e)``, direct form II transposed, does on
    the nonzero taps of ``a``, the coefficients of the polynomial above; a
    zero tap can change only the sign of a zero sum.  So the path equals
    lfilter's bit for bit, and the recursion depends on Python float
    arithmetic alone.
    Innovations are drawn and filtered ``_CHUNK`` at a time, which draws the
    same stream as one call for the whole path.
    """
    n = _integer(n, 2, ValueError, "n must be an integer >= 2")
    burn_in = _integer(burn_in, 0, ValueError, "burn_in must be an integer >= 0")
    seed = _integer(seed, 0, ValueError, "seed must be an integer >= 0")
    near, seasonal, far = -spec.phi, -spec.Phi, spec.phi * spec.Phi
    if spec.s == 1:
        near, seasonal = near + seasonal, 0.0
    total = n + burn_in
    s = min(spec.s, total)  # a longer period reads only the zero start
    scale = math.sqrt(spec.innovation_variance)
    rng = np.random.default_rng(seed)
    path = np.empty(total)
    y = [0.0] * (s + 1)
    far_lag, seasonal_lag = -s - 1, -s  # list positions of y[t-s-1] and y[t-s]
    for start in range(0, total, _CHUNK):
        e = (rng.standard_normal(min(_CHUNK, total - start)) * scale).tolist()
        y = y[far_lag:]
        append = y.append
        for x in e:
            append((((0.0 - y[far_lag] * far) - y[seasonal_lag] * seasonal)
                    - y[-1] * near) + x)
        path[start:start + len(e)] = y[s + 1:]
    return TimeSeries(values=path[burn_in:])
