"""Horizon-resolved forecastability diagnostics for univariate time series.

Quantifies, per forecast horizon, the maximum achievable reduction in
expected log loss available from a p-lag information set: exactly for
Gaussian processes, nonparametrically from data, with permutation
significance tests and a decomposition of a probe forecaster's realised
loss into irreducible and approximation components.
"""

__version__ = "0.1.0"

from . import analytic, core, diagnostics, errors, estimators, significance
from .analytic import *  # noqa: F403
from .core import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .significance import *  # noqa: F403

__all__ = [
    "__version__",
    *core.__all__,
    *analytic.__all__,
    *estimators.__all__,
    *significance.__all__,
    *diagnostics.__all__,
    *errors.__all__,
]
