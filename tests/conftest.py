import numpy as np
import pytest
from hypothesis import settings

from forecastability import EstimatorConfig, GaussianProcessSpec, simulate

# property tests draw the same examples on every run and keep no state
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
# the same, at 2000 examples a property; CI selects it with
# --hypothesis-profile=thorough for the oracle property tests
settings.register_profile("thorough", parent=settings.get_profile("deterministic"),
                          max_examples=2000)


@pytest.fixture(scope="session")
def ar1_strong():
    """AR(1) phi=0.95, n=5000 -- the strongly dependent fixture."""
    return simulate(GaussianProcessSpec.ar1(0.95), 5000, seed=11)


@pytest.fixture(scope="session")
def white_noise():
    """iid Gaussian noise, n=2000."""
    return simulate(GaussianProcessSpec.ar1(0.0), 2000, seed=5)


@pytest.fixture(scope="session")
def seasonal_series():
    """Multiplicative seasonal AR (phi=0.5, Phi=0.8, s=12), n=8000."""
    return simulate(GaussianProcessSpec.seasonal_ar(0.5, 0.8, 12), 8000, seed=9)


@pytest.fixture()
def config():
    return EstimatorConfig()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
