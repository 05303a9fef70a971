import numpy as np
import pytest

from ionlight.cli import bundled_config_path, read_run_config


@pytest.fixture(scope="session")
def indium_config():
    return read_run_config(bundled_config_path())


@pytest.fixture(scope="session")
def indium_params(indium_config):
    return indium_config.params


@pytest.fixture()
def rng():
    return np.random.default_rng(20240917)


def random_couplings(rng, r_low=1.05, r_high=3.0):
    """Random complex coupling pair with |chi2|/|chi1| drawn in [r_low, r_high]."""
    mag1 = rng.uniform(0.5, 2.0)
    ratio = rng.uniform(r_low, r_high)
    phase1 = rng.uniform(-np.pi, np.pi)
    phase2 = rng.uniform(-np.pi, np.pi)
    chi1 = mag1 * np.exp(1j * phase1)
    chi2 = mag1 * ratio * np.exp(1j * phase2)
    return complex(chi1), complex(chi2)


@pytest.fixture(autouse=True)
def strict_floating_point():
    """Overflow, invalid operations and division by zero raise in every test; underflow does not."""
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        yield
