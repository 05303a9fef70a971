import inspect
import textwrap

import numpy as np
import pytest

from ionlight.cli import bundled_config_path, read_run_config
from ionlight.gaussian import drift


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


def lossless_reference(labels, cov, terms, t):
    """cov after the terms are driven for t, by scipy's expm of their drift: S cov S^T."""
    from scipy.linalg import expm
    s = expm(drift(labels, terms) * t)
    return s @ cov @ s.T


def mutated(module, name, old, new):
    """``module``'s function ``name`` with the source text ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


@pytest.fixture(autouse=True)
def strict_floating_point():
    """Overflow, invalid operations and division by zero raise in every test; underflow does not."""
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        yield
