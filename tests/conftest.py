import inspect
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ionlight.cli import bundled_config_path, read_run_config
from ionlight.gaussian import EXCHANGE, PAIR, drift

# Every hypothesis test draws the same examples on every run, keeps no example
# database and has no per-example deadline: a run's wall time is not a check.
settings.register_profile("ionlight", derandomize=True, database=None, deadline=None)
settings.load_profile("ionlight")
# Hypothesis caches the constants of the test sources in its home directory,
# ./.hypothesis unless set, whatever the profile says: a temporary directory,
# removed when the session ends, keeps the working tree as it was.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="ionlight-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


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


def bogoliubov_to_symplectic(alpha, beta):
    """Quadrature matrix of the mode transformation a_i' = sum_j alpha_ij a_j + beta_ij a_j_dag.

    The reference route of the maps the library writes entry by entry:
    ``drift`` (see :func:`reference_drift`) and ``bogoliubov_tpi``.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = alpha.shape[0]
    plus = alpha + beta
    minus = alpha - beta
    s = np.empty((2 * n, 2 * n))
    s[0::2, 0::2] = plus.real
    s[0::2, 1::2] = -minus.imag
    s[1::2, 0::2] = plus.imag
    s[1::2, 1::2] = minus.real
    return s


def reference_drift(labels, terms):
    """The drift of a term list through the Heisenberg equations da/dt = M a + N a_dag.

    M and N are collected term by term (see ``gaussian.PAIR`` and
    ``EXCHANGE``) and mapped to quadratures by :func:`bogoliubov_to_symplectic`.
    """
    labels = tuple(labels)
    m = np.zeros((len(labels), len(labels)), dtype=complex)
    nn = np.zeros((len(labels), len(labels)), dtype=complex)
    for kind, mode_a, mode_b, chi in terms:
        i, j, chi = labels.index(mode_a), labels.index(mode_b), complex(chi)
        if kind == PAIR:
            nn[i, j] += chi
            nn[j, i] += chi
        else:
            assert kind == EXCHANGE
            m[i, j] += chi
            m[j, i] -= chi.conjugate()
    return bogoliubov_to_symplectic(m, nn)


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
