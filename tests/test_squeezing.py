"""The one closed form of the half-period's squeezing, against 50-digit arithmetic.

``Couplings`` derives the photons per mode n = 4r^2/(r^2 - 1)^2 and the rate
theta = sqrt(|chi2|^2 - |chi1|^2) from the two rates; the half-period map
and ``output_signal``'s moments read n.  At chis (1, r) each must agree with an
mpmath evaluation to a few ulps from r - 1 = 1e-6 up to r = 1e150, and stay
finite, without an exception, up to r = 1e300.
"""

import math

import mpmath
import numpy as np
import pytest

from ionlight.gaussian import bogoliubov_tpi
from ionlight.params import Couplings
from ionlight.protocol import HomodyneSettings, output_signal

ULPS = 4 * np.finfo(float).eps
R_NEAR_ONE = [1.0 + g for g in np.logspace(-6, 0, 25)]
R_LARGE = list(np.logspace(0.5, 150, 25))


def reference(r):
    """(n_mean, theta_rate, q1_sq, q1q2, u, |v|) at chis (1, r), to 50 digits."""
    with mpmath.workdps(50):
        big_r = mpmath.mpf(r)
        diff = big_r ** 2 - 1
        n = 4 * big_r ** 2 / diff ** 2
        return tuple(float(v) for v in (
            n, mpmath.sqrt(diff), 1 + 2 * n, 2 * mpmath.sqrt(n * (1 + n)),
            (big_r ** 2 + 1) / diff, 2 * big_r / diff))


def closed_form(r):
    c = Couplings(1.0, r)
    s = bogoliubov_tpi(c)
    signal = output_signal(c, 1.0, HomodyneSettings())
    # cav1's row: S[0, 0] = u, and (S[0, 2], S[0, 3]) = (-Re v, -Im v)
    return (c.n_mean, c.theta_rate, signal.q1_sq, signal.q1q2,
            s[0, 0], math.hypot(s[0, 2], s[0, 3]))


@pytest.mark.parametrize("r", R_NEAR_ONE + R_LARGE)
def test_matches_mpmath(r):
    names = ("n_mean", "theta_rate", "q1_sq", "q1q2", "u", "|v|")
    for name, got, want in zip(names, closed_form(r), reference(r)):
        assert got == pytest.approx(want, rel=ULPS, abs=0.0), (name, r)


@pytest.mark.parametrize("r", np.logspace(150, 300, 7))
def test_finite_up_to_1e300(r):
    assert all(math.isfinite(v) for v in closed_form(r))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_rate_scale_drops_out(scale):
    # neither |chi|^2 underflowing nor overflowing reaches the derived fields
    c, unit = Couplings(scale, 1.1 * scale), Couplings(1.0, 1.1)
    assert c.n_mean == pytest.approx(unit.n_mean, rel=1e-14)
    assert c.theta_rate == pytest.approx(scale * unit.theta_rate, rel=1e-14)
