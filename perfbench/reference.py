"""Closed-form physics of the paper, written apart from the program.

Nothing here imports ``ionlight``: the benchmark checks the program's outputs
against these formulas, so a mistake shared by the program and its own tests
still shows.  Conventions follow the paper: quadratures with vacuum variance
1, ``r = |chi2/chi1|``, and the half-period pulse ``t_pi = pi / Theta`` with
``Theta = sqrt(|chi2|^2 - |chi1|^2)``.

Each ``check_*`` function returns a list of problems (empty when the answer
is right), so a caller can report every mismatch of an operation at once.
"""

from __future__ import annotations

import math

HBAR = 1.054571817e-34   # J s, CODATA 2018 (exact)


# ---------------------------------------------------------------------------
# config text (linear Hz on disk, angular rad/s in every formula)
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict:
    """``key = value`` lines with ``#`` comments, values kept as strings."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def raman_couplings(cfg: dict) -> tuple:
    """chi1 and chi2 in rad/s from a parsed config, by the paper's Raman formula.

        chi1 = eta conj(g1) Omega (cos th_L / (D - nu + i G/2) - a1 cos th_c / (D + i G/2))
        chi2 = eta conj(g2) Omega (cos th_L / (D + nu + i G/2) - a2 cos th_c / (D + i G/2))

    with eta the Lamb-Dicke parameter.
    """
    w = 2.0 * math.pi
    nu = w * float(cfg["nu_hz"])
    gamma = w * float(cfg["gamma_hz"])
    delta = w * float(cfg["delta_hz"])
    omega = w * float(cfg["omega_rabi_hz"])
    g1 = w * complex(cfg["g1_hz"])
    g2 = w * complex(cfg["g2_hz"])
    alpha1 = float(cfg.get("alpha1", 0.0))
    alpha2 = float(cfg.get("alpha2", 0.0))
    cos_l = math.cos(float(cfg.get("theta_l", 0.0)))
    cos_c = math.cos(float(cfg.get("theta_c", math.pi / 2)))
    eta = lamb_dicke(cfg)
    carrier = delta + 0.5j * gamma
    chi1 = eta * g1.conjugate() * omega * (cos_l / (carrier - nu) - alpha1 * cos_c / carrier)
    chi2 = eta * g2.conjugate() * omega * (cos_l / (carrier + nu) - alpha2 * cos_c / carrier)
    return chi1, chi2


def lamb_dicke(cfg: dict) -> float:
    """eta = sqrt(hbar k^2 / (2 M nu))."""
    nu = 2.0 * math.pi * float(cfg["nu_hz"])
    return math.sqrt(HBAR * float(cfg["wavenumber"]) ** 2 / (2.0 * float(cfg["mass"]) * nu))


def delta_hz_for_ratio(r: float, nu_hz: float) -> float:
    """Red detuning that gives coupling ratio about r in the default geometry.

    Without the carrier terms and for |delta| >> gamma, r = (|delta| + nu) / (|delta| - nu).
    """
    return -nu_hz * (r + 1.0) / (r - 1.0)


# ---------------------------------------------------------------------------
# the half-period pulse
# ---------------------------------------------------------------------------

def theta_rate(chi1: complex, chi2: complex) -> float:
    return math.sqrt(abs(chi2) ** 2 - abs(chi1) ** 2)


def t_pi(chi1: complex, chi2: complex) -> float:
    return math.pi / theta_rate(chi1, chi2)


def photons_per_mode(r: float) -> float:
    """n = 4 r^2 / (1 - r^2)^2."""
    return 4.0 * r * r / (1.0 - r * r) ** 2


def log_negativity(r: float) -> float:
    """E_N = 2 s with sinh s = 2r / |r^2 - 1|."""
    return 2.0 * math.asinh(2.0 * r / abs(r * r - 1.0))


def tmss_moments(r: float) -> tuple:
    """(cosh 2s, sinh 2s) with tanh s = 2r / (1 + r^2)."""
    s = math.atanh(2.0 * r / (1.0 + r * r))
    return math.cosh(2.0 * s), math.sinh(2.0 * s)


def c_signal(times, r: float, kappa_dt: float, phase: float) -> list:
    """C(t) = 1 - R/(1+R) * 2<q1 q2>/(<q1^2> + <q2^2>), R = kappa dt e^{-2 kappa t} 2<q1^2>.

    ``phase`` is arg chi1 + arg chi2 + theta1 + theta2; <q1^2> = cosh 2s and
    <q1 q2> = sinh 2s cos(phase).  ``times`` are in units of 1/kappa.
    """
    auto, cross = tmss_moments(r)
    corr = cross * math.cos(phase) / auto
    out = []
    for t in times:
        big_r = kappa_dt * math.exp(-2.0 * t) * 2.0 * auto
        out.append(1.0 - big_r / (1.0 + big_r) * corr)
    return out


def thermal_marginal(n: float, k: int) -> float:
    """P(k) = n^k / (n + 1)^(k + 1), one mode of a two-mode squeezed vacuum."""
    return (n / (n + 1.0)) ** k / (n + 1.0)


def squeezed_thermal_log_negativity(s: float, nbar: float) -> float:
    """E_N of two modes squeezed by s from vacuum x thermal(nbar).

    With v = 2 nbar + 1 the covariance has a = cosh^2 s + v sinh^2 s,
    b = sinh^2 s + v cosh^2 s and c = (1 + v) cosh s sinh s; the smallest
    symplectic eigenvalue of the partial transpose is
    ((a + b) - sqrt((a - b)^2 + 4 c^2)) / 2.  nbar = 0 gives E_N = 2 s.
    """
    v = 2.0 * nbar + 1.0
    total = (1.0 + v) * math.cosh(2.0 * s)
    nu_pt = 0.5 * (total - math.hypot(1.0 - v, (1.0 + v) * math.sinh(2.0 * s)))
    return max(0.0, -math.log(nu_pt))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def close(got, want, rel=0.0, abs_=0.0) -> bool:
    return abs(got - want) <= max(abs_, rel * abs(want))


def _mismatch(name, got, want):
    return f"{name}: got {got!r}, expected {want!r}"


def check_couplings(chi1, chi2, cfg, rel=1e-12) -> list:
    want1, want2 = raman_couplings(cfg)
    return [_mismatch(name, got, want)
            for name, got, want in (("chi1", chi1, want1), ("chi2", chi2, want2))
            if abs(complex(got) - want) > rel * abs(want)]


def check_pulse(n_cav, e_n, decorrelation, n_motion, nbar, r, cav_cov=None,
                rel=1e-8) -> list:
    """The simultaneous pulse: photons, E_N, TMSS moments, clean motion.

    ``cav_cov`` is the 4x4 covariance of (cav1, cav2) as nested sequences.
    The motion is decorrelated and back at its initial occupation at every
    temperature; both residuals are judged on the scale of the moments.
    """
    problems = []
    n_want = photons_per_mode(r)
    for k, n in enumerate(n_cav):
        if not close(n, n_want, rel=rel):
            problems.append(_mismatch(f"photons cav{k + 1}", n, n_want))
    if not close(e_n, log_negativity(r), rel=rel):
        problems.append(_mismatch("log negativity", e_n, log_negativity(r)))
    auto, cross = tmss_moments(r)
    scale = auto * (2.0 * nbar + 1.0)
    if not abs(decorrelation) <= rel * scale:
        problems.append(_mismatch("motion decorrelation", decorrelation, 0.0))
    if not close(n_motion, nbar, abs_=rel * scale):
        problems.append(_mismatch("motion occupation", n_motion, nbar))
    if cav_cov is not None:
        for i in (0, 1, 2, 3):
            if not close(cav_cov[i][i], auto, rel=rel):
                problems.append(_mismatch(f"cav cov[{i}][{i}]", cav_cov[i][i], auto))
        corr = math.hypot(cav_cov[0][2], cav_cov[0][3])
        if not close(corr, cross, rel=rel):
            problems.append(_mismatch("cav cross-correlation", corr, cross))
    return problems


def check_signal(name, values, times, r, kappa_dt, phase, tol=1e-9) -> list:
    want = c_signal(times, r, kappa_dt, phase)
    if len(values) != len(want):
        return [f"{name}: {len(values)} points, expected {len(want)}"]
    worst = max(abs(float(g) - w) for g, w in zip(values, want))
    return [] if worst <= tol else [f"{name}: C(t) off by {worst:.3e}"]


def check_sequential(e_pulses, e_pulse1_motion, area, nbar, tol=1e-8) -> list:
    """Sequential pulses: E_N(pulse1|pulse2) of the squeezed thermal pair, none with motion."""
    want = squeezed_thermal_log_negativity(area, nbar)
    problems = []
    if not close(e_pulses, want, rel=tol, abs_=tol):
        problems.append(_mismatch("E_N pulse1|pulse2", e_pulses, want))
    if not abs(e_pulse1_motion) <= tol:
        problems.append(_mismatch("E_N pulse1|motion", e_pulse1_motion, 0.0))
    return problems


def check_oracle(joint, n_fock, g_cov, f_cov, leakage, r,
                 cov_tol=1e-6, leak_tol=1e-9, p_tol=1e-9) -> list:
    """Number-basis run against the paper: thermal marginal, pairs only, TMSS moments.

    ``joint`` is the (n1, n2) photon distribution, ``n_fock`` the mean
    occupations of (cav1, cav2, motion), ``g_cov`` and ``f_cov`` the 6x6
    covariances of the Gaussian and number-basis routes.
    """
    problems = []
    n = photons_per_mode(r)
    for k in (0, 1):
        if not close(n_fock[k], n, rel=cov_tol):
            problems.append(_mismatch(f"fock photons mode {k}", n_fock[k], n))
    if not abs(n_fock[2]) <= cov_tol:
        problems.append(_mismatch("fock motion occupation", n_fock[2], 0.0))
    if not leakage <= leak_tol:
        problems.append(_mismatch("leakage", leakage, f"<= {leak_tol}"))
    off_pairs = 0.0
    worst_p = 0.0
    for k, row in enumerate(joint):
        for j, p in enumerate(row):
            if j != k:
                off_pairs += float(p)
        worst_p = max(worst_p, abs(float(row[k]) - thermal_marginal(n, k)))
    if not off_pairs <= p_tol:
        problems.append(_mismatch("population with n1 != n2", off_pairs, 0.0))
    if not worst_p <= p_tol:
        problems.append(f"thermal marginal off by {worst_p:.3e}")
    auto, cross = tmss_moments(r)
    for i in (0, 1, 2, 3):
        if not close(g_cov[i][i], auto, rel=1e-9):
            problems.append(_mismatch(f"gaussian cov[{i}][{i}]", g_cov[i][i], auto))
    corr = math.hypot(g_cov[0][2], g_cov[0][3])
    if not close(corr, cross, rel=1e-9):
        problems.append(_mismatch("gaussian cross-correlation", corr, cross))
    gap = max(abs(float(g_cov[i][j]) - float(f_cov[i][j]))
              for i in range(6) for j in range(6))
    if not gap <= cov_tol:
        problems.append(f"gaussian and number-basis covariances differ by {gap:.3e}")
    return problems
