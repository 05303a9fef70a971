"""Pulse protocols and the homodyne difference-current signal.

Two protocols are implemented:

* ``run_simultaneous`` drives both Raman couplings for one half-period, which
  entangles the two cavity modes with each other and leaves the motion
  decorrelated (its sole trace is a sign flip).
* ``run_sequential`` uses a single cavity mode twice: a pair-creation pulse
  entangles cavity and motion, the emitted light is collected into a "pulse 1"
  register, and after a delay an exchange pulse swaps the stored motional
  state back onto the cavity, so the two emitted pulses end up entangled and
  the motion ends up clean.  The motion is the memory in between.

The measured quantity downstream of the cavity is the normalized variance of
the balanced-homodyne difference current, binned at kappa*dt:

    C(t) = 1 - R(t)/(1 + R(t)) * 2 <q1 q2> / (<q1^2> + <q2^2>)

with R(t) = kappa*dt * exp(-2 kappa t) * (<q1^2> + <q2^2>).  C = 1 is the
shot-noise level; C < 1 witnesses EPR-type correlations.  This closed form is
algebraically identical to a first-principles model in which each detector
sees the bin mode sqrt(2 kappa dt) e^{-kappa t} a_j plus one unit of free-field
vacuum and C is Var(Q1 - Q2)/(Var Q1 + Var Q2); the model route is implemented
independently in :func:`beam_splitter_signal` and the two must agree to
machine precision.  (A literal reading without the factor 2 on the
correlation term cannot drop below C = 1/2 for this state family and is
inconsistent with the intended deep-squeezing signal.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import gaussian
from .errors import ParameterError, UndefinedPeriodError
from .gaussian import GaussianState
from .params import Couplings, PhysicalParams, coupling_constants, validate_regime

DEFAULT_R_LIST = (1.8, 1.5, 1.3, 1.1, 1.05)
DEFAULT_KAPPA_DT = 0.1
SIMULTANEOUS_LABELS = ("cav1", "cav2", "motion")
SEQUENTIAL_LABELS = ("cav", "motion", "pulse1")
MAX_GRID_POINTS = 1_000_000     # 8 MB per float64 trace column; the default grid has 401


def default_time_grid(t_max: float = 8.0, step: float = 0.02) -> np.ndarray:
    """Time grid in units of 1/kappa, inclusive of both ends.

    At most MAX_GRID_POINTS points; the check comes before the allocation.
    """
    if not (0.0 < t_max < math.inf and 0.0 < step < math.inf):
        raise ParameterError("t_max and step must be positive and finite")
    if not t_max / step <= MAX_GRID_POINTS - 1:
        raise ParameterError(
            f"t_max / step = {t_max / step:.3g} asks for more than {MAX_GRID_POINTS} grid points")
    n = int(round(t_max / step))
    return np.linspace(0.0, n * step, n + 1)


@dataclass(frozen=True, eq=False)
class HomodyneSettings:
    """Local-oscillator phases and the detection time binning.

    ``kappa_dt`` is the dimensionless bin length kappa * dt and must lie in
    (0, 1]: the fluctuations have to be recorded on a time scale no slower
    than the cavity decay.  ``t_grid`` is in units of 1/kappa.
    """

    theta1: float = 0.0
    theta2: float = 0.0
    kappa_dt: float = DEFAULT_KAPPA_DT
    t_grid: np.ndarray = field(default_factory=default_time_grid)

    def __post_init__(self):
        if not 0.0 < self.kappa_dt <= 1.0:
            raise ParameterError(f"kappa_dt must be in (0, 1], got {self.kappa_dt!r}")
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ParameterError("theta1 and theta2 must be finite")
        grid = np.array(self.t_grid, dtype=float).reshape(-1)
        if grid.size == 0 or not np.all((grid >= 0.0) & (grid < math.inf)):
            raise ParameterError("t_grid must be non-empty with finite times >= 0")
        object.__setattr__(self, "t_grid", grid)
        grid.setflags(write=False)

    @property
    def theta_sum(self) -> float:
        return self.theta1 + self.theta2


@dataclass(frozen=True, eq=False)
class SignalTrace:
    """Homodyne signal C(t) on a time grid, with its per-point diagnostics."""

    times: np.ndarray          # kappa * t
    c_values: np.ndarray
    r: float
    kappa_dt: float
    theta_sum: float
    q1_sq: float               # <q1^2> = <q2^2> of the source
    q1q2: float                # <q1 q2> of the source at this theta_sum
    r_values: np.ndarray       # R(t) per grid point

    def min_c(self) -> tuple:
        """(min C, time of min C)."""
        k = int(np.argmin(self.c_values))
        return float(self.c_values[k]), float(self.times[k])

    def to_csv(self) -> str:
        """Serialize: comment header, column names, one row per grid point.

        Full double precision (shortest round-trip repr); byte-deterministic
        for identical inputs.
        """
        lines = [f"# r={float(self.r)!r}, kappa_dt={float(self.kappa_dt)!r}, "
                 f"theta_sum={float(self.theta_sum)!r}"]
        lines.append("kappa_t,C,R,q1_sq,q1q2")
        q1_sq, q1q2 = float(self.q1_sq), float(self.q1q2)
        for t, c, rv in zip(self.times, self.c_values, self.r_values):
            lines.append(f"{float(t)!r},{float(c)!r},{float(rv)!r},{q1_sq!r},{q1q2!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class SimultaneousResult:
    """Final state and diagnostics of the simultaneous-pulse protocol."""

    state: GaussianState
    couplings: Couplings
    diagnostics: dict


@dataclass(frozen=True, eq=False)
class SequentialResult:
    """Outcome of the sequential-pulse protocol."""

    stage_a_entanglement: float     # E_N(cavity | motion) after the first pulse
    final_entanglement: float       # E_N(pulse1 | cavity) after the swap pulse
    motion_residual_norm: float     # cross-covariance norm motion vs. both fields
    swap_area: float
    pulse1_motion_entanglement: float
    state: GaussianState


# ---------------------------------------------------------------------------
# source-field moments and the signal
# ---------------------------------------------------------------------------

def quadrature_moments(chi1: complex, chi2: complex,
                       theta1: float = 0.0, theta2: float = 0.0) -> tuple:
    """Second moments of the source quadratures q_j = a_j e^{i theta_j} + h.c.

    Returns (<q1^2>, <q1 q2>) for the field at the end of the half-period
    pulse; <q2^2> equals <q1^2>.  The autocorrelation is theta-independent,
    the cross term carries exp(i (theta1 + theta2)).
    """
    chi1 = complex(chi1)
    chi2 = complex(chi2)
    theta_sq = abs(chi2) ** 2 - abs(chi1) ** 2
    if theta_sq <= 0.0:
        raise UndefinedPeriodError(
            f"|chi2| <= |chi1| (|chi1|={abs(chi1)!r}, |chi2|={abs(chi2)!r}): "
            "the protocol needs r > 1"
        )
    m1, m2 = abs(chi1) ** 2, abs(chi2) ** 2
    q1_sq = ((m1 + m2) ** 2 + 4.0 * m1 * m2) / theta_sq ** 2
    q1q2 = (4.0 * chi1 * chi2 * (m1 + m2)
            * np.exp(1j * (theta1 + theta2))).real / theta_sq ** 2
    return float(q1_sq), float(q1q2)


def output_signal(couplings: Couplings, kappa: float,
                  settings: HomodyneSettings) -> SignalTrace:
    """Homodyne signal C(t) of the emitted bichromatic pulse (closed form)."""
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa!r}")
    q1_sq, q1q2 = quadrature_moments(couplings.chi1, couplings.chi2,
                                     settings.theta1, settings.theta2)
    total = 2.0 * q1_sq
    r_values = settings.kappa_dt * np.exp(-2.0 * settings.t_grid) * total
    c_values = 1.0 - (r_values / (1.0 + r_values)) * (2.0 * q1q2 / total)
    ratio = couplings.r if couplings.r is not None else math.inf
    return SignalTrace(times=settings.t_grid.copy(), c_values=c_values,
                       r=float(ratio), kappa_dt=settings.kappa_dt,
                       theta_sum=settings.theta_sum,
                       q1_sq=q1_sq, q1q2=q1q2, r_values=r_values)


def beam_splitter_signal(couplings: Couplings,
                         settings: HomodyneSettings) -> np.ndarray:
    """C(t) from an explicit Gaussian model of the binned detection.

    Independent route used to pin the normalization of the closed form: the
    source two-mode state is built by applying the half-period map to the
    vacuum (no moment formulas), each local oscillator phase is applied as a
    quadrature rotation, and each detector's bin mode is the attenuated source
    sqrt(2 kappa dt) e^{-kappa t} a_j plus one unit of vacuum.  The signal is
    the measured difference variance over the measured uncorrelated reference

        C = Var(Q1 - Q2) / (Var Q1 + Var Q2).
    """
    full = gaussian.vacuum(3, SIMULTANEOUS_LABELS)
    s_map = gaussian.bogoliubov_tpi(couplings)
    source = GaussianState(SIMULTANEOUS_LABELS, s_map @ full.mean,
                           s_map @ full.cov @ s_map.T,
                           validate=False).reduced(("cav1", "cav2"))

    def rot(theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    rotation = np.zeros((4, 4))
    rotation[0:2, 0:2] = rot(settings.theta1)
    rotation[2:4, 2:4] = rot(settings.theta2)
    sigma = rotation @ source.cov @ rotation.T

    out = np.empty_like(settings.t_grid)
    for k, t in enumerate(settings.t_grid):
        weight = 2.0 * settings.kappa_dt * math.exp(-2.0 * t)
        measured = weight * sigma + np.eye(4)
        var1, var2 = measured[0, 0], measured[2, 2]
        cross = measured[0, 2]
        out[k] = (var1 + var2 - 2.0 * cross) / (var1 + var2)
    return out


def fig3_sweep(r_list: Optional[Iterable[float]] = None,
               kappa_dt: float = DEFAULT_KAPPA_DT,
               t_grid: Optional[np.ndarray] = None,
               theta1: float = 0.0, theta2: float = 0.0) -> list:
    """One signal trace per coupling ratio, on a common grid.

    Defaults reproduce the standard sweep: r = 1.8, 1.5, 1.3, 1.1, 1.05 with
    kappa*dt = 0.1 on t in [0, 8/kappa] at step 0.02/kappa.  As r decreases
    toward 1 the source gets brighter, so the squeezed window both deepens and
    stretches to later times.
    """
    if r_list is None:
        r_list = DEFAULT_R_LIST
    r_list = [float(r) for r in r_list]
    for r in r_list:
        if not math.isfinite(r):
            raise ParameterError(f"every r must be finite, got {r!r}")
        if r <= 1.0:
            raise UndefinedPeriodError(f"every r must exceed 1, got {r!r}")
    if t_grid is None:
        t_grid = default_time_grid()
    traces = []
    for r in r_list:
        settings = HomodyneSettings(theta1=theta1, theta2=theta2,
                                    kappa_dt=kappa_dt, t_grid=t_grid)
        couplings = Couplings.from_chis(1.0, r)
        traces.append(output_signal(couplings, kappa=1.0, settings=settings))
    return traces


# ---------------------------------------------------------------------------
# simultaneous protocol
# ---------------------------------------------------------------------------

def run_simultaneous(params: PhysicalParams, force: bool = False,
                     ratio: float = 10.0,
                     include_decay: bool = False) -> SimultaneousResult:
    """Drive both couplings for one half-period from vacuum x vacuum x thermal.

    The normative run is lossless during the drive (the pulse is much shorter
    than the cavity lifetime); ``include_decay=True`` switches cavity decay on
    during the drive for sensitivity studies and is not the protocol being
    characterized.

    The regime inequalities are checked first and a failing set raises unless
    ``force`` is given.
    """
    couplings = coupling_constants(params)
    if couplings.theta_rate is None:
        raise UndefinedPeriodError(
            f"couplings give r = {couplings.r!r}; the simultaneous protocol "
            "needs |chi2| > |chi1|"
        )
    if not force:
        report = validate_regime(params, couplings, much_greater_ratio=ratio)
        if not report.overall_pass:
            failed = [c.name for c in report.constraints if not c.passed]
            raise ParameterError(
                "operating-regime check failed "
                f"({', '.join(failed)}); pass force=True to run anyway"
            )

    initial = gaussian.tensor(
        gaussian.vacuum(2, ("cav1", "cav2")),
        gaussian.thermal(params.nbar_motion, "motion"),
    )
    dynamics = gaussian.dynamics_from_couplings(
        couplings.chi1, couplings.chi2, params.kappa, include_decay=include_decay)
    final = gaussian.evolve(initial, dynamics, couplings.t_pi)

    diagnostics = {
        "t_pi": couplings.t_pi,
        "r": couplings.r,
        "beta": couplings.beta,
        "n_mean": couplings.n_mean,
        "n_cav1": gaussian.mean_photons(final, "cav1"),
        "n_cav2": gaussian.mean_photons(final, "cav2"),
        "log_negativity": gaussian.log_negativity(final, ("cav1",)),
        "epr_x": gaussian.epr_variance(final, "cav1", "cav2", 0.0, 0.0),
        "epr_p": gaussian.epr_variance(final, "cav1", "cav2",
                                       math.pi / 2, -math.pi / 2),
        "motion_decorrelation": gaussian.decorrelation_norm(
            final, ("motion",), ("cav1", "cav2")),
    }
    return SimultaneousResult(state=final, couplings=couplings,
                              diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# sequential protocol
# ---------------------------------------------------------------------------

def _extraction_symplectic(transmittance: float) -> np.ndarray:
    """Beam splitter moving the intracavity field into the pulse-1 register.

    ``transmittance`` is the power fraction handed to the register; the cavity
    is refilled with the register's prior (vacuum) content.  Transmittance 1
    is a pure relabeling.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ParameterError(f"transmittance must be in [0, 1], got {transmittance!r}")
    c = math.sqrt(1.0 - transmittance)
    s = math.sqrt(transmittance)
    full = np.eye(6)
    full[0, 0] = full[1, 1] = c
    full[4, 4] = full[5, 5] = c
    full[4, 0] = full[5, 1] = s
    full[0, 4] = full[1, 5] = -s
    return full


def _apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    return GaussianState(state.mode_labels, s @ state.mean,
                         s @ state.cov @ s.T, validate=False)


def run_sequential(params: PhysicalParams, t1: float,
                   delay_t12: float = math.inf,
                   swap_area: float = math.pi / 2,
                   force: bool = True) -> SequentialResult:
    """Sequential pulses with the motion as intermediate memory.

    Stage A drives the pair-creation coupling alone for ``t1`` (two-mode
    squeezing of cavity and motion with parameter |chi1| * t1).  Stage B lets
    the light leave during ``delay_t12`` seconds: the emitted exponential mode
    is collected into the pulse-1 register through a beam splitter of
    transmittance 1 - exp(-2 kappa T12), with vacuum refilling the cavity
    (``math.inf`` gives ideal extraction).  Stage C drives the exchange
    coupling for t2 = swap_area / |chi2|; area pi/2 swaps the stored motional
    state onto the cavity, which subsequently leaves as pulse 2.

    Decay during the short drive stages is neglected, as in the simultaneous
    protocol; kappa * delay_t12 >= 5 is recommended so most of pulse 1 is
    actually out before the swap.
    """
    if not t1 > 0.0:
        raise ParameterError(f"t1 must be positive, got {t1!r}")
    if delay_t12 < 0.0:
        raise ParameterError(f"delay_t12 must be >= 0, got {delay_t12!r}")
    if swap_area < 0.0:
        raise ParameterError(f"swap_area must be >= 0, got {swap_area!r}")
    couplings = coupling_constants(params)
    if not force:
        report = validate_regime(params, couplings)
        if not report.overall_pass:
            raise ParameterError("operating-regime check failed")

    cav_label, motion_label, pulse_label = SEQUENTIAL_LABELS
    state = gaussian.tensor(
        gaussian.vacuum(1, (cav_label,)),
        gaussian.thermal(params.nbar_motion, motion_label),
        gaussian.vacuum(1, (pulse_label,)),
    )

    # Stage A: pair creation between cavity and motion.
    pair = gaussian.quadratic_dynamics(
        SEQUENTIAL_LABELS, [(gaussian.PAIR, cav_label, motion_label, couplings.chi1)])
    state = gaussian.evolve(state, pair, t1)
    stage_a_entanglement = gaussian.log_negativity(state, ("cav",))

    # Stage B: emission of pulse 1 during the delay.
    transmittance = 1.0 - math.exp(-2.0 * params.kappa * delay_t12)
    state = _apply_symplectic(state, _extraction_symplectic(transmittance))

    # Stage C: exchange pulse of the requested area.
    if abs(couplings.chi2) > 0.0 and swap_area > 0.0:
        t2 = swap_area / abs(couplings.chi2)
        exchange = gaussian.quadratic_dynamics(
            SEQUENTIAL_LABELS, [(gaussian.EXCHANGE, cav_label, motion_label, couplings.chi2)])
        state = gaussian.evolve(state, exchange, t2)

    return SequentialResult(
        stage_a_entanglement=stage_a_entanglement,
        final_entanglement=gaussian.log_negativity(
            state.reduced(("cav", "pulse1")), ("pulse1",)),
        motion_residual_norm=gaussian.decorrelation_norm(
            state, ("motion",), ("cav", "pulse1")),
        swap_area=swap_area,
        pulse1_motion_entanglement=gaussian.log_negativity(
            state.reduced(("motion", "pulse1")), ("pulse1",)),
        state=state,
    )
