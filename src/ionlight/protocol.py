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

Each is a tuple of named :class:`Stage` records.  Both are lossless during
the drive, so every stage is one symplectic map in closed form, applied by
:func:`run_stages`.  The matrix exponential of :func:`gaussian.evolve` runs
only the cross-checks, and the drive with cavity decay, which is one call:
``evolve(initial, dynamics_from_couplings(chi1, chi2, kappa), t_pi)``.

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

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import gaussian
from .errors import ParameterError, RegimeError, require_half_period
from .gaussian import SIMULTANEOUS_LABELS, GaussianState
from .params import (CONFIG_KEYS, DEFAULT_KAPPA_DT, DEFAULT_R_LIST, TWO_PI, Couplings,
                     PhysicalParams, coupling_constants, validate_regime)

SEQUENTIAL_LABELS = ("cav", "motion", "pulse1")
MAX_GRID_POINTS = 1_000_000     # 8 MB per float64 trace column; the default grid has 401


def default_time_grid(t_max: float = CONFIG_KEYS["t_max"].default,
                      step: float = CONFIG_KEYS["t_step"].default) -> np.ndarray:
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


# HomodyneSettings' default grid and its weights exp(-2 t), built once: every
# settings object that takes the default shares both, read-only, uncopied.
_DEFAULT_GRID = default_time_grid()
_DEFAULT_WEIGHTS = np.exp(-2.0 * _DEFAULT_GRID)
_DEFAULT_GRID.setflags(write=False)
_DEFAULT_WEIGHTS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class HomodyneSettings:
    """Local-oscillator phases and the detection time binning.

    ``theta1`` and ``theta2`` must lie in [-2 pi, 2 pi]: a larger angle adds
    nothing, and far past it the cos and sin are round-off.  ``kappa_dt`` is
    the dimensionless bin length kappa * dt and must lie in (0, 1]: the
    fluctuations have to be recorded on a time scale no slower than the
    cavity decay.  ``t_grid`` is in units of 1/kappa; a caller's grid is
    copied.  ``weights`` is exp(-2 t) on the grid, read by both signal routes.
    """

    theta1: float = 0.0
    theta2: float = 0.0
    kappa_dt: float = DEFAULT_KAPPA_DT
    t_grid: np.ndarray = field(default_factory=lambda: _DEFAULT_GRID)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.kappa_dt <= 1.0:
            raise ParameterError(f"kappa_dt must be in (0, 1], got {self.kappa_dt!r}")
        for name in ("theta1", "theta2"):
            theta = getattr(self, name)
            if not abs(theta) <= TWO_PI:
                raise ParameterError(f"{name} must lie in [-2 pi, 2 pi], got {theta!r}")
        if self.t_grid is _DEFAULT_GRID:
            grid, weights = _DEFAULT_GRID, _DEFAULT_WEIGHTS
        else:
            grid = np.array(self.t_grid, dtype=float).reshape(-1)
            if grid.size == 0 or not np.all((grid >= 0.0) & (grid < math.inf)):
                raise ParameterError("t_grid must be non-empty with finite times >= 0")
            weights = np.exp(-2.0 * grid)
            grid.setflags(write=False)
            weights.setflags(write=False)
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "weights", weights)

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
    pulse1_motion_entanglement: float
    state: GaussianState


class Stage(NamedTuple):
    """One lossless stage: its term list, driven for ``t``, and that map in closed form."""

    name: str
    terms: tuple                # PAIR/EXCHANGE terms, as gaussian.drift reads them
    t: float
    symplectic: np.ndarray      # gaussian.bogoliubov_tpi or gaussian.term_propagator


def run_stages(state: GaussianState, stages: Iterable[Stage]) -> tuple:
    """Apply each stage's symplectic map in turn; the state after each stage."""
    states = [state]
    for stage in stages:
        states.append(gaussian.apply_symplectic(states[-1], stage.symplectic))
    return tuple(states[1:])


# ---------------------------------------------------------------------------
# source-field moments and the signal
# ---------------------------------------------------------------------------

def output_signal(couplings: Couplings, kappa: float,
                  settings: HomodyneSettings) -> SignalTrace:
    """Homodyne signal C(t) of the emitted bichromatic pulse (closed form).

    The source quadratures q_j = a_j e^{i theta_j} + h.c. at the end of the
    half-period pulse have, from n = ``couplings.n_mean`` and beta,
    <q1^2> = <q2^2> = 1 + 2n and <q1 q2> = 2 sqrt(n (1 + n)) cos(beta + theta1 + theta2).
    """
    if not 0.0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa!r}")
    require_half_period(couplings.r)
    n = couplings.n_mean
    phase = (couplings.beta or 0.0) + settings.theta1 + settings.theta2
    q1_sq = 1.0 + 2.0 * n
    q1q2 = 2.0 * math.sqrt(n) * math.sqrt(1.0 + n) * math.cos(phase)
    total = 2.0 * q1_sq
    r_values = settings.kappa_dt * settings.weights * total
    c_values = 1.0 - (r_values / (1.0 + r_values)) * (2.0 * q1q2 / total)
    return SignalTrace(times=settings.t_grid.copy(), c_values=c_values,
                       r=float(couplings.r), kappa_dt=settings.kappa_dt,
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
    # The cavity rows of the map take the three-mode vacuum to the source's
    # covariance.  numpy computes a product with its own transpose view from
    # one triangle (BLAS syrk) and copies it to the other: exactly symmetric.
    rows = gaussian.bogoliubov_tpi(couplings)[:4]
    source = rows @ rows.T

    def rot(theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    rotation = np.zeros((4, 4))
    rotation[0:2, 0:2] = rot(settings.theta1)
    rotation[2:4, 2:4] = rot(settings.theta2)
    sigma = rotation @ source @ rotation.T

    # measured covariance per grid point: weight * sigma + identity
    weight = 2.0 * settings.kappa_dt * settings.weights
    var1 = weight * sigma[0, 0] + 1.0
    var2 = weight * sigma[2, 2] + 1.0
    cross = weight * sigma[0, 2]
    return (var1 + var2 - 2.0 * cross) / (var1 + var2)


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
        require_half_period(r)
    if t_grid is None:
        t_grid = _DEFAULT_GRID
    settings = HomodyneSettings(theta1=theta1, theta2=theta2, kappa_dt=kappa_dt, t_grid=t_grid)
    return [output_signal(Couplings.from_chis(1.0, r), kappa=1.0, settings=settings)
            for r in r_list]


# ---------------------------------------------------------------------------
# simultaneous protocol
# ---------------------------------------------------------------------------

def simultaneous_stages(couplings: Couplings) -> tuple:
    """``("pulse",)``: one half-period of both couplings; needs |chi2| > |chi1|."""
    return (Stage("pulse", gaussian.simultaneous_terms(couplings.chi1, couplings.chi2),
                  couplings.t_pi, gaussian.bogoliubov_tpi(couplings)),)


def run_simultaneous(params: PhysicalParams, force: bool = False,
                     ratio: float = CONFIG_KEYS["ratio"].default) -> SimultaneousResult:
    """Drive both couplings for one half-period from vacuum x vacuum x thermal.

    The run is lossless during the drive (the pulse is much shorter than the
    cavity lifetime) and applies the exact half-period map
    :func:`gaussian.bogoliubov_tpi`.  ``diagnostics`` holds what is measured
    on the final state; ``couplings`` holds t_pi, r, beta and n_mean.

    The regime inequalities are checked first, each ">>" as a factor
    ``ratio``, and a failing set raises :class:`RegimeError` unless
    ``force`` is given.  The default factor 10 refuses the bundled indium
    point, where ``theta >> kappa`` holds by a factor 6.5 and ``1 >> eta``
    by 9.6; its configuration, and so the CLI, checks that point at factor 5.
    """
    couplings = coupling_constants(params)
    stages = simultaneous_stages(couplings)
    if not force:
        report = validate_regime(params, couplings, much_greater_ratio=ratio)
        if not report.overall_pass:
            failed = [c.name for c in report.constraints if not c.passed]
            raise RegimeError("operating-regime check failed "
                              f"({', '.join(failed)}); pass force=True to run anyway")

    initial = gaussian._thermal_product(SIMULTANEOUS_LABELS, (0.0, 0.0, params.nbar_motion))
    (final,) = run_stages(initial, stages)

    diagnostics = {
        "n_cav1": gaussian.mean_photons(final, "cav1"),
        "n_cav2": gaussian.mean_photons(final, "cav2"),
        "log_negativity": gaussian.log_negativity(final, ("cav1",)),
        "epr_x": gaussian.epr_variance(final, "cav1", "cav2", 0.0, 0.0),
        "epr_p": gaussian.epr_variance(final, "cav1", "cav2",
                                       math.pi / 2, -math.pi / 2),
        "motion_decorrelation": gaussian.decorrelation_norm(
            final, ("motion",), ("cav1", "cav2")),
    }
    return SimultaneousResult(state=final, couplings=couplings, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# sequential protocol
# ---------------------------------------------------------------------------

def sequential_stages(couplings: Couplings, t1: float, kappa_t12: float,
                      swap_area: float) -> tuple:
    """The sequential protocol over (cav, motion, pulse1): ``("pair", "extract", "swap")``.

    Each stage is one symplectic map, in closed form from a single term (see
    :func:`gaussian.term_propagator`).  Stage A drives the pair-creation
    coupling alone for ``t1`` seconds: a two-mode squeezer of cavity and
    motion with parameter |chi1| * t1.  Stage B lets the light leave during a
    delay T12, given as ``kappa_t12`` = kappa * T12: the emitted exponential
    mode is collected into the pulse-1 register by a beam splitter of area
    acos(exp(-kappa T12)), i.e. transmittance 1 - exp(-2 kappa T12), with
    vacuum refilling the cavity (``math.inf`` gives ideal extraction, area
    pi/2).  Stage C drives the exchange coupling for the area ``swap_area`` =
    |chi2| t2, as a unit-rate term with chi2's phase; area pi/2 swaps the
    stored motional state onto the cavity, which subsequently leaves as
    pulse 2.  ``swap_area`` lies in [0, 2 pi], one full period of the
    exchange.  With chi2 = 0 stage C has no drive: it lasts 0 and is the
    identity.  Both areas are taken as given, so no rate scales them.
    """
    if not t1 > 0.0:
        raise ParameterError(f"t1 must be positive, got {t1!r}")
    if not kappa_t12 >= 0.0:
        raise ParameterError(f"kappa_t12 must be >= 0, got {kappa_t12!r}")
    if not 0.0 <= swap_area <= TWO_PI:
        raise ParameterError(f"swap_area must lie in [0, 2 pi], got {swap_area!r}")
    cav, motion, pulse1 = SEQUENTIAL_LABELS
    chi2 = couplings.chi2
    stages = (("pair", (gaussian.PAIR, cav, motion, couplings.chi1), t1),
              ("extract", (gaussian.EXCHANGE, pulse1, cav, 1.0),
               math.acos(math.exp(-kappa_t12))),
              ("swap", (gaussian.EXCHANGE, cav, motion, cmath.rect(1.0, cmath.phase(chi2))),
               swap_area if chi2 else 0.0))
    return tuple(Stage(name, (term,), t,
                       gaussian.term_propagator(SEQUENTIAL_LABELS, term, t))
                 for name, term, t in stages)


def run_sequential(params: PhysicalParams, t1: float, kappa_t12: float = math.inf,
                   swap_area: float = CONFIG_KEYS["seq_swap_area"].default) -> SequentialResult:
    """Sequential pulses with the motion as intermediate memory.

    Runs the stages of :func:`sequential_stages` from vacuum x thermal x
    vacuum.  There is no regime gate.

    Decay during the short drive stages is neglected, as in the simultaneous
    protocol; a delay of ``kappa_t12`` = kappa * T12 >= 5 is recommended so
    most of pulse 1 is actually out before the swap.
    """
    initial = gaussian._thermal_product(SEQUENTIAL_LABELS, (0.0, params.nbar_motion, 0.0))
    after_pair, _, state = run_stages(initial, sequential_stages(
        coupling_constants(params), t1, kappa_t12, swap_area))

    return SequentialResult(
        stage_a_entanglement=gaussian.log_negativity(after_pair, ("cav",)),
        final_entanglement=gaussian.log_negativity(
            state.reduced(("cav", "pulse1")), ("pulse1",)),
        motion_residual_norm=gaussian.decorrelation_norm(
            state, ("motion",), ("cav", "pulse1")),
        pulse1_motion_entanglement=gaussian.log_negativity(
            state.reduced(("motion", "pulse1")), ("pulse1",)),
        state=state,
    )
