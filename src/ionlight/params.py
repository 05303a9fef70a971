"""Physical parameters of the ion-cavity system and the derived coupling rates.

Everything in this module is plain arithmetic on experimentally settable
quantities.  Conventions:

* All frequencies and rates are ANGULAR (rad/s) inside the code.  Config
  files quote linear frequencies in Hz (the usual "2 pi x 3 MHz" lab
  convention); they are multiplied by 2 pi on ingestion.
* The detuning ``delta`` is signed.  The pulsed entanglement protocol needs
  |chi2| > |chi1|, which for the default geometry requires delta < 0.
* Absolute optical frequencies never appear; only the detuning and the +/- nu
  sideband offsets enter any formula.

The two Raman coupling rates are

    chi1 = eta * conj(g1) * Omega * (cos(theta_L)/(delta - nu + i*gamma/2)
                                     - alpha1*cos(theta_c)/(delta + i*gamma/2))
    chi2 = eta * conj(g2) * Omega * (cos(theta_L)/(delta + nu + i*gamma/2)
                                     - alpha2*cos(theta_c)/(delta + i*gamma/2))

with eta = sqrt(hbar k^2 / (2 M nu)) the Lamb-Dicke parameter.  When
|chi2| > |chi1| the coupled three-mode dynamics are periodic with rate
Theta = sqrt(|chi2|^2 - |chi1|^2); the pulse of interest lasts one
half-period T_pi = pi / Theta and creates on average
n_mean = 4 r^2 / (1 - r^2)^2 photons per cavity mode, where r = |chi2/chi1|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from .errors import ConfigError, ParameterError

# Reduced Planck constant, J*s (CODATA 2018 exact value).
HBAR = 1.054571817e-34

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalParams:
    """All experimentally settable quantities, validated on construction.

    Frequencies/rates are angular (rad/s); see the module docstring.  The
    angles ``theta_l`` and ``theta_c`` must lie in [-2 pi, 2 pi]: past that
    the spacing between doubles grows toward 2 pi and their cosines become
    round-off.
    """

    nu: float                    # motional (trap) frequency, rad/s
    gamma: float                 # atomic linewidth, rad/s
    delta: float                 # laser-atom detuning, signed, rad/s
    omega_rabi: float            # laser Rabi frequency, rad/s
    kappa: float                 # cavity field (amplitude) decay rate, rad/s
    g1: complex                  # vacuum Rabi frequency of cavity mode 1, rad/s
    g2: complex                  # vacuum Rabi frequency of cavity mode 2, rad/s
    alpha1: float = 0.0          # cavity-mode field-gradient scalar, mode 1
    alpha2: float = 0.0          # cavity-mode field-gradient scalar, mode 2
    theta_l: float = 0.0         # angle trap axis <-> laser wave vector, rad
    theta_c: float = math.pi / 2   # angle trap axis <-> cavity axis, rad
    mass: float = 0.0            # atomic mass, kg
    wavenumber: float = 0.0      # optical wavenumber k, 1/m
    nbar_motion: float = 0.0     # initial mean thermal phonon number

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not cmath.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value!r}")
        for name in ("nu", "gamma", "kappa", "mass", "wavenumber", "omega_rabi"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ParameterError(f"{name} must be positive, got {value!r}")
        if self.nbar_motion < 0.0:
            raise ParameterError(f"nbar_motion must be >= 0, got {self.nbar_motion!r}")
        for name in ("theta_l", "theta_c"):
            value = getattr(self, name)
            if not abs(value) <= TWO_PI:
                raise ParameterError(f"{name} must lie in [-2 pi, 2 pi], got {value!r}")
        # Pole guard: the Raman denominators delta -+ nu would be resonant.
        # Within one linewidth of either pole the adiabatic elimination behind
        # chi1/chi2 is meaningless, so such parameter sets are rejected here.
        if min(abs(self.delta - self.nu), abs(self.delta + self.nu)) < self.gamma:
            raise ParameterError(
                "detuning is within one linewidth of a Raman resonance "
                f"(|delta -+ nu| < gamma): delta={self.delta!r}, nu={self.nu!r}, "
                f"gamma={self.gamma!r}"
            )

    @property
    def lamb_dicke(self) -> float:
        """Lamb-Dicke parameter eta = sqrt(hbar k^2 / (2 M nu)).

        Raises :class:`ParameterError` when the product 2 M nu underflows to 0.
        """
        mass_nu = 2.0 * self.mass * self.nu
        if mass_nu == 0.0:
            raise ParameterError(f"lamb_dicke: 2 * mass * nu underflows to 0, "
                                 f"got mass={self.mass!r}, nu={self.nu!r}")
        return math.sqrt(HBAR * (self.wavenumber * self.wavenumber) / mass_nu)


@dataclass(frozen=True)
class Couplings:
    """Raman coupling rates and the quantities derived from them.

    Only ``chi1`` and ``chi2`` are set; the rest is derived on
    construction, also by ``dataclasses.replace``.  A non-finite rate raises
    :class:`ParameterError`.  chi1 = 0 is the r -> infinity limit (the
    exchange coupling alone): theta_rate = |chi2| and n_mean = 0.  ``n_mean``
    is the one copy of the half-period's squeezing, which the map, the signal
    moments and the oracle's basis size read.  It and ``theta_rate`` come
    from x = |chi1/chi2| <= 1, so no finite rate overflows.

    Fields that only exist for |chi2| > |chi1| (``theta_rate``, ``t_pi``,
    ``n_mean``) are ``None`` when undefined, never NaN.  ``r`` is ``None``
    only when chi1 = chi2 = 0 and ``math.inf`` when chi1 = 0 but chi2 != 0.
    """

    chi1: complex                      # pair-creation rate (mode 1 <-> motion), rad/s
    chi2: complex                      # exchange rate (mode 2 <-> motion), rad/s
    theta_rate: Optional[float] = field(init=False)   # sqrt(|chi2|^2 - |chi1|^2), rad/s
    r: Optional[float] = field(init=False)            # |chi2 / chi1|
    beta: Optional[float] = field(init=False)         # arg(chi1) + arg(chi2), rad
    t_pi: Optional[float] = field(init=False)         # pi / theta_rate, s
    n_mean: Optional[float] = field(init=False)       # 4 r^2 / (1 - r^2)^2 = sinh^2 s

    def __post_init__(self):
        chi1 = complex(self.chi1)
        chi2 = complex(self.chi2)
        try:
            a1, a2 = abs(chi1), abs(chi2)
        except OverflowError:       # finite parts whose magnitude exceeds a double
            a1 = a2 = math.inf
        if not (a1 < math.inf and a2 < math.inf):
            raise ParameterError("chi1 and chi2 must be finite, in magnitude too, "
                                 f"got {chi1!r}, {chi2!r}")
        theta = r = beta = t_pi = n_mean = None
        if chi1 or chi2:
            r = a2 / a1 if chi1 else math.inf
            beta = cmath.phase(chi1) + cmath.phase(chi2) if chi1 else None
            if r > 1.0:
                x = a1 / a2                 # 1 - x as (a2 - a1)/a2: no cancellation
                one_minus_x_sq = (a2 - a1) / a2 * (1.0 + x)
                theta = a2 * math.sqrt(one_minus_x_sq)
                t_pi = math.pi / theta
                n_mean = (2.0 * x / one_minus_x_sq) ** 2     # sinh^2 s, sinh s = 2r/(r^2 - 1)
        for name, value in (("chi1", chi1), ("chi2", chi2), ("theta_rate", theta), ("r", r),
                            ("beta", beta), ("t_pi", t_pi), ("n_mean", n_mean)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_chis(cls, chi1: complex, chi2: complex) -> "Couplings":
        """The record of the two rates; the same as ``Couplings(chi1, chi2)``."""
        return cls(chi1, chi2)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def coupling_constants(params: PhysicalParams) -> Couplings:
    """Evaluate chi1 and chi2 for a parameter set.

    The two rates differ through the Raman denominators delta -+ nu; their
    asymmetry (r = |chi2/chi1| > 1 for delta < 0 in the default geometry) is
    what drives the entangling dynamics.
    """
    eta = params.lamb_dicke
    d1 = params.delta - params.nu + 0.5j * params.gamma
    d2 = params.delta + params.nu + 0.5j * params.gamma
    d0 = params.delta + 0.5j * params.gamma
    if d1 == 0 or d2 == 0 or d0 == 0:
        raise ParameterError(
            "Raman denominator is exactly zero (delta -+ nu = 0 with gamma = 0)"
        )
    laser = math.cos(params.theta_l)
    cav = math.cos(params.theta_c)
    pref1 = eta * params.g1.conjugate() * params.omega_rabi
    pref2 = eta * params.g2.conjugate() * params.omega_rabi
    chi1 = pref1 * (laser / d1 - params.alpha1 * cav / d0)
    chi2 = pref2 * (laser / d2 - params.alpha2 * cav / d0)
    return Couplings.from_chis(chi1, chi2)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _number(raw: str, kind=float, inf_ok: bool = False):
    """The finiteness rule: NaN and +-inf are refused; ``inf_ok`` admits +inf."""
    value = kind(raw)
    if not (cmath.isfinite(value) or (inf_ok and value == math.inf)):
        raise ValueError("the value must be finite" + (", or inf" if inf_ok else ""))
    return value


def _numbers(kind):
    return lambda raw: tuple(_number(x, kind) for x in raw.split(","))


class ConfigKey(NamedTuple):
    """How one config key is parsed and where its value goes."""

    parse: Callable               # raw text -> value; ValueError if bad or not finite
    field: Optional[str] = None   # PhysicalParams field; None: a run-level setting
    scale: float = 1.0            # 2 pi for the *_hz keys, entered as linear Hz
    required: bool = False
    default: Any = None           # a run-level setting's value when the file omits it


# Defaults of the run-level keys ``kappa_dt`` and ``fig3_r_list``, shared by
# the protocols and the CLI: the detection bin kappa*dt and the coupling
# ratios r of the standard Fig. 3 sweep.
DEFAULT_KAPPA_DT = 0.1
DEFAULT_R_LIST = (1.8, 1.5, 1.3, 1.1, 1.05)

# The config schema.  Run-level settings keep their key as their name, and
# their default is here; a physical key's default is its PhysicalParams field's.
CONFIG_KEYS = {
    "nu_hz": ConfigKey(_number, "nu", TWO_PI, True),
    "gamma_hz": ConfigKey(_number, "gamma", TWO_PI, True),
    "delta_hz": ConfigKey(_number, "delta", TWO_PI, True),
    "omega_rabi_hz": ConfigKey(_number, "omega_rabi", TWO_PI, True),
    "kappa_hz": ConfigKey(_number, "kappa", TWO_PI, True),
    "g1_hz": ConfigKey(partial(_number, kind=complex), "g1", TWO_PI, True),
    "g2_hz": ConfigKey(partial(_number, kind=complex), "g2", TWO_PI, True),
    "mass": ConfigKey(_number, "mass", required=True),
    "wavenumber": ConfigKey(_number, "wavenumber", required=True),
    "alpha1": ConfigKey(_number, "alpha1"),
    "alpha2": ConfigKey(_number, "alpha2"),
    "theta_l": ConfigKey(_number, "theta_l"),
    "theta_c": ConfigKey(_number, "theta_c"),
    "nbar_motion": ConfigKey(_number, "nbar_motion"),
    "ratio": ConfigKey(_number, default=10.0),
    "soft_ratio": ConfigKey(_number, default=2.0),
    "kappa_dt": ConfigKey(_number, default=DEFAULT_KAPPA_DT),
    "theta1": ConfigKey(_number, default=0.0),
    "theta2": ConfigKey(_number, default=0.0),
    "t_max": ConfigKey(_number, default=8.0),
    "t_step": ConfigKey(_number, default=0.02),
    "fig3_r_list": ConfigKey(_numbers(float), default=DEFAULT_R_LIST),
    "oracle_r": ConfigKey(_number, default=3.0),
    "oracle_dims": ConfigKey(_numbers(int)),
    "seq_t1": ConfigKey(_number),
    "seq_kappa_t12": ConfigKey(partial(_number, inf_ok=True), default=10.0),
    "seq_swap_area": ConfigKey(_number, default=math.pi / 2),
}


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value config format.

    One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
    ignored.  Returns ``{key: (raw_value_string, line_number)}``.  Duplicate
    keys and malformed lines raise :class:`ConfigError` with the line number.
    """
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        entries[key] = (value, lineno)
    return entries


def load_config(path) -> dict:
    """Read and parse a UTF-8 config file, with or without a byte-order mark.

    A byte that is not UTF-8 raises :class:`ConfigError` with its line.  See
    :func:`parse_config_text`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:   # exc.object is the file after any byte-order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"not UTF-8: byte {exc.object[exc.start]:#04x} ({exc.reason})",
                          line=line) from None
    return parse_config_text(text)


def params_from_config(entries: dict):
    """Parse config entries through :data:`CONFIG_KEYS`.

    Returns ``(params, run_settings)``: the PhysicalParams built from the
    physical keys, or ``None`` when the entries name none of them, and a dict
    of the run-level settings by key.  Unknown keys and unparseable or
    non-finite values raise :class:`ConfigError` with the line number.
    """
    kwargs = {}
    settings = {}
    for key, (raw, lineno) in entries.items():
        spec = CONFIG_KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        try:
            value = spec.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot use {raw!r} ({exc})",
                              line=lineno) from exc
        if spec.field is None:
            settings[key] = value
        else:
            kwargs[spec.field] = value * spec.scale
    if not kwargs:
        return None, settings
    missing = [key for key, spec in CONFIG_KEYS.items()
               if spec.required and key not in entries]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(sorted(missing))}")
    try:
        return PhysicalParams(**kwargs), settings
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# operating-regime report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeConstraint:
    """One inequality of the operating regime, evaluated as left >= ratio*right."""

    name: str
    left: Optional[float]
    right: Optional[float]
    required_ratio: float

    @property
    def passed(self) -> bool:
        """left >= required_ratio * right; a row with an undefined side fails."""
        return (self.left is not None and self.right is not None
                and self.left >= self.required_ratio * self.right)

    @property
    def margin(self) -> Optional[float]:
        """How many times the left side exceeds the right (None if undefined)."""
        if self.left is None or self.right is None or self.right == 0.0:
            return None
        return self.left / self.right


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of all validity inequalities for one parameter set.

    ``constraints`` are the hard inequalities; the overall verdict is a pass
    if and only if every one of them passes.  ``soft`` holds the
    kappa * T_pi check, reported separately because realistic parameter sets
    satisfy it only with a modest margin.
    """

    constraints: tuple
    soft: tuple
    ratio: float
    soft_ratio: float

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.constraints)

    def as_text(self) -> str:
        lines = []
        width = max(len(c.name) for c in self.constraints + self.soft)
        header = f"{'constraint':<{width}}  {'left':>13}  {'right':>13}  {'margin':>10}  result"
        lines.append(header)
        lines.append("-" * len(header))
        for c in self.constraints + self.soft:
            left = "undefined" if c.left is None else f"{c.left:.6e}"
            right = "undefined" if c.right is None else f"{c.right:.6e}"
            margin = "-" if c.margin is None else f"{c.margin:.3f}"
            result = "pass" if c.passed else "FAIL"
            soft_tag = " (soft)" if c in self.soft else ""
            lines.append(f"{c.name:<{width}}  {left:>13}  {right:>13}  {margin:>10}  {result}{soft_tag}")
        lines.append(f"threshold for '>>': factor {self.ratio:g} "
                     f"(soft checks: factor {self.soft_ratio:g})")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def validate_regime(params: PhysicalParams, couplings: Optional[Couplings] = None,
                    much_greater_ratio: float = CONFIG_KEYS["ratio"].default,
                    soft_ratio: float = CONFIG_KEYS["soft_ratio"].default) -> RegimeReport:
    """Check every inequality required for the pulsed-entanglement description.

    Each hard constraint is evaluated as ``left >= much_greater_ratio * right``.
    Failures are report entries, never exceptions.  kappa * T_pi <= 1/soft_ratio
    is reported separately as a soft check, by the same rule with left = 1.
    """
    if not much_greater_ratio > 1.0:
        raise ParameterError("much_greater_ratio must exceed 1")
    if not soft_ratio > 0.0:
        raise ParameterError(f"soft_ratio must be positive, got {soft_ratio!r}")
    if couplings is None:
        couplings = coupling_constants(params)
    eta = params.lamb_dicke
    theta = couplings.theta_rate
    t_pi = couplings.t_pi

    abs_delta = abs(params.delta)
    # x * x, unlike x ** 2, gives inf rather than OverflowError: a FAIL row.
    # A delta^2 of 0 (delta = 0, or its square underflows) gives the rates'
    # limit inf, also a FAIL row.
    delta_sq = params.delta * params.delta
    scatter1 = scatter2 = recoil_heating = math.inf
    if delta_sq:
        scatter1 = params.gamma * (abs(params.g1) * abs(params.g1)) / delta_sq
        scatter2 = params.gamma * (abs(params.g2) * abs(params.g2)) / delta_sq
        recoil_heating = (eta * eta * params.gamma * (params.omega_rabi * params.omega_rabi)
                          / delta_sq)

    hard = (
        ("|delta| >> nu", abs_delta, params.nu),
        ("|delta| >> gamma", abs_delta, params.gamma),
        ("nu >> theta", params.nu, theta),
        ("theta >> kappa", theta, params.kappa),
        ("kappa >> gamma*|g1|^2/delta^2", params.kappa, scatter1),
        ("kappa >> gamma*|g2|^2/delta^2", params.kappa, scatter2),
        ("theta >> eta^2*gamma*omega^2/delta^2", theta, recoil_heating),
        ("nu*T >> 1", None if t_pi is None else params.nu * t_pi, 1.0),
        ("1 >> eta", 1.0, eta),
    )
    kappa_tpi = None if t_pi is None else params.kappa * t_pi
    soft = RegimeConstraint("kappa*t_pi <= 1/soft_ratio", 1.0, kappa_tpi, soft_ratio)
    return RegimeReport(
        constraints=tuple(RegimeConstraint(name, left, right, much_greater_ratio)
                          for name, left, right in hard),
        soft=(soft,), ratio=much_greater_ratio, soft_ratio=soft_ratio)
