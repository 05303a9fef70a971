"""Command-line front end.

Exit codes: 0 on success, 1 for usage/parse/IO problems, 2 for physics-level
failures (a failing regime check, an oracle mismatch, or a blocked protocol
gate).  Data written to stdout and to output files is deterministic; the
version line goes to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from . import __version__, fock_oracle, protocol
from .errors import ConfigError, IonlightError, ParameterError
from .params import (PhysicalParams, coupling_constants, load_config,
                     params_from_config, validate_regime)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2

ORACLE_TOL = 1e-6

@dataclass
class RunConfig:
    """Physical parameters plus run-level settings for one CLI invocation.

    There is one field per run-level key of ``params.CONFIG_KEYS``.
    """

    params: Optional[PhysicalParams]
    ratio: float = 10.0
    soft_ratio: float = 2.0
    kappa_dt: float = protocol.DEFAULT_KAPPA_DT
    theta1: float = 0.0
    theta2: float = 0.0
    t_max: float = 8.0
    t_step: float = 0.02
    fig3_r_list: tuple = protocol.DEFAULT_R_LIST
    oracle_r: float = 3.0
    oracle_dims: Optional[tuple] = None
    seq_t1: Optional[float] = None
    seq_kappa_t12: float = 10.0
    seq_swap_area: float = math.pi / 2

    def settings(self) -> protocol.HomodyneSettings:
        return protocol.HomodyneSettings(
            theta1=self.theta1, theta2=self.theta2, kappa_dt=self.kappa_dt,
            t_grid=protocol.default_time_grid(self.t_max, self.t_step))


def bundled_config_path(name: str = "indium") -> Path:
    """Path of a configuration file shipped with the package."""
    return Path(resources.files("ionlight").joinpath(f"data/{name}.cfg"))


def read_run_config(path) -> RunConfig:
    params, settings = params_from_config(load_config(path))
    return RunConfig(params=params, **settings)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, complex):
        return f"{abs(value):.6e} * exp({math.atan2(value.imag, value.real):+.6f}j)"
    return f"{value:.6e}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig, args) -> int:
    ratio = args.ratio if args.ratio is not None else cfg.ratio
    report = validate_regime(cfg.params, much_greater_ratio=ratio,
                             soft_ratio=cfg.soft_ratio)
    couplings = coupling_constants(cfg.params)
    print(report.as_text())
    print(f"t_pi = {_fmt(couplings.t_pi)} s")
    return EXIT_OK if report.overall_pass else EXIT_PHYSICS


def cmd_couplings(cfg: RunConfig, args) -> int:
    c = coupling_constants(cfg.params)
    print(f"eta        = {_fmt(c.eta)}")
    print(f"chi1       = {_fmt(c.chi1)} rad/s  (|chi1|/2pi = {_fmt(abs(c.chi1) / (2 * math.pi))} Hz)")
    print(f"chi2       = {_fmt(c.chi2)} rad/s  (|chi2|/2pi = {_fmt(abs(c.chi2) / (2 * math.pi))} Hz)")
    print(f"r          = {_fmt(c.r)}")
    print(f"beta       = {_fmt(c.beta)} rad")
    print(f"theta_rate = {_fmt(c.theta_rate)} rad/s")
    print(f"t_pi       = {_fmt(c.t_pi)} s")
    print(f"n_mean     = {_fmt(c.n_mean)}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    ratio = args.ratio if args.ratio is not None else cfg.ratio
    try:
        result = protocol.run_simultaneous(cfg.params, force=args.force, ratio=ratio)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    d = result.diagnostics
    print(f"t_pi                 = {_fmt(d['t_pi'])} s")
    print(f"r                    = {_fmt(d['r'])}")
    print(f"beta                 = {_fmt(d['beta'])} rad")
    print(f"n_mean (formula)     = {_fmt(d['n_mean'])}")
    print(f"photons per mode     = {_fmt(d['n_cav1'])} (cav1), {_fmt(d['n_cav2'])} (cav2)")
    print(f"log negativity       = {_fmt(d['log_negativity'])}")
    print(f"EPR var (X1-X2)      = {_fmt(d['epr_x'])}")
    print(f"EPR var (P1+P2)      = {_fmt(d['epr_p'])}")
    print(f"motion decorrelation = {_fmt(d['motion_decorrelation'])}")
    return EXIT_OK


def cmd_fig3(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out) if args.out else Path(".")
    traces = protocol.fig3_sweep(cfg.fig3_r_list, kappa_dt=cfg.kappa_dt,
                                 t_grid=protocol.default_time_grid(cfg.t_max, cfg.t_step),
                                 theta1=cfg.theta1, theta2=cfg.theta2)
    out_dir.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        path = out_dir / f"fig3_r{trace.r:g}.csv"
        path.write_text(trace.to_csv(), encoding="utf-8")
        min_c, at = trace.min_c()
        print(f"r={trace.r:g}: wrote {path}  min C = {min_c!r} at kappa*t = {at!r}")
    return EXIT_OK


def cmd_sequential(cfg: RunConfig, args) -> int:
    couplings = coupling_constants(cfg.params)
    t1 = cfg.seq_t1
    if t1 is None:
        if abs(couplings.chi1) == 0.0:
            print("error: chi1 = 0 and no seq_t1 given", file=sys.stderr)
            return EXIT_USAGE
        t1 = 1.0 / abs(couplings.chi1)   # default pulse area |chi1| t1 = 1
    result = protocol.run_sequential(cfg.params, t1=t1,
                                     delay_t12=cfg.seq_kappa_t12 / cfg.params.kappa,
                                     swap_area=cfg.seq_swap_area)
    print(f"pulse area |chi1|*t1      = {_fmt(abs(couplings.chi1) * t1)}")
    print(f"swap area                 = {_fmt(result.swap_area)}")
    print(f"E_N cavity|motion (A)     = {_fmt(result.stage_a_entanglement)}")
    print(f"E_N pulse1|pulse2         = {_fmt(result.final_entanglement)}")
    print(f"E_N pulse1|motion         = {_fmt(result.pulse1_motion_entanglement)}")
    print(f"motion residual norm      = {_fmt(result.motion_residual_norm)}")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig, args) -> int:
    check = fock_oracle.crosscheck(cfg.oracle_r, cfg.oracle_dims)
    print(f"r = {cfg.oracle_r:g}, dims = {check.dims}, "
          f"leakage = {check.observables.leakage!r}")
    print(f"{'observable':<16} {'gaussian':>24} {'fock':>24} {'|diff|':>12}")
    worst = 0.0
    for name, g_val, f_val in check.rows:
        diff = abs(g_val - f_val)
        worst = max(worst, diff)
        print(f"{name:<16} {g_val!r:>24} {f_val!r:>24} {diff:>12.3e}")
    if worst > ORACLE_TOL:
        print(f"MISMATCH: worst |diff| {worst:.3e} exceeds {ORACLE_TOL:g}",
              file=sys.stderr)
        return EXIT_PHYSICS
    print(f"agreement within {ORACLE_TOL:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "validate": (cmd_validate, True),
    "couplings": (cmd_couplings, True),
    "simulate": (cmd_simulate, True),
    "fig3": (cmd_fig3, False),
    "sequential": (cmd_sequential, True),
    "oracle-check": (cmd_oracle_check, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionlight",
        description="Entangled light pulses from a single trapped ion in a cavity.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value config file")
    common.add_argument("--out", help="output directory for data files")
    common.add_argument("--ratio", type=float, default=None,
                        help="threshold factor for the '>>' regime checks")
    common.add_argument("--force", action="store_true",
                        help="run protocols even if the regime check fails")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    print(f"ionlight {__version__}", file=sys.stderr)
    handler, needs_params = COMMANDS[args.command]
    try:
        cfg = (RunConfig(params=None) if args.config is None
               else read_run_config(args.config))
        if needs_params and cfg.params is None:
            print("error: this command needs --config with the physical parameters",
                  file=sys.stderr)
            return EXIT_USAGE
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IonlightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
