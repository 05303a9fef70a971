"""Command-line front end.

Exit codes: 0 on success, 2 for a failed physics check (``validate``'s FAIL
report, the regime gate of ``simulate`` without ``--force``, or an
``oracle-check`` mismatch), 1 for every other refusal.  Only :func:`main`
catches: it turns each error into one stderr line and its exit code.  Data
written to stdout and to output files is deterministic; the version line goes
to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import ConfigError, IonlightError, ParameterError, RegimeError
from .params import (CONFIG_KEYS, coupling_constants, load_config, params_from_config,
                     validate_regime)

# Only the parameter layer is imported here: ``validate`` and ``couplings``
# run without numpy.  The commands that need the protocols or the oracle
# import them when they run.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2

ORACLE_TOL = 1e-6


def bundled_config_path(name: str = "indium") -> Path:
    """Path of a configuration file shipped with the package."""
    return Path(resources.files("ionlight").joinpath(f"data/{name}.cfg"))


def read_run_config(path=None) -> SimpleNamespace:
    """The physical parameters and every run-level setting for one invocation.

    ``params`` is None without a file or when the file names no physical key.
    Each run-level key of ``params.CONFIG_KEYS`` is an attribute: the file's
    value, or the table's default.
    """
    settings = {key: spec.default for key, spec in CONFIG_KEYS.items() if spec.field is None}
    params = None
    if path is not None:
        params, found = params_from_config(load_config(path))
        settings.update(found)
    return SimpleNamespace(params=params, **settings)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, complex):
        return f"{abs(value):.6e} * exp({math.atan2(value.imag, value.real):+.6f}j)"
    return f"{value:.6e}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: SimpleNamespace, args) -> int:
    couplings = coupling_constants(cfg.params)
    report = validate_regime(cfg.params, couplings, much_greater_ratio=cfg.ratio,
                             soft_ratio=cfg.soft_ratio)
    print(report.as_text())
    print(f"t_pi = {_fmt(couplings.t_pi)} s")
    return EXIT_OK if report.overall_pass else EXIT_PHYSICS


def cmd_couplings(cfg: SimpleNamespace, args) -> int:
    c = coupling_constants(cfg.params)
    print(f"eta        = {_fmt(cfg.params.lamb_dicke)}")
    print(f"chi1       = {_fmt(c.chi1)} rad/s  (|chi1|/2pi = {_fmt(abs(c.chi1) / (2 * math.pi))} Hz)")
    print(f"chi2       = {_fmt(c.chi2)} rad/s  (|chi2|/2pi = {_fmt(abs(c.chi2) / (2 * math.pi))} Hz)")
    print(f"r          = {_fmt(c.r)}")
    print(f"beta       = {_fmt(c.beta)} rad")
    print(f"theta_rate = {_fmt(c.theta_rate)} rad/s")
    print(f"t_pi       = {_fmt(c.t_pi)} s")
    print(f"n_mean     = {_fmt(c.n_mean)}")
    return EXIT_OK


def cmd_simulate(cfg: SimpleNamespace, args) -> int:
    from . import protocol
    result = protocol.run_simultaneous(cfg.params, force=args.force, ratio=cfg.ratio)
    c, d = result.couplings, result.diagnostics
    print(f"t_pi                 = {_fmt(c.t_pi)} s")
    print(f"r                    = {_fmt(c.r)}")
    print(f"beta                 = {_fmt(c.beta)} rad")
    print(f"n_mean (formula)     = {_fmt(c.n_mean)}")
    print(f"photons per mode     = {_fmt(d['n_cav1'])} (cav1), {_fmt(d['n_cav2'])} (cav2)")
    print(f"log negativity       = {_fmt(d['log_negativity'])}")
    print(f"EPR var (X1-X2)      = {_fmt(d['epr_x'])}")
    print(f"EPR var (P1+P2)      = {_fmt(d['epr_p'])}")
    print(f"motion decorrelation = {_fmt(d['motion_decorrelation'])}")
    return EXIT_OK


def cmd_fig3(cfg: SimpleNamespace, args) -> int:
    from . import protocol
    out_dir = Path(args.out)
    traces = protocol.fig3_sweep(cfg.fig3_r_list, kappa_dt=cfg.kappa_dt,
                                 t_grid=protocol.default_time_grid(cfg.t_max, cfg.t_step),
                                 theta1=cfg.theta1, theta2=cfg.theta2)
    paths = [out_dir / f"fig3_r{trace.r:g}.csv" for trace in traces]
    if len(set(paths)) < len(paths):
        raise ParameterError("fig3_r_list values must differ in their first 6 significant "
                             f"digits, which name the files: {', '.join(p.name for p in paths)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for trace, path in zip(traces, paths):
        path.write_text(trace.to_csv(), encoding="utf-8")
        min_c, at = trace.min_c()
        print(f"r={trace.r:g}: wrote {path}  min C = {min_c!r} at kappa*t = {at!r}")
    return EXIT_OK


def cmd_sequential(cfg: SimpleNamespace, args) -> int:
    from . import protocol
    couplings = coupling_constants(cfg.params)
    t1 = cfg.seq_t1
    if t1 is None:   # default pulse area |chi1| t1 = 1
        t1 = 1.0 / abs(couplings.chi1) if couplings.chi1 else math.inf
        if t1 == math.inf:
            raise ParameterError("seq_t1 is not set and its default 1/|chi1| is infinite "
                                 f"(|chi1| = {abs(couplings.chi1)!r})")
    result = protocol.run_sequential(cfg.params, t1=t1, kappa_t12=cfg.seq_kappa_t12,
                                     swap_area=cfg.seq_swap_area)
    print(f"pulse area |chi1|*t1      = {_fmt(abs(couplings.chi1) * t1)}")
    print(f"swap area                 = {_fmt(cfg.seq_swap_area)}")
    print(f"E_N cavity|motion (A)     = {_fmt(result.stage_a_entanglement)}")
    print(f"E_N pulse1|pulse2         = {_fmt(result.final_entanglement)}")
    print(f"E_N pulse1|motion         = {_fmt(result.pulse1_motion_entanglement)}")
    print(f"motion residual norm      = {_fmt(result.motion_residual_norm)}")
    return EXIT_OK


def cmd_oracle_check(cfg: SimpleNamespace, args) -> int:
    from . import fock_oracle
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
    """Every subcommand takes ``--config``; ``simulate`` also ``--force``, ``fig3`` ``--out``."""
    parser = argparse.ArgumentParser(
        prog="ionlight",
        description="Entangled light pulses from a single trapped ion in a cavity.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in COMMANDS}
    for command in commands.values():
        command.add_argument("--config", help="path to a key=value config file")
    commands["simulate"].add_argument("--force", action="store_true",
                                      help="run even if the regime check fails")
    commands["fig3"].add_argument("--out", default=".", help="output directory for the CSV files")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print(f"ionlight {__version__}", file=sys.stderr)
        handler, needs_params = COMMANDS[args.command]
        cfg = read_run_config(args.config)
        if needs_params and cfg.params is None:
            raise IonlightError("this command needs --config with the physical parameters")
        return handler(cfg, args)
    except SystemExit as exc:    # argparse has printed its own message, or the help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (IonlightError, OSError) as exc:
        prefix = ("config error" if isinstance(exc, ConfigError)
                  else "io error" if isinstance(exc, OSError) else "error")
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS if isinstance(exc, RegimeError) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
