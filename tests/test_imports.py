"""What each entry point imports, and the lazy package namespace.

``import ionlight`` resolves its public names on first use, and each CLI
subcommand imports only the layers it runs: ``validate`` and ``couplings``
need no numpy, and no entry point loads scipy, which the tests alone use,
as a reference.  Module loading is checked in fresh interpreters, never by timing.
"""

import argparse
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ionlight
from ionlight.cli import bundled_config_path
from test_pinned_outputs import CASES, PINNED, case_argv

SRC = str(Path(ionlight.__file__).resolve().parents[1])
INDIUM = str(bundled_config_path())
NUMERIC = ("numpy", "scipy")


def fresh_run(code: str) -> dict:
    """Run ``code`` in a new interpreter on this checkout's sources.

    ``code`` may set ``result``; returns it with the NUMERIC packages that
    were loaded by the end.  Anything the code prints is discarded.
    """
    script = "\n".join([
        "import contextlib, io, json, sys",
        "result = None",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        *("    " + line for line in code.splitlines()),
        f"loaded = [name for name in {NUMERIC!r} if name in sys.modules]",
        "print(json.dumps({'result': result, 'loaded': loaded}))",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(*argv) -> dict:
    return fresh_run(f"from ionlight import cli\nresult = cli.main({list(argv)!r})")


class TestImportGraph:
    @pytest.mark.parametrize("code", ["import ionlight", "import ionlight.cli",
                                      "from ionlight import coupling_constants, validate_regime"])
    def test_import_loads_no_numpy(self, code):
        assert fresh_run(code)["loaded"] == []

    @pytest.mark.parametrize("command", ["validate", "couplings"])
    def test_parameter_commands_load_no_numpy(self, command):
        assert cli_run(command, "--config", INDIUM) == {"result": 0, "loaded": []}

    def test_usage_error_loads_no_numpy(self):
        assert cli_run("simulate") == {"result": 1, "loaded": []}
        assert cli_run("no-such-command") == {"result": 1, "loaded": []}

    def test_config_error_loads_no_numpy(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(bundled_config_path().read_text() + "no_such_key = 1\n")
        assert cli_run("simulate", "--config", str(bad)) == {"result": 1, "loaded": []}

    @pytest.mark.parametrize("command", ["simulate", "sequential", "fig3"])
    def test_protocol_commands_load_no_scipy(self, command, tmp_path):
        out_dir = ["--out", str(tmp_path)] if command == "fig3" else []
        out = cli_run(command, "--config", INDIUM, *out_dir)
        assert out == {"result": 0, "loaded": ["numpy"]}

    def test_oracle_check_loads_numpy_only(self):
        # the sector blocks are numpy stencils, not scipy.sparse matrices
        assert cli_run("oracle-check") == {"result": 0, "loaded": ["numpy"]}

    def test_fock_oracle_import_loads_numpy_only(self):
        assert fresh_run("import ionlight.fock_oracle") == {"result": None, "loaded": ["numpy"]}

    def test_oracle_check_loads_no_csgraph(self):
        # the oracle's sectors come from index arithmetic, not a graph search
        out = fresh_run("\n".join([
            "import sys",
            "from ionlight import cli",
            "result = [cli.main(['oracle-check']), 'scipy.sparse.csgraph' in sys.modules]",
        ]))
        assert out["result"] == [0, False]

    def test_oracle_check_loads_no_scipy_linalg(self):
        # the oracle propagates by a Chebyshev series on its stencil blocks
        out = fresh_run("\n".join([
            "import sys",
            "from ionlight import cli",
            "result = [cli.main(['oracle-check']),",
            "          [name for name in ('scipy.linalg', 'scipy.sparse.linalg') if name in sys.modules]]",
        ]))
        assert out["result"] == [0, []]

    def test_gaussian_evolve_loads_no_scipy(self):
        out = fresh_run("\n".join([
            "import ionlight.gaussian as g",
            "dynamics = g.dynamics_from_couplings(1.0, 1.5, 0.1)",
            "state = g.evolve(g.vacuum(3, ('cav1', 'cav2', 'motion')), dynamics, 2.0)",
            "result = g.mean_photons(state, 'cav1') > 0.0",
        ]))
        assert out == {"result": True, "loaded": ["numpy"]}


ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def entry_env(**extra) -> dict:
    """This checkout's sources on the path, and no BLAS thread count but ``extra``'s."""
    env = {key: value for key, value in os.environ.items() if key != BLAS_THREADS}
    return dict(env, PYTHONPATH=SRC, **extra)


def blas_setting_after(code: str, **extra) -> dict:
    """Run ``code`` and then ``import numpy`` in a new interpreter.

    Returns the BLAS thread variable after each step, and the number of
    threads the process runs once numpy has loaded (None off Linux).
    """
    script = "\n".join([
        "import contextlib, io, json, os, sys",
        f"seen = [os.environ.get({BLAS_THREADS!r})]",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        *(f"    {line}\n    seen.append(os.environ.get({BLAS_THREADS!r}))"
          for line in code.splitlines()),
        "import numpy",
        "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None",
        "print(json.dumps({'seen': seen, 'tasks': tasks}))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env=entry_env(**extra),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestProcessEntry:
    """``python -m ionlight`` and the installed script run numpy's OpenBLAS on one thread.

    Only the process entry sets it: the library's imports and an in-process
    ``cli.main`` leave the environment as they found it.
    """

    def test_entry_runs_blas_on_one_thread(self):
        out = blas_setting_after("import ionlight.__main__")
        assert out["seen"] == [None, "1"]
        if out["tasks"] is not None:
            assert out["tasks"] == 1

    def test_the_callers_setting_wins(self):
        out = blas_setting_after("import ionlight.__main__", **{BLAS_THREADS: "2"})
        assert out["seen"] == ["2", "2"]

    def test_library_and_in_process_cli_leave_the_setting_alone(self):
        out = blas_setting_after("\n".join([
            "import ionlight",
            "import ionlight.cli",
            f"ionlight.cli.main(['simulate', '--config', {INDIUM!r}])"]))
        assert out["seen"] == [None, None, None, None]

    def test_installed_script_is_the_process_entry(self):
        import tomllib
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        assert project["project"]["scripts"] == {"ionlight": "ionlight.__main__:main"}

    @pytest.mark.parametrize("case", CASES)
    def test_entry_gives_the_pinned_outputs(self, tmp_path, case):
        proc = subprocess.run([sys.executable, "-m", "ionlight", *case_argv(case, tmp_path)],
                              env=entry_env(), capture_output=True, text=True, timeout=120)
        want = json.loads(PINNED.read_text(encoding="utf-8"))[case]
        assert (proc.returncode, proc.stdout) == (want["exit_code"], want["stdout"])


def _load_perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Signatures of the functions the benchmark's tracer wraps, by span name.
TRACED_SIGNATURES = {
    "params.load_config": "(path) -> 'dict'",
    "params.params_from_config": "(entries: 'dict')",
    "params.coupling_constants": "(params: 'PhysicalParams') -> 'Couplings'",
    "params.validate_regime": (
        "(params: 'PhysicalParams', couplings: 'Optional[Couplings]' = None, "
        "much_greater_ratio: 'float' = 10.0, soft_ratio: 'float' = 2.0) -> 'RegimeReport'"),
    "gaussian.evolve": (
        "(state: 'GaussianState', dynamics: 'LinearDynamics', t: 'float') -> 'GaussianState'"),
    "gaussian.log_negativity": "(state: 'GaussianState', partition: 'Sequence') -> 'float'",
    "gaussian.symplectic_eigenvalues": "(cov: 'np.ndarray') -> 'np.ndarray'",
    "gaussian.bogoliubov_tpi": "(couplings: 'Couplings') -> 'np.ndarray'",
    "protocol.run_simultaneous": (
        "(params: 'PhysicalParams', force: 'bool' = False, ratio: 'float' = 10.0) "
        "-> 'SimultaneousResult'"),
    "protocol.run_sequential": (
        "(params: 'PhysicalParams', t1: 'float', kappa_t12: 'float' = inf, "
        "swap_area: 'float' = 1.5707963267948966) -> 'SequentialResult'"),
    "protocol.output_signal": (
        "(couplings: 'Couplings', kappa: 'float', settings: 'HomodyneSettings') -> 'SignalTrace'"),
    "protocol.beam_splitter_signal": (
        "(couplings: 'Couplings', settings: 'HomodyneSettings') -> 'np.ndarray'"),
    "protocol.fig3_sweep": (
        "(r_list: 'Optional[Iterable[float]]' = None, kappa_dt: 'float' = 0.1, "
        "t_grid: 'Optional[np.ndarray]' = None, theta1: 'float' = 0.0, "
        "theta2: 'float' = 0.0) -> 'list'"),
    "protocol.SignalTrace.to_csv": "(self) -> 'str'",
    "fock_oracle.suggest_dims": "(r: 'float', leak_target: 'float' = 1e-12) -> 'tuple'",
    "fock_oracle.hamiltonian_matrix": "(chi1: 'complex', chi2: 'complex', dims) -> 'SectorHamiltonian'",
    "fock_oracle.evolve_exact": (
        "(state: 'FockState', hamiltonian: 'SectorHamiltonian', t: 'float', "
        "leak_tol: 'float' = 1e-09) -> 'FockState'"),
    "fock_oracle.observables": "(state: 'FockState') -> 'FockObservables'",
    "cli.main": "(argv=None) -> 'int'",
}

# What a user can set: the config keys, the physical parameters, the flags of
# each subcommand and the error types a caller may catch.  A new knob shows up
# here as a test edit.
SETTABLE_SURFACE = {
    "config_keys": {
        "nu_hz", "gamma_hz", "delta_hz", "omega_rabi_hz", "kappa_hz", "g1_hz", "g2_hz",
        "mass", "wavenumber", "alpha1", "alpha2", "theta_l", "theta_c", "nbar_motion",
        "ratio", "soft_ratio", "kappa_dt", "theta1", "theta2", "t_max", "t_step",
        "fig3_r_list", "oracle_r", "oracle_dims", "seq_t1", "seq_kappa_t12",
        "seq_swap_area"},
    "physical_params": {
        "nu", "gamma", "delta", "omega_rabi", "kappa", "g1", "g2", "alpha1", "alpha2",
        "theta_l", "theta_c", "mass", "wavenumber", "nbar_motion"},
    "flags": {
        "validate": {"--config"}, "couplings": {"--config"}, "simulate": {"--config", "--force"},
        "fig3": {"--config", "--out"}, "sequential": {"--config"},
        "oracle-check": {"--config"}},
    "errors": {
        "ConfigError", "IonlightError", "ParameterError", "RegimeError", "StateError",
        "TruncationError", "UndefinedPeriodError", "UnphysicalStateError"},
}


class TestLazyNamespace:
    def test_names_resolve_to_their_home_module(self):
        for name, home in ionlight._HOME.items():
            module = importlib.import_module(f"ionlight.{home}")
            expected = module if name == home else getattr(module, name)
            assert getattr(ionlight, name) is expected, name
        assert ionlight.__all__ == sorted(ionlight._HOME)

    def test_dir_lists_every_public_name(self):
        assert set(ionlight.__all__) <= set(dir(ionlight))
        assert "__version__" in dir(ionlight)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ionlight.no_such_name
        assert not hasattr(ionlight, "_private")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from ionlight import *", namespace)
        for name in ionlight.__all__:
            assert namespace[name] is getattr(ionlight, name), name

    def test_defaults_have_one_home(self):
        from ionlight import params, protocol
        assert protocol.DEFAULT_R_LIST is params.DEFAULT_R_LIST
        assert protocol.DEFAULT_KAPPA_DT is params.DEFAULT_KAPPA_DT
        assert params.CONFIG_KEYS["fig3_r_list"].default is params.DEFAULT_R_LIST
        assert params.CONFIG_KEYS["kappa_dt"].default == params.DEFAULT_KAPPA_DT
        for function, argument, key in (
                (params.validate_regime, "much_greater_ratio", "ratio"),
                (params.validate_regime, "soft_ratio", "soft_ratio"),
                (protocol.run_simultaneous, "ratio", "ratio"),
                (protocol.default_time_grid, "t_max", "t_max"),
                (protocol.default_time_grid, "step", "t_step"),
                (protocol.run_sequential, "swap_area", "seq_swap_area")):
            default = inspect.signature(function).parameters[argument].default
            assert default is params.CONFIG_KEYS[key].default, (function.__name__, argument)

    def test_settable_surface_is_pinned(self):
        from dataclasses import fields

        from ionlight import cli, params
        (subcommands,) = [action.choices for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)]
        assert {
            "config_keys": set(params.CONFIG_KEYS),
            "physical_params": {f.name for f in fields(params.PhysicalParams)},
            "flags": {name: {flag for action in parser._actions
                             for flag in action.option_strings} - {"-h", "--help"}
                      for name, parser in subcommands.items()},
            "errors": set(ionlight._EXPORTS["errors"]),
        } == SETTABLE_SURFACE

    def test_traced_functions_keep_modules_and_signatures(self):
        traced = _load_perfbench_tracing().TRACED
        assert {span for span, _, _ in traced} == set(TRACED_SIGNATURES)
        for span, module_name, attr in traced:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert owner.__module__ == module_name, span
            assert str(inspect.signature(owner)) == TRACED_SIGNATURES[span], span
            if "." not in attr and attr in ionlight.__all__:
                assert getattr(ionlight, attr) is owner, span
