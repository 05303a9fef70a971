"""What each entry point imports, the process entry, and the lazy package namespace.

``import ionlight`` resolves its public names on first use, and each CLI
subcommand imports only the layers it runs: ``validate`` and ``couplings``
need no numpy, and no entry point loads scipy, which the tests alone use,
as a reference.  Only the process entry sets numpy's OpenBLAS to one thread.
Three fresh interpreters check this, never by timing: two run a sequence of
steps and report after each what it has loaded, the BLAS thread variable,
the process's thread count, and the step's result and stdout.
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
ROOT = Path(__file__).resolve().parents[1]
INDIUM = str(bundled_config_path())
BLAS_THREADS = "OPENBLAS_NUM_THREADS"
WATCHED = ("numpy", "scipy", "scipy.linalg", "scipy.sparse.csgraph", "scipy.sparse.linalg")

# The child's loop.  ``entry(*argv)`` runs the process entry as ``python -m
# ionlight`` does, or ``module`` as ``python -m module`` does, and returns its
# exit code.
CHILD = f"""
import contextlib, io, json, os, runpy, sys

def entry(*argv, module="ionlight"):
    sys.argv = [module, *argv]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code

reports = {{}}
for name, step in json.loads(sys.argv[1]).items():
    result, out, err = None, io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exec(step)
    reports[name] = {{
        "result": result, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "loaded": [module for module in {WATCHED!r} if module in sys.modules],
        "blas": os.environ.get({BLAS_THREADS!r}),
        "tasks": len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None}}
print(json.dumps(reports))
"""


def entry_env(**extra) -> dict:
    """This checkout's sources on the path, and no BLAS thread count but ``extra``'s."""
    env = {key: value for key, value in os.environ.items() if key != BLAS_THREADS}
    return dict(env, PYTHONPATH=SRC, **extra)


def run_steps(steps: dict) -> dict:
    """{name: report after the step} of ``steps``, {name: Python source}, run in order
    in one new interpreter.  A step may set ``result``; what it prints is its stdout."""
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(steps)], env=entry_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def main_step(*argv) -> str:
    return f"from ionlight import cli\nresult = cli.main({list(argv)!r})"


IMPORTS = ["import ionlight", "import ionlight.cli",
           "from ionlight import coupling_constants, validate_regime"]
PARAMETER_COMMANDS = ["validate", "couplings"]
PROTOCOL_COMMANDS = ["simulate", "sequential", "fig3"]


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    """The library and an in-process ``cli.main``, in this order in one interpreter:
    first what loads no numpy, then what does, last the caller's BLAS setting."""
    tmp = tmp_path_factory.mktemp("library")
    bad = tmp / "bad.cfg"
    bad.write_text(bundled_config_path().read_text() + "no_such_key = 1\n")
    return run_steps({
        **{code: code for code in IMPORTS},
        **{command: main_step(command, "--config", INDIUM) for command in PARAMETER_COMMANDS},
        "no config": main_step("simulate"), "no such command": main_step("no-such-command"),
        "config error": main_step("simulate", "--config", str(bad)),
        **{command: main_step(command, "--config", INDIUM,
                              *(["--out", str(tmp)] if command == "fig3" else []))
           for command in PROTOCOL_COMMANDS},
        "oracle-check": main_step("oracle-check"),
        "fock_oracle": "import ionlight.fock_oracle",
        "evolve": "\n".join([
            "import ionlight.gaussian as g",
            "dynamics = g.dynamics_from_couplings(1.0, 1.5, 0.1)",
            "state = g.evolve(g.vacuum(3, ('cav1', 'cav2', 'motion')), dynamics, 2.0)",
            "result = g.mean_photons(state, 'cav1') > 0.0"]),
        "caller's setting": f"os.environ[{BLAS_THREADS!r}] = '2'",
        "entry import": "import ionlight.__main__",
    })


@pytest.fixture(scope="module")
def entry(tmp_path_factory):
    """Each pinned case through the process entry, in one interpreter, from an unset variable;
    first ``python -m ionlight.cli``, before the entry has imported the module."""
    tmp = tmp_path_factory.mktemp("entry")
    return run_steps({"start": "pass",
                      "ionlight.cli": f"result = entry('simulate', '--config', {INDIUM!r}, "
                                      "module='ionlight.cli')",
                      **{case: f"result = entry(*{case_argv(case, tmp)!r})" for case in CASES}})


def outcome(report):
    return report["result"], report["loaded"]


class TestImportGraph:
    @pytest.mark.parametrize("code", IMPORTS)
    def test_import_loads_no_numpy(self, library, code):
        assert library[code]["loaded"] == []

    @pytest.mark.parametrize("command", PARAMETER_COMMANDS)
    def test_parameter_commands_load_no_numpy(self, library, command):
        assert outcome(library[command]) == (0, [])

    def test_usage_error_loads_no_numpy(self, library):
        assert outcome(library["no config"]) == outcome(library["no such command"]) == (1, [])

    def test_config_error_loads_no_numpy(self, library):
        assert outcome(library["config error"]) == (1, [])

    @pytest.mark.parametrize("command", PROTOCOL_COMMANDS)
    def test_protocol_commands_load_no_scipy(self, library, command):
        assert outcome(library[command]) == (0, ["numpy"])

    def test_oracle_check_loads_numpy_only(self, library):
        # the sector blocks are numpy stencils, not scipy.sparse matrices
        assert outcome(library["oracle-check"]) == (0, ["numpy"])

    def test_fock_oracle_import_loads_numpy_only(self, library):
        assert library["fock_oracle"]["loaded"] == ["numpy"]

    def test_oracle_check_loads_no_csgraph(self, library):
        # the oracle's sectors come from index arithmetic, not a graph search
        assert "scipy.sparse.csgraph" not in library["oracle-check"]["loaded"]

    def test_oracle_check_loads_no_scipy_linalg(self, library):
        # the oracle propagates by a Chebyshev series on its stencil blocks
        assert not {"scipy.linalg", "scipy.sparse.linalg"} & set(library["oracle-check"]["loaded"])

    def test_gaussian_evolve_loads_no_scipy(self, library):
        assert outcome(library["evolve"]) == (True, ["numpy"])


class TestProcessEntry:
    """``python -m ionlight`` and the installed script run numpy's OpenBLAS on one thread.

    Only the process entry sets it: the library's imports and an in-process
    ``cli.main`` leave the environment as they found it.
    """

    def test_entry_runs_blas_on_one_thread(self, entry):
        assert [entry[step]["blas"] for step in ("start", "validate")] == [None, "1"]
        assert entry["simulate"]["loaded"] == ["numpy"]
        if entry["simulate"]["tasks"] is not None:
            assert entry["simulate"]["tasks"] == 1

    def test_the_callers_setting_wins(self, library):
        assert [library[step]["blas"] for step in ("caller's setting", "entry import")] == [
            "2", "2"]

    def test_library_and_in_process_cli_leave_the_setting_alone(self, library):
        assert [library[step]["blas"] for step in (*IMPORTS[:2], "simulate")] == [None] * 3

    def test_installed_script_is_the_process_entry(self, entry):
        import tomllib
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        assert project["project"]["scripts"] == {"ionlight": "ionlight.__main__:main"}
        # python -m ionlight.cli would run numpy's default threads: it refuses, as a usage error
        report = entry["ionlight.cli"]
        assert (report["result"], report["stdout"], report["stderr"], report["loaded"]) == (
            1, "", "error: run python -m ionlight, not python -m ionlight.cli\n", [])

    @pytest.mark.parametrize("case", CASES)
    def test_entry_gives_the_pinned_outputs(self, entry, case):
        want = json.loads(PINNED.read_text(encoding="utf-8"))[case]
        assert (entry[case]["result"], entry[case]["stdout"]) == (want["exit_code"], want["stdout"])

    def test_two_blas_threads_give_the_pinned_digits(self, tmp_path):
        # python -m ionlight itself, where the caller's setting wins: at r = 1.4
        # the oracle sums over more than the 10,000 states past which OpenBLAS
        # would split a dot product across its threads
        case = "oracle-check r=1.4"
        proc = subprocess.run([sys.executable, "-m", "ionlight", *case_argv(case, tmp_path)],
                              env=entry_env(**{BLAS_THREADS: "2"}), capture_output=True,
                              text=True, timeout=120)
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
