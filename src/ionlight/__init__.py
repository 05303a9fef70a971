"""Entangled light pulses from a single laser-driven trapped ion in a cavity.

The package is organized around four layers:

* :mod:`ionlight.params` - physical parameters, the Raman coupling rates
  chi1/chi2 and everything derived from them, and the operating-regime checks.
* :mod:`ionlight.gaussian` - centred multimode Gaussian states
  (covariance matrix, vacuum variance 1) with exact linear evolution, the
  closed-form symplectic maps (half-period map, single squeezer or beam
  splitter), the two-mode squeezed target state, and entanglement
  diagnostics.
* :mod:`ionlight.fock_oracle` - an independent brute-force number-basis
  propagator used to verify the Gaussian engine on low-photon instances.
* :mod:`ionlight.protocol` - the simultaneous and sequential pulse protocols
  and the homodyne difference-current signal C(t).

:mod:`ionlight.cli` exposes all of it as the ``ionlight`` command.
"""

__version__ = "0.1.0"

# Public names by home module.  Nothing is imported until a name is first
# used (PEP 562), so ``import ionlight`` and the parameter-only commands
# never load numpy or scipy.
_EXPORTS = {
    "errors": ("ConfigError", "IonlightError", "ParameterError", "RegimeError",
               "StateError", "TruncationError", "UndefinedPeriodError",
               "UnphysicalStateError"),
    "params": ("HBAR", "Couplings", "PhysicalParams", "RegimeConstraint",
               "RegimeReport", "coupling_constants", "load_config",
               "params_from_config", "parse_config_text", "validate_regime"),
    "gaussian": ("GaussianState", "LinearDynamics", "apply_symplectic",
                 "bogoliubov_tpi", "decorrelation_norm", "drift",
                 "dynamics_from_couplings", "epr_variance", "evolve", "log_negativity",
                 "mean_photons", "symplectic_eigenvalues", "tensor",
                 "term_propagator", "thermal", "tmss", "vacuum"),
    "fock_oracle": ("Crosscheck", "FockObservables", "FockState", "crosscheck",
                    "evolve_exact", "hamiltonian_matrix", "leakage", "observables",
                    "suggest_dims", "vacuum_state"),
    "protocol": ("HomodyneSettings", "SequentialResult", "SignalTrace",
                 "SimultaneousResult", "beam_splitter_signal", "default_time_grid",
                 "fig3_sweep", "output_signal", "run_sequential",
                 "run_simultaneous"),
}
# name -> home module; each module is also public under its own name.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
