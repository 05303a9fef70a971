"""Entangled light pulses from a single laser-driven trapped ion in a cavity.

The package is organized around four layers:

* :mod:`ionlight.params` - physical parameters, the Raman coupling rates
  chi1/chi2 and everything derived from them, and the operating-regime checks.
* :mod:`ionlight.gaussian` - multimode Gaussian states (mean vector +
  covariance matrix, vacuum variance 1) with exact linear evolution, the
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

from .errors import (ConfigError, InfiniteSqueezingError, IonlightError,
                     ParameterError, StateError, TruncationError,
                     UndefinedPeriodError, UnphysicalStateError)
from .params import (HBAR, Couplings, PhysicalParams, RegimeConstraint,
                     RegimeReport, coupling_constants, lamb_dicke, load_config,
                     params_from_config, parse_config_text, validate_regime)
from .gaussian import (GaussianState, LinearDynamics, apply_symplectic,
                       bogoliubov_tpi, decorrelation_norm,
                       dynamics_from_couplings, epr_variance, evolve,
                       log_negativity, mean_photons, quadratic_dynamics,
                       symplectic_eigenvalues, symplectic_form, tensor,
                       term_propagator, thermal, tmss, vacuum)
from .fock_oracle import (Crosscheck, FockObservables, FockState, crosscheck,
                          evolve_exact, hamiltonian_matrix, leakage,
                          observables, suggest_dims, vacuum_state)
from .protocol import (HomodyneSettings, SequentialResult, SignalTrace,
                       SimultaneousResult, beam_splitter_signal,
                       default_time_grid, fig3_sweep, output_signal,
                       quadrature_moments, run_sequential, run_simultaneous)

__all__ = [name for name in dir() if not name.startswith("_")]
