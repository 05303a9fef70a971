"""Multimode Gaussian states and exact linear (symplectic + lossy) evolution.

Quadrature convention used everywhere in this package:

    X = a + a_dag,  P = -i (a - a_dag),  so  [X, P] = 2i

and the vacuum has <X^2> = <P^2> = 1 (identity covariance).  With this
normalization a rotated quadrature q(theta) = a e^{i theta} + a_dag e^{-i theta}
has unit vacuum variance for every theta, which is the reference ("shot
noise") level of the homodyne signal downstream.  This is a classic source of
factor-of-two bugs against conventions with vacuum variance 1/2; all formulas
in this module are written for variance 1.

A state is ``(mode_labels, mean, cov)``: a real vector of length 2N ordered
(X1, P1, X2, P2, ...) and a real symmetric 2N x 2N matrix of centered,
symmetrized second moments.  Physicality means every symplectic eigenvalue of
cov is >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (InfiniteSqueezingError, StateError, UndefinedPeriodError,
                     UnphysicalStateError)
from .params import Couplings

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form Omega with blocks [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    Computed as the moduli of the eigenvalues of i*Omega*cov, which come in
    +/- pairs; one representative of each pair is returned.
    """
    n = cov.shape[0] // 2
    eig = np.linalg.eigvals(1j * symplectic_form(n) @ cov)
    moduli = np.sort(np.abs(eig))
    return moduli[::2].copy()


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state over labelled bosonic modes.

    Construction validates symmetry of the covariance (to 1e-12) and, by
    default, physicality (symplectic eigenvalues >= 1 - 1e-9).
    """

    mode_labels: tuple
    mean: np.ndarray
    cov: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.mode_labels)
        if len(set(labels)) != len(labels):
            raise StateError(f"duplicate mode labels: {labels!r}")
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        n = len(labels)
        if mean.shape != (2 * n,) or cov.shape != (2 * n, 2 * n):
            raise StateError(
                f"shape mismatch: {n} modes need mean (2N,) and cov (2N, 2N), "
                f"got {mean.shape} and {cov.shape}"
            )
        asym = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise StateError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mode_labels", labels)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if self.validate:
            nu_min = float(np.min(symplectic_eigenvalues(cov)))
            if nu_min < 1.0 - PHYSICALITY_TOL:
                raise UnphysicalStateError(
                    f"covariance violates the uncertainty relation: "
                    f"smallest symplectic eigenvalue {nu_min!r}"
                )
        mean.setflags(write=False)
        cov.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def mode_index(self, label) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise StateError(f"unknown mode label {label!r}; "
                             f"have {self.mode_labels!r}") from None

    def quad_indices(self, labels: Iterable) -> list:
        """Flat quadrature indices (X then P per mode) for the given labels."""
        out = []
        for label in labels:
            k = self.mode_index(label)
            out.extend((2 * k, 2 * k + 1))
        return out

    def reduced(self, labels: Sequence) -> "GaussianState":
        """Reduced state of a subset of modes (partial trace over the rest)."""
        idx = self.quad_indices(labels)
        return GaussianState(tuple(labels), self.mean[idx],
                             self.cov[np.ix_(idx, idx)], validate=False)


def vacuum(n_modes: int, labels: Optional[Sequence] = None) -> GaussianState:
    """Vacuum of ``n_modes`` modes: zero mean, identity covariance."""
    if n_modes < 1:
        raise StateError(f"need at least one mode, got {n_modes!r}")
    if labels is None:
        labels = tuple(f"mode{k}" for k in range(n_modes))
    elif len(labels) != n_modes:
        raise StateError("number of labels must match n_modes")
    return GaussianState(tuple(labels), np.zeros(2 * n_modes),
                         np.eye(2 * n_modes), validate=False)


def thermal(nbar: float, label="motion") -> GaussianState:
    """Single-mode thermal state with mean occupation ``nbar``.

    cov = (2 nbar + 1) * identity; nbar = 0 gives the vacuum.
    """
    if nbar < 0.0:
        raise StateError(f"nbar must be >= 0, got {nbar!r}")
    return GaussianState((label,), np.zeros(2),
                         (2.0 * nbar + 1.0) * np.eye(2), validate=False)


def tensor(*states: GaussianState) -> GaussianState:
    """Product state of independent Gaussian states (labels must not clash)."""
    labels = tuple(l for s in states for l in s.mode_labels)
    mean = np.concatenate([s.mean for s in states])
    n = len(labels)
    cov = np.zeros((2 * n, 2 * n))
    offset = 0
    for s in states:
        d = 2 * s.n_modes
        cov[offset:offset + d, offset:offset + d] = s.cov
        offset += d
    return GaussianState(labels, mean, cov, validate=False)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def mean_photons(state: GaussianState, mode) -> float:
    """Mean photon number of one mode: (<X^2> + <P^2> + <X>^2 + <P>^2 - 2)/4."""
    k = state.mode_index(mode)
    ix, ip = 2 * k, 2 * k + 1
    return float(state.cov[ix, ix] + state.cov[ip, ip]
                 + state.mean[ix] ** 2 + state.mean[ip] ** 2 - 2.0) / 4.0


def epr_variance(state: GaussianState, mode_i, mode_j,
                 theta_i: float = 0.0, theta_j: float = 0.0) -> float:
    """Variance of q_i(theta_i) - q_j(theta_j), q(theta) = X cos(theta) - P sin(theta).

    With theta = (0, 0) this is Var(X_i - X_j); with (pi/2, -pi/2) it is
    Var(P_i + P_j).  Two independent vacua give 2 (the shot-noise reference),
    so values below 2 witness EPR-type correlations.
    """
    if mode_i == mode_j:
        raise StateError("epr_variance needs two distinct modes")
    ki = state.mode_index(mode_i)
    kj = state.mode_index(mode_j)
    w = np.zeros(2 * state.n_modes)
    w[2 * ki] = math.cos(theta_i)
    w[2 * ki + 1] = -math.sin(theta_i)
    w[2 * kj] = -math.cos(theta_j)
    w[2 * kj + 1] = math.sin(theta_j)
    return float(w @ state.cov @ w)


def log_negativity(state: GaussianState, partition: Sequence) -> float:
    """Logarithmic negativity across the bipartition (partition | rest).

    E_N = sum of -ln(nu) over symplectic eigenvalues nu < 1 of the partially
    transposed covariance matrix.  Zero for every separable Gaussian state.
    """
    part = tuple(partition)
    if not part:
        raise StateError("partition must name at least one mode")
    rest = [l for l in state.mode_labels if l not in part]
    if not rest:
        raise StateError("partition must be a strict subset of the modes")
    nu_min = float(np.min(symplectic_eigenvalues(state.cov)))
    if nu_min < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"smallest symplectic eigenvalue {nu_min!r} is below 1"
        )
    # Partial transposition flips the sign of P on the transposed modes.
    flip = np.ones(2 * state.n_modes)
    for label in part:
        flip[2 * state.mode_index(label) + 1] = -1.0
    cov_pt = state.cov * np.outer(flip, flip)
    nu = symplectic_eigenvalues(cov_pt)
    # eigenvalues within round-off of 1 carry no negativity; without the
    # cutoff every separable state would report ~1e-16 instead of 0
    return float(np.sum([-math.log(v) for v in nu if v < 1.0 - 1e-12]))


def decorrelation_norm(state: GaussianState, block_a: Sequence, block_b: Sequence) -> float:
    """Frobenius norm of the cross-covariance block between two mode sets.

    Zero if and only if the two blocks are uncorrelated at the level of
    second moments (for Gaussian states: fully decorrelated).
    """
    a = tuple(block_a)
    b = tuple(block_b)
    if set(a) & set(b):
        raise StateError(f"mode sets overlap: {set(a) & set(b)!r}")
    ia = state.quad_indices(a)
    ib = state.quad_indices(b)
    return float(np.linalg.norm(state.cov[np.ix_(ia, ib)]))


# ---------------------------------------------------------------------------
# linear dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearDynamics:
    """Drift A and diffusion D of d<R>/dt = A<R>, dcov/dt = A cov + cov A^T + D."""

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        drift = np.asarray(self.drift, dtype=float)
        diff = np.asarray(self.diffusion, dtype=float)
        if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
            raise StateError("drift must be a square matrix")
        if diff.shape != drift.shape:
            raise StateError("diffusion must match the drift shape")
        if np.max(np.abs(diff - diff.T), initial=0.0) > SYMMETRY_TOL:
            raise StateError("diffusion must be symmetric")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diff)
        drift.setflags(write=False)
        diff.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0] // 2


# Quadratic Hamiltonian terms (kind, mode_a, mode_b, chi), in units of hbar:
#   PAIR      H = i chi a_dag b_dag + h.c.   ->  da/dt = chi b_dag,  db/dt = chi a_dag
#   EXCHANGE  H = i chi a_dag b + h.c.       ->  da/dt = chi b,      db/dt = -conj(chi) a
PAIR = "pair"
EXCHANGE = "exchange"


def quadratic_dynamics(labels: Sequence, terms: Iterable,
                       decay: Optional[dict] = None) -> LinearDynamics:
    """Drift/diffusion of a quadratic Hamiltonian given as a list of terms.

    The Heisenberg equations da/dt = M a + N a_dag are collected term by term
    (see PAIR and EXCHANGE above) and mapped to quadratures as a mode
    transformation.  ``decay`` maps mode labels to amplitude decay rates
    kappa: each such mode gets -kappa on its drift diagonal and 2 kappa of
    vacuum noise per quadrature, so the vacuum is a fixed point of pure decay.
    """
    labels = tuple(labels)
    n = len(labels)
    m = np.zeros((n, n), dtype=complex)
    nn = np.zeros((n, n), dtype=complex)
    for kind, mode_a, mode_b, chi in terms:
        i, j = labels.index(mode_a), labels.index(mode_b)
        chi = complex(chi)
        if kind == PAIR:
            nn[i, j] += chi
            nn[j, i] += chi
        elif kind == EXCHANGE:
            m[i, j] += chi
            m[j, i] -= chi.conjugate()
        else:
            raise StateError(f"unknown term kind {kind!r}")
    d = np.zeros((2 * n, 2 * n))
    for label, kappa in (decay or {}).items():
        k = labels.index(label)
        m[k, k] -= kappa
        d[2 * k, 2 * k] = d[2 * k + 1, 2 * k + 1] = 2.0 * kappa
    return LinearDynamics(drift=bogoliubov_to_symplectic(m, nn), diffusion=d)


def dynamics_from_couplings(chi1: complex, chi2: complex, kappa: float = 0.0,
                            include_decay: bool = True) -> LinearDynamics:
    """Drift/diffusion for the driven three-mode system (cav1, cav2, motion).

    The Hamiltonian H = i chi1 a1_dag b_dag + i chi2 a2_dag b + h.c. gives

        da1/dt = chi1 * b_dag - kappa_a * a1
        da2/dt = chi2 * b     - kappa_a * a2
        db/dt  = chi1 * a1_dag - conj(chi2) * a2

    with kappa_a = kappa if ``include_decay`` else 0.
    """
    kappa_a = float(kappa) if include_decay else 0.0
    return quadratic_dynamics(
        ("cav1", "cav2", "motion"),
        [(PAIR, "cav1", "motion", chi1), (EXCHANGE, "cav2", "motion", chi2)],
        {"cav1": kappa_a, "cav2": kappa_a})


def evolve(state: GaussianState, dynamics: LinearDynamics, t: float) -> GaussianState:
    """Propagate a state for time t under linear dynamics, exactly.

    Uses the matrix exponential of the drift; the diffusion integral
    int_0^t e^{As} D e^{A^T s} ds is evaluated in closed form through one
    augmented (block upper-triangular) exponential, so there is no step-size
    parameter and no integration error beyond expm round-off.
    """
    if not 0.0 <= t < math.inf:
        raise StateError(f"t must be finite and >= 0, got {t!r}")
    n = 2 * state.n_modes
    if dynamics.drift.shape != (n, n):
        raise StateError(
            f"dimension mismatch: state has {state.n_modes} modes, "
            f"dynamics has {dynamics.n_modes}"
        )
    a = dynamics.drift
    d = dynamics.diffusion
    if np.any(d):
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = -a
        block[:n, n:] = d
        block[n:, n:] = a.T
        w = expm(block * t)
        propagator = w[n:, n:].T            # e^{A t}
        integral = propagator @ w[:n, n:]   # int_0^t e^{As} D e^{A^T s} ds
        integral = 0.5 * (integral + integral.T)
    else:
        propagator = expm(a * t)
        integral = 0.0
    mean = propagator @ state.mean
    cov = propagator @ state.cov @ propagator.T + integral
    return GaussianState(state.mode_labels, mean, cov, validate=False)


# ---------------------------------------------------------------------------
# analytic half-period map and the squeezed target state
# ---------------------------------------------------------------------------

def bogoliubov_to_symplectic(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Quadrature matrix of the mode transformation a_i' = sum_j alpha_ij a_j + beta_ij a_j_dag."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = alpha.shape[0]
    plus = alpha + beta
    minus = alpha - beta
    s = np.empty((2 * n, 2 * n))
    s[0::2, 0::2] = plus.real
    s[0::2, 1::2] = -minus.imag
    s[1::2, 0::2] = plus.imag
    s[1::2, 1::2] = minus.real
    return s


def bogoliubov_tpi(couplings: Couplings) -> np.ndarray:
    """The exact half-period map as a 6x6 symplectic matrix (cav1, cav2, motion).

    After one half-period the modes have undergone

        a1 -> u a1 - v a2_dag,   a2 -> v a1_dag - u a2,   b -> -b

    with u = (|chi1|^2 + |chi2|^2)/theta^2 and v = 2 chi1 chi2 / theta^2
    (u^2 - |v|^2 = 1).  Requires |chi2| > |chi1|; chi1 = 0 is the trivial
    limit u = 1, v = 0.
    """
    chi1, chi2 = couplings.chi1, couplings.chi2
    theta_sq = abs(chi2) ** 2 - abs(chi1) ** 2
    if theta_sq <= 0.0:
        raise UndefinedPeriodError(
            f"|chi2| <= |chi1| (r = {couplings.r!r}): no half-period exists"
        )
    u = (abs(chi1) ** 2 + abs(chi2) ** 2) / theta_sq
    v = 2.0 * chi1 * chi2 / theta_sq
    alpha = np.diag([u, -u, -1.0]).astype(complex)
    beta = np.zeros((3, 3), dtype=complex)
    beta[0, 1] = -v
    beta[1, 0] = v
    return bogoliubov_to_symplectic(alpha, beta)


def tmss(r: float, beta: float = 0.0,
         labels: Sequence = ("cav1", "cav2")) -> GaussianState:
    """Two-mode squeezed vacuum produced by the half-period map, as a Gaussian state.

    The squeezing parameter s follows from the coupling ratio r through
    cosh(s) = (1 + r^2)/|1 - r^2| and sinh(s) = 2r/|1 - r^2|; ``beta`` is the
    phase of the cross-correlations (arg chi1 + arg chi2).  Mean photons per
    mode is sinh(s)^2 = 4 r^2/(1 - r^2)^2.

    r < 1 is accepted and mapped to 1/r: the state depends on r only through
    2r/(1 + r^2), which is invariant under that substitution.  r = 1 would be
    infinitely squeezed and raises.
    """
    if r <= 0.0:
        raise InfiniteSqueezingError(f"r must be positive, got {r!r}")
    if r == 1.0:
        raise InfiniteSqueezingError("r = 1 corresponds to infinite squeezing")
    if r < 1.0:
        r = 1.0 / r
    denom = r ** 2 - 1.0
    cosh_s = (1.0 + r ** 2) / denom
    sinh_s = 2.0 * r / denom
    cosh_2s = cosh_s ** 2 + sinh_s ** 2
    sinh_2s = 2.0 * cosh_s * sinh_s
    cb, sb = math.cos(beta), math.sin(beta)
    cross = sinh_2s * np.array([[cb, sb], [sb, -cb]])
    cov = np.block([[cosh_2s * np.eye(2), cross],
                    [cross.T, cosh_2s * np.eye(2)]])
    return GaussianState(tuple(labels), np.zeros(4), cov, validate=False)


# ---------------------------------------------------------------------------
# plain-text state dump
# ---------------------------------------------------------------------------

def dump_state(state: GaussianState) -> str:
    """Serialize a state: labels line, mean line, then the covariance rows.

    Floats are written with shortest round-trip formatting (repr), so parsing
    the text back reproduces the state bit for bit.
    """
    lines = [" ".join(str(l) for l in state.mode_labels)]
    lines.append(" ".join(repr(float(x)) for x in state.mean))
    for row in state.cov:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_state(text: str) -> GaussianState:
    """Parse the output of :func:`dump_state`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise StateError("state dump needs a labels line and a mean line")
    labels = tuple(lines[0].split())
    mean = np.array([float(x) for x in lines[1].split()])
    rows = [[float(x) for x in line.split()] for line in lines[2:]]
    if len(rows) != 2 * len(labels):
        raise StateError(
            f"expected {2 * len(labels)} covariance rows, got {len(rows)}"
        )
    return GaussianState(labels, mean, np.array(rows))
