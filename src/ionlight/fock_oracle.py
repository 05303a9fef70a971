"""Brute-force number-basis propagator used to cross-check the Gaussian engine.

Everything here is deliberately dumb: build the full (sparse) Hamiltonian of
the driven three-mode system in a truncated product basis, propagate the state
vector with a Krylov matrix exponential on the blocks of H it occupies, and
read observables off the amplitudes.  Mode ordering is (cav1, cav2, motion);
the flat index of |n1, n2, nb> is (n1 * d2 + n2) * db + nb.  The Hamiltonian
is built from that index arithmetic alone, never from the Gaussian engine's
term list, so a sign error in either shows up as a disagreement in
:func:`crosscheck`.

Quadrature observables use the same X = a + a_dag, vacuum-variance-1
convention as the gaussian module, so covariance matrices from both engines
are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import gaussian, protocol
from .errors import StateError, TruncationError
from .params import Couplings

NORM_TOL = 1e-9
DEFAULT_LEAK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated number-basis state vector over (cav1, cav2, motion)."""

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 2 for d in dims):
            raise StateError(f"dims must be three integers >= 2, got {self.dims!r}")
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if vec.shape != (dims[0] * dims[1] * dims[2],):
            raise StateError(
                f"amplitude vector has length {vec.shape[0]}, "
                f"expected {dims[0] * dims[1] * dims[2]}"
            )
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_TOL:
            raise StateError(f"state norm is {norm!r}, expected 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", vec)
        vec.setflags(write=False)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def vacuum_state(dims) -> FockState:
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    vec[0] = 1.0
    return FockState(tuple(dims), vec)


def hamiltonian_matrix(chi1: complex, chi2: complex, dims) -> sp.csr_matrix:
    """Sparse matrix of H/hbar = i chi1 a1+ b+ + i chi2 a2+ b + h.c. in the truncated basis.

    Built from the flat index of each number state.  Hermiticity is exact by
    construction (the conjugate part is added explicitly, entry by entry).
    """
    d1, d2, db = (int(d) for d in dims)
    if min(d1, d2, db) < 2:
        raise StateError(f"dims must all be >= 2, got {dims!r}")
    size = d1 * d2 * db
    # scipy stores 32-bit indices where they fit; building in them spares a copy
    index = np.int32 if size < 2**31 else np.int64
    n1, n2, nb = np.indices((d1, d2, db), dtype=index).reshape(3, -1)
    flat = np.arange(size, dtype=index)
    # a1+ b+ : |n1, n2, nb> -> sqrt(n1+1) sqrt(nb+1) |n1+1, n2, nb+1>
    pair = (n1 < d1 - 1) & (nb < db - 1)
    # a2+ b  : |n1, n2, nb> -> sqrt(n2+1) sqrt(nb) |n1, n2+1, nb-1>
    exch = (n2 < d2 - 1) & (nb > 0)
    cols = np.concatenate([flat[pair], flat[exch]])
    rows = np.concatenate([flat[pair] + d2 * db + 1, flat[exch] + db - 1])
    vals = np.concatenate([
        (1j * complex(chi1)) * (np.sqrt(n1[pair] + 1) * np.sqrt(nb[pair] + 1)),
        (1j * complex(chi2)) * (np.sqrt(n2[exch] + 1) * np.sqrt(nb[exch])),
    ])
    h = sp.coo_matrix((np.concatenate([vals, vals.conj()]),
                       (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                      shape=(size, size)).tocsr()
    h.eliminate_zeros()     # a zero coupling stores no entries
    return h


def leakage(state: FockState) -> float:
    """Largest total population sitting on the top level of any mode."""
    pop = np.abs(state.tensor()) ** 2
    return float(max(pop[-1, :, :].sum(), pop[:, -1, :].sum(), pop[:, :, -1].sum()))


def evolve_exact(state: FockState, hamiltonian: sp.spmatrix, t: float,
                 leak_tol: float = DEFAULT_LEAK_TOL) -> FockState:
    """Apply exp(-i H t) to the state (Krylov evaluation, no approximation knobs).

    Only the blocks of H that the state's nonzero amplitudes reach are
    propagated; every other amplitude stays exactly zero.

    Raises :class:`TruncationError` when the propagated state puts more than
    ``leak_tol`` population on the top level of any mode, since observables
    are then contaminated by the basis cutoff.
    """
    if hamiltonian.shape != (state.amplitudes.size, state.amplitudes.size):
        raise StateError(
            f"Hamiltonian shape {hamiltonian.shape} does not match "
            f"state length {state.amplitudes.size}"
        )
    if t == 0.0:
        return state
    # exp(-i H t) is block-diagonal over the connected components of H's
    # sparsity graph, so only the components the state occupies evolve.
    from scipy.sparse.csgraph import connected_components
    hamiltonian = hamiltonian.tocsr()
    _, labels = connected_components(hamiltonian.astype(bool), directed=False)
    occupied = np.unique(labels[np.flatnonzero(state.amplitudes)])
    idx = np.flatnonzero(np.isin(labels, occupied))
    block = hamiltonian[idx][:, idx]
    vec = np.zeros_like(state.amplitudes)
    vec[idx] = expm_multiply(-1j * t * block.tocsc(), state.amplitudes[idx])
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > NORM_TOL:
        raise StateError(f"propagation lost unitarity: norm {norm!r}")
    vec = vec / norm
    out = FockState(state.dims, vec)
    leak = leakage(out)
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leakage {leak:.3e} exceeds tolerance {leak_tol:.3e} "
            f"at dims {state.dims!r}; enlarge the basis",
            leakage=leak, dims=state.dims,
        )
    return out


@dataclass(frozen=True, eq=False)
class FockObservables:
    """Observables extracted from a Fock state, Gaussian-comparable."""

    mean_photons: np.ndarray        # (3,) per mode
    covariance: np.ndarray          # 6x6 symmetrized quadrature covariance
    mean_quadratures: np.ndarray    # (6,) first moments
    joint_photon_distribution: np.ndarray   # (d1, d2) cav1/cav2 marginal
    leakage: float


def _apply_lowering(tensor: np.ndarray, axis: int) -> np.ndarray:
    """a|psi> along one mode axis of the amplitude tensor."""
    d = tensor.shape[axis]
    weights = np.sqrt(np.arange(1, d))
    shifted = np.take(tensor, np.arange(1, d), axis=axis)
    shape = [1, 1, 1]
    shape[axis] = d - 1
    shifted = shifted * weights.reshape(shape)
    pad = [(0, 0)] * 3
    pad[axis] = (0, 1)
    return np.pad(shifted, pad)


def observables(state: FockState) -> FockObservables:
    """Mean photon numbers, full quadrature covariance, and the joint cav1/cav2 distribution."""
    psi = state.tensor()
    pop = np.abs(psi) ** 2
    means = np.array([
        float((pop.sum(axis=(1, 2)) * np.arange(state.dims[0])).sum()),
        float((pop.sum(axis=(0, 2)) * np.arange(state.dims[1])).sum()),
        float((pop.sum(axis=(0, 1)) * np.arange(state.dims[2])).sum()),
    ])

    lowered = [_apply_lowering(psi, axis) for axis in range(3)]
    disp = np.array([np.vdot(psi, low) for low in lowered])           # <a_i>
    # n_ij = <a_i+ a_j>, s_ij = <a_i a_j>, centered on the displacements.
    n_mat = np.empty((3, 3), dtype=complex)
    s_mat = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            n_mat[i, j] = np.vdot(lowered[i], lowered[j]) - np.conj(disp[i]) * disp[j]
            s_mat[i, j] = np.vdot(psi, _apply_lowering(lowered[i], j)) - disp[i] * disp[j]

    cov = np.empty((6, 6))
    for i in range(3):
        for j in range(3):
            delta = 1.0 if i == j else 0.0
            s_re, s_im = s_mat[i, j].real, s_mat[i, j].imag
            n_re, n_im = n_mat[i, j].real, n_mat[i, j].imag
            cov[2 * i, 2 * j] = 2.0 * s_re + 2.0 * n_re + delta       # X_i X_j
            cov[2 * i, 2 * j + 1] = 2.0 * s_im + 2.0 * n_im           # X_i P_j (sym)
            cov[2 * i + 1, 2 * j] = 2.0 * s_im - 2.0 * n_im           # P_i X_j (sym)
            cov[2 * i + 1, 2 * j + 1] = -2.0 * s_re + 2.0 * n_re + delta   # P_i P_j
    cov = 0.5 * (cov + cov.T)

    quad_means = np.empty(6)
    quad_means[0::2] = 2.0 * disp.real
    quad_means[1::2] = 2.0 * disp.imag

    return FockObservables(
        mean_photons=means,
        covariance=cov,
        mean_quadratures=quad_means,
        joint_photon_distribution=pop.sum(axis=2),
        leakage=leakage(state),
    )


def suggest_dims(r: float, leak_target: float = 1e-12, pad: int = 2) -> tuple:
    """Truncation dimensions for a half-period run at coupling ratio r (vacuum start).

    Sizes each mode from the geometric tail of its worst-case occupation along
    the evolution: the cavity modes end in a thermal-like distribution with
    ratio (2r/(1+r^2))^2 per level, the motion transiently reaches mean
    occupation r^2/(r^2-1).
    """
    if r <= 1.0:
        raise StateError(f"suggest_dims needs r > 1, got {r!r}")

    def tail_dim(q: float) -> int:
        # smallest d with (1-q) q^(d-1) <= leak_target
        if q <= 0.0:
            return 2
        d = 1 + math.ceil(math.log(leak_target / (1.0 - q)) / math.log(q))
        return max(4, d + pad)

    q_cav = (2.0 * r / (1.0 + r ** 2)) ** 2
    nb_max = r ** 2 / (r ** 2 - 1.0)
    q_mot = nb_max / (1.0 + nb_max)
    d_cav = tail_dim(q_cav)
    return (d_cav, d_cav, tail_dim(q_mot))


class Crosscheck(NamedTuple):
    """One half-period from vacuum through both engines, observable by observable."""

    dims: tuple
    observables: FockObservables
    rows: tuple                 # (name, gaussian value, number-basis value)


def crosscheck(r: float, dims=None) -> Crosscheck:
    """Run one half-period from vacuum at chi1 = 1, chi2 = r through both engines.

    The Gaussian side runs :func:`protocol.simultaneous_stages`, the
    closed-form half-period map that ``protocol.run_simultaneous`` applies.

    ``dims`` defaults to :func:`suggest_dims`.  The rows compare the photons
    per mode, both EPR variances and, last, the largest covariance difference
    as (name, 0, max |diff|).
    """
    if not 1.0 < r < math.inf:
        raise StateError(f"crosscheck needs a finite r > 1, got {r!r}")
    dims = suggest_dims(r) if dims is None else tuple(dims)
    couplings = Couplings.from_chis(1.0, r)
    labels = protocol.SIMULTANEOUS_LABELS
    (pulse,) = protocol.simultaneous_stages(couplings)
    (g_state,) = protocol.run_stages(gaussian.vacuum(3, labels), (pulse,))
    hamiltonian = hamiltonian_matrix(couplings.chi1, couplings.chi2, dims)
    obs = observables(evolve_exact(vacuum_state(dims), hamiltonian, pulse.t))
    f_state = gaussian.GaussianState(labels, obs.mean_quadratures, obs.covariance,
                                     validate=False)

    rows = [(f"photons {label}", gaussian.mean_photons(g_state, label),
             float(obs.mean_photons[k])) for k, label in enumerate(labels)]
    for name, thetas in (("EPR var X1-X2", (0.0, 0.0)),
                         ("EPR var P1+P2", (math.pi / 2, -math.pi / 2))):
        rows.append((name, gaussian.epr_variance(g_state, "cav1", "cav2", *thetas),
                     gaussian.epr_variance(f_state, "cav1", "cav2", *thetas)))
    rows.append(("max |cov| diff", 0.0,
                 float(np.max(np.abs(g_state.cov - obs.covariance)))))
    return Crosscheck(dims=dims, observables=obs, rows=tuple(rows))
