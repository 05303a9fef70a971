"""Brute-force number-basis propagator used to cross-check the Gaussian engine.

Everything here is deliberately dumb: the sparse Hamiltonian of the driven
three-mode system in a truncated number basis, a Chebyshev series for its
exponential, and observables read off the amplitudes.  Mode ordering is
(cav1, cav2, motion); the flat index of |n1, n2, nb> is
(n1 * d2 + n2) * db + nb.  The Hamiltonian is built from number-state index
arithmetic alone, never from the Gaussian engine's term list, so a sign
error in either shows up as a disagreement in :func:`crosscheck`.

H conserves L = n1 - n2 - nb, so it is block-diagonal over the sectors of
fixed L, and a start state occupies few of them: the vacuum lives in L = 0,
about 1% of the product states.  :func:`hamiltonian_matrix` builds nothing
up front; each sector's block is built on first use, straight from hops on
the (n1, n2) lattice, and :func:`evolve_exact` builds and propagates only
the sectors the state occupies.  A :class:`FockState` holds its nonzero
amplitudes alone, by ascending flat index, and the norm checks and
:func:`leakage` read only those.  :func:`observables` reads each moment as
an inner product of two such sparse vectors, the state shifted by a ladder
operator, whatever H conserves.  Nothing of product size is ever
allocated, so memory follows the occupied sectors.

Quadrature observables use the same X = a + a_dag, vacuum-variance-1
convention as the gaussian module, so covariance matrices from both engines
are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import gaussian, protocol
from .errors import StateError, TruncationError, require_half_period
from .params import Couplings

NORM_TOL = 1e-9
DEFAULT_LEAK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated number-basis state over (cav1, cav2, motion), by its nonzero amplitudes.

    ``support`` holds the flat indices of the nonzero amplitudes, strictly
    ascending, and ``values`` the amplitudes at those indices; every other
    amplitude of the product basis is zero.  Exact zeros in ``values`` are
    dropped, so ``support`` lists the nonzero amplitudes only.
    """

    dims: tuple
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 2 for d in dims):
            raise StateError(f"dims must be three integers >= 2, got {self.dims!r}")
        support = np.asarray(self.support).reshape(-1)
        values = np.asarray(self.values, dtype=complex).reshape(-1)
        if support.shape != values.shape:
            raise StateError(f"support has {support.size} indices but values has "
                             f"{values.size} amplitudes")
        if support.size and not np.issubdtype(support.dtype, np.integer):
            raise StateError(f"support must hold integer indices, got dtype {support.dtype}")
        support = support.astype(np.int64, copy=False)
        if np.any(support[1:] <= support[:-1]):
            raise StateError("support must ascend strictly")
        size = dims[0] * dims[1] * dims[2]
        if support.size and not (support[0] >= 0 and support[-1] < size):
            raise StateError(f"support indices must lie in [0, {size}), got "
                             f"{support[0]} to {support[-1]}")
        nonzero = values != 0
        if not nonzero.all():
            support, values = support[nonzero], values[nonzero]
        norm = float(np.linalg.norm(values))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise StateError(f"state norm is {norm!r}, expected 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        support.setflags(write=False)
        values.setflags(write=False)


def vacuum_state(dims) -> FockState:
    return FockState(tuple(dims), np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex))


def _gather(support: np.ndarray, values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values``, held at the strictly ascending ``support``, read at ``index``; zero off it.

    A binary search finds where each index would sit in ``support``; the
    index is a hit only where the entry there equals it.
    """
    if not support.size:
        return np.zeros(np.shape(index), dtype=complex)
    pos = np.minimum(np.searchsorted(support, index), support.size - 1)
    return np.where(support[pos] == index, values[pos], 0.0)


class Sector(NamedTuple):
    """H restricted to the states of one conserved sector."""

    states: np.ndarray          # flat product-basis indices, ascending
    matrix: sp.csr_matrix       # H on those states, in the same order


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """H/hbar = i chi1 a1+ b+ + i chi2 a2+ b + h.c. in the truncated basis, by sector.

    H conserves L = n1 - n2 - nb, so it is block-diagonal over the sectors
    of fixed L.  :meth:`sector` builds the CSR block of one sector on first
    use and keeps it; ``nnz`` counts the entries of the blocks built so far.
    """

    chi1: complex
    chi2: complex
    dims: tuple
    _sectors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or min(dims) < 2:
            raise StateError(f"dims must be three integers >= 2, got {self.dims!r}")
        object.__setattr__(self, "chi1", complex(self.chi1))
        object.__setattr__(self, "chi2", complex(self.chi2))
        object.__setattr__(self, "dims", dims)

    @property
    def nnz(self) -> int:
        return sum(sector.matrix.nnz for sector in self._sectors.values())

    def sector(self, ell: int) -> Sector:
        """The block of the sector n1 - n2 - nb = ``ell``."""
        if ell not in self._sectors:
            self._sectors[ell] = self._build(ell)
        return self._sectors[ell]

    def _build(self, ell: int) -> Sector:
        """The block of one sector, from index arithmetic on the (n1, n2) lattice.

        A state of the sector is a lattice point (n1, n2) with
        nb = n1 - n2 - ell in [0, db).  Its states are numbered row by row
        in n1, so the numbering ascends with the flat product index
        (n1 * d2 + n2) * db + nb.  a1+ b+ is the hop n1 -> n1 + 1, with
        amplitude sqrt(n1+1) sqrt(nb+1), into the next row; a2+ b is the hop
        n2 -> n2 + 1, with amplitude sqrt(n2+1) sqrt(nb), to the next state
        of the row.  A hop that leaves the basis is not stored, nor is a
        zero entry.  The h.c. entries are the conjugates of the same
        values, so hermiticity is exact by construction.
        """
        d1, d2, db = self.dims
        n1 = np.arange(d1)
        lo = np.maximum(n1 - ell - (db - 1), 0)       # nb <= db - 1
        count = np.maximum(np.minimum(n1 - ell, d2 - 1) - lo + 1, 0)    # nb >= 0
        first = np.concatenate(([0], np.cumsum(count)))    # sector index of row n1's first state
        size = int(first[-1])
        row = np.repeat(n1, count)
        n2 = np.arange(size) - first[row] + lo[row]
        nb = row - n2 - ell
        pair = np.flatnonzero((row < d1 - 1) & (nb < db - 1))    # a1+ b+ stays in the basis
        exch = np.flatnonzero((n2 < d2 - 1) & (nb > 0))          # a2+ b stays in the basis
        pair_to = first[row[pair] + 1] + n2[pair] - lo[row[pair] + 1]
        # Row k holds the columns of its pair source, its exchange source (k - 1),
        # its exchange target (k + 1) and its pair target, in ascending order.
        # scipy stores 32-bit indices where they fit (the entry count reaches
        # 4 * size); building in them spares a copy
        index = np.int32 if 4 * size < 2**31 else np.int64
        vals = np.zeros((size, 4), dtype=complex)
        cols = np.zeros((size, 4), dtype=index)
        vals[pair_to, 0] = (1j * self.chi1) * (np.sqrt(row[pair] + 1) * np.sqrt(nb[pair] + 1))
        vals[exch + 1, 1] = (1j * self.chi2) * (np.sqrt(n2[exch] + 1) * np.sqrt(nb[exch]))
        vals[exch, 2] = np.conjugate(vals[exch + 1, 1])
        vals[pair, 3] = np.conjugate(vals[pair_to, 0])
        cols[pair_to, 0] = pair
        cols[exch + 1, 1] = exch
        cols[exch, 2] = exch + 1
        cols[pair, 3] = pair_to
        keep = vals != 0
        indptr = np.zeros(size + 1, dtype=index)
        indptr[1:] = np.cumsum(np.count_nonzero(keep, axis=1), dtype=index)
        matrix = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(size, size))
        return Sector(states=(row * d2 + n2) * db + nb, matrix=matrix)


def hamiltonian_matrix(chi1: complex, chi2: complex, dims) -> SectorHamiltonian:
    """H/hbar = i chi1 a1+ b+ + i chi2 a2+ b + h.c. over (cav1, cav2, motion) at ``dims``.

    Builds nothing yet: :func:`evolve_exact` asks for the sectors a state
    occupies, and only those are built.
    """
    return SectorHamiltonian(chi1, chi2, dims)


def leakage(state: FockState) -> float:
    """Largest total population sitting on the top level of any mode."""
    pop = np.abs(state.values) ** 2
    levels = np.unravel_index(state.support, state.dims)
    return float(max(pop[n == d - 1].sum() for n, d in zip(levels, state.dims)))


def _spectral_bound(matrix: sp.csr_matrix) -> float:
    """Gershgorin's bound on the spectral radius: the largest row sum of |H|.

    ``reduceat`` sums each row's entries.  An empty row reads the first
    entry of the next row instead, or the appended zero, which is at most
    that row's own sum, so the maximum is unchanged.
    """
    rows = np.add.reduceat(np.append(np.abs(matrix.data), 0.0), matrix.indptr[:-1])
    return float(rows.max())


def _series_length(alpha: float) -> int:
    """Index K of the last term kept of exp(-i alpha x) = sum_k c_k T_k(x), x in [-1, 1].

    The terms are c_k T_k(x) with |c_k| = 2 |J_k(alpha)| (k >= 1) and
    |T_k(x)| <= 1.  For k > |alpha|, Kapteyn's inequality (DLMF 10.14.5)
    gives |J_k(alpha)| <= B_k = exp(-k (u_k - tanh u_k)) with
    u_k = arccosh(k / |alpha|).  The derivative of k (u_k - tanh u_k) in k
    is u_k, which grows with k, so B_{k+1} / B_k <= exp(-u_m) for k >= m,
    and the terms dropped after K sum to at most 2 B_m / (1 - exp(-u_m)),
    m = K + 1.  K is the smallest integer above |alpha| that brings this
    below the unit roundoff 2^-53.
    """
    alpha = abs(alpha)
    k = math.floor(alpha) + 1
    while True:
        u = math.acosh((k + 1) / alpha)
        if 2.0 * math.exp(-(k + 1) * (u - math.tanh(u))) / -math.expm1(-u) <= 2.0 ** -53:
            return k
        k += 1


def _chebyshev_coefficients(alpha: float) -> np.ndarray:
    """c_0 = J_0(alpha) and c_k = 2 (-i)^k J_k(alpha), k = 1 .. K, of exp(-i alpha x).

    By the Jacobi-Anger expansion exp(-i alpha cos theta) is
    sum_n (-i)^n J_n(alpha) e^{i n theta}, so the discrete Fourier transform
    of its samples at theta_j = 2 pi j / M, the Chebyshev nodes cos theta_j,
    gives (-i)^n J_n(alpha) plus the aliased terms n +- M.  With
    M = 2 (K + 1) every alias lies past K, inside the tail that
    :func:`_series_length` bounds.  numpy's FFT runs on one thread, where a
    dense BLAS product would leave OpenBLAS threads spinning.
    """
    count = _series_length(alpha) + 1
    nodes = np.cos(np.arange(2 * count) * (math.pi / count))
    coeffs = np.fft.fft(np.exp(-1j * alpha * nodes))[:count] / (2 * count)
    coeffs[1:] *= 2.0
    return coeffs


def _propagate(matrix: sp.csr_matrix, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi for one Hermitian sector block H, by a Chebyshev series.

    With rho from :func:`_spectral_bound`, H / rho has its spectrum in
    [-1, 1], and exp(-i H t) = sum_k c_k T_k(H / rho) with the coefficients
    of :func:`_chebyshev_coefficients` at alpha = rho t (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967, 1984).  The vectors T_k(H / rho) psi
    follow from T_{k+1} = 2 (H / rho) T_k - T_{k-1}, one sparse product each.
    """
    rho = _spectral_bound(matrix)
    if rho == 0.0:
        return psi
    coeffs = _chebyshev_coefficients(rho * t)
    step = matrix * (2.0 / rho)
    prev, cur = psi, 0.5 * (step @ psi)
    out = coeffs[0] * prev + coeffs[1] * cur
    for coeff in coeffs[2:]:
        nxt = step @ cur
        nxt -= prev
        prev, cur = cur, nxt
        out += coeff * cur
    return out


def _sorted_state(dims: tuple, support: np.ndarray, values: np.ndarray) -> FockState:
    """The state with amplitudes ``values`` at the flat indices ``support``, in any order.

    The states of one sector ascend, but those of several sectors interleave.
    """
    order = np.argsort(support)
    return FockState(dims, support[order], values[order])


def evolve_exact(state: FockState, hamiltonian: SectorHamiltonian, t: float,
                 leak_tol: float = DEFAULT_LEAK_TOL) -> FockState:
    """Apply exp(-i H t) to the state, with no approximation knobs.

    Only the sectors of H that the state's nonzero amplitudes occupy are
    built and propagated; every other amplitude stays exactly zero.  Each
    occupied block is propagated by a Chebyshev series whose length is fixed
    in advance, so that the terms it drops sum below the unit roundoff.
    The result holds the states of the occupied sectors, in ascending order.

    Raises :class:`TruncationError` when the propagated state puts more than
    ``leak_tol`` population on the top level of any mode, since observables
    are then contaminated by the basis cutoff.
    """
    if hamiltonian.dims != state.dims:
        raise StateError(
            f"Hamiltonian dims {hamiltonian.dims!r} do not match state dims {state.dims!r}"
        )
    if not math.isfinite(t):
        raise StateError(f"t must be finite, got {t!r}")
    if t == 0.0:
        return state
    n1, n2, nb = np.unravel_index(state.support, state.dims)
    sectors = [hamiltonian.sector(int(ell)) for ell in np.unique(n1 - n2 - nb)]
    evolved = np.concatenate([_propagate(sector.matrix,
                                         _gather(state.support, state.values, sector.states), t)
                              for sector in sectors])
    norm = float(np.linalg.norm(evolved))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise StateError(f"propagation lost unitarity: norm {norm!r}")
    out = _sorted_state(state.dims, np.concatenate([sector.states for sector in sectors]),
                        evolved / norm)
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


def _lowered(support: np.ndarray, values: np.ndarray, n: np.ndarray, stride: int) -> tuple:
    """a psi along the mode with levels ``n`` and flat-index ``stride``: sqrt(n) psi at n - 1."""
    keep = n > 0
    return support[keep] - stride, np.sqrt(n[keep]) * values[keep]


def _raised(support: np.ndarray, values: np.ndarray, n: np.ndarray, stride: int,
            d: int) -> tuple:
    """a+ psi along that mode, of ``d`` levels: sqrt(n + 1) psi at n + 1, cut at n = d - 1."""
    keep = n < d - 1
    return support[keep] + stride, np.sqrt(n[keep] + 1) * values[keep]


def _inner_products(bra: tuple, kets: list) -> np.ndarray:
    """<bra|ket> for each ket, every vector held as (ascending support, values)."""
    return np.array([np.vdot(_gather(*bra, support), values) for support, values in kets])


def observables(state: FockState) -> FockObservables:
    """Mean photon numbers, full quadrature covariance, and the joint cav1/cav2 distribution.

    Every moment is an inner product of two sparse vectors held like the
    state: <a_i> = <psi|a_i psi>, <a_i+ a_j> = <a_i psi|a_j psi> and
    <a_i a_j> = <a_i+ psi|a_j psi>, with a_i+ cut at the top level.  The
    shifted supports still ascend, so each product is one lookup.
    """
    dims = state.dims
    support, psi = state.support, state.values
    levels = np.unravel_index(support, dims)
    strides = (dims[1] * dims[2], dims[2], 1)
    low = [_lowered(support, psi, levels[i], strides[i]) for i in range(3)]
    disp = _inner_products((support, psi), low)                                   # <a_i>
    # n_ij = <a_i+ a_j> and s_ij = <a_i a_j>, centered; one raised vector at a time
    n_mat = np.array([_inner_products(bra, low) for bra in low]) - np.outer(disp.conj(), disp)
    s_mat = np.array([_inner_products(_raised(support, psi, levels[i], strides[i], dims[i]), low)
                      for i in range(3)]) - np.outer(disp, disp)
    del low     # before the (d1, d2) joint distribution is allocated
    pop = np.abs(psi) ** 2
    means = np.array([float(np.dot(pop, n)) for n in levels])

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
        joint_photon_distribution=np.bincount(
            levels[0] * dims[1] + levels[1], weights=pop,
            minlength=dims[0] * dims[1]).reshape(dims[:2]),
        leakage=leakage(state),
    )


def _require_finite_r(r: float, caller: str) -> None:
    """Refuse a non-finite r (StateError), then r <= 1 (UndefinedPeriodError)."""
    if not math.isfinite(r):
        raise StateError(f"{caller} needs a finite r, got {r!r}")
    require_half_period(r)


def suggest_dims(r: float, leak_target: float = 1e-12, pad: int = 2) -> tuple:
    """Truncation dimensions for a half-period run at coupling ratio r (vacuum start).

    Sizes each mode from the geometric tail of its worst-case occupation along
    the evolution: the cavity modes end in a thermal-like distribution with
    ratio (2r/(1+r^2))^2 per level, the motion transiently reaches mean
    occupation r^2/(r^2-1).
    """
    _require_finite_r(r, "suggest_dims")

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
    _require_finite_r(r, "crosscheck")
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
