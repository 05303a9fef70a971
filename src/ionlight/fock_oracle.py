"""Brute-force number-basis propagator used to cross-check the Gaussian engine.

Everything here is deliberately dumb: the Hamiltonian of the driven
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
the sectors the state occupies.  A phase gauge makes every block real:
with chi_j = |chi_j| e^{i theta_j} and W = diag(e^{i (theta1 n1 + theta2 n2)}),
W+ H W = i K with K real and antisymmetric, so exp(-i H t) = W exp(K t) W+.
A block holds K as a stencil of four slots per state, numpy arrays alone,
and one product is a gather, a scale and a sum over the slots.  Every hop
moves the motion by one quantum, so K maps the states of even nb to those
of odd nb and back; a sector lists its even-nb states first, then its
odd-nb ones, each by ascending flat index, and each Chebyshev term works
on one half alone.  exp(K t) is real, so the real and imaginary parts of
W+ psi, each split into its even and odd halves, evolve apart by a real
Chebyshev recurrence, and a part that is exactly zero is not propagated:
from the vacuum, all but the real even part.  A :class:`FockState` holds
its nonzero amplitudes alone, by ascending flat index, and the norm checks and
:func:`leakage` read only those.  :func:`observables` reads each moment as
an inner product of two such sparse vectors, the state shifted by a ladder
operator, whatever H conserves.  Nothing of product size is ever
allocated, so memory follows the occupied sectors.

Quadrature observables use the same X = a + a_dag, vacuum-variance-1
convention as the gaussian module, so covariance matrices from both engines
are directly comparable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gaussian, protocol
from .errors import StateError, TruncationError, require_half_period
from .params import Couplings

NORM_TOL = 1e-9
DEFAULT_LEAK_TOL = 1e-9
# Largest sector SectorHamiltonian admits: suggest_dims(1.06) needs 1.6e6 states
# there, r = 1.05 needs 2.6e6 and r = 1.01 2.3e8.
MAX_SECTOR_STATES = 2 ** 21
# Largest |rho * t| that _propagate admits: its series has a little more than
# rho * t terms, and an FFT of twice as many samples gives their coefficients.
# crosscheck(1.5) runs at rho * t = 1,234 and crosscheck(1.1) at 18,145; r = 1.06
# would need about 4.4e4, by extrapolation.
MAX_RHO_T = 2 ** 20

# Every sum over amplitudes below is numpy's own pairwise sum, never a BLAS
# dot product (np.linalg.norm, np.vdot, np.dot): OpenBLAS splits those across
# its threads above 10,000 elements, so their last digits would follow the
# thread count, and with it the CPU count.


def _norm(values: np.ndarray) -> float:
    """The 2-norm of ``values``, summed in an order that no thread count changes."""
    squares = np.square(values.real)
    squares += np.square(values.imag)
    return math.sqrt(float(squares.sum()))


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
        norm = _norm(values)
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
    """H restricted to the states of one conserved sector, as H = W (i K) W+.

    The states with even nb come first and those with odd nb last, each
    half by ascending flat index.  K is real and antisymmetric, held as a
    stencil of four slots per state, one contiguous (4, n) array per half:
    with s the j-th state of half h, (K x)[s] = sum_i vals[h][i, j] * x[cols[h][i, j]].
    Every hop changes nb by one, so a nonzero slot points into the other
    half; a slot whose hop leaves the basis holds 0 and points at s itself.
    W is diagonal, e^{i (theta1 n1 + theta2 n2)} on each state, with theta_j
    the phase of chi_j.
    """

    states: np.ndarray          # flat product-basis indices: even nb, then odd nb
    cols: tuple                 # per half, (4, n) sector indices of K's entries, by slot
    vals: tuple                 # per half, (4, n) K's entries there, real
    phase: np.ndarray           # W on the states


@dataclass(frozen=True, eq=False)
class SectorHamiltonian:
    """H/hbar = i chi1 a1+ b+ + i chi2 a2+ b + h.c. in the truncated basis, by sector.

    H conserves L = n1 - n2 - nb, so it is block-diagonal over the sectors
    of fixed L.  With chi_j = |chi_j| e^{i theta_j} and
    W = diag(e^{i (theta1 n1 + theta2 n2)}), W+ H W = i K, where
    K = |chi1| (a1+ b+ - a1 b) + |chi2| (a2+ b - b+ a2) is real and
    antisymmetric; so exp(-i H t) = W exp(K t) W+.  :meth:`sector` builds
    the stencil of K and the gauge W of one sector on first use and keeps
    them; ``nnz`` counts the nonzero entries of the blocks built so far.
    Rates that could make a row sum of |K| overflow double precision at
    ``dims`` raise :class:`StateError` on construction, before any block.
    """

    chi1: complex
    chi2: complex
    dims: tuple
    _sectors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or min(dims) < 2:
            raise StateError(f"dims must be three integers >= 2, got {self.dims!r}")
        largest = dims[0] * min(dims[1], dims[2])     # at most min(d2, db) states per n1
        if largest > MAX_SECTOR_STATES:
            raise StateError(f"dims {dims} allow a sector of {largest} states, more than "
                             f"the {MAX_SECTOR_STATES} this oracle holds")
        chi1, chi2 = complex(self.chi1), complex(self.chi2)
        # every row sum of |K|, and so every entry, is at most this bound
        bound = 2.0 * (abs(chi1) * math.sqrt(dims[0] - 1)
                       + abs(chi2) * math.sqrt(dims[1] - 1)) * math.sqrt(dims[2] - 1)
        if not bound < math.inf:
            raise StateError(f"rates |chi1| = {abs(chi1)!r}, |chi2| = {abs(chi2)!r} at dims "
                             f"{dims} give a row sum of H that overflows double precision")
        object.__setattr__(self, "chi1", chi1)
        object.__setattr__(self, "chi2", chi2)
        object.__setattr__(self, "dims", dims)

    @property
    def nnz(self) -> int:
        return sum(int(np.count_nonzero(half)) for sector in self._sectors.values()
                   for half in sector.vals)

    def sector(self, ell: int) -> Sector:
        """The block of the sector n1 - n2 - nb = ``ell``."""
        if ell not in self._sectors:
            self._sectors[ell] = self._build(ell)
        return self._sectors[ell]

    def _build(self, ell: int) -> Sector:
        """The block of one sector, from index arithmetic on the (n1, n2) lattice.

        A state of the sector is a lattice point (n1, n2) with
        nb = n1 - n2 - ell in [0, db).  Its states are first numbered row by
        row in n1, so the numbering ascends with the flat product index
        (n1 * d2 + n2) * db + nb.  a1+ b+ is the hop n1 -> n1 + 1, with
        amplitude sqrt(n1+1) sqrt(nb+1), into the next row; a2+ b is the hop
        n2 -> n2 + 1, with amplitude sqrt(n2+1) sqrt(nb), to the next state
        of the row.  A hop that leaves the basis is not stored.  The
        transposed entries are the negatives of the same values, so K is
        antisymmetric, and H Hermitian, exactly by construction.  Last, the
        states are renumbered, even nb first, and the stencil is split into
        its two halves, each slot keeping its entry.
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
        # State k's slots hold its pair source, its exchange source (k - 1), its
        # exchange target (k + 1) and its pair target, by ascending flat index
        cols = np.tile(np.arange(size), (4, 1))
        vals = np.zeros((4, size))
        vals[0, pair_to] = abs(self.chi1) * (np.sqrt(row[pair] + 1) * np.sqrt(nb[pair] + 1))
        vals[1, exch + 1] = abs(self.chi2) * (np.sqrt(n2[exch] + 1) * np.sqrt(nb[exch]))
        vals[2, exch] = -vals[1, exch + 1]
        vals[3, pair] = -vals[0, pair_to]
        cols[0, pair_to] = pair
        cols[1, exch + 1] = exch
        cols[2, exch] = exch + 1
        cols[3, pair] = pair_to
        phase = np.exp(1j * (cmath.phase(self.chi1) * row + cmath.phase(self.chi2) * n2))
        odd = nb % 2 == 1
        halves = (np.flatnonzero(~odd), np.flatnonzero(odd))
        order = np.concatenate(halves)
        renumber = np.empty(size, dtype=np.intp)
        renumber[order] = np.arange(size)
        # np.take, not vals[:, half], gives contiguous halves
        vals = tuple(np.take(vals, half, axis=1) for half in halves)
        cols = tuple(renumber[np.take(cols, half, axis=1)] for half in halves)
        return Sector(states=((row * d2 + n2) * db + nb)[order], cols=cols, vals=vals,
                      phase=phase[order])


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


def _spectral_bound(vals: tuple) -> float:
    """Gershgorin's bound on the spectral radius of K: the largest row sum of |K|.

    ``vals`` is the stencil of :class:`Sector`, one column of slots per row,
    in its two halves.
    """
    return max(float(np.abs(half).sum(axis=0).max(initial=0.0)) for half in vals)


def _halves(sector: Sector) -> tuple:
    """The slices of the sector's states with even nb and with odd nb."""
    even = sector.cols[0].shape[1]
    return slice(0, even), slice(even, sector.states.size)


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
    """J_0(alpha) and 2 J_k(alpha), k = 1 .. K: the real coefficients of :func:`_propagate`.

    exp(-i alpha x) = sum_k c_k T_k(x) with c_0 = J_0(alpha) and
    c_k = 2 (-i)^k J_k(alpha).  By the Jacobi-Anger expansion
    exp(-i alpha cos theta) is sum_n (-i)^n J_n(alpha) e^{i n theta}, so the
    discrete Fourier transform of its samples at theta_j = 2 pi j / M, the
    Chebyshev nodes cos theta_j, gives (-i)^n J_n(alpha) plus the aliased
    terms n +- M.  With M = 2 (K + 1) every alias lies past K, inside the
    tail that :func:`_series_length` bounds.  The coefficients returned are
    i^k c_k, with i^k taken exact from a table and the imaginary rounding
    dropped.  numpy's FFT runs on one thread, where a dense BLAS product
    would leave OpenBLAS threads spinning.
    """
    count = _series_length(alpha) + 1
    nodes = np.cos(np.arange(2 * count) * (math.pi / count))
    coeffs = np.fft.fft(np.exp(-1j * alpha * nodes))[:count] / (2 * count)
    coeffs[1:] *= 2.0
    coeffs *= np.array([1, 1j, -1, -1j])[np.arange(count) % 4]
    return coeffs.real


def _propagate(sector: Sector, first: int, x: np.ndarray, t: float) -> np.ndarray:
    """exp(K t) x for one sector's stencil of K (see :class:`Sector`) and a real vector x.

    x is zero off the sector's parity half ``first``, 0 for even nb and 1
    for odd.  iK is Hermitian and exp(K t) = exp(-i (iK) t).  With rho from
    :func:`_spectral_bound`, iK / rho has its spectrum in [-1, 1], and
    exp(K t) = sum_k c_k T_k(iK / rho) with the c_k of exp(-i alpha x) at
    alpha = rho t (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984).
    The vectors v_k = (-i)^k T_k(iK / rho) x are real and follow from
    v_{k+1} = 2 (K / rho) v_k + v_{k-1}; each enters with the real
    coefficient i^k c_k of :func:`_chebyshev_coefficients`.  K maps each
    half to the other, so v_k lives on half ``first`` for even k and on the
    other half for odd k.  One vector u holds the latest v_k of each half,
    and a term overwrites v_{k-1} with v_{k+1} in place: it gathers u at
    that half's ``cols``, which read v_k on the other half, scales by
    ``vals``, sums the four slots, in the order a product over the whole
    sector would, and adds v_{k-1}.  When rho t is 0, from no hop or an
    underflow, exp(K t) x is x to double precision.  A rho t that is not
    finite, or whose magnitude exceeds ``MAX_RHO_T``, raises
    :class:`StateError` before anything is allocated.
    """
    rho = _spectral_bound(sector.vals)
    alpha = rho * t
    if alpha == 0.0:
        return x
    if not abs(alpha) <= MAX_RHO_T:
        raise StateError(f"rho * t = {alpha!r} is not finite or exceeds {MAX_RHO_T}: "
                         "the Chebyshev series would be too long")
    coeffs = _chebyshev_coefficients(alpha)
    scale = 2.0 / rho
    u = x.copy()
    out = np.empty_like(x)
    bounds = _halves(sector)
    terms = [(sector.cols[h], sector.vals[h] * scale, u[bounds[h]], out[bounds[h]])
             for h in (first, 1 - first)]
    (_, _, u0, out0), (cols1, step1, u1, out1) = terms
    g = x[cols1]
    g *= step1
    u1[:] = 0.5 * g.sum(0)          # v_1 = (K / rho) x
    out0[:] = coeffs[0] * u0
    out1[:] = coeffs[1] * u1
    for k, coeff in enumerate(coeffs[2:]):
        cols_h, step_h, u_h, out_h = terms[k % 2]
        g = u[cols_h]
        g *= step_h
        u_h += g.sum(0)
        out_h += coeff * u_h
    return out


def _evolve_sector(sector: Sector, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi on one sector, as W exp(K t) W+ psi.

    exp(K t) is real, so the real and imaginary parts of W+ psi evolve apart,
    and each of them splits into its even-nb and odd-nb halves, which
    :func:`_propagate` runs at half the cost of the whole.  A part that is
    exactly zero stays zero and is not propagated: from the vacuum, on which
    W is 1, that leaves the real even half alone.
    """
    rotated = psi * sector.phase.conj()
    out = np.zeros(psi.size, dtype=complex)
    for part, dest in ((rotated.real, out.real), (rotated.imag, out.imag)):
        for first, half in enumerate(_halves(sector)):
            if part[half].any():
                x = np.zeros(psi.size)
                x[half] = part[half]
                dest += _propagate(sector, first, x, t)
    out *= sector.phase
    return out


def evolve_exact(state: FockState, hamiltonian: SectorHamiltonian, t: float,
                 leak_tol: float = DEFAULT_LEAK_TOL) -> FockState:
    """Apply exp(-i H t) to the state, with no approximation knobs.

    Only the sectors of H that the state's nonzero amplitudes occupy are
    built and propagated; every other amplitude stays exactly zero.  Each
    occupied block is propagated by a Chebyshev series whose length is fixed
    in advance, so that the terms it drops sum below the unit roundoff.
    The result holds the states of the occupied sectors, sorted once by
    flat index.

    Raises :class:`TruncationError` when the propagated state puts more than
    ``leak_tol`` population on the top level of any mode, since observables
    are then contaminated by the basis cutoff.  A NaN or negative
    ``leak_tol`` raises :class:`StateError`.
    """
    if hamiltonian.dims != state.dims:
        raise StateError(
            f"Hamiltonian dims {hamiltonian.dims!r} do not match state dims {state.dims!r}"
        )
    if not math.isfinite(t):
        raise StateError(f"t must be finite, got {t!r}")
    if not leak_tol >= 0.0:
        raise StateError(f"leak_tol must be >= 0, got {leak_tol!r}")
    if t == 0.0:
        return state
    n1, n2, nb = np.unravel_index(state.support, state.dims)
    sectors = [hamiltonian.sector(int(ell)) for ell in np.unique(n1 - n2 - nb)]
    support = np.concatenate([sector.states for sector in sectors])
    evolved = np.concatenate([
        _evolve_sector(sector, _gather(state.support, state.values, sector.states), t)
        for sector in sectors])
    # the one sort, by flat index, before the norm sums in that order
    ascending = np.argsort(support)
    support, evolved = support[ascending], evolved[ascending]
    norm = _norm(evolved)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise StateError(f"propagation lost unitarity: norm {norm!r}")
    out = FockState(state.dims, support, evolved / norm)
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


def _inner_product(bra: tuple, support: np.ndarray, values: np.ndarray) -> complex:
    """<bra|ket> of the ket held at ``support``, conjugated and multiplied in the gathered array."""
    terms = _gather(*bra, support)
    np.conj(terms, out=terms)
    terms *= values
    return terms.sum()


def _inner_products(bra: tuple, kets: list) -> np.ndarray:
    """<bra|ket> for each ket, every vector held as (ascending support, values)."""
    return np.array([_inner_product(bra, support, values) for support, values in kets])


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
    means = np.array([float((pop * n).sum()) for n in levels])

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

    return FockObservables(
        mean_photons=means,
        covariance=cov,
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


def suggest_dims(r: float, leak_target: float = 1e-12) -> tuple:
    """Truncation dimensions for a half-period run at coupling ratio r (vacuum start).

    Sizes each mode from the geometric tail of its worst-case occupation along
    the evolution, from n = ``Couplings.n_mean``: the cavity modes end with
    mean occupation n, the motion transiently reaches (1 + sqrt(1 + n))/2 =
    r^2/(r^2 - 1).  Each size is the tail's plus 2, and at least 4.  A mode
    whose tail ratio q = n/(1 + n) has 1 - q at or below ``leak_target``
    meets the criterion at every size, so r - 1 below about 1e-6 at the
    default target raises :class:`StateError`.
    """
    _require_finite_r(r, "suggest_dims")
    if not 0.0 < leak_target < 1.0:
        raise StateError(f"suggest_dims needs a leak_target in (0, 1), got {leak_target!r}")

    def tail_dim(nbar: float) -> int:
        # smallest d with (1-q) q^(d-1) <= leak_target, for q = nbar/(1+nbar)
        q = nbar / (1.0 + nbar)
        if q <= 0.0:
            return 4
        if not 1.0 - q > leak_target:    # then every d meets the criterion
            raise StateError(f"suggest_dims: r = {r!r} is too close to 1 for a finite basis")
        d = 1 + math.ceil(math.log(leak_target / (1.0 - q)) / math.log(q))
        return max(4, d + 2)

    n = Couplings.from_chis(1.0, r).n_mean
    d_cav = tail_dim(n)
    return (d_cav, d_cav, tail_dim(0.5 * (1.0 + math.sqrt(1.0 + n))))


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
    labels = gaussian.SIMULTANEOUS_LABELS
    (pulse,) = protocol.simultaneous_stages(couplings)
    (g_state,) = protocol.run_stages(gaussian.vacuum(3, labels), (pulse,))
    hamiltonian = hamiltonian_matrix(couplings.chi1, couplings.chi2, dims)
    obs = observables(evolve_exact(vacuum_state(dims), hamiltonian, pulse.t))
    f_state = gaussian.GaussianState(labels, obs.covariance)

    rows = [(f"photons {label}", gaussian.mean_photons(g_state, label),
             float(obs.mean_photons[k])) for k, label in enumerate(labels)]
    for name, thetas in (("EPR var X1-X2", (0.0, 0.0)),
                         ("EPR var P1+P2", (math.pi / 2, -math.pi / 2))):
        rows.append((name, gaussian.epr_variance(g_state, "cav1", "cav2", *thetas),
                     gaussian.epr_variance(f_state, "cav1", "cav2", *thetas)))
    rows.append(("max |cov| diff", 0.0,
                 float(np.max(np.abs(g_state.cov - obs.covariance)))))
    return Crosscheck(dims=dims, observables=obs, rows=tuple(rows))
