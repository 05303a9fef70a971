"""Multimode Gaussian states and exact linear (symplectic + lossy) evolution.

Quadrature convention used everywhere in this package:

    X = a + a_dag,  P = -i (a - a_dag),  so  [X, P] = 2i

and the vacuum has <X^2> = <P^2> = 1 (identity covariance).  With this
normalization a rotated quadrature q(theta) = a e^{i theta} + a_dag e^{-i theta}
has unit vacuum variance for every theta, which is the reference ("shot
noise") level of the homodyne signal downstream.  This is a classic source of
factor-of-two bugs against conventions with vacuum variance 1/2; all formulas
in this module are written for variance 1.

A state is ``(mode_labels, cov)``: a real symmetric 2N x 2N matrix of
symmetrized second moments over the quadratures (X1, P1, X2, P2, ...).
Every state is centred: the vacuum and the thermal state have zero first
moments, and the quadratic Hamiltonians here have no linear term, so every
map keeps them zero and the covariance holds the whole state.  Physicality
means every symplectic eigenvalue of cov is >= 1, decided up to the
round-off bound of :func:`_spectrum_bound` by one Hermitian Cholesky, with
no eigenvalue solver.  :func:`log_negativity` takes a closed form on each
two-mode block of modes that crosses its cut; only a block of three or more
correlated modes needs :func:`symplectic_eigenvalues`, which is also the
general route for a spectrum.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import StateError, UnphysicalStateError, require_half_period
from .params import TWO_PI, Couplings

SYMMETRY_TOL = 1e-12
SIMULTANEOUS_LABELS = ("cav1", "cav2", "motion")     # the modes of the simultaneous pulse

# Double precision resolves the symplectic spectrum of cov only to about
# eps * ||cov||_F^2: the symplectic eigenvalues inherit the conditioning of
# cov, whichever route computes or tests them (an eigenvalue solver, the
# Cholesky of _spectrum_bound, the closed form of _two_mode_pt_nu).  Whether
# some nu is below 1 is decided against that bound, and past SPECTRUM_LIMIT
# it cannot be decided at all.
# Up to a bound of 1e-4 the E_N of the two-mode squeezed and the sequential
# states agrees with its closed form to 2e-6 relative (worst of a dense
# sweep); at 7e-3 (r - 1 = 1e-3) it is off by 6e-5, at pulse area 10 by 0.1.
# The one limit thus bounds how close r may come to 1 and how large nbar and
# the pulse areas may grow.
SPECTRUM_LIMIT = 1e-4
_EPS = float(np.finfo(float).eps)


@functools.cache
def _i_omega(n_modes: int) -> np.ndarray:
    """i Omega over ``n_modes`` modes: +i at (2k, 2k + 1) and -i at (2k + 1, 2k)."""
    out = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    x = np.arange(0, 2 * n_modes, 2)
    out[x, x + 1] = 1j
    out[x + 1, x] = -1j
    out.setflags(write=False)
    return out


def _spectrum_bound(cov: np.ndarray) -> float:
    """Round-off bound b = eps * ||cov||_F^2 on the symplectic eigenvalues of cov.

    Raises :class:`StateError` when b is not finite (a NaN or infinite
    covariance entry, or one too large to square) or exceeds
    ``SPECTRUM_LIMIT``, and :class:`UnphysicalStateError` when the smallest
    symplectic eigenvalue of cov is below 1 by more than b.  By Williamson's
    theorem cov + c i Omega is positive definite exactly when every
    symplectic eigenvalue exceeds c, so one Hermitian Cholesky of
    cov + (1 - b) i Omega decides it; the spectrum itself is computed only
    for the refusal's message.
    """
    bound = _EPS * float(np.vdot(cov, cov))
    if not math.isfinite(bound):
        raise StateError(
            f"round-off bound eps*||cov||^2 = {bound!r} is not finite: the covariance "
            "has a NaN or infinite entry, or one too large to square"
        )
    if not bound <= SPECTRUM_LIMIT:
        raise StateError(
            f"round-off bound eps*||cov||^2 = {bound:.3g} is not within {SPECTRUM_LIMIT:g}: "
            "double precision cannot resolve the symplectic spectrum "
            "(r too close to 1, or nbar or a pulse area too large)"
        )
    try:
        np.linalg.cholesky(cov + (1.0 - bound) * _i_omega(cov.shape[0] // 2))
    except np.linalg.LinAlgError:
        nu_min = float(symplectic_eigenvalues(cov)[0])
        raise UnphysicalStateError(
            f"covariance violates the uncertainty relation: smallest symplectic "
            f"eigenvalue {nu_min!r} is below 1 by more than the round-off bound {bound:.3g}"
        ) from None
    return bound


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    ``cov`` is one 2N x 2N matrix or a stack of them, shape (..., 2N, 2N);
    a stack gives one spectrum per matrix, shape (..., N).  Computed as the
    moduli of the eigenvalues of i*Omega*cov, which come in +/- pairs; one
    representative of each pair is returned.  i*Omega*cov is cov with the
    rows of each mode swapped, times +i and -i: it is built entry by entry
    equal to the product, without Omega or a matrix product.
    """
    i_omega_cov = np.zeros(cov.shape, dtype=complex)
    i_omega_cov.imag[..., 0::2, :] = cov[..., 1::2, :]
    i_omega_cov.imag[..., 1::2, :] = -cov[..., 0::2, :]
    moduli = np.sort(np.abs(np.linalg.eigvals(i_omega_cov)), axis=-1)
    return moduli[..., ::2].copy()


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Centred Gaussian state over labelled bosonic modes.

    Construction copies the covariance, refuses an entry that is not
    finite, and validates symmetry of the covariance (to 1e-12) and
    physicality: every symplectic eigenvalue must be >= 1 - b, with
    b = eps * ||cov||_F^2 the round-off bound of the spectrum, and b must
    not exceed ``SPECTRUM_LIMIT``.  The states this module returns (maps of
    states already known to be physical) are built by :meth:`_made`, which
    skips the copy and the checks.
    """

    mode_labels: tuple
    cov: np.ndarray

    def __post_init__(self):
        labels = tuple(self.mode_labels)
        _check_labels(labels)
        cov = np.asarray(self.cov, dtype=float)
        n = len(labels)
        if cov.shape != (2 * n, 2 * n):
            raise StateError(f"shape mismatch: {n} modes need cov (2N, 2N), got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise StateError("covariance has an entry that is not finite (NaN or infinite)")
        asym = np.max(np.abs(cov - cov.T))
        if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise StateError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mode_labels", labels)
        object.__setattr__(self, "cov", cov)
        _spectrum_bound(cov)
        cov.setflags(write=False)

    @classmethod
    def _made(cls, labels: tuple, cov: np.ndarray) -> "GaussianState":
        """A state from a float covariance of the right shape that nothing else holds.

        Keeps the label checks and freezes the array, which it takes as it
        is: no copy, no symmetry scan, no physicality check.  The caller
        makes cov exactly symmetric.
        """
        _check_labels(labels)
        state = object.__new__(cls)
        vars(state).update(mode_labels=labels, cov=cov)
        cov.setflags(write=False)
        return state

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def mode_index(self, label) -> int:
        return _label_index(self.mode_labels, label)

    def quad_indices(self, labels: Iterable) -> list:
        """Flat quadrature indices (X then P per mode) for the given labels.

        A label named twice raises :class:`StateError`: ``reduced``,
        ``log_negativity`` and ``decorrelation_norm`` read their mode sets
        through here, and would count such a mode twice.
        """
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise StateError(f"duplicate mode labels: {labels!r}")
        out = []
        for label in labels:
            k = self.mode_index(label)
            out.extend((2 * k, 2 * k + 1))
        return out

    def reduced(self, labels: Sequence) -> "GaussianState":
        """Reduced state of a subset of modes (partial trace over the rest)."""
        idx = self.quad_indices(labels)
        return GaussianState._made(tuple(labels), self.cov.take(idx, 0).take(idx, 1))


def _check_labels(labels: tuple) -> None:
    """Refuse a state with no modes, or with a label named twice."""
    if not labels:
        raise StateError("need at least one mode, got 0")
    if len(set(labels)) != len(labels):
        raise StateError(f"duplicate mode labels: {labels!r}")


def _label_index(labels: tuple, label) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise StateError(f"unknown mode label {label!r}; have {labels!r}") from None


def vacuum(n_modes: int, labels: Optional[Sequence] = None) -> GaussianState:
    """Vacuum of ``n_modes`` modes: identity covariance."""
    if n_modes < 1:
        raise StateError(f"need at least one mode, got {n_modes!r}")
    if labels is None:
        labels = tuple(f"mode{k}" for k in range(n_modes))
    elif len(labels) != n_modes:
        raise StateError("number of labels must match n_modes")
    return _thermal_product(tuple(labels), (0.0,) * n_modes)


def thermal(nbar: float, label="motion") -> GaussianState:
    """Single-mode thermal state with mean occupation ``nbar``.

    cov = (2 nbar + 1) * identity; nbar = 0 gives the vacuum.  A negative,
    NaN or infinite ``nbar``, or one for which 2 nbar + 1 overflows double
    precision, raises :class:`StateError`.
    """
    return _thermal_product((label,), (nbar,))


def _thermal_product(labels: tuple, nbars: Sequence) -> GaussianState:
    """One thermal state per label (nbar 0 the vacuum): the diagonal covariance 2 nbar + 1."""
    variances = []
    for nbar in nbars:
        if not 0.0 <= nbar < math.inf:
            raise StateError(f"nbar must be finite and >= 0, got {nbar!r}")
        variance = 2.0 * nbar + 1.0
        if variance == math.inf:
            raise StateError(f"2 nbar + 1 overflows double precision, got nbar = {nbar!r}")
        variances += (variance, variance)
    return GaussianState._made(labels, np.diag(variances))


def tensor(*states: GaussianState) -> GaussianState:
    """Product state of independent Gaussian states (labels must not clash)."""
    labels = tuple(l for s in states for l in s.mode_labels)
    n = len(labels)
    cov = np.zeros((2 * n, 2 * n))
    offset = 0
    for s in states:
        d = 2 * s.n_modes
        cov[offset:offset + d, offset:offset + d] = s.cov
        offset += d
    return GaussianState._made(labels, cov)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def mean_photons(state: GaussianState, mode) -> float:
    """Mean photon number of one mode: (<X^2> + <P^2> - 2)/4."""
    k = state.mode_index(mode)
    return float(state.cov[2 * k, 2 * k] + state.cov[2 * k + 1, 2 * k + 1] - 2.0) / 4.0


def epr_variance(state: GaussianState, mode_i, mode_j,
                 theta_i: float = 0.0, theta_j: float = 0.0) -> float:
    """Variance of q_i(theta_i) - q_j(theta_j), q(theta) = X cos(theta) - P sin(theta).

    With theta = (0, 0) this is Var(X_i - X_j); with (pi/2, -pi/2) it is
    Var(P_i + P_j).  Two independent vacua give 2 (the shot-noise reference),
    so values below 2 witness EPR-type correlations.  An angle outside
    [-2 pi, 2 pi], NaN and infinities included, raises :class:`StateError`:
    far past it the cos and sin are round-off.
    """
    if mode_i == mode_j:
        raise StateError("epr_variance needs two distinct modes")
    for name, theta in (("theta_i", theta_i), ("theta_j", theta_j)):
        if not abs(theta) <= TWO_PI:
            raise StateError(f"epr_variance needs a finite {name} in [-2 pi, 2 pi], got {theta!r}")
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
    transposed covariance matrix, where "< 1" means below 1 by more than the
    round-off bound b = eps * ||cov||_F^2; so E_N is exactly zero for every
    separable Gaussian state.  Raises :class:`StateError` when b exceeds
    ``SPECTRUM_LIMIT``: double precision cannot resolve such a spectrum.

    The modes fall into blocks that share no covariance entry (see
    :func:`_mode_blocks`), and E_N is summed over the blocks that cross the
    cut.  A two-mode block takes the closed form of
    :func:`_two_mode_pt_nu`; a larger one, the spectrum of its partial
    transpose.
    """
    part = tuple(partition)
    if not part:
        raise StateError("partition must name at least one mode")
    rest = [l for l in state.mode_labels if l not in part]
    if not rest:
        raise StateError("partition must be a strict subset of the modes")
    cut = {q // 2 for q in state.quad_indices(part)[::2]}
    bound = _spectrum_bound(state.cov)
    rows = state.cov.tolist()
    total = 0.0
    for block in _mode_blocks(rows):
        inside = [k in cut for k in block]
        if all(inside) or not any(inside):
            continue
        if len(block) == 2:
            nus = (_two_mode_pt_nu(rows, *block),)
        else:
            idx = [q for k in block for q in (2 * k, 2 * k + 1)]
            pt = state.cov.take(idx, 0).take(idx, 1)
            # Partial transposition flips the sign of P on the transposed
            # modes: of each such P row and column, the entry they share
            # keeps its sign.
            for p, flip in zip(range(1, len(idx), 2), inside):
                if flip:
                    pt[p] *= -1.0
                    pt[:, p] *= -1.0
            nus = symplectic_eigenvalues(pt)
        # Eigenvalues within the bound of 1 carry no negativity.  A state
        # that passed the check has every nu >= 1/||cov||_F > 1e-6, so ln(nu)
        # is finite.
        total += sum(-math.log(v) for v in nus if v < 1.0 - bound)
    return total


def _mode_blocks(rows: list) -> list:
    """The modes of a covariance, given as nested lists, grouped into blocks.

    Two modes share a block when their 2x2 cross block has a nonzero entry,
    exactly, with no tolerance; a block is the closure of that relation.
    The blocks come in the order of their first mode, each listing its
    modes in ascending order.
    """
    n = len(rows) // 2
    label = list(range(n))
    for i in range(n):
        x, p = rows[2 * i], rows[2 * i + 1]
        for j in range(i + 1, n):
            if x[2 * j] or x[2 * j + 1] or p[2 * j] or p[2 * j + 1]:
                old, new = label[j], label[i]
                label = [new if b == old else b for b in label]
    blocks = {}
    for k, b in enumerate(label):
        blocks.setdefault(b, []).append(k)
    return list(blocks.values())


def _two_mode_pt_nu(rows: list, i: int, j: int) -> float:
    """Smaller symplectic eigenvalue of the partial transpose of the block of modes i, j.

    With A, B and C the 2x2 blocks of mode i, mode j and their cross terms,
    and Delta~ = det A + det B - 2 det C (partial transposition flips the
    sign of det C),

        nu~_-^2 = 2 det sigma / (Delta~ + sqrt(Delta~^2 - 4 det sigma))

    (Serafini, Quantum Continuous Variables, 2017; Vidal and Werner, PRA
    65, 032314, 2002), a form without cancellation.  The discriminant is
    clamped at 0 against round-off.  det sigma is the product of the
    block's pivots in Gaussian elimination without row exchanges (the
    diagonal of its LDL^T Cholesky factor): a cofactor expansion loses
    digits.  The larger eigenvalue nu~_+ is >= 1 for every physical state,
    so it carries no negativity.
    """
    q = (2 * i, 2 * i + 1, 2 * j, 2 * j + 1)
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), \
        (a30, a31, a32, a33) = ([rows[p][k] for k in q] for p in q)
    delta = (a00 * a11 - a01 * a10) + (a22 * a33 - a23 * a32) - 2.0 * (a02 * a13 - a03 * a12)
    # det sigma: eliminate below each pivot in turn, over both triangles
    f1, f2, f3 = a10 / a00, a20 / a00, a30 / a00
    b11, b12, b13 = a11 - f1 * a01, a12 - f1 * a02, a13 - f1 * a03
    b21, b22, b23 = a21 - f2 * a01, a22 - f2 * a02, a23 - f2 * a03
    b31, b32, b33 = a31 - f3 * a01, a32 - f3 * a02, a33 - f3 * a03
    g2, g3 = b21 / b11, b31 / b11
    c22, c23 = b22 - g2 * b12, b23 - g2 * b13
    c32, c33 = b32 - g3 * b12, b33 - g3 * b13
    det = a00 * b11 * c22 * (c33 - c32 / c22 * c23)
    return math.sqrt(2.0 * det / (delta + math.sqrt(max(delta * delta - 4.0 * det, 0.0))))


def decorrelation_norm(state: GaussianState, block_a: Sequence, block_b: Sequence) -> float:
    """Frobenius norm of the cross-covariance block between two mode sets.

    Zero if and only if the two blocks are uncorrelated at the level of
    second moments (for Gaussian states: fully decorrelated).  An empty
    mode set raises :class:`StateError`: it would read as decorrelated.
    """
    a = tuple(block_a)
    b = tuple(block_b)
    if not (a and b):
        raise StateError("each mode set must name at least one mode")
    if set(a) & set(b):
        raise StateError(f"mode sets overlap: {set(a) & set(b)!r}")
    ia = state.quad_indices(a)
    ib = state.quad_indices(b)
    # take keeps the block in C order, which sets the order the norm sums in
    return float(np.linalg.norm(state.cov.take(ia, 0).take(ib, 1)))


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


def drift(labels: Sequence, terms: Iterable) -> np.ndarray:
    """Drift A of the quadratic Hamiltonian given as a list of terms over ``labels``.

    The sum of each term's quadrature block (see :func:`_term_block`).  The
    EXCHANGE and the PAIR blocks are summed apart and then added, as the
    matrices M and N of da/dt = M a + N a_dag would be, so that each entry
    rounds as it does on that route.
    """
    labels = tuple(labels)
    exchange, pair = np.zeros((2, 2 * len(labels), 2 * len(labels)))
    for term in terms:
        i, j, block = _term_block(labels, term)
        part = pair if term[0] == PAIR else exchange
        part[2 * i:2 * i + 2, 2 * j:2 * j + 2] += block[:2, 2:]
        part[2 * j:2 * j + 2, 2 * i:2 * i + 2] += block[2:, :2]
    return exchange + pair


def _term_block(labels: tuple, term) -> tuple:
    """(i, j, block): a term's modes and its drift on their quadratures (X_i, P_i, X_j, P_j).

    The block is the Heisenberg equations of PAIR or EXCHANGE (above) with
    chi = x + i y.  A term on an unknown label, of an unknown kind, or with a
    chi that is not finite raises :class:`StateError`.
    """
    kind, mode_a, mode_b, chi = term
    i, j = _label_index(labels, mode_a), _label_index(labels, mode_b)
    chi = complex(chi)
    if not cmath.isfinite(chi):
        raise StateError(f"a term's chi must be finite, got {chi!r}")
    x, y = chi.real, chi.imag
    if kind == PAIR:
        block = ((0.0, 0.0, x, y), (0.0, 0.0, y, -x), (x, y, 0.0, 0.0), (y, -x, 0.0, 0.0))
    elif kind == EXCHANGE:
        block = ((0.0, 0.0, x, -y), (0.0, 0.0, y, x), (-x, -y, 0.0, 0.0), (y, -x, 0.0, 0.0))
    else:
        raise StateError(f"unknown term kind {kind!r}")
    return i, j, np.array(block)


def simultaneous_terms(chi1: complex, chi2: complex) -> tuple:
    """The simultaneous pulse's terms, H = i chi1 a1_dag b_dag + i chi2 a2_dag b + h.c."""
    cav1, cav2, motion = SIMULTANEOUS_LABELS
    return ((PAIR, cav1, motion, chi1), (EXCHANGE, cav2, motion, chi2))


def dynamics_from_couplings(chi1: complex, chi2: complex,
                            kappa: float = 0.0) -> LinearDynamics:
    """Drift/diffusion for the driven three-mode system (cav1, cav2, motion).

    The terms of :func:`simultaneous_terms` and the cavity decay kappa give

        da1/dt = chi1 * b_dag - kappa * a1
        da2/dt = chi2 * b     - kappa * a2
        db/dt  = chi1 * a1_dag - conj(chi2) * a2

    with 2 kappa of vacuum noise per cavity quadrature, so the vacuum is a
    fixed point of pure decay.  kappa = 0 is the lossless drive.  A kappa
    that is negative or not finite raises :class:`StateError`.
    """
    if not 0.0 <= kappa < math.inf:
        raise StateError(f"kappa must be finite and >= 0, got {kappa!r}")
    a = drift(SIMULTANEOUS_LABELS, simultaneous_terms(chi1, chi2))
    cavities = np.arange(4)             # X and P of cav1 and cav2
    a[cavities, cavities] -= kappa
    d = np.zeros(a.shape)
    d[cavities, cavities] = 2.0 * kappa
    return LinearDynamics(drift=a, diffusion=d)


def term_propagator(labels: Sequence, term, t: float) -> np.ndarray:
    """Symplectic matrix exp(A t) of one PAIR or EXCHANGE term, in closed form.

    A is the :func:`drift` of the term alone, its :func:`_term_block` on the
    two modes' quadratures.  It squares to +|chi|^2 (PAIR) or -|chi|^2
    (EXCHANGE) on them, so with P the projector onto them

        exp(A t) = I + (c - 1) P + (s / |chi|) A,

    where (c, s) = (cosh, sinh)(|chi| t) for the two-mode squeezer and
    (cos, sin)(|chi| t) for the beam splitter.  chi = 0 gives the identity.
    An area |chi| t that overflows double precision, or a squeezer whose
    cosh does, raises :class:`StateError`.
    """
    if not 0.0 <= t < math.inf:
        raise StateError(f"t must be finite and >= 0, got {t!r}")
    kind, mode_a, mode_b, chi = term
    if mode_a == mode_b:
        raise StateError(f"a term must couple two distinct modes, got {mode_a!r} twice")
    labels = tuple(labels)
    i, j, block = _term_block(labels, term)
    rate = abs(complex(chi))
    out = np.eye(2 * len(labels))
    if rate == 0.0:
        return out
    angle = rate * t
    if angle == math.inf:
        raise StateError(f"{kind} area |chi| t = {angle!r} overflows double precision")
    if kind == PAIR:
        try:
            c, s = math.cosh(angle), math.sinh(angle)
        except OverflowError:
            raise StateError(f"pair area |chi| t = {angle!r} overflows double precision") from None
    else:
        c, s = math.cos(angle), math.sin(angle)
    local = (s / rate) * block + 0.0    # + 0.0: each zero entry is +0.0, as in I + (s/|chi|) A
    local.flat[::5] = c
    q = np.array((2 * i, 2 * i + 1, 2 * j, 2 * j + 1))
    out[q[:, None], q] = local
    return out


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    """The state after the linear map S: covariance S cov S^T.

    The covariance is symmetrised, 0.5 (C + C^T), since the two triangles
    of the product round differently.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != state.cov.shape:
        raise StateError(f"shape mismatch: a map of {state.n_modes} modes must be "
                         f"{state.cov.shape}, got {s.shape}")
    cov = s @ state.cov @ s.T
    return GaussianState._made(state.mode_labels, 0.5 * (cov + cov.T))


# Numerator coefficients of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of a real square matrix, by scaling and squaring.

    The [13/13] Pade approximant of exp(A / 2^s), squared s times, with s
    the least integer that brings ||A||_1 / 2^s to at most 5.37 (Higham,
    SIAM J. Matrix Anal. Appl. 26, 2005).  Only numpy's ``@`` and
    ``linalg.solve`` are used: scipy's LAPACK path leaves OpenBLAS helper
    threads spinning after each call, even on 6x6 matrices.
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not norm < math.inf:
        raise StateError(f"matrix exponential of a non-finite matrix (1-norm {norm!r})")
    ident = np.eye(a.shape[0])
    if norm == 0.0:
        return ident
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    a = a / 2.0 ** s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


def evolve(state: GaussianState, dynamics: LinearDynamics, t: float) -> GaussianState:
    """Propagate a state for time t under linear dynamics, exactly.

    Uses the matrix exponential of the drift; the diffusion integral
    int_0^t e^{As} D e^{A^T s} ds is evaluated in closed form through one
    augmented (block upper-triangular) exponential, so there is no step-size
    parameter and no integration error beyond expm round-off.  With D = 0
    the integral block of that exponential is exactly 0.  The lossless
    protocols use the closed forms :func:`bogoliubov_tpi` and
    :func:`term_propagator` instead; this route is their cross-check and the
    only one with decay.
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
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = d
    block[n:, n:] = a.T
    w = expm(block * t)
    propagator = w[n:, n:].T            # e^{A t}
    integral = propagator @ w[:n, n:]   # int_0^t e^{As} D e^{A^T s} ds
    integral = 0.5 * (integral + integral.T)
    cov = propagator @ state.cov @ propagator.T + integral
    return GaussianState._made(state.mode_labels, 0.5 * (cov + cov.T))


# ---------------------------------------------------------------------------
# analytic half-period map and the squeezed target state
# ---------------------------------------------------------------------------

def bogoliubov_tpi(couplings: Couplings) -> np.ndarray:
    """The exact half-period map as a 6x6 symplectic matrix (cav1, cav2, motion).

    After one half-period the modes have undergone

        a1 -> u a1 - v a2_dag,   a2 -> v a1_dag - u a2,   b -> -b

    with u = cosh s = sqrt(1 + n) and v = sinh s e^{i beta} = sqrt(n) e^{i beta},
    read from the couplings' photons per mode n = ``n_mean`` and phase beta
    (u^2 - |v|^2 = 1).  Requires |chi2| > |chi1|; chi1 = 0 is the trivial
    limit u = 1, v = 0.  The quadrature rows are written with v = x + i y.
    """
    require_half_period(couplings.r)
    n = couplings.n_mean
    u = math.sqrt(1.0 + n)
    v = math.sqrt(n) * np.exp(1j * (couplings.beta or 0.0))
    x, y = v.real, v.imag
    return np.array([[u, 0.0, -x, -y, 0.0, 0.0],
                     [0.0, u, -y, x, 0.0, 0.0],
                     [x, y, -u, 0.0, 0.0, 0.0],
                     [y, -x, 0.0, -u, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0, -1.0]])


def tmss(r: float, beta: float = 0.0) -> GaussianState:
    """Two-mode squeezed vacuum produced by the half-period map, over (cav1, cav2).

    The squeezing parameter s follows from the coupling ratio r > 1 through
    cosh(s) = (1 + r^2)/(r^2 - 1) and sinh(s) = 2r/(r^2 - 1); ``beta`` is the
    phase of the cross-correlations (arg chi1 + arg chi2).  Mean photons per
    mode is sinh(s)^2 = 4 r^2/(1 - r^2)^2.  It is computed from x = 1/r, so a
    finite r large enough that x^2 underflows gives the vacuum.

    A NaN or infinite r raises :class:`StateError`: r = inf would be the
    vacuum, the limit of large r, but no coupling ratio is infinite, so it
    is refused rather than read as that limit.  So does a ``beta`` outside
    [-2 pi, 2 pi], NaN and infinities included.  r <= 1 has no half-period
    and raises :class:`UndefinedPeriodError`.
    """
    if not math.isfinite(r):
        raise StateError(f"tmss needs a finite r, got {r!r}")
    if not abs(beta) <= TWO_PI:
        raise StateError(f"tmss needs a finite beta in [-2 pi, 2 pi], got {beta!r}")
    require_half_period(r)
    x = 1.0 / r
    denom = 1.0 - x * x
    cosh_s = (1.0 + x * x) / denom
    sinh_s = 2.0 * x / denom
    cosh_2s = cosh_s ** 2 + sinh_s ** 2
    sinh_2s = 2.0 * cosh_s * sinh_s
    cb, sb = math.cos(beta), math.sin(beta)
    cross = sinh_2s * np.array([[cb, sb], [sb, -cb]])
    cov = np.block([[cosh_2s * np.eye(2), cross],
                    [cross.T, cosh_2s * np.eye(2)]])
    return GaussianState._made(SIMULTANEOUS_LABELS[:2], cov)
