import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from conftest import lossless_reference, mutated
from ionlight import fock_oracle, gaussian, protocol
from ionlight.cli import ORACLE_TOL
from ionlight.errors import StateError, TruncationError, UndefinedPeriodError
from ionlight.fock_oracle import (FockState, evolve_exact, hamiltonian_matrix,
                                  leakage, observables, suggest_dims,
                                  vacuum_state)
from ionlight.params import Couplings


def dense_state(dims, vec):
    """The FockState of an amplitude vector over the whole product basis."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    assert vec.size == dims[0] * dims[1] * dims[2]
    support = np.flatnonzero(vec)
    return FockState(dims, support, vec[support])


def dense_vector(state):
    """The amplitudes of a FockState over the whole product basis."""
    vec = np.zeros(state.dims[0] * state.dims[1] * state.dims[2], dtype=complex)
    vec[state.support] = state.values
    return vec


def number_operator(dims, mode):
    ops = [sp.identity(d, format="csr") for d in dims]
    ops[mode] = sp.diags(np.arange(dims[mode], dtype=float), format="csr")
    return sp.kron(sp.kron(ops[0], ops[1]), ops[2], format="csr")


def half_period(r):
    return math.pi / math.sqrt(r**2 - 1.0)


def kron_hamiltonian(chi1, chi2, dims):
    """Reference build of H from ladder operators and three-way Kronecker products."""
    def lower(d):
        return sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")

    eye1, eye2, eyeb = (sp.identity(d, format="csr") for d in dims)
    a1 = sp.kron(sp.kron(lower(dims[0]), eye2), eyeb, format="csr")
    a2 = sp.kron(sp.kron(eye1, lower(dims[1])), eyeb, format="csr")
    b = sp.kron(sp.kron(eye1, eye2), lower(dims[2]), format="csr")
    half = (1j * complex(chi1)) * (a1.conj().T @ b.conj().T) \
        + (1j * complex(chi2)) * (a2.conj().T @ b)
    return (half + half.conj().T).tocsr()


def index_hamiltonian(chi1, chi2, dims):
    """Reference build of H from the flat index of every product state, through COO."""
    d1, d2, db = dims
    size = d1 * d2 * db
    n1, n2, nb = np.indices(dims).reshape(3, -1)
    flat = np.arange(size)
    pair = (n1 < d1 - 1) & (nb < db - 1)     # a1+ b+ stays in the basis
    exch = (n2 < d2 - 1) & (nb > 0)          # a2+ b stays in the basis
    cols = np.concatenate([flat[pair], flat[exch]])
    rows = np.concatenate([flat[pair] + d2 * db + 1, flat[exch] + db - 1])
    vals = np.concatenate([
        (1j * complex(chi1)) * (np.sqrt(n1[pair] + 1) * np.sqrt(nb[pair] + 1)),
        (1j * complex(chi2)) * (np.sqrt(n2[exch] + 1) * np.sqrt(nb[exch])),
    ])
    h = sp.coo_matrix((np.concatenate([vals, vals.conj()]),
                       (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                      shape=(size, size)).tocsr()
    h.eliminate_zeros()
    h.sort_indices()
    return h


def assembled(h):
    """Every sector's real block K scattered into the product basis, as one CSR matrix.

    A stencil slot holding 0, a padded one or a hop at chi = 0, is no entry.
    """
    d1, d2, db = h.dims
    size = d1 * d2 * db
    rows, cols, vals = [], [], []
    for ell in range(2 - d2 - db, d1):      # every value of n1 - n2 - nb
        sector = h.sector(ell)
        sector_cols, sector_vals = np.hstack(sector.cols), np.hstack(sector.vals)
        keep = sector_vals != 0
        rows.append(np.broadcast_to(sector.states, keep.shape)[keep])
        cols.append(sector.states[sector_cols[keep]])
        vals.append(sector_vals[keep])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size))


def dense_block(sector):
    """K on one sector as a dense real matrix, from its stencil."""
    size = sector.states.size
    cols = np.hstack(sector.cols)
    k = np.zeros((size, size))
    np.add.at(k, (np.broadcast_to(np.arange(size), cols.shape), cols), np.hstack(sector.vals))
    return k


def assert_matches_index_build(chi1, chi2, dims):
    """The assembled K equals -i :func:`index_hamiltonian` at |chi1|, |chi2| bit for bit.

    At real positive chis H = i K, and multiplying by -i is exact.
    """
    k = assembled(fock_oracle.hamiltonian_matrix(chi1, chi2, dims))
    ref = -1j * index_hamiltonian(abs(chi1), abs(chi2), dims)
    assert k.dtype == np.float64
    assert k.has_sorted_indices
    assert k.nnz == ref.nnz
    assert np.array_equal(k.indptr, ref.indptr)
    assert np.array_equal(k.indices, ref.indices)
    assert not ref.data.imag.any()
    assert np.array_equal(k.data, ref.data.real)


# Complex chis and a time at which rho t is about 58 in the vacuum's sector
# of (5, 5, 5), so the Chebyshev series runs to 105 terms.
LONG_CHIS = (0.7 + 0.2j, 1.9 - 0.4j)
LONG_T = 5.0


def dense_expm_gap(case, chis, t):
    """Largest |amplitude| difference between evolve_exact and dense expm on (5, 5, 5).

    The reference exponentiates :func:`index_hamiltonian` at the chis
    themselves, so the oracle's gauge and its real blocks are both checked.
    """
    dims = (5, 5, 5)
    n = 125
    h = fock_oracle.hamiltonian_matrix(*chis, dims)
    psi = np.zeros(n, dtype=complex)
    if case == "all_sectors":
        # a seeded random amplitude on every product state
        rng = np.random.default_rng(7)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
    elif case == "both_parities":
        # a seeded random amplitude on every state of the vacuum's sector, so
        # both of its nb parities, and both parts of W+ psi, are occupied
        n1, n2, nb = np.indices(dims).reshape(3, -1)
        sector = np.flatnonzero(n1 - n2 - nb == 0)
        rng = np.random.default_rng(11)
        psi[sector] = rng.standard_normal(sector.size) + 1j * rng.standard_normal(sector.size)
        psi /= np.linalg.norm(psi)
    else:
        psi[0] = 1.0
        if case == "two_sectors":
            psi[2] = 1.0        # |0, 0, 2>, sector n1 - n2 - nb = -2
            psi /= math.sqrt(2.0)
    out = fock_oracle.evolve_exact(dense_state(dims, psi), h, t, leak_tol=1.0)
    expected = scipy.linalg.expm(-1j * t * index_hamiltonian(*chis, dims).toarray()) @ psi
    return np.max(np.abs(dense_vector(out) - expected))


def assert_matches_bessel(alpha):
    """The real coefficients are J_0 and 2 J_k(alpha), and the terms past them sum below 2^-53.

    scipy's jv is the independent reference.  Each sample exp(-i alpha cos theta)
    carries a phase error of order alpha * eps, hence the tolerance.
    """
    coeffs = fock_oracle._chebyshev_coefficients(alpha)
    assert coeffs.dtype == np.float64
    k = np.arange(coeffs.size)
    expected = 2.0 * jv(k, alpha)
    expected[0] /= 2.0
    assert np.max(np.abs(coeffs - expected)) <= 1e-15 * max(1.0, abs(alpha))
    dropped = np.arange(coeffs.size, coeffs.size + 1000)
    assert 2.0 * np.sum(np.abs(jv(dropped, alpha))) <= 2.0 ** -53


complex_chis = st.builds(complex, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


# crosscheck(3.0) at suggest_dims(3.0) = (30, 30, 46) bit for bit: (rows, leakage)
R3_CROSSCHECK = (
    (("photons cav1", 0.5625, 0.5624999999999039),
     ("photons cav2", 0.5625, 0.5624999999998648),
     ("photons motion", 0.0, 3.9126787627150665e-14),
     ("EPR var X1-X2", 0.5, 0.5000000000056222),
     ("EPR var P1+P2", 0.5, 0.5000000000056222),
     ("max |cov| diff", 0.0, 3.042455176682779e-12)),
    1.2933523906108736e-13,
)


def worst_row(check):
    """Largest |Gaussian - number basis| over the rows of a crosscheck."""
    return max(abs(g_val - f_val) for _, g_val, f_val in check.rows)


def mid_pulse_gap(r=3.0):
    """Largest |covariance difference| of both engines at t_pi / 2 from the vacuum.

    Mid-pulse the motion is still correlated with the cavities, so the
    cavity-motion cross-covariances, which vanish at the half period, are
    compared too.  The Gaussian side is scipy's expm of the pulse stage's drift.
    """
    couplings = Couplings.from_chis(1.0, r)
    (pulse,) = protocol.simultaneous_stages(couplings)
    labels = protocol.SIMULTANEOUS_LABELS
    t = pulse.t / 2.0
    g_state = gaussian.GaussianState(labels, lossless_reference(labels, np.eye(6),
                                                                pulse.terms, t))
    assert gaussian.decorrelation_norm(g_state, ("motion",), ("cav1", "cav2")) > 0.1
    dims = suggest_dims(r)
    h = hamiltonian_matrix(couplings.chi1, couplings.chi2, dims)
    cov = observables(evolve_exact(vacuum_state(dims), h, t)).covariance
    return float(np.max(np.abs(cov - g_state.cov)))


def lowered(tensor, axis):
    """a|psi> along one mode axis of the amplitude tensor, by shifting the whole tensor."""
    d = tensor.shape[axis]
    shape = [1, 1, 1]
    shape[axis] = d - 1
    shifted = np.take(tensor, np.arange(1, d), axis=axis) * np.sqrt(np.arange(1, d)).reshape(shape)
    pad = [(0, 0)] * 3
    pad[axis] = (0, 1)
    return np.pad(shifted, pad)


def tensor_moments(state):
    """Photon numbers, <a_i>, <a_i+ a_j> and <a_j a_i> from the full amplitude tensor."""
    psi = dense_vector(state).reshape(state.dims)
    pop = np.abs(psi) ** 2
    photons = np.array([(pop.sum(axis=tuple(k for k in range(3) if k != axis))
                         * np.arange(psi.shape[axis])).sum() for axis in range(3)])
    low = [lowered(psi, axis) for axis in range(3)]
    disp = np.array([np.vdot(psi, x) for x in low])
    n_raw = np.array([[np.vdot(low[i], low[j]) for j in range(3)] for i in range(3)])
    s_raw = np.array([[np.vdot(psi, lowered(low[i], j)) for j in range(3)] for i in range(3)])
    return photons, disp, n_raw, s_raw, pop.sum(axis=2)


def assert_matches_tensor_moments(state):
    """``observables`` agrees with the moments of the full amplitude tensor."""
    photons, disp, n_raw, s_raw, joint = tensor_moments(state)
    obs = observables(state)
    scale = max(1.0, float(np.max(np.abs(obs.covariance))))
    assert np.max(np.abs(obs.mean_photons - photons)) <= 1e-13 * scale
    assert np.max(np.abs(obs.covariance - covariance_from_moments(disp, n_raw, s_raw))) \
        <= 1e-13 * scale
    assert np.max(np.abs(obs.joint_photon_distribution - joint)) <= 1e-13
    pop = np.abs(dense_vector(state).reshape(state.dims)) ** 2
    top = max(pop[-1].sum(), pop[:, -1].sum(), pop[:, :, -1].sum())
    assert abs(obs.leakage - top) <= 1e-13


def covariance_from_moments(disp, n_raw, s_raw):
    """Symmetrised quadrature covariance (X = a + a+, P = -i(a - a+)) of the moments."""
    n = n_raw - np.outer(disp.conj(), disp)
    s = s_raw - np.outer(disp, disp)
    cov = np.empty((6, 6))
    cov[0::2, 0::2] = 2 * s.real + 2 * n.real + np.eye(3)
    cov[0::2, 1::2] = 2 * s.imag + 2 * n.imag
    cov[1::2, 0::2] = 2 * s.imag - 2 * n.imag
    cov[1::2, 1::2] = -2 * s.real + 2 * n.real + np.eye(3)
    return 0.5 * (cov + cov.T)


def sparse_random_state():
    """A seeded state on dims (4, 5, 3) with about 30% of its amplitudes nonzero."""
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    vec[rng.random(60) >= 0.3] = 0.0
    return dense_state((4, 5, 3), vec / np.linalg.norm(vec))


@st.composite
def fock_states(draw):
    """Normalised states on dims up to 6, with dense or sparse random supports."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=3, max_size=3)))
    size = dims[0] * dims[1] * dims[2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    density = draw(st.sampled_from([1.0, 0.3, 0.05]))
    vec[rng.random(size) >= density] = 0.0
    vec[draw(st.integers(0, size - 1))] += 1.0
    return dense_state(dims, vec / np.linalg.norm(vec))


class TestHamiltonian:
    def test_overflowing_rates_refused_before_any_block(self):
        # the row sums of |K| at r = 1e307 on suggest_dims' basis pass the largest double
        dims = suggest_dims(1e307)
        assert dims == (4, 4, 42)
        with pytest.raises(StateError, match="overflows double precision"):
            hamiltonian_matrix(1.0, 1e307, dims)
        with pytest.raises(StateError, match="overflows double precision"):
            fock_oracle.crosscheck(1e307)
        assert worst_row(fock_oracle.crosscheck(3e306)) < ORACLE_TOL

    def test_hermitian_exactly(self):
        # H = W (i K) W+ is Hermitian exactly when K is antisymmetric exactly
        k = assembled(hamiltonian_matrix(0.7 + 0.2j, 1.9 - 0.4j, (5, 5, 5)))
        assert (k + k.T).nnz == 0

    def test_pair_term_conserves_mode2(self):
        dims = (6, 6, 6)
        h = assembled(hamiltonian_matrix(1.0, 0.0, dims))
        n2 = number_operator(dims, 1)
        comm = h @ n2 - n2 @ h
        assert np.max(np.abs(comm.toarray())) == 0.0

    def test_pair_term_conserves_n1_minus_nb(self):
        dims = (6, 6, 6)
        h = assembled(hamiltonian_matrix(1.0 + 0.5j, 0.0, dims))
        k = number_operator(dims, 0) - number_operator(dims, 2)
        comm = h @ k - k @ h
        assert np.max(np.abs(comm.toarray())) == 0.0

    def test_exchange_term_conserves_n2_plus_nb(self):
        dims = (6, 6, 6)
        h = assembled(hamiltonian_matrix(0.0, 2.0 - 1.0j, dims))
        k = number_operator(dims, 1) + number_operator(dims, 2)
        comm = h @ k - k @ h
        assert np.max(np.abs(comm.toarray())) == 0.0

    @pytest.mark.parametrize("chi1, chi2, dims", [
        (0.7 + 0.2j, 1.9 - 0.4j, (5, 6, 7)),
        (1.0, 2.33, (9, 8, 6)),
        (1.0, 0.0, (4, 4, 4)),
        (0.0, 2.0 - 1.0j, (3, 5, 4)),
    ])
    def test_matches_kron_build(self, chi1, chi2, dims):
        # K is -i H at |chi1|, |chi2|
        k = assembled(hamiltonian_matrix(chi1, chi2, dims))
        ref = -1j * kron_hamiltonian(abs(chi1), abs(chi2), dims)
        k.sort_indices()
        ref.sort_indices()
        assert k.nnz == ref.nnz
        assert np.array_equal(k.indptr, ref.indptr)
        assert np.array_equal(k.indices, ref.indices)
        assert not ref.data.imag.any()
        np.testing.assert_array_max_ulp(k.data, ref.data.real, maxulp=1)

    @pytest.mark.parametrize("chi1, chi2, dims", [
        (0.7 + 0.2j, 1.9 - 0.4j, (5, 6, 7)),
        (-0.3 + 1.1j, 2.33j, (9, 8, 6)),
        (1e-3 - 2.0j, -1.5 + 0.5j, (2, 2, 2)),
        (0.4j, 0.0, (3, 7, 2)),
        (0.0, 1.0 - 1.0j, (6, 2, 5)),
        (0.0, 0.0, (3, 3, 3)),
        (1.0 + 1.0j, 2.5 - 0.1j, (25, 25, 45)),
    ])
    def test_matches_index_build_exactly(self, chi1, chi2, dims):
        assert_matches_index_build(chi1, chi2, dims)

    @settings(max_examples=60)
    @given(complex_chis, complex_chis, st.tuples(*[st.integers(2, 8)] * 3))
    def test_every_hop_joins_the_two_motional_parities(self, chi1, chi2, dims):
        h = hamiltonian_matrix(chi1, chi2, dims)
        for ell in range(2 - dims[1] - dims[2], dims[0]):
            sector = h.sector(ell)
            nb = sector.states % dims[2]
            even = sector.cols[0].shape[1]
            # even nb first, then odd nb, each half by ascending flat index
            assert not (nb[:even] % 2).any()
            assert (nb[even:] % 2).all()
            assert np.all(np.diff(sector.states[:even]) > 0)
            assert np.all(np.diff(sector.states[even:]) > 0)
            assert all(half.flags.c_contiguous for half in sector.cols + sector.vals)
            cols, vals = np.hstack(sector.cols), np.hstack(sector.vals)
            rows = np.broadcast_to(np.arange(nb.size), cols.shape)
            hop = vals != 0
            assert np.all(nb[rows[hop]] % 2 != nb[cols[hop]] % 2)

    @settings(max_examples=60)
    @given(complex_chis, complex_chis, st.tuples(*[st.integers(2, 8)] * 3))
    def test_gershgorin_bounds_every_sector_spectrum(self, chi1, chi2, dims):
        h = hamiltonian_matrix(chi1, chi2, dims)
        for ell in range(2 - dims[1] - dims[2], dims[0]):
            sector = h.sector(ell)
            # i K is Hermitian with the spectrum of H
            radius = np.max(np.abs(scipy.linalg.eigvalsh(1j * dense_block(sector))))
            # the bound is attained by a two-state block; eigvalsh rounds to a few ulps
            assert fock_oracle._spectral_bound(sector.vals) * (1 + 1e-12) >= radius

    def test_too_small_dims_rejected(self):
        with pytest.raises(StateError):
            hamiltonian_matrix(1.0, 2.0, (1, 4, 4))


class TestEvolveExact:
    def test_time_zero_is_identity(self):
        state = vacuum_state((4, 4, 4))
        h = hamiltonian_matrix(1.0, 2.0, (4, 4, 4))
        out = evolve_exact(state, h, 0.0)
        assert np.array_equal(dense_vector(out), dense_vector(state))

    def test_norm_preserved_over_half_period(self):
        r = 3.0
        dims = (24, 24, 24)
        h = hamiltonian_matrix(1.0, r, dims)
        out = evolve_exact(vacuum_state(dims), h, half_period(r))
        assert abs(np.linalg.norm(dense_vector(out)) - 1.0) < 1e-12

    def test_r3_reference_run(self):
        # the oracle run the Gaussian engine is checked against
        r = 3.0
        dims = (24, 24, 24)
        h = hamiltonian_matrix(1.0, r, dims)
        out = evolve_exact(vacuum_state(dims), h, half_period(r))
        obs = observables(out)
        expected = 4 * r**2 / (r**2 - 1) ** 2    # 0.5625
        assert obs.mean_photons[0] == pytest.approx(expected, abs=1e-6)
        assert obs.mean_photons[1] == pytest.approx(expected, abs=1e-6)
        assert obs.mean_photons[2] == pytest.approx(0.0, abs=1e-8)

    def test_photon_pairing_at_half_period(self):
        r = 3.0
        dims = (24, 24, 24)
        h = hamiltonian_matrix(1.0, r, dims)
        out = evolve_exact(vacuum_state(dims), h, half_period(r))
        joint = observables(out).joint_photon_distribution
        off_diagonal = joint.sum() - np.trace(joint)
        assert off_diagonal < 1e-8
        # diagonal weights follow the squeezed-state geometric series
        lam_sq = (2 * r / (1 + r**2)) ** 2       # 0.36
        expected = (1 - lam_sq) * lam_sq ** np.arange(8)
        assert np.allclose(np.diag(joint)[:8], expected, atol=1e-9)

    def test_motion_returns_to_vacuum(self):
        r = 2.5
        dims = suggest_dims(r)
        h = hamiltonian_matrix(1.0, r, dims)
        out = evolve_exact(vacuum_state(dims), h, half_period(r))
        # population of nb = 0 is the overlap of the reduced motional state
        # with its initial (vacuum) state
        assert np.sum(np.abs(dense_vector(out).reshape(dims)[:, :, 0]) ** 2) > 1 - 1e-8

    def test_leakage_raises_for_tiny_basis(self):
        r = 2.0
        dims = (4, 4, 4)
        h = hamiltonian_matrix(1.0, r, dims)
        with pytest.raises(TruncationError) as err:
            evolve_exact(vacuum_state(dims), h, half_period(r), leak_tol=1e-9)
        assert err.value.leakage > 1e-9
        assert err.value.dims == dims

    @pytest.mark.parametrize("case, chis, t", [
        # real chi1: the pair-term entries are purely imaginary
        pytest.param("vacuum", (1.0, 2.5), 0.37, id="vacuum"),
        pytest.param("two_sectors", (1.0, 2.5), 0.37, id="two_sectors"),
        pytest.param("all_sectors", (1.0, 2.5), 0.37, id="all_sectors"),
        pytest.param("vacuum", LONG_CHIS, LONG_T, id="long_vacuum"),
        pytest.param("all_sectors", LONG_CHIS, LONG_T, id="long_all_sectors"),
        pytest.param("both_parities", (1.0, 2.5), 0.37, id="both_parities"),
        pytest.param("both_parities", LONG_CHIS, LONG_T, id="long_both_parities"),
        # negative chis: the gauge phase is pi
        pytest.param("all_sectors", (-0.6, -1.3 + 0.8j), 0.9, id="negative_chis"),
    ])
    def test_matches_dense_expm(self, case, chis, t):
        assert dense_expm_gap(case, chis, t) < 1e-12

    def test_underflowing_rho_t_is_identity(self):
        # rho t = 5.6e-400 rounds to 0, where the series length would divide by zero
        dims = (4, 4, 4)
        out = evolve_exact(vacuum_state(dims), hamiltonian_matrix(1e-200, 2e-200, dims), 1e-200)
        assert np.array_equal(out.support, [0])
        assert np.array_equal(out.values, [1.0])

    @pytest.mark.parametrize("chis, t", [((1e300, 2e300), 1e10), ((1.0, 2.0), 1e7),
                                         ((1.0, 2.0), -1e7)],
                             ids=["infinite", "huge", "huge_backwards"])
    def test_rho_t_past_the_cap_is_refused(self, chis, t):
        # an infinite rho t ended in math.floor(inf); a huge finite one asked
        # for an FFT of 2 rho t samples
        dims = (4, 4, 4)
        with pytest.raises(StateError, match=r"rho \* t = .* is not finite or exceeds"):
            evolve_exact(vacuum_state(dims), hamiltonian_matrix(*chis, dims), t)

    def test_rho_t_at_the_cap_runs(self, monkeypatch):
        dims, t = (4, 4, 4), 0.37
        h = hamiltonian_matrix(1.0, 2.5, dims)
        alpha = fock_oracle._spectral_bound(h.sector(0).vals) * t
        monkeypatch.setattr(fock_oracle, "MAX_RHO_T", alpha)
        evolve_exact(vacuum_state(dims), h, t, leak_tol=1.0)
        monkeypatch.setattr(fock_oracle, "MAX_RHO_T", math.nextafter(alpha, 0.0))
        with pytest.raises(StateError, match="exceeds"):
            evolve_exact(vacuum_state(dims), h, t, leak_tol=1.0)

    def test_one_state_sector_is_returned_unchanged(self):
        # n1 - n2 - nb = 1 in (2, 2, 2) is |1, 0, 0> alone: no hop, an empty odd half
        dims = (2, 2, 2)
        h = hamiltonian_matrix(1.0, 2.5, dims)
        assert h.sector(1).states.tolist() == [4]
        assert h.sector(1).cols[1].shape == (4, 0)
        state = FockState(dims, np.array([4]), np.array([1j]))
        out = evolve_exact(state, h, 0.37, leak_tol=1.0)
        assert np.array_equal(out.support, state.support)
        assert np.array_equal(out.values, state.values)

    def test_no_coupling_returns_the_start_unchanged(self):
        # rho = 0 in every sector; |0,0,0>, |1,0,1> in sector 0 and |0,0,1>,
        # |0,1,0> in sector -1, so both parities of both sectors are occupied
        dims = (3, 3, 3)
        state = FockState(dims, np.array([0, 1, 3, 10]), np.array([0.5, -0.5j, 0.5, 0.5j]))
        out = evolve_exact(state, hamiltonian_matrix(0.0, 0.0, dims), 0.37, leak_tol=1.0)
        assert np.array_equal(out.support, state.support)
        assert np.array_equal(out.values, state.values)

    def test_r3_crosscheck_is_pinned(self):
        # the bits of the run oracle-check prints; any change to the order in
        # which the propagation or the norm sums moves them
        check = fock_oracle.crosscheck(3.0)
        assert check.dims == (30, 30, 46)
        assert (check.rows, check.observables.leakage) == R3_CROSSCHECK

    def test_non_finite_time_rejected(self):
        h = hamiltonian_matrix(1.0, 2.0, (4, 4, 4))
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(StateError):
                evolve_exact(vacuum_state((4, 4, 4)), h, t)

    @pytest.mark.parametrize("leak_tol", [math.nan, -1e-9])
    def test_leak_tol_that_switches_the_check_off_rejected(self, leak_tol):
        # a 4-level basis leaks at r = 2, so a NaN tolerance would hide it
        h = hamiltonian_matrix(1.0, 2.0, (4, 4, 4))
        with pytest.raises(StateError, match="leak_tol"):
            evolve_exact(vacuum_state((4, 4, 4)), h, half_period(2.0), leak_tol=leak_tol)

    @pytest.mark.parametrize("alpha", [0.5, 30.0, 900.0, -30.0])
    def test_series_coefficients_are_bessel_values(self, alpha):
        assert_matches_bessel(alpha)

    def test_builds_only_the_occupied_sector(self):
        r = 1.5
        dims = suggest_dims(r, 1e-11)
        h = hamiltonian_matrix(1.0, r, dims)
        evolve_exact(vacuum_state(dims), h, half_period(r))
        # the vacuum's sector, not the 1.3 M-state product basis
        assert 0 < h.nnz <= 4 * h.sector(0).states.size

    def test_dimension_mismatch(self):
        h = hamiltonian_matrix(1.0, 2.0, (4, 4, 4))
        with pytest.raises(StateError):
            evolve_exact(vacuum_state((5, 5, 5)), h, 0.1)

    def test_mid_pulse_matches_gaussian_engine(self):
        assert mid_pulse_gap() < 1e-6


class TestNumberStateMotion:
    """A thermal motion is a mixture of |0, 0, m>, one state per sector n1 - n2 - nb = -m."""

    R = 3.0
    DIMS = (36, 36, 24)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_sector_run_matches_gaussian_engine(self, m):
        couplings = Couplings.from_chis(1.0, self.R)
        (pulse,) = protocol.simultaneous_stages(couplings)
        (g_state,) = protocol.run_stages(
            gaussian.vacuum(3, protocol.SIMULTANEOUS_LABELS), (pulse,))
        psi = np.zeros(self.DIMS[0] * self.DIMS[1] * self.DIMS[2], dtype=complex)
        psi[m] = 1.0        # |0, 0, m>
        h = hamiltonian_matrix(couplings.chi1, couplings.chi2, self.DIMS)
        cov = observables(evolve_exact(dense_state(self.DIMS, psi), h, pulse.t)).covariance
        assert np.max(np.abs(cov[:4, :4] - g_state.cov[:4, :4])) < 1e-8
        assert np.max(np.abs(cov[:4, 4:])) < 1e-8
        assert np.max(np.abs(cov[4:, 4:] - (2 * m + 1) * np.eye(2))) < 1e-8


class TestMutants:
    """Mutants of the number-basis Hamiltonian and propagator that the oracle's checks must catch."""

    def test_scaled_chi2_fails_crosscheck(self, monkeypatch):
        original = fock_oracle.hamiltonian_matrix
        assert worst_row(fock_oracle.crosscheck(3.0)) < 1e-6
        monkeypatch.setattr(fock_oracle, "hamiltonian_matrix",
                            lambda chi1, chi2, dims: original(chi1, chi2 * 1.001, dims))
        assert worst_row(fock_oracle.crosscheck(3.0)) > 1e-6

    def test_time_reversed_propagator_fails_dense_expm(self, monkeypatch):
        # exp(+iHt): crosscheck cannot see it, since (-1)^(n1 + n2) maps H to -H,
        # fixes the vacuum and leaves every compared moment at the half period alone
        original = fock_oracle._propagate
        monkeypatch.setattr(fock_oracle, "_propagate",
                            lambda sector, first, x, t: original(sector, first, x, -t))
        assert dense_expm_gap("all_sectors", LONG_CHIS, LONG_T) > 1e-12

    def test_time_reversed_propagator_fails_mid_pulse_row(self, monkeypatch):
        # the parity flips the cavity-motion cross-covariances, nonzero mid-pulse
        original = fock_oracle._propagate
        monkeypatch.setattr(fock_oracle, "_propagate",
                            lambda sector, first, x, t: original(sector, first, x, -t))
        assert mid_pulse_gap() > 1e-6

    def test_term_on_the_wrong_half_fails_unitarity(self, monkeypatch):
        # each term writes v_{k+1} over v_k, on the wrong half, not over v_{k-1}
        monkeypatch.setattr(fock_oracle, "_propagate", mutated(
            fock_oracle, "_propagate", "terms[k % 2]", "terms[(k + 1) % 2]"))
        with pytest.raises(StateError, match="unitarity"):
            dense_expm_gap("vacuum", LONG_CHIS, LONG_T)

    def test_dropped_previous_vector_fails_unitarity(self, monkeypatch):
        # v_{k+1} = 2 (K / rho) v_k, the v_{k-1} of the recurrence left out
        monkeypatch.setattr(fock_oracle, "_propagate", mutated(
            fock_oracle, "_propagate", "u_h += g.sum(0)", "u_h[:] = g.sum(0)"))
        with pytest.raises(StateError, match="unitarity"):
            dense_expm_gap("vacuum", LONG_CHIS, LONG_T)

    def test_series_cut_short_fails_bessel_tail(self, monkeypatch):
        # five terms short, the long dense-expm case still agrees to about 1e-14
        original = fock_oracle._series_length
        monkeypatch.setattr(fock_oracle, "_series_length", lambda alpha: original(alpha) - 5)
        with pytest.raises(AssertionError):
            assert_matches_bessel(30.0)

    def test_series_cut_at_rho_t_breaks_unitarity(self, monkeypatch):
        # the Bessel tail past rho t, which the series length is chosen to hold
        monkeypatch.setattr(fock_oracle, "_series_length",
                            lambda alpha: math.floor(abs(alpha)) + 1)
        with pytest.raises(StateError, match="unitarity"):
            dense_expm_gap("all_sectors", LONG_CHIS, LONG_T)

    def test_gather_without_hit_test_fails_tensor_moments(self, monkeypatch):
        # a missed index reads the amplitude at its insertion point, the next one up
        def gather(support, values, index):
            pos = np.minimum(np.searchsorted(support, index), support.size - 1)
            return values[pos]
        state = sparse_random_state()
        assert_matches_tensor_moments(state)
        monkeypatch.setattr(fock_oracle, "_gather", gather)
        with pytest.raises(AssertionError):
            assert_matches_tensor_moments(state)

    def test_raise_past_the_top_level_fails_tensor_moments(self, monkeypatch):
        # a+ kept on n = d - 1 lands on the next row's n = 0, or past the basis
        def raised(support, values, n, stride, d):
            keep = n < d
            return support[keep] + stride, np.sqrt(n[keep] + 1) * values[keep]
        state = sparse_random_state()
        assert_matches_tensor_moments(state)
        monkeypatch.setattr(fock_oracle, "_raised", raised)
        with pytest.raises(AssertionError):
            assert_matches_tensor_moments(state)

    def test_unsorted_two_sector_output_fails_dense_expm(self, monkeypatch):
        # sector -2 comes first and holds |0, 0, 2>, above the vacuum's index 0
        monkeypatch.setattr(fock_oracle, "evolve_exact", mutated(
            fock_oracle, "evolve_exact", "np.argsort(support)", "slice(None)"))
        with pytest.raises(StateError, match="ascend"):
            dense_expm_gap("two_sectors", (1.0, 2.5), 0.37)

    def test_conjugated_chi2_fails_dense_expm(self, monkeypatch):
        # crosscheck's chis are real and K reads |chi2| alone, so only the
        # dense-expm check at complex chis sees this
        original = fock_oracle.hamiltonian_matrix
        monkeypatch.setattr(fock_oracle, "hamiltonian_matrix",
                            lambda chi1, chi2, dims: original(chi1, np.conj(chi2), dims))
        assert_matches_index_build(0.7 + 0.2j, 1.9 - 0.4j, (5, 6, 7))
        assert dense_expm_gap("all_sectors", LONG_CHIS, LONG_T) > 1e-12

    def test_flipped_gauge_phase_fails_dense_expm(self, monkeypatch):
        # W = e^{-i (theta1 n1 + theta2 n2)}: H at conjugated chis, the same K
        original = fock_oracle.SectorHamiltonian._build

        def build(self, ell):
            sector = original(self, ell)
            return sector._replace(phase=sector.phase.conj())
        monkeypatch.setattr(fock_oracle.SectorHamiltonian, "_build", build)
        assert_matches_index_build(0.7 + 0.2j, 1.9 - 0.4j, (5, 6, 7))
        assert dense_expm_gap("all_sectors", LONG_CHIS, LONG_T) > 1e-12

    def test_dropped_imaginary_pass_fails_complex_start_dense_expm(self, monkeypatch):
        # only the real part of W+ psi is propagated: from the vacuum, where
        # W+ psi is real, nothing sees it; from a complex start the norm drops
        assert dense_expm_gap("both_parities", LONG_CHIS, LONG_T) < 1e-12
        monkeypatch.setattr(fock_oracle, "_evolve_sector", mutated(
            fock_oracle, "_evolve_sector", "(rotated.real, out.real), (rotated.imag, out.imag)",
            "(rotated.real, out.real),"))
        assert dense_expm_gap("vacuum", LONG_CHIS, LONG_T) < 1e-12
        with pytest.raises(StateError, match="unitarity"):
            dense_expm_gap("both_parities", LONG_CHIS, LONG_T)


class TestObservables:
    def test_vacuum_covariance_is_identity(self):
        obs = observables(vacuum_state((4, 4, 4)))
        assert np.allclose(obs.covariance, np.eye(6), atol=1e-14)
        assert np.allclose(obs.mean_photons, 0.0)

    def test_single_photon_occupation(self):
        vec = np.zeros(4 * 4 * 4, dtype=complex)
        vec[4 * 4] = 1.0   # |1, 0, 0>
        obs = observables(dense_state((4, 4, 4), vec))
        assert obs.mean_photons[0] == pytest.approx(1.0)
        # a number state has <X^2> = <P^2> = 2n + 1
        assert obs.covariance[0, 0] == pytest.approx(3.0)
        assert obs.covariance[1, 1] == pytest.approx(3.0)

    def test_norm_validation(self):
        with pytest.raises(StateError):
            dense_state((4, 4, 4), np.ones(64, dtype=complex))
        vec = np.zeros(64, dtype=complex)
        vec[0] = math.nan
        with pytest.raises(StateError):
            dense_state((4, 4, 4), vec)

    def test_support_lists_the_nonzero_amplitudes(self):
        state = FockState((4, 4, 4), [3, 17, 40], [0.6, 0.0, 0.8j])
        assert np.array_equal(state.support, [3, 40])
        assert np.array_equal(state.values, [0.6, 0.8j])

    @pytest.mark.parametrize("support, values, match", [
        ([0, 1], [1.0], "support has 2 indices"),
        ([5, 3], [0.6, 0.8], "ascend"),
        ([3, 3], [0.6, 0.8], "ascend"),
        ([-1, 3], [0.6, 0.8], "lie in"),
        ([3, 64], [0.6, 0.8], "lie in"),
        ([0.0, 3.0], [0.6, 0.8], "integer"),
        ([], [], "norm"),
        # a descent past the first pair; 0.0 is dropped, so the norm is 1
        ([0, 5, 3], [0.6, 0.0, 0.8], "ascend"),
    ])
    def test_malformed_support_rejected(self, support, values, match):
        with pytest.raises(StateError, match=match):
            FockState((4, 4, 4), support, values)

    def test_no_product_size_allocation(self):
        # 1.6e8 product states, 2.4 GiB as one dense complex vector; the
        # vacuum's sector holds 20,100 of them
        dims = (200, 200, 4000)
        h = hamiltonian_matrix(1.0, 2.0, dims)
        tracemalloc.start()
        try:
            obs = observables(evolve_exact(vacuum_state(dims), h, 0.01))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert obs.mean_photons[0] > 0.0

    @settings(max_examples=150)
    @given(fock_states())
    def test_match_full_tensor_moments(self, state):
        assert_matches_tensor_moments(state)

    def test_two_sector_evolved_state_matches_tensor_moments(self):
        dims = (5, 5, 5)
        psi = np.zeros(125, dtype=complex)
        psi[[0, 2]] = 1.0 / math.sqrt(2.0)      # sectors n1 - n2 - nb = 0 and -2
        out = evolve_exact(dense_state(dims, psi), hamiltonian_matrix(1.0, 2.5, dims), 0.37,
                           leak_tol=1.0)
        n1, n2, nb = np.unravel_index(out.support, dims)
        assert np.unique(n1 - n2 - nb).size == 2
        assert_matches_tensor_moments(out)


class TestConvergence:
    def test_doubling_dims_changes_nothing(self):
        r = 3.0
        t = half_period(r)
        results = []
        for dims in ((24, 24, 24), (48, 48, 48)):
            h = hamiltonian_matrix(1.0, r, dims)
            out = evolve_exact(vacuum_state(dims), h, t)
            obs = observables(out)
            results.append((obs.mean_photons, obs.covariance))
        assert np.max(np.abs(results[0][0] - results[1][0])) < 1e-8
        assert np.max(np.abs(results[0][1] - results[1][1])) < 1e-8

    def test_suggest_dims_controls_leakage(self):
        r = 2.0
        dims = suggest_dims(r, leak_target=1e-11)
        h = hamiltonian_matrix(1.0, r, dims)
        out = evolve_exact(vacuum_state(dims), h, half_period(r), leak_tol=1e-10)
        assert leakage(out) < 1e-10

    def test_suggest_dims_keeps_its_floor_of_four(self):
        # n_mean = 4 / r^2 underflows to 0 past r of about 1.3e162: no tail to size
        for r in (1.5, 3.0, 1e3, 1e10, 1e100, 1.2e162, 1.3e162, 1e200, 1e300):
            assert min(suggest_dims(r)) >= 4, r
        assert suggest_dims(1e200) == (4, 4, 42)

    def test_suggest_dims_needs_r_above_one(self):
        with pytest.raises(UndefinedPeriodError):
            suggest_dims(1.0)

    def test_suggest_dims_refuses_a_basis_it_cannot_size(self):
        # 1 - q <= leak_target: every cavity size meets the tail criterion
        for r in (1 + 1e-7, 1.000001):
            with pytest.raises(StateError, match="too close to 1"):
                suggest_dims(r)
        for target in (0.0, 1.0, math.nan):
            with pytest.raises(StateError, match="leak_target"):
                suggest_dims(3.0, leak_target=target)

    def test_basis_past_the_sector_cap_is_refused(self):
        # largest sector d1 * min(d2, db): 1,591,620 states at r = 1.06, 2,604,812 at 1.05
        hamiltonian_matrix(1.0, 1.06, suggest_dims(1.06))
        for r in (1.05, 1.01):
            with pytest.raises(StateError, match="allow a sector of"):
                hamiltonian_matrix(1.0, r, suggest_dims(r))

    @pytest.mark.slow
    def test_about_110_photons_per_mode_at_r_1_1(self):
        # the paper's headline point: 401,718 states in the vacuum sector of
        # suggest_dims(1.1) = (2531, 2531, 164); minutes and about 200 MiB
        rows = {name: value for name, _, value in fock_oracle.crosscheck(1.1).rows}
        closed = 4 * 1.1 ** 2 / (1.1 ** 2 - 1) ** 2
        assert rows["photons cav1"] == pytest.approx(closed, rel=1e-8)
        assert rows["photons cav2"] == pytest.approx(closed, rel=1e-8)
        assert rows["max |cov| diff"] <= ORACLE_TOL
