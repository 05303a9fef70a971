import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from ionlight.errors import StateError, TruncationError
from ionlight.fock_oracle import (FockState, evolve_exact, hamiltonian_matrix,
                                  leakage, observables, suggest_dims,
                                  vacuum_state)


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


class TestHamiltonian:
    def test_hermitian_exactly(self):
        h = hamiltonian_matrix(0.7 + 0.2j, 1.9 - 0.4j, (5, 5, 5))
        assert (h - h.conj().T).nnz == 0

    def test_pair_term_conserves_mode2(self):
        dims = (6, 6, 6)
        h = hamiltonian_matrix(1.0, 0.0, dims)
        n2 = number_operator(dims, 1)
        comm = h @ n2 - n2 @ h
        assert np.max(np.abs(comm.toarray())) == 0.0

    def test_pair_term_conserves_n1_minus_nb(self):
        dims = (6, 6, 6)
        h = hamiltonian_matrix(1.0 + 0.5j, 0.0, dims)
        k = number_operator(dims, 0) - number_operator(dims, 2)
        comm = h @ k - k @ h
        assert np.max(np.abs(comm.toarray())) == 0.0

    def test_exchange_term_conserves_n2_plus_nb(self):
        dims = (6, 6, 6)
        h = hamiltonian_matrix(0.0, 2.0 - 1.0j, dims)
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
        h = hamiltonian_matrix(chi1, chi2, dims)
        ref = kron_hamiltonian(chi1, chi2, dims)
        h.sort_indices()
        ref.sort_indices()
        assert h.nnz == ref.nnz
        assert np.array_equal(h.indptr, ref.indptr)
        assert np.array_equal(h.indices, ref.indices)
        np.testing.assert_array_max_ulp(h.data.view(float), ref.data.view(float), maxulp=1)

    def test_too_small_dims_rejected(self):
        with pytest.raises(StateError):
            hamiltonian_matrix(1.0, 2.0, (1, 4, 4))


class TestEvolveExact:
    def test_time_zero_is_identity(self):
        state = vacuum_state((4, 4, 4))
        h = hamiltonian_matrix(1.0, 2.0, (4, 4, 4))
        out = evolve_exact(state, h, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_norm_preserved_over_half_period(self):
        r = 3.0
        dims = (24, 24, 24)
        h = hamiltonian_matrix(1.0, r, dims)
        out = evolve_exact(vacuum_state(dims), h, half_period(r))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

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
        assert np.sum(np.abs(out.tensor()[:, :, 0]) ** 2) > 1 - 1e-8

    def test_leakage_raises_for_tiny_basis(self):
        r = 2.0
        dims = (4, 4, 4)
        h = hamiltonian_matrix(1.0, r, dims)
        with pytest.raises(TruncationError) as err:
            evolve_exact(vacuum_state(dims), h, half_period(r), leak_tol=1e-9)
        assert err.value.leakage > 1e-9
        assert err.value.dims == dims

    @pytest.mark.parametrize("case", ["vacuum", "two_sectors", "generic"])
    def test_matches_dense_expm(self, case):
        dims = (5, 5, 5)
        n = 125
        t = 0.37
        psi = np.zeros(n, dtype=complex)
        if case == "generic":
            # a sparse Hermitian matrix with no conserved quantity
            rng = np.random.default_rng(7)
            m = sp.random(n, n, density=0.01, random_state=rng) \
                + 1j * sp.random(n, n, density=0.01, random_state=rng)
            h = (m + m.conj().T).tocsr()
            psi[0] = 1.0
        else:
            # real chi1: the pair-term entries are purely imaginary
            h = hamiltonian_matrix(1.0, 2.5, dims)
            psi[0] = 1.0
            if case == "two_sectors":
                psi[2] = 1.0        # |0, 0, 2>, sector n1 - n2 - nb = -2
                psi /= math.sqrt(2.0)
        out = evolve_exact(FockState(dims, psi), h, t, leak_tol=1.0)
        expected = scipy.linalg.expm(-1j * t * h.toarray()) @ psi
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_dimension_mismatch(self):
        h = hamiltonian_matrix(1.0, 2.0, (4, 4, 4))
        with pytest.raises(StateError):
            evolve_exact(vacuum_state((5, 5, 5)), h, 0.1)


class TestObservables:
    def test_vacuum_covariance_is_identity(self):
        obs = observables(vacuum_state((4, 4, 4)))
        assert np.allclose(obs.covariance, np.eye(6), atol=1e-14)
        assert np.allclose(obs.mean_photons, 0.0)
        assert np.allclose(obs.mean_quadratures, 0.0)

    def test_single_photon_occupation(self):
        vec = np.zeros(4 * 4 * 4, dtype=complex)
        vec[4 * 4] = 1.0   # |1, 0, 0>
        obs = observables(FockState((4, 4, 4), vec))
        assert obs.mean_photons[0] == pytest.approx(1.0)
        # a number state has <X^2> = <P^2> = 2n + 1
        assert obs.covariance[0, 0] == pytest.approx(3.0)
        assert obs.covariance[1, 1] == pytest.approx(3.0)

    def test_norm_validation(self):
        with pytest.raises(StateError):
            FockState((4, 4, 4), np.ones(64, dtype=complex))


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

    def test_suggest_dims_needs_r_above_one(self):
        with pytest.raises(StateError):
            suggest_dims(1.0)
