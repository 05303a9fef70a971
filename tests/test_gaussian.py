import math

import numpy as np
import pytest

from conftest import random_couplings
from ionlight.errors import (InfiniteSqueezingError, StateError,
                             UndefinedPeriodError, UnphysicalStateError)
from ionlight.gaussian import (EXCHANGE, PAIR, GaussianState, LinearDynamics,
                               bogoliubov_tpi, decorrelation_norm, dump_state,
                               dynamics_from_couplings, epr_variance, evolve,
                               load_state, log_negativity, mean_photons,
                               quadratic_dynamics, symplectic_eigenvalues,
                               symplectic_form, tensor, thermal, tmss, vacuum)
from ionlight.params import Couplings

LABELS3 = ("cav1", "cav2", "motion")


def half_period_state(chi1, chi2, nbar=0.0):
    """Evolve vacuum x vacuum x thermal(nbar) through one half-period, kappa = 0."""
    c = Couplings.from_chis(chi1, chi2)
    state = tensor(vacuum(2, ("cav1", "cav2")), thermal(nbar, "motion"))
    dyn = dynamics_from_couplings(chi1, chi2, kappa=0.0)
    return evolve(state, dyn, c.t_pi), c


class TestStateBasics:
    def test_vacuum(self):
        v = vacuum(2)
        assert np.array_equal(v.cov, np.eye(4))
        assert np.array_equal(v.mean, np.zeros(4))
        assert np.allclose(symplectic_eigenvalues(v.cov), 1.0)
        assert mean_photons(v, "mode0") == 0.0

    def test_vacuum_needs_a_mode(self):
        with pytest.raises(StateError):
            vacuum(0)

    def test_thermal(self):
        t = thermal(2.0)
        assert np.array_equal(t.cov, 5.0 * np.eye(2))
        assert mean_photons(t, "motion") == pytest.approx(2.0, abs=1e-14)
        assert symplectic_eigenvalues(thermal(0.5).cov)[0] == pytest.approx(2.0, rel=1e-12)
        assert np.array_equal(thermal(0.0).cov, np.eye(2))

    def test_thermal_negative_nbar(self):
        with pytest.raises(StateError):
            thermal(-0.5)

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(StateError):
            GaussianState(("a",), np.zeros(2), cov)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(UnphysicalStateError):
            GaussianState(("a",), np.zeros(2), 0.5 * np.eye(2))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StateError):
            vacuum(2, ("a", "a"))

    def test_reduced_keeps_blocks(self):
        state = tensor(thermal(1.0, "a"), thermal(2.0, "b"))
        sub = state.reduced(("b",))
        assert np.array_equal(sub.cov, 5.0 * np.eye(2))

    def test_mean_photons_includes_displacement(self):
        state = GaussianState(("a",), np.array([2.0, 0.0]), np.eye(2))
        # coherent state with <X> = 2, i.e. |alpha| = 1
        assert mean_photons(state, "a") == pytest.approx(1.0, abs=1e-14)

    def test_mean_photons_unknown_label(self):
        with pytest.raises(StateError):
            mean_photons(vacuum(1), "nope")


class TestDynamics:
    def test_pair_coupling_pattern(self):
        dyn = dynamics_from_couplings(0.7, 0.0, kappa=0.0)
        a = dyn.drift
        # only the cav1 <-> motion corner is populated, in the squeezing pattern
        assert np.allclose(a[0:2, 4:6], [[0.7, 0.0], [0.0, -0.7]])
        assert np.allclose(a[4:6, 0:2], [[0.7, 0.0], [0.0, -0.7]])
        assert np.all(a[2:4, :] == 0.0) and np.all(a[:, 2:4] == 0.0)
        assert np.all(dyn.diffusion == 0.0)

    def test_closed_drift_is_hamiltonian(self, rng):
        for _ in range(10):
            chi1, chi2 = random_couplings(rng)
            a = dynamics_from_couplings(chi1, chi2, kappa=0.0).drift
            omega = symplectic_form(3)
            assert np.max(np.abs(a @ omega + omega @ a.T)) < 1e-12

    def test_decay_disabled(self):
        dyn = dynamics_from_couplings(1.0, 2.0, kappa=0.5, include_decay=False)
        assert np.all(dyn.diffusion == 0.0)
        assert np.trace(dyn.drift) == 0.0

    def test_term_heisenberg_blocks(self):
        # da/dt = chi b_dag, db/dt = chi a_dag (pair) and da/dt = chi b,
        # db/dt = -conj(chi) a (exchange), written out in X = a + a_dag,
        # P = -i (a - a_dag)
        re, im = 0.3, -0.8
        pair = quadratic_dynamics(("a", "b"), [(PAIR, "a", "b", re + 1j * im)]).drift
        assert np.array_equal(pair[0:2, 2:4], [[re, im], [im, -re]])
        assert np.array_equal(pair[2:4, 0:2], [[re, im], [im, -re]])
        swap = quadratic_dynamics(("a", "b"), [(EXCHANGE, "a", "b", re + 1j * im)]).drift
        assert np.array_equal(swap[0:2, 2:4], [[re, -im], [im, re]])
        assert np.array_equal(swap[2:4, 0:2], [[-re, -im], [im, -re]])
        assert np.all(pair[0:2, 0:2] == 0.0) and np.all(swap[2:4, 2:4] == 0.0)

    def test_term_list_is_hamiltonian_on_any_modes(self, rng):
        labels = ("p", "q", "r", "s")
        omega = symplectic_form(4)
        for _ in range(10):
            terms = [(kind, *rng.choice(labels, 2, replace=False),
                      complex(*rng.normal(size=2)))
                     for kind in (PAIR, EXCHANGE, PAIR, EXCHANGE)]
            a = quadratic_dynamics(labels, terms).drift
            assert np.max(np.abs(a @ omega + omega @ a.T)) < 1e-12

    def test_unknown_term_kind_rejected(self):
        with pytest.raises(StateError):
            quadratic_dynamics(("a", "b"), [("beam splitter", "a", "b", 1.0)])

    def test_vacuum_fixed_point_of_pure_decay(self):
        dyn = dynamics_from_couplings(0.0, 0.0, kappa=0.8)
        state = vacuum(3, LABELS3)
        for t in (0.1, 1.0, 10.0):
            out = evolve(state, dyn, t)
            assert np.allclose(out.cov, np.eye(6), atol=1e-12)
            assert np.allclose(out.mean, 0.0)


class TestEvolve:
    def test_symplectic_eigenvalues_preserved_closed(self, rng):
        for _ in range(5):
            chi1, chi2 = random_couplings(rng)
            c = Couplings.from_chis(chi1, chi2)
            dyn = dynamics_from_couplings(chi1, chi2, kappa=0.0)
            state = tensor(vacuum(2, ("cav1", "cav2")), thermal(1.3, "motion"))
            out = evolve(state, dyn, 1.7 * c.t_pi)
            assert np.allclose(np.sort(symplectic_eigenvalues(out.cov)),
                               np.sort(symplectic_eigenvalues(state.cov)), atol=1e-10)

    def test_symplectic_preservation_long_time(self, rng):
        from scipy.linalg import expm
        omega = symplectic_form(3)
        for _ in range(5):
            chi1, chi2 = random_couplings(rng)
            c = Couplings.from_chis(chi1, chi2)
            s = expm(dynamics_from_couplings(chi1, chi2, 0.0).drift * 10 * c.t_pi)
            assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-10

    def test_full_period_recurrence(self, rng):
        for _ in range(5):
            chi1, chi2 = random_couplings(rng)
            c = Couplings.from_chis(chi1, chi2)
            state = tensor(vacuum(2, ("cav1", "cav2")), thermal(0.7, "motion"))
            out = evolve(state, dynamics_from_couplings(chi1, chi2, 0.0), 2 * c.t_pi)
            assert np.max(np.abs(out.cov - state.cov)) < 1e-9
            assert np.max(np.abs(out.mean - state.mean)) < 1e-9

    def test_pure_decay_relaxation(self):
        # single decaying mode, cov = 3I, run until exp(-2 kappa t) = 1/3
        kappa = 0.9
        dyn = LinearDynamics(drift=-kappa * np.eye(2),
                             diffusion=2 * kappa * np.eye(2))
        state = GaussianState(("a",), np.zeros(2), 3.0 * np.eye(2))
        t = math.log(math.sqrt(3.0)) / kappa
        out = evolve(state, dyn, t)
        assert np.allclose(out.cov, (1 + 2 / 3) * np.eye(2), atol=1e-12)

    def test_physicality_preserved_with_decay(self, rng):
        for _ in range(5):
            chi1, chi2 = random_couplings(rng)
            dyn = dynamics_from_couplings(chi1, chi2, kappa=0.4)
            state = tensor(vacuum(2, ("cav1", "cav2")), thermal(2.0, "motion"))
            for t in (0.3, 1.0, 4.0):
                out = evolve(state, dyn, t)
                assert np.min(symplectic_eigenvalues(out.cov)) >= 1.0 - 1e-9

    def test_dimension_mismatch(self):
        dyn = dynamics_from_couplings(1.0, 2.0, 0.0)
        with pytest.raises(StateError):
            evolve(vacuum(1), dyn, 0.1)

    def test_negative_time_rejected(self):
        dyn = dynamics_from_couplings(1.0, 2.0, 0.0)
        with pytest.raises(StateError):
            evolve(vacuum(3, LABELS3), dyn, -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        dyn = dynamics_from_couplings(1.0, 2.0, 0.5)
        with pytest.raises(StateError):
            evolve(vacuum(3, LABELS3), dyn, t)


class TestBogoliubovMap:
    def test_bogoliubov_identity(self, rng):
        for _ in range(20):
            chi1, chi2 = random_couplings(rng)
            theta_sq = abs(chi2) ** 2 - abs(chi1) ** 2
            u = (abs(chi1) ** 2 + abs(chi2) ** 2) / theta_sq
            v = 2 * chi1 * chi2 / theta_sq
            assert u**2 - abs(v) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_matches_evolve_at_half_period(self, rng):
        for _ in range(20):
            chi1, chi2 = random_couplings(rng)
            nbar = rng.uniform(0.0, 3.0)
            evolved, c = half_period_state(chi1, chi2, nbar)
            s = bogoliubov_tpi(c)
            start = tensor(vacuum(2, ("cav1", "cav2")), thermal(nbar, "motion"))
            mapped = s @ start.cov @ s.T
            assert np.linalg.norm(evolved.cov - mapped) < 1e-9

    def test_is_symplectic(self, rng):
        omega = symplectic_form(3)
        for _ in range(10):
            chi1, chi2 = random_couplings(rng)
            s = bogoliubov_tpi(Couplings.from_chis(chi1, chi2))
            assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12

    def test_chi1_zero_limit(self):
        s = bogoliubov_tpi(Couplings.from_chis(0.0, 1.5))
        expected = np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        # cav1 untouched, cav2 picks up the -u = -1 sign, motion flips
        assert np.allclose(s, expected, atol=1e-14)

    def test_requires_r_above_one(self):
        with pytest.raises(UndefinedPeriodError):
            bogoliubov_tpi(Couplings.from_chis(1.0, 1.0))
        with pytest.raises(UndefinedPeriodError):
            bogoliubov_tpi(Couplings.from_chis(2.0, 1.0))


class TestTmss:
    def test_photon_number_at_r_1p1(self):
        state = tmss(1.1)
        for mode in ("cav1", "cav2"):
            assert mean_photons(state, mode) == pytest.approx(109.7506, abs=1e-2)
        assert mean_photons(state, "cav1") == pytest.approx(4 * 1.21 / 0.0441, rel=1e-12)

    def test_purity(self):
        for r in (1.1, 1.5, 2.0, 3.0):
            for beta in (0.0, math.pi / 3):
                nu = symplectic_eigenvalues(tmss(r, beta).cov)
                assert np.max(np.abs(nu - 1.0)) < 1e-10

    def test_epr_variance_r3(self):
        state = tmss(3.0)
        # cosh s = 10/8, sinh s = 6/8 -> e^{-s} = 1/2, so 2 e^{-2s} = 0.5
        assert epr_variance(state, "cav1", "cav2") == pytest.approx(0.5, abs=1e-12)
        assert epr_variance(state, "cav1", "cav2", math.pi / 2, -math.pi / 2) \
            == pytest.approx(0.5, abs=1e-12)

    def test_matches_half_period_map_on_vacuum(self, rng):
        for _ in range(10):
            chi1, chi2 = random_couplings(rng)
            c = Couplings.from_chis(chi1, chi2)
            s = bogoliubov_tpi(c)
            full = s @ np.eye(6) @ s.T
            reduced = full[:4, :4]
            target = tmss(c.r, c.beta)
            assert np.max(np.abs(reduced - target.cov)) < 1e-10

    def test_nontrivial_beta(self):
        # beta = pi/3 must show up as the phase of the cross-correlations
        state = tmss(2.0, math.pi / 3)
        sinh_2s = 2 * ((1 + 4) / 3) * (4 / 3)
        assert state.cov[0, 2] == pytest.approx(sinh_2s * math.cos(math.pi / 3), rel=1e-12)
        assert state.cov[0, 3] == pytest.approx(sinh_2s * math.sin(math.pi / 3), rel=1e-12)
        assert state.cov[1, 3] == pytest.approx(-sinh_2s * math.cos(math.pi / 3), rel=1e-12)

    def test_r_below_one_maps_to_inverse(self):
        a = tmss(0.5)
        b = tmss(2.0)
        assert np.allclose(a.cov, b.cov, atol=1e-12)

    def test_r_one_rejected(self):
        with pytest.raises(InfiniteSqueezingError):
            tmss(1.0)
        with pytest.raises(InfiniteSqueezingError):
            tmss(-2.0)


class TestDiagnostics:
    def test_epr_variance_of_independent_vacua(self):
        assert epr_variance(vacuum(2, ("a", "b")), "a", "b") == pytest.approx(2.0)

    def test_epr_variance_same_mode_rejected(self):
        with pytest.raises(StateError):
            epr_variance(vacuum(2, ("a", "b")), "a", "a")

    def test_epr_below_shot_noise_for_tmss(self):
        for r in (1.1, 1.5, 3.0):
            assert epr_variance(tmss(r), "cav1", "cav2") < 2.0

    def test_log_negativity_of_product_state(self):
        assert log_negativity(vacuum(2, ("a", "b")), ("a",)) == 0.0
        assert log_negativity(tensor(thermal(1.0, "a"), thermal(2.0, "b")), ("b",)) == 0.0

    def test_log_negativity_of_tmss_r3(self):
        # pure two-mode squeezed state: E_N = 2s with sinh s = 3/4
        expected = 2 * math.asinh(0.75)
        assert expected == pytest.approx(math.log(4.0), rel=1e-12)
        assert log_negativity(tmss(3.0), ("cav1",)) == pytest.approx(expected, abs=1e-10)

    def test_log_negativity_grows_as_r_approaches_one(self):
        values = [log_negativity(tmss(r), ("cav1",)) for r in (3.0, 2.0, 1.5, 1.1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_log_negativity_rejects_unphysical(self):
        state = GaussianState(("a", "b"), np.zeros(4), np.eye(4), validate=False)
        bad = GaussianState(("a", "b"), np.zeros(4), 0.9 * np.eye(4), validate=False)
        assert log_negativity(state, ("a",)) == 0.0
        with pytest.raises(UnphysicalStateError):
            log_negativity(bad, ("a",))

    def test_log_negativity_partition_checks(self):
        state = vacuum(2, ("a", "b"))
        with pytest.raises(StateError):
            log_negativity(state, ())
        with pytest.raises(StateError):
            log_negativity(state, ("a", "b"))

    def test_decorrelation_norm_product_state(self):
        state = tensor(thermal(1.0, "a"), thermal(2.0, "b"))
        assert decorrelation_norm(state, ("a",), ("b",)) == 0.0

    def test_decorrelation_norm_after_half_period(self, rng):
        for _ in range(5):
            chi1, chi2 = random_couplings(rng)
            evolved, _ = half_period_state(chi1, chi2, nbar=1.5)
            assert decorrelation_norm(evolved, ("motion",), ("cav1", "cav2")) < 1e-9

    def test_decorrelation_norm_tmss_modes(self):
        assert decorrelation_norm(tmss(2.0), ("cav1",), ("cav2",)) > 1.0

    def test_decorrelation_norm_overlap_rejected(self):
        with pytest.raises(StateError):
            decorrelation_norm(vacuum(2, ("a", "b")), ("a",), ("a", "b"))

    def test_initial_motion_state_does_not_matter(self):
        chi1, chi2 = 0.8, 0.8 * 1.4
        cold, _ = half_period_state(chi1, chi2, nbar=0.0)
        hot, _ = half_period_state(chi1, chi2, nbar=5.0)
        idx = cold.quad_indices(("cav1", "cav2"))
        assert np.max(np.abs(cold.cov[np.ix_(idx, idx)]
                             - hot.cov[np.ix_(idx, idx)])) < 1e-9
        assert mean_photons(cold, "cav1") == pytest.approx(mean_photons(hot, "cav1"),
                                                           abs=1e-9)
        assert log_negativity(cold.reduced(("cav1", "cav2")), ("cav1",)) == \
            pytest.approx(log_negativity(hot.reduced(("cav1", "cav2")), ("cav1",)),
                          abs=1e-9)


class TestDump:
    def test_round_trip(self, rng):
        chi1, chi2 = random_couplings(rng)
        state, _ = half_period_state(chi1, chi2, nbar=0.3)
        text = dump_state(state)
        back = load_state(text)
        assert back.mode_labels == state.mode_labels
        assert np.array_equal(back.mean, state.mean)
        assert np.array_equal(back.cov, state.cov)

    def test_reject_truncated_dump(self):
        text = dump_state(vacuum(2, ("a", "b")))
        lines = text.splitlines()
        with pytest.raises(StateError):
            load_state("\n".join(lines[:-1]))
