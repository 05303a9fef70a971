import itertools
import math

import numpy as np
import pytest

from conftest import random_couplings
from ionlight import gaussian
from ionlight.errors import StateError, UndefinedPeriodError, UnphysicalStateError
from ionlight.gaussian import (EXCHANGE, PAIR, GaussianState, LinearDynamics,
                               apply_symplectic, bogoliubov_tpi,
                               decorrelation_norm, dynamics_from_couplings,
                               epr_variance, evolve, expm, log_negativity,
                               mean_photons, quadratic_dynamics,
                               symplectic_eigenvalues, tensor, term_propagator,
                               thermal, tmss, vacuum)
from ionlight.params import Couplings
from ionlight.protocol import run_simultaneous

LABELS3 = ("cav1", "cav2", "motion")


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form Omega with blocks [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def half_period_state(chi1, chi2, nbar=0.0):
    """Evolve vacuum x vacuum x thermal(nbar) through one half-period, kappa = 0."""
    c = Couplings.from_chis(chi1, chi2)
    state = tensor(vacuum(2, ("cav1", "cav2")), thermal(nbar, "motion"))
    dyn = dynamics_from_couplings(chi1, chi2, kappa=0.0)
    return evolve(state, dyn, c.t_pi), c


def random_symplectic(rng, n_modes):
    """exp(Omega H) for a random symmetric H, a random symplectic matrix."""
    h = rng.normal(size=(2 * n_modes, 2 * n_modes))
    return expm(0.3 * symplectic_form(n_modes) @ (h + h.T))


def assert_maps_exactly_symmetric(rng):
    """gaussian.apply_symplectic gives cov == cov.T bit for bit for random symplectic maps."""
    state = tensor(tmss(1.7, 0.4), thermal(3.0, "motion"))
    for _ in range(10):
        s = random_symplectic(rng, 3)
        assert np.max(np.abs(s @ symplectic_form(3) @ s.T - symplectic_form(3))) < 1e-12
        out = gaussian.apply_symplectic(state, s)
        assert np.array_equal(out.cov, out.cov.T)


def assert_product_states_carry_no_negativity():
    """E_N is exactly 0 for product states, the round-off of their spectra included."""
    assert log_negativity(vacuum(2, ("a", "b")), ("a",)) == 0.0
    assert log_negativity(tensor(thermal(1.0, "a"), thermal(2.0, "b")), ("b",)) == 0.0
    # locally squeezed, then a bright thermal third mode
    squeeze = np.diag([math.exp(2.0), math.exp(-2.0), math.exp(-1.0), math.exp(1.0)])
    local = apply_symplectic(vacuum(2, ("a", "b")), squeeze)
    assert log_negativity(tensor(local, thermal(300.0, "c")), ("a",)) == 0.0


def assert_tmss_r3_negativity():
    """Pure two-mode squeezed state: E_N = 2s with sinh s = 3/4."""
    expected = 2 * math.asinh(0.75)
    assert expected == pytest.approx(math.log(4.0), rel=1e-12)
    assert log_negativity(tmss(3.0), ("cav1",)) == pytest.approx(expected, abs=1e-10)


# Every way gaussian builds a state without the constructor's copy and scans.
LIBRARY_STATES = {
    "vacuum": lambda: vacuum(2, ("a", "b")),
    "thermal": lambda: thermal(1.5, "a"),
    "tensor": lambda: tensor(thermal(1.0, "a"), vacuum(1, ("b",))),
    "reduced": lambda: tmss(2.0, 0.3).reduced(("cav2", "cav1")),
    "tmss": lambda: tmss(2.0, 0.3),
    "apply_symplectic": lambda: apply_symplectic(
        tmss(2.0, 0.3), term_propagator(("cav1", "cav2"), (EXCHANGE, "cav1", "cav2", 0.4j), 1.0)),
    "evolve": lambda: evolve(tensor(vacuum(2, ("cav1", "cav2")), thermal(1.0, "motion")),
                             dynamics_from_couplings(0.5, 1.0 + 0.2j, kappa=0.3), 0.7),
}


class TestStateBasics:
    def test_vacuum(self):
        v = vacuum(2)
        assert np.array_equal(v.cov, np.eye(4))
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

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
    def test_thermal_non_finite_nbar(self, nbar):
        with pytest.raises(StateError, match="finite"):
            thermal(nbar)

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(StateError):
            GaussianState(("a",), cov)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(UnphysicalStateError):
            GaussianState(("a",), 0.5 * np.eye(2))
        # next to a mode too bright for the round-off bound, physicality cannot
        # be decided, so the state is refused rather than waved through
        with pytest.raises(StateError, match="round-off bound"):
            GaussianState(("a", "b"), np.diag([1e8, 1e8, 0.5, 0.5]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StateError):
            vacuum(2, ("a", "a"))

    def test_tensor_refuses_clashing_labels(self):
        with pytest.raises(StateError, match="duplicate"):
            tensor(thermal(1.0, "a"), vacuum(2, ("b", "a")))

    def test_reduced_refuses_duplicate_labels(self):
        with pytest.raises(StateError, match="duplicate"):
            vacuum(2, ("a", "b")).reduced(("a", "a"))

    def test_user_built_state_is_copied_and_scanned(self):
        cov = 2.0 * np.eye(2)
        state = GaussianState(("a",), cov)
        cov[0, 0] = 7.0
        assert state.cov[0, 0] == 2.0
        cov[0, 1] = 1e-6
        with pytest.raises(StateError, match="not symmetric"):
            GaussianState(("a",), cov)

    def test_reduced_keeps_blocks(self):
        state = tensor(thermal(1.0, "a"), thermal(2.0, "b"))
        sub = state.reduced(("b",))
        assert np.array_equal(sub.cov, 5.0 * np.eye(2))

    def test_subsets_equal_an_ix_reference(self, rng):
        # reduced and decorrelation_norm pick their blocks bit for bit as
        # np.ix_ does, in every label order; the norm also pins the layout
        cov = apply_symplectic(tensor(tmss(1.7, 0.4), thermal(3.0, "motion")),
                               random_symplectic(rng, 3)).cov
        state = GaussianState(LABELS3, cov)
        for k in (2, 3):
            for labels in itertools.permutations(LABELS3, k):
                idx = state.quad_indices(labels)
                sub = state.reduced(labels)
                assert sub.mode_labels == labels
                assert sub.cov.tobytes() == state.cov[np.ix_(idx, idx)].tobytes()
                for cut in range(1, k):
                    a, b = labels[:cut], labels[cut:]
                    block = state.cov[np.ix_(state.quad_indices(a), state.quad_indices(b))]
                    assert decorrelation_norm(state, a, b) == float(np.linalg.norm(block))

    def test_mean_photons_unknown_label(self):
        with pytest.raises(StateError):
            mean_photons(vacuum(1), "nope")

    @pytest.mark.parametrize("build", [lambda: GaussianState((), np.zeros((0, 0))),
                                       lambda: tensor(),
                                       lambda: vacuum(2).reduced(())],
                             ids=["constructor", "tensor", "reduced"])
    def test_a_state_needs_a_mode(self, build):
        with pytest.raises(StateError, match="need at least one mode"):
            build()


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

    def test_unknown_label_in_term_rejected(self):
        with pytest.raises(StateError, match="'z'"):
            quadratic_dynamics(("a", "b"), [(PAIR, "a", "z", 1.0)])
        with pytest.raises(StateError, match="'z'"):
            term_propagator(("a", "b"), (EXCHANGE, "z", "a", 1.0), 1.0)

    def test_unknown_label_in_decay_rejected(self):
        with pytest.raises(StateError, match="'z'"):
            quadratic_dynamics(("a", "b"), [(PAIR, "a", "b", 1.0)], {"z": 0.5})

    def test_vacuum_fixed_point_of_pure_decay(self):
        dyn = dynamics_from_couplings(0.0, 0.0, kappa=0.8)
        state = vacuum(3, LABELS3)
        for t in (0.1, 1.0, 10.0):
            out = evolve(state, dyn, t)
            assert np.allclose(out.cov, np.eye(6), atol=1e-12)


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

    def test_pure_decay_relaxation(self):
        # single decaying mode, cov = 3I, run until exp(-2 kappa t) = 1/3
        kappa = 0.9
        dyn = LinearDynamics(drift=-kappa * np.eye(2),
                             diffusion=2 * kappa * np.eye(2))
        state = GaussianState(("a",), 3.0 * np.eye(2))
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


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestPadeExpm:
    """gaussian.expm against scipy.linalg.expm, at 1e-12 relative to the largest entry."""

    @pytest.mark.parametrize("kind", [PAIR, EXCHANGE])
    @pytest.mark.parametrize("area", [0.0, 0.1, 1.0, 3.0, 30.0])
    def test_term_drifts(self, kind, area):
        from scipy.linalg import expm as scipy_expm
        labels = ("a", "b", "c")
        term = (kind, "c", "a", 0.8 * np.exp(0.9j))
        t = area / 0.8
        drift = quadratic_dynamics(labels, [term]).drift
        ours, theirs = expm(drift * t), scipy_expm(drift * t)
        exact = term_propagator(labels, term, t)
        assert relative_gap(ours, exact) <= 1e-12
        # At pair area 30 scipy's own result is 2.5e-12 off the closed form,
        # so the two may differ by that much there.
        assert relative_gap(ours, theirs) <= max(1e-12, 2.0 * relative_gap(theirs, exact))

    def test_decay_block_of_evolve(self, monkeypatch):
        from scipy.linalg import expm as scipy_expm
        from ionlight import gaussian
        blocks = []

        def spy(a):
            blocks.append(np.array(a))
            return expm(a)

        monkeypatch.setattr(gaussian, "expm", spy)
        dyn = dynamics_from_couplings(0.7 + 0.3j, 1.1 - 0.9j, kappa=0.4)
        evolve(tensor(vacuum(2, ("cav1", "cav2")), thermal(2.0, "motion")), dyn, 2.5)
        (block,) = blocks
        assert block.shape == (12, 12)
        assert relative_gap(expm(block), scipy_expm(block)) <= 1e-12

    def test_zero_matrix_is_identity(self):
        assert np.array_equal(expm(np.zeros((6, 6))), np.eye(6))

    @pytest.mark.parametrize("norm", [1e-8, 1e-4, 1e-1, 1.0, 10.0, 1e2, 1e3])
    def test_random_matrices_over_norms(self, norm):
        from scipy.linalg import expm as scipy_expm
        rng = np.random.default_rng(int(-math.log10(norm) * 10) + 100)
        a = rng.standard_normal((12, 12))
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        assert relative_gap(expm(a), scipy_expm(a)) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        a = np.eye(4)
        a[1, 2] = bad
        with pytest.raises(StateError):
            expm(a)


class TestTermPropagator:
    def test_is_symplectic(self, rng):
        labels = ("p", "q", "r")
        omega = symplectic_form(3)
        for kind in (PAIR, EXCHANGE):
            for _ in range(5):
                chi = complex(*rng.normal(size=2))
                s = term_propagator(labels, (kind, "r", "p", chi), rng.uniform(0.0, 3.0))
                assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12 * max(1.0, np.max(s) ** 2)
                # the third mode is untouched
                assert np.array_equal(s[2:4, :], np.eye(6)[2:4, :])

    def test_zero_rate_and_zero_time_are_identity(self):
        for kind in (PAIR, EXCHANGE):
            assert np.array_equal(term_propagator(("a", "b"), (kind, "a", "b", 0.0), 2.0),
                                  np.eye(4))
            assert np.array_equal(term_propagator(("a", "b"), (kind, "a", "b", 0.3 - 1j), 0.0),
                                  np.eye(4))

    def test_quarter_swap_exchanges_modes(self):
        # area pi/2 with chi = 1: a -> b, b -> -a
        s = term_propagator(("a", "b"), (EXCHANGE, "a", "b", 1.0), math.pi / 2)
        assert np.allclose(s, [[0, 0, 1, 0], [0, 0, 0, 1],
                               [-1, 0, 0, 0], [0, -1, 0, 0]], atol=1e-15)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_bad_time_rejected(self, t):
        with pytest.raises(StateError):
            term_propagator(("a", "b"), (PAIR, "a", "b", 1.0), t)

    def test_overflowing_pair_area_rejected(self):
        # cosh(720) is past the largest double; the beam splitter just wraps
        with pytest.raises(StateError, match="overflows"):
            term_propagator(("a", "b"), (PAIR, "a", "b", 2.0), 360.0)
        assert np.all(np.isfinite(
            term_propagator(("a", "b"), (EXCHANGE, "a", "b", 2.0), 360.0)))

    def test_bad_terms_rejected(self):
        with pytest.raises(StateError):
            term_propagator(("a", "b"), (PAIR, "a", "a", 1.0), 1.0)
        with pytest.raises(StateError):
            term_propagator(("a", "b"), ("squeezer", "a", "b", 1.0), 1.0)


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

    @pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_exact_near_degeneracy(self, gap):
        # the closed form keeps the photon number and leaves the motion
        # untouched however close r is to 1 (E_N there is a separate matter)
        c = Couplings.from_chis(1.0, 1.0 + gap)
        out = apply_symplectic(vacuum(3, LABELS3), bogoliubov_tpi(c))
        for mode in ("cav1", "cav2"):
            assert mean_photons(out, mode) == pytest.approx(c.n_mean, rel=1e-14)
        assert np.array_equal(out.reduced(("motion",)).cov, np.eye(2))
        assert decorrelation_norm(out, ("motion",), ("cav1", "cav2")) == 0.0

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

    def test_r_one_rejected(self):
        with pytest.raises(UndefinedPeriodError):
            tmss(1.0)
        with pytest.raises(UndefinedPeriodError):
            tmss(-2.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(StateError, match="finite r"):
            tmss(r)

    @pytest.mark.parametrize("beta", [1e300, -1e300, 2 * math.pi * (1 + 2 ** -52)])
    def test_beta_past_two_pi_rejected(self, beta):
        # the cos of 1e300 is round-off: cov[0, 2] would read -2.557, not 4.444
        with pytest.raises(StateError, match="beta"):
            tmss(2.0, beta)

    @pytest.mark.parametrize("beta", [2 * math.pi, -2 * math.pi])
    def test_beta_of_two_pi_accepted(self, beta):
        assert np.max(np.abs(tmss(2.0, beta).cov - tmss(2.0, 0.0).cov)) <= 1e-14

    @pytest.mark.parametrize("r", [1e200])
    def test_extreme_finite_r_gives_the_vacuum(self, r):
        # x = 1/r = 1e-200: x^2 underflows, so cosh 2s is 1 and sinh 2s is 4x
        cov = tmss(r).cov
        assert np.array_equal(np.diag(cov), np.ones(4))
        assert cov[0, 2] == pytest.approx(4e-200, rel=1e-15)
        assert np.max(np.abs(cov - np.eye(4))) <= 4e-200


@pytest.fixture(scope="module")
def indium_state(indium_params):
    """The state after the simultaneous pulse at the bundled indium point."""
    return run_simultaneous(indium_params, force=True).state


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
        assert_product_states_carry_no_negativity()

    @pytest.mark.parametrize("c", [0.0, 2.0, 4.0, 4.0 - 1e-12])
    def test_log_negativity_of_classically_correlated_state(self, c):
        # a I + c Z off the diagonal: the partial transpose has nu = a - c,
        # so E_N is exactly zero while a - c >= 1, and correlation up to the
        # boundary a - c = 1 carries no spurious round-off negativity
        a = 5.0
        cross = c * np.diag([1.0, -1.0])
        cov = np.block([[a * np.eye(2), cross], [cross.T, a * np.eye(2)]])
        assert log_negativity(GaussianState(("a", "b"), cov), ("a",)) == 0.0

    def test_log_negativity_of_tmss_r3(self):
        assert_tmss_r3_negativity()

    def test_log_negativity_grows_as_r_approaches_one(self):
        values = [log_negativity(tmss(r), ("cav1",)) for r in (3.0, 2.0, 1.5, 1.1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("gap", [1e-2, 3e-3])
    def test_physical_near_degenerate_state_accepted(self, gap):
        # the smallest nu of tmss(1 + gap) misses 1 by up to ~1e-5 in round-off;
        # both physicality checks allow for it, and E_N = 2s to the 2e-6
        # that gaussian.SPECTRUM_LIMIT is chosen for
        state = tmss(1.0 + gap, beta=0.4)
        checked = GaussianState(state.mode_labels, state.cov)
        r = 1.0 + gap
        assert log_negativity(checked, ("cav1",)) == pytest.approx(
            2.0 * math.asinh(2.0 * r / (r * r - 1.0)), rel=2e-6)

    def test_log_negativity_rejects_non_finite(self):
        cov = np.eye(4)
        cov[0, 0] = math.nan
        state = GaussianState._made(("a", "b"), cov)
        with pytest.raises(StateError, match="round-off bound"):
            log_negativity(state, ("a",))

    # the constructor refuses NaN and inf before its symmetry scan, whose
    # inf - inf would raise FloatingPointError under strict floating point
    @pytest.mark.parametrize("entry", [math.nan, math.inf, 1e200])
    def test_non_finite_bound_has_its_own_message(self, entry):
        # not blamed on r close to 1 or a large nbar: those leave the bound finite
        cov = np.eye(4)
        cov[2, 2] = entry
        state = GaussianState._made(("a", "b"), cov)
        for check in (lambda: log_negativity(state, ("a",)),
                      lambda: GaussianState(("a", "b"), cov)):
            with pytest.raises(StateError, match="not finite") as info:
                check()
            assert "r too close" not in str(info.value)

    def test_log_negativity_rejects_unphysical(self):
        state = GaussianState._made(("a", "b"), np.eye(4))
        bad = GaussianState._made(("a", "b"), 0.9 * np.eye(4))
        assert log_negativity(state, ("a",)) == 0.0
        with pytest.raises(UnphysicalStateError):
            log_negativity(bad, ("a",))

    def test_log_negativity_partition_checks(self):
        state = vacuum(2, ("a", "b"))
        with pytest.raises(StateError):
            log_negativity(state, ())
        with pytest.raises(StateError):
            log_negativity(state, ("a", "b"))

    def test_quad_indices_refuses_a_repeated_label(self):
        state = vacuum(2, ("a", "b"))
        assert state.quad_indices(("b", "a")) == [2, 3, 0, 1]
        with pytest.raises(StateError, match="duplicate"):
            state.quad_indices(("a", "b", "a"))

    def test_repeated_label_refused_at_the_indium_point(self, indium_state):
        # the second flip of P undid the first (E_N 0.0), and the block was
        # read twice (a norm sqrt 2 too large)
        with pytest.raises(StateError, match="duplicate"):
            log_negativity(indium_state, ("cav1", "cav1"))
        with pytest.raises(StateError, match="duplicate"):
            decorrelation_norm(indium_state, ("cav1", "cav1"), ("cav2",))

    def test_distinct_labels_keep_their_values(self, indium_state):
        # bit for bit the values from before the labels were checked for repeats
        for partition in (("cav1",), ("cav1", "motion"), ("motion", "cav1")):
            assert log_negativity(indium_state, partition) == 6.08906123900628
        assert decorrelation_norm(indium_state, ("cav1",), ("cav2",)) == 311.8375898732094
        assert decorrelation_norm(indium_state, ("cav1", "motion"), ("cav2",)) == \
            311.8375898732094

    @pytest.mark.parametrize("theta", [1e300, -1e300, 2 * math.pi * (1 + 2 ** -52)])
    @pytest.mark.parametrize("name", ["theta_i", "theta_j"])
    def test_epr_variance_refuses_angles_past_two_pi(self, indium_state, name, theta):
        # the cos of 1e300 is round-off: Var(X1 - X2) would read 692.69
        with pytest.raises(StateError, match=rf"{name} in \[-2 pi, 2 pi\]"):
            epr_variance(indium_state, "cav1", "cav2", **{name: theta})

    def test_epr_variance_accepts_angles_of_two_pi(self, indium_state):
        assert epr_variance(indium_state, "cav1", "cav2", 2 * math.pi, -2 * math.pi) == \
            pytest.approx(epr_variance(indium_state, "cav1", "cav2"), rel=1e-12)

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


class TestLibraryStates:
    """States gaussian makes skip the constructor's scans; what they must keep."""

    @pytest.mark.parametrize("name", sorted(LIBRARY_STATES))
    def test_read_only_and_exactly_symmetric(self, name):
        state = LIBRARY_STATES[name]()
        assert np.array_equal(state.cov, state.cov.T)
        assert not state.cov.flags.writeable
        with pytest.raises(ValueError):
            state.cov[0] = 1.0

    def test_apply_symplectic_is_exactly_symmetric(self, rng):
        assert_maps_exactly_symmetric(rng)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (4,)])
    def test_apply_symplectic_refuses_a_map_of_the_wrong_shape(self, shape):
        with pytest.raises(StateError, match="shape mismatch"):
            apply_symplectic(vacuum(2), np.ones(shape))

    def test_spectra_match_the_product_form(self, rng):
        # i Omega cov from swapped rows, and a stack in one eigvals call, give
        # the spectra of i * symplectic_form(n) @ cov, one by one, bit for bit
        def product_form(cov):
            n = cov.shape[0] // 2
            return np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ cov)))[::2]

        for n in (1, 2, 3):
            covs = [np.diag(rng.uniform(1.0, 5.0, 2 * n))]
            for _ in range(4):
                a = rng.normal(size=(2 * n, 2 * n))
                covs.append(a @ a.T + np.eye(2 * n))
            stacked = symplectic_eigenvalues(np.stack(covs))
            assert stacked.shape == (len(covs), n)
            for cov, nu in zip(covs, stacked):
                assert np.array_equal(nu, product_form(cov))
                assert np.array_equal(symplectic_eigenvalues(cov), nu)


NON_FINITE_CALLS = {
    "tmss beta nan": lambda: tmss(2.0, math.nan),
    "tmss beta inf": lambda: tmss(2.0, math.inf),
    "pair chi nan": lambda: quadratic_dynamics(LABELS3, [(PAIR, "cav1", "motion", math.nan)]),
    "exchange chi inf": lambda: quadratic_dynamics(
        LABELS3, [(EXCHANGE, "cav2", "motion", complex(0.0, math.inf))]),
    "decay nan": lambda: dynamics_from_couplings(1.0, 2.0, kappa=math.nan),
    "decay inf": lambda: dynamics_from_couplings(1.0, 2.0, kappa=math.inf),
    "decay negative": lambda: dynamics_from_couplings(1.0, 2.0, kappa=-1.0),
    "propagator chi inf": lambda: term_propagator(
        LABELS3, (PAIR, "cav1", "motion", math.inf), 1.0),
    "epr angle nan": lambda: epr_variance(vacuum(2), "mode0", "mode1", math.nan),
    "epr angle inf": lambda: epr_variance(vacuum(2), "mode0", "mode1", 0.0, -math.inf),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_input_refused(call):
    with pytest.raises(StateError, match="finite"):
        call()


class TestMutants:
    """Mutants of the state fast path that the checks above must catch."""

    def test_negativity_of_unflipped_spectrum_fails_tmss_pin(self, monkeypatch):
        # log_negativity reads cov's half of the stacked spectrum, not the
        # partial transpose's: every nu >= 1, so E_N reads 0
        original = gaussian._spectrum_bound

        def swapped(covs):
            bound, spectra = original(covs)
            return bound, spectra[::-1]

        monkeypatch.setattr(gaussian, "_spectrum_bound", swapped)
        with pytest.raises(AssertionError):
            assert_tmss_r3_negativity()

    def test_cutoff_at_one_fails_product_state_pin(self, monkeypatch):
        # log_negativity counts every nu < 1.0, not only those below 1 - bound
        original = gaussian._spectrum_bound

        def no_margin(covs):
            return 0.0, original(covs)[1]

        monkeypatch.setattr(gaussian, "_spectrum_bound", no_margin)
        with pytest.raises(AssertionError):
            assert_product_states_carry_no_negativity()

    def test_unsymmetrised_map_fails_exact_symmetry(self, monkeypatch, rng):
        def unsymmetrised(state, s):
            return GaussianState._made(state.mode_labels, s @ state.cov @ s.T)

        monkeypatch.setattr(gaussian, "apply_symplectic", unsymmetrised)
        with pytest.raises(AssertionError):
            assert_maps_exactly_symmetric(rng)
