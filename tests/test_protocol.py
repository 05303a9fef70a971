import math

import numpy as np
import pytest

from conftest import random_couplings
from ionlight import gaussian
from ionlight.errors import ParameterError, StateError, UndefinedPeriodError
from ionlight.params import Couplings, PhysicalParams
from ionlight.protocol import (DEFAULT_R_LIST, MAX_GRID_POINTS, HomodyneSettings,
                               beam_splitter_signal, default_time_grid,
                               fig3_sweep, output_signal, quadrature_moments,
                               run_sequential, run_simultaneous)

# Frozen reference values for the r = 1.1 operating point, theta1 + theta2 = 0
# (first computed with the attenuate-and-mix model, then pinned):
Q1_SQ_R11 = 220.50113378684767      # ((1 + 1.21)^2 + 4*1.21) / 0.21^2
Q1Q2_R11 = 220.49886621315156       # 4 * 1.1 * (1 + 1.21) / 0.21^2
C0_R11 = 0.022182893228485767       # C(t=0) at kappa_dt = 0.1


def source_state(chi1, chi2, nbar=0.0):
    c = Couplings.from_chis(chi1, chi2)
    state = gaussian.tensor(gaussian.vacuum(2, ("cav1", "cav2")),
                            gaussian.thermal(nbar, "motion"))
    dyn = gaussian.dynamics_from_couplings(chi1, chi2, kappa=0.0)
    return gaussian.evolve(state, dyn, c.t_pi), c


def state_moments(state, theta1, theta2):
    """<q1^2> and <q1 q2> read directly off the covariance matrix."""
    w1 = np.zeros(6)
    w1[0], w1[1] = math.cos(theta1), -math.sin(theta1)
    w2 = np.zeros(6)
    w2[2], w2[3] = math.cos(theta2), -math.sin(theta2)
    return float(w1 @ state.cov @ w1), float(w1 @ state.cov @ w2)


class TestQuadratureMoments:
    def test_reference_point(self):
        q1_sq, q1q2 = quadrature_moments(1.0, 1.1)
        assert q1_sq == pytest.approx(((1 + 1.21) ** 2 + 4 * 1.21) / 0.21**2, rel=1e-14)
        assert q1q2 == pytest.approx(4 * 1.1 * (1 + 1.21) / 0.21**2, rel=1e-14)
        assert q1_sq == pytest.approx(Q1_SQ_R11, rel=1e-15)
        assert q1q2 == pytest.approx(Q1Q2_R11, rel=1e-15)
        assert q1_sq == pytest.approx(220.5, abs=2e-3)
        assert q1q2 == pytest.approx(220.5, abs=2e-3)

    def test_chi1_zero_limit(self):
        q1_sq, q1q2 = quadrature_moments(0.0, 2.0)
        assert q1_sq == pytest.approx(1.0, rel=1e-14)     # bare vacuum
        assert q1q2 == 0.0

    def test_orthogonal_theta_sum_kills_cross_term(self):
        _, q1q2 = quadrature_moments(1.0, 1.5, theta1=math.pi / 4, theta2=math.pi / 4)
        assert q1q2 == pytest.approx(0.0, abs=1e-12)

    def test_requires_r_above_one(self):
        with pytest.raises(UndefinedPeriodError):
            quadrature_moments(2.0, 1.0)

    def test_matches_evolved_state(self, rng):
        # formula route vs. moments of the actual half-period state
        for _ in range(20):
            chi1, chi2 = random_couplings(rng)
            theta1 = rng.uniform(-math.pi, math.pi)
            theta2 = rng.uniform(-math.pi, math.pi)
            state, _ = source_state(chi1, chi2)
            q1_sq_f, q1q2_f = quadrature_moments(chi1, chi2, theta1, theta2)
            q1_sq_s, q1q2_s = state_moments(state, theta1, theta2)
            assert q1_sq_f == pytest.approx(q1_sq_s, abs=1e-9 * max(1, q1_sq_s))
            assert q1q2_f == pytest.approx(q1q2_s, abs=1e-9 * max(1, abs(q1q2_s)))


class TestOutputSignal:
    def test_frozen_r11_point(self):
        settings = HomodyneSettings(kappa_dt=0.1, t_grid=default_time_grid())
        trace = output_signal(Couplings.from_chis(1.0, 1.1), 1.0, settings)
        assert trace.c_values[0] == pytest.approx(C0_R11, rel=1e-12)
        # squeezed below 10% of shot noise out to roughly kappa*t = 0.8
        below = trace.times[trace.c_values < 0.1]
        assert below[-1] == pytest.approx(0.78, abs=1e-9)

    def test_closed_form_equals_beam_splitter_model(self, rng):
        grid = default_time_grid(6.0, 0.1)
        for _ in range(10):
            chi1, chi2 = random_couplings(rng)
            settings = HomodyneSettings(
                theta1=rng.uniform(-math.pi, math.pi),
                theta2=rng.uniform(-math.pi, math.pi),
                kappa_dt=rng.uniform(0.02, 1.0), t_grid=grid)
            couplings = Couplings.from_chis(chi1, chi2)
            closed = output_signal(couplings, 1.0, settings).c_values
            model = beam_splitter_signal(couplings, settings)
            assert np.max(np.abs(closed - model)) < 1e-9

    def test_no_pair_coupling_means_shot_noise(self):
        settings = HomodyneSettings(t_grid=default_time_grid(4.0, 0.5))
        trace = output_signal(Couplings.from_chis(0.0, 1.0), 1.0, settings)
        assert np.allclose(trace.c_values, 1.0, atol=1e-14)

    def test_late_time_returns_to_shot_noise(self):
        settings = HomodyneSettings(t_grid=np.array([10.0]))
        trace = output_signal(Couplings.from_chis(1.0, 1.1), 1.0, settings)
        assert trace.c_values[0] == pytest.approx(1.0, abs=1e-3)

    def test_theta_settings_equivalent_for_real_couplings(self):
        # X1 - X2 and P1 + P2 measurements give the same trace
        grid = default_time_grid()
        couplings = Couplings.from_chis(1.0, 1.3)
        trace_x = output_signal(couplings, 1.0, HomodyneSettings(t_grid=grid))
        trace_p = output_signal(couplings, 1.0, HomodyneSettings(
            theta1=math.pi / 2, theta2=-math.pi / 2, t_grid=grid))
        assert np.max(np.abs(trace_x.c_values - trace_p.c_values)) < 1e-12
        model_x = beam_splitter_signal(couplings, HomodyneSettings(t_grid=grid))
        model_p = beam_splitter_signal(couplings, HomodyneSettings(
            theta1=math.pi / 2, theta2=-math.pi / 2, t_grid=grid))
        assert np.max(np.abs(model_x - model_p)) < 1e-12

    def test_kappa_validation(self):
        with pytest.raises(ParameterError):
            output_signal(Couplings.from_chis(1.0, 1.1), 0.0, HomodyneSettings())

    def test_kappa_dt_validation(self):
        with pytest.raises(ParameterError):
            HomodyneSettings(kappa_dt=0.0)
        with pytest.raises(ParameterError):
            HomodyneSettings(kappa_dt=1.5)
        with pytest.raises(ParameterError):
            HomodyneSettings(t_grid=np.array([-1.0]))

    @pytest.mark.parametrize("bad", [
        dict(t_grid=np.array([0.0, math.nan])), dict(t_grid=np.array([0.0, math.inf])),
        dict(theta1=math.nan), dict(theta2=math.inf),
    ])
    def test_non_finite_settings_rejected(self, bad):
        with pytest.raises(ParameterError):
            HomodyneSettings(**bad)

    def test_time_grid_bounds(self):
        assert default_time_grid().size == 401
        for t_max, step in ((math.nan, 0.02), (8.0, math.inf), (math.inf, 0.02)):
            with pytest.raises(ParameterError):
                default_time_grid(t_max, step)
        # refused before anything is allocated (8e9 points would be 60 GiB)
        with pytest.raises(ParameterError, match="grid points"):
            default_time_grid(8.0, 1e-9)
        assert default_time_grid(MAX_GRID_POINTS - 1.0, 1.0).size == MAX_GRID_POINTS
        with pytest.raises(ParameterError):
            default_time_grid(MAX_GRID_POINTS - 0.6, 1.0)   # would round up

    def test_signal_witnesses_entanglement(self):
        # C drops below 1 exactly when the source state is entangled
        grid = default_time_grid(2.0, 0.1)
        for r in (1.05, 1.1, 1.5, 3.0):
            couplings = Couplings.from_chis(1.0, r)
            trace = output_signal(couplings, 1.0, HomodyneSettings(t_grid=grid))
            entanglement = gaussian.log_negativity(
                gaussian.tmss(r, 0.0), ("cav1",))
            assert trace.c_values.min() < 1.0 - 1e-6
            assert entanglement > 1e-6
        # in the chi1 -> 0 limit both vanish together
        weak = Couplings.from_chis(1e-9, 1.0)
        trace = output_signal(weak, 1.0, HomodyneSettings(t_grid=grid))
        assert trace.c_values.min() > 1.0 - 1e-6
        assert gaussian.log_negativity(gaussian.tmss(1e9, 0.0), ("cav1",)) < 1e-6


class TestFig3Sweep:
    def test_default_sweep_shape(self):
        traces = fig3_sweep()
        assert [t.r for t in traces] == list(DEFAULT_R_LIST)
        assert all(t.kappa_dt == 0.1 for t in traces)
        assert all(t.times.shape == (401,) for t in traces)
        assert all(t.times[-1] == pytest.approx(8.0) for t in traces)

    def test_values_in_unit_interval(self):
        for trace in fig3_sweep():
            assert np.all(trace.c_values > 0.0)
            assert np.all(trace.c_values <= 1.0)

    def test_half_shot_noise_crossings_ordered(self):
        # curves recover toward C = 1 later and later as r decreases
        crossings = []
        for trace in fig3_sweep():
            above = np.nonzero(trace.c_values > 0.5)[0]
            crossings.append(trace.times[above[0]])
        assert all(a < b for a, b in zip(crossings, crossings[1:]))

    def test_min_c_deepens_as_r_drops(self):
        by_r = {t.r: t.min_c()[0] for t in fig3_sweep()}
        assert by_r[1.05] < by_r[1.1] < by_r[1.3] < by_r[1.5] < by_r[1.8]

    def test_squeezing_persists_several_decay_times_near_r_one(self):
        trace = fig3_sweep([1.05])[0]
        late = trace.c_values[trace.times >= 2.0]
        assert late[0] < 1.0 - 1e-3      # still squeezed past kappa*t = 2

    def test_shot_noise_recovered_at_grid_end(self):
        for trace in fig3_sweep():
            assert abs(trace.c_values[-1] - 1.0) < 1e-3

    def test_rejects_r_at_or_below_one(self):
        with pytest.raises(UndefinedPeriodError):
            fig3_sweep([1.5, 0.9])

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_rejects_non_finite_r(self, r):
        with pytest.raises(ParameterError):
            fig3_sweep([1.5, r])


class TestCsv:
    def test_layout_and_determinism(self):
        trace = fig3_sweep([1.5], t_grid=default_time_grid(1.0, 0.5))[0]
        text = trace.to_csv()
        lines = text.splitlines()
        assert lines[0] == "# r=1.5, kappa_dt=0.1, theta_sum=0.0"
        assert lines[1] == "kappa_t,C,R,q1_sq,q1q2"
        assert len(lines) == 2 + 3
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(trace.q1_sq, rel=1e-15)
        # identical input -> byte-identical output
        again = fig3_sweep([1.5], t_grid=default_time_grid(1.0, 0.5))[0]
        assert again.to_csv() == text

    def test_round_trip_values(self):
        trace = fig3_sweep([1.1])[0]
        rows = trace.to_csv().splitlines()[2:]
        parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(parsed[:, 0], trace.times)
        assert np.array_equal(parsed[:, 1], trace.c_values)
        assert np.array_equal(parsed[:, 2], trace.r_values)


class TestRunSimultaneous:
    def test_indium_point(self, indium_params, indium_config):
        result = run_simultaneous(indium_params, ratio=indium_config.ratio)
        d = result.diagnostics
        assert d["n_cav1"] == pytest.approx(109.75, abs=1e-2)
        assert d["n_cav2"] == pytest.approx(109.75, abs=1e-2)
        assert d["n_cav1"] == pytest.approx(d["n_mean"], abs=1e-9)
        assert d["motion_decorrelation"] < 1e-9
        assert d["log_negativity"] > 0.0
        assert d["epr_x"] < 2.0 and d["epr_p"] < 2.0

    def test_cavity_state_matches_tmss(self, indium_params, indium_config):
        result = run_simultaneous(indium_params, ratio=indium_config.ratio)
        c = result.couplings
        target = gaussian.tmss(c.r, c.beta)
        reduced = result.state.reduced(("cav1", "cav2"))
        assert np.max(np.abs(reduced.cov - target.cov)) < 1e-9

    def test_thermal_motion_changes_nothing(self, indium_params, indium_config):
        hot = PhysicalParams(
            nu=indium_params.nu, gamma=indium_params.gamma,
            delta=indium_params.delta, omega_rabi=indium_params.omega_rabi,
            kappa=indium_params.kappa, g1=indium_params.g1, g2=indium_params.g2,
            mass=indium_params.mass, wavenumber=indium_params.wavenumber,
            nbar_motion=5.0)
        cold_result = run_simultaneous(indium_params, ratio=indium_config.ratio)
        hot_result = run_simultaneous(hot, ratio=indium_config.ratio)
        cold = cold_result.state.reduced(("cav1", "cav2"))
        warm = hot_result.state.reduced(("cav1", "cav2"))
        assert np.max(np.abs(cold.cov - warm.cov)) < 1e-9
        assert np.max(np.abs(cold.mean - warm.mean)) < 1e-9

    def test_lossy_drive_variant(self, indium_params, indium_config):
        # non-normative sensitivity run: decay on during the drive loses a
        # little light but must stay physical and nearly decorrelated
        lossless = run_simultaneous(indium_params, ratio=indium_config.ratio)
        lossy = run_simultaneous(indium_params, ratio=indium_config.ratio,
                                 include_decay=True)
        assert lossy.diagnostics["n_cav1"] < lossless.diagnostics["n_cav1"]
        assert lossy.diagnostics["n_cav1"] > 0.5 * lossless.diagnostics["n_cav1"]
        nu_min = np.min(gaussian.symplectic_eigenvalues(lossy.state.cov))
        assert nu_min >= 1.0 - 1e-9

    def test_regime_gate(self, indium_params):
        # default ratio 10 is stricter than this parameter set satisfies
        with pytest.raises(ParameterError):
            run_simultaneous(indium_params)
        result = run_simultaneous(indium_params, force=True)
        assert result.diagnostics["n_cav1"] == pytest.approx(109.75, abs=1e-2)

    def test_rejects_r_below_one(self, indium_params):
        blue = PhysicalParams(
            nu=indium_params.nu, gamma=indium_params.gamma,
            delta=-indium_params.delta, omega_rabi=indium_params.omega_rabi,
            kappa=indium_params.kappa, g1=indium_params.g1, g2=indium_params.g2,
            mass=indium_params.mass, wavenumber=indium_params.wavenumber)
        with pytest.raises(UndefinedPeriodError):
            run_simultaneous(blue, force=True)

    def test_no_pair_coupling_leaves_cavities_dark(self, indium_params):
        dark = PhysicalParams(
            nu=indium_params.nu, gamma=indium_params.gamma,
            delta=indium_params.delta, omega_rabi=indium_params.omega_rabi,
            kappa=indium_params.kappa, g1=0.0, g2=indium_params.g2,
            mass=indium_params.mass, wavenumber=indium_params.wavenumber,
            nbar_motion=0.7)
        result = run_simultaneous(dark, force=True)
        assert result.diagnostics["n_cav1"] == pytest.approx(0.0, abs=1e-12)
        assert result.diagnostics["n_cav2"] == pytest.approx(0.0, abs=1e-12)
        assert result.diagnostics["log_negativity"] == 0.0
        # the motion just flips sign: same thermal covariance as it started with
        motion = result.state.reduced(("motion",))
        assert np.allclose(motion.cov, (2 * 0.7 + 1) * np.eye(2), atol=1e-12)


class TestRunSequential:
    def test_ideal_memory_transfer(self, indium_params):
        t1 = 1.2 / abs_chi1(indium_params)
        result = run_sequential(indium_params, t1=t1, delay_t12=math.inf)
        assert result.stage_a_entanglement == pytest.approx(2 * 1.2, abs=1e-9)
        assert result.final_entanglement == pytest.approx(
            result.stage_a_entanglement, abs=1e-9)
        assert result.motion_residual_norm < 1e-9

    def test_full_exchange_cycle_leaves_memory_in_motion(self, indium_params):
        t1 = 1.0 / abs_chi1(indium_params)
        result = run_sequential(indium_params, t1=t1, delay_t12=math.inf,
                                swap_area=math.pi)
        assert result.final_entanglement == pytest.approx(0.0, abs=1e-9)
        assert result.pulse1_motion_entanglement == pytest.approx(
            result.stage_a_entanglement, abs=1e-9)

    def test_extraction_improves_with_delay(self, indium_params):
        t1 = 1.0 / abs_chi1(indium_params)
        values = [run_sequential(indium_params, t1=t1,
                                 delay_t12=kt / indium_params.kappa).final_entanglement
                  for kt in (1.0, 3.0, 5.0, 10.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_no_squeezing_without_pair_coupling(self, indium_params):
        dark = PhysicalParams(
            nu=indium_params.nu, gamma=indium_params.gamma,
            delta=indium_params.delta, omega_rabi=indium_params.omega_rabi,
            kappa=indium_params.kappa, g1=0.0, g2=indium_params.g2,
            mass=indium_params.mass, wavenumber=indium_params.wavenumber)
        result = run_sequential(dark, t1=1e-5, delay_t12=math.inf)
        assert result.stage_a_entanglement == 0.0
        assert result.final_entanglement == 0.0

    def test_t1_must_be_positive(self, indium_params):
        with pytest.raises(ParameterError):
            run_sequential(indium_params, t1=0.0)
        with pytest.raises(ParameterError):
            run_sequential(indium_params, t1=-1.0)

    def test_non_finite_stage_times_rejected(self, indium_params):
        # both drive stages run through gaussian.evolve, which refuses them
        with pytest.raises(StateError):
            run_sequential(indium_params, t1=math.inf)
        with pytest.raises(StateError):
            run_sequential(indium_params, t1=1e-5, swap_area=math.inf)


def abs_chi1(params):
    from ionlight.params import coupling_constants
    return abs(coupling_constants(params).chi1)
