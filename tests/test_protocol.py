import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import mutated, random_couplings
import ionlight
from ionlight import fock_oracle, gaussian, protocol
from ionlight.errors import (ParameterError, RegimeError, StateError, UndefinedPeriodError,
                             UnphysicalStateError, require_half_period)
from ionlight.params import Couplings, PhysicalParams, coupling_constants
from ionlight.protocol import (DEFAULT_R_LIST, MAX_GRID_POINTS, SEQUENTIAL_LABELS,
                               SIMULTANEOUS_LABELS, HomodyneSettings,
                               beam_splitter_signal, default_time_grid,
                               fig3_sweep, output_signal, run_sequential,
                               run_simultaneous, run_stages, sequential_stages,
                               simultaneous_stages)

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


def source_moments(chi1, chi2, theta1=0.0, theta2=0.0):
    """(<q1^2>, <q1 q2>) of the source as ``output_signal`` reports them."""
    trace = output_signal(Couplings(chi1, chi2), 1.0, HomodyneSettings(theta1, theta2))
    return trace.q1_sq, trace.q1q2


class TestQuadratureMoments:
    def test_reference_point(self):
        q1_sq, q1q2 = source_moments(1.0, 1.1)
        assert q1_sq == pytest.approx(((1 + 1.21) ** 2 + 4 * 1.21) / 0.21**2, rel=1e-14)
        assert q1q2 == pytest.approx(4 * 1.1 * (1 + 1.21) / 0.21**2, rel=1e-14)
        assert q1_sq == pytest.approx(Q1_SQ_R11, rel=1e-15)
        assert q1q2 == pytest.approx(Q1Q2_R11, rel=1e-15)
        assert q1_sq == pytest.approx(220.5, abs=2e-3)
        assert q1q2 == pytest.approx(220.5, abs=2e-3)

    def test_chi1_zero_limit(self):
        q1_sq, q1q2 = source_moments(0.0, 2.0)
        assert q1_sq == pytest.approx(1.0, rel=1e-14)     # bare vacuum
        assert q1q2 == 0.0

    def test_orthogonal_theta_sum_kills_cross_term(self):
        _, q1q2 = source_moments(1.0, 1.5, theta1=math.pi / 4, theta2=math.pi / 4)
        assert q1q2 == pytest.approx(0.0, abs=1e-12)

    def test_requires_r_above_one(self):
        with pytest.raises(UndefinedPeriodError):
            source_moments(2.0, 1.0)

    @pytest.mark.parametrize("args", [
        (1.0, math.nan), (math.nan, 2.0), (1.0, math.inf), (math.inf, 2.0),
        (1.0, complex(2.0, math.nan)), (1.0, 2.0, math.nan), (1.0, 2.0, 0.0, math.inf),
    ])
    def test_rejects_non_finite_arguments(self, args):
        # Couplings refuses the rate and HomodyneSettings the angle, before
        # the r > 1 check, which a NaN rate passes
        with pytest.raises(ParameterError):
            source_moments(*args)

    @pytest.mark.parametrize("args", [
        (1e300,), (0.0, -1e300), (2 * math.pi * (1 + 2 ** -52),),
    ])
    def test_rejects_angles_past_two_pi(self, args):
        # the cos of 1e300 is round-off: <q1 q2> would read -126.87, not 220.50
        with pytest.raises(ParameterError, match="2 pi"):
            HomodyneSettings(*args)

    def test_angles_of_two_pi_accepted(self):
        _, q1q2 = source_moments(1.0, 1.1, 2 * math.pi, -2 * math.pi)
        assert q1q2 == pytest.approx(Q1Q2_R11, rel=1e-14)

    def test_matches_evolved_state(self, rng):
        # formula route vs. moments of the actual half-period state
        for _ in range(20):
            chi1, chi2 = random_couplings(rng)
            theta1 = rng.uniform(-math.pi, math.pi)
            theta2 = rng.uniform(-math.pi, math.pi)
            state, _ = source_state(chi1, chi2)
            q1_sq_f, q1q2_f = source_moments(chi1, chi2, theta1, theta2)
            q1_sq_s, q1q2_s = state_moments(state, theta1, theta2)
            assert q1_sq_f == pytest.approx(q1_sq_s, abs=1e-9 * max(1, q1_sq_s))
            assert q1q2_f == pytest.approx(q1q2_s, abs=1e-9 * max(1, abs(q1q2_s)))


def assert_closed_form_equals_beam_splitter_model(rng):
    """The closed-form C(t) and the explicit detection model agree to 1e-9 at 10 random points."""
    grid = default_time_grid(6.0, 0.1)
    for _ in range(10):
        chi1, chi2 = random_couplings(rng)
        settings = HomodyneSettings(
            theta1=rng.uniform(-math.pi, math.pi),
            theta2=rng.uniform(-math.pi, math.pi),
            kappa_dt=rng.uniform(0.02, 1.0), t_grid=grid)
        couplings = Couplings.from_chis(chi1, chi2)
        closed = protocol.output_signal(couplings, 1.0, settings).c_values
        model = beam_splitter_signal(couplings, settings)
        assert np.max(np.abs(closed - model)) < 1e-9


def three_mode_route_signal(couplings, settings):
    """beam_splitter_signal by its former route: the stage list on the three-mode vacuum, reduced."""
    source = run_stages(gaussian.vacuum(3, SIMULTANEOUS_LABELS),
                        simultaneous_stages(couplings))[-1].reduced(("cav1", "cav2"))
    rotation = np.zeros((4, 4))
    for k, theta in enumerate((settings.theta1, settings.theta2)):
        c, s = math.cos(theta), math.sin(theta)
        rotation[2 * k:2 * k + 2, 2 * k:2 * k + 2] = np.array([[c, -s], [s, c]])
    sigma = rotation @ source.cov @ rotation.T
    weight = 2.0 * settings.kappa_dt * np.exp(-2.0 * settings.t_grid)
    var1 = weight * sigma[0, 0] + 1.0
    var2 = weight * sigma[2, 2] + 1.0
    cross = weight * sigma[0, 2]
    return (var1 + var2 - 2.0 * cross) / (var1 + var2)


class TestOutputSignal:
    def test_frozen_r11_point(self):
        settings = HomodyneSettings(kappa_dt=0.1, t_grid=default_time_grid())
        trace = output_signal(Couplings.from_chis(1.0, 1.1), 1.0, settings)
        assert trace.c_values[0] == pytest.approx(C0_R11, rel=1e-12)
        # squeezed below 10% of shot noise out to roughly kappa*t = 0.8
        below = trace.times[trace.c_values < 0.1]
        assert below[-1] == pytest.approx(0.78, abs=1e-9)

    def test_closed_form_equals_beam_splitter_model(self, rng):
        assert_closed_form_equals_beam_splitter_model(rng)

    @pytest.mark.parametrize("thetas", [(0.0, 0.0), (0.7, -2.9), (-5.5, 6.2)])
    def test_beam_splitter_signal_equals_the_three_mode_route(self, rng, thetas):
        for _ in range(10):
            couplings = Couplings.from_chis(*random_couplings(rng))
            settings = HomodyneSettings(*thetas, kappa_dt=rng.uniform(0.02, 1.0))
            assert np.array_equal(beam_splitter_signal(couplings, settings),
                                  three_mode_route_signal(couplings, settings))

    def test_product_with_own_transpose_is_exactly_symmetric(self, rng):
        # beam_splitter_signal takes the source covariance as rows @ rows.T
        # unsymmetrised: numpy computes a product with its own transpose view
        # from one triangle (BLAS syrk) and copies it to the other
        for _ in range(10):
            rows = gaussian.bogoliubov_tpi(Couplings.from_chis(*random_couplings(rng)))[:4]
            product = rows @ rows.T
            assert np.array_equal(product, product.T)
        for shape in ((4, 6), (100, 1000), (257, 129)):
            a = rng.normal(size=shape)
            product = a @ a.T
            assert np.array_equal(product, product.T), shape

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

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ParameterError):
            output_signal(Couplings.from_chis(1.0, 1.1), kappa, HomodyneSettings())

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
        assert d["n_cav1"] == pytest.approx(result.couplings.n_mean, abs=1e-9)
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

    def test_motion_untouched_exactly(self, indium_params, rng):
        # the half-period map only flips the motion's sign: its covariance
        # comes back bit for bit, with no correlation to the light
        for _ in range(20):
            r, nbar = rng.uniform(1.06, 3.0), rng.uniform(0.0, 100.0)
            result = run_simultaneous(at_ratio(indium_params, r, nbar), force=True)
            assert result.couplings.r == pytest.approx(r, rel=1e-12)
            assert np.array_equal(result.state.reduced(("motion",)).cov,
                                  gaussian.thermal(nbar).cov)
            assert result.diagnostics["motion_decorrelation"] == 0.0

    @pytest.mark.parametrize("nbar", [0.0, 100.0])
    @pytest.mark.parametrize("gap", [1e-1, 3e-2, 1e-2, 5e-3])
    def test_log_negativity_near_degeneracy(self, indium_params, gap, nbar):
        # complex chi phases; E_N = 2s with sinh s = 2r/(r^2 - 1)
        p = at_ratio(indium_params, 1.0 + gap, nbar, phases=(0.7, -2.1))
        result = run_simultaneous(p, force=True)
        r = result.couplings.r
        assert r == pytest.approx(1.0 + gap, rel=1e-12)
        assert result.diagnostics["log_negativity"] == pytest.approx(
            2.0 * math.asinh(2.0 * r / (r * r - 1.0)), rel=1e-6)

    @pytest.mark.parametrize("r,nbar", [(1.010, 0.0), (1.011, 25.0), (1.0115, 50.0),
                                        (1.012, 75.0), (1.013, 100.0)])
    def test_log_negativity_at_near_degenerate_benchmark_points(self, indium_params, r, nbar):
        result = run_simultaneous(at_ratio(indium_params, r, nbar), force=True)
        r = result.couplings.r
        assert result.diagnostics["log_negativity"] == pytest.approx(
            2.0 * math.asinh(2.0 * r / (r * r - 1.0)), rel=1e-8)

    @pytest.mark.parametrize("gap", [1e-3, 1e-5])
    def test_unresolvable_spectrum_refused(self, indium_params, gap):
        # round-off of the spectrum exceeds gaussian.SPECTRUM_LIMIT: a typed
        # error, not a false "unphysical" verdict or a degraded E_N
        with pytest.raises(StateError, match="round-off bound") as info:
            run_simultaneous(at_ratio(indium_params, 1.0 + gap, 0.0), force=True)
        assert not isinstance(info.value, UnphysicalStateError)

    def test_lossy_drive_variant(self, indium_params, indium_config):
        # sensitivity run, one gaussian.evolve call: decay on during the
        # drive loses a little light but must stay physical
        lossless = run_simultaneous(indium_params, ratio=indium_config.ratio)
        c = lossless.couplings
        initial = gaussian.tensor(gaussian.vacuum(2, ("cav1", "cav2")),
                                  gaussian.thermal(indium_params.nbar_motion, "motion"))
        lossy = gaussian.evolve(initial, gaussian.dynamics_from_couplings(
            c.chi1, c.chi2, indium_params.kappa), c.t_pi)
        assert gaussian.mean_photons(lossy, "cav1") < lossless.diagnostics["n_cav1"]
        assert gaussian.mean_photons(lossy, "cav1") > 0.5 * lossless.diagnostics["n_cav1"]
        nu_min = np.min(gaussian.symplectic_eigenvalues(lossy.cov))
        assert nu_min >= 1.0 - 1e-9

    def test_regime_gate(self, indium_params):
        # default ratio 10 is stricter than this parameter set satisfies
        with pytest.raises(ParameterError):
            run_simultaneous(indium_params)
        result = run_simultaneous(indium_params, force=True)
        assert result.diagnostics["n_cav1"] == pytest.approx(109.75, abs=1e-2)

    def test_only_the_gate_raises_regime_error(self, indium_params):
        assert issubclass(RegimeError, ParameterError)
        assert ionlight.RegimeError is RegimeError
        with pytest.raises(RegimeError, match="operating-regime check failed"):
            run_simultaneous(indium_params)
        huge = dataclasses.replace(indium_params, wavenumber=1e200)   # non-finite rates
        for params, ratio in ((indium_params, 0.5), (huge, 10.0)):
            with pytest.raises(ParameterError) as err:
                run_simultaneous(params, ratio=ratio)
            assert type(err.value) is ParameterError

    def test_default_ratio_refuses_the_bundled_point(self, indium_params, indium_config):
        # the bundled config checks the regime at factor 5, the library default at 10
        assert indium_config.ratio == 5.0
        with pytest.raises(ParameterError, match=r"\(theta >> kappa, 1 >> eta\)"):
            run_simultaneous(indium_params)
        result = run_simultaneous(indium_params, ratio=indium_config.ratio)
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


def assert_final_covariance_matches_evolved_terms(params, swap_area):
    """run_sequential's covariance equals evolve() through each stage's term."""
    # H = i chi1 a+ b+ + i chi2 a+ b + h.c., a the cavity and b the motion,
    # one coupling at a time; in between, the beam splitter i c+ a + h.c.
    # of area acos(exp(-kappa T12)) hands the emitted light to pulse 1 (c).
    # Local phases leave E_N and photon numbers alone; the covariance
    # carries the phase of every stage.
    p = at_ratio(params, 1.3, 1.5, phases=(0.7, -2.1))
    c = coupling_constants(p)
    t1, delay = 0.8 / abs(c.chi1), 1.5 / p.kappa
    labels = ("cav", "motion", "pulse1")
    stages = (((gaussian.PAIR, "cav", "motion", c.chi1), t1),
              ((gaussian.EXCHANGE, "pulse1", "cav", 1.0),
               math.acos(math.exp(-p.kappa * delay))),
              ((gaussian.EXCHANGE, "cav", "motion", c.chi2), swap_area / abs(c.chi2)))
    state = gaussian.tensor(gaussian.vacuum(1, ("cav",)), gaussian.thermal(1.5, "motion"),
                            gaussian.vacuum(1, ("pulse1",)))
    for term, t in stages:
        state = gaussian.evolve(state, gaussian.quadratic_dynamics(labels, [term]), t)
    final = run_sequential(p, t1=t1, delay_t12=delay, swap_area=swap_area).state
    assert final.mode_labels == labels
    assert np.max(np.abs(final.cov - state.cov)) <= 1e-9 * np.max(np.abs(state.cov))


def assert_extraction_hands_over_the_emitted_fraction(params, kappa_t12):
    # without the swap pulse, pulse 1 holds 1 - exp(-2 kappa T12) of the
    # sinh^2(|chi1| t1) photons stage A put in the cavity; the rest stays
    result = run_sequential(params, t1=1.0 / abs_chi1(params),
                            delay_t12=kappa_t12 / params.kappa, swap_area=0.0)
    made = math.sinh(1.0) ** 2
    emitted = -math.expm1(-2.0 * kappa_t12)
    assert gaussian.mean_photons(result.state, "pulse1") == pytest.approx(
        emitted * made, rel=1e-12, abs=1e-15)
    assert gaussian.mean_photons(result.state, "cav") == pytest.approx(
        (1.0 - emitted) * made, rel=1e-12, abs=1e-15)


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
        # t1 reaches gaussian.term_propagator, which refuses it; swap_area is
        # refused first, by its [0, 2 pi] bound
        with pytest.raises(StateError):
            run_sequential(indium_params, t1=math.inf)
        with pytest.raises(ParameterError, match="swap_area"):
            run_sequential(indium_params, t1=1e-5, swap_area=math.inf)

    @pytest.mark.parametrize("bad", [dict(swap_area=math.nan), dict(delay_t12=math.nan),
                                     dict(swap_area=-0.1), dict(delay_t12=-1.0)])
    def test_nan_or_negative_stage_arguments_rejected(self, indium_params, bad):
        with pytest.raises(ParameterError):
            run_sequential(indium_params, t1=1e-5, **bad)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, math.nan, math.inf])
    def test_stages_refuse_a_bad_kappa(self, indium_params, kappa):
        with pytest.raises(ParameterError, match="kappa must be positive and finite"):
            sequential_stages(coupling_constants(indium_params), kappa, t1=1e-5,
                              delay_t12=1e-4, swap_area=math.pi / 2)

    @pytest.mark.parametrize("nbar", [0.0, 10.0])
    @pytest.mark.parametrize("area", [2.0, 4.0, 5.0])
    def test_entanglement_at_large_areas(self, indium_params, area, nbar):
        p = dataclasses.replace(indium_params, nbar_motion=nbar)
        result = run_sequential(p, t1=area / abs_chi1(p))
        want = squeezed_thermal_log_negativity(area, nbar)
        assert result.stage_a_entanglement == pytest.approx(want, rel=1e-6)
        assert result.final_entanglement == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("area", [8.0, 30.0])
    def test_unresolvable_areas_refused(self, indium_params, area):
        with pytest.raises(StateError, match="round-off bound") as info:
            run_sequential(indium_params, t1=area / abs_chi1(indium_params))
        assert not isinstance(info.value, UnphysicalStateError)

    @pytest.mark.parametrize("swap_area", [1.2, math.pi / 2])
    def test_final_covariance_matches_evolved_terms(self, indium_params, swap_area):
        assert_final_covariance_matches_evolved_terms(indium_params, swap_area)

    @pytest.mark.parametrize("kappa_t12", [0.0, 0.3, 2.0, math.inf])
    def test_extraction_hands_over_the_emitted_fraction(self, indium_params, kappa_t12):
        assert_extraction_hands_over_the_emitted_fraction(indium_params, kappa_t12)


class TestStages:
    def test_stage_names(self, indium_params):
        c = coupling_constants(indium_params)
        assert tuple(s.name for s in simultaneous_stages(c)) == ("pulse",)
        stages = sequential_stages(c, indium_params.kappa, t1=1e-5, delay_t12=1e-6,
                                   swap_area=math.pi / 2)
        assert tuple(s.name for s in stages) == ("pair", "extract", "swap")

    def test_directly_built_couplings_run_the_pulse(self):
        (pulse,) = simultaneous_stages(Couplings(1.0, 2.0))
        assert pulse.t == math.pi / math.sqrt(3.0)
        assert np.array_equal(pulse.symplectic,
                              gaussian.bogoliubov_tpi(Couplings.from_chis(1.0, 2.0)))

    def test_one_state_per_stage(self, indium_params):
        c = coupling_constants(indium_params)
        for labels, stages in (
                (SIMULTANEOUS_LABELS, simultaneous_stages(c)),
                (SEQUENTIAL_LABELS, sequential_stages(c, indium_params.kappa, t1=1e-5,
                                                      delay_t12=math.inf, swap_area=1.0))):
            states = run_stages(gaussian.vacuum(3, labels), stages)
            assert len(states) == len(stages)
            assert all(state.mode_labels == labels for state in states)
        assert run_stages(gaussian.vacuum(3, SIMULTANEOUS_LABELS), ()) == ()

    def test_runs_apply_the_stages(self, indium_params):
        c = coupling_constants(indium_params)
        (pulse,) = simultaneous_stages(c)
        assert pulse.t == c.t_pi
        assert np.array_equal(pulse.symplectic, gaussian.bogoliubov_tpi(c))
        result = run_simultaneous(indium_params, force=True)
        initial = gaussian.tensor(gaussian.vacuum(2, ("cav1", "cav2")),
                                  gaussian.thermal(indium_params.nbar_motion, "motion"))
        (final,) = run_stages(initial, (pulse,))
        assert np.array_equal(final.cov, result.state.cov)

    @pytest.mark.parametrize("swap_area", [1.0, 2.0 * math.pi])
    def test_swap_without_exchange_coupling_is_identity(self, indium_params, swap_area):
        # chi2 = 0: the swap stage is the identity map, so the protocol ends
        # bit for bit where the extraction left it
        p = dataclasses.replace(indium_params, g2=0.0, nbar_motion=2.0)
        c = coupling_constants(p)
        assert c.chi2 == 0.0
        stages = sequential_stages(c, p.kappa, t1=1.0 / abs(c.chi1),
                                   delay_t12=1.0 / p.kappa, swap_area=swap_area)
        assert stages[-1].t == 0.0
        assert np.array_equal(stages[-1].symplectic, np.eye(6))
        initial = gaussian.tensor(gaussian.vacuum(1, ("cav",)), gaussian.thermal(2.0),
                                  gaussian.vacuum(1, ("pulse1",)))
        _, extracted, _ = run_stages(initial, stages)
        final = run_sequential(p, t1=1.0 / abs(c.chi1), delay_t12=1.0 / p.kappa,
                               swap_area=swap_area).state
        assert final.cov.tobytes() == extracted.cov.tobytes()

    def test_undefined_period_checked_before_regime_gate(self, indium_params):
        blue = dataclasses.replace(indium_params, delta=-indium_params.delta)
        assert coupling_constants(blue).r < 1.0
        with pytest.raises(UndefinedPeriodError):
            run_simultaneous(blue, force=False)
        with pytest.raises(UndefinedPeriodError):
            simultaneous_stages(coupling_constants(blue))


class TestOneSpectrumPerNegativity:
    """Structural guard: each log-negativity costs one stacked eigvals call, and nothing else calls it."""

    @pytest.fixture()
    def eigvals_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        return calls

    def test_log_negativity(self, eigvals_calls):
        gaussian.log_negativity(gaussian.tmss(2.0), ("cav1",))
        assert eigvals_calls == [(2, 4, 4)]

    def test_run_simultaneous(self, eigvals_calls, indium_params):
        run_simultaneous(indium_params, force=True)
        assert len(eigvals_calls) == 1

    def test_run_sequential(self, eigvals_calls, indium_params):
        run_sequential(indium_params, t1=1.0 / abs_chi1(indium_params))
        assert len(eigvals_calls) == 3


class TestOneDriftPerTerm:
    """Structural guard: a stage's map reads the drift of its one term, and builds no dynamics."""

    def test_sequential_stages_build_no_linear_dynamics(self, monkeypatch, indium_params):
        built = []
        original = gaussian.LinearDynamics.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(gaussian.LinearDynamics, "__post_init__", counted)
        c = coupling_constants(indium_params)
        gaussian.quadratic_dynamics(SEQUENTIAL_LABELS, ())     # the count sees one
        assert len(built) == 1
        sequential_stages(c, indium_params.kappa, t1=1.0 / abs(c.chi1),
                          delay_t12=1.0 / indium_params.kappa, swap_area=math.pi / 2)
        assert len(built) == 1

    @pytest.mark.parametrize("kind", [gaussian.PAIR, gaussian.EXCHANGE])
    def test_term_propagator_is_the_closed_form_of_the_drift(self, rng, kind):
        # I + (c - 1) P + (s / |chi|) A, with A the drift quadratic_dynamics
        # derives from the term; A vanishes on P's diagonal, whose entries are c
        for mode_a, mode_b in (("cav", "motion"), ("pulse1", "cav")):
            for _ in range(5):
                chi = complex(*rng.normal(size=2))
                term = (kind, mode_a, mode_b, chi)
                t = rng.uniform(0.1, 2.0)
                rate = abs(chi)
                if kind == gaussian.PAIR:
                    c, s = math.cosh(rate * t), math.sinh(rate * t)
                else:
                    c, s = math.cos(rate * t), math.sin(rate * t)
                drift = gaussian.quadratic_dynamics(SEQUENTIAL_LABELS, [term]).drift
                want = np.eye(6) + (s / rate) * drift
                for label in (mode_a, mode_b):
                    k = SEQUENTIAL_LABELS.index(label)
                    assert drift[2 * k, 2 * k] == drift[2 * k + 1, 2 * k + 1] == 0.0
                    want[2 * k, 2 * k] = want[2 * k + 1, 2 * k + 1] = c
                assert np.array_equal(gaussian.term_propagator(SEQUENTIAL_LABELS, term, t), want)


def abs_chi1(params):
    return abs(coupling_constants(params).chi1)


def at_ratio(params, r, nbar, phases=(0.0, 0.0)):
    """The parameter set with |chi2/chi1| = r (through g2), nbar and chi phases shifted."""
    base_r = coupling_constants(params).r
    return dataclasses.replace(params, g1=params.g1 * cmath.exp(1j * phases[0]),
                               g2=params.g2 * (r / base_r) * cmath.exp(1j * phases[1]),
                               nbar_motion=nbar)


def squeezed_thermal_log_negativity(area, nbar):
    """E_N of vacuum x thermal(nbar) after a two-mode squeezer of the given area.

    With a, b = 1, 2 nbar + 1 the smaller symplectic eigenvalue of the
    partially transposed covariance is
    (a + b) cosh(2 area) / 2 - sqrt((a - b)^2 + (a + b)^2 sinh(2 area)^2) / 2,
    written here in its cancellation-free form 2ab / (sum of the two terms).
    """
    a, b = 1.0, 2.0 * nbar + 1.0
    nu = 2.0 * a * b / ((a + b) * math.cosh(2.0 * area)
                        + math.hypot(a - b, (a + b) * math.sinh(2.0 * area)))
    return max(0.0, -math.log(nu))


@pytest.mark.parametrize("site", ["output_signal", "bogoliubov_tpi", "simultaneous_stages",
                                  "fig3_sweep", "suggest_dims", "crosscheck"])
def test_every_site_refuses_r_below_one_alike(site):
    couplings = Couplings.from_chis(1.0, 0.9)
    call = {
        "output_signal": lambda: output_signal(couplings, 1.0, HomodyneSettings()),
        "bogoliubov_tpi": lambda: gaussian.bogoliubov_tpi(couplings),
        "simultaneous_stages": lambda: simultaneous_stages(couplings),
        "fig3_sweep": lambda: fig3_sweep([0.9]),
        "suggest_dims": lambda: fock_oracle.suggest_dims(0.9),
        "crosscheck": lambda: fock_oracle.crosscheck(0.9),
    }[site]
    with pytest.raises(UndefinedPeriodError) as err:
        call()
    assert type(err.value) is UndefinedPeriodError
    assert str(err.value) == \
        "r = |chi2/chi1| must exceed 1 for a half-period to exist, got r = 0.9"


def test_the_refusal_of_r_below_one_refuses_nan():
    with pytest.raises(UndefinedPeriodError):
        require_half_period(math.nan)


class TestMutants:
    """Mutants of the signal that the checks above must catch."""

    def test_cross_term_off_by_a_quarter_percent_fails_beam_splitter_model(
            self, monkeypatch, rng):
        # output_signal's correlation term 2 <q1 q2> / (<q1^2> + <q2^2>), x 1.0025
        monkeypatch.setattr(protocol, "output_signal", mutated(
            protocol, "output_signal", "math.cos(phase)", "math.cos(phase) * 1.0025"))
        with pytest.raises(AssertionError):
            assert_closed_form_equals_beam_splitter_model(rng)

    @staticmethod
    def mutate_swap_chi2(monkeypatch, mutate):
        # sequential_stages builds its swap term from mutate(chi2)
        original = protocol.sequential_stages

        def mutated(*args):
            *head, swap = original(*args)
            ((kind, mode_a, mode_b, chi2),) = swap.terms
            term = (kind, mode_a, mode_b, mutate(chi2))
            return (*head, swap._replace(terms=(term,), symplectic=gaussian.term_propagator(
                SEQUENTIAL_LABELS, term, swap.t)))

        monkeypatch.setattr(protocol, "sequential_stages", mutated)

    @pytest.mark.parametrize("swap_area", [1.2, math.pi / 2])
    def test_conjugated_swap_chi2_fails_evolved_terms(self, monkeypatch, indium_params,
                                                       swap_area):
        self.mutate_swap_chi2(monkeypatch, complex.conjugate)
        with pytest.raises(AssertionError):
            assert_final_covariance_matches_evolved_terms(indium_params, swap_area)

    @pytest.mark.parametrize("swap_area", [1.2, math.pi / 2])
    def test_negated_swap_chi2_fails_evolved_terms(self, monkeypatch, indium_params,
                                                    swap_area):
        self.mutate_swap_chi2(monkeypatch, lambda chi2: -chi2)
        with pytest.raises(AssertionError):
            assert_final_covariance_matches_evolved_terms(indium_params, swap_area)

    def test_doubled_extraction_exponent_fails_emitted_fraction(self, monkeypatch,
                                                                 indium_params):
        # area acos(exp(-2 kappa T12)): kappa enters sequential_stages only there
        original = protocol.sequential_stages
        monkeypatch.setattr(protocol, "sequential_stages",
                            lambda couplings, kappa, *rest: original(couplings, 2 * kappa, *rest))
        with pytest.raises(AssertionError):
            assert_extraction_hands_over_the_emitted_fraction(indium_params, 0.3)
