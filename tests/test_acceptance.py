"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import lossless_reference, mutated, random_couplings
from ionlight import cli, fock_oracle, gaussian, protocol
from ionlight.cli import bundled_config_path
from ionlight.params import Couplings, PhysicalParams, coupling_constants, validate_regime

INDIUM = str(bundled_config_path())

# Regression fixtures for the default signal sweep (first computed with the
# independent attenuate-and-mix detection model, then frozen):
MIN_C = {
    1.8: 0.455106237148732,
    1.5: 0.28767123287671226,
    1.3: 0.14585445086281634,
    1.1: 0.022182893228485767,
    1.05: 0.0059143620636521455,
}
# first grid time with C > 0.5 on the default grid (step 0.02/kappa)
CROSS_HALF = {1.8: 0.10, 1.5: 0.46, 1.3: 0.90, 1.1: 1.90, 1.05: 2.58}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_photon_number(capsys):
    with criterion(1, "about 110 photons per mode at r = 1.1"):
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", INDIUM])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        n1 = float(re.search(r"photons per mode\s+= (\S+) \(cav1\)", out).group(1))
        n2 = float(re.search(r"\(cav1\), (\S+) \(cav2\)", out).group(1))
        assert abs(n1 - 109.75) <= 0.01
        assert abs(n2 - 109.75) <= 0.01
        assert elapsed < 1.0


def test_criterion_2_signal_sweep(tmp_path, capsys):
    with criterion(2, "signal sweep reproduces the squeezing phenomenology"):
        start = time.perf_counter()
        code = cli.main(["fig3", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        traces = {}
        for r in MIN_C:
            rows = (tmp_path / f"fig3_r{r:g}.csv").read_text().splitlines()[2:]
            data = np.array([[float(x) for x in row.split(",")] for row in rows])
            traces[r] = (data[:, 0], data[:, 1])
        assert len(traces) == 5

        # (a) r = 1.1 stays below 10% of shot noise for at least 0.5/kappa
        #     within the first 1.5/kappa
        t, c = traces[1.1]
        window = t[(t <= 1.5) & (c < 0.1)]
        assert window.size > 0 and window[0] == 0.0
        assert window[-1] - window[0] >= 0.5

        # (b) recovery-past-0.5 times strictly ordered as r decreases
        crossings = {}
        for r, (t, c) in traces.items():
            above = np.nonzero(c > 0.5)[0]
            crossings[r] = t[above[0]]
            assert crossings[r] == pytest.approx(CROSS_HALF[r], abs=1e-9)
        ordered = [crossings[r] for r in (1.8, 1.5, 1.3, 1.1, 1.05)]
        assert all(a < b for a, b in zip(ordered, ordered[1:]))

        # (c) r = 1.05 still squeezed at kappa*t = 3
        t, c = traces[1.05]
        assert c[np.argmin(np.abs(t - 3.0))] < 1.0 - 1e-6

        # (d) all values in (0, 1], shot noise recovered at the grid end
        for r, (t, c) in traces.items():
            assert np.all(c > 0.0) and np.all(c <= 1.0)
            assert abs(c[-1] - 1.0) < 1e-3
            assert c.min() == pytest.approx(MIN_C[r], rel=1e-12)

        assert elapsed < 5.0


def assert_term_maps_match_expm(rng):
    """Criterion 3's term loop: each closed-form term map equals scipy's expm of its drift."""
    labels = ("a", "b", "c")
    for kind in (gaussian.PAIR, gaussian.EXCHANGE):
        for angle in (0.0, 0.1, 1.0, 3.0):
            for phase in (0.0, math.pi / 3, -2.5):
                rate = rng.uniform(0.5, 2.0)
                term = (kind, "c", "a", rate * complex(math.cos(phase), math.sin(phase)))
                t = angle / rate
                closed = gaussian.term_propagator(labels, term, t)
                reference = expm(gaussian.drift(labels, [term]) * t)
                assert np.linalg.norm(closed - reference) < 1e-9 * np.linalg.norm(reference)


def test_criterion_3_analytic_numeric_equivalence(rng):
    # The named cross-check: the protocols apply closed-form maps, and the
    # matrix exponential of the term-list drift is the reference they must match.
    with criterion(3, "closed-form maps equal the matrix exponential of the term list"):
        start = time.perf_counter()
        assert_term_maps_match_expm(rng)
        # Every stage of both protocols, as the protocols build them.
        draws = [(*random_couplings(rng, r_low=1.05, r_high=3.0), rng.uniform(0.0, 3.0))
                 for _ in range(20)]
        for chi1, chi2, nbar in draws:
            c = Couplings.from_chis(chi1, chi2)
            # pair area |chi1| t1, kappa T12 and swap area
            area, kappa_t12, swap_area = rng.uniform((0.1, 0.0, 0.0), (2.0, 5.0, 3.0))
            motion = gaussian.thermal(nbar, "motion")
            for initial, stages in (
                    (gaussian.tensor(gaussian.vacuum(2, ("cav1", "cav2")), motion),
                     protocol.simultaneous_stages(c)),
                    (gaussian.tensor(gaussian.vacuum(1, ("cav",)), motion,
                                     gaussian.vacuum(1, ("pulse1",))),
                     protocol.sequential_stages(c, area / abs(chi1), kappa_t12,
                                                swap_area))):
                after = protocol.run_stages(initial, stages)
                for before, stage, mapped in zip((initial,) + after[:-1], stages, after):
                    evolved = lossless_reference(before.mode_labels, before.cov,
                                                 stage.terms, stage.t)
                    assert np.linalg.norm(evolved - mapped.cov) < 1e-9, stage.name
        assert time.perf_counter() - start < 1.0


def test_criterion_4_gaussian_fock_agreement():
    with criterion(4, "gaussian engine agrees with the number-basis oracle"):
        start = time.perf_counter()
        for r in (1.5, 2.0, 2.5, 3.0):
            check = fock_oracle.crosscheck(
                r, fock_oracle.suggest_dims(r, leak_target=1e-11))
            assert check.observables.leakage < 1e-10
            assert [row[0] for row in check.rows] == [
                "photons cav1", "photons cav2", "photons motion",
                "EPR var X1-X2", "EPR var P1+P2", "max |cov| diff"]
            for name, g_val, f_val in check.rows:
                assert abs(g_val - f_val) < 1e-6, name
        assert time.perf_counter() - start < 60.0


def test_criterion_5_motion_decorrelation(indium_params, indium_config):
    with criterion(5, "motion decorrelates and its initial state is irrelevant"):
        results = {}
        for nbar in (0.0, 5.0):
            p = PhysicalParams(
                nu=indium_params.nu, gamma=indium_params.gamma,
                delta=indium_params.delta, omega_rabi=indium_params.omega_rabi,
                kappa=indium_params.kappa, g1=indium_params.g1,
                g2=indium_params.g2, mass=indium_params.mass,
                wavenumber=indium_params.wavenumber, nbar_motion=nbar)
            result = protocol.run_simultaneous(p, ratio=indium_config.ratio)
            assert gaussian.decorrelation_norm(
                result.state, ("motion",), ("cav1", "cav2")) < 1e-9
            results[nbar] = result.state.reduced(("cav1", "cav2"))
        assert np.max(np.abs(results[0.0].cov - results[5.0].cov)) < 1e-9


def test_criterion_6_target_state_consistency(rng):
    with criterion(6, "squeezed target state matches the half-period map"):
        for _ in range(10):
            chi1, chi2 = random_couplings(rng)
            c = Couplings.from_chis(chi1, chi2)
            s = gaussian.bogoliubov_tpi(c)
            reduced_cov = (s @ s.T)[:4, :4]          # map applied to vacuum
            target = gaussian.tmss(c.r, c.beta)
            assert np.max(np.abs(reduced_cov - target.cov)) < 1e-10
            nu = gaussian.symplectic_eigenvalues(target.cov)
            assert np.max(np.abs(nu - 1.0)) < 1e-10


def test_criterion_7_regime_validator(indium_params):
    with criterion(7, "bundled indium set passes the feasibility analysis"):
        couplings = coupling_constants(indium_params)
        report = validate_regime(indium_params, couplings, much_greater_ratio=5.0)
        assert report.overall_pass
        # half-period pulse on the 0.1 ms scale
        assert 73e-6 <= couplings.t_pi <= 80e-6
        # cavity-photon scattering rate: a few tens of Hz, far below kappa
        # (2pi x 22.7 Hz at the bundled 63 MHz detuning; 2pi x 25 Hz at 60 MHz)
        by_name = {c.name: c for c in report.constraints}
        scatter = by_name["kappa >> gamma*|g1|^2/delta^2"]
        assert 2 * math.pi * 15.0 <= scatter.right <= 2 * math.pi * 35.0
        assert scatter.margin >= 40.0


def test_criterion_8_sequential_memory(indium_params):
    with criterion(8, "motion faithfully mediates pulse-to-pulse entanglement"):
        chi1 = abs(coupling_constants(indium_params).chi1)
        for area in (0.6, 1.0, 1.7):
            result = protocol.run_sequential(indium_params, t1=area / chi1,
                                             kappa_t12=math.inf)
            assert abs(result.final_entanglement
                       - result.stage_a_entanglement) < 1e-9
            assert result.motion_residual_norm < 1e-9


def test_criterion_9_homodyne_setting_equivalence(rng):
    with criterion(9, "X1-X2 and P1+P2 settings give identical traces"):
        grid = protocol.default_time_grid()
        for r in (1.1, 1.5, 2.0):
            couplings = Couplings.from_chis(1.0, r)       # real couplings
            trace_x = protocol.output_signal(
                couplings, 1.0, protocol.HomodyneSettings(t_grid=grid))
            trace_p = protocol.output_signal(
                couplings, 1.0, protocol.HomodyneSettings(
                    theta1=math.pi / 2, theta2=-math.pi / 2, t_grid=grid))
            assert np.max(np.abs(trace_x.c_values - trace_p.c_values)) < 1e-12
            model_x = protocol.beam_splitter_signal(
                couplings, protocol.HomodyneSettings(t_grid=grid))
            model_p = protocol.beam_splitter_signal(
                couplings, protocol.HomodyneSettings(
                    theta1=math.pi / 2, theta2=-math.pi / 2, t_grid=grid))
            assert np.max(np.abs(model_x - model_p)) < 1e-12


class TestMutants:
    """Mutants of the Gaussian kernel that an acceptance check must catch."""

    def test_exchange_sign_in_drift_fails_criterion_3_term_loop(self, monkeypatch, rng):
        # the exchange's (j, i) block from -conj(chi) to +conj(chi): the exchange
        # drift is no longer a rotation, and the closed form still reads its cos and sin
        assert_term_maps_match_expm(rng)
        monkeypatch.setattr(gaussian, "_term_block", mutated(
            gaussian, "_term_block", "(-x, -y, 0.0, 0.0), (y, -x, 0.0, 0.0))",
            "(x, y, 0.0, 0.0), (-y, x, 0.0, 0.0))"))
        with pytest.raises(AssertionError):
            assert_term_maps_match_expm(rng)
