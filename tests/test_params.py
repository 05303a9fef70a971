import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ionlight.errors import ConfigError, ParameterError
from ionlight.params import (Couplings, PhysicalParams, coupling_constants,
                             lamb_dicke, params_from_config, parse_config_text,
                             validate_regime)

TWO_PI = 2.0 * math.pi

# The indium example used throughout: 115 u, 230.6 nm, 3 MHz trap.
MASS_IN = 115 * 1.66053906660e-27
K_IN = TWO_PI / 230.6e-9
NU_IN = TWO_PI * 3e6


def make_params(delta_mhz=-63.0, **overrides):
    kwargs = dict(
        nu=NU_IN, gamma=TWO_PI * 360e3, delta=TWO_PI * delta_mhz * 1e6,
        omega_rabi=TWO_PI * 18e6, kappa=TWO_PI * 1e3,
        g1=TWO_PI * 500e3, g2=TWO_PI * 500e3,
        mass=MASS_IN, wavenumber=K_IN,
    )
    kwargs.update(overrides)
    return PhysicalParams(**kwargs)


class TestLambDicke:
    def test_indium_value(self):
        # Direct evaluation of sqrt(hbar k^2 / (2 M nu)) with its own constants.
        expected = math.sqrt(1.054571817e-34 * K_IN**2 / (2 * MASS_IN * NU_IN))
        eta = lamb_dicke(MASS_IN, K_IN, NU_IN)
        assert eta == pytest.approx(expected, rel=1e-14)
        assert eta == pytest.approx(0.104, abs=5e-4)

    def test_quadrupled_trap_frequency_halves_eta(self):
        eta = lamb_dicke(MASS_IN, K_IN, NU_IN)
        assert lamb_dicke(MASS_IN, K_IN, 4 * NU_IN) == pytest.approx(eta / 2, rel=1e-14)

    def test_quadrupled_mass_halves_eta(self):
        eta = lamb_dicke(MASS_IN, K_IN, NU_IN)
        assert lamb_dicke(4 * MASS_IN, K_IN, NU_IN) == pytest.approx(eta / 2, rel=1e-14)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_mass_homogeneity(self, c):
        base = lamb_dicke(MASS_IN, K_IN, NU_IN)
        assert lamb_dicke(c**2 * MASS_IN, K_IN, NU_IN) == pytest.approx(base / c, rel=1e-12)

    @pytest.mark.parametrize("bad", [
        dict(mass=0.0), dict(mass=-1e-25), dict(wavenumber=0.0), dict(nu=-1.0),
    ])
    def test_nonpositive_inputs_rejected(self, bad):
        kwargs = dict(mass=MASS_IN, wavenumber=K_IN, nu=NU_IN)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            lamb_dicke(**kwargs)


class TestPhysicalParams:
    def test_valid_set_constructs(self):
        p = make_params()
        assert p.lamb_dicke == pytest.approx(0.104, abs=5e-4)

    @pytest.mark.parametrize("field,value", [
        ("nu", 0.0), ("gamma", -1.0), ("kappa", 0.0), ("omega_rabi", 0.0),
        ("mass", 0.0), ("wavenumber", -2.0),
    ])
    def test_positivity(self, field, value):
        with pytest.raises(ParameterError):
            make_params(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "nu", "kappa", "delta", "g1", "g2", "alpha1", "alpha2", "theta_l",
        "theta_c", "nbar_motion",
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            dataclasses.replace(make_params(), **{field: value})

    @pytest.mark.parametrize("value", [1e300, -1e300, TWO_PI * (1 + 2.0 ** -52),
                                       -TWO_PI * (1 + 2.0 ** -52)])
    @pytest.mark.parametrize("field", ["theta_l", "theta_c"])
    def test_angles_past_two_pi_rejected(self, field, value):
        # the cos of 1e300 is round-off: refused, by the field's name
        with pytest.raises(ParameterError, match=rf"^{field} must lie in \[-2 pi, 2 pi\]"):
            make_params(**{field: value})

    @pytest.mark.parametrize("value", [TWO_PI, -TWO_PI])
    @pytest.mark.parametrize("field", ["theta_l", "theta_c"])
    def test_angles_of_two_pi_accepted(self, field, value):
        assert getattr(make_params(**{field: value}), field) == value

    def test_negative_nbar_rejected(self):
        with pytest.raises(ParameterError):
            make_params(nbar_motion=-0.1)

    def test_pole_guard(self):
        # delta = nu sits on a Raman resonance and must be rejected outright.
        with pytest.raises(ParameterError):
            make_params(delta_mhz=3.0)
        # within one linewidth of the pole is rejected too
        with pytest.raises(ParameterError):
            make_params(delta_mhz=3.0 + 100e-3 * 360e-3)  # 3 MHz + 0.1 gamma
        # and so is the pole at delta = -nu, on the red side of the indium point
        with pytest.raises(ParameterError, match="Raman resonance"):
            make_params(delta_mhz=-3.0 - 100e-3 * 360e-3)  # -3 MHz - 0.1 gamma


def assert_indium_magnitudes():
    """|chi1| and |chi2| at the indium point against independent arithmetic, to 1e-12."""
    p = make_params(delta_mhz=-60.0)
    c = coupling_constants(p)
    eta = p.lamb_dicke
    # independent arithmetic: |chi| = eta g Omega / |delta -+ nu + i gamma/2|
    chi1_mag = eta * abs(p.g1) * p.omega_rabi / abs(p.delta - p.nu + 0.5j * p.gamma)
    chi2_mag = eta * abs(p.g2) * p.omega_rabi / abs(p.delta + p.nu + 0.5j * p.gamma)
    assert abs(c.chi1) == pytest.approx(chi1_mag, rel=1e-12)
    assert abs(c.chi2) == pytest.approx(chi2_mag, rel=1e-12)
    # magnitude anchors: 2pi x 14.9 kHz and 2pi x 16.5 kHz
    assert abs(c.chi1) / TWO_PI == pytest.approx(14.9e3, rel=2e-3)
    assert abs(c.chi2) / TWO_PI == pytest.approx(16.47e3, rel=2e-3)
    # the resulting drive: theta ~ 2pi x 7 kHz, half-period ~ 0.1 ms
    assert c.theta_rate / TWO_PI == pytest.approx(7.01e3, rel=2e-3)
    assert 1e-5 < c.t_pi < 1e-3
    assert c.t_pi == pytest.approx(71.3e-6, rel=2e-3)


class TestCouplingConstants:
    def test_lorentzian_ratio_default_geometry(self):
        # With the cavity orthogonal to the trap axis only the laser term
        # survives and r reduces to the ratio of the two denominators.
        p = make_params(delta_mhz=-60.0)
        c = coupling_constants(p)
        expected_r = abs(p.delta - p.nu + 0.5j * p.gamma) / abs(p.delta + p.nu + 0.5j * p.gamma)
        assert c.r == pytest.approx(expected_r, rel=1e-12)
        assert c.r == pytest.approx(63.0 / 57.0, rel=1e-4)
        assert c.r == pytest.approx(1.105, abs=5e-4)

    def test_indium_magnitudes(self):
        assert_indium_magnitudes()

    def test_couplings_linear_in_rabi_frequency(self):
        # chi1, chi2 are proportional to omega_rabi, so they vanish with it.
        c1 = coupling_constants(make_params())
        c2 = coupling_constants(make_params(omega_rabi=2 * TWO_PI * 18e6))
        assert c2.chi1 == pytest.approx(2 * c1.chi1, rel=1e-14)
        assert c2.chi2 == pytest.approx(2 * c1.chi2, rel=1e-14)
        tiny = coupling_constants(make_params(omega_rabi=1e-30))
        assert abs(tiny.chi1) < 1e-30 and abs(tiny.chi2) < 1e-30
        # the exactly-zero record keeps every derived field absent, not NaN
        c0 = Couplings.from_chis(0.0, 0.0)
        assert c0.r is None and c0.theta_rate is None and c0.n_mean is None

    def test_theta_identity(self, rng):
        from conftest import random_couplings
        for _ in range(25):
            chi1, chi2 = random_couplings(rng)
            c = Couplings.from_chis(chi1, chi2)
            assert c.theta_rate**2 + abs(chi1)**2 == pytest.approx(abs(chi2)**2, rel=1e-12)

    def test_field_gradient_term(self):
        # the module docstring's formula, evaluated here on its own, with the
        # field-gradient term on: alpha1, alpha2 != 0 and cos(theta_c) != 0
        p = make_params(alpha1=0.3, alpha2=-0.7, theta_l=0.2, theta_c=0.4,
                        g1=TWO_PI * (500e3 + 200e3j))
        c = coupling_constants(p)
        eta = math.sqrt(1.054571817e-34 * K_IN**2 / (2 * MASS_IN * NU_IN))
        d0 = p.delta + 0.5j * p.gamma
        laser, cav = math.cos(0.2), math.cos(0.4)
        chi1 = eta * p.g1.conjugate() * p.omega_rabi * (laser / (d0 - p.nu) - 0.3 * cav / d0)
        chi2 = eta * p.g2.conjugate() * p.omega_rabi * (laser / (d0 + p.nu) + 0.7 * cav / d0)
        assert c.chi1 == pytest.approx(chi1, rel=1e-12)
        assert c.chi2 == pytest.approx(chi2, rel=1e-12)

    def test_denominator_guard(self):
        # PhysicalParams cannot reach the exact pole, but the guard in
        # coupling_constants must still refuse a zero denominator.
        from types import SimpleNamespace
        fake = SimpleNamespace(nu=1.0, gamma=0.0, delta=1.0, omega_rabi=1.0,
                               g1=1.0 + 0j, g2=1.0 + 0j, alpha1=0.0, alpha2=0.0,
                               theta_l=0.0, theta_c=math.pi / 2, lamb_dicke=0.1)
        with pytest.raises(ParameterError):
            coupling_constants(fake)


class TestDerivedRates:
    """The quantities Couplings.from_chis derives from the two rates."""

    def test_reference_point(self):
        c = Couplings.from_chis(1.0, 1.1)
        assert c.theta_rate == pytest.approx(math.sqrt(0.21), rel=1e-14)
        assert c.r == pytest.approx(1.1, rel=1e-14)
        assert c.beta == 0.0
        assert c.t_pi == pytest.approx(math.pi / math.sqrt(0.21), rel=1e-14)
        # about 110 photons per mode at this operating point
        assert c.n_mean == pytest.approx(4 * 1.21 / 0.0441, rel=1e-14)
        assert c.n_mean == pytest.approx(109.75, abs=1e-2)

    def test_equal_couplings_leave_theta_absent(self):
        c = Couplings.from_chis(1.0, 1.0)
        assert c.r == 1.0
        assert c.theta_rate is None and c.t_pi is None and c.n_mean is None

    def test_r_three(self):
        assert Couplings.from_chis(1.0, 3.0).n_mean == pytest.approx(4 * 9 / 64, rel=1e-14)

    def test_degenerate_chi1(self):
        # chi1 = 0 is the r -> infinity limit: the exchange coupling alone
        c = Couplings.from_chis(0.0, -2.0 + 1.5j)
        assert c.r == math.inf
        assert c.theta_rate == 2.5
        assert c.t_pi == pytest.approx(math.pi / 2.5, rel=1e-15)
        assert c.n_mean == 0.0
        assert c.beta is None

    @pytest.mark.parametrize("chis", [(1.0, math.nan), (math.nan, 1.0),
                                      (1.0, complex(math.inf, 0.0)), (-math.inf, 2.0)])
    def test_non_finite_rate_rejected(self, chis):
        for build in (Couplings, Couplings.from_chis):
            with pytest.raises(ParameterError):
                build(*chis)

    def test_beta_is_sum_of_phases(self, rng):
        from conftest import random_couplings
        for _ in range(10):
            chi1, chi2 = random_couplings(rng)
            beta = Couplings.from_chis(chi1, chi2).beta
            assert beta == pytest.approx(np.angle(chi1) + np.angle(chi2), abs=1e-12)

    @pytest.mark.parametrize("chis", [(1.0, 2.0), (0.3 - 0.4j, 1.1j), (0.0, 2.0), (0.0, 0.0),
                                      (1.0, 0.5)])
    def test_direct_build_derives_every_field(self, chis):
        # dataclass equality compares every field, the derived ones included
        assert Couplings(*chis, 0.05) == Couplings.from_chis(*chis, eta=0.05)

    def test_only_the_rates_and_eta_are_settable(self):
        assert [f.name for f in dataclasses.fields(Couplings) if f.init] == ["chi1", "chi2", "eta"]

    def test_replace_derives_again(self):
        c = dataclasses.replace(Couplings(1.0, 2.0), chi2=3.0)
        assert c.r == 3.0
        assert c == Couplings.from_chis(1.0, 3.0)

    @given(st.floats(min_value=1.01, max_value=50.0))
    def test_photon_number_formula(self, r):
        n_mean = Couplings.from_chis(1.0, r).n_mean
        assert n_mean == pytest.approx(4 * r**2 / (1 - r**2) ** 2, rel=1e-12)


class TestValidateRegime:
    def test_indium_passes_at_ratio_five(self, indium_params):
        report = validate_regime(indium_params, much_greater_ratio=5.0)
        assert report.overall_pass
        by_name = {c.name: c for c in report.constraints}
        # spontaneous scattering of cavity photons: ~ 2pi x 23 Hz, far below kappa
        scatter = by_name["kappa >> gamma*|g1|^2/delta^2"]
        assert scatter.right / TWO_PI == pytest.approx(22.68, abs=2.0)
        assert scatter.margin > 40
        # the tightest hard margin is theta/kappa at about 6.5
        assert by_name["theta >> kappa"].margin == pytest.approx(6.52, abs=0.1)
        assert report.soft[0].passed     # kappa * t_pi ~ 0.48 <= 1/2

    def test_hard_margins_at_the_indium_point(self, indium_params):
        # each hard row's left / right, from the parameters and the couplings
        p, c = indium_params, coupling_constants(indium_params)
        eta = p.lamb_dicke
        delta_sq = p.delta ** 2
        expected = {
            "|delta| >> nu": abs(p.delta) / p.nu,
            "|delta| >> gamma": abs(p.delta) / p.gamma,
            "nu >> theta": p.nu / c.theta_rate,
            "theta >> kappa": c.theta_rate / p.kappa,
            "kappa >> gamma*|g1|^2/delta^2": p.kappa * delta_sq / (p.gamma * abs(p.g1) ** 2),
            "kappa >> gamma*|g2|^2/delta^2": p.kappa * delta_sq / (p.gamma * abs(p.g2) ** 2),
            "theta >> eta^2*gamma*omega^2/delta^2":
                c.theta_rate * delta_sq / (eta ** 2 * p.gamma * p.omega_rabi ** 2),
            "nu*T >> 1": p.nu * c.t_pi,
            "1 >> eta": 1.0 / eta,
        }
        report = validate_regime(p, much_greater_ratio=5.0)
        assert {row.name: row.margin for row in report.constraints} == pytest.approx(
            expected, rel=1e-12)

    def test_kappa_equal_theta_fails(self, indium_params):
        c = coupling_constants(indium_params)
        boosted = PhysicalParams(
            nu=indium_params.nu, gamma=indium_params.gamma,
            delta=indium_params.delta, omega_rabi=indium_params.omega_rabi,
            kappa=c.theta_rate, g1=indium_params.g1, g2=indium_params.g2,
            mass=indium_params.mass, wavenumber=indium_params.wavenumber)
        report = validate_regime(boosted, much_greater_ratio=5.0)
        failed = {c.name for c in report.constraints if not c.passed}
        assert "theta >> kappa" in failed
        assert not report.overall_pass

    def test_report_is_deterministic(self, indium_params):
        a = validate_regime(indium_params, much_greater_ratio=5.0)
        b = validate_regime(indium_params, much_greater_ratio=5.0)
        assert a.as_text() == b.as_text()
        assert a == b

    def test_ratio_must_exceed_one(self, indium_params):
        with pytest.raises(ParameterError):
            validate_regime(indium_params, much_greater_ratio=1.0)

    @pytest.mark.parametrize("soft_ratio", [0.0, -1.0, math.nan])
    def test_soft_ratio_must_be_positive(self, indium_params, soft_ratio):
        with pytest.raises(ParameterError, match="soft_ratio must be positive"):
            validate_regime(indium_params, much_greater_ratio=5.0, soft_ratio=soft_ratio)

    @pytest.mark.parametrize("soft_ratio, passed", [(2.0, True), (2.2, False)])
    def test_soft_row_passes_by_the_one_rule(self, indium_params, soft_ratio, passed):
        # kappa * t_pi ~ 0.48 lies between 1/2.2 and 1/2
        (soft,) = validate_regime(indium_params, much_greater_ratio=5.0,
                                  soft_ratio=soft_ratio).soft
        assert (soft.left, soft.required_ratio) == (1.0, soft_ratio)
        assert soft.passed is passed

    def test_undefined_theta_rows_fail(self):
        # r < 1 (blue detuning): the theta-dependent checks cannot pass.
        p = make_params(delta_mhz=60.0)
        report = validate_regime(p)
        by_name = {c.name: c for c in report.constraints}
        assert not by_name["theta >> kappa"].passed
        assert not report.overall_pass


class TestConfig:
    def test_bundled_config_round_trip(self, indium_params):
        assert indium_params.nu == pytest.approx(TWO_PI * 3e6, rel=1e-14)
        assert indium_params.delta == pytest.approx(-TWO_PI * 63e6, rel=1e-14)
        assert indium_params.theta_c == pytest.approx(math.pi / 2, rel=1e-14)
        assert indium_params.mass == pytest.approx(MASS_IN, rel=1e-10)

    def test_comments_and_blank_lines(self):
        entries = parse_config_text("# top\n\nnu_hz = 1e6  # trap\n")
        assert entries["nu_hz"] == ("1e6", 3)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("nu_hz = 1e6\nbogus line\n")
        assert err.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("nu_hz = 1\nnu_hz = 2\n")

    def test_missing_required_key(self):
        entries = parse_config_text("nu_hz = 3e6\n")
        with pytest.raises(ConfigError) as err:
            params_from_config(entries)
        assert "missing required" in str(err.value)

    def test_hz_conversion(self):
        text = "\n".join([
            "nu_hz = 3e6", "gamma_hz = 360e3", "delta_hz = -63e6",
            "omega_rabi_hz = 18e6", "kappa_hz = 1e3",
            "g1_hz = 500e3", "g2_hz = 500e3",
            f"mass = {MASS_IN!r}", f"wavenumber = {K_IN!r}",
        ])
        params, leftovers = params_from_config(parse_config_text(text))
        assert leftovers == {}
        assert params.kappa == pytest.approx(TWO_PI * 1e3, rel=1e-14)
        assert params.g1 == pytest.approx(TWO_PI * 500e3, rel=1e-14)

    def test_run_settings_split_off(self):
        params, settings = params_from_config(parse_config_text(
            "oracle_r = 2.5\nseq_kappa_t12 = inf\noracle_dims = 8, 9, 10\n"))
        assert params is None
        assert settings == {"oracle_r": 2.5, "seq_kappa_t12": math.inf,
                            "oracle_dims": (8, 9, 10)}

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError) as err:
            params_from_config(parse_config_text("ratio = 5\nmystery_knob = 3\n"))
        assert err.value.line == 2
        assert "mystery_knob" in str(err.value)

    @pytest.mark.parametrize("text", [
        "delta_hz = nan", "g1_hz = inf+1j", "seq_t1 = inf", "t_max = -inf",
        "fig3_r_list = 1.5, nan", "seq_kappa_t12 = nan", "seq_kappa_t12 = -inf",
        "kappa_dt = 1e999",
    ])
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ConfigError, match="finite") as err:
            params_from_config(parse_config_text("# header\n" + text + "\n"))
        assert err.value.line == 2

    def test_unparseable_number(self):
        with pytest.raises(ConfigError) as err:
            params_from_config(parse_config_text(
                "nu_hz = fast\ngamma_hz = 1\ndelta_hz = 1\nomega_rabi_hz = 1\n"
                "kappa_hz = 1\ng1_hz = 1\ng2_hz = 1\nmass = 1\nwavenumber = 1\n"))
        assert err.value.line == 1


class TestMutants:
    """Mutants of the coupling rates that the checks above must catch."""

    def test_chi2_off_by_1e_7_fails_indium_magnitudes(self, monkeypatch):
        # coupling_constants hands Couplings a chi2 of (1 + 1e-7) times its value
        def scaled(chi1, chi2, eta):
            return Couplings.from_chis(chi1, chi2 * (1 + 1e-7), eta=eta)

        monkeypatch.setattr("ionlight.params.Couplings", SimpleNamespace(from_chis=scaled))
        with pytest.raises(AssertionError):
            assert_indium_magnitudes()
