"""The benchmark's checks accept the paper's answer and reject a perturbed one.

Run with ``python3 -m pytest perfbench`` from the root of the repository; no
part of ``ionlight`` is imported.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
import run
from workloads import Cli, Scan

HERE = Path(__file__).resolve().parent
INDIUM = ref.parse_config((HERE.parent / "src/ionlight/data/indium.cfg").read_text())


# ---------------------------------------------------------------------------
# the formulas themselves
# ---------------------------------------------------------------------------

def test_indium_point_is_the_papers_operating_point():
    chi1, chi2 = ref.raman_couplings(INDIUM)
    r = abs(chi2) / abs(chi1)
    assert r == pytest.approx(1.1, abs=1e-5)
    assert ref.photons_per_mode(r) == pytest.approx(110, abs=0.5)


def test_formulas_agree_with_each_other():
    for r in (1.06, 1.3, 2.2, 3.5):
        auto, cross = ref.tmss_moments(r)
        assert auto ** 2 - cross ** 2 == pytest.approx(1.0, abs=1e-15 * auto ** 2)
        assert (auto - 1.0) / 2.0 == pytest.approx(ref.photons_per_mode(r), rel=1e-12)
        assert ref.log_negativity(r) == pytest.approx(math.log(auto + cross), rel=1e-12)
        n = ref.photons_per_mode(r)
        assert sum(ref.thermal_marginal(n, k) for k in range(20000)) == pytest.approx(1.0)
    assert ref.squeezed_thermal_log_negativity(0.7, 0.0) == pytest.approx(1.4, rel=1e-12)
    assert ref.squeezed_thermal_log_negativity(0.7, 5.0) < 1.4
    late = ref.c_signal([40.0], 1.3, 0.1, 0.0)[0]
    assert late == pytest.approx(1.0, abs=1e-12)


def test_delta_for_ratio_inverts_the_raman_ratio():
    delta = ref.delta_hz_for_ratio(1.5, float(INDIUM["nu_hz"]))
    chi1, chi2 = ref.raman_couplings(dict(INDIUM, delta_hz=repr(delta)))
    assert abs(chi2) / abs(chi1) == pytest.approx(1.5, rel=1e-3)


# ---------------------------------------------------------------------------
# each check rejects a perturbed answer
# ---------------------------------------------------------------------------

def test_check_couplings():
    chi1, chi2 = ref.raman_couplings(INDIUM)
    assert ref.check_couplings(chi1, chi2, INDIUM) == []
    assert ref.check_couplings(chi1 * (1 + 1e-9), chi2, INDIUM)
    assert ref.check_couplings(chi1, chi2.conjugate(), INDIUM)


def _pulse(r, nbar):
    auto, cross = ref.tmss_moments(r)
    cov = np.diag([auto] * 4)
    cov[0, 2] = cov[2, 0] = cross
    cov[1, 3] = cov[3, 1] = -cross
    return {"n_cav": (ref.photons_per_mode(r),) * 2, "e_n": ref.log_negativity(r),
            "decorrelation": 0.0, "n_motion": nbar, "nbar": nbar, "r": r,
            "cav_cov": cov.tolist()}


@pytest.mark.parametrize("field,bump", [
    ("n_cav", lambda v: (v[0] * (1 + 1e-7), v[1])),
    ("e_n", lambda v: v + 1e-6),
    ("decorrelation", lambda v: 1e-3),
    ("n_motion", lambda v: v + 1e-3),
    ("cav_cov", lambda v: [row[:2] + [row[2] * (1 + 1e-6)] + row[3:] for row in v]),
    ("cav_cov", lambda v: [[x * (1 + 1e-6) if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(v)]),
])
def test_check_pulse(field, bump):
    good = _pulse(1.3, 40.0)
    assert ref.check_pulse(**good) == []
    bad = dict(good, **{field: bump(good[field])})
    assert ref.check_pulse(**bad)


def test_check_signal():
    times = [0.02 * k for k in range(401)]
    good = ref.c_signal(times, 1.3, 0.1, 0.4)
    assert ref.check_signal("C", good, times, 1.3, 0.1, 0.4) == []
    bumped = list(good)
    bumped[7] += 1e-8
    assert ref.check_signal("C", bumped, times, 1.3, 0.1, 0.4)
    assert ref.check_signal("C", ref.c_signal(times, 1.3, 0.1, 0.4 + math.pi), times,
                            1.3, 0.1, 0.4)
    assert ref.check_signal("C", good[:-1], times, 1.3, 0.1, 0.4)


def test_check_sequential():
    want = ref.squeezed_thermal_log_negativity(0.9, 12.0)
    assert ref.check_sequential(want, 0.0, 0.9, 12.0) == []
    assert ref.check_sequential(want * (1 + 1e-6), 0.0, 0.9, 12.0)
    assert ref.check_sequential(1.8, 0.0, 0.9, 12.0)      # the nbar = 0 answer
    assert ref.check_sequential(want, 1e-6, 0.9, 12.0)


def _oracle(r, dim=60):
    n = ref.photons_per_mode(r)
    joint = np.zeros((dim, dim))
    for k in range(dim):
        joint[k, k] = ref.thermal_marginal(n, k)
    auto, cross = ref.tmss_moments(r)
    cov = np.eye(6)
    cov[:4, :4] = np.array(_pulse(r, 0.0)["cav_cov"])
    return {"joint": joint, "n_fock": [n, n, 0.0], "g_cov": cov, "f_cov": cov.copy(),
            "leakage": 1e-13, "r": r}


def test_check_oracle():
    good = _oracle(3.0)
    assert ref.check_oracle(**good) == []
    odd = good["joint"].copy()
    odd[3, 4] += 1e-8
    assert ref.check_oracle(**dict(good, joint=odd))
    flat = good["joint"].copy()
    flat[2, 2] *= 1 + 1e-6
    assert ref.check_oracle(**dict(good, joint=flat))
    assert ref.check_oracle(**dict(good, leakage=1e-8))
    assert ref.check_oracle(**dict(good, n_fock=[good["n_fock"][0] * 1.001] * 2 + [0.0]))
    f_cov = good["f_cov"].copy()
    f_cov[0, 2] += 1e-5
    assert ref.check_oracle(**dict(good, f_cov=f_cov))
    g_cov = good["g_cov"] * (1 + 1e-8)
    assert ref.check_oracle(**dict(good, g_cov=g_cov, f_cov=g_cov))


# ---------------------------------------------------------------------------
# the workloads' checks on program outputs
# ---------------------------------------------------------------------------

def _cli_output(command, cfg):
    chi1, chi2 = ref.raman_couplings(cfg)
    r = abs(chi2) / abs(chi1)
    fmt = lambda v: f"{v:.6e}"    # noqa: E731 - the CLI's number format
    if command == "validate":
        return f"overall: PASS\nt_pi = {fmt(ref.t_pi(chi1, chi2))} s\n"
    if command == "simulate":
        n = fmt(ref.photons_per_mode(r))
        return (f"photons per mode     = {n} (cav1), {n} (cav2)\n"
                f"log negativity       = {fmt(ref.log_negativity(r))}\n"
                f"motion decorrelation = {fmt(1e-13)}\n")
    area = abs(chi1) * float(cfg["seq_t1"])
    e_n = ref.squeezed_thermal_log_negativity(area, float(cfg["nbar_motion"]))
    return (f"pulse area |chi1|*t1      = {fmt(area)}\n"
            f"E_N pulse1|pulse2         = {fmt(e_n)}\n"
            f"E_N pulse1|motion         = {fmt(0.0)}\n")


@pytest.mark.parametrize("command,old,new", [
    ("validate", "PASS", "FAIL"),
    ("validate", "t_pi = 7", "t_pi = 8"),
    ("simulate", "(cav1), 1", "(cav1), 2"),
    ("simulate", "log negativity       = ", "log negativity       = 1"),
    ("simulate", "decorrelation = 1.000000e-13", "decorrelation = 1.0e-03"),
    ("sequential", "pulse1|motion         = 0", "pulse1|motion         = 1"),
    ("sequential", "pulse1|pulse2         = ", "pulse1|pulse2         = 9"),
])
def test_cli_check_rejects_perturbed_output(command, old, new):
    cfg = dict(INDIUM, nbar_motion="20.0", seq_t1=repr(1.0 / abs(ref.raman_couplings(INDIUM)[0])))
    workload = Cli.__new__(Cli)
    inp = {"command": command, "cfg": cfg}
    text = _cli_output(command, cfg)
    assert workload.check(inp, {"stdout": text}) == []
    assert old in text
    assert workload.check(inp, {"stdout": text.replace(old, new, 1)})


def test_scan_check_rejects_perturbed_outputs():
    workload = Scan.__new__(Scan)
    nbar, theta = 30.0, (0.3, 1.1)
    cfg = dict(INDIUM, delta_hz=repr(ref.delta_hz_for_ratio(1.4, 3e6)))
    chi1, chi2 = ref.raman_couplings(cfg)
    r = abs(chi2) / abs(chi1)
    theta_rate = ref.theta_rate(chi1, chi2)
    nu, kappa = 2 * math.pi * float(cfg["nu_hz"]), 2 * math.pi * float(cfg["kappa_hz"])
    cov = np.eye(6) * (2 * nbar + 1)
    cov[:4, :4] = np.array(_pulse(r, nbar)["cav_cov"])
    times = np.linspace(0.0, 8.0, 401)
    phase = math.atan2(chi1.imag, chi1.real) + math.atan2(chi2.imag, chi2.real) + sum(theta)
    signal = np.array(ref.c_signal(times, r, 0.1, phase))
    area = 0.8
    e_n = ref.squeezed_thermal_log_negativity(area, nbar)

    def outputs(**change):
        out = {
            "couplings": SimpleNamespace(chi1=chi1, chi2=chi2),
            "report": SimpleNamespace(constraints=[
                SimpleNamespace(name="nu >> theta", margin=nu / theta_rate),
                SimpleNamespace(name="theta >> kappa", margin=theta_rate / kappa)]),
            "sim": SimpleNamespace(state=SimpleNamespace(cov=cov), diagnostics={
                "n_cav1": ref.photons_per_mode(r), "n_cav2": ref.photons_per_mode(r),
                "log_negativity": ref.log_negativity(r), "motion_decorrelation": 0.0}),
            "closed": SimpleNamespace(times=times, c_values=signal),
            "bs": signal.copy(),
            "t1": area / abs(chi1),
            "seq": SimpleNamespace(final_entanglement=e_n, stage_a_entanglement=e_n,
                                   pulse1_motion_entanglement=0.0),
        }
        out.update(change)
        return out

    inp = {"cfg": cfg, "nbar": nbar, "theta": theta}
    assert workload.check(inp, outputs()) == []
    assert workload.check(inp, outputs(couplings=SimpleNamespace(chi1=chi1 * 1.01, chi2=chi2)))
    assert workload.check(inp, outputs(bs=signal + 1e-8))
    assert workload.check(inp, outputs(closed=SimpleNamespace(times=times, c_values=signal[::-1])))
    assert workload.check(inp, outputs(t1=1.1 * area / abs(chi1)))
    hot = cov.copy()
    hot[4, 4] += 1.0
    assert workload.check(inp, outputs(sim=SimpleNamespace(
        state=SimpleNamespace(cov=hot), diagnostics=outputs()["sim"].diagnostics)))
    # a failed run_simultaneous leaves its stage unchecked, not the others
    assert workload.check(inp, {k: v for k, v in outputs().items() if k != "sim"}) == []


# ---------------------------------------------------------------------------
# BENCHMARK.json names what run.py prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_run():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
