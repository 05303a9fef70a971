"""The benchmark's workloads: seeded inputs, one op each, and the op's checks.

Every workload is a closed loop with one client.  ``next_round`` returns the
inputs of one round; a run attempts whole rounds only, so the share of any
op kind, and of failed ops, is the same in every run.  ``kind`` names the
kind of an op: ops of one kind do the same work on different inputs.
``run`` is the timed op; ``check`` compares its outputs with
:mod:`reference` and returns a list of problems.  Set-up (``__init__``)
imports the program, as a user's process would.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
import re
import shutil
import statistics
import subprocess
import sys

import reference as ref

TWO_PI = 2.0 * math.pi
CONFIG = "src/ionlight/data/indium.cfg"


def _parse_rel(problems, name, text, pattern, want, rel=1e-6, abs_=1e-12):
    """Find ``pattern`` in CLI output and compare the number it captures."""
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        problems.append(f"{name}: not found in output")
        return None
    got = float(match.group(1))
    if want is not None and not ref.close(got, want, rel=rel, abs_=abs_):
        problems.append(f"{name}: printed {got!r}, expected {want!r}")
    return got


def _phase(z: complex) -> float:
    return math.atan2(z.imag, z.real)


# ---------------------------------------------------------------------------
# cli: one `ionlight` process per op
# ---------------------------------------------------------------------------

class Cli:
    """Seeded variants of the bundled indium config through the command line.

    Six ops in ten run ``validate`` or ``couplings``, which need only the
    parameter layer, so a cheaper start-up of those commands moves the median.
    """

    ROUND = ("validate",) * 3 + ("couplings",) * 3 + ("simulate",) * 2 + ("sequential", "fig3")
    DETUNING_MHZ = (-70.0, -30.0)   # the regime check passes at ratio 5 here
    NBAR = (0.0, 100.0)
    FIG3_R = (1.06, 1.8)

    def __init__(self, root, seed, work_dir, in_process):
        self.root = root
        self.work_dir = work_dir
        self.base_text = (root / CONFIG).read_text(encoding="utf-8")
        self.base_cfg = ref.parse_config(self.base_text)
        self.rng = random.Random(f"cli:{seed}")
        self.cli = None
        if in_process:
            from ionlight import cli
            self.cli = cli

    def _write(self, slot, cfg):
        text = self.base_text
        extra = []
        for key, value in cfg.items():
            if self.base_cfg.get(key) == value:
                continue
            pattern = re.compile(rf"^{key}\s*=.*$", re.MULTILINE)
            if pattern.search(text):
                text = pattern.sub(f"{key} = {value}", text)
            else:
                extra.append(f"{key} = {value}")
        path = self.work_dir / f"op{slot}.cfg"
        path.write_text(text + "\n".join(extra) + "\n", encoding="utf-8")
        return path

    def warmup_input(self):
        return self._input(0, "validate", self.base_cfg)

    def _input(self, slot, command, cfg):
        argv = [command, "--config", str(self._write(slot, cfg))]
        out_dir = self.work_dir / f"fig3_{slot}"
        if command == "fig3":
            shutil.rmtree(out_dir, ignore_errors=True)
            argv += ["--out", str(out_dir)]
        return {"command": command, "argv": argv, "cfg": cfg, "out_dir": out_dir}

    def next_round(self):
        rng = self.rng
        commands = list(self.ROUND)
        rng.shuffle(commands)
        inputs = []
        for slot, command in enumerate(commands):
            cfg = dict(self.base_cfg)
            cfg["delta_hz"] = repr(rng.uniform(*self.DETUNING_MHZ) * 1e6)
            cfg["nbar_motion"] = repr(rng.uniform(*self.NBAR))
            cfg["theta1"] = repr(rng.uniform(0.0, TWO_PI))
            cfg["theta2"] = repr(rng.uniform(0.0, TWO_PI))
            chi1, _ = ref.raman_couplings(cfg)
            cfg["seq_t1"] = repr(rng.uniform(0.5, 1.5) / abs(chi1))
            r_list = sorted((rng.uniform(*self.FIG3_R) for _ in range(5)), reverse=True)
            cfg["fig3_r_list"] = ",".join(repr(r) for r in r_list)
            inputs.append(self._input(slot, command, cfg))
        return inputs

    def kind(self, inp):
        return inp["command"]

    def run(self, inp):
        if self.cli is None:
            proc = subprocess.run([sys.executable, "-m", "ionlight", *inp["argv"]],
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=60)
            code, out = proc.returncode, proc.stdout
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(inp["argv"])
            out = buf.getvalue()
        errors = [] if code == 0 else [f"exit code {code}"]
        return {"code": code, "stdout": out, "errors": errors}

    def check(self, inp, out):
        cfg, text, problems = inp["cfg"], out["stdout"], []
        chi1, chi2 = ref.raman_couplings(cfg)
        r = abs(chi2) / abs(chi1)
        command = inp["command"]
        if command == "validate":
            if "overall: PASS" not in text:
                problems.append("validate: regime check did not pass")
            _parse_rel(problems, "t_pi", text, r"t_pi = (\S+) s", ref.t_pi(chi1, chi2))
        elif command == "couplings":
            for name, want in (("eta", ref.lamb_dicke(cfg)), ("r", r),
                               ("theta_rate", ref.theta_rate(chi1, chi2)),
                               ("t_pi", ref.t_pi(chi1, chi2)),
                               ("n_mean", ref.photons_per_mode(r)),
                               ("beta", _phase(chi1) + _phase(chi2))):
                _parse_rel(problems, name, text, rf"^{name}\s+= (\S+)", want)
            for name, want in (("chi1", chi1), ("chi2", chi2)):
                _parse_rel(problems, f"|{name}|", text, rf"^{name}\s+= (\S+) \*", abs(want))
                _parse_rel(problems, f"arg {name}", text, rf"^{name}\s+= \S+ \* exp\((\S+)j\)",
                           _phase(want), rel=0.0, abs_=1e-6)
        elif command == "simulate":
            n = ref.photons_per_mode(r)
            _parse_rel(problems, "photons cav1", text, r"photons per mode\s+= (\S+) \(cav1\)", n)
            _parse_rel(problems, "photons cav2", text, r"\(cav1\), (\S+) \(cav2\)", n)
            _parse_rel(problems, "log negativity", text, r"log negativity\s+= (\S+)",
                       ref.log_negativity(r))
            scale = ref.tmss_moments(r)[0] * (2.0 * float(cfg["nbar_motion"]) + 1.0)
            _parse_rel(problems, "motion decorrelation", text,
                       r"motion decorrelation = (\S+)", 0.0, abs_=1e-8 * scale)
        elif command == "sequential":
            area = abs(chi1) * float(cfg["seq_t1"])
            want = ref.squeezed_thermal_log_negativity(area, float(cfg["nbar_motion"]))
            _parse_rel(problems, "pulse area", text, r"pulse area \|chi1\|\*t1\s+= (\S+)", area)
            _parse_rel(problems, "E_N pulse1|pulse2", text, r"E_N pulse1\|pulse2\s+= (\S+)", want)
            _parse_rel(problems, "E_N pulse1|motion", text, r"E_N pulse1\|motion\s+= (\S+)",
                       0.0, abs_=1e-8)
        elif command == "fig3":
            problems += self._check_fig3(inp, cfg)
        return problems

    def _check_fig3(self, inp, cfg):
        out_dir = inp["out_dir"]
        phase = float(cfg["theta1"]) + float(cfg["theta2"])
        kappa_dt = float(cfg["kappa_dt"])
        problems = []
        for r_text in cfg["fig3_r_list"].split(","):
            r = float(r_text)
            path = out_dir / f"fig3_r{r:g}.csv"
            if not path.exists():
                problems.append(f"fig3: {path.name} missing")
                continue
            rows = path.read_text(encoding="utf-8").splitlines()[2:]
            times = [float(row.split(",", 2)[0]) for row in rows]
            values = [float(row.split(",", 2)[1]) for row in rows]
            problems += ref.check_signal(f"fig3 r={r:g}", values, times, r, kappa_dt,
                                         phase, tol=1e-12)
        return problems


# ---------------------------------------------------------------------------
# scan: one operating point characterised in-process per op
# ---------------------------------------------------------------------------

class Scan:
    """Couplings, regime report, both protocols and both C(t) routes per point.

    Nineteen ops in twenty are seeded points with r in [1.06, 1.8]; the
    twentieth is a fixed near-degenerate point (r - 1 in [0.01, 0.02]) where
    ``log_negativity`` rejects a physical state because its tolerance does
    not grow with the conditioning of the covariance.  Those points do not
    depend on the seed and fail on every run, so the failed share is exactly
    1/20.  Below r = 1.06 the same fault strikes some seeded points and not
    others, which would make the failed count depend on the seed.
    """

    ROUND = 20
    R_RANGE = (1.06, 1.8)
    NBAR = (0.0, 100.0)
    AREA = (0.5, 1.5)
    KAPPA_DT = 0.1     # detection bin kappa * dt of the default fig3 sweep
    NEAR_DEGENERATE = ((1.010, 0.0), (1.011, 25.0), (1.0115, 50.0), (1.012, 75.0),
                       (1.013, 100.0))   # (r, nbar_motion)

    def __init__(self, root, seed, work_dir, in_process):
        from ionlight import params, protocol
        self.params = params
        self.protocol = protocol
        path = root / CONFIG
        self.cfg = ref.parse_config(path.read_text(encoding="utf-8"))
        self.base, _ = params.params_from_config(params.load_config(path))
        self.ratio = float(self.cfg["ratio"])
        self.rng = random.Random(f"scan:{seed}")
        self.rounds = 0

    def _point(self, r, nbar, theta1, theta2, area, kind="seeded"):
        delta_hz = ref.delta_hz_for_ratio(r, float(self.cfg["nu_hz"]))
        cfg = dict(self.cfg, delta_hz=repr(delta_hz))
        params = dataclasses.replace(self.base, delta=delta_hz * TWO_PI, nbar_motion=nbar)
        return {"params": params, "cfg": cfg, "nbar": nbar, "theta": (theta1, theta2),
                "area": area, "kind": kind}

    def warmup_input(self):
        return self._point(1.1, 0.0, 0.0, 0.0, 1.0)

    def next_round(self):
        rng = self.rng
        inputs = [self._point(rng.uniform(*self.R_RANGE), rng.uniform(*self.NBAR),
                              rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI),
                              rng.uniform(*self.AREA))
                  for _ in range(self.ROUND - 1)]
        r, nbar = self.NEAR_DEGENERATE[self.rounds % len(self.NEAR_DEGENERATE)]
        inputs.append(self._point(r, nbar, 0.0, 0.0, 1.0, kind="near-degenerate"))
        self.rounds += 1
        return inputs

    def kind(self, inp):
        return inp["kind"]

    def run(self, inp):
        params, protocol = self.params, self.protocol
        p = inp["params"]
        out = {"errors": []}
        out["couplings"] = c = params.coupling_constants(p)
        out["report"] = params.validate_regime(p, c, much_greater_ratio=self.ratio)
        try:
            out["sim"] = protocol.run_simultaneous(p, force=True)
        except Exception as exc:     # the op goes on: its other stages still run
            out["errors"].append(f"{type(exc).__name__} in run_simultaneous")
        settings = protocol.HomodyneSettings(theta1=inp["theta"][0], theta2=inp["theta"][1],
                                             kappa_dt=self.KAPPA_DT)
        out["closed"] = protocol.output_signal(c, p.kappa, settings)
        out["bs"] = protocol.beam_splitter_signal(c, settings)
        out["t1"] = inp["area"] / abs(c.chi1)
        out["seq"] = protocol.run_sequential(p, t1=out["t1"])
        return out

    def check(self, inp, out):
        cfg, nbar = inp["cfg"], inp["nbar"]
        c = out["couplings"]
        problems = ref.check_couplings(c.chi1, c.chi2, cfg)
        chi1, chi2 = ref.raman_couplings(cfg)
        r = abs(chi2) / abs(chi1)
        theta = ref.theta_rate(chi1, chi2)
        margins = {row.name: row.margin for row in out["report"].constraints}
        for name, want in (("nu >> theta", 2.0 * math.pi * float(cfg["nu_hz"]) / theta),
                           ("theta >> kappa", theta / (2.0 * math.pi * float(cfg["kappa_hz"])))):
            if not ref.close(margins[name], want, rel=1e-9):
                problems.append(f"regime margin {name}: {margins[name]!r}, expected {want!r}")
        sim = out.get("sim")
        if sim is not None:
            d, cov = sim.diagnostics, sim.state.cov
            n_motion = (cov[4, 4] + cov[5, 5] - 2.0) / 4.0
            problems += ref.check_pulse((d["n_cav1"], d["n_cav2"]), d["log_negativity"],
                                        d["motion_decorrelation"], n_motion, nbar, r,
                                        cav_cov=cov[:4, :4].tolist())
        times = out["closed"].times.tolist()
        phase = _phase(chi1) + _phase(chi2) + sum(inp["theta"])
        closed, bs = out["closed"].c_values, out["bs"]
        for name, values in (("closed-form C", closed), ("beam-splitter C", bs)):
            problems += ref.check_signal(name, values.tolist(), times, r, self.KAPPA_DT, phase)
        gap = float(abs(closed - bs).max())
        if not gap <= 1e-9:
            problems.append(f"closed-form and beam-splitter C differ by {gap:.3e}")
        seq = out["seq"]
        area = abs(chi1) * out["t1"]
        problems += ref.check_sequential(seq.final_entanglement,
                                         seq.pulse1_motion_entanglement, area, nbar)
        want_a = ref.squeezed_thermal_log_negativity(area, nbar)
        if not ref.close(seq.stage_a_entanglement, want_a, rel=1e-8, abs_=1e-8):
            problems.append(f"E_N cavity|motion: {seq.stage_a_entanglement!r}, expected {want_a!r}")
        return problems


# ---------------------------------------------------------------------------
# oracle: one Gaussian-versus-number-basis cross-check per op
# ---------------------------------------------------------------------------

class Oracle:
    """The comparison ``ionlight oracle-check`` makes, from vacuum, at seeded r.

    A round visits five strata of r in [2.2, 3.5] in a seeded order; each op
    takes its stratum's centre plus a seeded offset of at most 0.02.  Op cost
    falls about fivefold across the range, so strata keep the run's median
    and its peak memory from depending on where a few draws happened to land.
    """

    R_RANGE = (2.2, 3.5)
    STRATA = 5
    JITTER = 0.02
    WARMUP_R = 3.5
    LABELS = ("cav1", "cav2", "motion")

    def __init__(self, root, seed, work_dir, in_process):
        from ionlight import fock_oracle, gaussian, params
        self.fock_oracle = fock_oracle
        self.gaussian = gaussian
        self.couplings = params.Couplings
        self.rng = random.Random(f"oracle:{seed}")
        self.counts = {"basis_states": [], "hamiltonian_nnz": [], "reachable_ratio": []}

    def warmup_input(self):
        self.warmup = {"r": self.WARMUP_R}
        return self.warmup

    def next_round(self):
        low, high = self.R_RANGE
        width = (high - low) / self.STRATA
        strata = list(range(self.STRATA))
        self.rng.shuffle(strata)
        return [{"r": low + (k + 0.5) * width + self.rng.uniform(-self.JITTER, self.JITTER),
                 "stratum": k}
                for k in strata]

    def kind(self, inp):
        return inp["stratum"]

    def run(self, inp):
        fock, gaussian = self.fock_oracle, self.gaussian
        r = inp["r"]
        dims = fock.suggest_dims(r)
        c = self.couplings.from_chis(1.0, r)
        dynamics = gaussian.dynamics_from_couplings(c.chi1, c.chi2, 0.0)
        g_state = gaussian.evolve(gaussian.vacuum(3, self.LABELS), dynamics, c.t_pi)
        hamiltonian = fock.hamiltonian_matrix(c.chi1, c.chi2, dims)
        f_state = fock.evolve_exact(fock.vacuum_state(dims), hamiltonian, c.t_pi)
        return {"dims": dims, "nnz": hamiltonian.nnz, "g_cov": g_state.cov,
                "obs": fock.observables(f_state), "errors": []}

    def check(self, inp, out):
        if inp is not self.warmup:
            d1, d2, db = out["dims"]
            # states of the sector n1 - n2 - nb = 0 that holds the vacuum
            reachable = sum(1 for n1 in range(d1) for n2 in range(d2) if 0 <= n1 - n2 < db)
            self.counts["basis_states"].append(d1 * d2 * db)
            self.counts["hamiltonian_nnz"].append(out["nnz"])
            self.counts["reachable_ratio"].append(reachable / (d1 * d2 * db))
        obs = out["obs"]
        return ref.check_oracle(obs.joint_photon_distribution.tolist(),
                                obs.mean_photons.tolist(), out["g_cov"].tolist(),
                                obs.covariance.tolist(), obs.leakage, inp["r"])

    def layer_metrics(self):
        return {f"fock_oracle.{key}": statistics.median(v) if v else 0.0
                for key, v in self.counts.items()}


WORKLOADS = {"cli": Cli, "scan": Scan, "oracle": Oracle}
