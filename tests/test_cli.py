import ast
import cmath
import json
import math
import os
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ionlight import cli, protocol
from ionlight.cli import (EXIT_OK, EXIT_PHYSICS, EXIT_USAGE,
                          bundled_config_path, main, read_run_config)
from ionlight.params import CONFIG_KEYS, coupling_constants, load_config
from test_pinned_outputs import PINNED, corpus_record, edited_config, run_cli

INDIUM = str(bundled_config_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rewrite_config(tmp_path, name, replacements=None, drop=None, extra=None):
    """Copy the bundled config with line-level edits."""
    lines = []
    for line in bundled_config_path().read_text().splitlines():
        key = line.split("=")[0].strip() if "=" in line else None
        if drop and key in drop:
            continue
        if replacements and key in replacements:
            line = f"{key} = {replacements[key]}"
        lines.append(line)
    if extra:
        lines.extend(extra)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def flags(command, cfg, out_dir):
    """The argv after ``command``: ``--config cfg``, and ``--out out_dir`` for fig3 alone."""
    return ["--config", cfg] + (["--out", str(out_dir)] if command == "fig3" else [])


# The flags each subcommand reads; it refuses every other.
FLAGS = {"validate": {"--config"}, "couplings": {"--config"}, "simulate": {"--config", "--force"},
         "fig3": {"--config", "--out"}, "sequential": {"--config"},
         "oracle-check": {"--config"}}


class TestFlags:
    @pytest.mark.parametrize("flag", ["--config", "--force", "--out", "--ratio"])
    @pytest.mark.parametrize("command", list(FLAGS))
    def test_accepted_only_where_read(self, capsys, tmp_path, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)     # fig3 writes to the working directory without --out
        given = {"--config": [INDIUM], "--force": [], "--out": ["x"], "--ratio": ["10"]}[flag]
        base = [] if flag == "--config" else ["--config", INDIUM]
        code, out, err = run(capsys, command, *base, flag, *given)
        if flag in FLAGS[command]:
            assert code == EXIT_OK, err
            return
        assert code == EXIT_USAGE
        assert [line for line in err.splitlines() if "error" in line] == [
            f"ionlight: error: unrecognized arguments: {' '.join([flag, *given])}"]
        assert "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestValidate:
    def test_bundled_config_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--config", INDIUM)
        assert code == EXIT_OK
        assert "overall: PASS" in out
        assert "ionlight" in err          # version goes to stderr only
        margin = float(re.search(r"theta >> kappa\s+\S+\s+\S+\s+(\S+)", out).group(1))
        assert margin == pytest.approx(6.52, abs=0.1)

    def test_kappa_equal_theta_fails(self, capsys, tmp_path):
        # kappa_hz = theta/2pi of the bundled set: the theta >> kappa row fails
        cfg = rewrite_config(tmp_path, "tight.cfg",
                             replacements={"kappa_hz": "6516.648095091113"})
        code, out, _ = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_PHYSICS
        assert "overall: FAIL" in out

    def test_missing_key(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "short.cfg", drop={"nu_hz"})
        code, _, err = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_USAGE
        assert "nu_hz" in err

    def test_malformed_line_number(self, capsys, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("nu_hz = 3e6\nnot a key value pair\n")
        code, _, err = run(capsys, "validate", "--config", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_unknown_key(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "extra.cfg", extra=["mystery_knob = 3"])
        code, _, err = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_USAGE
        assert "mystery_knob" in err

    def test_config_required(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == EXIT_USAGE


class TestCouplings:
    def test_reports_operating_point(self, capsys):
        code, out, _ = run(capsys, "couplings", "--config", INDIUM)
        assert code == EXIT_OK
        assert re.search(r"r\s+= 1\.0999", out)
        assert re.search(r"n_mean\s+= 1\.0975\d*e\+02", out)
        assert re.search(r"t_pi\s+= 7\.67\d*e-05", out)


class TestSimulate:
    def test_indium_run(self, capsys):
        code, out, _ = run(capsys, "simulate", "--config", INDIUM)
        assert code == EXIT_OK
        match = re.search(r"photons per mode\s+= (\S+) \(cav1\)", out)
        assert float(match.group(1)) == pytest.approx(109.75, abs=0.01)
        assert "motion decorrelation" in out

    def test_strict_ratio_blocks(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "strict.cfg", replacements={"ratio": "10"})
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == EXIT_PHYSICS
        assert "regime" in err

    def test_force_overrides_gate(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "strict.cfg", replacements={"ratio": "10"})
        code, out, _ = run(capsys, "simulate", "--config", cfg, "--force")
        assert code == EXIT_OK


class TestFig3:
    def test_default_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run(capsys, "fig3", "--out", str(out_dir))
        assert code == EXIT_OK
        files = sorted(p.name for p in out_dir.glob("*.csv"))
        assert files == ["fig3_r1.05.csv", "fig3_r1.1.csv", "fig3_r1.3.csv",
                         "fig3_r1.5.csv", "fig3_r1.8.csv"]
        min_c_11 = float(re.search(r"r=1\.1: .* min C = (\S+) at", out).group(1))
        assert min_c_11 < 0.1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run(capsys, "fig3", "--out", str(dir_a))
        run(capsys, "fig3", "--out", str(dir_b))
        for name in ("fig3_r1.1.csv", "fig3_r1.8.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_header_names_the_angle_sum(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "angles.cfg", extra=["theta1 = 0.25", "theta2 = 0.5"])
        code, _, _ = run(capsys, "fig3", "--config", cfg, "--out", str(tmp_path))
        assert code == EXIT_OK
        header = (tmp_path / "fig3_r1.8.csv").read_text().splitlines()[0]
        assert header == "# r=1.8, kappa_dt=0.1, theta_sum=0.75"

    def test_r_below_one_is_usage_error(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "bad_r.cfg",
                             extra=["fig3_r_list = 1.5,0.9"])
        code, _, err = run(capsys, "fig3", "--config", cfg,
                           "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "exceed 1" in err

    def test_oversized_grid_is_usage_error(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "fine.cfg", extra=["t_step = 1e-9"])
        code, _, err = run(capsys, "fig3", "--config", cfg,
                           "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "grid points" in err

    def test_colliding_file_names_are_usage_error(self, capsys, tmp_path):
        # both names keep six significant digits: fig3_r1.05.csv twice
        cfg = rewrite_config(tmp_path, "twins.cfg", extra=["fig3_r_list = 1.05, 1.0500001"])
        code, out, err = run(capsys, "fig3", "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert re.search(r"^error: fig3_r_list .*fig3_r1\.05\.csv, fig3_r1\.05\.csv$", err,
                         re.MULTILINE)
        assert out == ""
        assert not (tmp_path / "x").exists()

    def test_unwritable_output(self, capsys):
        code, _, err = run(capsys, "fig3", "--out", "/dev/null/nope")
        assert code == EXIT_USAGE


class TestSequential:
    def test_reports_memory_fidelity(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "seq.cfg",
                             extra=["seq_kappa_t12 = 10.0"])
        code, out, _ = run(capsys, "sequential", "--config", cfg)
        assert code == EXIT_OK
        stage_a = float(re.search(r"E_N cavity\|motion \(A\)\s+= (\S+)", out).group(1))
        final = float(re.search(r"E_N pulse1\|pulse2\s+= (\S+)", out).group(1))
        assert stage_a == pytest.approx(2.0, abs=1e-6)
        assert final == pytest.approx(stage_a, abs=1e-2)
        residual = float(re.search(r"motion residual norm\s+= (\S+)", out).group(1))
        assert residual < 1e-3

    def test_ideal_extraction_as_inf(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "seq.cfg", extra=["seq_kappa_t12 = inf"])
        code, out, _ = run(capsys, "sequential", "--config", cfg)
        assert code == EXIT_OK
        residual = float(re.search(r"motion residual norm\s+= (\S+)", out).group(1))
        assert residual < 1e-9

    def test_near_vacuum_pulse_area_accepted(self, capsys, tmp_path):
        # area |chi1| t1 = 0.05, where b = eps * ||cov||_F^2 = 8.9e-16 is less
        # than an eigenvalue solver's own error at nu = 1, which refused the state
        cfg = rewrite_config(tmp_path, "seq.cfg", extra=["seq_t1 = 5.595946576342433e-07"])
        code, out, err = run(capsys, "sequential", "--config", cfg)
        assert code == EXIT_OK, err
        assert "E_N pulse1|pulse2         = 1.000000e-01\n" in out

    def test_overflowing_pulse_area_is_an_error(self, capsys, tmp_path):
        # |chi1| * t1 is about 890 here: cosh of it overflows double precision
        cfg = rewrite_config(tmp_path, "seq.cfg", extra=["seq_t1 = 1e-2"])
        code, out, err = run(capsys, "sequential", "--config", cfg)
        assert code == EXIT_USAGE
        assert re.search(r"^error: .*overflows", err, re.MULTILINE)
        assert "Traceback" not in err
        assert out == ""


class TestOracleCheck:
    def test_default_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle-check")
        assert code == EXIT_OK
        assert "agreement within 1e-06" in out
        for line in out.splitlines():
            match = re.match(r"\S[\w| +-]*?\s{2,}\S+\s+\S+\s+(\S+)$", line)
            if match and "diff" not in line:
                assert float(match.group(1)) < 1e-6

    def test_oracle_r_must_exceed_one(self, capsys, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("oracle_r = 0.5\n")
        code, _, err = run(capsys, "oracle-check", "--config", str(path))
        assert code == EXIT_USAGE

    def test_basis_past_the_cap_is_usage_error(self, capsys, tmp_path):
        from ionlight import fock_oracle
        from ionlight.errors import StateError
        # the cap must refuse this basis before the command runs into it
        with pytest.raises(StateError):
            fock_oracle.hamiltonian_matrix(1.0, 1.01, fock_oracle.suggest_dims(1.01))
        path = tmp_path / "r.cfg"
        path.write_text("oracle_r = 1.01\n")
        code, out, err = run(capsys, "oracle-check", "--config", str(path))
        assert code == EXIT_USAGE
        assert re.search(r"^error: dims \(185956, 185956, 1217\) allow a sector", err,
                         re.MULTILINE)
        assert out == ""


# What a byte mutation of the bundled config inserts: separators, a carriage
# return, NUL, form feed, a byte-order mark, a non-ASCII digit (Arabic-Indic
# three) and bytes that are not UTF-8 (Latin-1 e-acute, 0xff, a lone lead byte).
INSERTS = [b"=", b",", b"#", b"\n", b"\r", b"\x00", b"\x0c", b"\xef\xbb\xbf",
           "\u0663".encode(), b"\xe9", b"\xff", b"\xc3"]


@st.composite
def mutated_config(draw):
    """The bundled config's bytes after one to three mutations: a bit flipped, a
    span of up to 40 bytes deleted or duplicated, or one of INSERTS inserted."""
    data = bytearray(bundled_config_path().read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        how = draw(st.sampled_from(["flip", "delete", "duplicate", "insert"]))
        if how == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif how == "delete":
            del data[at:at + draw(st.integers(1, 40))]
        elif how == "duplicate":
            data[at:at] = data[at:at + draw(st.integers(1, 40))]
        else:
            data[at:at] = draw(st.sampled_from(INSERTS))
    return bytes(data)


class TestOneFailurePath:
    """main alone turns errors into exit codes: 2 for the regime gate, 1 for the rest."""

    def assert_usage_error(self, capsys, argv, match):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, (argv, err)
        assert re.search(rf"^error: .*{match}", err, re.MULTILINE), (argv, err)
        assert "Traceback" not in err
        assert out == ""

    def test_non_finite_rates(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "huge.cfg", replacements={"wavenumber": "1e200"})
        for command in ("validate", "couplings", "simulate", "sequential"):
            self.assert_usage_error(capsys, [command, "--config", cfg],
                                    "chi1 and chi2 must be finite")

    def test_rate_whose_magnitude_overflows(self, capsys, tmp_path):
        # a Raman denominator near resonance makes chi1 = 1.5e308 (1 + 1j):
        # both parts are finite, |chi1| is not
        cfg = rewrite_config(tmp_path, "resonant.cfg", replacements={
            "delta_hz": "3000000.000003", "gamma_hz": "1e-300", "omega_rabi_hz": "1e150",
            "g1_hz": "6.867877545379083e+152-6.867877545379083e+152j"})
        for command in ("validate", "couplings", "simulate", "sequential"):
            self.assert_usage_error(capsys, [command, "--config", cfg],
                                    r"chi1 and chi2 must be finite, in magnitude too, "
                                    r"got \(1\.5\d*e\+308\+1\.5\d*e\+308j\)")

    def test_ratio_not_above_one(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "loose.cfg", replacements={"ratio": "0.5"})
        for command in ("validate", "simulate"):
            self.assert_usage_error(capsys, [command, "--config", cfg],
                                    "much_greater_ratio must exceed 1")

    @pytest.mark.parametrize("g1_hz", ["1e-320", "0"])
    def test_sequential_default_t1_needs_a_rate(self, capsys, tmp_path, g1_hz):
        cfg = rewrite_config(tmp_path, "dark.cfg", replacements={"g1_hz": g1_hz})
        self.assert_usage_error(capsys, ["sequential", "--config", cfg],
                                r"seq_t1 is not set .*1/\|chi1\| is infinite")

    def test_negative_kappa_t12_named_by_its_key(self, capsys, tmp_path):
        # the protocol takes the key's value as given, as kappa_t12
        cfg = rewrite_config(tmp_path, "delay.cfg", drop={"seq_kappa_t12"},
                             extra=["seq_kappa_t12 = -1"])
        self.assert_usage_error(capsys, ["sequential", "--config", cfg],
                                r"kappa_t12 must be >= 0, got -1\.0$")

    @pytest.mark.parametrize("kappa_hz", ["5e-324", "1e-310"])
    def test_subnormal_kappa_keeps_the_delay(self, capsys, tmp_path, kappa_hz):
        # seq_kappa_t12 = 10 reaches the protocol as given, not as
        # (10 / kappa) * kappa, which overflows to ideal extraction
        runs = {}
        for name, edits in (("tiny", {"kappa_hz": kappa_hz}), ("small", {"kappa_hz": "1e-300"}),
                            ("ideal", {"kappa_hz": kappa_hz, "seq_kappa_t12": "inf"})):
            cfg = rewrite_config(tmp_path, f"{name}.cfg", drop=set(edits),
                                 extra=[f"{key} = {value}" for key, value in edits.items()])
            code, runs[name], err = run(capsys, "sequential", "--config", cfg)
            assert code == EXIT_OK, (name, err)
        assert runs["tiny"] == runs["small"]
        assert "motion residual norm      = 2.927070e-04" in runs["tiny"]
        assert runs["tiny"] != runs["ideal"]

    def test_subnormal_exchange_rate_still_swaps(self, capsys, tmp_path):
        # the swap area reaches the protocol as given, not as
        # (area / |chi2|) * |chi2|, whose quotient overflows; chi2's phase is
        # the indium point's, so the pulses are its pulses
        cfg = rewrite_config(tmp_path, "weak.cfg", replacements={"g2_hz": "1e-310"})
        code, out, err = run(capsys, "sequential", "--config", cfg)
        assert code == EXIT_OK, err
        assert out == run(capsys, "sequential", "--config", INDIUM)[1]

    @pytest.mark.parametrize("command", ["validate", "couplings", "simulate", "sequential"])
    def test_byte_order_mark_accepted(self, capsys, tmp_path, command):
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + bundled_config_path().read_bytes())
        assert run(capsys, command, "--config", str(marked))[:2] == \
            run(capsys, command, "--config", INDIUM)[:2]

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_latin1_comment_is_a_config_error(self, capsys, tmp_path, mark):
        # "# café" saved as Latin-1: the byte 0xe9, which is not UTF-8, on the
        # line after the bundled file's last; a byte-order mark shifts no line
        data = bundled_config_path().read_bytes()
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(mark + data + b"# caf\xe9\n")
        line = data.count(b"\n") + 1
        for command in FLAGS:
            code, out, err = run(capsys, command, *flags(command, str(latin1), tmp_path / "out"))
            assert code == EXIT_USAGE, (command, err)
            assert re.search(rf"^config error: line {line}: not UTF-8: byte 0xe9 "
                             r"\(invalid continuation byte\)$", err, re.MULTILINE), err
            assert "Traceback" not in err
            assert out == ""
        assert not (tmp_path / "out").exists()

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated_config(), command=st.sampled_from(list(FLAGS)))
    def test_byte_mutations_end_in_an_exit_code(self, tmp_path, monkeypatch, data, command):
        # a grid of a million points is seconds of CSV: a smaller cap takes the same path
        monkeypatch.setattr(protocol, "MAX_GRID_POINTS", 4001)
        config, out_dir = tmp_path / "mutated.cfg", tmp_path / "out"
        config.write_bytes(data)
        shutil.rmtree(out_dir, ignore_errors=True)
        code, out, err = run_cli([command, *flags(command, str(config), out_dir)])
        assert_documented_outcome(code, out, err, (command, data, err))
        assert out_dir.exists() == (command == "fig3" and code == EXIT_OK), (command, data, err)

    @pytest.mark.parametrize("soft_ratio", ["0", "-1"])
    def test_soft_ratio_not_positive(self, capsys, tmp_path, soft_ratio):
        cfg = rewrite_config(tmp_path, "soft.cfg", extra=[f"soft_ratio = {soft_ratio}"])
        self.assert_usage_error(capsys, ["validate", "--config", cfg],
                                "soft_ratio must be positive")

    def test_underflowing_lamb_dicke_product(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "light.cfg",
                             replacements={"mass": "1e-200", "nu_hz": "1e-200"})
        for command in ("validate", "couplings", "simulate", "sequential"):
            self.assert_usage_error(capsys, [command, "--config", cfg],
                                    r"2 \* mass \* nu underflows to 0")

    def test_regime_gate_is_a_physics_failure(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "strict.cfg", replacements={"ratio": "10"})
        code, out, err = run(capsys, "simulate", "--config", cfg)
        assert code == EXIT_PHYSICS
        assert re.search(r"^error: operating-regime check failed \(theta >> kappa, 1 >> eta\)",
                         err, re.MULTILINE)
        assert out == ""

    def test_no_command_catches(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        commands = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
        assert len(commands) == len(cli.COMMANDS)
        for node in commands:
            assert not any(isinstance(inner, ast.Try) for inner in ast.walk(node)), node.name
        tries = [node for node in ast.walk(tree) if isinstance(node, ast.Try)]
        assert len(tries) == 1


RUN_KEYS = [key for key, spec in CONFIG_KEYS.items() if spec.field is None]
PHYSICAL_KEYS = [key for key, spec in CONFIG_KEYS.items() if spec.field is not None]
# The subcommands that read each config key.  The physical keys reach every
# command that builds the parameters.
PARAMS_COMMANDS = ("validate", "couplings", "simulate", "sequential")
READERS = {
    **{key: PARAMS_COMMANDS for key in PHYSICAL_KEYS},
    "ratio": ("validate", "simulate"), "soft_ratio": ("validate",),
    **{key: ("fig3",) for key in ("kappa_dt", "theta1", "theta2", "t_max", "t_step",
                                  "fig3_r_list")},
    "oracle_r": ("oracle-check",), "oracle_dims": ("oracle-check",),
    **{key: ("sequential",) for key in ("seq_t1", "seq_kappa_t12", "seq_swap_area")},
}
PHYSICAL_ARGVS = [[command] for command in PARAMS_COMMANDS] + [["simulate", "--force"]]

# The key table's fixed values, each run under the test that names it: zero,
# negative, the least subnormal, tiny, huge and near the largest double
# (oracle_dims for all three modes); finite values far from the operating
# point; non-finite values; and a value of each kind for every key: NaN,
# +-inf, an integer, the empty value, a word, a complex literal and a comma list.
EXTREME_VALUES = ["0", "-1", "5e-324", "1e-300", "1e300", "1e308"]
EXTREMES = [("g1_hz", "1e-200"), ("g1_hz", "1e200"), ("omega_rabi_hz", "1e200"),
            ("fig3_r_list", "1e200"), ("oracle_r", "1.000000000001"), ("wavenumber", "1e200")]
NON_FINITE = [("sequential", "seq_t1", "inf"), ("fig3", "t_max", "nan"),
              ("oracle-check", "oracle_r", "nan"), ("fig3", "fig3_r_list", "nan"),
              ("validate", "delta_hz", "nan")]
EXAMPLES = ["nan", "-inf", "inf", "5e-324", "-1e308", "1e308", "7", "", "word", "(1+2j)",
            "1, 2, 3"]


def table_value(key, value):
    return ",".join([value] * 3) if key == "oracle_dims" else value


NAMED = {key: [*(table_value(key, value) for value in EXTREME_VALUES),
               *(value for k, value in EXTREMES if k == key),
               *(value for _, k, value in NON_FINITE if k == key)] for key in CONFIG_KEYS}
# the examples that no named value of the key already runs
KEY_EXAMPLES = {key: [value for value in EXAMPLES if value not in NAMED[key]]
                for key in CONFIG_KEYS}
KEY_VALUES = {key: NAMED[key] + KEY_EXAMPLES[key] for key in CONFIG_KEYS}


def parser_refuses(key, value):
    try:
        CONFIG_KEYS[key].parse(value)
    except ValueError:
        return True
    return False


def key_runs(key, values):
    """(argv, value, run name) of each run of ``values`` of ``key`` through each reader.

    A physical key also runs through ``simulate --force``.  A value the key's
    parser refuses runs once: main reads the whole config before it
    dispatches, so every subcommand refuses it with the same line.
    """
    argvs = PHYSICAL_ARGVS if key in PHYSICAL_KEYS else [[command] for command in READERS[key]]
    return [(argv, value, f"{' '.join(argv)}: {value!r}") for value in values
            for argv in (argvs[:1] if parser_refuses(key, value) else argvs)]


def key_line(key):
    """The line of ``key`` in the bundled config with it set."""
    return 1 + [text.split("=")[0].strip()
                for text in edited_config({key: "0"}).splitlines()].index(key)


def run_key_table(key, work_dir, values=None):
    """{run name: (value, exit code, stdout, stderr, files left)} of each run of
    ``values`` of ``key``, by default every value the table holds for it.

    Each run reads the bundled config with ``key`` set, in the empty
    directory ``work_dir/run``; fig3 writes to ``out`` there, so its stdout
    names no temporary directory.
    """
    config, run_dir, cwd = work_dir / "key.cfg", work_dir / "run", os.getcwd()
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)
    try:
        runs = {}
        for argv, value, name in key_runs(key, KEY_VALUES[key] if values is None else values):
            config.write_text(edited_config({key: value}), encoding="utf-8")
            out_dir = ["--out", "out"] if argv == ["fig3"] else []
            code, out, err = run_cli([*argv, "--config", str(config), *out_dir])
            runs[name] = (value, code, out, err, os.listdir())
            shutil.rmtree("out", ignore_errors=True)
        return runs
    finally:
        os.chdir(cwd)


def assert_documented_outcome(code, out, err, context):
    """One of the three exit codes, no traceback, and the sign each failure carries."""
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_PHYSICS), context
    assert "Traceback" not in err, context
    if code == EXIT_USAGE:
        assert re.search(r"^(config )?error: ", err, re.MULTILINE), context
    elif code == EXIT_PHYSICS:
        assert (re.search(r"^error: ", err, re.MULTILINE)
                or "overall: FAIL" in out or "MISMATCH" in err), context


@pytest.fixture(scope="module")
def pinned_table():
    return json.loads(PINNED.read_text(encoding="utf-8"))["key table"]


def assert_key_runs(pinned_table, tmp_path, key, values):
    """Run ``values`` of ``key`` through each subcommand that reads it, and return the runs.

    Each run ends in a documented exit code: 1 with an ``error:`` line, which
    is ``config error: line N: key 'K'`` for a value the key's parser refuses;
    2 with the regime gate's ``error:`` line, validate's FAIL report or the
    oracle's MISMATCH line.  A refusal writes no file.  An exception escaping
    ``cli.main`` fails the test by itself, and so does any numpy warning,
    under the strict floating-point fixture.  Each run's exit code, stdout
    sha256 and first stderr line after the version line are pinned.
    """
    runs = run_key_table(key, tmp_path, values)
    for name, (value, code, out, err, left) in runs.items():
        context = (key, name, err)
        assert_documented_outcome(code, out, err, context)
        assert left == (["out"] if code == EXIT_OK and name.startswith("fig3") else []), context
        if parser_refuses(key, value):
            refusal = f"key '{key}'" if value else "expected 'key = value'"
            assert re.search(rf"^config error: line {key_line(key)}: {refusal}", err,
                             re.MULTILINE), context
        assert corpus_record(code, out, err) == pinned_table[key][name], (
            f"{name} of {key} moved; its output now:\n"
            f"exit code {code}, stderr:\n{err}stdout:\n{out}")
    return runs


class TestRunKeyTable:
    """Run-level keys: their defaults, and each extreme value through each reader."""

    def test_defaults_come_from_the_table(self):
        assert vars(read_run_config()) == {
            "params": None, **{key: CONFIG_KEYS[key].default for key in RUN_KEYS}}

    @pytest.mark.parametrize("value", EXTREME_VALUES)
    @pytest.mark.parametrize("key", RUN_KEYS)
    def test_every_command_ends_in_an_exit_code(self, pinned_table, tmp_path, key, value):
        assert_key_runs(pinned_table, tmp_path, key, [table_value(key, value)])


class TestPhysicalKeyTable:
    """Physical keys: the extreme values through each command that builds the
    parameters and ``simulate --force``, and the refusals they name."""

    @pytest.mark.parametrize("key", PHYSICAL_KEYS)
    def test_every_command_ends_in_an_exit_code(self, pinned_table, tmp_path, key):
        assert_key_runs(pinned_table, tmp_path, key, EXTREME_VALUES)

    @pytest.mark.parametrize("delta_hz", ["0", "5e-324", "1e-300"])
    def test_vanishing_delta_squared_is_a_fail_report(self, capsys, tmp_path, delta_hz):
        # delta^2 is 0: the scattering and recoil-heating rates take their limit inf
        cfg = rewrite_config(tmp_path, "resonant.cfg", replacements={"delta_hz": delta_hz})
        code, out, _ = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_PHYSICS
        for row in (r"kappa >> gamma\*\|g1\|\^2/delta\^2", r"kappa >> gamma\*\|g2\|\^2/delta\^2",
                    r"theta >> eta\^2\*gamma\*omega\^2/delta\^2"):
            assert re.search(rf"^{row} .* inf .* FAIL$", out, re.MULTILINE), row
        assert "overall: FAIL" in out

    OVERFLOWS = [("simulate", "nbar_motion", r"2 nbar \+ 1 overflows double precision"),
                 ("sequential", "nbar_motion", r"2 nbar \+ 1 overflows double precision"),
                 ("sequential", "seq_t1", r"pair area \|chi\| t = inf overflows double precision"),
                 ("oracle-check", "oracle_r", r"a row sum of H that overflows double precision")]

    @pytest.mark.parametrize("command,key,match", OVERFLOWS,
                             ids=[f"{command}-{key}" for command, key, _ in OVERFLOWS])
    def test_overflowing_input_refused(self, capsys, tmp_path, command, key, match):
        cfg = rewrite_config(tmp_path, "huge.cfg", drop={key}, extra=[f"{key} = 1e308"])
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_USAGE
        assert re.search(rf"^error: .*{match}", err, re.MULTILINE), err
        assert out == ""

    def test_round_off_refusal_prints_a_python_float(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "bright.cfg", replacements={"nbar_motion": "1e300"})
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == EXIT_USAGE
        assert re.search(r"^error: round-off bound eps\*\|\|cov\|\|\^2 = inf is not finite", err,
                         re.MULTILINE), err


class TestNonFiniteValues:
    @pytest.mark.parametrize("command,key,value", NON_FINITE)
    def test_rejected_with_line_number(self, pinned_table, tmp_path, command, key, value):
        # the one run of a refused value is its first reader's
        runs = assert_key_runs(pinned_table, tmp_path, key, [value])
        assert [(name, run[1]) for name, run in runs.items()] == [
            (f"{command}: {value!r}", EXIT_USAGE)]


class TestExtremeFiniteValues:
    """Finite values far from the operating point: through each reader, and their messages."""

    @pytest.mark.parametrize("key,value", EXTREMES, ids=[f"{k}={v}" for k, v in EXTREMES])
    def test_every_command_exits_cleanly(self, pinned_table, tmp_path, key, value):
        assert_key_runs(pinned_table, tmp_path, key, [value])

    @pytest.mark.parametrize("command,key,name", [("fig3", "theta1", "theta1"),
                                                  ("sequential", "seq_swap_area", "swap_area"),
                                                  ("couplings", "theta_l", "theta_l"),
                                                  ("simulate", "theta_c", "theta_c")])
    def test_angles_past_two_pi_refused(self, capsys, tmp_path, command, key, name):
        # the cos and sin of 1e300 are round-off: refused, by the argument's name;
        # a physical parameter is refused while the config is read
        cfg = rewrite_config(tmp_path, "angle.cfg", drop={key}, extra=[f"{key} = 1e300"])
        code, out, err = run(capsys, command, *flags(command, cfg, tmp_path / "x"))
        assert code == EXIT_USAGE
        prefix = "error" if key in RUN_KEYS else "config error"
        assert re.search(rf"^{prefix}: {name} must lie in \[", err, re.MULTILINE)
        assert out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,extra", [
        ("fig3", [f"theta1 = {2 * math.pi!r}", f"theta2 = {-2 * math.pi!r}"]),
        ("sequential", [f"seq_swap_area = {2 * math.pi!r}"]),
        ("couplings", [f"theta_l = {2 * math.pi!r}", f"theta_c = {-2 * math.pi!r}"])])
    def test_angles_of_two_pi_accepted(self, capsys, tmp_path, command, extra):
        keys = {line.split("=")[0].strip() for line in extra}
        cfg = rewrite_config(tmp_path, "angle.cfg", drop=keys, extra=extra)
        code, _, err = run(capsys, command, *flags(command, cfg, tmp_path))
        assert code == EXIT_OK, err

    def test_overflowing_square_is_a_fail_row(self, capsys, tmp_path):
        # |g1|^2 is inf, so its ">>" row fails rather than raising
        cfg = rewrite_config(tmp_path, "huge.cfg", replacements={"g1_hz": "1e200"})
        code, out, _ = run(capsys, "validate", "--config", cfg)
        assert code == EXIT_PHYSICS
        assert re.search(r"^kappa >> gamma\*\|g1\|\^2/delta\^2 .* inf .* FAIL$", out, re.MULTILINE)
        assert "overall: FAIL" in out

    def test_overflowing_square_blocks_simulate(self, capsys, tmp_path):
        cfg = rewrite_config(tmp_path, "huge.cfg", replacements={"omega_rabi_hz": "1e200"})
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == EXIT_PHYSICS
        assert "theta >> eta^2*gamma*omega^2/delta^2" in err

    def test_oracle_r_too_close_to_one(self, capsys, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("oracle_r = 1.000000000001\n")
        code, _, err = run(capsys, "oracle-check", "--config", str(path))
        assert code == EXIT_USAGE
        assert "too close to 1" in err


class TestRunConfig:
    def test_run_keys_parsed(self, tmp_path):
        cfg = rewrite_config(tmp_path, "run.cfg", extra=[
            "t_max = 4.0", "t_step = 0.5", "fig3_r_list = 1.2,1.4",
            "oracle_dims = 8,8,8",
        ])
        rc = read_run_config(cfg)
        assert rc.t_max == 4.0
        assert rc.fig3_r_list == (1.2, 1.4)
        assert rc.oracle_dims == (8, 8, 8)
        assert rc.ratio == 5.0            # from the bundled file


class TestNoMatrixExponential:
    """The lossless paths are closed-form maps; expm is only the cross-check."""

    def test_default_paths_never_reach_expm(self, capsys, tmp_path, monkeypatch,
                                            indium_params):
        from ionlight import fock_oracle, gaussian, protocol

        def refuse(*args, **kwargs):
            raise AssertionError("gaussian.expm reached")

        monkeypatch.setattr(gaussian, "expm", refuse)
        for argv in (["simulate", "--config", INDIUM],
                     ["sequential", "--config", INDIUM],
                     ["fig3", "--out", str(tmp_path)]):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_OK, (argv, err)
        fock_oracle.crosscheck(3.0)
        c = coupling_constants(indium_params)
        with pytest.raises(AssertionError, match="expm reached"):
            gaussian.evolve(gaussian.vacuum(3, protocol.SIMULTANEOUS_LABELS),
                            gaussian.dynamics_from_couplings(c.chi1, c.chi2,
                                                             indium_params.kappa), c.t_pi)


# A drawn oracle_r runs on a small basis: near r = 1 the suggested one takes minutes.
DRAW_BASE = {"oracle_r": {"oracle_dims": "6, 6, 6"}}

# Floats with NaN, +-inf and subnormals, integers, the empty value, a word, a
# complex literal and a comma list.
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.just(""),
    st.from_regex(r"[a-z]{1,8}", fullmatch=True),
    st.builds(complex, st.floats(), st.floats()).map(repr),
    st.lists(st.one_of(st.integers(-2, 12), st.floats(-4.0, 4.0)), min_size=2, max_size=4)
    .map(lambda items: ", ".join(map(repr, items))),
)
BUNDLED = {key: CONFIG_KEYS[key].parse(raw) for key, (raw, _) in load_config(INDIUM).items()}


def near_bundled(key):
    """0, or the bundled value (1 where it is 0) times +-10^[-3, 3], complex ones at any phase."""
    base = BUNDLED[key] or 1.0
    factor = st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                       st.floats(-3.0, 3.0), st.sampled_from([1, -1]))
    if isinstance(base, complex):
        factor = st.builds(lambda f, phase: f * cmath.exp(1j * phase),
                           factor, st.floats(-math.pi, math.pi))
    return st.just("0") | factor.map(lambda f: repr(base * f))


PAIRS = (st.lists(st.sampled_from(PHYSICAL_KEYS), min_size=2, max_size=2, unique=True)
         .flatmap(lambda keys: st.fixed_dictionaries({key: near_bundled(key) for key in keys})))


class TestDrawnValues:
    """Every config key through each subcommand that reads it: a pinned value of each
    kind, then drawn values, and drawn pairs of physical keys, with the same outcome checks."""

    def test_every_key_has_its_readers(self, pinned_table):
        assert set(READERS) == set(CONFIG_KEYS)
        # each pinned run of a key is a run of its named values or of its examples
        for key in CONFIG_KEYS:
            assert [name for *_, name in key_runs(key, KEY_VALUES[key])] == list(pinned_table[key])

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_a_value_of_each_kind_gives_its_pinned_record(self, pinned_table, tmp_path, key):
        assert_key_runs(pinned_table, tmp_path, key, KEY_EXAMPLES[key])

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    @settings(max_examples=10, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=VALUES)
    def test_every_reader_ends_in_an_exit_code(self, tmp_path, monkeypatch, key, value):
        # a drawn t_max or t_step may ask for up to a million points per
        # trace, seconds of CSV: a smaller cap takes the same refusal path
        monkeypatch.setattr(protocol, "MAX_GRID_POINTS", 4001)
        config = tmp_path / "drawn.cfg"
        config.write_text(edited_config({**DRAW_BASE.get(key, {}), key: value}), encoding="utf-8")
        for command in READERS[key]:
            code, out, err = run_cli([command, *flags(command, str(config), tmp_path / "out")])
            assert_documented_outcome(code, out, err, (command, key, value, err))

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=PAIRS)
    def test_pairs_of_physical_keys_end_in_an_exit_code(self, tmp_path, edits):
        config = tmp_path / "pair.cfg"
        config.write_text(edited_config(edits), encoding="utf-8")
        for argv in PHYSICAL_ARGVS:
            code, out, err = run_cli([*argv, "--config", str(config)])
            assert_documented_outcome(code, out, err, (edits, argv, err))
