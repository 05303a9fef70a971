import re
from pathlib import Path

import pytest

from ionlight.cli import (EXIT_OK, EXIT_PHYSICS, EXIT_USAGE,
                          bundled_config_path, main, read_run_config)

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

    def test_strict_ratio_blocks(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", INDIUM, "--ratio", "10")
        assert code == EXIT_PHYSICS
        assert "regime" in err

    def test_force_overrides_gate(self, capsys):
        code, out, _ = run(capsys, "simulate", "--config", INDIUM,
                           "--ratio", "10", "--force")
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


class TestNonFiniteValues:
    @pytest.mark.parametrize("command,key,value", [
        ("sequential", "seq_t1", "inf"),
        ("fig3", "t_max", "nan"),
        ("oracle-check", "oracle_r", "nan"),
        ("fig3", "fig3_r_list", "nan"),
        ("validate", "delta_hz", "nan"),
    ])
    def test_rejected_with_line_number(self, capsys, tmp_path, command, key, value):
        cfg = rewrite_config(tmp_path, "bad.cfg", drop={key}, extra=[f"{key} = {value}"])
        lineno = len(Path(cfg).read_text().splitlines())
        code, _, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert re.search(rf"^\S*\s*error: line {lineno}: key '{key}'", err, re.MULTILINE)
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


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

    def test_settings_roundtrip(self, indium_config):
        settings = indium_config.settings()
        assert settings.kappa_dt == 0.1
        assert settings.t_grid[-1] == pytest.approx(8.0)
