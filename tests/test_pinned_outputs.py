"""The CLI's outputs on the bundled indium config and a seeded corpus, pinned.

``pinned_outputs.json`` holds the stdout and exit code of ``validate``,
``couplings``, ``simulate`` and ``sequential`` on the indium config, of
``oracle-check`` at four ``oracle_r``, and the sha256 of each CSV that
``fig3`` writes by default.  For the same four commands on each config of
:func:`corpus_configs` it holds the exit code, the sha256 of stdout and the
first stderr line after the version line.  A refactor that claims the same
outputs must pass this file unedited.  Any change to the file is a change
of output.

To write the file again from the code as it stands (a deliberate change of
output, to be recorded as such), run ``python tests/test_pinned_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from ionlight.cli import bundled_config_path, main
from ionlight.params import coupling_constants, params_from_config, parse_config_text

PINNED = Path(__file__).with_name("pinned_outputs.json")
ORACLE_RS = ("1.5", "2", "2.5", "3")
COMMANDS = ("validate", "couplings", "simulate", "sequential")
CASES = [*COMMANDS, *(f"oracle-check r={r}" for r in ORACLE_RS)]
CORPUS_SEED = 20240917


def edited_config(edits: dict) -> str:
    """The bundled config's text with each ``key = value`` of ``edits`` set."""
    lines = bundled_config_path().read_text(encoding="utf-8").splitlines()
    for key, value in edits.items():
        keys = [line.split("=")[0].strip() for line in lines]
        if key in keys:
            lines[keys.index(key)] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def corpus_configs() -> dict:
    """{name: edits of the bundled config}, the same on every run: drawn from ``CORPUS_SEED``.

    The last three are drawn like the benchmark's ``cli`` workload: a red
    detuning in 30 to 70 MHz, thermal motion up to nbar 100, and a first
    sequential pulse of area |chi1| t1 in (0.5, 1.5).
    """
    rng = random.Random(CORPUS_SEED)
    configs = {"fail rows": {"ratio": "50"},
               "undefined t_pi": {"delta_hz": "63e6"},
               "chi1 = 0": {"g1_hz": "0"},
               "chi2 = 0": {"g2_hz": "0"},
               "soft_ratio": {"soft_ratio": repr(rng.uniform(0.1, 10.0))},
               "thermal motion": {"nbar_motion": "5"}}
    for k in range(3):
        edits = {"delta_hz": repr(rng.uniform(-70e6, -30e6)),
                 "nbar_motion": repr(rng.uniform(0.0, 100.0))}
        params, _ = params_from_config(parse_config_text(edited_config(edits)))
        edits["seq_t1"] = repr(rng.uniform(0.5, 1.5) / abs(coupling_constants(params).chi1))
        configs[f"cli draw {k}"] = edits
    return configs


def run_cli(argv) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def case_argv(case: str, tmp_dir: Path) -> list:
    """The argv of one pinned case; an oracle case writes its config to ``tmp_dir``."""
    if case.startswith("oracle-check"):
        config = tmp_dir / "oracle.cfg"
        config.write_text(f"oracle_r = {case.split('=')[1]}\n")
        return ["oracle-check", "--config", str(config)]
    return [case, "--config", str(bundled_config_path())]


def run_case(case: str, tmp_dir: Path) -> tuple:
    """(exit code, stdout) of one pinned case."""
    return run_cli(case_argv(case, tmp_dir))[:2]


def run_corpus_config(edits: dict, tmp_dir: Path) -> dict:
    """{command: (exit code, stdout, first stderr line after the version line, or None)}."""
    config = tmp_dir / "corpus.cfg"
    config.write_text(edited_config(edits), encoding="utf-8")
    runs = {}
    for command in COMMANDS:
        code, out, err = run_cli([command, "--config", str(config)])
        runs[command] = (code, out, (err.splitlines()[1:] or [None])[0])
    return runs


def corpus_record(code: int, out: str, err_line) -> dict:
    return {"exit_code": code, "stdout sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": err_line}


def fig3_digests(tmp_dir: Path) -> dict:
    """{file name: sha256} of the CSVs that ``fig3`` writes with its defaults.

    fig3's stdout names its output directory, so it is not pinned.
    """
    out_dir = tmp_dir / "fig3"
    code = run_cli(["fig3", "--out", str(out_dir)])[0]
    assert code == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def first_difference(got: str, want: str) -> str:
    """The first line on which two outputs differ, in both versions."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"first difference, line {k}:\n  got:  {g!r}\n  want: {w!r}"
    return f"got {len(got_lines)} lines, want {len(want_lines)}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_stdout_and_exit_code(pinned, tmp_path, case):
    code, out = run_case(case, tmp_path)
    want = pinned[case]
    assert out == want["stdout"], first_difference(out, want["stdout"])
    assert code == want["exit_code"]


def test_fig3_csvs(pinned, tmp_path):
    got = fig3_digests(tmp_path)
    want = pinned["fig3 sha256"]
    assert sorted(got) == sorted(want)
    for name, digest in want.items():
        assert got[name] == digest, f"{name} differs"


@pytest.mark.parametrize("name", list(corpus_configs()))
def test_corpus(pinned, tmp_path, name):
    runs = run_corpus_config(corpus_configs()[name], tmp_path)
    for command, (code, out, err_line) in runs.items():
        want = pinned["corpus"][name][command]
        assert corpus_record(code, out, err_line) == want, (
            f"{command} on {name!r} moved; its output now:\n"
            f"exit code {code}, stderr {err_line!r}, stdout:\n{out}")


def write_pinned() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        record = {case: dict(zip(("exit_code", "stdout"), run_case(case, Path(tmp))))
                  for case in CASES}
        record["fig3 sha256"] = fig3_digests(Path(tmp))
        record["corpus"] = {
            name: {command: corpus_record(*run)
                   for command, run in run_corpus_config(edits, Path(tmp)).items()}
            for name, edits in corpus_configs().items()}
    PINNED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_pinned()
