"""The CLI's outputs on the bundled indium config, pinned byte for byte.

``pinned_outputs.json`` holds the stdout and exit code of ``validate``,
``couplings``, ``simulate`` and ``sequential`` on the indium config, of
``oracle-check`` at four ``oracle_r``, and the sha256 of each CSV that
``fig3`` writes by default.  A refactor that claims the same outputs must
pass this file unedited.  Any change to the file is a change of output.

To write the file again from the code as it stands (a deliberate change of
output, to be recorded as such), run ``python tests/test_pinned_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ionlight.cli import bundled_config_path, main

PINNED = Path(__file__).with_name("pinned_outputs.json")
ORACLE_RS = ("1.5", "2", "2.5", "3")
CASES = ["validate", "couplings", "simulate", "sequential",
         *(f"oracle-check r={r}" for r in ORACLE_RS)]


def run_cli(argv) -> tuple:
    """(exit code, stdout) of ``cli.main(argv)``, run in-process; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_case(case: str, tmp_dir: Path) -> tuple:
    """(exit code, stdout) of one pinned case."""
    if case.startswith("oracle-check"):
        config = tmp_dir / "oracle.cfg"
        config.write_text(f"oracle_r = {case.split('=')[1]}\n")
        return run_cli(["oracle-check", "--config", str(config)])
    return run_cli([case, "--config", str(bundled_config_path())])


def fig3_digests(tmp_dir: Path) -> dict:
    """{file name: sha256} of the CSVs that ``fig3`` writes with its defaults.

    fig3's stdout names its output directory, so it is not pinned.
    """
    out_dir = tmp_dir / "fig3"
    code, _ = run_cli(["fig3", "--out", str(out_dir)])
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


def write_pinned() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        record = {case: dict(zip(("exit_code", "stdout"), run_case(case, Path(tmp))))
                  for case in CASES}
        record["fig3 sha256"] = fig3_digests(Path(tmp))
    PINNED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_pinned()
