"""Every demo script runs to completion.

The demos run in-process (``runpy``), which spares an interpreter start and
the imports per script, in a scratch working directory because demo 03
writes its CSVs into ``fig3_csv/`` there.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would parametrize test_demo_runs with nothing and pass
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
