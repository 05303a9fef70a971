"""The benchmark's workloads run clean: every op of a round exits 0 and passes its checks.

Runs each workload of ``perfbench/workloads.py`` in-process, as the traced
benchmark does: the warm-up input first, then one seeded round.  A failing
op or check here is one that the benchmark would report as a failed run or
as incorrect outputs.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workloads(monkeypatch):
    # workloads.py imports its sibling reference.py by its bare name; the
    # import leaves no bytecode behind in the benchmark's directory
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module("workloads")
    for name in ("workloads", "reference"):
        sys.modules.pop(name, None)


def run_and_check(workload, inp):
    out = workload.run(inp)
    assert out["errors"] == [], (workload.kind(inp), out["errors"])
    assert workload.check(inp, out) == [], workload.kind(inp)


@pytest.mark.parametrize("name", ["cli", "scan", "oracle"])
def test_warmup_and_one_round_run_clean(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](ROOT, 1, tmp_path, True)
    # the warm-up runs before the round is drawn: Cli writes both to op0.cfg
    run_and_check(workload, workload.warmup_input())
    for inp in workload.next_round():
        run_and_check(workload, inp)
