"""Benchmark of ionlight: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,scan,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is byte-compiled from the
checkout's ``src`` first.  Set-up is measured in fresh processes, each timed
from its start to the end of its untimed warm-up op; the last of them then
runs the closed loop.  With ``--trace 0`` the last line of standard output
is the end-to-end metrics as JSON; with ``--trace 1`` it is the per-layer
metrics of a traced run instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import CPU_TIMED, LAYERS, TRACED   # noqa: E402
from workloads import WORKLOADS, Cli   # noqa: E402

SETUP_SAMPLES = 5          # set-up is timed this many times per run; the median counts
PROBE_SAMPLES = 5          # interpreter and import probes of a traced run
DEADLINE_S = 170.0         # a run ends within this, whatever happens
IMPORT_COUNT = ("import sys; n = len(sys.modules); import ionlight; "
                "print(len(sys.modules) - n)")

# The median op time is printed, not bounded.  Where the CPU's speed switches
# between two levels every few seconds, as on a shared virtual machine, the
# median of millisecond ops jumps between them with the share of slow time,
# while the means behind ops_per_s and cpu_s_per_op drift smoothly.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "cpu_s_per_op": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit; a traced run reports all of them."""
    units = {"cli.interpreter_s": "s", "cli.import_s": "s", "cli.import_modules": "count"}
    for command in dict.fromkeys(Cli.ROUND):
        units[f"cli.main.{command}_s"] = "s"
    for name, _, _ in TRACED:
        if name != "cli.main":
            units.update({f"{name}.calls": "count", f"{name}.p50_us": "us",
                          f"{name}.self_s": "s"})
    units.update({f"{name}.cpu_wall_ratio": "ratio" for name in CPU_TIMED})
    units.update({"fock_oracle.basis_states": "count",
                  "fock_oracle.hamiltonian_nnz": "count",
                  "fock_oracle.reachable_ratio": "ratio"})
    for layer in LAYERS + ("other",):
        units[f"{layer}.share"] = "ratio"
    units.update({"trace.ops": "count", "trace.op_p50_s": "s"})
    return units


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the benchmark's processes, each bounded by one shared deadline."""

    def __init__(self, env):
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, cmd):
        """Run ``cmd``; return (seconds to its first output line, the lines, exit code)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            first_at = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        return first_at, [first] + rest.splitlines(), code

    def worker(self, args, mode, work_dir):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
               "--root", str(ROOT), "--work-dir", str(work_dir)]
        ready_at, lines, code = self.spawn(cmd)
        if code != 0 or lines[0].strip() != "ready":
            raise BenchError(f"{mode} process of {args.workload} exited with code {code}")
        return ready_at, (json.loads(lines[-1]) if mode != "setup" else None)

    def probe(self, *argv):
        start = time.perf_counter()
        _, lines, code = self.spawn([sys.executable, *argv])
        if code != 0:
            raise BenchError(f"probe {argv!r} exited with code {code}")
        return time.perf_counter() - start, lines


def start_up_probes(runner) -> dict:
    """Interpreter start and ``import ionlight`` in fresh processes, as the CLI pays them."""
    bare = [runner.probe("-c", "pass")[0] for _ in range(PROBE_SAMPLES)]
    imports = [runner.probe("-c", "import ionlight")[0] for _ in range(PROBE_SAMPLES)]
    modules = int(runner.probe("-c", IMPORT_COUNT)[1][0])
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports),
            "cli.import_modules": modules}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ionlight" / "__init__.py").is_file():
        print(f"error: no ionlight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out_dir = HERE / "out"
    work_dir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(env)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                       check=True, env=env, timeout=60)
        setups = [runner.worker(args, "setup", work_dir)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready_at, result = runner.worker(args, "trace" if args.trace else "run", work_dir)
        setups.append(ready_at)
        probes = start_up_probes(runner) if args.trace else {}
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed {result['failures']}, "
          f"op_p50_s={result['op_p50_s']:.6g} op_p90_s={result['op_p90_s']:.6g} "
          f"(n={result['attempted']}); over the whole run "
          f"ops_per_s={result['run_ops_per_s']:.6g} cpu_s_per_op={result['run_cpu_s_per_op']:.6g}; "
          f"setup samples {[round(s, 4) for s in setups]}")
    if args.trace:
        layers = dict(result["layers"], **probes)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": result["n_problems"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
