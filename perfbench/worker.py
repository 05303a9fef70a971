"""One benchmark process: set up a workload, then time it (or trace it).

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  Prints
``ready`` once set-up (imports, inputs, one untimed warm-up op) is done, then,
unless ``--mode setup``, one JSON line with the run's raw figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


# On a shared host the same op runs up to twice as long in slow spells that
# come and go within a tenth of a second and cover 70 to 99% of a run.  Ops
# with a median below SHORT_OP_S mostly run whole inside or outside a spell;
# for them the time of an op of one kind is this low quantile of its wall
# times: about 30 of the 5,700 seeded ops of a 30 s scan run.
SHORT_OP_S = 0.05
BEST_QUANTILE = 0.005


def percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def cpu_now(children: bool) -> float:
    """CPU seconds of this process, all threads, plus waited-for children if asked."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if children else (resource.RUSAGE_SELF,):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def attempt(workload, inp, call):
    """Run one op; an exception ends the op, not the run."""
    try:
        out = call(workload.run, inp)
    except Exception as exc:
        return None, [f"{type(exc).__name__}: {exc}"]
    return out, out["errors"]


def op_time(op_walls):
    """Seconds per op over the run's mix of op kinds, the host's slow spells left out.

    Slow spells only add time, so for short ops the low tail of each kind's
    wall times is the program's own cost, steady whatever share of the run
    the spells cover; each kind counts with its share of the ops.  Longer
    ops each span many spells, and their mean is steadier than their tail.
    """
    every_op = [t for walls in op_walls.values() for t in walls]
    if statistics.median(every_op) >= SHORT_OP_S:
        return statistics.fmean(every_op)
    total = sum(percentile(walls, BEST_QUANTILE) * len(walls) for walls in op_walls.values())
    return total / len(every_op)


def measure(workload, seconds, call, children):
    """Closed loop over whole rounds until ``seconds`` of wall time have passed.

    Wall and CPU time are summed over ops; input generation and the checks
    run between ops and are left out, so the figures describe the program.
    """
    op_walls, failures, problems = {}, {}, []
    attempted = failed = 0
    wall = cpu = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for inp in workload.next_round():
            c0 = cpu_now(children)
            t0 = time.perf_counter()
            out, errors = attempt(workload, inp, call)
            t1 = time.perf_counter()
            cpu += cpu_now(children) - c0
            wall += t1 - t0
            op_walls.setdefault(workload.kind(inp), []).append(t1 - t0)
            attempted += 1
            if errors:
                failed += 1
                for error in errors:
                    cause = error.split(":")[0]
                    failures[cause] = failures.get(cause, 0) + 1
            if out is not None:
                problems += workload.check(inp, out)
    every_op = [t for walls in op_walls.values() for t in walls]
    per_op = op_time(op_walls)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "problems": problems[:20],
        "n_problems": len(problems),
        "op_p50_s": statistics.median(every_op),
        "op_p90_s": percentile(every_op, 0.9),
        "run_ops_per_s": attempted / wall,
        "run_cpu_s_per_op": cpu / attempted,
        "ops_per_s": 1.0 / per_op,
        "cpu_s_per_op": cpu / wall * per_op,   # CPU time grows with wall time in a spell
        "peak_rss_mib": usage.ru_maxrss / 1024.0,   # Linux reports KiB
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    traced = args.mode == "trace"
    workload = WORKLOADS[args.workload](args.root, args.seed, args.work_dir, traced)
    warmup = workload.warmup_input()
    out, errors = attempt(workload, warmup, lambda run, inp: run(inp))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    warmup_problems = [f"warm-up op: {p}" for p in errors or workload.check(warmup, out)]

    children = args.workload == "cli" and not traced
    if not traced:
        result = measure(workload, args.seconds, lambda run, inp: run(inp), children)
    else:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        kinds = {}

        def call(run, inp):
            op_id = len(kinds)
            kinds[op_id] = workload.kind(inp)
            return tracer.run_op(op_id, run, inp)

        result = measure(workload, args.seconds, call, children)
        tracer.write(args.work_dir.parent / f"spans-{args.workload}-{args.seed}.tsv")
        layers = tracer.summarize(kinds)
        if hasattr(workload, "layer_metrics"):
            layers.update(workload.layer_metrics())
        result["layers"] = layers
    result["problems"] = warmup_problems + result["problems"]
    result["n_problems"] += len(warmup_problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
