"""Spans around the program's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every loaded
module that holds it, because modules bind names directly (``protocol``
imports ``coupling_constants`` and ``expm`` by name, ``cli`` imports the
config readers).  Spans stay in memory as ``(name, start, end, parent, op)``
tuples until ``write`` dumps them; ``summarize`` derives self times, the
per-function statistics and each layer's share of the op wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (span name, module, attribute path); a span's layer is its first name part.
TRACED = (
    ("params.load_config", "ionlight.params", "load_config"),
    ("params.params_from_config", "ionlight.params", "params_from_config"),
    ("params.coupling_constants", "ionlight.params", "coupling_constants"),
    ("params.validate_regime", "ionlight.params", "validate_regime"),
    ("gaussian.evolve", "ionlight.gaussian", "evolve"),
    ("gaussian.log_negativity", "ionlight.gaussian", "log_negativity"),
    ("gaussian.symplectic_eigenvalues", "ionlight.gaussian", "symplectic_eigenvalues"),
    ("gaussian.bogoliubov_tpi", "ionlight.gaussian", "bogoliubov_tpi"),
    ("protocol.run_simultaneous", "ionlight.protocol", "run_simultaneous"),
    ("protocol.run_sequential", "ionlight.protocol", "run_sequential"),
    ("protocol.output_signal", "ionlight.protocol", "output_signal"),
    ("protocol.beam_splitter_signal", "ionlight.protocol", "beam_splitter_signal"),
    ("protocol.fig3_sweep", "ionlight.protocol", "fig3_sweep"),
    ("protocol.SignalTrace.to_csv", "ionlight.protocol", "SignalTrace.to_csv"),
    ("fock_oracle.suggest_dims", "ionlight.fock_oracle", "suggest_dims"),
    ("fock_oracle.hamiltonian_matrix", "ionlight.fock_oracle", "hamiltonian_matrix"),
    ("fock_oracle.evolve_exact", "ionlight.fock_oracle", "evolve_exact"),
    ("fock_oracle.observables", "ionlight.fock_oracle", "observables"),
    ("cli.main", "ionlight.cli", "main"),
)
# Process CPU over wall time is recorded for these: scipy's expm runs on
# OpenBLAS, whose helper threads add CPU time without shortening the call.
CPU_TIMED = ("gaussian.evolve", "protocol.run_sequential")
LAYERS = ("cli", "params", "gaussian", "protocol", "fock_oracle")
OP = "op"


class Tracer:
    """Records nested spans; the innermost open span is the parent of the next."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.cpu = {name: [0.0, 0.0] for name in CPU_TIMED}   # cpu s, wall s

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        cpu = self.cpu.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            c0 = time.process_time() if cpu else 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if cpu:
                    cpu[0] += time.process_time() - c0
                    cpu[1] += end - start
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as the root span of one op."""
        self.op = op_id
        try:
            return self.wrap(OP, fn)(*args)
        finally:
            self.op = None

    def install(self):
        """Wrap every traced function wherever a loaded module binds it."""
        for name, module_name, attr in TRACED:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue     # never imported, so never called
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original)
            setattr(owner, leaf, wrapper)
            if path:
                continue     # a method: the class attribute is the only binding
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

    def summarize(self, op_kinds=None) -> dict:
        """Per-layer metrics from the spans of ops (spans outside an op are ignored).

        ``op_kinds`` maps an op id to its kind, which for ``cli`` ops is the
        subcommand, for the ``cli.main.<subcommand>_s`` medians.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = {name: [] for name, _, _ in TRACED}
        self_time = {name: 0.0 for name, _, _ in TRACED}
        op_walls = []
        op_self = 0.0
        by_label = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            own = end - start - child_time[index]
            if name == OP:
                op_walls.append(end - start)
                op_self += own
                continue
            durations[name].append(end - start)
            self_time[name] += own
            if name == "cli.main" and op_kinds:
                by_label.setdefault(op_kinds[op], []).append(end - start)

        metrics = {}
        wall = sum(op_walls)
        for name, _, _ in TRACED:
            if name == "cli.main":
                continue
            samples = durations[name]
            metrics[f"{name}.calls"] = len(samples)
            metrics[f"{name}.p50_us"] = statistics.median(samples) * 1e6 if samples else 0.0
            metrics[f"{name}.self_s"] = self_time[name]
        for name, (cpu, cpu_wall) in self.cpu.items():
            metrics[f"{name}.cpu_wall_ratio"] = cpu / cpu_wall if cpu_wall else 0.0
        for layer in LAYERS:
            own = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
            metrics[f"{layer}.share"] = own / wall if wall else 0.0
        metrics["other.share"] = op_self / wall if wall else 0.0
        metrics["trace.ops"] = len(op_walls)
        metrics["trace.op_p50_s"] = statistics.median(op_walls) if op_walls else 0.0
        for label, samples in by_label.items():
            metrics[f"cli.main.{label}_s"] = statistics.median(samples)
        return metrics
