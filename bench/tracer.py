"""Span tracer that wraps lr_horizon's layer functions from outside the package.

``install`` replaces each function named in ``LAYERS`` with a wrapper
that records a span, and rebinds the wrapper in every ``lr_horizon``
module that holds the original by name (``from .bounds import
exact_sum_bound`` in ``cli``, say). Imports made inside a function read
the module attribute at call time, so they see the wrapper too.

Spans nest on one stack. A span's self time is its duration minus the
durations of its direct children. Times are integer nanoseconds, so the
self times of all spans add up exactly to the root span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

PACKAGE = "lr_horizon"

LAYERS = {
    "lattice": ("distances_from", "coupling_row"),
    "kernels": ("fourier_spectrum", "self_hop_lambda", "lambda_upper_bound"),
    "bounds": ("exact_sum_bound", "many_site_bound"),
    "signaling": ("exact_sum_signaling_time", "many_site_signaling_time", "signaling_time_numeric"),
    "dynamics": ("evolve", "trajectory", "state_transfer_protocol", "ising_exact_oracle"),
    "analysis": ("fit_model",),
    "cli": ("main", "_write_output"),
}

# Entry points of a signaling-time solve; signaling_time_numeric is the
# bisection they run inside.
SOLVERS = ("signaling.exact_sum_signaling_time", "signaling.many_site_signaling_time")
BOUNDS = ("bounds.exact_sum_bound", "bounds.many_site_bound")

# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("kernels.fourier_spectrum.calls", "count", "lower", "wall_s on both ring workloads (~1%)"),
    ("kernels.fourier_spectrum.self_s", "s", "lower", "wall_s on both ring workloads (~1%)"),
    ("kernels.fourier_spectrum.elements", "count", "lower", "wall_s on both ring workloads"),
    ("bounds.exact_sum_bound.calls", "count", "lower",
     "wall_s on ring_signaling_sweep and ring_bound_grid, where it dominates"),
    ("bounds.exact_sum_bound.self_s", "s", "lower",
     "wall_s on ring_signaling_sweep and ring_bound_grid; a cos cache shows in peak_rss_mb"),
    ("bounds.exact_sum_bound.elements", "count", "lower",
     "wall_s on ring_signaling_sweep and ring_bound_grid"),
    ("signaling.solves", "count", "lower",
     "wall_s on ring_signaling_sweep and open_lattice_rowsums; not on ring_bound_grid"),
    ("signaling.self_s", "s", "lower",
     "wall_s on ring_signaling_sweep and open_lattice_rowsums; not on ring_bound_grid"),
    ("signaling.bound_evals_per_solve", "evals/solve", "lower",
     "wall_s on ring_signaling_sweep (Newton/rtsafe) and open_lattice_rowsums (closed form)"),
    ("kernels.self_hop_lambda.calls", "count", "lower",
     "wall_s and peak_rss_mb on open_lattice_rowsums; barely on the ring workloads"),
    ("kernels.self_hop_lambda.self_s", "s", "lower",
     "wall_s and peak_rss_mb on open_lattice_rowsums; barely on the ring workloads"),
    ("kernels.self_hop_lambda.row_elements", "count", "lower",
     "wall_s and peak_rss_mb on open_lattice_rowsums; barely on the ring workloads"),
    ("lattice.distances_from.calls", "count", "lower", "wall_s on open_lattice_rowsums"),
    ("lattice.distances_from.self_s", "s", "lower", "wall_s on open_lattice_rowsums"),
    ("lattice.coupling_row.calls", "count", "lower", "wall_s on open_lattice_rowsums"),
    ("lattice.coupling_row.self_s", "s", "lower", "wall_s on open_lattice_rowsums"),
    ("bounds.many_site_bound.calls", "count", "lower", "wall_s on open_lattice_rowsums"),
    ("bounds.many_site_bound.self_s", "s", "lower", "wall_s on open_lattice_rowsums"),
    ("dynamics.evolve.calls", "count", "lower", "wall_s on dense_oracles"),
    ("dynamics.evolve.self_s", "s", "lower", "wall_s on dense_oracles"),
    ("dynamics.ising_exact_oracle.self_s", "s", "lower", "wall_s on dense_oracles"),
    ("cli.write_output.self_s", "s", "lower", "wall_s on dense_oracles; negligible elsewhere"),
    ("cli.write_output.bytes", "count", "lower", "wall_s on dense_oracles; negligible elsewhere"),
    ("cli.rows", "count", "lower", "wall_s on dense_oracles; negligible elsewhere"),
    ("analysis.fit_model.self_s", "s", "lower",
     "wall_s on ring_signaling_sweep, well under 1 ms; kept so a regression shows"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
)


class Tracer:
    """Nested spans aggregated by name: calls, self time and counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, Counter] = {}
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])
        self.active[name] += 1

    def end(self) -> int:
        """Close the innermost span and return its duration in ns."""
        name, start, child_ns = self._stack.pop()
        duration = self.clock() - start
        self.active[name] -= 1
        stats = self.stats.setdefault(name, Counter())
        stats["calls"] += 1
        stats["self_ns"] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def add(self, name: str, key: str, amount: int) -> None:
        self.stats.setdefault(name, Counter())[key] += amount

    def inside(self, names) -> bool:
        return any(self.active[n] for n in names)


def _arg(args, kwargs, index: int, key: str):
    return kwargs[key] if key in kwargs else args[index]


def _count(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Work counters measured where the work happens."""
    if name == "kernels.fourier_spectrum":
        tracer.add(name, "elements", result.omega.size)
    elif name == "bounds.exact_sum_bound":
        tracer.add(name, "elements", int(_arg(args, kwargs, 0, "n_sites")))
    elif name == "lattice.coupling_row" and tracer.active["kernels.self_hop_lambda"]:
        tracer.add("kernels.self_hop_lambda", "row_elements", result.size)
    elif name == "cli.write_output":
        cfg = _arg(args, kwargs, 0, "cfg")
        rows = _arg(args, kwargs, 2, "rows")
        trace_rows = kwargs.get("trace_rows", args[3] if len(args) > 3 else None)
        tracer.add("cli", "rows", len(rows) + len(trace_rows or ()))
        for path in (cfg.get("out"), cfg.get("plot_data")):
            if path:
                tracer.add(name, "bytes", os.path.getsize(path))
    if name in BOUNDS and tracer.inside(SOLVERS):
        tracer.add("signaling", "bound_evals", 1)
    if name in SOLVERS and not tracer.inside(SOLVERS):
        tracer.add("signaling", "solves", 1)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        _count(tracer, name, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> int:
    """Wrap every function in ``LAYERS``; return the number of bindings replaced."""
    modules = [
        m for n, m in list(sys.modules.items()) if m and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]
    replaced = 0
    for module_name, functions in LAYERS.items():
        home = sys.modules[f"{PACKAGE}.{module_name}"]
        for fn_name in functions:
            original = getattr(home, fn_name, None)
            if original is None:  # gone from the package: its metrics read 0
                continue
            wrapper = _wrap(tracer, f"{module_name}.{fn_name.lstrip('_')}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced += 1
    return replaced


def layer_metrics(stats: dict, overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from a traced pass's aggregated spans."""

    def get(name: str, key: str) -> int:
        return stats.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    solves = get("signaling", "solves")
    for metric, _, _, _ in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if metric == "signaling.solves":
            values[metric] = solves
        elif metric == "signaling.self_s":
            values[metric] = sum(
                s.get("self_ns", 0) for n, s in stats.items() if n.startswith("signaling.")
            ) / 1e9
        elif metric == "signaling.bound_evals_per_solve":
            values[metric] = get("signaling", "bound_evals") / solves if solves else 0.0
        elif metric == "cli.rows":
            values[metric] = get("cli", "rows")
        elif metric == "trace.overhead_s":
            values[metric] = overhead_s
        elif key == "self_s":
            values[metric] = get(span, "self_ns") / 1e9
        else:
            values[metric] = get(span, key)
    return values
