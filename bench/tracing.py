"""Spans around the program's public functions, recorded from outside it.

Each traced function is wrapped where its caller looks it up (a module
attribute), so calls made inside the program are seen without changing
it.  A span is (name, start, end, parent, item); spans stay in memory and
are written once the run ends.  Counters ride on the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module the caller reads the name from, attribute, span name)
SPANNED = (
    ("oncocontrol.config", "parse_config", "config.parse_config"),
    ("oncocontrol.cli", "solve_fbsm", "optimal_control.solve_fbsm"),
    ("oncocontrol.cli", "solve_direct", "optimal_control.solve_direct"),
    ("oncocontrol.optimal_control", "forward_rollout", "optimal_control.forward_rollout"),
    ("oncocontrol.optimal_control", "backward_rollout", "optimal_control.backward_rollout"),
    (
        "oncocontrol.optimal_control",
        "objective_and_gradient",
        "optimal_control.objective_and_gradient",
    ),
    ("oncocontrol.cli", "dose_report", "optimal_control.dose_report"),
    ("oncocontrol.cli", "integrate", "competition_dynamics.integrate"),
    ("oncocontrol.stability_analysis", "integrate", "competition_dynamics.integrate"),
    ("oncocontrol.cli", "equilibria_uncontrolled", "stability_analysis.equilibria"),
    ("oncocontrol.cli", "equilibria_constant_control", "stability_analysis.equilibria"),
    ("oncocontrol.cli", "simulate_fractionated", "lq_radiotherapy.simulate_fractionated"),
    ("oncocontrol.cli", "write_csv", "outputs.write_csv"),
    ("oncocontrol.cli", "write_json", "outputs.write_json"),
)

# field factories whose closures the integrator calls once per RHS evaluation
FIELD_FACTORIES = tuple(
    (module, name)
    for module in ("oncocontrol.cli", "oncocontrol.stability_analysis")
    for name in ("competition_field", "controlled_field", "coexistence_field")
)

RUN_SCENARIO = "cli.run_scenario"

# per-layer metrics: name -> unit; all except the bench.* ones are per item
PER_LAYER_UNITS = {
    "optimal_control.solve_fbsm.s": "s",
    "optimal_control.fbsm_sweeps": "count",
    "optimal_control.backward_rollout.s": "s",
    "optimal_control.backward_rollout.calls": "count",
    "optimal_control.solve_direct.s": "s",
    "optimal_control.solve_direct.cpu_s": "s",
    "optimal_control.lbfgsb_iters": "count",
    "optimal_control.objective_and_gradient.s": "s",
    "optimal_control.objective_and_gradient.calls": "count",
    "optimal_control.forward_rollout.s": "s",
    "optimal_control.forward_rollout.calls": "count",
    "optimal_control.dose_report.s": "s",
    "competition_dynamics.integrate.s": "s",
    "competition_dynamics.integrate.calls": "count",
    "competition_dynamics.rhs_evals": "count",
    "stability_analysis.equilibria.s": "s",
    "lq_radiotherapy.simulate_fractionated.s": "s",
    "lq_radiotherapy.steps": "count",
    "lq_radiotherapy.step_us": "us",
    "outputs.write_csv.s": "s",
    "outputs.csv_bytes": "B",
    "outputs.write_json.s": "s",
    "outputs.json_bytes": "B",
    "config.parse_config.s": "s",
    "cli.run_scenario.self_s": "s",
    "bench.ref_loop_s": "s",
    "bench.wall_items_per_s": "1/s",
    "bench.trace_overhead": "ratio",
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = -1
        self.items_traced = 0
        self._local = threading.local()
        self._root = -1
        self._lock = threading.Lock()
        self._rhs_evals = itertools.count()   # next() is atomic across threads

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span; in a worker thread with no open span, the item's
        run_scenario span is its parent."""
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else self._root
        self.spans.append((name, 0.0, 0.0, parent, self.item))
        stack.append(index)
        if name == RUN_SCENARIO:
            self._root = index
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == RUN_SCENARIO:
                self._root = -1
            self.spans[index] = (name, start, end, parent, self.item)

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu = time.process_time()
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result, time.process_time() - cpu)
            return result

        return wrapper

    def _count(self, name: str, args, result, cpu_s: float) -> None:
        if name == "optimal_control.solve_fbsm":
            added = {"optimal_control.fbsm_sweeps": result.iterations}
        elif name == "optimal_control.solve_direct":
            added = {
                "optimal_control.lbfgsb_iters": result.iterations,
                "optimal_control.solve_direct.cpu_s": cpu_s,
            }
        elif name == "lq_radiotherapy.simulate_fractionated":
            added = {"lq_radiotherapy.steps": len(result.times) - 1}
        elif name == "outputs.write_csv":
            added = {"outputs.csv_bytes": Path(args[0]).stat().st_size}
        elif name == "outputs.write_json":
            added = {"outputs.json_bytes": Path(args[0]).stat().st_size}
        else:
            return
        with self._lock:  # worker threads of the thread pool count too
            for key, value in added.items():
                self.counts[key] += value

    def _counted_factory(self, factory):
        tick = self._rhs_evals

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            field = factory(*args, **kwargs)

            def counted(t, h, c):
                next(tick)
                return field(t, h, c)

            return counted

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in SPANNED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._spanned(original, span_name))
            for module_name, attr in FIELD_FACTORIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._counted_factory(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def per_item(self) -> dict[str, float]:
        """Layer metrics over the traced items, each divided by their count."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent].append((start, end))
        run_self = 0.0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name == RUN_SCENARIO:
                run_self += (end - start) - _covered(children[index])
        n = max(self.items_traced, 1)
        steps = self.counts["lq_radiotherapy.steps"]
        fractionated_s = total["lq_radiotherapy.simulate_fractionated"]
        metrics = {
            "cli.run_scenario.self_s": run_self / n,
            "lq_radiotherapy.step_us": 1e6 * fractionated_s / steps if steps else 0.0,
            # the counter's next value is the number of evaluations so far
            "competition_dynamics.rhs_evals": next(self._rhs_evals) / n,
        }
        for metric in PER_LAYER_UNITS:
            if metric in metrics or metric.startswith("bench."):
                continue
            if metric.endswith(".s"):
                metrics[metric] = total[metric[:-2]] / n
            elif metric.endswith(".calls"):
                metrics[metric] = calls[metric[: -len(".calls")]] / n
            else:
                metrics[metric] = self.counts[metric] / n
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "item"],
                    "spans": self.spans,
                }
            )
        )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap under threads)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
