"""Spans around every call into charflow's public functions, from outside.

The tracer wraps each listed function and patches every binding of it: the
defining module's attribute and each ``from .x import name`` copy in the other
charflow modules (``scenarios.flow_map``, ``flow.evaluate_batch``, ...).
``ConcaveCost`` and ``MollifierSpec`` are patched on the class.  Spans keep
their name, start, end, parent and operation id in memory and are written out
when the run ends; a span's self time is its duration minus its children's.
"""

import functools
import math
import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _report_bytes(summary_path, names):
    folder = os.path.dirname(summary_path)
    return sum(os.path.getsize(os.path.join(folder, name))
               for name in (summary_path, *names))


def _scenario_bytes(args, kwargs, result):
    return {"report_bytes": _report_bytes(result.summary_path,
                                          result.report_paths.values())}


def _study_bytes(args, kwargs, result):
    return {"report_bytes": _report_bytes(result.summary_path,
                                          [result.table_path])}


def _solve_cells(args, kwargs, result):
    pair = _arg(args, kwargs, 0, "pair")
    cells = pair.mu.atom_count * pair.nu.atom_count
    return {"cells": cells, "max_cells": cells}


# (metric name, module, class or None, attribute, work counter); a counter
# maps (args, kwargs, result) to the work counts the call adds.
TARGETS = (
    ("fields.evaluate_batch", "charflow.fields", None, "evaluate_batch",
     lambda a, k, r: {"points": len(_arg(a, k, 2, "points"))}),
    ("flow.flow_map", "charflow.flow", None, "flow_map",
     lambda a, k, r: {"atom_segments": len(_arg(a, k, 1, "points"))
                      * (len(_arg(a, k, 2, "t_grid")) - 1)}),
    ("costs.ConcaveCost", "charflow.costs", "ConcaveCost", "__init__", None),
    ("costs.ConcaveCost.cost", "charflow.costs", "ConcaveCost", "cost", None),
    ("costs.ConcaveCost.cost_many", "charflow.costs", "ConcaveCost",
     "cost_many", lambda a, k, r: {"values": int(np.size(
         _arg(a, k, 1, "radii")))}),
    ("costs.ConcaveCost.cost_inverse", "charflow.costs", "ConcaveCost",
     "cost_inverse", None),
    ("costs.saturation_integral", "charflow.costs", None,
     "saturation_integral", None),
    ("transport.solve_ot", "charflow.transport", None, "solve_ot",
     _solve_cells),
    ("transport.reference_W", "charflow.transport", None, "reference_W",
     None),
    ("diagnostics.mollify", "charflow.diagnostics", None, "mollify",
     lambda a, k, r: {"atoms_in": _arg(a, k, 0, "measure").atom_count,
                      "cells_out": r.atom_count}),
    ("diagnostics.build_mu_nu", "charflow.diagnostics", None, "build_mu_nu",
     None),
    ("diagnostics.D_functional", "charflow.diagnostics", None,
     "D_functional", None),
    ("diagnostics.costestimate_bound", "charflow.diagnostics", None,
     "costestimate_bound", None),
    ("diagnostics.parameter_schedule", "charflow.diagnostics", None,
     "parameter_schedule", None),
    ("diagnostics.build_cutoff", "charflow.diagnostics", None,
     "build_cutoff", None),
    ("diagnostics.MollifierSpec", "charflow.diagnostics", "MollifierSpec",
     "__init__", None),
    ("diagnostics.weak_solution_residual", "charflow.diagnostics", None,
     "weak_solution_residual", None),
    ("measures.measure_from_arrays", "charflow.measures", None,
     "measure_from_arrays",
     lambda a, k, r: {"atoms": len(_arg(a, k, 1, "locations"))}),
    ("measures.jordan_decompose", "charflow.measures", None,
     "jordan_decompose", None),
    ("measures.balance_with_reservoir", "charflow.measures", None,
     "balance_with_reservoir", None),
    ("scenarios.quantize_density", "charflow.scenarios", None,
     "quantize_density", lambda a, k, r: {"atoms": len(r[0])}),
    ("scenarios.run_scenario", "charflow.scenarios", None, "run_scenario",
     _scenario_bytes),
    ("scenarios.convergence_study", "charflow.scenarios", None,
     "convergence_study", _study_bytes),
)

# work-count keys per function, in report order
COUNT_KEYS = {
    "fields.evaluate_batch": ("points",),
    "flow.flow_map": ("atom_segments", "rhs_calls"),
    "costs.ConcaveCost.cost_many": ("values",),
    "transport.solve_ot": ("cells", "max_cells"),
    "diagnostics.mollify": ("atoms_in", "cells_out"),
    "measures.measure_from_arrays": ("atoms",),
    "scenarios.quantize_density": ("atoms",),
    "scenarios.run_scenario": ("report_bytes",),
    "scenarios.convergence_study": ("report_bytes",),
}

NAMES = tuple(target[0] for target in TARGETS)
LAYERS = ("fields", "flow", "costs", "transport", "diagnostics", "measures",
          "scenarios")
OP = len(NAMES)  # name index of the benchmark's own per-operation span


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Installs the wrappers, records spans, and folds them into metrics."""

    def __init__(self):
        self.spans = []      # [name index, start, end, parent, op id]
        self.stack = []
        self.op_id = -1
        self.counts = {name: {} for name in NAMES}
        self._undo = []

    def _wrap(self, index, original, counter):
        spans, stack = self.spans, self.stack
        counts = self.counts[NAMES[index]]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op_id)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key.startswith("max_"):
                        counts[key] = max(counts.get(key, 0), value)
                    else:
                        counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "charflow" or name.startswith("charflow."))]
        for index, (_, module, cls, attr, counter) in enumerate(TARGETS):
            owner = sys.modules[module]
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                setattr(klass, attr, self._wrap(index, original, counter))
                self._undo.append((klass, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def run_op(self, op_id, call):
        """Run one operation under a root span; returns its result."""
        self.op_id = op_id
        slot = len(self.spans)
        self.spans.append(None)
        self.stack.append(slot)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[slot] = (OP, start, end, -1, op_id)

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self):
        """Per-function calls, self time and work counts; per-layer shares."""
        self_times = self._self_times()
        calls = [0] * (OP + 1)
        self_s = [0.0] * (OP + 1)
        for span, own in zip(self.spans, self_times):
            calls[span[0]] += 1
            self_s[span[0]] += own
        flow_index = NAMES.index("flow.flow_map")
        field_index = NAMES.index("fields.evaluate_batch")
        rhs_calls = sum(1 for span in self.spans if span[0] == field_index
                        and self._under(span, flow_index))
        self.counts["flow.flow_map"]["rhs_calls"] = rhs_calls

        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (self_s[i], "s")
            for key in COUNT_KEYS.get(name, ()):
                out[f"{name}.{key}"] = (self.counts[name].get(key, 0),
                                        "count")
        op_time = math.fsum(end - start for index, start, end, _, _
                            in self.spans if index == OP)
        for layer in LAYERS:
            own = math.fsum(self_s[i] for i, name in enumerate(NAMES)
                            if layer_of(name) == layer)
            out[f"share.{layer}"] = (100.0 * own / op_time, "%")
        return out

    def _under(self, span, ancestor_index):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor_index:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Write every span as CSV: name, start and end (seconds from the
        first span), parent row, operation id."""
        origin = self.spans[0][1] if self.spans else 0.0
        labels = (*NAMES, "op")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,op\n")
            for index, start, end, parent, op_id in self.spans:
                handle.write(f"{labels[index]},{start - origin:.9f},"
                             f"{end - origin:.9f},{parent},{op_id}\n")


# Functions each workload is designed to call; every other listed function
# must record zero calls there.
_REFINE_ACTIVE = {
    "fields.evaluate_batch", "flow.flow_map", "transport.solve_ot",
    "transport.reference_W", "measures.measure_from_arrays",
    "measures.jordan_decompose", "measures.balance_with_reservoir",
    "scenarios.quantize_density", "scenarios.convergence_study"}
EXPECTED_ACTIVE = {
    "scenarios": set(NAMES) - {"scenarios.convergence_study"},
    "refine": _REFINE_ACTIVE,
    "push": {"fields.evaluate_batch", "flow.flow_map"},
}


def design_errors(workload, metrics, op_kinds, rungs):
    """Coverage and design checks on one traced run's metrics."""
    calls = {name: metrics[f"{name}.calls"][0] for name in NAMES}
    errors = []
    for name in NAMES:
        active = name in EXPECTED_ACTIVE[workload]
        if active and calls[name] == 0:
            errors.append(f"{name} recorded no calls on {workload}")
        if not active and calls[name] != 0:
            errors.append(f"{name} recorded {calls[name]} calls on "
                          f"{workload}, where none are expected")

    def share(*layers):
        return sum(metrics[f"share.{layer}"][0] for layer in layers)

    if workload == "refine":
        want = (rungs - 1) * len(op_kinds)
        if calls["transport.solve_ot"] != want:
            errors.append(f"transport.solve_ot made "
                          f"{calls['transport.solve_ot']} calls on refine, "
                          f"expected {want}")
        if share("transport") < 80.0:
            errors.append(f"transport is {share('transport'):.1f}% of refine "
                          f"self time, expected at least 80%")
    if workload == "push":
        rhs = metrics["flow.flow_map.rhs_calls"][0]
        if rhs == 0 or rhs != calls["fields.evaluate_batch"]:
            errors.append(f"{rhs} of {calls['fields.evaluate_batch']} "
                          f"evaluate_batch calls ran under flow_map")
        if calls["flow.flow_map"] != len(op_kinds):
            errors.append(f"push made {calls['flow.flow_map']} flow_map "
                          f"calls for {len(op_kinds)} operations")
        if share("fields", "flow") < 80.0:
            errors.append(f"fields and flow are {share('fields', 'flow'):.1f}%"
                          f" of push self time, expected at least 80%")
    if workload == "scenarios":
        if calls["scenarios.run_scenario"] != len(op_kinds):
            errors.append(f"scenarios made {calls['scenarios.run_scenario']} "
                          f"run_scenario calls for {len(op_kinds)} operations")
    return errors
