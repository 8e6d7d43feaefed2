"""Work counts of a scenario run: each schedule, cost-layer, snapshot and
field value is computed once.

The counts are deterministic, so a regression that recomputes a value shows
here without any timing.
"""

import numpy as np
import pytest

import charflow.diagnostics as diagnostics
import charflow.scenarios as scenarios
import charflow.transport as transport
from charflow import (AtomicSignedMeasure, ConcaveCost, ScheduleError,
                      balance_with_reservoir, make_measure,
                      measure_from_arrays, modulus_linear, modulus_log,
                      modulus_loglog_squared, parameter_schedule,
                      rotation_field, solve_ot, weak_solution_residual)
from charflow.scenarios import ScenarioConfig, builtin_config, run_scenario
from charflow.transport import DIAMOND


def test_solve_ot_never_takes_the_scalar_cost_path(monkeypatch):
    cost = ConcaveCost(modulus_log(), 1e-3, 0.5)
    mu = make_measure(2, [((0.0, 0.0), 0.25), ((0.3, 0.1), 0.25),
                          ((4.0, 4.0), 0.125)])
    nu = make_measure(2, [((0.1, 0.0), 0.25), ((0.2, 0.2), 0.25)])

    def scalar(self, r):
        raise AssertionError("solve_ot called the scalar cost path")

    monkeypatch.setattr(ConcaveCost, "cost", scalar)
    plan, _ = solve_ot(balance_with_reservoir(mu, nu), cost)
    labels = {label for entry in plan.entries for label in entry[:2]}
    assert DIAMOND in labels and len(plan.entries) > 1


@pytest.mark.parametrize("name,parameters", [
    ("drift_line", "schedule"),
    ("shear_line", {"beta": 0.5, "delta": 1e-3, "alpha": 0.25}),
])
def test_scenario_level_loop_computes_each_value_once(monkeypatch, tmp_path,
                                                      name, parameters):
    doc = builtin_config(name)
    doc["cutoff_levels"] = [2.0, 3.0]
    doc["parameters"] = parameters
    config = ScenarioConfig.from_dict(doc)
    counts = {"reference_W": 0, "J inside the bound": 0, "bound": 0,
              "solve_ot": 0, "certificate field calls": 0}
    inside_bound = []
    snapshots = []      # the difference measures, in report-time order
    variation_sums = {}  # id of a snapshot -> total_variation calls

    def recorded_difference(*args, _original=scenarios._difference_measure):
        diff = _original(*args)
        snapshots.append(diff)
        return diff

    def counted_variation(self,
                          _original=AtomicSignedMeasure.total_variation):
        variation_sums[id(self)] = variation_sums.get(id(self), 0) + 1
        return _original(self)

    def counted_reference_W(pair, _original=scenarios.reference_W):
        counts["reference_W"] += 1
        return _original(pair)

    def counted_solve(pair, cost, _original=transport.solve_ot):
        counts["solve_ot"] += 1
        return _original(pair, cost)

    def counted_certificate_field(field, t, points,
                                  _original=transport.evaluate_batch):
        counts["certificate field calls"] += 1
        return _original(field, t, points)

    def counted_saturation(modulus, delta,
                           _original=diagnostics.saturation_integral):
        if inside_bound:
            counts["J inside the bound"] += 1
        return _original(modulus, delta)

    def marked_bound(*args, _original=scenarios.costestimate_bound,
                     **kwargs):
        counts["bound"] += 1
        inside_bound.append(True)
        try:
            return _original(*args, **kwargs)
        finally:
            inside_bound.pop()

    monkeypatch.setattr(scenarios, "reference_W", counted_reference_W)
    for module in (transport, diagnostics, scenarios):
        monkeypatch.setattr(module, "solve_ot", counted_solve)
    monkeypatch.setattr(transport, "evaluate_batch",
                        counted_certificate_field)
    monkeypatch.setattr(diagnostics, "saturation_integral",
                        counted_saturation)
    monkeypatch.setattr(scenarios, "costestimate_bound", marked_bound)
    monkeypatch.setattr(scenarios, "_difference_measure",
                        recorded_difference)
    monkeypatch.setattr(AtomicSignedMeasure, "total_variation",
                        counted_variation)
    run_scenario(config, str(tmp_path))

    levels = len(config.cutoff_levels)
    # one per report time, plus the comparison chain's one per level
    assert counts["reference_W"] == config.time_points + levels
    # D at every report row and every reference_W: the first-term
    # certificate reuses the row's plan instead of solving again
    rows = levels * config.time_points
    assert counts["solve_ot"] == rows + config.time_points + levels
    # the certificate evaluates the field at most once per side of each
    # row's plan (none for a plan without a matched pair)
    assert counts["certificate field calls"] <= 2 * rows
    # one bound call per level gives the terms of every report time
    assert counts["bound"] == levels
    assert counts["J inside the bound"] == 0
    # each snapshot's variation is summed once per level
    assert len(snapshots) == config.time_points
    assert [variation_sums.get(id(m), 0) for m in snapshots] == \
        [levels] * config.time_points


def test_weak_residual_evaluates_the_field_once_per_snapshot(monkeypatch):
    rng = np.random.default_rng(7)
    points = rng.uniform(-0.5, 0.5, size=(6, 2))
    weights = rng.uniform(0.1, 0.3, size=6)
    empty = measure_from_arrays(2, np.zeros((0, 2)), np.zeros(0))
    snapshots = [(float(t), measure_from_arrays(2, points, weights))
                 for t in np.linspace(0.0, 1.0, 7)]
    snapshots[3] = (snapshots[3][0], empty)
    calls = []

    def counted(field, t, points, _original=diagnostics.evaluate_batch):
        calls.append(t)
        return _original(field, t, points)

    monkeypatch.setattr(diagnostics, "evaluate_batch", counted)
    weak_solution_residual(rotation_field(), snapshots)
    assert calls == [t for t, m in snapshots if m.atom_count]


def _record_j(monkeypatch):
    deltas = []

    def recorded(modulus, delta, _original=diagnostics.saturation_integral):
        deltas.append(delta)
        return _original(modulus, delta)

    monkeypatch.setattr(diagnostics, "saturation_integral", recorded)
    return deltas


@pytest.mark.parametrize("ivar,floor,modulus", [
    (1.75, 0.5, modulus_linear()),     # J(1) above the target
    (1.0, 0.25, modulus_log()),        # J(1) below it: one stride down
    (3.0, 0.02, modulus_linear()),     # five doubling strides down
    (1e-3, 5.0, modulus_log()),        # two strides up
])
def test_schedule_evaluates_j_once_per_delta(monkeypatch, ivar, floor,
                                             modulus):
    deltas = _record_j(monkeypatch)
    sched = parameter_schedule(2.0, ivar, floor, 1.0, 1.0, modulus)
    assert len(deltas) == len(set(deltas))
    assert sched.delta in deltas


def test_non_osgood_schedule_fails_within_twelve_evaluations(monkeypatch):
    deltas = _record_j(monkeypatch)
    with pytest.raises(ScheduleError, match="converges"):
        parameter_schedule(k=50.0, variation_integral=1.0,
                           variation_floor=0.02, modulus_constant=1.0,
                           growth_constant=1.0,
                           modulus=modulus_loglog_squared())
    assert len(deltas) <= 12
    assert min(deltas) == pytest.approx(1e-280, rel=1e-12)


def test_mixing_disc_run_fails_in_the_schedule(tmp_path):
    config = ScenarioConfig.from_dict(builtin_config("mixing_disc"))
    with pytest.raises(ScheduleError, match="converges"):
        run_scenario(config, str(tmp_path))
