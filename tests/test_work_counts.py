"""Work counts of a scenario run: each cost-layer value is computed once.

The counts are deterministic, so a regression that recomputes a value shows
here without any timing.
"""

import pytest

import charflow.diagnostics as diagnostics
import charflow.scenarios as scenarios
from charflow import (ConcaveCost, balance_with_reservoir, make_measure,
                      modulus_log, solve_ot)
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
    counts = {"reference_W": 0, "J inside the bound": 0, "bound": 0}
    inside_bound = []

    def counted_reference_W(pair, _original=scenarios.reference_W):
        counts["reference_W"] += 1
        return _original(pair)

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
    monkeypatch.setattr(diagnostics, "saturation_integral",
                        counted_saturation)
    monkeypatch.setattr(scenarios, "costestimate_bound", marked_bound)
    run_scenario(config, str(tmp_path))

    levels = len(config.cutoff_levels)
    # one per report time and level, plus the comparison chain's one per level
    assert counts["reference_W"] == levels * config.time_points + levels
    assert counts["bound"] == levels * (config.time_points - 1)
    assert counts["J inside the bound"] == 0
