"""Acceptance battery: one test per shipped guarantee, run with -v to get
one pass/fail line each.  Tolerances here are the product contract; loosen
nothing without a release note."""

import json
import math
import time

import numpy as np
import pytest

from charflow import (ConcaveCost, FlowOptions,
                      balance_with_reservoir, c_transform_extend,
                      comparison_bound, brute_force_ot, flow_map, flow_push,
                      integrate_flow, linear_field, measure_from_arrays,
                      modulus_linear, modulus_log, modulus_loglog_squared,
                      osgood_envelope, osgood_plane_field,
                      osgood_1d_field, reference_W, rotation_field,
                      saturation_integral, solve_ot)
from charflow.diagnostics import parameter_schedule, weak_solution_residual
from charflow.scenarios import (ScenarioConfig, build_field, builtin_config,
                                builtin_names, convergence_study,
                                quantize_density, run_scenario)

TIGHT = FlowOptions(abs_tol=1e-12, rel_tol=1e-10)

COST_POOL = (
    ConcaveCost(modulus_linear(), 0.25, 2.0),
    ConcaveCost(modulus_linear(), 0.05, 0.5),
    ConcaveCost(modulus_log(), 0.1, 1.0),
    ConcaveCost(modulus_log(), 0.3, 1.5),
    ConcaveCost(modulus_loglog_squared(), 0.2, 1.0),
)


def draw_pair(rng, m, n, dim):
    mu = measure_from_arrays(dim, rng.uniform(-1.0, 1.0, size=(m, dim)),
                             rng.uniform(0.1, 1.0, size=m))
    nu = measure_from_arrays(dim, rng.uniform(-1.0, 1.0, size=(n, dim)),
                             rng.uniform(0.1, 1.0, size=n))
    return balance_with_reservoir(measure_from_arrays(
        dim, np.vstack([mu.locations, nu.locations]),
        np.concatenate([mu.weights, -nu.weights])))


@pytest.fixture(scope="module")
def ot_battery():
    """Solve 1000 random instances once; criteria 1 and 2 both read it."""
    rng = np.random.default_rng(2026)
    worst_route_gap = 0.0
    worst_duality = 0.0
    worst_slack = 0.0
    start = time.monotonic()
    for trial in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        cost = COST_POOL[trial % len(COST_POOL)]
        pair = draw_pair(rng, m, n, dim)
        plan, potential = solve_ot(pair, cost)
        check, _ = brute_force_ot(pair, cost)
        worst_route_gap = max(worst_route_gap,
                              abs(plan.primal_value - check))
        dual = potential.dual_value(pair.mu, pair.nu)
        worst_duality = max(worst_duality,
                            abs(plan.primal_value - dual)
                            / (1.0 + abs(plan.primal_value)))
        for i, j, mass in plan.entries:
            assert mass > 0.0
            vx = potential.mu_values[i] if i >= 0 else 0.0
            vy = potential.nu_values[j] if j >= 0 else 0.0
            if i < 0 or j < 0:
                drop = cost.c_infinity
            else:
                gap = plan.mu_locations[i] - plan.nu_locations[j]
                drop = cost.cost(float(np.linalg.norm(gap)))
            worst_slack = max(worst_slack, abs(vx - vy - drop))
    elapsed = time.monotonic() - start
    return {"route_gap": worst_route_gap, "duality": worst_duality,
            "slack": worst_slack, "elapsed": elapsed}


def test_criterion_01_dual_route_equivalence(ot_battery):
    assert ot_battery["route_gap"] <= 1e-9, \
        f"solver routes disagree by {ot_battery['route_gap']:.3e}"
    assert ot_battery["elapsed"] < 30.0, \
        f"1000-instance battery took {ot_battery['elapsed']:.1f}s"


def test_criterion_02_duality_and_slackness(ot_battery):
    assert ot_battery["duality"] <= 1e-9, \
        f"worst relative duality gap {ot_battery['duality']:.3e}"
    assert ot_battery["slack"] <= 1e-9, \
        f"worst support slackness defect {ot_battery['slack']:.3e}"


def test_criterion_03_potential_gradient():
    rng = np.random.default_rng(7)
    costs = (ConcaveCost(modulus_linear(), 0.25, 2.0),
             ConcaveCost(modulus_linear(), 0.1, 1.0),
             ConcaveCost(modulus_log(), 0.2, 1.2))
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 200:
        cost = costs[int(rng.integers(len(costs)))]
        pair = draw_pair(rng, int(rng.integers(3, 7)),
                         int(rng.integers(3, 7)), 2)
        plan, potential = solve_ot(pair, cost)
        for i, j, mass in plan.entries:
            if i < 0 or j < 0 or checked >= 200:
                continue
            x = plan.mu_locations[i]
            y = plan.nu_locations[j]
            r = float(np.linalg.norm(x - y))
            if r < 0.05:
                continue
            # keep only points where the defining minimum is attained once,
            # with enough margin that the probe stencil cannot switch branch
            vals = (cost.cost_many(
                np.linalg.norm(x - potential.nu_locations, axis=1))
                + potential.nu_values)
            order = np.sort(vals)
            if vals[j] - order[0] > 1e-9:
                continue
            runner_up = order[1] if len(order) > 1 else math.inf
            if potential.include_diamond_base:
                runner_up = min(runner_up, cost.c_infinity)
            if runner_up - order[0] < 1e-3:
                continue
            grad_fd = np.zeros(2)
            for axis in range(2):
                step = np.zeros(2)
                step[axis] = h
                hi = c_transform_extend(potential, [x + step])[0]
                lo = c_transform_extend(potential, [x - step])[0]
                grad_fd[axis] = (hi - lo) / (2.0 * h)
            grad_exact = cost.cost_derivative(r) * (x - y) / r
            worst = max(worst, float(np.max(np.abs(grad_fd - grad_exact))))
            checked += 1
    assert checked == 200
    assert worst <= 1e-4, f"worst gradient mismatch {worst:.3e}"


def test_criterion_04_comparison_bound():
    rng = np.random.default_rng(41)
    violations = 0
    worst_margin = -math.inf
    for trial in range(500):
        cost = COST_POOL[trial % len(COST_POOL)]
        pair = draw_pair(rng, int(rng.integers(1, 7)),
                         int(rng.integers(1, 7)), int(rng.integers(1, 3)))
        plan, _ = solve_ot(pair, cost)
        value = plan.primal_value
        if value > 0.0:
            eps = (value / cost.c_infinity) * 10.0 ** rng.uniform(0.02, 1.2)
        else:
            eps = float(rng.uniform(0.1, 1.0))
        bound = comparison_bound(cost, value, eps, pair.total_mass())
        w_ref = reference_W(pair)
        if w_ref > bound + 1e-12:
            violations += 1
        worst_margin = max(worst_margin, w_ref - bound)
    assert violations == 0, \
        f"{violations} draws broke the bound (worst by {worst_margin:.3e})"


def test_criterion_05_closed_form_flows():
    grow = integrate_flow(linear_field(np.array([[1.0]])), (1.0,),
                          0.0, 1.0, TIGHT).final_state
    assert abs(grow[0] - math.e) <= 1e-8

    shrink = integrate_flow(osgood_1d_field(), (0.5,), 0.0, 1.0,
                            TIGHT).final_state
    assert abs(shrink[0] - 0.5 ** (1.0 / math.e)) <= 1e-6

    quarter = integrate_flow(rotation_field(), (1.0, 0.0), 0.0,
                             math.pi / 2.0, TIGHT).final_state
    assert abs(quarter[0]) <= 1e-8 and abs(quarter[1] - 1.0) <= 1e-8


@pytest.mark.parametrize("make_field, make_starts", [
    (osgood_1d_field,
     lambda rng: (rng.uniform(0.05, 0.85, size=(100, 1)),
                  10.0 ** rng.uniform(-6.0, -2.0, size=100))),
    (osgood_plane_field,
     lambda rng: (rng.uniform(-0.25, 0.25, size=(100, 2)),
                  10.0 ** rng.uniform(-6.0, -3.0, size=100))),
], ids=["line", "plane"])
def test_criterion_06_separation_envelope(make_field, make_starts):
    field = make_field()
    rng = np.random.default_rng(61)
    base, gaps = make_starts(rng)
    grid = np.linspace(0.0, 1.0, 9)
    const = field.modulus_constant_for(2.0)
    violations = 0
    for x0, d0 in zip(base, gaps):
        direction = rng.normal(size=x0.shape)
        direction /= np.linalg.norm(direction)
        frames = flow_map(field, np.stack([x0, x0 + d0 * direction]),
                          grid, TIGHT)
        measured = np.linalg.norm(frames[:, 0] - frames[:, 1], axis=1)
        envelope = osgood_envelope(const, field.modulus, float(d0), grid)
        if np.any(measured > envelope * (1.0 + 1e-3)):
            violations += 1
    assert violations == 0


def test_criterion_07_mass_bookkeeping_everywhere():
    for name in builtin_names():
        cfg = ScenarioConfig.from_dict(builtin_config(name))
        field = build_field(cfg.field_kind, cfg.field_params)
        points, weights = quantize_density(cfg.density, cfg.resolution,
                                           cfg.quantization, cfg.seed)
        m = measure_from_arrays(field.dimension, points, weights,
                                merge=False, reservoir_weight=0.0625)
        out = flow_push(field, m, 0.0, cfg.horizon)
        assert math.fsum(out.weights) == math.fsum(m.weights), name
        assert (math.fsum(np.abs(out.weights))
                == math.fsum(np.abs(m.weights))), name
        assert out.reservoir_weight == m.reservoir_weight, name
        assert out.atom_count == m.atom_count, name


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    out = {}
    for name in ("rotation_ring", "osgood_line", "osgood_disc"):
        cfg = ScenarioConfig.from_dict(builtin_config(name))
        out[name] = (cfg, run_scenario(
            cfg, tmp_path_factory.mktemp(name)))
    return out


def test_criterion_08_functional_under_bound(scenario_runs):
    for name, (cfg, result) in scenario_runs.items():
        assert result.exit_code == 0, f"{name} failed an invariant"
        for level in result.levels:
            for row in level.rows:
                t, value, bound = row[0], row[1], row[5]
                assert value <= bound * (1.0 + 1e-5), \
                    f"{name} k={level.level} t={t}: {value} > {bound}"


def test_criterion_09_schedule_terms_and_growth(scenario_runs):
    for name in ("rotation_ring", "osgood_line"):
        _, result = scenario_runs[name]
        for level in result.levels:
            for row in level.rows:
                assert max(row[2], row[3], row[4]) <= 1.0 + 1e-9, name

    # ladder of cutoff levels for the rotation run's variation data
    _, rotation = scenario_runs["rotation_ring"]
    ivar = rotation.summary["schedules"]["2"]["variation_integral"]
    ladder = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    unit_costs = []
    for k in ladder:
        sched = parameter_schedule(k, ivar, 1.0 / k, 1.0, 1.0,
                                   modulus_linear(), growth_at_k=1.0 + k)
        j_val = saturation_integral(modulus_linear(), sched.delta)
        rate = (sched.beta / sched.delta
                + sched.beta * j_val / (1.0 + k)) * (1.0 * ivar + 1.0)
        assert sched.beta * 1.0 * ivar < 1.0
        assert 2.0 * sched.beta * 1.0 * j_val * (1.0 / k) <= 1.0 + 1e-9
        assert sched.alpha * rate <= 1.0 + 1e-9
        unit_costs.append(
            ConcaveCost(modulus_linear(), sched.delta, sched.beta).cost(1.0))
    assert all(b > a for a, b in zip(unit_costs, unit_costs[1:])), unit_costs
    # growth is linear in the level, so the 1e3 threshold is crossed at a
    # finite extrapolated level; record it rather than running the ladder out
    slope = (unit_costs[-1] - unit_costs[-2]) / (ladder[-1] - ladder[-2])
    assert slope > 0.0
    k_star = ladder[-1] + (1e3 - unit_costs[-1]) / slope
    assert math.isfinite(k_star) and k_star > ladder[-1]
    print(f"\nunit-radius cost along the ladder: "
          f"{[round(c, 4) for c in unit_costs]}; "
          f"crosses 1e3 at extrapolated level k* ~ {k_star:.0f}")


def test_criterion_10_refinement_contraction(tmp_path):
    for name in ("shear_line", "drift_line"):
        cfg = ScenarioConfig.from_dict(builtin_config(name))
        study = convergence_study(cfg, tmp_path / name, rungs=4)
        assert study.exit_code == 0, name
        assert len(study.ratios) == 2
        assert all(r >= 1.8 for r in study.ratios), (name, study.ratios)

    cfg = ScenarioConfig.from_dict(builtin_config("osgood_line"))
    study = convergence_study(cfg, tmp_path / "osgood", rungs=4)
    assert study.exit_code == 0
    assert all(a > b for a, b in zip(study.distances, study.distances[1:]))

    # byte-level reproducibility under the pinned seed
    again = convergence_study(ScenarioConfig.from_dict(
        builtin_config("drift_line")), tmp_path / "again", rungs=4)
    first_table = (tmp_path / "drift_line" /
                   "drift_line_refinement.csv").read_bytes()
    assert (tmp_path / "again" /
            "drift_line_refinement.csv").read_bytes() == first_table
    first_summary = (tmp_path / "drift_line" /
                     "drift_line_refinement_summary.json").read_bytes()
    assert (tmp_path / "again" /
            "drift_line_refinement_summary.json").read_bytes() \
        == first_summary
    assert again.exit_code == 0


def test_criterion_11_weak_residual_refinement():
    cfg = ScenarioConfig.from_dict(builtin_config("rotation_ring"))
    field = build_field(cfg.field_kind, cfg.field_params)
    points, weights = quantize_density(cfg.density, cfg.resolution,
                                       cfg.quantization, cfg.seed)

    def residual(n_times):
        grid = np.linspace(0.0, cfg.horizon, n_times)
        frames = flow_map(field, points, grid, TIGHT)
        snapshots = [(float(t), measure_from_arrays(
            field.dimension, frames[i], weights, merge=False))
            for i, t in enumerate(grid)]
        return weak_solution_residual(field, snapshots)

    coarse = residual(11)
    fine = residual(21)
    assert coarse / fine >= 3.5, (coarse, fine)
