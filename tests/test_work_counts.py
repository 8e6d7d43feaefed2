"""Work counts of a scenario run: each schedule, cost-layer, snapshot and
field value is computed once.

The counts are deterministic, so a regression that recomputes a value shows
here without any timing.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import charflow.costs as costs
import charflow.diagnostics as diagnostics
import charflow.flow as flow
import charflow.measures as measures
import charflow.scenarios as scenarios
import charflow.transport as transport
from charflow import (AtomicSignedMeasure, ConcaveCost, FlowOptions,
                      Modulus, MollifierSpec, ScheduleError,
                      balance_with_reservoir, flow_endpoints,
                      make_measure, measure_from_arrays,
                      modulus_linear, modulus_log, modulus_loglog_squared,
                      mollify, osgood_plane_field, parameter_schedule,
                      rotation_field, solve_ot, weak_solution_residual)
from charflow.fields import VectorFieldSpec, row_norms
from charflow.scenarios import ScenarioConfig, builtin_config, run_scenario
from charflow.transport import DIAMOND


def difference(mu, nu):
    """mu - nu as one signed measure, its co-located mass merged."""
    return measure_from_arrays(mu.dimension,
                               np.vstack([mu.locations, nu.locations]),
                               np.concatenate([mu.weights, -nu.weights]))


def test_solve_ot_never_takes_the_scalar_cost_path(monkeypatch):
    cost = ConcaveCost(modulus_log(), 1e-3, 0.5)
    mu = make_measure(2, [((0.0, 0.0), 0.25), ((0.3, 0.1), 0.25),
                          ((4.0, 4.0), 0.125)])
    nu = make_measure(2, [((0.1, 0.0), 0.25), ((0.2, 0.2), 0.25)])

    def scalar(self, r):
        raise AssertionError("solve_ot called the scalar cost path")

    monkeypatch.setattr(ConcaveCost, "cost", scalar)
    plan, _ = solve_ot(balance_with_reservoir(difference(mu, nu)), cost)
    labels = {label for entry in plan.entries for label in entry[:2]}
    assert DIAMOND in labels and len(plan.entries) > 1


def test_solve_ot_evaluates_each_distinct_distance_once(monkeypatch):
    rng = np.random.default_rng(3)
    spec = MollifierSpec(0.25, 1)
    mu, nu = (mollify(measure_from_arrays(1, rng.uniform(-0.5, 0.5, (k, 1)),
                                          rng.uniform(0.1, 0.3, k)), spec)
              for k in (4, 3))
    cost = ConcaveCost(modulus_log(), 1e-3, 0.5)
    batches = []

    def counted(self, radii, _original=ConcaveCost.cost_many):
        batches.append(int(np.size(radii)))
        return _original(self, radii)

    pair = balance_with_reservoir(difference(mu, nu))
    monkeypatch.setattr(ConcaveCost, "cost_many", counted)
    plan, _ = solve_ot(pair, cost)
    distinct = len(np.unique(cdist(pair.mu.locations, pair.nu.locations)))
    assert distinct < pair.mu.atom_count * pair.nu.atom_count
    # the assembly's one call, then the slackness audit's own call on the
    # plan's real entries
    real = sum(DIAMOND not in entry[:2] for entry in plan.entries)
    assert batches == [distinct, real]


def _rewalking_simplex(supplies, demands, ground):
    """The pivots of ``transport._network_simplex`` with the whole basis tree
    walked afresh, from row 0, before every pricing pass: breadth-first,
    each potential its tree arc's cost minus its parent's.  It keeps its
    own flows dict keyed by arc.  Returns the final flows and the pivot
    count."""
    m, n = ground.shape
    parent, up_cell, up_flow = transport._least_cost_start(supplies, demands,
                                                           ground)
    flows = {divmod(cell, n): q
             for p, cell, q in zip(parent, up_cell, up_flow) if p != -1}
    enter_tol = 1e-12 * (1.0 + float(np.max(np.abs(ground))))
    zero_theta = 1e-15 * max(math.fsum(supplies), 1.0)
    bland, degenerate_run = False, 0
    for pivot in range(60 * (m + n) + 3000):
        neighbours = [[] for _ in range(m + n)]
        for i, j in flows:
            neighbours[i].append(m + j)
            neighbours[m + j].append(i)
        parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
        order, seen = [0], {0}
        for p in order:
            for q in neighbours[p]:
                if q not in seen:
                    seen.add(q)
                    parent[q], depth[q] = p, depth[p] + 1
                    cell = (q, p - m) if q < m else (p, q - m)
                    pot[q] = float(ground[cell]) - pot[p]
                    order.append(q)
        assert len(order) == m + n
        red = (ground - np.array(pot[:m])[:, None]) - np.array(pot[m:])
        red[tuple(np.array(list(flows)).T)] = np.inf
        entering = transport._entering_cell(red, enter_tol, bland)
        if entering is None:
            return flows, pivot
        ei, ej = entering
        side_col, side_row = [m + ej], [ei]
        while depth[side_col[-1]] > depth[side_row[-1]]:
            side_col.append(parent[side_col[-1]])
        while depth[side_row[-1]] > depth[side_col[-1]]:
            side_row.append(parent[side_row[-1]])
        while side_col[-1] != side_row[-1]:
            side_col.append(parent[side_col[-1]])
            side_row.append(parent[side_row[-1]])
        walk = [ei] + side_col + side_row[-2::-1]
        hops = list(zip(walk[:-1], walk[1:]))
        plus = [(p, q - m) for p, q in hops if p < m]
        minus = [(q, p - m) for p, q in hops if p >= m]
        theta = min(flows[arc] for arc in minus)
        leaving = min(arc for arc in minus if flows[arc] <= theta)
        for arc in plus:
            flows[arc] = flows.get(arc, 0.0) + theta
        for arc in minus:
            flows[arc] = max(flows[arc] - theta, 0.0)
        del flows[leaving]
        flows.setdefault((ei, ej), 0.0)
        degenerate_run = degenerate_run + 1 if theta <= zero_theta else 0
        bland = bland or degenerate_run >= m + n
    raise AssertionError("pivot budget exceeded")


def test_simplex_walks_the_whole_basis_tree_once(monkeypatch):
    """The start's tree is walked once from the root; after that a pivot
    walks only the subtree that its leaving arc cuts off and re-hangs, then
    prices the whole matrix in one pass.  Pivots and flows are those of a
    solver that walks the whole tree afresh at every pivot: the kept
    potentials, so the prices, are bit for bit the same."""
    rng = np.random.default_rng(4)
    spec = MollifierSpec(0.02, 1)
    mu, nu = (mollify(measure_from_arrays(1, rng.uniform(-1.0, 1.0, (20, 1)),
                                          rng.uniform(0.1, 0.3, 20)), spec)
              for _ in range(2))
    pair = balance_with_reservoir(difference(mu, nu))
    assert (pair.mu.atom_count, pair.nu.atom_count) == (102, 116)
    supplies, demands, ground = transport._assemble(
        pair, ConcaveCost(modulus_log(), 1e-3, 0.5))[:3]
    nodes = len(supplies) + len(demands)
    walks = []  # (heads, nodes walked) of each _hang

    def counted(heads, ground, parent, children, *rest,
                _original=transport._hang):
        stack, walked = list(heads), 0
        while stack:
            walked += 1
            stack.extend(children[stack.pop()])
        walks.append((set(heads), walked))
        return _original(heads, ground, parent, children, *rest)

    monkeypatch.setattr(transport, "_hang", counted)
    cells, flows, _, _, pivots = transport._network_simplex(supplies, demands,
                                                            ground)
    assert pivots > 50 and len(walks) == pivots + 1
    # the seed hangs every subtree of row 0; each pivot hangs one subtree
    assert walks[0][1] == nodes - 1
    assert all(len(heads) == 1 and 0 not in heads for heads, _ in walks[1:])
    assert sum(walked for _, walked in walks[1:]) < pivots * nodes / 4
    rewalked, rewalked_pivots = _rewalking_simplex(supplies, demands, ground)
    assert rewalked_pivots == pivots
    n = ground.shape[1]
    assert {divmod(int(cell), n): q for cell, q in zip(cells, flows)} == \
        rewalked


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
    tables = _CountingTables()
    monkeypatch.setattr(costs, "_NODE_TABLES", tables)
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
    # the modulus is tabulated once: J and every level's cost share it
    assert tables.builds == 1
    # each snapshot's variation is summed once per level
    assert len(snapshots) == config.time_points
    assert [variation_sums.get(id(m), 0) for m in snapshots] == \
        [levels] * config.time_points


def test_scenario_merges_each_difference_once(monkeypatch, tmp_path):
    """Co-located atoms merge once, where a difference is built; the pairs
    of the report rows and of the refinement distances are Jordan splits
    of measures that already hold each location once."""
    doc = builtin_config("drift_line")
    doc["cutoff_levels"] = [2.0, 3.0]
    config = ScenarioConfig.from_dict(doc)
    merges = []
    balancing = []
    inside_balance = []  # measure_from_arrays merge flags within a balance

    def counted_merge(locations, weights,
                      _original=measures._merge_colocated):
        merges.append(bool(balancing))
        return _original(locations, weights)

    def recorded_build(*args, _original=measures.measure_from_arrays,
                       **kwargs):
        if balancing:
            inside_balance.append(kwargs.get("merge", True))
        return _original(*args, **kwargs)

    def marked_balance(signed, _original=measures.balance_with_reservoir):
        balancing.append(True)
        try:
            return _original(signed)
        finally:
            balancing.pop()

    monkeypatch.setattr(measures, "_merge_colocated", counted_merge)
    monkeypatch.setattr(measures, "measure_from_arrays", recorded_build)
    for module in (measures, diagnostics, scenarios):
        monkeypatch.setattr(module, "balance_with_reservoir", marked_balance)
    run_scenario(config, str(tmp_path))

    # one merge per difference measure, none inside a balance
    assert merges == [False] * config.time_points
    # a balance builds only the two sides of its one Jordan split
    pairs = config.time_points * (len(config.cutoff_levels) + 1)
    assert inside_balance == [False] * (2 * pairs)


_ATOMS_DOC = {
    "name": "two_atoms",
    "field": {"kind": "linear", "matrix": [[1.0]]},
    "density": {"kind": "atoms", "atoms": [[[0.3], 0.625], [[0.6], 0.375]]},
    "horizon": 1.0,
    "time_points": 3,
    "seed": 5,
}


def _counted_parser(monkeypatch):
    """Route the density parser, which reads every kind, through a
    recorder; returns the list of the values it parsed."""
    calls = []

    def counted(block, _original=scenarios.density_from_config):
        calls.append(_original(block))
        return calls[-1]

    monkeypatch.setattr(scenarios, "density_from_config", counted)
    return calls


@pytest.mark.parametrize("doc", [builtin_config("drift_line"), _ATOMS_DOC],
                         ids=["sampled", "atoms"])
def test_config_parses_its_density_block_once(monkeypatch, doc):
    calls = _counted_parser(monkeypatch)
    config = ScenarioConfig.from_dict(doc)
    assert len(calls) == 1
    # the config keeps what it parsed, not the block
    assert config.density is calls[0]


@pytest.mark.parametrize("doc, mode", [
    (builtin_config("drift_line"), "tolerance"),
    (builtin_config("drift_line"), "resolution"),
    (_ATOMS_DOC, "tolerance"),
], ids=["sampled-tolerance", "sampled-resolution", "atoms-tolerance"])
def test_runs_and_studies_parse_no_density_block(monkeypatch, tmp_path, doc,
                                                 mode):
    config = ScenarioConfig.from_dict({**doc, "difference_mode": mode})
    calls = _counted_parser(monkeypatch)
    quantized = []

    def recorded_quantize(density, *args,
                          _original=scenarios.quantize_density):
        quantized.append(density)
        return _original(density, *args)

    monkeypatch.setattr(scenarios, "quantize_density", recorded_quantize)
    run_scenario(config, str(tmp_path / "run"))
    sampled = isinstance(config.density, scenarios.DensityField)
    if sampled:
        scenarios.convergence_study(config, str(tmp_path / "study"), rungs=3)
    assert calls == []
    # every draw quantizes the config's own density: one per side of a
    # resolution run, one per tolerance run, one per rung
    draws = {"tolerance": 1, "resolution": 2}[mode] + 3 if sampled else 0
    assert len(quantized) == draws
    assert all(density is config.density for density in quantized)


def test_explicit_atom_arrays_are_read_only():
    config = ScenarioConfig.from_dict(_ATOMS_DOC)
    locations, weights = config.density
    assert locations.tolist() == [[0.3], [0.6]]
    assert weights.tolist() == [0.625, 0.375]
    for array in (locations, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_runs_of_one_explicit_atom_config_share_its_arrays(monkeypatch,
                                                           tmp_path):
    config = ScenarioConfig.from_dict(_ATOMS_DOC)
    pushed = []

    def recorded_flow_map(field, points, *args, _original=scenarios.flow_map):
        pushed.append(points)
        return _original(field, points, *args)

    monkeypatch.setattr(scenarios, "flow_map", recorded_flow_map)
    written = []
    for out in (tmp_path / "first", tmp_path / "second"):
        run_scenario(config, str(out))
        written.append({path.name: path.read_bytes()
                        for path in sorted(out.iterdir())})
    # both sides of both runs push the config's one read-only array
    assert len(pushed) == 4
    assert all(points is config.density[0] for points in pushed)
    assert len(written[0]) == 2  # the report and the summary
    assert written[0] == written[1]


def test_a_finished_run_leaves_no_node_table_behind(monkeypatch, tmp_path):
    """The config keeps the field's config block, not the field: a field
    kept there would keep its modulus, and with it the modulus's node table
    in costs, alive as long as the config."""
    tables = _CountingTables()
    monkeypatch.setattr(costs, "_NODE_TABLES", tables)
    config = ScenarioConfig.from_dict(builtin_config("drift_line"))
    assert tables.builds == 0
    run_scenario(config, str(tmp_path))
    assert tables.builds == 1
    gc.collect()
    assert len(tables) == 0
    assert config.field_kind == "constant"  # the config is still alive


def test_frozen_atoms_leave_the_field_evaluation(monkeypatch):
    """Once atoms freeze, evaluate_batch receives only the live rows; frozen
    atoms keep the bits of the step where they froze, and live ones stay
    within 100 tolerances of their single-atom integrations."""
    field = osgood_plane_field()
    radii = np.array([0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6])
    angles = np.linspace(0.3, 5.9, len(radii))
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    times = [0.0, 0.25, 0.5, 1.0]
    opts = FlowOptions(abs_tol=1e-9, rel_tol=1e-7)

    def live_rows(state):
        return state[row_norms(state) > opts.freeze_radius]

    batches = []

    def recorded(field, t, points, _original=flow.evaluate_batch):
        batches.append((t, points.copy()))
        return _original(field, t, points)

    tests = []  # (time of the last field call, tested rows, freeze mask)

    def freeze_test(points, singular_points, radius,
                    _original=flow._freeze_mask):
        mask = _original(points, singular_points, radius)
        tests.append((batches[-1][0] if batches else None, points.copy(),
                      mask))
        return mask

    monkeypatch.setattr(flow, "evaluate_batch", recorded)
    monkeypatch.setattr(flow, "_freeze_mask", freeze_test)
    current, history = points, []  # every accepted (t, state) of the push
    starts = set()  # index of each segment's first call
    for t_prev, t_next in zip(times[:-1], times[1:]):
        first, tested = len(batches), len(tests)
        starts.add(first)
        end, (accepted, rejected) = flow._advance(field, current, t_prev,
                                                  t_next, opts)
        # the whole start batch is tested, then the live rows after each
        # accepted step (at the time of its last stage); rebuild the states
        (_, start, mask), *steps = tests[tested:]
        assert start.tobytes() == current.tobytes()
        assert len(steps) == accepted
        state, live = current.copy(), np.flatnonzero(~mask)
        history.append((t_prev, state.copy()))
        for t, rows, newly in steps:
            state[live] = rows
            history.append((t, state.copy()))
            live = live[~newly]
        assert state.tobytes() == end.tobytes()
        assert batches[first][1].tobytes() == live_rows(current).tobytes()
        # the first stage and the initial step size, then six stages per
        # attempted step: a freeze adds no call
        assert len(batches) - first == 2 + 6 * (accepted + rejected)
        current = end
    states = {t: state for t, state in history}
    # the batch shrinks only when atoms freeze, to the live rows of the
    # accepted state where they froze; within a segment the compacted last
    # stage stands in for the first, so no call follows a freeze at its t
    for index, ((t_before, before), (t, batch)) in enumerate(
            zip(batches, batches[1:]), 1):
        if len(batch) != len(before):
            assert len(batch) < len(before)
            if index not in starts:
                assert t > t_before
                assert len(batch) == len(live_rows(states[t_before]))
    assert {len(batch) for _, batch in batches} == \
        {len(live_rows(state)) for state in states.values()}
    assert all(len(batch) for _, batch in batches)  # no zero-row call

    monkeypatch.undo()
    frames = flow.flow_map(field, points, times, opts)
    assert frames[-1].tobytes() == current.tobytes()
    frozen = row_norms(frames[-1]) <= opts.freeze_radius
    # the atom at the origin starts frozen, and six more freeze on the way
    assert np.sum(frozen) == 7
    assert min(len(batch) for _, batch in batches) == len(points) - 7
    for i in np.flatnonzero(frozen):
        at_freeze = next(s[i] for _, s in history
                         if np.linalg.norm(s[i]) <= opts.freeze_radius)
        assert frames[-1, i].tobytes() == at_freeze.tobytes()
    for i in np.flatnonzero(~frozen):
        alone = flow_endpoints(field, points[i:i + 1], times[0], times[-1],
                               opts)[0]
        tol = opts.abs_tol + opts.rel_tol * np.abs(alone)
        assert np.all(np.abs(frames[-1, i] - alone) <= 100.0 * tol)


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
    sched = parameter_schedule(2.0, ivar, floor, 1.0, 1.0, modulus, 1.0)
    assert len(deltas) == len(set(deltas))
    assert sched.delta in deltas


def test_non_osgood_schedule_fails_within_twelve_evaluations(monkeypatch):
    deltas = _record_j(monkeypatch)
    with pytest.raises(ScheduleError, match="converges"):
        parameter_schedule(k=50.0, variation_integral=1.0,
                           variation_floor=0.02, modulus_constant=1.0,
                           growth_constant=1.0,
                           modulus=modulus_loglog_squared(), growth_at_k=1.0)
    assert len(deltas) <= 12
    assert min(deltas) == pytest.approx(1e-280, rel=1e-12)


def test_mixing_disc_run_fails_in_the_schedule(tmp_path):
    config = ScenarioConfig.from_dict(builtin_config("mixing_disc"))
    with pytest.raises(ScheduleError, match="converges"):
        run_scenario(config, str(tmp_path))


class _CountingTables(weakref.WeakKeyDictionary):
    def __init__(self):
        super().__init__()
        self.builds = 0

    def __setitem__(self, key, value):
        self.builds += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("ivar,floor,modulus", [
    (3.0, 0.02, modulus_linear()),     # five doubling strides down
    (1e-3, 5.0, modulus_log()),        # two strides up
])
def test_schedule_builds_the_j_node_table_at_most_once(monkeypatch, ivar,
                                                       floor, modulus):
    tables = _CountingTables()
    monkeypatch.setattr(costs, "_NODE_TABLES", tables)
    deltas = _record_j(monkeypatch)
    evaluations = []

    def counted(s, _original=modulus):
        evaluations.append(np.size(s))
        return _original(s)

    modulus = Modulus(counted, osgood=modulus.osgood)
    sched = parameter_schedule(2.0, ivar, floor, 1.0, 1.0, modulus, 1.0)
    assert len(deltas) > 3
    assert tables.builds == 1
    # the table lives as long as its modulus
    parameter_schedule(2.0, ivar, floor, 1.0, 1.0, modulus, 1.0)
    assert tables.builds == 1
    # a cost on the same modulus sums the table's terms: no modulus value
    evaluations.clear()
    cost = ConcaveCost(modulus, sched.delta, sched.beta)
    assert tables.builds == 1 and evaluations == []
    assert cost.c_infinity == sched.beta * sched.j_value
