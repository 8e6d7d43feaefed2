"""Optimal transport: two independent solvers must agree, duals must certify."""

import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import charflow.costs as costs
import charflow.scenarios as scenarios
import charflow.transport as transport
from charflow import (BalancedPair, ComparisonBoundError, ConcaveCost,
                      TransportError, balance_with_reservoir, brute_force_ot,
                      c_transform_extend, comparison_bound, firstterm_estimate,
                      CostRangeError, linear_field, make_measure,
                      measure_from_arrays, modulus_linear, modulus_log,
                      modulus_loglog, modulus_loglog_squared, reference_W,
                      rotation_field, solve_ot)
from charflow.scenarios import ScenarioConfig, builtin_config, run_scenario
from charflow.transport import (DIAMOND, REFERENCE_COST, TransportPlan,
                                _assemble, _check_slackness,
                                _least_cost_start, _network_simplex,
                                reference_cost_of)


def difference(mu, nu):
    """mu - nu as one signed measure, its co-located mass merged."""
    return measure_from_arrays(mu.dimension,
                               np.vstack([mu.locations, nu.locations]),
                               np.concatenate([mu.weights, -nu.weights]))


@pytest.fixture(scope="module")
def cost():
    return ConcaveCost(modulus_linear(), 0.25, 2.0)


@pytest.fixture(scope="module")
def sharp_cost():
    return ConcaveCost(modulus_linear(), 1e-3, 0.5)


def random_pair(seed, m, n, dim=2):
    rng = np.random.default_rng(seed)
    mu = measure_from_arrays(dim, rng.uniform(-1.0, 1.0, size=(m, dim)),
                             rng.uniform(0.1, 1.0, size=m))
    nu = measure_from_arrays(dim, rng.uniform(-1.0, 1.0, size=(n, dim)),
                             rng.uniform(0.1, 1.0, size=n))
    return balance_with_reservoir(difference(mu, nu))


def test_single_arc_closed_form(cost):
    mu = make_measure(1, [((0.0,), 0.75)])
    nu = make_measure(1, [((0.4,), 0.75)])
    plan, potential = solve_ot(balance_with_reservoir(difference(mu, nu)),
                               cost)
    assert plan.primal_value == pytest.approx(0.75 * cost.cost(0.4),
                                              rel=1e-12)
    assert plan.entries == ((0, 0, 0.75),)
    assert potential.dual_value(mu, nu) == pytest.approx(plan.primal_value,
                                                         rel=1e-9)


def test_reservoir_routes_excess_to_the_absorbing_point(cost):
    mu = make_measure(1, [((0.0,), 0.3)])
    nu = make_measure(1, [((0.2,), 0.2)])
    pair = balance_with_reservoir(difference(mu, nu))
    plan, _ = solve_ot(pair, cost)
    expected = 0.2 * cost.cost(0.2) + 0.1 * cost.c_infinity
    assert plan.primal_value == pytest.approx(expected, rel=1e-10)
    absorbed = [q for i, j, q in plan.entries if j == DIAMOND]
    assert math.fsum(absorbed) == pytest.approx(0.1, abs=1e-15)


def test_identical_clouds_cost_nothing(cost):
    m = make_measure(2, [((0.0, 0.0), 0.5), ((1.0, 0.5), 0.5)])
    pair = balance_with_reservoir(difference(m, m))
    plan, _ = solve_ot(pair, cost)
    assert plan.primal_value == 0.0
    assert plan.entries == () and plan.pivots == 0  # nothing left to ship
    assert reference_W(pair) == 0.0


def _two_reservoir_pair(mu_atoms, nu_atoms, mu_reservoir, nu_reservoir):
    """A pair built by hand, without the Jordan split: ``*_atoms`` are
    (location, mass) lists on the line."""
    return BalancedPair(make_measure(1, mu_atoms), make_measure(1, nu_atoms),
                        mu_reservoir, nu_reservoir)


_TWO_RESERVOIRS = {
    "equal, atoms on both sides": (
        [((0.0,), 0.25), ((0.5,), 0.5)], [((0.25,), 0.75)], 0.5, 0.5),
    "mu's larger, atoms on both sides": (
        [((0.0,), 0.25)], [((0.5,), 0.5), ((1.0,), 0.25)], 0.75, 0.25),
    "nu's larger, atoms on both sides": (
        [((0.0,), 0.5), ((2.0,), 0.25)], [((1.0,), 0.125)], 0.125, 0.75),
    # atoms on one side only leave the larger reservoir on the other
    "atoms on mu's side only": (
        [((0.0,), 0.2), ((1.5,), 0.3)], [], 0.1, math.fsum([0.2, 0.3, 0.1])),
    "atoms on nu's side only": (
        [], [((0.0,), 0.375)], 1.0, 0.625),
}


@pytest.mark.parametrize("atoms", _TWO_RESERVOIRS.values(),
                         ids=_TWO_RESERVOIRS.keys())
def test_a_pair_with_two_reservoirs_keeps_at_most_one_after_cancelling(
        cost, atoms):
    """The common reservoir is the smaller of the two, so cancelling it
    leaves that side x - x, exactly 0.0: the assembly never adds an
    absorbing row and an absorbing column together, and the simplex agrees
    with the brute-force route."""
    pair = _two_reservoir_pair(*atoms)
    assert pair.mu_reservoir > 0.0 and pair.nu_reservoir > 0.0
    supplies, demands, ground, diamond_row, diamond_col, common = \
        _assemble(pair, cost)
    assert not (diamond_row and diamond_col)
    assert common == min(pair.mu_reservoir, pair.nu_reservoir)
    assert diamond_row == (pair.mu_reservoir > pair.nu_reservoir)
    assert diamond_col == (pair.nu_reservoir > pair.mu_reservoir)
    assert ground.shape == (len(supplies), len(demands))
    for ground_cost in (cost, REFERENCE_COST):
        plan, potential = solve_ot(pair, ground_cost)
        value, _ = brute_force_ot(pair, ground_cost)
        assert plan.primal_value == pytest.approx(value, rel=1e-12,
                                                  abs=1e-15)
        assert potential.include_diamond_base


@pytest.mark.parametrize("reservoir", [0.0, 0.5])
def test_a_pair_without_atoms_keeps_its_own_target_locations(cost, reservoir):
    """With no atoms on either side nothing is solved; the potential still
    holds the pair's own read-only target locations, not a fresh array."""
    pair = _two_reservoir_pair([], [], reservoir, reservoir)
    plan, potential = solve_ot(pair, cost)
    assert plan.entries == () and plan.primal_value == 0.0
    assert plan.pivots == 0
    assert potential.nu_locations is pair.nu.locations
    assert not potential.nu_locations.flags.writeable
    assert potential.include_diamond_base == (reservoir > 0.0)


_SIZES = [(1, 1, 11), (2, 1, 12), (2, 2, 13), (3, 2, 14), (2, 3, 15),
          (3, 3, 16), (3, 4, 17), (4, 4, 18), (5, 3, 19), (7, 7, 20),
          (6, 2, 21), (1, 7, 22)]


@pytest.mark.parametrize("m,n,seed", _SIZES)
def test_simplex_agrees_with_brute_force(cost, m, n, seed):
    """Two unrelated optimizers (simplex vs successive shortest paths) must
    produce the same optimal value."""
    pair = random_pair(seed, m, n)
    plan, _ = solve_ot(pair, cost)
    value, _ = brute_force_ot(pair, cost)
    assert plan.primal_value == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_agreement_with_a_sharp_cost(sharp_cost):
    pair = random_pair(31, 4, 5)
    plan, _ = solve_ot(pair, sharp_cost)
    value, _ = brute_force_ot(pair, sharp_cost)
    assert plan.primal_value == pytest.approx(value, rel=1e-9)


def test_agreement_under_the_reference_cost():
    pair = random_pair(32, 5, 5)
    plan, _ = solve_ot(pair, REFERENCE_COST)
    value, _ = brute_force_ot(pair, REFERENCE_COST)
    assert plan.primal_value == pytest.approx(value, rel=1e-9)
    assert reference_W(pair) == plan.primal_value


def test_reference_cost_guards_both_evaluators():
    assert REFERENCE_COST.cost(0.25) == 0.25
    np.testing.assert_array_equal(
        REFERENCE_COST.cost_many(np.array([[0.5, 3.0]])), [[0.5, 1.0]])
    for bad in (-0.1, math.nan):
        with pytest.raises(CostRangeError):
            REFERENCE_COST.cost(bad)
        with pytest.raises(CostRangeError):
            REFERENCE_COST.cost_many(np.array([0.2, bad]))


# -- the support-slackness audit ----------------------------------------------

def _nudged(potential, side, index, amount=1e-3):
    values = getattr(potential, side).copy()
    values[index] += amount
    return replace(potential, **{side: values})


def test_slackness_audit_names_a_broken_real_entry(cost):
    mu = make_measure(2, [((0.0, 0.0), 0.25), ((0.6, 0.1), 0.25),
                          ((-0.4, 0.5), 0.5)])
    nu = make_measure(2, [((0.1, 0.0), 0.5), ((0.5, 0.3), 0.25),
                          ((-0.3, 0.2), 0.25)])
    plan, potential = solve_ot(balance_with_reservoir(difference(mu, nu)),
                               cost)
    assert all(DIAMOND not in entry[:2] for entry in plan.entries)
    _check_slackness(plan, potential, cost)
    i, j, _ = plan.entries[-1]
    # the nudge breaks every entry of row i; the audit names the first
    first = next(entry for entry in plan.entries if entry[0] == i)
    with pytest.raises(TransportError,
                       match=rf"entry \({first[0]}, {first[1]}\): potential "
                             r"drop .* vs cost "):
        _check_slackness(plan, _nudged(potential, "mu_values", i), cost)
    first = next(entry for entry in plan.entries if entry[1] == j)
    with pytest.raises(TransportError,
                       match=rf"entry \({first[0]}, {first[1]}\)"):
        _check_slackness(plan, _nudged(potential, "nu_values", j), cost)


@pytest.mark.parametrize("excess_on_mu", [True, False])
def test_slackness_audit_names_a_broken_absorbing_entry(cost, excess_on_mu):
    near = make_measure(1, [((0.0,), 0.25)])
    far = make_measure(1, [((0.1,), 0.25), ((5.0,), 0.125)])
    mu, nu = (far, near) if excess_on_mu else (near, far)
    plan, potential = solve_ot(balance_with_reservoir(difference(mu, nu)),
                               cost)
    absorbed = (1, DIAMOND, 0.125) if excess_on_mu else (DIAMOND, 1, 0.125)
    assert absorbed in plan.entries
    _check_slackness(plan, potential, cost)
    side = "mu_values" if excess_on_mu else "nu_values"
    with pytest.raises(TransportError, match=rf"entry \({absorbed[0]}, "
                                             rf"{absorbed[1]}\)"):
        _check_slackness(plan, _nudged(potential, side, 1), cost)


def test_slackness_audit_passes_a_plan_with_dyadic_dust(cost):
    """A 2^-40 mass sits far below every tolerance of the solver; its entry
    must still be audited and pass."""
    dust = 2.0 ** -40
    mu = make_measure(1, [((0.0,), 0.5), ((1.0,), dust)])
    nu = make_measure(1, [((0.1,), 0.5 - dust), ((0.9,), 2.0 * dust)])
    plan, potential = solve_ot(balance_with_reservoir(difference(mu, nu)),
                               cost)
    assert min(q for _, _, q in plan.entries) == dust
    _check_slackness(plan, potential, cost)
    assert (1, 1, dust) in plan.entries
    with pytest.raises(TransportError, match=r"entry \(1, 1\)"):
        _check_slackness(plan, _nudged(potential, "mu_values", 1), cost)


def test_tied_costs_exercise_the_anticycling_path(cost):
    # aligned lattices with uniform weights create many equal-cost arcs and
    # exhaust both ends of every greedy shipment at once
    xs = np.arange(5.0)[:, None]
    mu = measure_from_arrays(1, xs, np.full(5, 0.2))
    nu = measure_from_arrays(1, xs + 0.5, np.full(5, 0.2))
    pair = balance_with_reservoir(difference(mu, nu))
    plan, _ = solve_ot(pair, cost)
    value, _ = brute_force_ot(pair, cost)
    assert plan.primal_value == pytest.approx(value, rel=1e-10)
    # matching each atom to its right neighbor is optimal here
    assert plan.primal_value == pytest.approx(cost.cost(0.5), rel=1e-10)
    _assert_tree_start(*_assemble(pair, cost)[:3])


def _tied_lattice_pair(rng):
    """1-7 atoms a side on a coarse lattice, so ground costs tie, with some
    2^-40 masses; unequal totals put a reservoir on either side."""
    dim = int(rng.integers(1, 3))
    sides = []
    for count in rng.integers(1, 8, size=2):
        locations = 0.25 * rng.integers(0, 5, size=(count, dim))
        weights = rng.uniform(0.1, 1.0, size=count)
        weights[rng.random(count) < 0.25] = 2.0 ** -40
        sides.append(measure_from_arrays(dim, locations, weights))
    return balance_with_reservoir(difference(*sides))


def test_simplex_agrees_with_brute_force_on_tied_lattices(cost):
    rng = np.random.default_rng(12)
    reservoirs = {"mu": 0, "nu": 0}
    for trial in range(200):
        pair = _tied_lattice_pair(rng)
        reservoirs["mu"] += pair.mu_reservoir > 0.0
        reservoirs["nu"] += pair.nu_reservoir > 0.0
        ground = cost if trial % 2 else REFERENCE_COST
        plan, _ = solve_ot(pair, ground)
        value, _ = brute_force_ot(pair, ground)
        assert plan.primal_value == pytest.approx(value, rel=1e-10), trial
    assert min(reservoirs.values()) > 50


def _fresh_walk(arcs, costs, m, n, root):
    """Potentials u_i + v_j = costs[i, j] on the basis tree of ``arcs``
    rooted at node ``root`` (rows 0..m-1, then columns), and each node's
    parent (-1 at the root) and depth: a breadth-first walk in plain Python,
    each potential its tree arc's cost minus its parent's.  Fails unless the
    arcs reach every node."""
    neighbours = [[] for _ in range(m + n)]
    for i, j in arcs:
        neighbours[i].append(m + j)
        neighbours[m + j].append(i)
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    order, seen = [root], {root}
    for p in order:
        for q in neighbours[p]:
            if q not in seen:
                seen.add(q)
                parent[q], depth[q] = p, depth[p] + 1
                cell = (q, p - m) if q < m else (p, q - m)
                pot[q] = float(costs[cell]) - pot[p]
                order.append(q)
    assert len(order) == m + n, "arcs do not reach every node"
    return np.array(pot[:m]), np.array(pot[m:]), parent, depth


def _arcs(cells, n):
    """The (i, j) arcs of flat cells in an m×n matrix."""
    return [divmod(int(cell), n) for cell in cells]


def _assert_exact_potentials(supplies, demands, costs):
    """The potentials kept across pivots are those of a fresh walk over the
    final basis from the simplex's root, the start's, bit for bit: each
    node's is its tree arc's cost minus its parent's, so u_i + v_j equals
    c_ij on every basic arc up to the rounding of that one subtraction."""
    m, n = len(supplies), len(demands)
    cells, flows, u, v, pivots = _network_simplex(supplies, demands, costs)
    assert len(cells) == len(flows) == m + n - 1
    arcs = _arcs(cells, n)
    root = _least_cost_start(supplies, demands, costs)[0].index(-1)
    fresh_u, fresh_v, parent, depth = _fresh_walk(arcs, costs, m, n, root)
    assert u.tobytes() == fresh_u.tobytes()
    assert v.tobytes() == fresh_v.tobytes()
    potentials = np.concatenate([u, v])
    for q, p in enumerate(parent):
        if p >= 0:
            arc = (q, p - m) if q < m else (p, q - m)
            assert arc in arcs and depth[q] == depth[p] + 1
            assert potentials[q] == costs[arc] - potentials[p]
    rows, cols = np.divmod(cells, n)
    basic = costs[rows, cols]
    assert np.all(np.abs(u[rows] + v[cols] - basic) <= np.finfo(float).eps * (
        np.abs(u[rows]) + np.abs(v[cols]) + np.abs(basic)))
    return pivots


@pytest.mark.parametrize("seed", range(8))
def test_kept_potentials_equal_a_fresh_walk_on_tied_instances(seed):
    rng = np.random.default_rng(100 + seed)
    m, n = (int(k) for k in rng.integers(10, 60, size=2))
    assert _assert_exact_potentials(
        *_random_instance(rng, m, n, dust=seed % 2)) > 0


def test_kept_potentials_equal_a_fresh_walk_on_mollified_pairs(
        mollified_pairs):
    pivots = 0
    for pair, cost in mollified_pairs:
        if pair.mu.atom_count and pair.nu.atom_count:
            pivots += _assert_exact_potentials(*_assemble(pair, cost)[:3])
    assert pivots > 1000


def _watch_the_pricing(monkeypatch, supplies, demands, costs):
    """Run the simplex and check the matrix that each ``_entering_cell``
    call sees: exactly m + n - 1 inf cells, the cells of the current basis,
    and every other cell (c - u) - v under the potentials of a fresh walk
    over that basis from the simplex's root, bit for bit.  Returns the
    basic arcs, each with its flow, and the number of pricing passes."""
    m, n = len(supplies), len(demands)
    trees, entered = [], []

    def hang(*args, _original=transport._hang):
        # the parents and parent-arc cells that the pivots update
        trees.append((args[2], args[-1]))
        return _original(*args)

    def entering(red, enter_tol, _original=transport._entering_cell):
        masked = np.isinf(red)
        assert np.count_nonzero(masked) == m + n - 1
        parent, up_cell = trees[-1]
        root = parent.index(-1)
        arcs = _arcs(np.delete(up_cell, root), n)  # the root keeps no arc
        assert set(map(tuple, np.argwhere(masked).tolist())) == set(arcs)
        u, v, _, _ = _fresh_walk(arcs, costs, m, n, root)
        fresh = costs - u[:, None] - v
        assert red[~masked].tobytes() == fresh[~masked].tobytes()
        entered.append(_original(red, enter_tol))
        return entered[-1]

    monkeypatch.setattr(transport, "_hang", hang)
    monkeypatch.setattr(transport, "_entering_cell", entering)
    cells, flows, _, _, pivots = _network_simplex(supplies, demands, costs)
    assert len(entered) == pivots + 1 and entered[-1] is None
    return dict(zip(_arcs(cells, n), flows)), len(entered)


def test_each_pivot_prices_against_the_current_basis(monkeypatch, cost):
    supplies, demands, costs = _assemble(random_pair(9, 40, 30), cost)[:3]
    _, pricings = _watch_the_pricing(monkeypatch, supplies, demands, costs)
    assert pricings > 10


def test_degenerate_instance_ends_under_dantzigs_rule(monkeypatch):
    """Squared gaps between two aligned 12-atom lattices: the greedy start is
    already the unique optimum (each atom to its left-hand neighbour), so
    every pivot is degenerate, and the strongly feasible basis ends the run
    under Dantzig's rule alone (27 pivots).  Every pivot prices against the
    current basis.  (With each atom sent to its right-hand neighbour
    instead, the start's zero-mass arcs already price optimal and no pivot
    runs.)"""
    xs = np.arange(12.0)
    costs = (xs[:, None] - xs[None, :] + 0.5) ** 2
    masses = np.full(12, 1.0 / 12)
    flows, pricings = _watch_the_pricing(monkeypatch, masses, masses, costs)
    assert pricings > 1
    shipped = {arc for arc, q in flows.items() if q > 0.0}
    assert shipped == {(k, k) for k in range(12)}
    value = math.fsum(costs[arc] * q for arc, q in flows.items())
    assert value == pytest.approx(0.25, rel=1e-12)
    _assert_exact_potentials(masses, masses, costs)


def _watch_strong_feasibility(monkeypatch):
    """Check the basis tree at each ``_hang``, so the start's and every
    pivot's: its root is a row and every node whose parent arc carries zero
    flow is a column, so positive mass can be sent from the root to every
    node.  The start's parent and flow lists are the ones that the pivots
    update.  Returns the counts of trees checked and of zero-flow arcs
    seen."""
    seen = {"trees": 0, "zero arcs": 0}
    tree = []

    def start(supplies, demands, costs,
              _original=transport._least_cost_start):
        parent, up_cell, up_flow = _original(supplies, demands, costs)
        tree[:] = [len(supplies), parent, up_flow]
        return parent, up_cell, up_flow

    def hang(*args, _original=transport._hang):
        m, parent, up_flow = tree
        (root,) = [q for q, p in enumerate(parent) if p == -1]
        zero = [q for q, p in enumerate(parent)
                if p != -1 and up_flow[q] == 0.0]
        assert root < m and all(q >= m for q in zero), (root, zero)
        seen["trees"] += 1
        seen["zero arcs"] += len(zero)
        return _original(*args)

    monkeypatch.setattr(transport, "_least_cost_start", start)
    monkeypatch.setattr(transport, "_hang", hang)
    return seen


def test_every_basis_tree_is_strongly_feasible(monkeypatch, cost,
                                               mollified_pairs):
    """Tied random and exact dyadic instances, with and without 2^-40 dust,
    the tied lattice pairs of the brute-force comparison and the mollified
    pairs of two scenarios."""
    seen = _watch_strong_feasibility(monkeypatch)
    rng = np.random.default_rng(36)
    for trial in range(16):
        m, n = (int(k) for k in rng.integers(10, 40, size=2))
        _network_simplex(*_random_instance(rng, m, n, dust=trial % 2))
        _network_simplex(*_dyadic_instance(rng, m, n, trial % 2))
    for trial in range(200):
        solve_ot(_tied_lattice_pair(rng), cost if trial % 2 else
                 REFERENCE_COST)
    for pair, ground in mollified_pairs:
        if pair.mu.atom_count and pair.nu.atom_count:
            _network_simplex(*_assemble(pair, ground)[:3])
    assert seen["trees"] > 2000 and seen["zero arcs"] > 400, seen


def test_a_residue_meeting_the_emptied_last_column_ships_there(
        monkeypatch):
    """Demands one ulp short leave rows 0 and 1 a residue each once columns
    0 and 1 are full, and row 2 empties column 2, the last open one.  Row
    0's residue ships to column 2, so no row hangs from it by a zero-flow
    arc; row 1 is the root, and column 2 hangs below it at zero flow."""
    supplies = np.array([0.3, 0.2, 0.5])
    demands = np.array([np.nextafter(0.3, 0.0), np.nextafter(0.2, 0.0), 0.5])
    costs = np.array([[0.0, 1.0, 0.5], [1.0, 0.125, 0.625],
                      [1.0, 1.0, 0.25]])
    parent, up_cell, up_flow = _least_cost_start(supplies, demands, costs)
    assert parent == [5, -1, 5, 0, 1, 1]
    assert up_flow[0] == 0.3 - demands[0] > 0.0 and up_flow[5] == 0.0
    seen = _watch_strong_feasibility(monkeypatch)
    cells, flows, _, _, _ = _network_simplex(supplies, demands, costs)
    assert seen["trees"] >= 1
    assert np.all(flows >= 0.0)
    shipped = np.bincount(cells // 3, weights=flows, minlength=3)
    assert np.allclose(shipped, supplies, rtol=0.0, atol=1e-15)


def _move_the_heaviest_arc(cells, flows, u, v, pivots, shape):
    m, n = shape
    cells = cells.copy()
    k = np.argmax(flows)
    cells[k] = (cells[k] + n + 1) % (m * n)  # the next row and column
    return cells, flows, u, v, pivots


def _negate_the_heaviest_flow(cells, flows, u, v, pivots, shape):
    flows = flows.copy()
    flows[np.argmax(flows)] *= -1.0
    return cells, flows, u, v, pivots


def _raise_a_row_potential(cells, flows, u, v, pivots, shape):
    u = u.copy()
    u[0] += 1e-3
    return cells, flows, u, v, pivots


@pytest.mark.parametrize("tamper,message", [
    (_move_the_heaviest_arc, "plan does not match its marginals"),
    (_negate_the_heaviest_flow, "negative mass in the optimal plan"),
    (_raise_a_row_potential, "duality gap"),
])
def test_solve_ot_audits_the_simplex_result(monkeypatch, cost, tamper,
                                            message):
    pair = random_pair(44, 4, 3)
    solve_ot(pair, cost)  # the untouched result passes every audit

    def tampered(supplies, demands, costs,
                 _original=transport._network_simplex):
        return tamper(*_original(supplies, demands, costs), costs.shape)

    monkeypatch.setattr(transport, "_network_simplex", tampered)
    with pytest.raises(TransportError, match=message):
        solve_ot(pair, cost)


def test_plan_marginals_match(cost):
    pair = random_pair(44, 4, 3)
    plan, _ = solve_ot(pair, cost)
    mu, nu = pair.mu, pair.nu
    for i in range(mu.atom_count):
        shipped = math.fsum(q for a, b, q in plan.entries if a == i)
        assert shipped == pytest.approx(mu.weights[i], rel=1e-11)
    for j in range(nu.atom_count):
        received = math.fsum(q for a, b, q in plan.entries if b == j)
        assert received == pytest.approx(nu.weights[j], rel=1e-11)
    total = pair.total_mass()
    shipped = math.fsum(q for _, _, q in plan.entries)
    assert shipped == pytest.approx(total, rel=1e-11)


def test_potential_extension_matches_on_the_source(cost):
    pair = random_pair(45, 5, 4)
    _, potential = solve_ot(pair, cost)
    extended = c_transform_extend(potential, pair.mu.locations)
    np.testing.assert_allclose(extended, potential.mu_values,
                               rtol=1e-9, atol=1e-11)


def test_potential_extension_is_cost_lipschitz(cost):
    pair = random_pair(46, 4, 4)
    _, potential = solve_ot(pair, cost)
    rng = np.random.default_rng(5)
    z = rng.uniform(-2.0, 2.0, size=(40, 2))
    vals = c_transform_extend(potential, z)
    for a in range(0, 40, 5):
        for b in range(a + 1, 40, 7):
            gap = float(np.linalg.norm(z[a] - z[b]))
            assert abs(vals[a] - vals[b]) <= cost.cost(gap) * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distances_equal_cdist_bit_for_bit(dim):
    # scales from 1e-14 to 1e3, rows repeated and rows 1e-13 apart, and
    # empty sides
    rng = np.random.default_rng(dim)
    for trial in range(60):
        scale = 10.0 ** rng.integers(-14, 4)
        xs = rng.standard_normal((rng.integers(0, 30), dim)) * scale
        ys = rng.standard_normal((rng.integers(0, 30), dim)) * scale
        if trial % 3 == 0:
            ys = np.vstack([ys, xs[:4], xs[:4] + 1e-13])
        got = transport._distances(xs, ys)
        assert got.shape == (len(xs), len(ys))
        assert np.array_equal(got, cdist(xs, ys)), trial


def test_potential_extension_rejects_points_of_another_dimension(cost):
    _, potential = solve_ot(random_pair(45, 5, 4), cost)
    with pytest.raises(TransportError, match="dimension"):
        c_transform_extend(potential, np.zeros((3, 3)))


def test_comparison_bound_closed_form(cost):
    value, eps, mass = 0.1, 0.05, 1.0
    # invert 2*log((r+1/4)/(1/4)) = value/eps by hand
    radius = 0.25 * (math.exp((value / eps) / 2.0) - 1.0)
    expected = radius * mass + eps + value / (2.0 * math.log(5.0))
    got = comparison_bound(cost, value, eps, mass)
    assert got == pytest.approx(expected, rel=1e-9)


def test_comparison_bound_guards(cost):
    with pytest.raises(ComparisonBoundError):
        comparison_bound(cost, 0.1, 0.0, 1.0)
    with pytest.raises(ComparisonBoundError):
        comparison_bound(cost, -0.1, 0.1, 1.0)
    # value/epsilon beyond saturation: no crossing radius exists
    with pytest.raises(ComparisonBoundError):
        comparison_bound(cost, cost.c_infinity * 2.0, 1.0, 1.0)


def test_comparison_bound_dominates_reference_distance(cost):
    """The whole point of the bound: benchmark distance <= converted value."""
    for seed, m, n in ((50, 3, 3), (51, 4, 2), (52, 5, 5), (53, 2, 6)):
        pair = random_pair(seed, m, n)
        value = solve_ot(pair, cost)[0].primal_value
        w_ref = reference_W(pair)
        mass = pair.total_mass()
        # the split radius exists only while value/eps stays below saturation
        for scale in (1.05, 2.0, 4.0):
            eps = scale * value / cost.c_infinity
            assert w_ref <= comparison_bound(cost, value, eps, mass) + 1e-12


# -- the D plan's bound on W --------------------------------------------------

# the simplex settles a value to its entering tolerance, so a feasible plan
# may cost a rounding less than the solved optimum
def _at_least(bound, value):
    return bound >= value * (1.0 - 1e-9) - 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       m=st.integers(min_value=1, max_value=6),
       n=st.integers(min_value=1, max_value=6),
       dim=st.integers(min_value=1, max_value=3),
       sharp=st.booleans())
def test_a_concave_plan_bounds_the_reference_distance(cost, sharp_cost, seed,
                                                      m, n, dim, sharp):
    pair = random_pair(seed, m, n, dim)
    plan, _ = solve_ot(pair, sharp_cost if sharp else cost)
    assert _at_least(reference_cost_of(plan), reference_W(pair))


@pytest.mark.parametrize("seed,m,n,dim", [
    (70, 1, 1, 1), (71, 3, 5, 1), (72, 6, 4, 2), (73, 9, 9, 2),
    (74, 12, 7, 3)])
def test_the_reference_plan_costs_its_own_value_bit_for_bit(seed, m, n, dim):
    # row_norms and _distances sum the same squares in the same order
    plan, _ = solve_ot(random_pair(seed, m, n, dim), REFERENCE_COST)
    assert any(DIAMOND in entry[:2] for entry in plan.entries)
    assert reference_cost_of(plan) == plan.primal_value


@pytest.mark.parametrize("m,n,seed", _SIZES)
def test_a_concave_plan_bounds_the_brute_force_distance(cost, m, n, seed):
    pair = random_pair(seed, m, n)
    value, entries = brute_force_ot(pair, REFERENCE_COST)
    assert _at_least(reference_cost_of(solve_ot(pair, cost)[0]), value)
    # the brute-force plan costs its own value under the same evaluator
    brute = TransportPlan(entries=entries, primal_value=value,
                          mu_locations=pair.mu.locations,
                          nu_locations=pair.nu.locations, pivots=0)
    assert reference_cost_of(brute) == pytest.approx(value, rel=1e-12,
                                                     abs=1e-15)


def test_firstterm_estimate_orders(cost):
    field = rotation_field()
    pair = random_pair(60, 4, 4)
    plan, _ = solve_ot(pair, cost)
    const = field.modulus_constant
    lhs, rhs = firstterm_estimate(field, 0.0, plan, cost)
    assert 0.0 <= lhs <= rhs * (1.0 + 1e-9) + 1e-15
    shipped = pair.total_mass()
    assert rhs <= cost.beta * const * shipped * (1.0 + 1e-9)


def test_firstterm_estimate_is_sharp_on_the_unit_shear(cost):
    # b(x) = x in 1-D: every matched velocity gap is exactly omega(d), so the
    # certificate holds with equality
    field = linear_field([[1.0]])
    plan, _ = solve_ot(random_pair(61, 5, 4, dim=1), cost)
    assert any(DIAMOND not in entry[:2] for entry in plan.entries)
    lhs, rhs = firstterm_estimate(field, 0.0, plan, cost)
    assert rhs > 0.0
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_firstterm_estimate_vanishes_on_a_rotation(cost):
    # a rigid rotation moves every gap perpendicular to itself
    field = rotation_field()
    plan, _ = solve_ot(random_pair(62, 5, 5), cost)
    lhs, rhs = firstterm_estimate(field, 0.0, plan, cost)
    assert rhs > 0.0
    assert lhs <= 1e-12 * rhs


def test_brute_force_cap(cost):
    pair = random_pair(80, 8, 3)
    with pytest.raises(TransportError, match="capped"):
        brute_force_ot(pair, cost)


def _tree_flows(arcs, supplies, demands):
    """The flow that a set of m + n - 1 arcs carries, found by peeling
    leaves, or None when the arcs close a cycle and so form no tree.  A
    peeled leaf's one open arc carries the leaf's whole remaining imbalance;
    flows of the wrong sign are returned for the caller to reject."""
    m = len(supplies)
    net = [float(s) for s in supplies] + [-float(d) for d in demands]
    ends = [(i, m + j) for i, j in arcs]
    flows = [0.0] * len(arcs)
    open_arcs = list(range(len(arcs)))
    while open_arcs:
        degree = Counter(node for k in open_arcs for node in ends[k])
        leaf = next(((k, node) for k in open_arcs for node in ends[k]
                     if degree[node] == 1), None)
        if leaf is None:
            return None
        k, node = leaf
        row, col = ends[k]
        q = net[row] if node == row else -net[col]
        net[row] -= q
        net[col] += q
        flows[k] = q
        open_arcs.remove(k)
    return flows


def _tree_enumeration(supplies, demands, table):
    """Optimal value over every spanning-tree basis of the cost table: an
    optimal basic plan exists, and each tree carries exactly one flow."""
    m, n = len(supplies), len(demands)
    best = math.inf
    for arcs in itertools.combinations(
            itertools.product(range(m), range(n)), m + n - 1):
        flows = _tree_flows(arcs, supplies, demands)
        if flows is None or min(flows) < -1e-12:
            continue
        best = min(best, math.fsum(table[i][j] * max(f, 0.0)
                                   for (i, j), f in zip(arcs, flows)))
    assert best < math.inf, "no feasible spanning tree"
    return best


def _dyadic_masses(rng, count, total):
    """``count`` positive multiples of 2^-3 that sum to ``total`` / 8."""
    cuts = np.sort(rng.choice(np.arange(1, total), count - 1, replace=False))
    return (np.diff(np.concatenate([[0], cuts, [total]])) / 8.0).tolist()


def test_ssp_matches_tree_enumeration_on_raw_tables():
    """Successive shortest paths, the whole of the brute-force route, must
    reach the optimum that enumerating every spanning tree finds; it once
    mishandled its potential updates and lost optimality on instances with
    returning flow.  Random tables come first, then tied dyadic ones, half
    of them with a saturated last row in place of the absorbing point."""
    rng = np.random.default_rng(7)
    for _ in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        if m * n > 12:
            continue
        s = rng.uniform(0.1, 1.0, size=m)
        d = rng.uniform(0.1, 1.0, size=n)
        d *= s.sum() / d.sum()
        d[-1] += math.fsum(s) - math.fsum(d)
        table = rng.uniform(0.0, 2.0, size=(m, n)).tolist()
        v_tree = _tree_enumeration(list(s), list(d), table)
        v_ssp, _ = transport._brute_ssp(list(s), list(d), table)
        assert v_ssp == pytest.approx(v_tree, rel=1e-10, abs=1e-12)

    saturated = 0
    for trial in range(240):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 12 // m + 1))
        units = rng.integers(1, 9, size=m)
        total = int(units.sum())
        if total < n:
            continue
        s = (units / 8.0).tolist()
        d = _dyadic_masses(rng, n, total)
        table = (0.5 * rng.integers(0, 3, size=(m, n))).tolist()
        if trial % 2:
            table[-1] = [1.0] * n
            saturated += 1
        v_tree = _tree_enumeration(s, d, table)
        v_ssp, _ = transport._brute_ssp(s, d, table)
        # costs and masses are dyadic, so both sums are exact
        assert v_ssp == v_tree, (s, d, table)
    assert saturated > 90


# -- assembly and the greedy start --------------------------------------------

@pytest.fixture(scope="module")
def mollified_pairs(tmp_path_factory):
    """Every (pair, cost) that the D solves of osgood_line and rotation_ring
    see, on grid and random quantization."""
    captured = []

    def recorded(pair, cost, _original=scenarios.D_functional):
        captured.append((pair, cost))
        return _original(pair, cost)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "D_functional", recorded)
        for name in ("osgood_line", "rotation_ring"):
            for quantization in ("grid", "random"):
                doc = builtin_config(name)
                doc["quantization"] = quantization
                run_scenario(ScenarioConfig.from_dict(doc),
                             str(tmp_path_factory.mktemp(name)))
    return captured


def _assert_full_matrix_bits(pair, cost):
    """Every cell of the assembled ground equals ``cost.cost_many`` of the
    full distance matrix, the absorbing point's line ``c_infinity``, bit
    for bit, and the greedy start builds the same tree on both matrices.
    Returns the distance matrix."""
    m, n = pair.mu.atom_count, pair.nu.atom_count
    dists = cdist(pair.mu.locations, pair.nu.locations)
    supplies, demands, ground = _assemble(pair, cost)[:3]
    full = np.full(ground.shape, cost.c_infinity)
    full[:m, :n] = cost.cost_many(dists)
    np.testing.assert_array_equal(ground, full)
    assert _least_cost_start(supplies, demands, ground) == \
        _least_cost_start(supplies, demands, full)
    return dists


def test_assembled_costs_equal_a_full_matrix_evaluation(mollified_pairs):
    repeated = 0
    for pair, cost in mollified_pairs:
        if not (pair.mu.atom_count and pair.nu.atom_count):
            continue
        dists = _assert_full_matrix_bits(pair, cost)
        repeated += len(np.unique(dists)) < dists.size
    # the lattice repeats distances, so the distinct-value path is exercised
    assert repeated > 0


def _near_square(cells):
    """(m, n) with m * n = cells and m the largest divisor up to its root."""
    m = max(d for d in range(1, math.isqrt(cells) + 1) if cells % d == 0)
    return m, cells // m


def _block_edge_pair(cells, kind):
    """A pair of m x n = ``cells`` atoms.  ``diamond row`` and ``diamond
    column`` put both sides on a lattice of spacing 1/8, nu's half a cell
    off mu's, with the lighter side's reservoir giving ground an absorbing
    row or column; ``far ties`` spreads the lattice to spacing 1/4 with
    equal masses, so most cells lie beyond 1, where min(r, 1) ties; and
    ``distinct`` draws both sides at random, so no distance repeats."""
    m, n = _near_square(cells)
    if kind == "distinct":
        rng = np.random.default_rng(cells)
        xs, ys = rng.uniform(-1.0, 1.0, (m, 2)), rng.uniform(-1.0, 1.0, (n, 2))
    else:
        spacing = 0.25 if kind == "far ties" else 0.125
        xs, ys = (np.column_stack(np.divmod(np.arange(k), 40)) * spacing
                  for k in (m, n))
        ys = ys + 0.5 * spacing
    # integer masses m * n a side, doubled on the heavier side
    mu_w = np.full(m, 2.0 * n if kind == "diamond column" else float(n))
    nu_w = np.full(n, 2.0 * m if kind == "diamond row" else float(m))
    mu = measure_from_arrays(2, xs, mu_w)
    nu = measure_from_arrays(2, ys, nu_w)
    pair = balance_with_reservoir(difference(mu, nu))
    assert (pair.mu.atom_count, pair.nu.atom_count) == (m, n)
    return pair


# cell counts at the edges of the assembly's blocks
ASSEMBLY_BLOCK_EDGES = (costs._BLOCK - 1, costs._BLOCK, costs._BLOCK + 1,
                        3 * costs._BLOCK + 5)


@pytest.mark.parametrize("cells", ASSEMBLY_BLOCK_EDGES)
@pytest.mark.parametrize("kind", ["diamond row", "diamond column",
                                  "far ties", "distinct"])
def test_assembled_costs_keep_their_bits_at_block_edges(sharp_cost, cells,
                                                        kind):
    pair = _block_edge_pair(cells, kind)
    cost = REFERENCE_COST if kind == "far ties" else sharp_cost
    ground = _assemble(pair, cost)[2]
    rows, cols = ground.shape
    assert (rows > pair.mu.atom_count, cols > pair.nu.atom_count) == \
        (kind == "diamond row", kind == "diamond column")
    dists = _assert_full_matrix_bits(pair, cost)
    distinct = len(np.unique(dists))
    if kind == "distinct":
        assert distinct == cells
    else:
        assert distinct < cells / 4
    if kind == "far ties":
        assert np.count_nonzero(dists > 1.0) > cells / 2


@pytest.fixture(scope="module")
def largest_osgood_line_pair(tmp_path_factory):
    """The largest (pair, cost) of the D solves of osgood_line at seed 3
    with random quantization: 385 x 383 atoms."""
    captured = []

    def recorded(pair, cost, _original=scenarios.D_functional):
        captured.append((pair, cost))
        return _original(pair, cost)

    doc = builtin_config("osgood_line")
    doc["seed"], doc["quantization"] = 3, "random"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "D_functional", recorded)
        run_scenario(ScenarioConfig.from_dict(doc),
                     str(tmp_path_factory.mktemp("osgood_line")))
    pair, cost = max(captured, key=lambda pc: pc[0].mu.atom_count
                     * pc[0].nu.atom_count)
    assert (pair.mu.atom_count, pair.nu.atom_count) == (385, 383)
    return pair, cost


def _traced_peak(call):
    """Peak traced bytes while ``call()`` runs."""
    call()  # first-call allocations (numpy's caches) are not the call's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_peak_memory(largest_osgood_line_pair):
    # traced peak of _assemble in arrays of 385 x 383 floats: 3.2 here (the
    # distances and the sort order, then the cost of the 57,983 distinct
    # distances, then ground), 5.54 when a full-matrix sort with its sorted
    # copy, flags, ranks and slots found the distinct distances
    pair, cost = largest_osgood_line_pair
    cells = 8 * pair.mu.atom_count * pair.nu.atom_count
    assert _traced_peak(lambda: _assemble(pair, cost)) <= 3.5 * cells


def test_solve_peak_memory(largest_osgood_line_pair):
    # traced peak of solve_ot in the same arrays: 3.49 here, ground and the
    # greedy start's stable argsort with its blocks; 5.54 when the
    # assembly set it
    pair, cost = largest_osgood_line_pair
    cells = 8 * pair.mu.atom_count * pair.nu.atom_count
    assert _traced_peak(lambda: solve_ot(pair, cost)) <= 4.0 * cells


@pytest.mark.parametrize("modulus", [modulus_linear(), modulus_log(),
                                     modulus_loglog(),
                                     modulus_loglog_squared()],
                         ids=["linear", "log", "loglog", "loglog_squared"])
def test_cost_many_value_does_not_depend_on_its_batch(modulus):
    """Assembly evaluates each distinct distance in one batch, so an entry's
    value must not depend on the batch size or on its position in it (SIMD
    loops may treat an array's tail elements differently)."""
    cost = ConcaveCost(modulus, 1e-3, 0.5)
    radii = np.concatenate([np.geomspace(1e-14, 1e4, 40),
                            0.03125 * np.sqrt(np.arange(1.0, 28.0))])
    size = len(radii)  # 67
    alone = np.array([cost.cost_many(radii[k:k + 1])[0] for k in range(size)])
    for batch in range(1, size + 1):
        for first in range(size):
            picked = (first + np.arange(batch)) % size
            np.testing.assert_array_equal(cost.cost_many(radii[picked]),
                                          alone[picked])


def _full_scan_shipments(supplies, demands, costs):
    """The greedy loop over every sorted cell, shipping wherever both ends
    keep mass: the positive shipments that the start must make, in order,
    and the rows and columns that a shipment exhausted together."""
    n = len(demands)
    rem_s, rem_d = list(supplies), list(demands)
    flows, together = {}, set()
    for index in np.argsort(costs, axis=None, kind="stable"):
        i, j = divmod(int(index), n)
        if rem_s[i] <= 0.0 or rem_d[j] <= 0.0:
            continue
        q = min(rem_s[i], rem_d[j])
        flows[(i, j)] = q
        rem_s[i] -= q
        rem_d[j] -= q
        if rem_s[i] <= 0.0 and rem_d[j] <= 0.0:
            together |= {("row", i), ("col", j)}
    return flows, together


def _assert_tree_start(supplies, demands, costs, exact=False):
    """The greedy start is a spanning tree with the full scan's positive
    shipments.  ``exact`` instances balance to the last bit, so every
    remainder is exact and each zero-mass arc attaches a line that a
    shipment exhausted together with the other end."""
    m, n = len(supplies), len(demands)
    parent, up_cell, up_flow = _least_cost_start(supplies, demands, costs)
    (root,) = [q for q in range(m + n) if parent[q] == -1]
    flows = {divmod(up_cell[q], n): up_flow[q]
             for q in range(m + n) if q != root}
    assert len(flows) == m + n - 1
    for q in range(m + n):
        # every node but the root climbs to the root along start arcs
        for _ in range(m + n):
            if q == root:
                break
            p = parent[q]
            arc = (q, p - m) if q < m else (p, q - m)
            assert arc in flows and divmod(up_cell[q], n) == arc
            q = p
        assert q == root
    shipped, together = _full_scan_shipments(supplies, demands, costs)
    # the start keeps each arc at its lower node, not in shipping order
    assert {(arc, q) for arc, q in flows.items() if q > 0.0} == \
        set(shipped.items())
    if exact:
        zero = [arc for arc, q in flows.items() if q == 0.0]
        assert all(("row", i) in together or ("col", j) in together
                   for i, j in zero)
        # the last shipment exhausts the last row and column together and
        # leaves the root; each other such shipment leaves one zero arc
        assert len(zero) == len(together) // 2 - 1
    return flows, parent


def _random_instance(rng, m, n, dust):
    supplies = rng.uniform(0.1, 1.0, size=m)
    demands = rng.uniform(0.1, 1.0, size=n)
    if dust:
        supplies[rng.integers(m, size=2)] = 2.0 ** -40
        demands[rng.integers(n, size=2)] = 2.0 ** -40
    big = demands > 2.0 ** -40
    demands[big] *= ((math.fsum(supplies) - math.fsum(demands[~big]))
                     / math.fsum(demands[big]))
    # a last-ulp imbalance may leave one side a hair of mass to the end
    demands[np.flatnonzero(big)[-1]] += (math.fsum(supplies)
                                         - math.fsum(demands))
    # few distinct lattice costs, so ties are everywhere
    costs = 0.125 * rng.integers(0, 6, size=(m, n)).astype(float)
    return supplies, demands, costs


@pytest.mark.parametrize("seed", range(8))
def test_greedy_start_ships_what_a_full_scan_ships(seed):
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(3, 40, size=2))
    supplies, demands, costs = _random_instance(rng, m, n, dust=seed % 2)
    if seed % 2:
        assert 2.0 ** -40 in supplies and 2.0 ** -40 in demands
    _assert_tree_start(supplies, demands, costs)
    # a surplus of 0.5 on an absorbing row, then on an absorbing column
    c_infinity = 0.75
    heavier = demands.copy()
    heavier[np.argmax(heavier)] += 0.5
    _assert_tree_start(np.append(supplies, 0.5), heavier,
                       np.vstack([costs, np.full(n, c_infinity)]))
    heavier = supplies.copy()
    heavier[np.argmax(heavier)] += 0.5
    _assert_tree_start(heavier, np.append(demands, 0.5),
                       np.hstack([costs, np.full((m, 1), c_infinity)]))


def _dyadic_instance(rng, m, n, dust):
    """Masses in multiples of 2^-6, with a 2^-40 atom on each side when
    ``dust``, balanced to the last bit so that every remainder of the greedy
    scan is exact; few distinct lattice costs, so ties are everywhere."""
    supplies = rng.integers(1, 64, size=m) / 64.0
    demands = rng.integers(1, 64, size=n) / 64.0
    if dust:
        supplies[-1] = demands[-1] = 2.0 ** -40
    gap = math.fsum(supplies) - math.fsum(demands)
    if gap > 0.0:
        demands[np.argmax(demands)] += gap
    else:
        supplies[np.argmax(supplies)] -= gap
    costs = 0.125 * rng.integers(0, 6, size=(m, n)).astype(float)
    return supplies, demands, costs


@pytest.mark.parametrize("m,n", [(1, 1), (1, 9), (9, 1), (6, 13), (13, 6),
                                 (30, 30)])
def test_greedy_start_hangs_zero_arcs_only_from_exhausted_pairs(m, n):
    """On exact instances the start is a spanning tree whose zero-mass arcs
    each attach a line exhausted together with its counterpart, with and
    without 2^-40 dust and with a surplus of 0.5 on an absorbing row or
    column."""
    rng = np.random.default_rng([m, n])
    zero_arcs = 0
    for trial in range(24):
        supplies, demands, costs = _dyadic_instance(rng, m, n, trial % 2)
        c_infinity = 0.75
        heavier_d, heavier_s = demands.copy(), supplies.copy()
        heavier_d[np.argmax(heavier_d)] += 0.5
        heavier_s[np.argmax(heavier_s)] += 0.5
        for instance in [
                (supplies, demands, costs),
                (np.append(supplies, 0.5), heavier_d,
                 np.vstack([costs, np.full(n, c_infinity)])),
                (heavier_s, np.append(demands, 0.5),
                 np.hstack([costs, np.full((m, 1), c_infinity)]))]:
            flows, _ = _assert_tree_start(*instance, exact=True)
            zero_arcs += sum(q == 0.0 for q in flows.values())
    if min(m, n) > 1:
        assert zero_arcs > 0
