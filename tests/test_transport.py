"""Optimal transport: two independent solvers must agree, duals must certify."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from charflow import (ComparisonBoundError, ConcaveCost, TransportError,
                      balance_with_reservoir, brute_force_ot,
                      c_transform_extend, comparison_bound, firstterm_estimate,
                      CostRangeError, make_measure, measure_from_arrays,
                      modulus_linear,
                      reference_W, rotation_field, solve_ot,
                      transport_to_json, weak_lsc_check)
from charflow.transport import DIAMOND, REFERENCE_COST, _check_slackness


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
    return balance_with_reservoir(mu, nu)


def test_single_arc_closed_form(cost):
    mu = make_measure(1, [((0.0,), 0.75)])
    nu = make_measure(1, [((0.4,), 0.75)])
    plan, potential = solve_ot(balance_with_reservoir(mu, nu), cost)
    assert plan.primal_value == pytest.approx(0.75 * cost.cost(0.4),
                                              rel=1e-12)
    assert plan.entries == ((0, 0, 0.75),)
    assert potential.dual_value(mu, nu) == pytest.approx(plan.primal_value,
                                                         rel=1e-9)


def test_reservoir_routes_excess_to_the_absorbing_point(cost):
    mu = make_measure(1, [((0.0,), 0.3)])
    nu = make_measure(1, [((0.2,), 0.2)])
    pair = balance_with_reservoir(mu, nu)
    plan, _ = solve_ot(pair, cost)
    expected = 0.2 * cost.cost(0.2) + 0.1 * cost.c_infinity
    assert plan.primal_value == pytest.approx(expected, rel=1e-10)
    absorbed = [q for i, j, q in plan.entries if j == DIAMOND]
    assert math.fsum(absorbed) == pytest.approx(0.1, abs=1e-15)


def test_identical_clouds_cost_nothing(cost):
    m = make_measure(2, [((0.0, 0.0), 0.5), ((1.0, 0.5), 0.5)])
    pair = balance_with_reservoir(m, m)
    plan, _ = solve_ot(pair, cost)
    assert plan.primal_value == 0.0
    assert reference_W(pair) == 0.0


_SIZES = [(1, 1, 11), (2, 1, 12), (2, 2, 13), (3, 2, 14), (2, 3, 15),
          (3, 3, 16), (3, 4, 17), (4, 4, 18), (5, 3, 19), (7, 7, 20),
          (6, 2, 21), (1, 7, 22)]


@pytest.mark.parametrize("m,n,seed", _SIZES)
def test_simplex_agrees_with_brute_force(cost, m, n, seed):
    """Two unrelated optimizers (simplex vs tree enumeration / successive
    shortest paths) must produce the same optimal value."""
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
    plan, potential = solve_ot(balance_with_reservoir(mu, nu), cost)
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
    plan, potential = solve_ot(balance_with_reservoir(mu, nu), cost)
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
    plan, potential = solve_ot(balance_with_reservoir(mu, nu), cost)
    assert min(q for _, _, q in plan.entries) == dust
    _check_slackness(plan, potential, cost)
    assert (1, 1, dust) in plan.entries
    with pytest.raises(TransportError, match=r"entry \(1, 1\)"):
        _check_slackness(plan, _nudged(potential, "mu_values", 1), cost)


def test_tied_costs_exercise_the_anticycling_path(cost):
    # aligned lattices with uniform weights create many equal-cost arcs and
    # fully degenerate pivots
    xs = np.arange(5.0)[:, None]
    mu = measure_from_arrays(1, xs, np.full(5, 0.2))
    nu = measure_from_arrays(1, xs + 0.5, np.full(5, 0.2))
    pair = balance_with_reservoir(mu, nu)
    plan, _ = solve_ot(pair, cost)
    value, _ = brute_force_ot(pair, cost)
    assert plan.primal_value == pytest.approx(value, rel=1e-10)
    # matching each atom to its right neighbor is optimal here
    assert plan.primal_value == pytest.approx(cost.cost(0.5), rel=1e-10)


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
    total = mu.total_mass()
    assert plan.mass_shipped() == pytest.approx(total, rel=1e-11)


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
        mass = pair.mu.total_mass()
        # the split radius exists only while value/eps stays below saturation
        for scale in (1.05, 2.0, 4.0):
            eps = scale * value / cost.c_infinity
            assert w_ref <= comparison_bound(cost, value, eps, mass) + 1e-12


def test_firstterm_estimate_orders(cost):
    field = rotation_field()
    pair = random_pair(60, 4, 4)
    lhs, rhs = firstterm_estimate(field, 0.0, pair, cost)
    assert 0.0 <= lhs <= rhs * (1.0 + 1e-9) + 1e-15
    shipped = pair.mu.total_mass()
    const = field.modulus_constant_for(3.0)
    assert rhs <= cost.beta * const * shipped * (1.0 + 1e-9)


def test_firstterm_requires_mutual_singularity(cost):
    m = make_measure(2, [((0.0, 0.0), 0.5), ((1.0, 0.0), 0.5)])
    pair_args = balance_with_reservoir(m, m)
    # balance cancels the overlap, leaving empty marginals: fine.  Overlap
    # that survives (same location, partial mass) must be rejected instead.
    from charflow.measures import BalancedPair
    mu = make_measure(2, [((0.0, 0.0), 0.5), ((1.0, 0.0), 0.5)])
    nu = make_measure(2, [((0.0, 0.0), 0.2), ((2.0, 0.0), 0.8)])
    lhs, rhs = firstterm_estimate(rotation_field(), 0.0,
                                  balance_with_reservoir(mu, nu), cost)
    assert lhs <= rhs + 1e-15
    del pair_args, BalancedPair


def test_weak_lsc_along_a_converging_sequence(cost):
    def pair_at(d):
        mu = make_measure(1, [((0.0,), 1.0)])
        nu = make_measure(1, [((d,), 1.0)])
        return balance_with_reservoir(mu, nu)

    seq = [pair_at(0.5 + 1.0 / k) for k in range(2, 8)]
    ok, values, limit_value = weak_lsc_check(seq, pair_at(0.5), cost)
    assert ok
    assert limit_value == pytest.approx(cost.cost(0.5), rel=1e-10)
    assert values == sorted(values, reverse=True)  # monotone in the distance
    with pytest.raises(TransportError):
        weak_lsc_check([pair_at(1.0)], pair_at(0.5), cost)


def test_transport_json_is_serializable(cost):
    pair = random_pair(70, 3, 2)
    plan, potential = solve_ot(pair, cost)
    blob = transport_to_json(plan, potential, pair)
    text = json.dumps(blob, sort_keys=True)
    back = json.loads(text)
    assert back["primal"] == pytest.approx(back["dual"], rel=1e-9)
    assert len(back["potentials"]) == (pair.mu.atom_count
                                       + pair.nu.atom_count + 1)
    assert back["potentials"][-1] == 0.0


def test_brute_force_cap(cost):
    pair = random_pair(80, 8, 3)
    with pytest.raises(TransportError, match="capped"):
        brute_force_ot(pair, cost)


def test_ssp_matches_tree_enumeration_on_raw_tables():
    """The two brute-force branches must agree wherever both can run; the
    shortest-path branch once mishandled its potential updates and lost
    optimality on instances with returning flow."""
    from charflow.transport import _brute_ssp, _brute_tree_enumeration

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
        v_tree, _ = _brute_tree_enumeration(list(s), list(d), table)
        v_ssp, _ = _brute_ssp(list(s), list(d), table)
        assert v_ssp == pytest.approx(v_tree, rel=1e-10, abs=1e-12)
