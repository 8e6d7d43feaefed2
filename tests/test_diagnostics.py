"""Cutoffs, mollification, the three-term estimate, and the weak residual."""

import dataclasses
import gc
import json
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.spatial

from charflow import (CharflowError, ConcaveCost, CutoffError, MollifierError,
                      MollifierSpec, ScheduleError, build_cutoff, build_mu_nu,
                      costestimate_bound, D_functional, GrowthEnvelope,
                      growth_affine, growth_constant, make_measure,
                      measure_from_arrays, modulus_linear,
                      modulus_log, modulus_loglog_squared, mollify,
                      parameter_schedule, rotation_field,
                      saturation_integral, weak_solution_residual)
from charflow.costs import _BLOCK, grid_edges
from charflow.diagnostics import (_distinct_rows, trapezoid_rule,
                                  variation_integrals)
from charflow.fileio import atomic_write_text, write_table
from charflow.fields import smooth_step, smooth_step_derivative

EPS = np.finfo(float).eps  # 2.2e-16, one unit in the last place of 1


def saturation_linear(delta):
    """Closed-form J for the linear modulus with the quadratic tail."""
    rd = math.sqrt(delta)
    return (math.log((1.0 + delta) / delta)
            + (math.pi / 2.0 - math.atan(1.0 / rd)) / rd)


def test_trapezoid_is_exact_on_lines():
    assert trapezoid_rule([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 2.0
    assert trapezoid_rule([3.0, 3.0], [0.0, 0.25]) == 0.75


# -- cutoff ------------------------------------------------------------------

def test_cutoff_window_closed_forms():
    # affine growth: int_k^R ds/(1+s) = 1  =>  R = (1+k)e - 1
    cut = build_cutoff(growth_affine(), 1.0)
    assert cut.r_zero == pytest.approx(2.0 * math.e - 1.0, rel=1e-10)
    cut5 = build_cutoff(growth_affine(), 5.0)
    assert cut5.r_zero == pytest.approx(6.0 * math.e - 1.0, rel=1e-10)
    # constant growth: the window has width exactly 1
    flat = build_cutoff(growth_constant(), 2.0)
    assert flat.r_zero == pytest.approx(3.0, rel=1e-12)


def test_cutoff_plateau_support_and_gradient_cap():
    cut = build_cutoff(growth_affine(), 2.0)
    rs = np.linspace(0.0, cut.r_zero + 2.0, 1201)
    vals = cut.value(rs)
    assert np.all(vals[rs <= 2.0] == 1.0)
    assert np.all(vals[rs >= cut.r_zero] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)
    grads = cut.gradient_norm(rs)
    caps = 2.0 / (1.0 + rs)
    assert np.all(grads <= caps * (1.0 + 1e-9))
    assert cut.gradient_norm(1.0) == 0.0
    assert cut.gradient_norm(cut.r_zero + 0.5) == 0.0


def test_cutoff_table_matches_the_window_integral_near_r_zero():
    # affine growth: H(r) = log((1 + r) / (1 + k)) in closed form
    growth = growth_affine()
    cut = build_cutoff(growth, 2.0)
    rs = [3.0 * math.exp(1.0 - u) - 1.0 for u in (0.05, 0.02, 0.01)]
    rs.append(float(np.nextafter(cut.r_zero, 0.0)))
    for r in rs:
        assert cut.k < r < cut.r_zero
        u = 1.0 - math.log((1.0 + r) / 3.0)
        value = cut.value(r)
        grad = cut.gradient_norm(r)
        assert value == cut.value(np.array([r]))[0]
        assert grad == cut.gradient_norm(np.array([r]))[0]
        assert value == pytest.approx(smooth_step(u), rel=1e-9, abs=1e-300)
        assert grad == pytest.approx(smooth_step_derivative(u) / (1.0 + r),
                                     rel=1e-9, abs=1e-300)
        assert 0.0 <= grad <= 2.0 / float(growth(r))
    assert cut.value(rs[0]) > 0.0 and cut.gradient_norm(rs[0]) > 0.0


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  3 * _BLOCK + 5])
def test_cutoff_value_keeps_its_bits_across_block_edges(size):
    # the window's knot table is read a block of radii at a time
    cut = build_cutoff(growth_affine(), 2.0)
    rs = np.linspace(cut.k - 0.5, cut.r_zero + 0.5, size)
    alone = [cut.value(r) for r in rs]
    np.testing.assert_array_equal(cut.value(rs), alone)


def test_cutoff_apply_reweights_and_drops():
    cut = build_cutoff(growth_constant(), 1.0)  # window [1, 2]
    m = make_measure(2, [((0.5, 0.0), 0.4), ((1.5, 0.0), 0.4),
                         ((5.0, 0.0), 0.2)])
    out = cut.apply(m)
    assert out.atom_count == 2  # the far atom is gone
    inner = dict(zip(map(tuple, out.locations), out.weights))
    assert inner[(0.5, 0.0)] == 0.4  # plateau: weight untouched
    assert 0.0 < inner[(1.5, 0.0)] < 0.4


def test_cutoff_rejects_heavy_tails():
    heavy = GrowthEnvelope(lambda r: (1.0 + np.asarray(r, dtype=float))**2)
    with pytest.raises(CutoffError, match=r"tail.* by r = 1e\+13"):
        build_cutoff(heavy, 1.0)
    with pytest.raises(CutoffError):
        build_cutoff(growth_affine(), 0.0)
    # a non-finite level is the caller's error, not a root-finder failure
    for level in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CutoffError, match="positive and finite"):
                build_cutoff(growth_affine(), level)


def _counting_affine():
    """Affine growth 1 + r, and a list that sums the radii it is given."""
    seen = [0]

    def affine(r):
        seen[0] += np.size(r)
        return 1.0 + r
    return GrowthEnvelope(affine), seen


@pytest.mark.parametrize("levels", [range(1, 601), [5e8], [2e9], [1e11],
                                    [1e12]],
                         ids=["1-600", "5e8", "2e9", "1e11", "1e12"])
def test_cutoff_radius_is_the_root_of_its_grid_table(levels):
    # H(r) = log((1 + r) / (1 + k)) or r - k in closed form; the table
    # reaches 1e13, so windows far past 1e9 still close
    for k in map(float, levels):
        affine, seen = _counting_affine()
        for growth, want in ((affine, (1.0 + k) * math.e - 1.0),
                             (growth_constant(), k + 1.0)):
            cut = build_cutoff(growth, k)
            assert abs(cut.r_zero - want) <= 7e-16 * want
            table = cut._h_table
            assert abs(table.value(cut.r_zero) - 1.0) <= EPS
            assert table.knots[0] == k
            assert np.all(np.isin(table.knots[1:], grid_edges()))
            assert table.knots[-2] < cut.r_zero <= table.knots[-1]
        assert seen[0] <= 11_000


# -- mollifier ----------------------------------------------------------------

def test_mollifier_spec_guards():
    spec = MollifierSpec(alpha=0.25, dimension=2)
    assert spec.spacing == 0.0625
    with pytest.raises(MollifierError):
        MollifierSpec(alpha=1.0, dimension=2)
    with pytest.raises(MollifierError):
        MollifierSpec(alpha=0.0, dimension=2)
    with pytest.raises(MollifierError):
        MollifierSpec(alpha=0.25, dimension=0)
    # the lattice is alpha / 4 wide, not a setting
    assert [f.name for f in dataclasses.fields(MollifierSpec)] == \
        ["alpha", "dimension"]
    with pytest.raises(TypeError):
        MollifierSpec(alpha=0.25, dimension=1, cells_per_alpha=2)


def test_kernel_support_is_the_alpha_ball():
    spec = MollifierSpec(alpha=0.25, dimension=2)
    inside = spec.kernel(np.array([[0.0, 0.0], [0.1, 0.1]]))
    outside = spec.kernel(np.array([[0.25, 0.0], [0.3, 0.1]]))
    assert np.all(inside > 0.0)
    np.testing.assert_array_equal(outside, 0.0)


def test_mollify_conserves_mass_and_stays_local():
    rng = np.random.default_rng(11)
    m = measure_from_arrays(2, rng.uniform(-1, 1, size=(7, 2)),
                            rng.uniform(0.05, 0.3, size=7))
    spec = MollifierSpec(alpha=0.2, dimension=2)
    out = mollify(m, spec)
    assert out.atom_count > m.atom_count
    assert out.total_mass() == pytest.approx(m.total_mass(), abs=1e-13)
    assert np.all(out.weights > 0.0)
    # every smoothed atom sits within alpha + one cell of a source atom
    from scipy.spatial.distance import cdist
    nearest = cdist(out.locations, m.locations).min(axis=1)
    assert np.max(nearest) <= spec.alpha + spec.spacing


def test_mollify_guards():
    spec = MollifierSpec(alpha=0.2, dimension=2)
    with pytest.raises(MollifierError):
        mollify(make_measure(1, [((0.0,), 1.0)]), spec)
    empty = make_measure(2, [])
    assert mollify(empty, spec) is empty


def _mollify_reference(measure, spec):
    """Per-atom loop with dict accumulation: the array pass must match it
    cell for cell and bit for bit."""
    h = spec.spacing
    n = spec.dimension
    reach = int(math.ceil(spec.alpha / h)) + 1
    offsets = np.stack(np.meshgrid(
        *([np.arange(-reach, reach + 1)] * n), indexing="ij"),
        axis=-1).reshape(-1, n)
    cells = {}
    for loc, w in zip(measure.locations, measure.weights):
        idx = np.floor(loc / h - 0.5).astype(int)[None, :] + offsets
        weights = spec.kernel((idx + 0.5) * h - loc[None, :])
        share = w * (weights / weights.sum())
        for cell, q in zip(map(tuple, idx), share):
            if q != 0.0:
                cells[cell] = cells.get(cell, 0.0) + q
    items = [(cell, q) for cell, q in sorted(cells.items()) if q != 0.0]
    locations = np.array([(np.array(cell) + 0.5) * h for cell, _ in items],
                         dtype=float).reshape(-1, n)
    return locations, np.array([q for _, q in items], dtype=float)


@pytest.mark.parametrize("dimension,count,alpha", [
    (1, 40, 0.1), (1, 9, 0.3), (2, 12, 0.2), (2, 30, 0.45)])
def test_mollify_matches_the_per_atom_loop(dimension, count, alpha):
    rng = np.random.default_rng(count)
    # atoms a fraction of alpha apart, so kernels overlap; mixed signs
    locations = rng.uniform(-0.6, 0.6, size=(count, dimension))
    weights = rng.uniform(0.05, 0.3, size=count) \
        * rng.choice([-1.0, 1.0], size=count)
    m = measure_from_arrays(dimension, locations, weights, merge=False)
    spec = MollifierSpec(alpha=alpha, dimension=dimension)
    out = mollify(m, spec)
    want_locations, want_weights = _mollify_reference(m, spec)
    assert out.locations.tobytes() == want_locations.tobytes()
    assert out.weights.tobytes() == want_weights.tobytes()


def test_mollify_cancels_opposite_atoms_to_the_empty_measure():
    m = measure_from_arrays(2, [[0.3, -0.1], [0.3, -0.1]], [0.25, -0.25],
                            merge=False)
    out = mollify(m, MollifierSpec(alpha=0.2, dimension=2))
    assert out.atom_count == 0
    assert out.locations.shape == (0, 2)


def test_mollify_refuses_a_lattice_too_fine_for_its_atoms():
    m = make_measure(1, [((0.5,), 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MollifierError, match="too fine for atoms as far "
                                                 "out as 0.5"):
            mollify(m, MollifierSpec(1e-60, 1))


@pytest.mark.parametrize("rows", [
    np.array([[3], [-2], [3], [0], [-2], [-7]]),
    np.array([[1, -1], [0, 5], [1, -2], [0, 5], [-4, 9], [1, -1]]),
    np.array([[-3, 4]]),
    np.array([[6, -6]] * 5),
    np.array([[-2]] * 4),
    np.random.default_rng(4).integers(-3, 3, size=(400, 2)),
    np.random.default_rng(5).integers(-2**40, 2**40, size=(50, 1)),
], ids=["1d", "2d", "single", "all-equal-2d", "all-equal-1d",
        "random-2d", "far-1d"])
def test_distinct_rows_match_the_row_wise_unique(rows):
    # mollify sums its shares into these slots with bincount, and the
    # ground-cost assembly scatters each distinct distance's cost back
    # through them, so equal rows and slots keep every bit of the old
    # row-wise unique's results
    cells, slot = _distinct_rows(rows.astype(np.int64))
    want_cells, want_slot = np.unique(rows.astype(np.int64), axis=0,
                                      return_inverse=True)
    assert cells.dtype == np.int64 and slot.dtype == np.intp
    np.testing.assert_array_equal(cells, want_cells)
    np.testing.assert_array_equal(slot, want_slot.ravel())


def test_distinct_rows_peak_memory():
    # traced peak on the 147,840-cell distance column of two lattice clouds,
    # in columns: 3.1 here (4.1 with every distance distinct), 5.1 when the
    # sorted copy lived on beside the ranks and cumsum(first) - 1 was a
    # second array
    rng = np.random.default_rng(3)
    xs, ys = (rng.integers(0, 40, (k, 2)) * 0.05 for k in (385, 384))
    col = scipy.spatial.distance.cdist(xs, ys).reshape(-1, 1)
    _distinct_rows(col)
    tracemalloc.start()
    try:
        _distinct_rows(col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * col.nbytes


def test_build_mu_nu_balances_split_parts():
    diff = measure_from_arrays(2, [[0.1, 0.0], [0.4, 0.2]], [0.6, -0.6],
                               merge=False)
    cut = build_cutoff(growth_affine(), 4.0)  # both atoms deep inside
    pair = build_mu_nu(diff, cut, MollifierSpec(alpha=0.1, dimension=2))
    assert pair.total_mass() == math.fsum([*pair.nu.weights,
                                           pair.nu_reservoir])
    assert pair.total_mass() == pytest.approx(0.6, rel=1e-9)
    assert np.all(pair.mu.weights > 0.0) and np.all(pair.nu.weights > 0.0)


def test_d_functional_two_atoms():
    from charflow import balance_with_reservoir
    cost = ConcaveCost(modulus_linear(), 0.25, 2.0)
    mu = make_measure(1, [((0.0,), 0.5)])
    nu = make_measure(1, [((0.3,), 0.5)])
    pair = balance_with_reservoir(measure_from_arrays(
        1, np.vstack([mu.locations, nu.locations]),
        np.concatenate([mu.weights, -nu.weights])))
    plan = D_functional(pair, cost)
    assert plan.primal_value == pytest.approx(0.5 * cost.cost(0.3),
                                              rel=1e-11)


# -- the three-term estimate ---------------------------------------------------

def test_costestimate_closed_form():
    field = rotation_field()  # C = 1, C_G = 1, affine growth
    cut = build_cutoff(growth_affine(), 2.0)
    cost = ConcaveCost(modulus_linear(), 0.25, 2.0)
    m = make_measure(2, [((0.1, 0.0), 0.3)])
    j = saturation_linear(0.25)
    int_total, int_tail = variation_integrals([(0.0, m), (1.0, m)],
                                              cut.k - 1.0)
    est = costestimate_bound(field, int_total[-1], int_tail[-1], cut, cost,
                             alpha=0.125)
    assert est.term1 == pytest.approx(2.0 * 1.0 * 0.3, rel=1e-9)
    assert est.term2 == 0.0  # the atom sits inside radius k - 1
    rate = 2.0 / 0.25 + 2.0 * j / 3.0  # beta/delta + beta*J/G(2)
    assert est.term3 == pytest.approx(0.125 * rate * 0.3, rel=1e-9)
    assert est.bound == est.term1 + est.term2 + est.term3


def test_costestimate_sees_tail_mass():
    field = rotation_field()
    cut = build_cutoff(growth_affine(), 2.0)
    cost = ConcaveCost(modulus_linear(), 0.25, 2.0)
    far = make_measure(2, [((1.5, 0.0), 0.2)])  # beyond k - 1 = 1
    j = saturation_linear(0.25)
    int_total, int_tail = variation_integrals([(0.0, far), (1.0, far)],
                                              cut.k - 1.0)
    est = costestimate_bound(field, int_total[-1], int_tail[-1], cut, cost,
                             alpha=0.125)
    assert est.term2 == pytest.approx(2.0 * 2.0 * 1.0 * j * 0.2, rel=1e-9)


def test_variation_integrals_are_the_ones_the_bound_uses():
    field = rotation_field()
    cut = build_cutoff(growth_affine(), 2.0)
    cost = ConcaveCost(modulus_linear(), 0.25, 2.0)
    far = make_measure(2, [((1.5, 0.0), 0.2)])  # beyond k - 1 = 1
    # the bound reads J off the cost and C off the field
    j, const = cost.j_value, field.modulus_constant
    assert j == pytest.approx(saturation_linear(0.25), rel=1e-14)
    snapshots = [(0.0, far), (0.5, far), (1.0, far)]
    int_total, int_tail = variation_integrals(snapshots, cut.k - 1.0)
    est = costestimate_bound(field, int_total, int_tail, cut, cost,
                             alpha=0.125)
    # the bound's own products, in its order: exact equality
    np.testing.assert_array_equal(est.term1, cost.beta * const * int_total)
    np.testing.assert_array_equal(
        est.term2, 2.0 * cost.beta * field.growth_const * j * int_tail)
    assert int_total[-1] == pytest.approx(0.2, rel=1e-15, abs=0.0)
    assert int_tail[-1] == pytest.approx(0.2, rel=1e-15, abs=0.0)
    # one row per report time, each the bound of that time's integrals
    for i in range(len(snapshots)):
        row = costestimate_bound(field, int_total[i], int_tail[i], cut, cost,
                                 alpha=0.125)
        assert (est.term1[i], est.term2[i], est.term3[i], est.bound[i]) == \
            (row.term1, row.term2, row.term3, row.bound)
    assert est.bound[0] == 0.0


def test_variation_integrals_count_the_far_atoms():
    inside = ((0.5, 0.0), 0.25)
    outside = ((0.0, -3.0), -0.125)
    first = make_measure(2, [inside, outside])
    second = make_measure(2, [inside])
    empty = measure_from_arrays(2, np.zeros((0, 2)), np.zeros(0))
    snapshots = [(0.0, first), (0.5, second), (1.5, empty)]
    int_total, int_tail = variation_integrals(snapshots, 1.0)
    assert int_total[-1] == trapezoid_rule([0.375, 0.25, 0.0],
                                           [0.0, 0.5, 1.5])
    assert int_tail[-1] == trapezoid_rule([0.125, 0.0, 0.0],
                                          [0.0, 0.5, 1.5])
    with pytest.raises(ScheduleError):
        variation_integrals(snapshots[:1], 1.0)
    with pytest.raises(ScheduleError):
        variation_integrals(snapshots[::-1], 1.0)


def test_costestimate_needs_a_time_grid():
    # the bound reads its integrals from variation_integrals, which guards
    # the time grid
    cut = build_cutoff(growth_affine(), 2.0)
    m = make_measure(2, [((0.1, 0.0), 0.3)])
    with pytest.raises(ScheduleError):
        variation_integrals([(0.0, m)], cut.k - 1.0)
    with pytest.raises(ScheduleError):
        variation_integrals([(1.0, m), (0.0, m)], cut.k - 1.0)


def test_variation_integrals_hold_every_prefix_exactly():
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.uniform(0.05, 0.3, size=12))
    snapshots = [(float(t), measure_from_arrays(
        2, rng.uniform(-2.0, 2.0, size=(5, 2)), rng.normal(size=5)))
        for t in times]
    int_total, int_tail = variation_integrals(snapshots, 1.0)
    assert len(int_total) == len(int_tail) == len(snapshots)
    assert int_total[0] == 0.0 and int_tail[0] == 0.0
    for i in range(1, len(snapshots)):
        total, tail = variation_integrals(snapshots[:i + 1], 1.0)
        assert int_total[i] == total[-1]
        assert int_tail[i] == tail[-1]
        tv = [m.total_variation() for _, m in snapshots[:i + 1]]
        assert int_total[i] == trapezoid_rule(tv, times[:i + 1])


# -- the parameter schedule ----------------------------------------------------

def test_schedule_formulas_for_the_linear_modulus():
    sched = parameter_schedule(k=2.0, variation_integral=1.75,
                               variation_floor=0.5, modulus_constant=1.0,
                               growth_constant=1.0, modulus=modulus_linear(),
                               growth_at_k=3.0)
    assert sched.beta == 1.0 / 2.75
    assert sched.j_target == 2.75 / (2.0 * 2.0 * 0.5)
    assert saturation_linear(sched.delta) == pytest.approx(sched.j_target,
                                                           rel=1e-8)
    assert sched.j_value == saturation_integral(modulus_linear(),
                                                sched.delta)
    # alpha is the largest dyadic meeting the third-term cap
    j = saturation_linear(sched.delta)
    rate = (sched.beta / sched.delta + sched.beta * j / 3.0) * 2.75
    assert sched.alpha * rate <= 1.0  # omega(alpha) = alpha here
    assert math.log2(sched.alpha) == int(math.log2(sched.alpha))
    if sched.alpha < 1.0:
        assert 2.0 * sched.alpha * rate > 1.0


@pytest.mark.parametrize("seed", range(6))
def test_schedule_caps_every_term(seed):
    rng = np.random.default_rng(seed)
    k = float(rng.integers(1, 6))
    ivar = float(rng.uniform(0.1, 4.0))
    floor = float(rng.uniform(1.0 / (k + 1.0), max(ivar, 1.0 / k)))
    const = float(rng.uniform(0.5, 4.0))
    growth_const = float(rng.uniform(0.5, 3.0))
    sched = parameter_schedule(k, ivar, floor, const, growth_const,
                               modulus_log(), growth_at_k=1.0 + k)
    from charflow import saturation_integral
    j = saturation_integral(modulus_log(), sched.delta)
    term1_cap = sched.beta * const * ivar
    term2_cap = 2.0 * sched.beta * growth_const * j * floor
    term3_cap = (const * float(modulus_log()(sched.alpha))
                 * (sched.beta / sched.delta
                    + sched.beta * j / (1.0 + k)) * ivar)
    assert term1_cap < 1.0
    assert term2_cap <= 1.0 + 1e-9
    assert term3_cap <= 1.0 + 1e-9


def test_schedule_and_cutoff_free_their_inputs_without_the_collector():
    """A reference cycle through the root finder, the schedule's cached
    J or the cutoff table would keep the modulus, the modulus's node table
    or the growth envelope alive until the cyclic collector runs.  The
    same holds for the cost that ``cost_inverse`` hands to brentq."""
    modulus, growth = modulus_log(), growth_affine()
    cost = ConcaveCost(modulus_linear(), 0.25, 2.0)
    refs = weakref.ref(modulus), weakref.ref(growth), weakref.ref(cost)
    gc.disable()
    try:
        parameter_schedule(k=2.0, variation_integral=1.0,
                           variation_floor=0.5, modulus_constant=1.0,
                           growth_constant=1.0, modulus=modulus,
                           growth_at_k=1.0)
        build_cutoff(growth, 2.0)
        assert cost.cost_inverse(0.5 * cost.c_infinity) > 0.0
        del modulus, growth, cost
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_schedule_fails_honestly_outside_the_osgood_class():
    # J is bounded for this modulus, so a large target is unreachable
    with pytest.raises(ScheduleError, match="converges"):
        parameter_schedule(k=50.0, variation_integral=1.0,
                           variation_floor=0.02, modulus_constant=1.0,
                           growth_constant=1.0,
                           modulus=modulus_loglog_squared(), growth_at_k=1.0)


def test_schedule_names_an_osgood_integral_too_slow_for_the_target():
    # J of the linear modulus diverges like log(1/delta) but is 645.7 at
    # the floor 1e-280, far below this target of 5e8
    with pytest.raises(ScheduleError,
                       match=r"J\(1e-280\) = 645\.7 stays below the target "
                             r"5e\+08;.* integral diverges too slowly$"):
        parameter_schedule(1e9, 1.0, 1e-9, 1.0, 1.0, modulus_linear(), 1.0)


def test_schedule_argument_guards():
    with pytest.raises(ScheduleError):
        parameter_schedule(1.0, -0.5, 0.5, 1.0, 1.0, modulus_linear(), 1.0)
    with pytest.raises(ScheduleError):
        parameter_schedule(1.0, 0.5, 0.0, 1.0, 1.0, modulus_linear(), 1.0)


def test_mass_balance_is_exact():
    m = measure_from_arrays(1, [[0.0], [1.0], [2.0]], [0.5, -0.25, -0.25],
                            merge=False)
    assert m.total_mass() == 0.0


# -- weak residual --------------------------------------------------------------

def _rotation_snapshots(n_times, seed=3):
    rng = np.random.default_rng(seed)
    pts0 = rng.uniform(-0.5, 0.5, size=(6, 2))
    w = rng.uniform(0.1, 0.3, size=6)
    out = []
    for t in np.linspace(0.0, 1.0, n_times):
        c, s = math.cos(t), math.sin(t)
        rot = np.array([[c, -s], [s, c]])
        out.append((float(t), measure_from_arrays(2, pts0 @ rot.T, w)))
    return out


def test_weak_residual_vanishes_with_the_grid():
    field = rotation_field()
    coarse = weak_solution_residual(field, _rotation_snapshots(21))
    fine = weak_solution_residual(field, _rotation_snapshots(41))
    assert coarse < 5e-3
    assert coarse / fine > 3.9  # trapezoid: halving the step quarters it


def test_weak_residual_flags_a_wrong_evolution():
    field = rotation_field()
    rng = np.random.default_rng(3)
    pts0 = rng.uniform(-0.5, 0.5, size=(6, 2))
    w = rng.uniform(0.1, 0.3, size=6)
    frozen = [(float(t), measure_from_arrays(2, pts0, w))
              for t in np.linspace(0.0, 1.0, 21)]
    assert weak_solution_residual(field, frozen) > 0.05


def test_weak_residual_needs_two_snapshots():
    with pytest.raises(ScheduleError):
        weak_solution_residual(rotation_field(), _rotation_snapshots(21)[:1])


# -- report ---------------------------------------------------------------------

def test_report_roundtrip_and_width_guard(tmp_path):
    from charflow.scenarios import REPORT_COLUMNS
    rows = [(0.0, 0.1, 0.01, 0.0, 0.02, 0.03, 0.5, 0.0),
            (0.5, 0.2, 0.015, 0.001, 0.025, 0.0415, 0.6, 0.0)]
    for fmt in ("csv", "json"):
        path = tmp_path / f"report.{fmt}"
        write_table(path, REPORT_COLUMNS, rows, fmt)
        text = path.read_text()
        if fmt == "csv":
            lines = text.splitlines()
            assert lines[0] == "t,D,term1,term2,term3,bound,W_refine,mass"
            parsed = [tuple(float(c) for c in line.split(","))
                      for line in lines[1:]]
        else:
            doc = json.loads(text)
            assert ",".join(doc["columns"]) == \
                "t,D,term1,term2,term3,bound,W_refine,mass"
            parsed = [tuple(row) for row in doc["rows"]]
        assert parsed == [tuple(map(float, r)) for r in rows]
        write_table(path, REPORT_COLUMNS, rows, fmt)
        assert path.read_text() == text  # deterministic rewrite
        with pytest.raises(CharflowError, match="width: 2 columns, not 8"):
            write_table(tmp_path / f"bad.{fmt}", REPORT_COLUMNS,
                        rows + [(0.0, 1.0)], fmt)
        assert not (tmp_path / f"bad.{fmt}").exists()


def test_a_non_finite_cell_is_null_in_a_json_table(tmp_path):
    # a refinement study leaves rung 0's ratio and the last rung's distance
    # NaN, and the ratio over a zero distance is infinite; JSON has no token
    # for either, so a strict reader once refused the table
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    rows = [(0.0, 24.0, 0.125, math.nan), (1.0, 48.0, math.nan, math.nan),
            (2.0, 1e308, math.inf, -math.inf)]
    write_table(tmp_path / "table.json", ("a", "b", "c", "d"), rows, "json")
    doc = json.loads((tmp_path / "table.json").read_text(),
                     parse_constant=refuse)
    assert doc["rows"] == [[0.0, 24.0, 0.125, None], [1.0, 48.0, None, None],
                           [2.0, 1e308, None, None]]
    write_table(tmp_path / "table.csv", ("a", "b", "c", "d"), rows, "csv")
    assert (tmp_path / "table.csv").read_text().splitlines()[1:] == \
        ["0.0,24.0,0.125,nan", "1.0,48.0,nan,nan", "2.0,1e+308,inf,-inf"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_written_files_honour_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "report.csv", "t\n")
    finally:
        os.umask(old)
    assert (tmp_path / "report.csv").stat().st_mode & 0o777 == mode
    assert os.listdir(tmp_path) == ["report.csv"]
