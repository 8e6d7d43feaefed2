"""Atomic signed measures: exactness of mass bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import (AtomicSignedMeasure, MeasureError, balance_with_reservoir,
                      cancel_colocated_pair, empty_measure, jordan_decompose,
                      make_measure, measure_from_arrays, total_variation)


def test_totals_on_a_small_cloud():
    m = make_measure(2, [((0.0, 0.0), 0.5), ((1.0, 0.0), -0.25),
                         ((0.0, 1.0), 0.125)], reservoir_weight=-0.0625)
    assert m.atom_count == 3
    assert m.atom_mass() == 0.375
    assert m.total_mass() == 0.3125
    assert m.total_variation() == 0.9375
    assert total_variation(m) == m.total_variation()


def test_zero_weights_are_rejected():
    with pytest.raises(MeasureError):
        AtomicSignedMeasure(1, np.array([[0.0]]), np.array([0.0]))


def test_shape_mismatch_is_rejected():
    with pytest.raises(MeasureError):
        measure_from_arrays(2, np.zeros((3, 2)), np.ones(2))


def test_nonfinite_location_rejected():
    with pytest.raises(MeasureError):
        make_measure(1, [((math.inf,), 1.0)])


def test_merge_sums_exact_duplicates():
    m = measure_from_arrays(1, [[0.5], [0.5], [1.0]], [0.25, -0.25, 0.5])
    # the exact +/- pair at 0.5 cancels to nothing
    assert m.atom_count == 1
    assert m.locations[0, 0] == 1.0
    assert m.weights[0] == 0.5


def test_merge_false_preserves_the_multiset():
    m = measure_from_arrays(1, [[0.5], [0.5]], [0.25, -0.25], merge=False)
    assert m.atom_count == 2
    assert m.total_mass() == 0.0


def test_empty_measure_is_well_formed():
    m = empty_measure(3)
    assert m.atom_count == 0
    assert m.total_mass() == 0.0
    assert m.total_variation() == 0.0


def test_jordan_split_reproduces_the_input():
    m = make_measure(1, [((0.0,), 0.75), ((1.0,), -0.5), ((2.0,), 0.25)],
                     reservoir_weight=-0.125)
    pos, neg = jordan_decompose(m)
    assert pos.is_nonnegative() and neg.is_nonnegative()
    assert pos.atom_mass() == 1.0
    assert neg.atom_mass() == 0.5
    assert pos.reservoir_weight == 0.0
    assert neg.reservoir_weight == 0.125
    # mutual singularity: no shared locations
    shared = set(map(tuple, pos.locations)) & set(map(tuple, neg.locations))
    assert not shared


def test_cancel_colocated_removes_shared_mass():
    mu = make_measure(1, [((0.0,), 0.5), ((1.0,), 0.25)])
    nu = make_measure(1, [((0.0,), 0.2), ((2.0,), 0.3)])
    mu2, nu2 = cancel_colocated_pair(mu, nu)
    assert mu2.atom_mass() == 0.55
    assert nu2.atom_mass() == 0.3
    assert all(tuple(loc) != (0.0,) for loc in nu2.locations)


def test_balance_attaches_reservoir_to_the_light_side():
    mu = make_measure(1, [((0.0,), 0.4), ((0.7,), 0.35), ((1.4,), 0.25)])
    nu = make_measure(1, [((0.2,), 0.3), ((1.0,), 0.45)])
    pair = balance_with_reservoir(mu, nu)
    assert pair.mu.reservoir_weight == 0.0
    assert pair.nu.reservoir_weight == pytest.approx(0.25)
    assert pair.mu.total_mass() == pair.nu.total_mass()


def test_balance_rejects_signed_input():
    mu = make_measure(1, [((0.0,), -0.5)])
    nu = make_measure(1, [((1.0,), 0.5)])
    with pytest.raises(MeasureError):
        balance_with_reservoir(jordan_decompose(mu)[1], mu)


finite_weights = st.lists(
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False), min_size=1,
    max_size=24)


@settings(max_examples=200, deadline=None)
@given(left=finite_weights, right=finite_weights)
def test_balance_totals_agree_bitwise(left, right):
    """The reservoir polish must reach exact fsum equality for any weights."""
    mu = measure_from_arrays(1, np.arange(len(left), dtype=float)[:, None],
                             np.array(left))
    nu = measure_from_arrays(
        1, 1000.0 + np.arange(len(right), dtype=float)[:, None],
        np.array(right))
    pair = balance_with_reservoir(mu, nu)
    assert pair.mu.total_mass() == pair.nu.total_mass()
    assert pair.mu.reservoir_weight >= 0.0
    assert pair.nu.reservoir_weight >= 0.0


@settings(max_examples=120, deadline=None)
@given(weights=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                  allow_nan=False).filter(lambda x: x != 0.0),
                        min_size=1, max_size=30),
       seed=st.integers(min_value=0, max_value=2**16))
def test_total_mass_is_permutation_invariant(weights, seed):
    locs = np.arange(len(weights), dtype=float)[:, None]
    m = measure_from_arrays(1, locs, np.array(weights), merge=False)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(weights))
    shuffled = measure_from_arrays(1, locs[order], np.array(weights)[order],
                                   merge=False)
    assert m.total_mass() == shuffled.total_mass()
    assert m.total_variation() == shuffled.total_variation()


def test_weights_are_frozen():
    m = make_measure(1, [((0.0,), 1.0)])
    with pytest.raises(ValueError):
        m.weights[0] = 2.0
