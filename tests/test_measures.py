"""Atomic signed measures: exactness of mass bookkeeping."""

import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import (AtomicSignedMeasure, BalancedPair, MeasureError,
                      balance_with_reservoir, jordan_decompose, make_measure,
                      measure_from_arrays)
from charflow.diagnostics import MollifierSpec, mollify
from charflow.measures import (DEDUP_TOL, _colocated_pairs,
                               _component_labels, _merge_colocated)


def difference(mu, nu):
    """mu - nu as one signed measure, its co-located mass merged."""
    return measure_from_arrays(mu.dimension,
                               np.vstack([mu.locations, nu.locations]),
                               np.concatenate([mu.weights, -nu.weights]))


def nu_total(pair):
    """The target side's total, its reservoir included."""
    return math.fsum([*pair.nu.weights, pair.nu_reservoir])


def test_totals_on_a_small_cloud():
    m = make_measure(2, [((0.0, 0.0), 0.5), ((1.0, 0.0), -0.25),
                         ((0.0, 1.0), 0.125)])
    assert m.atom_count == 3
    assert m.total_mass() == 0.375
    assert m.total_variation() == 0.875


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
    m = make_measure(3, [])
    assert m.atom_count == 0
    assert m.total_mass() == 0.0
    assert m.total_variation() == 0.0


def test_jordan_split_reproduces_the_input():
    m = make_measure(1, [((0.0,), 0.75), ((1.0,), -0.5), ((2.0,), 0.25)])
    pos, neg = jordan_decompose(m)
    assert np.all(pos.weights > 0.0) and np.all(neg.weights > 0.0)
    assert pos.total_mass() == 1.0
    assert neg.total_mass() == 0.5
    # mutual singularity: no shared locations
    shared = set(map(tuple, pos.locations)) & set(map(tuple, neg.locations))
    assert not shared


def test_balance_cancels_shared_colocated_mass():
    mu = make_measure(1, [((0.0,), 0.5), ((1.0,), 0.25)])
    nu = make_measure(1, [((0.0,), 0.2), ((2.0,), 0.3)])
    # the mass shared at 0 cancels where the difference is built
    pair = balance_with_reservoir(difference(mu, nu))
    assert pair.mu.total_mass() == 0.55
    assert pair.nu.total_mass() == 0.3
    assert all(tuple(loc) != (0.0,) for loc in pair.nu.locations)


def test_merge_joins_twins_that_a_third_atom_separates():
    # (0, 1) sorts between the twins, which differ in the first coordinate
    locs = [[0.0, 0.0], [0.0, 1.0], [DEDUP_TOL / 2, 0.0]]
    m = measure_from_arrays(2, locs, [0.25, 0.5, -0.25])
    assert m.atom_count == 1
    assert m.locations.tolist() == [[0.0, 1.0]]
    assert m.weights.tolist() == [0.5]


def test_merge_joins_a_chain_at_its_first_atom():
    a, b, c = 1.0, 1.0 + 0.9 * DEDUP_TOL, 1.0 + 1.8 * DEDUP_TOL
    assert c - a > DEDUP_TOL  # only the chain joins the ends
    weights = [0.1, 0.2, 0.3]
    m = measure_from_arrays(1, [[c], [a], [b]], [weights[2], weights[0],
                                                 weights[1]])
    assert m.locations.tolist() == [[a]]
    assert m.weights.tolist() == [math.fsum(weights)]
    pm = measure_from_arrays(1, [[a], [b], [c], [5.0]],
                             [0.25, 0.5, -0.75, 0.125])
    assert pm.locations.tolist() == [[5.0]]
    assert pm.weights.tolist() == [0.125]


@pytest.mark.parametrize("zigzag", [False, True])
def test_merge_collapses_a_long_chain_at_its_first_atom(zigzag):
    # 2,000 atoms, each within DEDUP_TOL of its neighbours only.  The zigzag
    # steps up in y while x alternates, so lexicographic order visits every
    # other link: first the x = 0 atoms, then the others.
    rng = np.random.default_rng(11)
    steps = 0.6 * DEDUP_TOL * np.arange(2000)
    locs = np.stack([0.6 * DEDUP_TOL * (np.arange(2000) % 2), steps],
                    axis=1) if zigzag else steps[:, None]
    weights = rng.uniform(0.1, 1.0, size=len(steps))
    order = rng.permutation(len(steps))
    m = measure_from_arrays(locs.shape[1], locs[order], weights[order])
    assert m.locations.tolist() == [[0.0] * locs.shape[1]]
    assert m.weights.tolist() == [math.fsum(weights)]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1, 3.0]),
                      min_size=1, max_size=12),
       seed=st.integers(min_value=0, max_value=2**16))
def test_merge_groups_are_the_chains_of_close_atoms(steps, seed):
    """Brute-force check of the rule on clustered 2-D atoms."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum([0.0, *steps]) * DEDUP_TOL
    locs = np.stack([xs, rng.choice([0.0, 0.5 * DEDUP_TOL, 1.0],
                                    size=len(xs))], axis=1)
    order = rng.permutation(len(xs))
    weights = rng.integers(1, 9, size=len(xs)) / 8.0
    m = measure_from_arrays(2, locs[order], weights[order])
    close = np.max(np.abs(locs[:, None] - locs[None]), axis=2) <= DEDUP_TOL
    group = np.arange(len(xs))
    for _ in range(len(xs)):
        group = np.min(np.where(close, group[None, :], len(xs)), axis=1)
    want = sorted((min(map(tuple, locs[group == g])),
                   math.fsum(weights[group == g])) for g in set(group.tolist()))
    assert [(tuple(loc), w) for loc, w in zip(m.locations, m.weights)] == want


def _tree_partition(locs):
    """Component label of each row of ``locs`` in the graph of rows within
    DEDUP_TOL in max-norm, by a k-d tree's pair search and a sparse
    connected-components pass: the reference for the package's window
    search and label propagation."""
    pairs = scipy.spatial.cKDTree(locs).query_pairs(
        DEDUP_TOL, p=np.inf, output_type="ndarray")
    graph = scipy.sparse.csr_array(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(len(locs), len(locs)))
    return scipy.sparse.csgraph.connected_components(graph,
                                                     directed=False)[1]


def _first_member_labels(labels):
    """Labels renamed to the first row that carries each, so that two
    labelings of one partition compare equal."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    return first[inverse]


def _tree_merge(locations, weights):
    """The merge on the reference partition: each group at its
    lexicographically first atom with the fsum of its weights."""
    order = np.lexsort(locations.T[::-1])
    locs, ws = locations[order], weights[order]
    label = _first_member_labels(_tree_partition(locs))
    head = label == np.arange(len(ws))
    merged = np.array([math.fsum(ws[label == g]) for g in range(len(ws))])
    keep = head & (merged != 0.0)
    return locs[keep], merged[keep]


def _clouds():
    """(name, locations) of the clouds the merge is checked on."""
    rng = np.random.default_rng(2024)
    for dim in (1, 2, 3):
        base = rng.uniform(-1.0, 1.0, size=(300, dim))
        twins = base[rng.integers(0, 300, size=150)]
        near = base[rng.integers(0, 300, size=150)] + rng.uniform(
            -1.5, 1.5, size=(150, dim)) * DEDUP_TOL
        yield f"twins-{dim}d", np.vstack([base, twins, near])
        steps = rng.choice([-0.9, 0.9], size=(400, dim)) * DEDUP_TOL
        yield f"zigzag-{dim}d", np.vstack([np.cumsum(steps, axis=0),
                                           base[:50]])
        on_grid = rng.integers(-4, 5, size=(200, dim)) * DEDUP_TOL
        yield f"tol-apart-{dim}d", np.vstack([on_grid, 1.0 + on_grid])
        axes = [(np.arange(12) + 0.5) / 12] * dim
        lattice = np.stack([g.ravel() for g in np.meshgrid(
            *axes, indexing="ij")], axis=1)
        yield f"lattice-{dim}d", np.vstack([lattice, lattice])
    chain = 0.9 * DEDUP_TOL * np.arange(2000)
    yield "chain-2000", np.stack([chain, chain[::-1] % 3e-12], axis=1)


@pytest.mark.parametrize("name,locations", list(_clouds()),
                         ids=[name for name, _ in _clouds()])
def test_merge_partition_matches_a_tree_search(name, locations):
    rng = np.random.default_rng(len(locations))
    locs = locations[np.lexsort(locations.T[::-1])]
    label = _component_labels(len(locs), *_colocated_pairs(locs))
    want = _first_member_labels(_tree_partition(locs))
    assert np.array_equal(label, want)
    assert len(np.unique(want)) < len(locs)  # the cloud has groups
    order = rng.permutation(len(locations))
    weights = rng.integers(-8, 9, size=len(locations)) / 8.0
    weights[weights == 0.0] = 0.5
    got_locs, got_ws = _merge_colocated(locations[order], weights[order])
    want_locs, want_ws = _tree_merge(locations[order], weights[order])
    assert np.array_equal(got_locs, want_locs)
    assert np.array_equal(got_ws, want_ws)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_merge_rejects_nonfinite_locations(bad):
    with pytest.raises(MeasureError, match="finite"):
        measure_from_arrays(1, [[0.0], [bad]], [0.5, 0.5])


def test_balance_attaches_reservoir_to_the_light_side():
    mu = make_measure(1, [((0.0,), 0.4), ((0.7,), 0.35), ((1.4,), 0.25)])
    nu = make_measure(1, [((0.2,), 0.3), ((1.0,), 0.45)])
    pair = balance_with_reservoir(difference(mu, nu))
    assert pair.mu_reservoir == 0.0
    assert pair.nu_reservoir == pytest.approx(0.25)
    assert pair.total_mass() == nu_total(pair)


def test_pair_checks_its_signs_reservoirs_and_totals():
    mu = make_measure(1, [((0.0,), 0.5)])
    nu = make_measure(1, [((1.0,), 0.25)])
    BalancedPair(mu, nu, 0.0, 0.25)  # well formed
    for reservoirs in [(-0.25, 0.0), (0.0, -0.25), (math.inf, math.inf),
                       (math.nan, 0.25)]:
        with pytest.raises(MeasureError, match="nonnegative reservoirs"):
            BalancedPair(mu, nu, *reservoirs)
    with pytest.raises(MeasureError, match="nonnegative atoms"):
        BalancedPair(make_measure(1, [((0.0,), -0.5)]), nu, 0.0, 0.25)
    with pytest.raises(MeasureError, match="share the dimension"):
        BalancedPair(make_measure(2, [((0.0, 0.0), 0.5)]), nu, 0.0, 0.25)
    # totals one ulp of 0.5 apart through a reservoir
    for reservoirs in [(0.0, 0.25 + math.ulp(0.5)), (math.ulp(0.5), 0.25)]:
        with pytest.raises(MeasureError, match="pair masses differ"):
            BalancedPair(mu, nu, *reservoirs)


def test_pair_on_a_lattice_finer_than_the_merge_is_the_jordan_split():
    # a +/- pair mollified at alpha = 2e-12: the lattice spacing 5e-13 is
    # below DEDUP_TOL, so a second merge would fuse neighbouring cells
    spec = MollifierSpec(alpha=2e-12, dimension=1)
    assert spec.spacing <= DEDUP_TOL
    smooth = mollify(measure_from_arrays(1, [[0.0], [3e-12]], [0.5, -0.5]),
                     spec)
    pos, neg = jordan_decompose(smooth)
    pair = balance_with_reservoir(smooth)
    assert smooth.atom_count == 14
    assert (pair.mu.atom_count, pair.nu.atom_count) == (7, 7)
    for part, side in ((pos, pair.mu), (neg, pair.nu)):
        assert side.locations.tobytes() == part.locations.tobytes()
        assert side.weights.tobytes() == part.weights.tobytes()
    assert pair.mu.total_mass() == pytest.approx(0.492, abs=5e-4)
    assert pair.total_mass() == nu_total(pair)


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
    pair = balance_with_reservoir(difference(mu, nu))
    assert pair.total_mass() == nu_total(pair)
    assert pair.mu_reservoir >= 0.0
    assert pair.nu_reservoir >= 0.0


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


def test_scaled_weights_drop_zero_products_and_stay_read_only():
    m = make_measure(2, [((0.0, 1.0), 0.5), ((1.0, 0.0), -0.25)])
    kept = m.scaled_weights([2.0, 0.0])
    assert kept.locations.tolist() == [[0.0, 1.0]]
    assert kept.weights.tolist() == [1.0]
    assert not kept.locations.flags.writeable
