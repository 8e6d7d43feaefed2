"""Finite signed atomic measures on R^n and balanced pairs of their parts.

A measure is a finite cloud of weighted atoms in R^n and nothing else.  The
absorbing point "diamond", infinitely far from every point of R^n, belongs
to a :class:`BalancedPair` alone: each side of a pair may hold a reservoir
mass there, so two parts of unequal mass can be compared by transport.  The
reservoir never carries a coordinate vector; transport plans address it as
index -1.  All values are immutable after construction and every operation
is pure.

Mass totals are computed with ``math.fsum`` (exactly rounded, permutation
invariant), which is what makes the exact-balance guarantees of
:func:`balance_with_reservoir` and the bit-identical bookkeeping of flow
push-forwards possible.  Co-located atoms merge once, where a measure is
built from arrays; a balanced pair is the Jordan split of such a signed
measure, with the lighter part topped up through its reservoir.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError

# Atoms within this max-norm distance of each other, directly or through a
# chain of such atoms, are co-located and merge into one atom.  Keeps
# zero-length transport arcs out of the LP and lets a difference of two
# clouds cancel the mass its twins share.
DEDUP_TOL = 1e-12


def _distinct_rows(rows):
    """The distinct rows of a 2-D array in lexicographic order and each
    row's slot among them, as ``np.unique(rows, axis=0, return_inverse=True)``
    gives them, without the ``numpy.ma`` import of a first ``np.unique``.
    Rows that tie are equal, so the sort need not be stable, and one column
    takes numpy's default sort, which is faster than lexsort's stable one."""
    order = (np.argsort(rows[:, 0]) if rows.shape[1] == 1
             else np.lexsort(rows.T[::-1]))
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    slot = np.empty(len(rows), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    return ordered[first], slot


def _merge_colocated(locations, weights):
    """Merge every group of co-located atoms into one atom.

    A group is a connected component of the graph joining atoms within
    DEDUP_TOL in max-norm.  Its atom sits at the group's lexicographically
    first location and carries the ``math.fsum`` of the group's weights;
    zero sums are dropped.  Atoms come out in lexicographic order.
    """
    order = np.lexsort(locations.T[::-1])
    locs = locations[order]
    ws = weights[order]
    if len(ws) <= 1:
        return locs, ws
    heads, tails = _colocated_pairs(locs)
    if len(heads) == 0:
        return locs, ws
    label = _component_labels(len(ws), heads, tails)
    # the label of an atom is its group's first, lexicographically first
    # atom, which carries the group's weight
    member = np.zeros(len(ws), dtype=bool)
    member[heads] = member[tails] = True
    members = np.flatnonzero(member)
    members = members[np.argsort(label[members], kind="stable")]
    bounds = [*np.flatnonzero(np.diff(label[members], prepend=-1)).tolist(),
              len(members)]
    values = ws[members].tolist()
    merged = ws.copy()
    merged[members[bounds[:-1]]] = [math.fsum(values[lo:hi])
                                    for lo, hi in zip(bounds, bounds[1:])]
    keep = (label == np.arange(len(ws))) & (merged != 0.0)
    return locs[keep], merged[keep]


def _colocated_pairs(locs):
    """(i, j) for every two rows of ``locs`` within DEDUP_TOL in max-norm,
    as two index arrays.

    Sorted along one coordinate, two such rows are never parted by a gap
    wider than 2 * DEDUP_TOL (widened against rounding), so cutting the
    rows at those gaps, coordinate by coordinate, keeps every such pair in
    one block; on a lattice the blocks shrink to its twins.  Within a
    block, sorted by first coordinate, j then lies in the window of rows
    at most 2 * DEDUP_TOL above row i in that coordinate.  One pass per
    offset tests every row whose window reaches that far, and the exact
    max-norm test keeps the pairs.
    """
    block = np.zeros(len(locs), dtype=np.intp)
    for axis in reversed(range(locs.shape[1])):
        order = np.lexsort((locs[:, axis], block))
        coord, owner = locs[order, axis], block[order]
        cut = (owner[1:] != owner[:-1]) | \
            (coord[1:] - coord[:-1] > 2.0 * DEDUP_TOL)
        block[order] = np.concatenate([[0], np.cumsum(cut)])
    # the last cut was along the first coordinate: ``order`` sorts the rows
    # by block, then by first coordinate
    owner, first = block[order], locs[order, 0]
    rows = np.arange(len(locs))
    heads, tails = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    offset = 1
    while True:
        rows = rows[rows + offset < len(locs)]
        rows = rows[(owner[rows + offset] == owner[rows]) &
                    (first[rows + offset] - first[rows] <= 2.0 * DEDUP_TOL)]
        if len(rows) == 0:
            break
        head, tail = order[rows], order[rows + offset]
        near = np.abs(locs[head] - locs[tail]).max(axis=1) <= DEDUP_TOL
        heads.append(head[near])
        tails.append(tail[near])
        offset += 1
    return np.concatenate(heads), np.concatenate(tails)


def _component_labels(count, heads, tails):
    """The smallest index in each of ``count`` nodes' connected component
    of the graph with edges (heads[e], tails[e]).

    Min-label propagation with pointer jumping: each pass gives both ends
    of every edge the smaller of their labels, then replaces each label by
    its own label.  Labels only fall and stay members of their component,
    so they settle on the component's smallest index.
    """
    label = np.arange(count)
    while True:
        low = np.minimum(label[heads], label[tails])
        settled = label.copy()
        np.minimum.at(settled, heads, low)
        np.minimum.at(settled, tails, low)
        settled = settled[settled]
        if np.array_equal(settled, label):
            return label
        label = settled


@dataclass(frozen=True)
class AtomicSignedMeasure:
    """Weighted atom cloud in R^n.

    Do not call the constructor with unsanitized data; use
    :func:`make_measure` / :func:`measure_from_arrays`, which validate, merge
    co-located atoms and drop zero weights.
    """

    dimension: int
    locations: np.ndarray  # shape (m, dimension)
    weights: np.ndarray    # shape (m,), no exact zeros

    def __post_init__(self):
        if self.dimension < 1:
            raise MeasureError("dimension must be a positive integer")
        if self.locations.shape != (len(self.weights), self.dimension):
            raise MeasureError("locations/weights shape mismatch")
        if not np.all(np.isfinite(self.locations)):
            raise MeasureError("atom locations must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise MeasureError("atom weights must be finite")
        if np.any(self.weights == 0.0):
            raise MeasureError("zero-weight atoms are not representable")
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    # -- totals ---------------------------------------------------------

    @property
    def atom_count(self):
        return len(self.weights)

    def total_mass(self):
        return math.fsum(self.weights)

    def total_variation(self):
        return math.fsum(np.abs(self.weights))

    # -- algebra ---------------------------------------------------------

    def scaled_weights(self, factors):
        """Multiply atom weights pointwise; zero products are dropped."""
        factors = np.asarray(factors, dtype=float)
        w = self.weights * factors
        keep = w != 0.0
        return AtomicSignedMeasure(self.dimension, self.locations[keep],
                                   w[keep])


def measure_from_arrays(dimension, locations, weights, merge=True):
    """Build a measure from coordinate/weight arrays.

    ``merge=False`` skips co-location merging (the arrays must already be
    free of exact-zero weights).  Used where the weight multiset must be
    preserved verbatim, e.g. flow push-forwards and solution snapshots.
    """
    dimension = int(dimension)
    locations = np.asarray(locations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if locations.size == 0:
        locations = np.zeros((0, dimension))
    if locations.ndim == 1:
        locations = locations.reshape(-1, 1) if dimension == 1 else locations
    if locations.ndim != 2 or locations.shape[1] != dimension:
        raise MeasureError(
            f"locations must have shape (m, {dimension}), got {locations.shape}")
    if weights.shape != (locations.shape[0],):
        raise MeasureError("one weight per atom location is required")
    if merge:
        # the window search and sums of the merge need finite input
        if not np.all(np.isfinite(locations)):
            raise MeasureError("atom locations must be finite")
        if not np.all(np.isfinite(weights)):
            raise MeasureError("atom weights must be finite")
        keep = weights != 0.0
        locations, weights = _merge_colocated(locations[keep], weights[keep])
    else:
        locations = locations.copy()
        weights = weights.copy()
    return AtomicSignedMeasure(dimension, locations, weights)


def make_measure(dimension, atoms):
    """Build a measure from an iterable of (location, weight) pairs."""
    atoms = list(atoms)
    if not atoms:
        return measure_from_arrays(dimension, np.zeros((0, dimension)),
                                   np.zeros(0))
    locations = [np.atleast_1d(np.asarray(loc, dtype=float)) for loc, _ in atoms]
    weights = [float(w) for _, w in atoms]
    return measure_from_arrays(dimension, np.array(locations),
                               np.array(weights))


# -- operations -----------------------------------------------------------


def jordan_decompose(m):
    """Split into mutually singular nonnegative parts (pos, neg).

    pos - neg reproduces the input atom-by-atom.
    """
    pos_mask = m.weights > 0.0
    pos = measure_from_arrays(m.dimension, m.locations[pos_mask],
                              m.weights[pos_mask], merge=False)
    neg = measure_from_arrays(m.dimension, m.locations[~pos_mask],
                              -m.weights[~pos_mask], merge=False)
    return pos, neg


def _exact_balance_reservoir(weights, target_total):
    """Reservoir r with fsum([*weights, r]) == target_total exactly.

    Starts from the rounded difference and polishes with Newton corrections,
    then single-ulp nudges.  Raises if machine-exact equality is unreachable.
    """
    r = target_total - math.fsum(weights)
    for _ in range(6):
        err = math.fsum([*weights, r]) - target_total
        if err == 0.0:
            return r
        r = r - err
    for _ in range(16):
        err = math.fsum([*weights, r]) - target_total
        if err == 0.0:
            return r
        r = math.nextafter(r, -math.inf if err > 0 else math.inf)
    raise MeasureError("could not balance masses exactly at double precision")


@dataclass(frozen=True)
class BalancedPair:
    """Two nonnegative measures on R^n, each with a reservoir mass at the
    absorbing point, with exactly equal total mass.

    Build it with :func:`balance_with_reservoir`, the Jordan split of one
    signed measure that holds each location once, so the stored measures
    are mutually singular on R^n.  Construction checks the shared
    dimension, the signs of the atoms, that each reservoir is finite and
    nonnegative, and that the fsum-computed totals, reservoirs included,
    agree to the last bit.
    """

    mu: AtomicSignedMeasure
    nu: AtomicSignedMeasure
    mu_reservoir: float = 0.0
    nu_reservoir: float = 0.0

    def __post_init__(self):
        if self.mu.dimension != self.nu.dimension:
            raise MeasureError("paired measures must share the dimension")
        for side, r in ((self.mu, self.mu_reservoir),
                        (self.nu, self.nu_reservoir)):
            if not (np.all(side.weights > 0.0) and 0.0 <= r < math.inf):
                raise MeasureError("balanced pairs require nonnegative "
                                   "atoms and finite nonnegative reservoirs")
        if self.total_mass() != math.fsum([*self.nu.weights,
                                           self.nu_reservoir]):
            raise MeasureError(
                "pair masses differ; route construction through "
                "balance_with_reservoir")

    @property
    def dimension(self):
        return self.mu.dimension

    def total_mass(self):
        return math.fsum([*self.mu.weights, self.mu_reservoir])


def balance_with_reservoir(signed):
    """Split a signed measure into its positive and negative parts and
    give the lighter one reservoir mass so the pair's totals match exactly.

    The input holds each location once, as :func:`measure_from_arrays`
    (``merge=True``) and a mollifier lattice give it; mass shared at one
    point has then already cancelled.  A location held twice still gives a
    valid pair with the same transport value, since the cost vanishes at
    distance 0.  The heavier side
    normally keeps reservoir 0; the lighter side receives the (nonnegative)
    mass difference, polished so the fsum totals agree bit-for-bit.

    One deadlock exists: the light side's representable totals form a grid
    of ulp spacing, and when that grid sits exactly half an ulp off a target
    whose mantissa is odd, round-half-to-even can never land on it.  Moving
    the target is the only way out, so the heavy side then takes an ulp-sized
    reservoir of its own to flip the target's parity.
    """
    mu_c, nu_c = jordan_decompose(signed)
    sides = ((mu_c, nu_c, True) if nu_c.total_mass() >= mu_c.total_mass()
             else (nu_c, mu_c, False))
    light, heavy, mu_is_light = sides
    step = math.ulp(heavy.total_mass())
    last_error = None
    for bump in (0.0, step, 2.0 * step, 3.0 * step, 4.0 * step):
        lo, hv, lo_is_mu = light, heavy, mu_is_light
        try:
            r = _exact_balance_reservoir(lo.weights,
                                         math.fsum([*hv.weights, bump]))
        except MeasureError as exc:
            last_error = exc
            continue
        if r < 0.0 and bump == 0.0:
            # Tie resolved the wrong way by rounding; balance the other side.
            lo, hv, lo_is_mu = hv, lo, not lo_is_mu
            try:
                r = _exact_balance_reservoir(lo.weights, hv.total_mass())
            except MeasureError as exc:
                last_error = exc
                continue
        if r < 0.0:
            last_error = MeasureError("balancing produced a negative reservoir")
            continue
        # the heavy side's reservoir is the bump, 0.0 after a swap
        if lo_is_mu:
            return BalancedPair(lo, hv, r, bump)
        return BalancedPair(hv, lo, bump, r)
    raise MeasureError(
        "could not balance masses exactly at double precision") from last_error
