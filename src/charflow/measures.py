"""Finite signed atomic measures on R^n extended by an isolated reservoir point.

A measure is a finite cloud of weighted atoms in R^n together with an optional
scalar mass sitting at a reserved point "diamond" that is infinitely far from
every point of R^n.  The reservoir never carries a coordinate vector; it is
addressed symbolically (index -1 in transport plans).  All values are
immutable after construction and every operation is pure, so instances can be
shared freely across threads.

Mass totals are computed with ``math.fsum`` (exactly rounded, permutation
invariant), which is what makes the exact-balance guarantees of
:func:`balance_with_reservoir` and the bit-identical bookkeeping of flow
push-forwards possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import MeasureError

# Atoms within this max-norm distance of each other, directly or through a
# chain of such atoms, are co-located and merge into one atom.  Keeps
# zero-length transport arcs out of the LP and lets a difference of two
# clouds cancel the mass its twins share.
DEDUP_TOL = 1e-12


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
    pairs = scipy.spatial.cKDTree(locs).query_pairs(
        DEDUP_TOL, p=np.inf, output_type="ndarray")
    if len(pairs) == 0:
        return locs, ws
    # each pair stored both ways: the strong components of that directed
    # graph are its groups, and scipy need not transpose it
    graph = scipy.sparse.csr_array((np.ones(2 * len(pairs)),
                                    (pairs.ravel(), pairs[:, ::-1].ravel())),
                                   shape=(len(ws), len(ws)))
    _, label = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong")
    # the first index of each label is the group's lexicographically first
    # atom, which carries the group's weight
    head = np.zeros(len(ws), dtype=bool)
    head[np.unique(label, return_index=True)[1]] = True
    members = np.unique(pairs)
    members = members[np.argsort(label[members], kind="stable")]
    starts = np.flatnonzero(np.diff(label[members], prepend=-1))
    merged = ws.copy()
    for group in np.split(members, starts[1:]):
        merged[group[0]] = math.fsum(ws[group])
    keep = head & (merged != 0.0)
    return locs[keep], merged[keep]


@dataclass(frozen=True)
class AtomicSignedMeasure:
    """Weighted atom cloud plus reservoir mass.

    Do not call the constructor with unsanitized data; use
    :func:`make_measure` / :func:`measure_from_arrays`, which validate, merge
    co-located atoms and drop zero weights.
    """

    dimension: int
    locations: np.ndarray  # shape (m, dimension)
    weights: np.ndarray    # shape (m,), no exact zeros
    reservoir_weight: float = 0.0

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
        if not math.isfinite(self.reservoir_weight):
            raise MeasureError("reservoir weight must be finite")
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    # -- totals ---------------------------------------------------------

    @property
    def atom_count(self):
        return len(self.weights)

    def atom_mass(self):
        """Signed mass carried on R^n (reservoir excluded)."""
        return math.fsum(self.weights)

    def total_mass(self):
        """Signed mass including the reservoir."""
        return math.fsum([*self.weights, self.reservoir_weight])

    def total_variation(self):
        return math.fsum([*np.abs(self.weights), abs(self.reservoir_weight)])

    def is_nonnegative(self):
        return bool(np.all(self.weights > 0.0)) and self.reservoir_weight >= 0.0

    # -- algebra ---------------------------------------------------------

    def with_reservoir(self, reservoir_weight):
        return AtomicSignedMeasure(
            self.dimension, self.locations.copy(), self.weights.copy(),
            float(reservoir_weight))

    def scaled_weights(self, factors):
        """Multiply atom weights pointwise; zero products are dropped."""
        factors = np.asarray(factors, dtype=float)
        w = self.weights * factors
        keep = w != 0.0
        return AtomicSignedMeasure(
            self.dimension, self.locations[keep].copy(), w[keep],
            self.reservoir_weight)


def measure_from_arrays(dimension, locations, weights, reservoir_weight=0.0,
                        merge=True):
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
        # the tree search and sums of the merge need finite input
        if not np.all(np.isfinite(locations)):
            raise MeasureError("atom locations must be finite")
        if not np.all(np.isfinite(weights)):
            raise MeasureError("atom weights must be finite")
        keep = weights != 0.0
        locations, weights = _merge_colocated(locations[keep], weights[keep])
    else:
        locations = locations.copy()
        weights = weights.copy()
    return AtomicSignedMeasure(dimension, locations, weights,
                               float(reservoir_weight))


def make_measure(dimension, atoms, reservoir_weight=0.0):
    """Build a measure from an iterable of (location, weight) pairs."""
    atoms = list(atoms)
    if not atoms:
        return measure_from_arrays(dimension, np.zeros((0, dimension)),
                                   np.zeros(0), reservoir_weight)
    locations = [np.atleast_1d(np.asarray(loc, dtype=float)) for loc, _ in atoms]
    weights = [float(w) for _, w in atoms]
    return measure_from_arrays(dimension, np.array(locations),
                               np.array(weights), reservoir_weight)


def empty_measure(dimension):
    return measure_from_arrays(dimension, np.zeros((0, dimension)), np.zeros(0))


# -- operations -----------------------------------------------------------


def jordan_decompose(m):
    """Split into mutually singular nonnegative parts (pos, neg).

    pos - neg reproduces the input atom-by-atom; a signed reservoir goes to
    the matching side.
    """
    pos_mask = m.weights > 0.0
    pos = measure_from_arrays(
        m.dimension, m.locations[pos_mask], m.weights[pos_mask],
        max(m.reservoir_weight, 0.0), merge=False)
    neg = measure_from_arrays(
        m.dimension, m.locations[~pos_mask], -m.weights[~pos_mask],
        max(-m.reservoir_weight, 0.0), merge=False)
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
    """Two nonnegative measures with exactly equal total mass.

    Build it with :func:`balance_with_reservoir`, which has already merged
    co-located atoms across the two sides, so the stored measures are
    mutually singular on R^n.  Construction checks the shared dimension, the
    signs, and that the fsum-computed totals (reservoirs included) agree to
    the last bit.
    """

    mu: AtomicSignedMeasure
    nu: AtomicSignedMeasure

    def __post_init__(self):
        if self.mu.dimension != self.nu.dimension:
            raise MeasureError("paired measures must share the dimension")
        if not (self.mu.is_nonnegative() and self.nu.is_nonnegative()):
            raise MeasureError("balanced pairs require nonnegative measures")
        if self.mu.total_mass() != self.nu.total_mass():
            raise MeasureError(
                "pair masses differ; route construction through "
                "balance_with_reservoir")

    @property
    def dimension(self):
        return self.mu.dimension

    def total_mass(self):
        return self.mu.total_mass()


def balance_with_reservoir(mu_raw, nu_raw):
    """Attach reservoir mass to the lighter side so totals match exactly.

    Both inputs must be nonnegative with zero reservoir.  Mass the two sides
    share at co-located atoms cancels first: the signed union mu - nu is
    merged by :func:`measure_from_arrays` and split by
    :func:`jordan_decompose`.  The heavier side
    normally keeps reservoir 0; the lighter side receives the (nonnegative)
    mass difference, polished so the fsum totals agree bit-for-bit.

    One deadlock exists: the light side's representable totals form a grid
    of ulp spacing, and when that grid sits exactly half an ulp off a target
    whose mantissa is odd, round-half-to-even can never land on it.  Moving
    the target is the only way out, so the heavy side then takes an ulp-sized
    reservoir of its own to flip the target's parity.
    """
    for name, m in (("mu", mu_raw), ("nu", nu_raw)):
        if not m.is_nonnegative():
            raise MeasureError(f"{name} must be nonnegative")
        if m.reservoir_weight != 0.0:
            raise MeasureError(f"{name} must carry no reservoir mass yet")
    if mu_raw.dimension != nu_raw.dimension:
        raise MeasureError("paired measures must share the dimension")
    mu_c, nu_c = jordan_decompose(measure_from_arrays(
        mu_raw.dimension, np.vstack([mu_raw.locations, nu_raw.locations]),
        np.concatenate([mu_raw.weights, -nu_raw.weights])))
    sides = ((mu_c, nu_c, True) if nu_c.atom_mass() >= mu_c.atom_mass()
             else (nu_c, mu_c, False))
    light, heavy, mu_is_light = sides
    step = math.ulp(math.fsum(heavy.weights))
    last_error = None
    for bump in (0.0, step, 2.0 * step, 3.0 * step, 4.0 * step):
        lo, hv, lo_is_mu = light, heavy, mu_is_light
        hv_b = hv.with_reservoir(bump) if bump > 0.0 else hv
        try:
            r = _exact_balance_reservoir(lo.weights, hv_b.total_mass())
        except MeasureError as exc:
            last_error = exc
            continue
        if r < 0.0 and bump == 0.0:
            # Tie resolved the wrong way by rounding; balance the other side.
            lo, hv, lo_is_mu = hv, lo, not lo_is_mu
            hv_b = hv
            try:
                r = _exact_balance_reservoir(lo.weights, hv_b.total_mass())
            except MeasureError as exc:
                last_error = exc
                continue
        if r < 0.0:
            last_error = MeasureError("balancing produced a negative reservoir")
            continue
        lo_b = lo.with_reservoir(r)
        mu_b, nu_b = (lo_b, hv_b) if lo_is_mu else (hv_b, lo_b)
        return BalancedPair(mu_b, nu_b)
    raise MeasureError(
        "could not balance masses exactly at double precision") from last_error
