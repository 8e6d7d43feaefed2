"""Uniqueness diagnostics: cutoffs, mollification, and the transport bound.

The pipeline takes the signed difference of two candidate solutions,
localizes it with a growth-adapted cutoff, mollifies it onto a lattice,
takes the Jordan split of that one signed measure, balances the parts
through the absorbing point, and measures the result with the concave-cost
transport functional.  The same module computes the three-term upper bound
for the growth of that functional and the parameter schedule that keeps
each term below one, which is the quantitative heart of the uniqueness
argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .costs import (KnotTable, brentq, gauss_legendre, grid_edges,
                    saturation_integral)
from .errors import CutoffError, MollifierError, ScheduleError
from .fields import (evaluate_batch, plateau_bump, plateau_bump_derivative,
                     row_norms, smooth_step, smooth_step_derivative)
from .measures import balance_with_reservoir, measure_from_arrays
from .transport import solve_ot

_DECADE = math.log(10.0)
_LOG_DELTA_FLOOR = math.log(1e-280)
_LOG_DELTA_CEILING = math.log(1e12)
_CELLS_PER_ALPHA = 4  # the mollifier lattice is alpha / 4 wide


def trapezoid_rule(values, times):
    """Plain trapezoid quadrature over an increasing grid."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))


# -- growth-adapted cutoff ---------------------------------------------------

@dataclass(frozen=True)
class CutoffFamily:
    """Radial cutoff for level k: identically 1 on B(0, k), 0 outside
    B(0, r_zero), with |gradient| <= 2 / G(r) pointwise.

    The profile is a smooth step applied to H(r) = int_k^r ds/G(s); r_zero
    is where H reaches 1, so the decay happens exactly over the window the
    growth envelope allows, and |chi'| = S'(1 - H)/G <= 2/G because the
    step's slope never exceeds 2.
    """

    k: float
    r_zero: float
    growth: object
    _h_table: KnotTable  # H(r) = int_k^r ds / G(s) on [k, r_zero]

    def value(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.ones_like(r)
        out[r >= self.r_zero] = 0.0
        mid = (r > self.k) & (r < self.r_zero)
        if mid.any():
            out[mid] = smooth_step(1.0 - self._h_table.value(r[mid]))
        return float(out[0]) if scalar else out

    def gradient_norm(self, r):
        """|d chi / d r|; the full gradient is this times the unit radial
        direction."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.zeros_like(r)
        mid = (r > self.k) & (r < self.r_zero)
        if mid.any():
            slope = smooth_step_derivative(1.0 - self._h_table.value(r[mid]))
            out[mid] = slope / np.asarray(self.growth(r[mid]), dtype=float)
        return float(out[0]) if scalar else out

    def apply(self, measure):
        """Reweight an atomic measure by the cutoff (drops far atoms)."""
        return measure.scaled_weights(self.value(row_norms(measure.locations)))


def build_cutoff(growth, k):
    """Construct the level-k cutoff for a growth envelope.

    H(r) = int_k^r ds/G is one cumulative sum of 4-node increments at k
    and the cost grid's edges above it, cut at the first knot where H
    reaches 1; r_zero is the root of H - 1 on that same table.  Fails when
    H stays below 1 at 1e13 (the decay window would be too wide to hold).
    """
    k = float(k)
    if not (0.0 < k < math.inf):
        raise CutoffError("cutoff level k must be positive and finite")

    def density(s):
        return 1.0 / np.asarray(growth(s), dtype=float)

    edges = grid_edges(math.floor(128 * math.log10(k)))
    knots = np.concatenate([[k], edges[edges > k]])
    values = np.concatenate([[0.0], np.cumsum(
        gauss_legendre(density, knots[:-1], knots[1:]))])
    if not values[-1] >= 1.0:
        raise CutoffError(f"G tail too heavy for numeric R_k: H reaches "
                          f"only {values[-1]:.4g} by r = {knots[-1]:.4g}")
    end = int(np.searchsorted(values, 1.0)) + 1
    table = KnotTable(knots[:end], values[:end], density)
    r_zero = brentq(table.value, 1.0, knots[end - 2], knots[end - 1],
                    xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    cut = CutoffFamily(k=k, r_zero=float(r_zero), growth=growth,
                       _h_table=table)

    # invariant audit on a dense sample
    rs = np.linspace(max(k - 1.0, 0.0), r_zero + 1.0, 512)
    vals = cut.value(rs)
    if np.any(vals < 0.0) or np.any(vals > 1.0):
        raise CutoffError("cutoff left the unit interval")
    if np.any(vals[rs <= k] != 1.0) or np.any(vals[rs >= r_zero] != 0.0):
        raise CutoffError("cutoff plateau or support is wrong")
    if np.any(np.diff(vals) > 1e-12):
        raise CutoffError("cutoff is not nonincreasing")
    grads = cut.gradient_norm(rs)
    caps = 2.0 / np.asarray(growth(rs), dtype=float)
    if np.any(grads > caps * (1.0 + 1e-9)):
        raise CutoffError("cutoff gradient exceeded 2/G")
    return cut


# -- mollification -------------------------------------------------------------

@dataclass(frozen=True)
class MollifierSpec:
    """Compactly supported bump kernel of radius alpha on a lattice of
    spacing alpha / 4."""

    alpha: float
    dimension: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise MollifierError("alpha must lie in (0, 1)")
        if self.dimension < 1:
            raise MollifierError("dimension must be at least 1")
        # continuous unit-mass audit: compare the radial kernel mass, by
        # the 4-node rule on 200 intervals, against an independent Riemann
        # sum
        n = self.dimension
        edges = np.linspace(0.0, 1.0, 201)
        target = math.fsum(gauss_legendre(
            lambda r: np.exp(-1.0 / (1.0 - r * r)) * r**(n - 1),
            edges[:-1], edges[1:]))
        xs = np.linspace(0.0, 1.0, 20001)[:-1] + 0.5 / 20000
        riemann = float(np.sum(np.exp(-1.0 / (1.0 - xs * xs))
                               * xs**(n - 1)) / 20000)
        if abs(target - riemann) > 1e-10 * max(target, 1.0):
            raise MollifierError("kernel mass normalization disagrees")

    @property
    def spacing(self):
        return self.alpha / _CELLS_PER_ALPHA

    def kernel(self, offsets):
        """Unnormalized bump exp(-1/(1-|x/alpha|^2)) on |x| < alpha."""
        offsets = np.asarray(offsets, dtype=float)
        q = np.sum((offsets / self.alpha)**2, axis=-1)
        out = np.zeros(q.shape)
        inside = q < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - q[inside]))
        return out


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
    distinct = ordered[first]
    del ordered
    ranks = np.cumsum(first, dtype=np.intp)
    ranks -= 1
    slot = np.empty(len(rows), dtype=np.intp)
    slot[order] = ranks
    return distinct, slot


def mollify(measure, spec):
    """Smooth an atomic measure onto the mollifier's lattice.

    Each atom's weight is distributed over the lattice cells its kernel
    touches, normalized by the kernel's own lattice sum, so the atom's mass
    is conserved exactly up to one rounding per cell.  The lattice is
    anchored at the origin, so overlapping kernels accumulate into shared
    cells instead of multiplying atoms.  Shares are added into their cells
    in atom-major order and the cells come out in lexicographic order.
    """
    if measure.dimension != spec.dimension:
        raise MollifierError("measure and mollifier dimensions differ")
    if measure.atom_count == 0:
        return measure
    h = spec.spacing
    n = spec.dimension
    reach = int(math.ceil(spec.alpha / h)) + 1
    offsets = np.stack(np.meshgrid(
        *([np.arange(-reach, reach + 1)] * n), indexing="ij"),
        axis=-1).reshape(-1, n)

    locations = measure.locations
    base = np.floor(locations / h - 0.5)
    if not np.all(np.abs(base) < 2.0**52):
        raise MollifierError(
            f"lattice spacing {h:g} is too fine for atoms as far out as "
            f"{float(np.max(np.abs(locations))):g}")
    idx = base.astype(np.int64)[:, None, :] + offsets[None, :, :]
    kernel = spec.kernel((idx + 0.5) * h - locations[:, None, :])
    totals = kernel.sum(axis=1)
    if np.any(totals <= 0.0):
        missed = locations[np.argmax(totals <= 0.0)]
        raise MollifierError(
            f"kernel missed every lattice cell near {missed.tolist()}")
    shares = measure.weights[:, None] * (kernel / totals[:, None])

    nonzero = shares != 0.0
    cells, slot = _distinct_rows(idx[nonzero])
    weights = np.bincount(slot, weights=shares[nonzero],
                          minlength=len(cells))
    keep = weights != 0.0
    return measure_from_arrays(n, (cells[keep] + 0.5) * h, weights[keep],
                               merge=False)


# -- the transport functional and its bound ------------------------------------

def build_mu_nu(difference, cutoff, mollifier):
    """Localize, smooth, and split a signed difference into a balanced pair.

    Order matters: mollify first (the lattice sees the raw atoms), then
    weight by the cutoff, then take the Jordan split of that one signed
    measure; whichever part is lighter is topped up through the absorbing
    point.  The lattice holds each cell once, so nothing merges again.
    """
    return balance_with_reservoir(cutoff.apply(mollify(difference, mollifier)))


def D_functional(pair, cost):
    """Optimal plan of a balanced pair under a concave cost; its
    ``primal_value`` is the transport functional D."""
    plan, _ = solve_ot(pair, cost)
    return plan


def variation_integrals(snapshots, radius):
    """Time integrals (trapezoid rule) of a snapshot sequence's variation,
    up to every snapshot time.

    Returns (int_total, int_tail), two arrays with one entry per snapshot:
    entry i integrates, over the first i + 1 snapshots, the total variation
    and the variation at distance >= ``radius`` from the origin.  Entry 0
    is 0.0.  The parameter schedule reads the last entries; the three-term
    bound reads all of them.
    """
    snapshots = list(snapshots)
    if len(snapshots) < 2:
        raise ScheduleError("need at least two snapshots in time")
    times = np.array([t for t, _ in snapshots], dtype=float)
    if np.any(np.diff(times) <= 0.0):
        raise ScheduleError("snapshot times must increase")

    totals = []
    tails = []
    for _, m in snapshots:
        totals.append(m.total_variation())
        radii = row_norms(m.locations)
        far = np.abs(m.weights[radii >= radius])
        tails.append(math.fsum(far))

    def prefixes(values):
        return np.array([trapezoid_rule(values[:i + 1], times[:i + 1])
                         for i in range(len(times))])

    return prefixes(totals), prefixes(tails)


@dataclass(frozen=True)
class CostEstimate:
    """Three-term bound for the time derivative of the transport value;
    each term is one number or one array entry per report time."""

    term1: float
    term2: float
    term3: float

    @property
    def bound(self):
        return self.term1 + self.term2 + self.term3


def costestimate_bound(field, int_total, int_out, cutoff, cost, alpha):
    """Evaluate the three-term estimate from the variation integrals.

    * term1: modulus term, beta * C * integral of total variation;
    * term2: boundary leakage through the cutoff's decay window,
      2 * beta * C_G * J * integral of the variation beyond radius k - 1;
    * term3: mollification error, C * omega(alpha) * (beta/delta +
      beta * J / G(k)) * integral of total variation;

    ``int_total`` and ``int_out`` are the two integrals returned by
    :func:`variation_integrals` at radius k - 1, either one number each or
    one array entry per report time; the terms follow their shape.  J is
    the saturating integral of the reciprocal modified modulus at
    ``cost.delta``, read as ``cost.j_value``, which the cost computed when
    it was built.  C is ``field.modulus_constant``, the constant the
    first-term certificate reads too.
    """
    beta, delta, j_val = cost.beta, cost.delta, cost.j_value
    const = field.modulus_constant
    g_at_k = float(field.growth(cutoff.k))
    omega_alpha = float(field.modulus(alpha))

    term1 = beta * const * int_total
    term2 = 2.0 * beta * field.growth_const * j_val * int_out
    term3 = (const * omega_alpha
             * (beta / delta + beta * j_val / g_at_k) * int_total)
    return CostEstimate(term1=term1, term2=term2, term3=term3)


@dataclass(frozen=True)
class Schedule:
    """Per-level parameters: cost shape (beta, delta), mollifier radius
    alpha, and the intermediate quantities that justify them.  ``j_value``
    is J(delta) at the chosen delta, as the level's cost computes it."""

    k: float
    variation_integral: float
    variation_floor: float
    beta: float
    delta: float
    alpha: float
    j_target: float
    j_value: float


def parameter_schedule(k, variation_integral, variation_floor,
                       modulus_constant, growth_constant, modulus,
                       growth_at_k):
    """Choose beta, delta, alpha at level k so each bound term stays small.

    With I the time-integrated total variation and I_k its tail counterpart
    floored at 1/k (the caller applies the floor):

    * beta = 1 / (C * I + 1) caps term1 at C*I/(C*I+1) < 1;
    * delta solves J(delta) = (C * I + 1) / (2 * (C_G + 1) * I_k), which
      caps term2 once the tail variation is below I_k;
    * alpha is the largest power of 1/2 with
      omega(alpha) * (beta/delta + beta*J/G(k)) * (C*I + 1) <= 1, capping
      term3, where ``growth_at_k`` is G(k).  Any smaller alpha keeps the
      inequality.

    Fails honestly when no delta >= 1e-280 reaches the target (J converges
    for a non-Osgood modulus, the non-uniqueness regime, and may diverge
    too slowly for an Osgood one) or when alpha underflows.
    """
    ivar = float(variation_integral)
    floor = float(variation_floor)
    if ivar < 0.0 or floor <= 0.0:
        raise ScheduleError("variation integrals must be nonnegative "
                            "(tail floored away from zero)")
    const = float(modulus_constant)
    beta = 1.0 / (const * ivar + 1.0)
    j_target = (const * ivar + 1.0) / (2.0 * (float(growth_constant) + 1.0)
                                       * floor)

    # J decreases as delta grows.  Walk log(delta) away from 0 with a
    # doubling stride until J crosses the target, then solve inside the
    # last stride; the cache hands brentq its endpoints and the final J.
    @functools.cache
    def j_at(log_delta):
        return saturation_integral(modulus, math.exp(log_delta))

    downward = j_at(0.0) < j_target
    step = -_DECADE if downward else _DECADE
    a = 0.0
    while True:
        b = min(max(a + step, _LOG_DELTA_FLOOR), _LOG_DELTA_CEILING)
        if (j_at(b) >= j_target) if downward else (j_at(b) <= j_target):
            break
        if b == _LOG_DELTA_FLOOR:
            raise ScheduleError(
                f"J({math.exp(b):.3g}) = {j_at(b):.4g} stays below the "
                f"target {j_target:.4g}; no delta reaches the target "
                "saturation scale, the reciprocal modulus integral "
                + ("diverges too slowly" if modulus.osgood else "converges"))
        if b == _LOG_DELTA_CEILING:
            raise ScheduleError("delta search bracket ran away upward")
        a, step = b, 2.0 * step
    log_delta = brentq(j_at, j_target, min(a, b), max(a, b),
                       xtol=1e-12, rtol=8.9e-16)
    delta = math.exp(log_delta)
    j_val = j_at(log_delta)
    rate = (beta / delta + beta * j_val / float(growth_at_k)) \
        * (const * ivar + 1.0)
    alpha = 1.0
    while alpha > 0.0 and not float(modulus(alpha)) * rate <= 1.0:
        alpha *= 0.5
    if alpha == 0.0:
        raise ScheduleError(
            "mollifier radius underflowed before meeting the bound")
    return Schedule(k=float(k), variation_integral=ivar,
                    variation_floor=floor, beta=beta, delta=delta,
                    alpha=alpha, j_target=j_target, j_value=j_val)


# -- weak-formulation residual --------------------------------------------------

def _time_profiles(t, horizon):
    """(psi(t), psi'(t)) of the two time profiles; both vanish at the
    horizon."""
    T = horizon
    return (((1.0 - (t / T)**2)**2,
             -4.0 * (t / T**2) * (1.0 - (t / T)**2)),
            (math.cos(math.pi * t / (2.0 * T)),
             -math.pi / (2.0 * T) * math.sin(math.pi * t / (2.0 * T))))


def _spatial_tests(points, r_in, r_out):
    """(g, grad g) at the points for the three spatial tests: a compactly
    supported plateau, and the plateau times x_1 and times |x|^2, so the
    residual probes transport, not just mass."""
    r = row_norms(points)
    plateau = plateau_bump(r, r_in, r_out)
    safe = np.where(r > 0.0, r, 1.0)
    plateau_grad = (plateau_bump_derivative(r, r_in, r_out)[:, None]
                    * points / safe[:, None])
    coord_grad = points[:, 0:1] * plateau_grad
    coord_grad[:, 0] += plateau
    square = np.sum(points**2, axis=1)
    return ((plateau, plateau_grad),
            (points[:, 0] * plateau, coord_grad),
            (square * plateau, square[:, None] * plateau_grad
             + 2.0 * points * plateau[:, None]))


def weak_solution_residual(field, snapshots):
    """Residual of the continuity equation in weak form along snapshots.

    For each test function psi(t) * g(x) with psi(T) = 0 the exact solution
    satisfies

        int_0^T sum_atoms w [psi' g + psi <b, grad g>] dt
            + psi(0) * sum_atoms w0 g = 0;

    the time integral is trapezoidal on the snapshot grid.  The bank pairs
    two time profiles with three spatial tests; the field and the tests
    are evaluated once per snapshot for all six.  Returns the maximum
    absolute residual over the bank.
    """
    snapshots = list(snapshots)
    if len(snapshots) < 2:
        raise ScheduleError("need at least two snapshots in time")
    times = np.array([t for t, _ in snapshots], dtype=float)
    horizon = float(times[-1])
    radius = 1.0
    for _, m in snapshots:
        if m.atom_count:
            radius = max(radius, float(np.max(
                row_norms(m.locations))))
    r_in = 0.6 * radius
    r_out = 1.2 * radius + 1e-6

    # integrand[p, s, i]: profile p, spatial test s, snapshot i
    integrand = np.zeros((2, 3, len(snapshots)))
    initial = np.zeros((2, 3))
    for i, (t, m) in enumerate(snapshots):
        if m.atom_count == 0:
            continue
        vel = evaluate_batch(field, t, m.locations)
        tests = [(g, np.sum(grad * vel, axis=1))
                 for g, grad in _spatial_tests(m.locations, r_in, r_out)]
        for p, (psi, dpsi) in enumerate(_time_profiles(t, horizon)):
            for s, (g, advect) in enumerate(tests):
                integrand[p, s, i] = math.fsum(
                    m.weights * (dpsi * g + psi * advect))
                if i == 0:
                    initial[p, s] = psi * math.fsum(m.weights * g)

    worst = 0.0
    for p in range(2):
        for s in range(3):
            time_part = trapezoid_rule(integrand[p, s], times)
            worst = max(worst, abs(time_part + float(initial[p, s])))
    return worst
