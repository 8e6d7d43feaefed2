"""Concave transport costs built from a modulus of continuity.

The cost of moving mass a distance r is

    c(r) = beta * integral_0^r ds / (omega'(s) + delta)

where omega' agrees with the modulus below 1 and is inflated to at least
omega(1)*s^2 beyond (making the total integral finite, so the cost
saturates).  Concavity is automatic: the integrand is positive and
nonincreasing.  c(0) = 0 and subadditivity follow, which is what lets the
cost act as a metric on measures with mass parked at the absorbing point.

Evaluation strategy: one rule, 4-node Gauss-Legendre, on one geometric
grid (:func:`grid_edges`), evaluated by one blocked evaluator
(:func:`_rule_blocks`) a block of ``_BLOCK`` intervals at a time, so no
quadrature holds more than one block of nodes, whatever the grid or the
batch.  omega' is tabulated at the rule's nodes in each grid interval
from 1e-300 to 1e13, once per modulus: the table lives as long as the
modulus, or until a scenario run that has built all its costs drops it
(:func:`_drop_node_table`).  J(delta), the total of the
integral above over beta, is one weighted sum over that node table plus
the tail beyond 1e13 in closed form on the quadratic floor.  A cost sums
the same terms per interval into its knot table and takes its ceiling
c_infinity = beta * J(delta) from them, so a cost built on a modulus that
J has seen evaluates no modulus.  A query adds to the value at the nearest
knot the 4-node residual of :class:`KnotTable`, a block of points at a
time, which also holds the cutoff window in diagnostics; below the first
knot the cost is r * density(r), and beyond the last one the closed-form
floor tail.  Each value takes the same bits in any block or batch.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import CostRangeError, FieldError, QuadratureError
from .fields import Modulus

# the one Gauss-Legendre rule on [-1, 1], for every table and residual
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(4)
_NODE_TABLES = weakref.WeakKeyDictionary()
# intervals (or points) per block of every 4-node quadrature, and cells per
# block of the transport assembly's passes: their temporaries stay a few
# hundred KiB, whatever the grid, the batch or the pair
_BLOCK = 2048
_BRENT_ITERATIONS = 100


def grid_edges(first=-300 * 128):
    """Edges 10**(i/128), i = first ... 13*128: 128 intervals per decade,
    each 1.8 % of its radius wide; i/128 is exact, so s = 1 is an edge."""
    return 10.0 ** (np.arange(first, 13 * 128 + 1) / 128)


def _blocks(count):
    """Slices of at most ``_BLOCK`` consecutive items that cover
    range(count), in order."""
    return (slice(start, start + _BLOCK) for start in range(0, count, _BLOCK))


def _rule_nodes(lo, hi):
    """Nodes of the 4-node rule on each [lo, hi], and half-widths."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[..., None] + half[..., None] * _NODES, half


def _rule_blocks(density, lo, hi):
    """``density`` on the rule nodes of the intervals [lo, hi] of two flat
    arrays of one length, a block of at most ``_BLOCK`` intervals at a time.

    Yields each block's slice, the density on its nodes (one row of 4 per
    interval) and its half-widths; ``density`` is called once per block, on
    the flat array of the block's nodes.
    """
    for part in _blocks(len(lo)):
        nodes, half = _rule_nodes(lo[part], hi[part])
        vals = np.asarray(density(nodes.ravel()), dtype=float)
        yield part, vals.reshape(nodes.shape), half


def gauss_legendre(density, lo, hi):
    """4-node Gauss-Legendre integrals of ``density`` over each [lo, hi].

    ``lo`` and ``hi`` are flat arrays of one length; ``density`` must
    accept a flat array and is called once per block of at most ``_BLOCK``
    intervals, on every node of the block.  Each integral takes the same
    bits in any block.
    """
    out = np.empty(len(lo))
    for part, vals, half in _rule_blocks(density, lo, hi):
        out[part] = (vals * _WEIGHTS).sum(axis=-1) * half
    return out


@dataclass(frozen=True)
class KnotTable:
    """Cumulative integral of ``density`` tabulated at increasing ``knots``.

    ``values[i]`` is the integral from ``knots[0]`` to ``knots[i]``.  A
    point in [knots[0], knots[-1]] adds the 4-node residual from the nearest
    knot at or below it.  Costs and cutoffs take their positive knots from
    :func:`grid_edges`; on the canned moduli and growth envelopes that
    agrees with 32 nodes within 4.4e-16 of the value.  Callers keep their
    points off an interval from a zero knot, where the density may be
    singular.
    """

    knots: np.ndarray
    values: np.ndarray
    density: object

    def base(self, r):
        """(knot, cumulative value) at the nearest knot at or below r."""
        idx = np.clip(np.searchsorted(self.knots, r, side="right") - 1,
                      0, len(self.knots) - 1)
        return self.knots[idx], self.values[idx]

    def value(self, r):
        """Integral from the first knot to each r: table plus residual,
        ``_BLOCK`` points at a time."""
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        flat_r, flat = r.reshape(-1), out.reshape(-1)
        for part in _blocks(flat.size):
            base_r, base_v = self.base(flat_r[part])
            flat[part] = base_v + gauss_legendre(self.density, base_r,
                                                 flat_r[part])
        return out


def excess(x, f, target):
    """f(x) - target, the package's one root function: :func:`brentq`
    brackets its sign change."""
    return float(f(x)) - target


def brentq(f, target, a, b, xtol, rtol, disp=True):
    """The x in [a, b] where f(x) = target, by Brent's method on
    :func:`excess` (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4).

    A step-for-step port of the C ``brentq`` of the reference
    implementation, whose floats and errors the tests compare bit for bit:
    a ValueError for a NaN value or for equal signs at the ends, and a
    RuntimeError after 100 iterations without convergence, which
    ``disp=False`` turns into returning the last iterate.  ``xtol`` must be
    positive and ``rtol`` at least 4 eps.
    """
    xpre, xcur = float(a), float(b)
    xtol, rtol = float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = _finite_excess(xpre, f, target)
    fcur = _finite_excess(xcur, f, target)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C's infinite or NaN step, refused below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _finite_excess(xcur, f, target)
    if disp:
        raise RuntimeError(
            f"Failed to converge after {_BRENT_ITERATIONS} iterations.")
    return xcur


def _finite_excess(x, f, target):
    """:func:`excess` at x; a ValueError where it is NaN."""
    value = excess(x, f, target)
    if math.isnan(value):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return value


def tail_modify(mod):
    """Inflate a modulus beyond s=1 to omega'(s) = max(omega(s), omega(1)*s^2).

    Leaves the modulus untouched on [0, 1]; the quadratic lower bound on the
    tail is what forces the associated cost to saturate at a finite value.
    """
    omega_one = float(mod(1.0))
    if omega_one <= 0.0:
        raise FieldError("modulus must be positive at 1 to modify its tail")
    return Modulus(lambda s: _raised_tail(mod, omega_one, s),
                   osgood=mod.osgood)


def _raised_tail(mod, omega_one, s):
    """omega'(s) for the modulus ``mod`` with omega(1) = ``omega_one``."""
    s = np.asarray(s, dtype=float)
    base = np.asarray(mod(s), dtype=float)
    # the quadratic floor may overflow to inf at extreme radii, which is the
    # right answer for a saturating cost (density 0 there)
    with np.errstate(over="ignore"):
        return np.where(s <= 1.0, base, np.maximum(base, omega_one * s * s))


def _node_table(mod):
    """(edges, rule weight of each node, omega' at each node, omega(1)) on
    the node grid of ``mod``, built once per live modulus."""
    table = _NODE_TABLES.get(mod)
    if table is None:
        edges = grid_edges()
        weights = np.empty((len(edges) - 1, len(_WEIGHTS)))
        omega = np.empty_like(weights)
        modified = tail_modify(mod)
        for part, vals, half in _rule_blocks(modified, edges[:-1], edges[1:]):
            omega[part] = vals
            np.multiply(half[:, None], _WEIGHTS, out=weights[part])
        table = _NODE_TABLES[mod] = (edges, weights.ravel(), omega.ravel(),
                                     float(modified(1.0)))
    return table


def _drop_node_table(mod):
    """Drop ``mod``'s node table before its modulus dies.  Only J and a
    cost's construction read it, so a run that has built its costs ends
    its 2.75 MiB here, before the transport solves."""
    _NODE_TABLES.pop(mod, None)


def _saturation_terms(mod, delta):
    """J's terms w / (omega' + delta), one per node, and J: their sum plus
    the floor tail beyond the last edge."""
    edges, weights, omega, omega_one = _node_table(mod)
    terms = np.add(omega, delta)
    np.divide(weights, terms, out=terms)
    return terms, float(np.sum(terms)) + float(
        _floor_tail(omega_one, delta, edges[-1]))


def saturation_integral(mod, delta):
    """Total integral J of 1/(omega'(s) + delta) over [0, infinity).

    The ``j_value`` of a cost built on the same modulus and delta equals J
    bit for bit.  J is one weighted sum over the modulus's node table: the 4
    Gauss-Legendre nodes on each interval of a geometric grid from
    S0 = 1e-300 to S1 = 1e13, 128 intervals per decade (160,256 nodes), plus
    the tail beyond S1 in closed form on the quadratic floor omega(1)*s^2,
    which is below 1/(omega(1)*S1).  The head over [0, S0] is left out; it
    is below S0/delta, under 1e-20 on the schedule's clamp delta >= 1e-280.
    On the linear modulus J matches its closed form within 5e-16 relative
    over that clamp (measured on 600 deltas), and J strictly decreases as
    delta grows: each term does, and the summation order is fixed.
    """
    delta = float(delta)
    if not math.isfinite(delta) or delta <= 0.0:
        raise FieldError("delta must be positive and finite")
    return _saturation_terms(mod, delta)[1]


def _floor_tail(omega_one, delta, start):
    """int_start^inf ds / (omega_one s^2 + delta), in closed form.

    Beyond s = 1 a modulus that grows at most linearly, omega(s) <=
    omega(1)*s, lies under the quadratic floor, so this is the tail of the
    tail-modified integrand.  ``start`` may be an array.
    """
    scale = math.sqrt(omega_one * delta)
    return np.arctan(delta / (scale * start)) / scale


class ConcaveCost:
    """Saturating concave cost c(r) = beta * int_0^r ds/(omega'(s)+delta)."""

    def __init__(self, modulus, delta, beta):
        for name, value in (("delta", delta), ("beta", beta)):
            if not math.isfinite(float(value)) or float(value) <= 0.0:
                raise FieldError(f"{name} must be positive and finite")
        self.modulus = modulus
        self.delta = delta = float(delta)
        self.beta = beta = float(beta)
        edges, _, _, omega_one = _node_table(modulus)
        self._omega_one = omega_one
        terms, self._j_value = _saturation_terms(modulus, delta)
        self.c_infinity = beta * self._j_value

        # one increment per interval of the node grid, from the first that
        # is a normal float (subnormal ones lose the digits the audits read);
        # below it the density is beta/delta to roundoff
        increments = beta * sum(terms[i::4] for i in range(4))
        first = int(np.argmax(increments >= np.finfo(float).tiny))
        knots = np.concatenate([[0.0], edges[first:]])
        cap = beta / delta
        steps = np.concatenate([[knots[1] * cap], increments[first:]])

        if np.any(steps < 0.0):
            raise QuadratureError("cost increments must be nonnegative")
        slopes = steps / np.diff(knots)
        if np.any(slopes > cap * (1.0 + 1e-9)):
            raise QuadratureError("cost slope exceeded beta/delta")
        if np.any(slopes[1:] > slopes[:-1] * (1.0 + 1e-9) + 1e-30):
            raise QuadratureError("cost table lost concavity")

        # the integrand, vectorized: a closure, not a method, so the table
        # holds no reference cycle and is freed with the cost
        def density(s):
            return beta / (_raised_tail(modulus, omega_one, s) + delta)

        self._density = density
        self._table = KnotTable(
            knots, np.concatenate([[0.0], np.cumsum(steps)]), density)

    @property
    def j_value(self):
        """J(delta) of this cost's modulus, :func:`saturation_integral` bit
        for bit; ``c_infinity`` is ``beta * j_value``."""
        return self._j_value

    def cost_many(self, radii):
        """Cost of each radius, clipped at c_infinity: the knot table plus
        :class:`KnotTable`'s 4-node residual, r * density(r) below the
        first positive knot, and the closed-form floor tail beyond the last
        knot (1e13).

        On the canned moduli (radii 1e-30 to 1e3 and beyond the last knot,
        delta 1 down to 1e-13) each entry matches the table plus an
        adaptive residual within 3e-11 relative, and an adaptive integral
        from 0 within 1e-13.  A scalar radius gives a float; :meth:`cost`
        is this same method.
        """
        radii = np.asarray(radii, dtype=float)
        flat = np.atleast_1d(radii).ravel()
        if np.any(flat < 0.0) or np.any(np.isnan(flat)):
            raise CostRangeError("cost argument must be a nonnegative radius")
        knots = self._table.knots
        out = np.empty(flat.shape)
        head = flat < knots[1]
        past = flat > knots[-1]
        inside = ~(head | past)
        if head.any():
            out[head] = flat[head] * self._density(flat[head])
        if inside.any():
            out[inside] = self._table.value(flat[inside])
        if past.any():
            out[past] = self.c_infinity - self.beta * _floor_tail(
                self._omega_one, self.delta, flat[past])
        np.minimum(out, self.c_infinity, out=out)
        return out.reshape(radii.shape) if radii.ndim else float(out[0])

    cost = cost_many

    def cost_derivative(self, r):
        """Right slope beta / (omega'(r) + delta); equals beta/delta at 0.

        An array of radii gives an array of slopes, as :meth:`cost_many`
        does; each entry equals the scalar call bit for bit.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(np.isnan(r)):
            raise CostRangeError("cost argument must be a nonnegative radius")
        slopes = self._density(r)
        return slopes if r.ndim else float(slopes)

    def cost_inverse(self, value):
        """Radius r with |cost(r) - value| <= 1e-12 * max(1, value)."""
        v = float(value)
        if math.isnan(v) or v < 0.0 or v > self.c_infinity:
            raise CostRangeError("value outside cost range")
        tol = 1e-12 * max(1.0, v)
        if v <= tol:
            return 0.0

        knots, values = self._table.knots, self._table.values
        if v >= values[-1]:
            # past the last knot c(r) = c_infinity - beta * tail(r): invert
            # the tail's closed form, at most tol/2 short of the ceiling,
            # which no finite radius reaches
            top = float(_floor_tail(self._omega_one, self.delta, knots[-1]))
            rest = min(max(self.c_infinity - v, 0.5 * tol) / self.beta, top)
            scale = math.sqrt(self._omega_one * self.delta)
            r = self.delta / (scale * math.tan(scale * rest))
        else:
            # the knots on either side of v bracket its root
            pos = int(np.searchsorted(values, v))
            r = brentq(self.cost, v, knots[pos - 1], knots[pos],
                       xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
                       disp=False)
        if abs(self.cost(r) - v) <= tol:
            return r
        raise CostRangeError(
            "cost inversion stalled before reaching tolerance")


def reference_cost(r):
    """The benchmark metric cost min(r, 1); saturates at 1 by itself."""
    r = np.asarray(r, dtype=float)
    if np.any(np.isnan(r)) or np.any(r < 0.0):
        raise CostRangeError("cost argument must be a nonnegative radius")
    out = np.minimum(r, 1.0)
    return float(out) if out.ndim == 0 else out
