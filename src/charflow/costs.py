"""Concave transport costs built from a modulus of continuity.

The cost of moving mass a distance r is

    c(r) = beta * integral_0^r ds / (omega'(s) + delta)

where omega' agrees with the modulus below 1 and is inflated to at least
omega(1)*s^2 beyond (making the total integral finite, so the cost
saturates).  Concavity is automatic: the integrand is positive and
nonincreasing.  c(0) = 0 and subadditivity follow, which is what lets the
cost act as a metric on measures with mass parked at the absorbing point.

Evaluation strategy: a geometric knot table carries exact-cumulative values
(compensated summation), and every query adds the residual from the nearest
knot with the fixed rule of :class:`KnotTable`, which also tabulates the
cutoff window in diagnostics: 4 Gauss-Legendre nodes inside one interval
whose left knot is positive, 32 on the interval from 0 (where omega has its
log singularity) and beyond the last knot.  The ceiling c_infinity adds to
the last knot's value the tail beyond it in closed form on the quadratic
floor, as J below does.

The saturation integral J(delta), the total of the integral above over
beta, is a fixed composite rule: omega' is evaluated once per modulus on the
32 Gauss-Legendre nodes of each interval of a geometric grid, and each J is
one weighted sum over that node table.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import CostRangeError, FieldError, QuadratureError
from .fields import Modulus

_TABLE_SIZE = 6144
_TABLE_FLOOR = 1e-9
# below this radius the density is constant to roundoff, while the rule's
# half-width would underflow: c(r) = r * density(r) there
_LINEAR_FLOOR = 1e-300
# Gauss-Legendre rules on [-1, 1] by node count: 32 for table builds and
# singular or unbounded residuals, 4 for a residual inside one knot interval
_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (4, 32)}
# J's node grid: 16 intervals per decade from 1e-300 to 1e13, edges 10^(i/16)
# with i/16 exact in binary, so s = 1 (the tail splice) is an edge
_J_DECADE_PARTS = 16
_J_LOW, _J_HIGH = -300, 13
_J_TABLES = weakref.WeakKeyDictionary()


def _rule_nodes(lo, hi, order):
    """Nodes of the ``order``-node rule on each [lo, hi], and half-widths."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[..., None] + half[..., None] * _RULES[order][0], half


def gauss_legendre(density, lo, hi, order=32):
    """Gauss-Legendre integrals of ``density`` over each [lo, hi].

    ``lo`` and ``hi`` are arrays that broadcast together; ``density`` is
    called once on every node of every interval and must accept a flat
    array.  ``order`` is the node count per interval, 4 or 32.
    """
    nodes, half = _rule_nodes(lo, hi, order)
    vals = np.asarray(density(nodes.ravel()),
                      dtype=float).reshape(nodes.shape)
    return (vals * _RULES[order][1]).sum(axis=-1) * half


@dataclass(frozen=True)
class KnotTable:
    """Cumulative integral of ``density`` tabulated at increasing ``knots``.

    ``values[i]`` is the integral from ``knots[0]`` to ``knots[i]``.  Point
    values add the residual from the nearest knot at or below the point.
    Inside one interval whose left knot is positive the residual takes 4
    nodes: on the canned moduli and cutoff tables, where such an interval
    is at most 0.83 % of its radius wide and the density is smooth, they
    agree with 32 nodes within 4.4e-16 of the value.  The interval from a
    zero knot, where a modulus may be singular, and points beyond the last
    knot, which integrate on from it, keep 32 nodes.
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
        """Integral from the first knot to each r: table plus residual."""
        base_r, base_v = self.base(r)
        out = np.empty(np.shape(r))
        short = (base_r > 0.0) & (r <= self.knots[-1])
        for order, where in ((4, short), (32, ~short)):
            if where.any():
                out[where] = base_v[where] + gauss_legendre(
                    self.density, base_r[where], r[where], order)
        return out


def tail_modify(mod):
    """Inflate a modulus beyond s=1 to omega'(s) = max(omega(s), omega(1)*s^2).

    Leaves the modulus untouched on [0, 1]; the quadratic lower bound on the
    tail is what forces the associated cost to saturate at a finite value.
    """
    omega_one = float(mod(1.0))
    if omega_one <= 0.0:
        raise FieldError("modulus must be positive at 1 to modify its tail")

    def ev(s):
        s = np.asarray(s, dtype=float)
        base = np.asarray(mod(s), dtype=float)
        # the quadratic floor may overflow to inf at extreme radii, which is
        # the right answer for a saturating cost (density 0 there)
        with np.errstate(over="ignore"):
            return np.where(s <= 1.0, base,
                            np.maximum(base, omega_one * s * s))

    return Modulus(ev, osgood=mod.osgood)


def _saturation_nodes(mod):
    """(weights, omega') on J's node grid, built once per live modulus."""
    table = _J_TABLES.get(mod)
    if table is None:
        powers = np.arange(_J_LOW * _J_DECADE_PARTS,
                           _J_HIGH * _J_DECADE_PARTS + 1) / _J_DECADE_PARTS
        edges = 10.0 ** powers
        nodes, half = _rule_nodes(edges[:-1], edges[1:], 32)
        weights = (half[:, None] * _RULES[32][1]).ravel()
        omega = np.asarray(tail_modify(mod)(nodes.ravel()), dtype=float)
        table = _J_TABLES[mod] = (weights, omega)
    return table


def saturation_integral(mod, delta):
    """Total integral J of 1/(omega'(s) + delta) over [0, infinity).

    Equals c_infinity / beta for the cost built on the same (tail-modified)
    modulus.  J is one weighted sum over a node table of the modulus: the
    32 Gauss-Legendre nodes on each interval of a geometric grid from
    S0 = 1e-300 to S1 = 1e13, 16 intervals per decade (160,256 nodes), plus
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
    weights, omega = _saturation_nodes(mod)
    return (float(np.sum(weights / (omega + delta)))
            + _floor_tail(float(mod(1.0)), delta, 10.0**_J_HIGH))


def _floor_tail(omega_one, delta, start):
    """int_start^inf ds / (omega_one s^2 + delta), in closed form.

    Beyond s = 1 a modulus that grows at most linearly, omega(s) <=
    omega(1)*s, lies under the quadratic floor, so this is the tail of the
    tail-modified integrand.
    """
    scale = math.sqrt(omega_one * delta)
    return math.atan(delta / (scale * start)) / scale


def _compensated_cumsum(increments):
    out = np.empty(len(increments))
    total = 0.0
    carry = 0.0
    for i, inc in enumerate(increments):
        y = inc + carry
        t = total + y
        carry = y - (t - total)
        total = t
        out[i] = total
    return out


class ConcaveCost:
    """Saturating concave cost c(r) = beta * int_0^r ds/(omega'(s)+delta)."""

    def __init__(self, modulus, delta, beta):
        for name, value in (("delta", delta), ("beta", beta)):
            if not math.isfinite(float(value)) or float(value) <= 0.0:
                raise FieldError(f"{name} must be positive and finite")
        self.modulus = modulus
        self.delta = float(delta)
        self.beta = float(beta)
        self._omega = tail_modify(modulus)
        self._build_table()

    # integrand of the cost, vectorized
    def _density(self, s):
        s = np.asarray(s, dtype=float)
        return self.beta / (np.asarray(self._omega(s), dtype=float)
                            + self.delta)

    def _build_table(self):
        omega_one = float(self.modulus(1.0))
        # Beyond S the remaining tail mass is below beta/(omega(1)*S);
        # push it under the evaluation tolerance.
        top = max(1e13 * self.beta / max(omega_one, 1e-300), 1e6)
        # The integrand's knee sits near delta; the geometric grid must
        # start well below it or the vectorized evaluator goes blind there.
        floor = max(min(_TABLE_FLOOR, self.delta * 1e-5), 1e-250)
        grid = np.geomspace(floor, top, _TABLE_SIZE)
        knots = np.unique(np.concatenate([[0.0, 1.0], grid]))
        lo, hi = knots[:-1], knots[1:]
        increments = gauss_legendre(self._density, lo, hi)

        if np.any(increments < 0.0):
            raise QuadratureError("cost increments must be nonnegative")
        slopes = increments / (hi - lo)
        cap = self.beta / self.delta
        if np.any(slopes > cap * (1.0 + 1e-9)):
            raise QuadratureError("cost slope exceeded beta/delta")
        if np.any(slopes[1:] > slopes[:-1] * (1.0 + 1e-9) + 1e-30):
            raise QuadratureError("cost table lost concavity")

        self._table = KnotTable(
            knots, np.concatenate([[0.0], _compensated_cumsum(increments)]),
            self._density)
        self.c_infinity = float(self._table.values[-1] + self.beta
                                * _floor_tail(omega_one, self.delta, top))

    def cost_many(self, radii):
        """Cost of each radius: the knot table plus :class:`KnotTable`'s
        fixed residual rule (4 nodes inside a positive-knot interval, 32
        below the first positive knot and beyond the last), and
        r * density(r) below 1e-300.

        On the canned moduli (radii 1e-30 to 1e3 and beyond the last knot,
        delta 1 down to 1e-13) each entry matches the table plus an
        adaptive residual within 3e-11 relative.  A scalar radius gives a
        float; :meth:`cost` is this same method.
        """
        radii = np.asarray(radii, dtype=float)
        flat = np.atleast_1d(radii).ravel()
        if np.any(flat < 0.0) or np.any(np.isnan(flat)):
            raise CostRangeError("cost argument must be a nonnegative radius")
        out = np.empty(flat.shape)
        infinite = np.isinf(flat)
        out[infinite] = self.c_infinity
        tiny = flat < _LINEAR_FLOOR
        if tiny.any():
            out[tiny] = flat[tiny] * self._density(flat[tiny])
        rest = ~(infinite | tiny)
        if rest.any():
            out[rest] = np.minimum(self._table.value(flat[rest]),
                                   self.c_infinity)
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

        # bracket from the table; past the last knot's value only the tail
        # remains, below beta/(omega(1)*top) <= 1e-13 < tol, so the f_lo
        # check returns the last knot
        knots = self._table.knots
        pos = int(np.searchsorted(self._table.values, v))
        lo = float(knots[pos - 1])
        hi = float(knots[min(pos, len(knots) - 1)])

        f_lo = self.cost(lo) - v
        if abs(f_lo) <= tol:
            return lo
        r = 0.5 * (lo + hi)
        for _ in range(200):
            f = self.cost(r) - v
            if abs(f) <= tol:
                return r
            if f > 0.0:
                hi = r
            else:
                lo = r
            slope = self.cost_derivative(r)
            step = r - f / slope if slope > 0.0 else math.inf
            if lo < step < hi:
                r = step
            else:
                r = 0.5 * (lo + hi)
        raise CostRangeError(
            "cost inversion stalled before reaching tolerance")


def reference_cost(r):
    """The benchmark metric cost min(r, 1); saturates at 1 by itself."""
    r = np.asarray(r, dtype=float)
    if np.any(np.isnan(r)) or np.any(r < 0.0):
        raise CostRangeError("cost argument must be a nonnegative radius")
    out = np.minimum(r, 1.0)
    return float(out) if out.ndim == 0 else out
