"""Concave transport costs built from a modulus of continuity.

The cost of moving mass a distance r is

    c(r) = beta * integral_0^r ds / (omega'(s) + delta)

where omega' agrees with the modulus below 1 and is inflated to at least
omega(1)*s^2 beyond (making the total integral finite, so the cost
saturates).  Concavity is automatic: the integrand is positive and
nonincreasing.  c(0) = 0 and subadditivity follow, which is what lets the
cost act as a metric on measures with mass parked at the absorbing point.

Evaluation strategy: a geometric knot table carries exact-cumulative values
(compensated summation); point queries integrate the short residual from the
nearest knot with adaptive quadrature, so table density never limits
accuracy.  The vectorized path takes the residual with the 32-node rule of
:class:`KnotTable`, which also tabulates the cutoff window in diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate

from .errors import CostRangeError, FieldError, QuadratureError
from .fields import Modulus

_TABLE_SIZE = 6144
_TABLE_FLOOR = 1e-9
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_legendre(density, lo, hi):
    """32-node Gauss-Legendre integrals of ``density`` over each [lo, hi].

    ``lo`` and ``hi`` are arrays that broadcast together; ``density`` is
    called once on every node of every interval and must accept a flat
    array.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = np.asarray(density(nodes.ravel()),
                      dtype=float).reshape(nodes.shape)
    return (vals * _GL_WEIGHTS).sum(axis=-1) * half


@dataclass(frozen=True)
class KnotTable:
    """Cumulative integral of ``density`` tabulated at increasing ``knots``.

    ``values[i]`` is the integral from ``knots[0]`` to ``knots[i]``.  Point
    values add the 32-node residual from the nearest knot at or below the
    point; points beyond the last knot integrate on from it.
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
        return base_v + gauss_legendre(self.density, base_r, r)


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

    return Modulus(ev, osgood=mod.osgood, closed_form_tag=None)


def saturation_integral(mod, delta):
    """Total integral of 1/(omega'(s) + delta) over [0, infinity).

    Equals c_infinity / beta for the cost built on the same (tail-modified)
    modulus.  Cheap enough to sit inside a root search over delta.
    """
    delta = float(delta)
    if delta <= 0.0:
        raise FieldError("delta must be positive")
    modified = tail_modify(mod)

    def integrand(s):
        return 1.0 / (float(modified(s)) + delta)

    # The integrand transitions near s ~ delta (plateau 1/delta ends) and at
    # the tail splice s = 1; integrate the pieces separately.  full_output
    # keeps quad quiet when an extreme delta degrades the error estimate;
    # the value is still good far beyond what the root search needs.
    cut = min(delta, 1.0)
    pieces = []
    for a, b in ((0.0, cut), (cut, 1.0), (1.0, np.inf)):
        if a >= b:
            continue
        result = scipy.integrate.quad(integrand, a, b, limit=400,
                                      epsabs=1e-14, epsrel=1e-11,
                                      full_output=1)
        if not np.isfinite(result[0]):
            raise QuadratureError("saturation integral failed",
                                  partial=result[0])
        pieces.append(result[0])
    return math.fsum(pieces)


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
        if float(delta) <= 0.0:
            raise FieldError("delta must be positive")
        if float(beta) <= 0.0:
            raise FieldError("beta must be positive")
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
        self.c_infinity = float(self._table.values[-1] + self._tail(top))

    def _tail(self, a):
        """Integral of the density from ``a`` to infinity."""
        tail, _ = scipy.integrate.quad(lambda s: float(self._density(s)),
                                       a, np.inf, limit=200, epsabs=1e-15,
                                       epsrel=1e-11)
        return tail

    # -- point evaluation --------------------------------------------------

    def _residual(self, a, b):
        if b <= a:
            return 0.0
        val, err = scipy.integrate.quad(lambda s: float(self._density(s)),
                                        a, b, limit=200,
                                        epsabs=1e-13, epsrel=1e-12)
        if not np.isfinite(val):
            raise QuadratureError("cost residual quadrature failed",
                                  partial=val)
        return val

    def cost(self, r):
        r = float(r)
        if r < 0.0 or math.isnan(r):
            raise CostRangeError("cost argument must be a nonnegative radius")
        if r == 0.0:
            return 0.0
        if math.isinf(r):
            return self.c_infinity
        if r > self._table.knots[-1]:
            # the tail that sets c_infinity, cut at r instead of the last knot
            return self.c_infinity - self._tail(r)
        base_r, base_v = self._table.base(r)
        value = base_v + self._residual(base_r, r)
        return min(value, self.c_infinity)

    def cost_many(self, radii):
        """Vectorized cost: a fixed 32-node rule on the sub-knot residual.

        Each entry matches :meth:`cost` within 3e-11 relative on the canned
        moduli (radii 1e-14 to 1e4, delta 1 down to 1e-13).
        """
        radii = np.asarray(radii, dtype=float)
        flat = np.atleast_1d(radii).ravel()
        if np.any(flat < 0.0) or np.any(np.isnan(flat)):
            raise CostRangeError("cost argument must be a nonnegative radius")
        out = np.empty(flat.shape)
        infinite = np.isinf(flat)
        out[infinite] = self.c_infinity
        finite = ~infinite
        rs = flat[finite]
        if len(rs):
            out[finite] = np.minimum(self._table.value(rs), self.c_infinity)
        return out.reshape(radii.shape) if radii.ndim else float(out[0])

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
        if self.cost(0.0) >= v - tol and v <= tol:
            return 0.0

        # bracket from the table
        pos = int(np.searchsorted(self._table.values, v))
        if pos >= len(self._table.values):
            lo = float(self._table.knots[-1])
            hi = lo
            for _ in range(2000):
                hi *= 2.0
                if self.cost(hi) >= v:
                    break
            else:
                raise CostRangeError("value outside cost range")
        else:
            lo = float(self._table.knots[max(pos - 1, 0)])
            hi = float(self._table.knots[pos])

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
