"""Velocity fields with declared growth envelopes and continuity moduli.

A field is packaged with the analytic control data the diagnostics need: a
growth envelope G with ``|b(t,x)| <= C_G * G(|x|)``, a modulus of continuity
omega with ``|b(t,x)-b(t,y)| <= C * omega(|x-y|)`` inside declared radii, and
the list of points where the field is merely log-Lipschitz (used by the
integrator's freeze guard).

Every evaluator is pure and vectorized over a leading batch axis, so the flow
integrator can advance whole atom clouds per call.  The growth envelope is
re-checked at every sampled point; a violation is a hard error because all
downstream bounds silently depend on it.  One comparison of each row's speed
with its cap, the cap held below the largest float, settles a good batch: a
NaN or infinite speed fails it.  Only a failed batch runs the finiteness test
and then the envelope test, to raise the error that names the row.

The plane examples send every row through their radial factor and set the
rows outside 0 < r^2 < 1/4 to zero; the plateau bump runs only on the rows
past r = 1/4.  A row gets the same bits at every batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EnvelopeViolation, FieldError

_ENVELOPE_SLACK = 1e-9  # relative rounding allowance on the hard check
_FLOAT_MAX = np.finfo(float).max


# -- smooth glue ----------------------------------------------------------

def smooth_step(u):
    """C-infinity monotone step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.subtract(u, 1.0)
    np.heaviside(out, 1.0, out=out)  # a / (a + b) outside the open band
    band = (u > 0.0) & (u < 1.0)
    b = u[band]  # a copy, so the band's terms are formed in place
    with np.errstate(divide="ignore", over="ignore"):
        a = np.divide(-1.0, b)
        np.exp(a, out=a)
        np.subtract(1.0, b, out=b)
        np.divide(-1.0, b, out=b)
        np.exp(b, out=b)
    b += a
    out[band] = np.divide(a, b, out=a)
    return float(out[0]) if scalar else out


def smooth_step_derivative(u):
    """Derivative of :func:`smooth_step`; vanishes to all orders at 0 and 1."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    inside = (u > 0.0) & (u < 1.0)
    uu = np.clip(u, 1e-12, 1.0 - 1e-12)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.exp(-1.0 / uu)
        b = np.exp(-1.0 / (1.0 - uu))
        da = a / uu**2
        db = -b / (1.0 - uu)**2
        val = (da * b - a * db) / (a + b)**2
    out = np.where(inside, val, 0.0)
    return float(out[0]) if scalar else out


def plateau_bump(r, r_inner, r_outer):
    """Radial plateau: identically 1 for r <= r_inner, 0 for r >= r_outer."""
    u = np.subtract(r_outer, r, dtype=float)
    u /= r_outer - r_inner
    return smooth_step(u)


def plateau_bump_derivative(r, r_inner, r_outer):
    width = r_outer - r_inner
    return -smooth_step_derivative((r_outer - np.asarray(r, dtype=float))
                                   / width) / width


# -- declared control data -------------------------------------------------

@dataclass(frozen=True)
class GrowthEnvelope:
    """Radial speed envelope G; the integral of 1/G over [r, infinity) must
    diverge (no finite-time escape), which ``build_cutoff`` checks.
    ``level`` is G's value when G is constant, else None."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    level: float | None = None

    def __call__(self, r):
        return self.evaluator(np.asarray(r, dtype=float))

    def at_rows(self, points):
        """G(|x|) for each row x of an (N, n) batch; a constant G returns
        its level as one number, with no row norm taken."""
        if self.level is not None:
            return self.level
        return np.asarray(self.evaluator(row_norms(points)), dtype=float)


@dataclass(frozen=True)
class Modulus:
    """Modulus of continuity; ``osgood`` asserts the integral of 1/omega
    over (0, r] diverges, the uniqueness-grade regularity class."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    osgood: bool

    def __call__(self, s):
        return self.evaluator(np.asarray(s, dtype=float))


def growth_constant(level=1.0):
    level = float(level)
    return GrowthEnvelope(lambda r: np.full_like(np.asarray(r, dtype=float),
                                                 level), level=level)


def growth_affine():
    return GrowthEnvelope(lambda r: 1.0 + np.asarray(r, dtype=float))


def _safe_positive(s):
    # clip away 0 before taking logs; the s factor restores the limit 0
    return np.clip(np.asarray(s, dtype=float), 1e-300, None)


def modulus_linear():
    return Modulus(lambda s: np.asarray(s, dtype=float), osgood=True)


def modulus_log():
    """omega(s) = s*log(e + 1/s): the log-Lipschitz scale."""
    def ev(s):
        s = np.asarray(s, dtype=float)
        return s * np.log(math.e + 1.0 / _safe_positive(s))
    return Modulus(ev, osgood=True)


def modulus_loglog():
    """omega(s) = s*L*log(e+L) with L = log(e + 1/s); still Osgood."""
    def ev(s):
        s = np.asarray(s, dtype=float)
        big_l = np.log(math.e + 1.0 / _safe_positive(s))
        return s * big_l * np.log(math.e + big_l)
    return Modulus(ev, osgood=True)


def modulus_loglog_squared():
    """omega(s) = s*L*log(e+L)^2; the integral of 1/omega converges, so the
    Osgood condition fails."""
    def ev(s):
        s = np.asarray(s, dtype=float)
        big_l = np.log(math.e + 1.0 / _safe_positive(s))
        return s * big_l * np.log(math.e + big_l)**2
    return Modulus(ev, osgood=False)


@dataclass(frozen=True)
class VectorFieldSpec:
    """Evaluable velocity field plus its declared analytic control data.

    ``modulus_constants`` maps ball radii to constants valid for pairs inside
    that ball; lookups pick the smallest declared radius covering the request.
    ``math.inf`` declares a global constant.
    """

    dimension: int
    name: str
    evaluator: Callable[[float, np.ndarray], np.ndarray]  # (t, (N,n)) -> (N,n)
    growth: GrowthEnvelope
    modulus: Modulus
    growth_const: float
    modulus_constants: tuple  # ((radius, constant), ...) sorted by radius
    singular_points: tuple = ()
    lipschitz: bool = False

    def modulus_constant_for(self, radius):
        for declared_radius, const in self.modulus_constants:
            if declared_radius >= radius:
                return const
        raise FieldError(
            f"field '{self.name}' declares no modulus constant covering "
            f"radius {radius:g}")


def row_norms(a):
    """Euclidean norm of each row of an (N, n) array.

    Sums the squares one column at a time, which is several times faster
    than ``np.linalg.norm(a, axis=1)``: numpy's axis-1 reduction runs one
    short inner loop per row.  Through n = 7 the bits equal numpy's; from
    n = 8 on numpy sums in pairwise blocks and may differ by an ulp.
    """
    a = np.asarray(a, dtype=float)
    total = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        total += a[:, j] * a[:, j]
    return np.sqrt(total, out=total)


def _declared(*pairs):
    return tuple(sorted(((float(r), float(c)) for r, c in pairs),
                        key=lambda rc: rc[0]))


def evaluate_batch(field, t, points):
    """Evaluate b(t, .) on an (N, n) batch with the hard envelope check."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != field.dimension:
        raise FieldError(
            f"expected points of shape (N, {field.dimension})")
    velocities = np.asarray(field.evaluator(float(t), points), dtype=float)
    if velocities.shape != points.shape:
        raise FieldError(
            f"field '{field.name}' returned shape {velocities.shape} "
            f"for input {points.shape}")
    with np.errstate(over="ignore"):  # a finite square may overflow
        speeds = row_norms(velocities)
    caps = field.growth_const * field.growth.at_rows(points)
    # one comparison settles a good batch: a NaN speed fails it, and an
    # infinite one fails the cap capped at the largest float
    if np.all(speeds <= np.minimum(caps * (1.0 + _ENVELOPE_SLACK),
                                   _FLOAT_MAX)):
        return velocities
    if not np.all(np.isfinite(velocities)):
        bad = int(np.argmax(~np.all(np.isfinite(velocities), axis=1)))
        raise FieldError(
            f"field '{field.name}' returned a non-finite velocity at "
            f"{points[bad].tolist()} (t={t:g})")
    big = np.isinf(speeds)  # finite rows whose squares overflowed
    if big.any():
        scale = np.max(np.abs(velocities[big]), axis=1)
        with np.errstate(over="ignore"):
            speeds[big] = scale * row_norms(velocities[big] / scale[:, None])
    over = speeds > caps * (1.0 + _ENVELOPE_SLACK)
    if np.any(over):
        bad = int(np.argmax(over))
        raise EnvelopeViolation(
            f"field '{field.name}' broke its growth envelope at "
            f"{points[bad].tolist()}: speed {speeds[bad]:.6g} > "
            f"{np.broadcast_to(caps, speeds.shape)[bad]:.6g}")
    return velocities


# -- catalog ----------------------------------------------------------------

def constant_field(velocity):
    velocity = np.atleast_1d(np.asarray(velocity, dtype=float))
    n = len(velocity)
    speed = float(np.linalg.norm(velocity))

    def ev(t, pts):
        return np.broadcast_to(velocity, pts.shape).copy()

    return VectorFieldSpec(
        dimension=n, name="constant", evaluator=ev,
        growth=growth_constant(), modulus=modulus_linear(),
        growth_const=max(speed, 1.0),
        modulus_constants=_declared((math.inf, 0.0)),
        lipschitz=True)


def linear_field(matrix):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise FieldError("linear field needs a square matrix")
    norm = float(np.linalg.norm(matrix, 2))

    def ev(t, pts):
        # column passes, as in row_norms: a matrix product may take another
        # BLAS path for a 1-row batch and change a row's last bit
        out = np.empty((len(pts), n))
        for i in range(n):
            total = pts[:, 0] * matrix[i, 0]
            for j in range(1, n):
                total += pts[:, j] * matrix[i, j]
            out[:, i] = total
        return out

    return VectorFieldSpec(
        dimension=n, name="linear", evaluator=ev,
        growth=growth_affine(), modulus=modulus_linear(),
        growth_const=max(norm, 1e-12),
        modulus_constants=_declared((math.inf, max(norm, 1e-12))),
        lipschitz=True)


def rotation_field():
    """Planar rigid rotation (-y, x): divergence free, Lipschitz constant 1."""
    def ev(t, pts):
        out = np.empty_like(pts)
        np.negative(pts[:, 1], out=out[:, 0])
        out[:, 1] = pts[:, 0]
        return out

    return VectorFieldSpec(
        dimension=2, name="rotation", evaluator=ev,
        growth=growth_affine(), modulus=modulus_linear(),
        growth_const=1.0,
        modulus_constants=_declared((math.inf, 1.0)),
        lipschitz=True)


_MARGIN = 1e-3  # smooth matching width for the interval field


def osgood_1d_field(modulus_constant=3.0):
    """b(x) = -x log x on (0,1), ramped to 0 over margins of width 1e-3.

    The declared modulus is s*log(e + 1/s).  The default constant was fixed
    by dense-pair estimation over [-2, 2] (empirical sup ~ 1.9) and is
    re-verified by the test suite.
    """
    def ev(t, pts):
        x = pts[:, 0]
        inside = (x > 0.0) & (x < 1.0)
        xs = np.clip(x, 1e-300, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = np.where(inside, -xs * np.log(xs), 0.0)
        ramp = smooth_step(x / _MARGIN) * smooth_step((1.0 - x) / _MARGIN)
        return (core * ramp).reshape(-1, 1)

    return VectorFieldSpec(
        dimension=1, name="osgood1d", evaluator=ev,
        growth=growth_constant(), modulus=modulus_log(),
        growth_const=0.5,
        modulus_constants=_declared((math.inf, float(modulus_constant))))


# Radial truncation shared by the two plane examples: identically 1 on
# B(0, 1/4), vanishing outside B(0, 1/2).  Keeps the log(-log r^2) factors
# inside their domain r < 1.
_TRUNC_INNER = 0.25
_TRUNC_OUTER = 0.5


def _plane_example_evaluator(radial_factor, flip_y):
    def ev(t, pts):
        x, y = pts[:, 0], pts[:, 1]
        r2 = x * x
        r2 += y * y
        # every row through the radial factor (log 0 and the logs of r^2 >= 1
        # warn), then the rows outside 0 < r^2 < 1/4 set to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = radial_factor(r2)
        factor[~((r2 > 0.0) & (r2 < _TRUNC_OUTER**2))] = 0.0
        # the bump is exactly 1 wherever r^2 <= 1/16 (sqrt and 0.5 - r round
        # monotonically, and /0.25 is exact); NaN rows stay in the band
        band = ~(r2 <= _TRUNC_INNER**2)
        if band.any():
            r = r2[band]
            factor[band] *= plateau_bump(np.sqrt(r, out=r), _TRUNC_INNER,
                                         _TRUNC_OUTER)
        out = np.empty_like(pts)
        np.multiply(x, factor, out=out[:, 0])
        np.multiply(-y if flip_y else y, factor, out=out[:, 1])
        return out
    return ev


def osgood_plane_field(modulus_constant=9.0):
    """Plane field (x*f, y*f) with f = log(r^2)*log(-log(r^2)), truncated
    outside radius 1/2.

    Not Lipschitz at the origin; its modulus s*L*log(e+L) is still Osgood,
    so trajectories through the origin remain unique.  The default constant
    is an empirical sup (~4.7 over the truncation disk) with headroom.
    """
    def f(r2):
        log_r2 = np.log(r2)
        factor = np.negative(log_r2)
        np.log(factor, out=factor)
        factor *= log_r2
        return factor

    return VectorFieldSpec(
        dimension=2, name="osgood_plane", evaluator=_plane_example_evaluator(f, False),
        growth=growth_constant(), modulus=modulus_loglog(),
        growth_const=1.0,
        modulus_constants=_declared((math.inf, float(modulus_constant))),
        singular_points=(np.zeros(2),))


def nonosgood_plane_field(modulus_constant=11.0):
    """Plane field (x*g, -y*g) with g = log(r^2)*log(-log(r^2))^2, truncated
    outside radius 1/2.

    The squared outer log breaks the Osgood condition: 1/omega is integrable
    at 0 and uniqueness through the origin fails in the continuous problem.
    """
    def g(r2):
        log_r2 = np.log(r2)
        return log_r2 * np.log(-log_r2)**2

    return VectorFieldSpec(
        dimension=2, name="nonosgood_plane",
        evaluator=_plane_example_evaluator(g, True),
        growth=growth_constant(), modulus=modulus_loglog_squared(),
        growth_const=1.5,
        modulus_constants=_declared((math.inf, float(modulus_constant))),
        singular_points=(np.zeros(2),))


FIELD_CATALOG = {
    "constant": constant_field,
    "linear": linear_field,
    "rotation": rotation_field,
    "osgood1d": osgood_1d_field,
    "osgood_plane": osgood_plane_field,
    "nonosgood_plane": nonosgood_plane_field,
}
