"""Characteristic flow of a velocity field for whole atom clouds.

Dormand-Prince 5(4) with FSAL and a PI step controller drives every atom of
a batch through the same time grid; the step is accepted only when every
atom meets the componentwise scaled tolerance, so a batched push is exactly
as accurate per atom as N separate integrations (while sharing step-size
work).  Atoms that drift within 1e-8, ``FlowOptions.freeze_radius``, of a
declared singular point are frozen in place for the rest of the segment:
past that distance the field is below every useful modulus scale and
chasing it only burns steps.

Frozen atoms leave the stepper: the stages, their sums, the error norm and
the freeze test run on a compacted array of the live rows, which drops the
atoms that freeze after an accepted step.  The first stage of the next step
is the compacted last stage of the accepted one (FSAL), not a new field
call: those rows were checked against the envelope at the same points, and
a catalog field gives a row the same bits at every batch size.  Every
velocity the stepper uses is therefore checked against the growth envelope
by ``evaluate_batch``.  An atom that freezes during a push had its point
checked at the step where it froze; it never moves again and no catalog
field depends on t, so each dropped check would only repeat one already
made.  A segment with no live row left ends at t1 in one step, with no
further field call.

The seven stages of the live rows are a contiguous front view of one flat
buffer of 7 N n floats, allocated once per segment and viewed again at each
freeze.  Each stage sum is therefore one ``np.dot`` of a tableau row with
the first stages flattened to (s, m n), and nothing is copied.  These sums
are BLAS calls whose rounding depends on the row count, so a freeze may
move a live row by an ulp.  The sums, the fifth-order update and the error
estimate are formed in place: ``np.dot``, then ``*= dt``, then ``+= y``.
IEEE multiplication and addition commute, so these are the bits of
``y + dt * np.dot(...)``.  The error norm works in its scale array and the
freeze test in one offsets array, not in a temporary per operation.

A non-finite start point or time is refused before any step.  The stepper
runs with numpy's overflow warnings off: a stage state that leaves the
float range is refused with a FlowError naming its time, and no warning is
printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import FieldError, FlowError
from .fields import (VectorFieldSpec, evaluate_batch, growth_constant,
                     row_norms)
from .measures import measure_from_arrays

# Dormand-Prince 5(4) tableau.  Row seven equals the fifth-order weights:
# the last stage of an accepted step is the first stage of the next (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# fifth-order minus embedded fourth-order weights
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                 22 / 525, -1 / 40])

_SAFETY = 0.9
_EXPO = 0.2 - 0.04 * 0.75  # error exponent with the PI damping folded in
_PI_BETA = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_MAX_STEPS = 100_000  # attempted steps per segment, accepted or rejected


@dataclass(frozen=True)
class FlowOptions:
    """Tolerances of the characteristic integrator; the freeze radius is the
    class constant ``freeze_radius`` and the step cap of a segment the
    module constant ``_MAX_STEPS``."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    freeze_radius: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf
                and 0.0 <= self.rel_tol < math.inf):
            raise FlowError("tolerances must be positive and finite")


def _scaled_error(err_vec, y_old, y_new, opts):
    """max |err_vec| / (abs_tol + rel_tol max(|y_old|, |y_new|)), formed in
    the scale array and in err_vec, which is overwritten."""
    scale = np.abs(y_old)
    np.maximum(scale, np.abs(y_new), out=scale)
    scale *= opts.rel_tol
    scale += opts.abs_tol
    np.abs(err_vec, out=err_vec)
    err_vec /= scale
    return float(np.max(err_vec, initial=0.0))


def _initial_step(field, t0, y0, f0, d0, direction, span, opts):
    # d0 is taken over the whole batch, y0 and f0 over its live rows
    scale = opts.abs_tol + opts.rel_tol * np.abs(y0)
    d1 = float(np.max(np.abs(f0) / scale, initial=0.0))
    h0 = 1e-6 if d1 <= 1e-300 or d0 <= 1e-300 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0.0:  # d1 overflowed, or d0 / d1 underflowed
        raise FlowError(f"initial step underflow at t={t0:.6g}")
    y1 = y0 + direction * h0 * f0
    f1 = evaluate_batch(field, t0 + direction * h0, y1)
    d2 = float(np.max(np.abs(f1 - f0) / scale, initial=0.0)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2))**0.2
    return min(100.0 * h0, h1, span)


def _freeze_mask(points, singular_points, radius):
    # offsets from each point one column at a time, into one buffer: an
    # (m, n) - (n,) broadcast runs a short inner loop per row
    mask = np.zeros(len(points), dtype=bool)
    offsets = np.empty_like(points)
    for p in singular_points:
        for j, pj in enumerate(np.asarray(p, dtype=float)):
            np.subtract(points[:, j], pj, out=offsets[:, j])
        mask |= row_norms(offsets) <= radius
    return mask


def _stage_sum(weights, flat, dt, y):
    """y + dt * (weights . stages), formed in place with the same bits."""
    total = np.dot(weights, flat).reshape(y.shape)
    total *= dt
    total += y
    return total


def _stage_views(stages, shape):
    """The front 7 m n floats of the stage buffer as the stages k, shape
    (7, m, n), and as their (7, m n) view for the stage sums."""
    k = stages[:7 * shape[0] * shape[1]].reshape((7,) + shape)
    return k, k.reshape(7, -1)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite state is refused
def _advance(field, points, t0, t1, opts):
    """Core stepper on the live rows y = y_all[live].  Returns
    (end_points, (accepted, rejected)): the batch at t1 and the controller's
    accepted and rejected step counts."""
    y_all = np.array(points, dtype=float)
    if y_all.ndim != 2 or not np.all(np.isfinite(y_all)):
        raise FlowError("expected an (N, n) batch of finite start points")
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise FlowError(f"flow times must be finite (t0={t0}, t1={t1})")
    span = abs(t1 - t0)
    if span == 0.0:
        return y_all, (0, 0)

    direction = 1.0 if t1 > t0 else -1.0
    live = np.flatnonzero(~_freeze_mask(y_all, field.singular_points,
                                        opts.freeze_radius))
    y = y_all[live]
    t = t0
    stages = np.empty(7 * y_all.size)  # k and flat are front views of it
    k, flat = _stage_views(stages, y.shape)
    h = span
    if len(y):
        k[0] = evaluate_batch(field, t, y)
        scale = opts.abs_tol + opts.rel_tol * np.abs(y_all)
        d0 = float(np.max(np.abs(y_all) / scale, initial=0.0))
        h = _initial_step(field, t, y, k[0], d0, direction, span, opts)
        h = min(max(h, 1e-300), span)
    min_step = 1e-14 * max(1.0, abs(t0), abs(t1))
    fac_old = 1e-4
    accepted = rejected = 0
    just_rejected = False

    for _ in range(_MAX_STEPS):
        remaining = abs(t1 - t)
        if remaining <= 0.0:
            break
        if not len(y):  # every atom is frozen: one step to t1, no field call
            accepted, t = accepted + 1, t1
            break
        h = min(h, remaining)
        dt = direction * h
        try:  # the last stage sum is the fifth-order update
            for stage in range(1, 7):
                y_new = _stage_sum(_A[stage - 1], flat[:stage], dt, y)
                k[stage] = evaluate_batch(field, t + _C[stage] * dt, y_new)
        except FieldError:
            if np.all(np.isfinite(y_new)):
                raise
            raise FlowError(f"non-finite stage state at t={t:.6g}") from None
        err_vec = np.dot(_ERR, flat).reshape(y.shape)
        err_vec *= dt
        err = _scaled_error(err_vec, y, y_new, opts)

        if err <= 1.0:
            accepted += 1
            t = t1 if h >= remaining * (1.0 - 1e-15) else t + dt
            y = y_new
            k[0] = k[6]
            newly = _freeze_mask(y, field.singular_points, opts.freeze_radius)
            if np.any(newly):
                y_all[live[newly]] = y[newly]
                live, y = live[~newly], y[~newly]
                first = k[0][~newly]  # a copy: the new views overlap k[0]
                k, flat = _stage_views(stages, y.shape)
                k[0] = first
            fac = _SAFETY * err**(-_EXPO) * fac_old**_PI_BETA \
                if err > 0.0 else _FAC_MAX
            if just_rejected:
                fac = min(fac, 1.0)
            h *= min(_FAC_MAX, max(_FAC_MIN, fac))
            fac_old = max(err, 1e-4)
            just_rejected = False
            if t == t1:
                break
        else:
            rejected += 1
            just_rejected = True
            h *= max(_FAC_MIN, _SAFETY * err**(-_EXPO))
            if h < min_step:
                raise FlowError(
                    f"step size underflow at t={t:.6g} "
                    f"(needed below {min_step:.3g})")
    else:
        raise FlowError(
            f"flow did not reach t={t1:g} within {_MAX_STEPS} steps "
            f"(stopped at t={t:.6g})")

    y_all[live] = y
    return y_all, (accepted, rejected)


def flow_endpoints(field, points, t0, t1, options=None):
    """Push an (N, n) batch of points from t0 to t1; returns the endpoints."""
    opts = options or FlowOptions()
    points = np.asarray(points, dtype=float)
    final, _ = _advance(field, points, t0, t1, opts)
    return final


def flow_push(field, measure, t0, t1, options=None):
    """Push-forward of an atomic measure along the flow.

    Weights ride along untouched and atoms are deliberately not merged even
    if trajectories collide, so every weight-sum downstream is over the same
    multiset of floats and mass bookkeeping stays bit-identical.
    """
    if measure.dimension != field.dimension:
        raise FlowError("measure and field dimensions differ")
    if measure.atom_count == 0:
        return measure
    final = flow_endpoints(field, measure.locations, t0, t1, options)
    return measure_from_arrays(measure.dimension, final, measure.weights,
                               merge=False)


def flow_map(field, points, t_grid, options=None):
    """Snapshots of a point batch along a time grid, shape (len(t_grid), N, n).

    The frames are one array, allocated once: frame 0 is the batch verbatim,
    and each later frame is the :func:`flow_endpoints` of the one before it
    over its segment of the grid.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise FlowError("need a one-dimensional, nonempty time grid")
    points = np.asarray(points, dtype=float)
    frames = np.empty((len(t_grid),) + points.shape)
    frames[0] = points
    for i, (t_prev, t_next) in enumerate(zip(t_grid[:-1], t_grid[1:]), 1):
        frames[i] = flow_endpoints(field, frames[i - 1], t_prev, t_next,
                                   options)
    return frames


def osgood_envelope(constant, modulus, d0, t_grid, options=None):
    """Upper envelope for trajectory separation: solves d' = C * omega(d).

    The separation is one atom that :func:`flow_map` pushes along the 1-D
    field C * omega(max(d, 0)); its growth constant is infinite, so the
    envelope check of ``evaluate_batch`` never binds.  A starting
    separation of exactly zero stays zero, since the modulus vanishes at 0
    (that is the uniqueness statement for Osgood moduli); the caller
    compares measured separations against this curve.
    """
    d0, constant = float(d0), float(constant)
    if not 0.0 <= d0 < math.inf:
        raise FlowError(f"separation must be finite and nonnegative "
                        f"(got {d0!r})")
    if not 0.0 <= constant < math.inf:
        raise FlowError(f"envelope constant must be finite and at least 0 "
                        f"(got {constant!r})")

    def speed(t, pts):
        return constant * np.asarray(
            modulus(np.clip(pts[:, 0], 0.0, None)), dtype=float
        ).reshape(-1, 1)

    env = VectorFieldSpec(
        dimension=1, name="separation-envelope", evaluator=speed,
        growth=growth_constant(), modulus=modulus, growth_const=math.inf,
        modulus_constant=constant)
    return flow_map(env, [[d0]], t_grid, options)[:, 0, 0]
