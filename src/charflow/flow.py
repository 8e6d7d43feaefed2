"""Characteristic flow of a velocity field for whole atom clouds.

Dormand-Prince 5(4) with FSAL and a PI step controller drives every atom of
a batch through the same time grid; the step is accepted only when every
atom meets the componentwise scaled tolerance, so a batched push is exactly
as accurate per atom as N separate integrations (while sharing step-size
work).  Atoms that drift within ``freeze_radius`` of a declared singular
point are frozen in place for the rest of the segment: past that distance
the field is below every useful modulus scale and chasing it only burns
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError
from .fields import evaluate_batch
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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                11 / 84, 0.0])
# fifth-order minus embedded fourth-order weights
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                 22 / 525, -1 / 40])

_SAFETY = 0.9
_EXPO = 0.2 - 0.04 * 0.75  # error exponent with the PI damping folded in
_PI_BETA = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 5.0


@dataclass(frozen=True)
class FlowOptions:
    """Tolerances and guards for the characteristic integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_steps: int = 100_000
    freeze_radius: float = 1e-8

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol < 0.0:
            raise FlowError("tolerances must be positive")
        if self.max_steps < 1:
            raise FlowError("max_steps must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """One atom's recorded path: accepted times, states, steps, and scaled
    error estimates (both zero on the initial row)."""

    times: np.ndarray
    states: np.ndarray
    steps: np.ndarray
    errors: np.ndarray
    n_accepted: int
    n_rejected: int

    @property
    def final_state(self):
        return self.states[-1]


def _scaled_error(err_vec, y_old, y_new, opts):
    scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y_old),
                                                     np.abs(y_new))
    return float(np.max(np.abs(err_vec) / scale)) if err_vec.size else 0.0


def _initial_step(rhs, t0, y0, f0, direction, span, opts):
    scale = opts.abs_tol + opts.rel_tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = 1e-6 if d1 <= 1e-300 or d0 <= 1e-300 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + direction * h0 * f0
    f1 = rhs(t0 + direction * h0, y1)
    d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2))**0.2
    return min(100.0 * h0, h1, span)


def _freeze_mask(points, singular_points, radius):
    if not len(singular_points):
        return np.zeros(len(points), dtype=bool)
    mask = np.zeros(len(points), dtype=bool)
    for p in singular_points:
        mask |= (np.linalg.norm(points - np.asarray(p, dtype=float), axis=1)
                 <= radius)
    return mask


def _advance(field, points, t0, t1, opts, record):
    """Core stepper.  Returns (final_points, history, stats)."""
    y = np.array(points, dtype=float)
    if y.ndim != 2:
        raise FlowError("expected an (N, n) batch of start points")
    t0, t1 = float(t0), float(t1)
    span = abs(t1 - t0)
    history = [(t0, y.copy(), 0.0, 0.0)] if record else None
    if span == 0.0:
        return y, history, (0, 0)

    direction = 1.0 if t1 > t0 else -1.0
    frozen = _freeze_mask(y, field.singular_points, opts.freeze_radius)

    def rhs(t, state):
        vel = evaluate_batch(field, t, state)
        if frozen.any():
            vel[frozen] = 0.0
        return vel

    t = t0
    f_first = rhs(t, y)
    h = _initial_step(rhs, t, y, f_first, direction, span, opts)
    h = min(max(h, 1e-300), span)
    min_step = 1e-14 * max(1.0, abs(t0), abs(t1))
    fac_old = 1e-4
    accepted = rejected = 0
    just_rejected = False
    k = np.empty((7,) + y.shape)
    k[0] = f_first

    for _ in range(opts.max_steps):
        remaining = abs(t1 - t)
        if remaining <= 0.0:
            break
        h = min(h, remaining)
        dt = direction * h
        for stage in range(1, 6):
            yi = y + dt * np.tensordot(_A[stage - 1], k[:stage], axes=1)
            k[stage] = rhs(t + _C[stage] * dt, yi)
        y_new = y + dt * np.tensordot(_A[5], k[:6], axes=1)
        k[6] = rhs(t + dt, y_new)
        err_vec = dt * np.tensordot(_ERR, k, axes=1)
        err = _scaled_error(err_vec, y, y_new, opts)

        if err <= 1.0:
            accepted += 1
            t = t1 if h >= remaining * (1.0 - 1e-15) else t + dt
            y = y_new
            k[0] = k[6]
            newly = _freeze_mask(y, field.singular_points, opts.freeze_radius)
            if newly.any() and not np.array_equal(newly | frozen, frozen):
                frozen |= newly
                k[0] = rhs(t, y)
            if record:
                history.append((t, y.copy(), h, err))
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
                    f"(needed below {min_step:.3g})",
                    trajectory=_pack_history(history),
                    atom_index=int(np.argmax(np.max(
                        np.abs(err_vec) / (opts.abs_tol
                                           + opts.rel_tol * np.abs(y)),
                        axis=1))))
    else:
        raise FlowError(
            f"flow did not reach t={t1:g} within {opts.max_steps} steps "
            f"(stopped at t={t:.6g})",
            trajectory=_pack_history(history))

    return y, history, (accepted, rejected)


def _pack_history(history):
    if not history:
        return None
    times = np.array([row[0] for row in history])
    states = np.array([row[1][0] for row in history])
    steps = np.array([row[2] for row in history])
    errors = np.array([row[3] for row in history])
    return Trajectory(times=times, states=states, steps=steps, errors=errors,
                      n_accepted=max(len(history) - 1, 0), n_rejected=0)


def integrate_flow(field, x0, t0, t1, options=None):
    """Integrate one characteristic, recording every accepted step."""
    opts = options or FlowOptions()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (field.dimension,):
        raise FlowError(f"start point must have dimension {field.dimension}")
    _, history, (acc, rej) = _advance(field, x0.reshape(1, -1), t0, t1,
                                      opts, record=True)
    traj = _pack_history(history)
    return Trajectory(times=traj.times, states=traj.states, steps=traj.steps,
                      errors=traj.errors, n_accepted=acc, n_rejected=rej)


def flow_endpoints(field, points, t0, t1, options=None):
    """Push an (N, n) batch of points from t0 to t1; returns the endpoints."""
    opts = options or FlowOptions()
    points = np.asarray(points, dtype=float)
    final, _, _ = _advance(field, points, t0, t1, opts, record=False)
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
                               reservoir_weight=measure.reservoir_weight,
                               merge=False)


def flow_map(field, points, t_grid, options=None):
    """Snapshots of a point batch along a time grid (first entry is t_grid[0]
    verbatim).  Returns an array of shape (len(t_grid), N, n)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise FlowError("need a one-dimensional, nonempty time grid")
    current = np.asarray(points, dtype=float)
    frames = [current.copy()]
    for t_prev, t_next in zip(t_grid[:-1], t_grid[1:]):
        current = flow_endpoints(field, current, t_prev, t_next, options)
        frames.append(current.copy())
    return np.array(frames)


def osgood_envelope(constant, modulus, d0, t_grid, options=None):
    """Upper envelope for trajectory separation: solves d' = C * omega(d).

    Starting separations of exactly zero stay zero (that is the uniqueness
    statement for Osgood moduli); the caller compares measured separations
    against this curve.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    d0 = float(d0)
    if d0 < 0.0:
        raise FlowError("separation must be nonnegative")
    if d0 == 0.0:
        return np.zeros(len(t_grid))
    constant = float(constant)

    class _Envelope:
        dimension = 1
        name = "separation-envelope"
        growth_const = math.inf
        singular_points = ()

        @staticmethod
        def evaluator(t, pts):
            return constant * np.asarray(
                modulus(np.clip(pts[:, 0], 0.0, None)), dtype=float
            ).reshape(-1, 1)

        @staticmethod
        def growth(r):
            return np.ones_like(np.asarray(r, dtype=float))

    # bypass the envelope check: growth_const is inf on purpose
    env = _Envelope()
    out = np.empty(len(t_grid))
    out[0] = d0
    current = np.array([[d0]])
    for i, (ta, tb) in enumerate(zip(t_grid[:-1], t_grid[1:])):
        current, _, _ = _advance(env, current, ta, tb,
                                 options or FlowOptions(), record=False)
        out[i + 1] = current[0, 0]
    return out
