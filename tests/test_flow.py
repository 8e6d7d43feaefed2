"""Characteristic integrator: closed-form orbits, freezing, reversibility."""

import math

import numpy as np
import pytest

from charflow import (FlowError, FlowOptions, constant_field, flow_endpoints,
                      flow_map, flow_push, integrate_flow, linear_field, make_measure, measure_from_arrays,
                      modulus_linear, modulus_log, osgood_1d_field,
                      osgood_envelope, osgood_plane_field, rotation_field)

TIGHT = FlowOptions(abs_tol=1e-12, rel_tol=1e-10)


def test_constant_drift_is_exact_translation():
    f = constant_field([0.35, -0.1])
    out = flow_endpoints(f, [[1.0, 2.0], [0.0, 0.0]], 0.0, 2.0, TIGHT)
    np.testing.assert_allclose(out, [[1.7, 1.8], [0.7, -0.2]], rtol=1e-12)


def test_exponential_orbit():
    f = linear_field([[1.0]])
    out = flow_endpoints(f, [[1.0]], 0.0, 1.0, TIGHT)
    assert out[0, 0] == pytest.approx(math.e, rel=1e-9)


def test_quarter_turn():
    f = rotation_field()
    out = flow_endpoints(f, [[1.0, 0.0]], 0.0, math.pi / 2.0, TIGHT)
    np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-9)


def test_osgood1d_orbit_closed_form():
    # d/dt x = -x log x  =>  x(t) = x0 ** exp(-t)
    f = osgood_1d_field()
    out = flow_endpoints(f, [[0.5]], 0.0, 1.0, TIGHT)
    assert out[0, 0] == pytest.approx(0.5 ** math.exp(-1.0), rel=1e-9)


def test_backward_time_inverts_the_drift():
    f = constant_field([0.35])
    fwd = flow_endpoints(f, [[0.2]], 0.0, 1.0, TIGHT)
    back = flow_endpoints(f, fwd, 1.0, 0.0, TIGHT)
    assert back[0, 0] == pytest.approx(0.2, abs=1e-12)


def test_flow_push_keeps_weights_and_multiplicity():
    f = constant_field([1.0])
    m = measure_from_arrays(1, [[0.0], [0.0], [1.0]], [0.25, 0.5, 0.25],
                            reservoir_weight=0.125, merge=False)
    out = flow_push(f, m, 0.0, 1.0, TIGHT)
    # co-located atoms stay separate entries; the weight multiset is reused
    assert out.atom_count == 3
    np.testing.assert_array_equal(out.weights, m.weights)
    assert out.reservoir_weight == m.reservoir_weight
    np.testing.assert_allclose(np.sort(out.locations[:, 0]),
                               [1.0, 1.0, 2.0], rtol=1e-12)


def test_flow_push_empty_measure_is_a_noop():
    f = constant_field([1.0])
    m = make_measure(1, [], reservoir_weight=0.5)
    assert flow_push(f, m, 0.0, 1.0) is m


def test_flow_map_frames():
    f = rotation_field()
    pts = np.array([[1.0, 0.0], [0.0, 0.5]])
    grid = np.array([0.0, math.pi / 4.0, math.pi / 2.0])
    frames = flow_map(f, pts, grid, TIGHT)
    assert frames.shape == (3, 2, 2)
    np.testing.assert_array_equal(frames[0], pts)
    np.testing.assert_allclose(frames[2], [[0.0, 1.0], [-0.5, 0.0]],
                               atol=1e-9)


def test_inverse_residual_is_small():
    f = rotation_field()
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 2))
    forward = flow_endpoints(f, pts, 0.0, 1.0, TIGHT)
    back = flow_endpoints(f, forward, 1.0, 0.0, TIGHT)
    assert np.max(np.abs(back - pts)) < 1e-8


def test_freeze_near_singular_point():
    f = osgood_plane_field()
    start = np.array([[1e-9, 0.0], [0.3, 0.0]])
    out = flow_endpoints(f, start, 0.0, 1.0)
    # inside the freeze radius: pinned exactly
    np.testing.assert_array_equal(out[0], start[0])
    assert not np.array_equal(out[1], start[1])


def test_envelope_zero_stays_zero():
    grid = np.linspace(0.0, 1.0, 5)
    np.testing.assert_array_equal(
        osgood_envelope(3.0, modulus_log(), 0.0, grid), np.zeros(5))


def test_envelope_linear_modulus_is_exponential():
    grid = np.array([0.0, 0.5, 1.0])
    env = osgood_envelope(2.0, modulus_linear(), 1e-3, grid)
    np.testing.assert_allclose(env, 1e-3 * np.exp(2.0 * grid), rtol=1e-7)


def test_envelope_dominates_measured_separation():
    f = osgood_1d_field()
    const = f.modulus_constant_for(2.0)
    x0, y0 = 0.3, 0.3 + 1e-4
    grid = np.linspace(0.0, 1.0, 6)
    xs = flow_map(f, np.array([[x0], [y0]]), grid, TIGHT)
    gaps = np.abs(xs[:, 0, 0] - xs[:, 1, 0])
    env = osgood_envelope(const, f.modulus, abs(x0 - y0), grid)
    assert np.all(gaps <= env * (1.0 + 1e-9))


def test_envelope_rejects_negative_separation():
    with pytest.raises(FlowError):
        osgood_envelope(1.0, modulus_linear(), -1e-3, np.array([0.0, 1.0]))


def test_trajectory_bookkeeping():
    traj = integrate_flow(rotation_field(), [1.0, 0.0], 0.0, 1.0, TIGHT)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    assert traj.steps[0] == 0.0 and traj.errors[0] == 0.0
    assert traj.n_accepted == len(traj.times) - 1
    assert np.all(np.diff(traj.times) > 0.0)
    np.testing.assert_allclose(traj.final_state,
                               [math.cos(1.0), math.sin(1.0)], atol=1e-9)


def test_flow_error_paths():
    f = rotation_field()
    with pytest.raises(FlowError):
        integrate_flow(f, [1.0], 0.0, 1.0)  # wrong dimension
    with pytest.raises(FlowError, match="did not reach"):
        flow_endpoints(f, [[1.0, 0.0]], 0.0, 50.0,
                       FlowOptions(max_steps=3))
    with pytest.raises(FlowError):
        FlowOptions(abs_tol=0.0)
    with pytest.raises(FlowError):
        FlowOptions(max_steps=0)


def test_flow_error_carries_partial_trajectory():
    f = rotation_field()
    with pytest.raises(FlowError) as info:
        flow_endpoints(f, [[1.0, 0.0]], 0.0, 50.0, FlowOptions(max_steps=2))
    assert info.value.trajectory is None  # record=False path keeps nothing
    with pytest.raises(FlowError) as info:
        integrate_flow(f, [1.0, 0.0], 0.0, 50.0, FlowOptions(max_steps=2))
    traj = info.value.trajectory
    assert traj is not None and len(traj.times) == 3
