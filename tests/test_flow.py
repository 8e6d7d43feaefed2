"""Characteristic integrator: closed-form orbits, freezing, reversibility."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import charflow.flow as flow
from charflow import (FieldError, FlowError, FlowOptions, constant_field,
                      flow_endpoints, flow_map, flow_push, linear_field,
                      make_measure, measure_from_arrays,
                      modulus_linear, modulus_log, osgood_1d_field,
                      osgood_envelope, osgood_plane_field, plateau_bump,
                      rotation_field)

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
                            merge=False)
    out = flow_push(f, m, 0.0, 1.0, TIGHT)
    # co-located atoms stay separate entries; the weight multiset is reused
    assert out.atom_count == 3
    np.testing.assert_array_equal(out.weights, m.weights)
    np.testing.assert_allclose(np.sort(out.locations[:, 0]),
                               [1.0, 1.0, 2.0], rtol=1e-12)


def test_flow_push_empty_measure_is_a_noop():
    f = constant_field([1.0])
    m = make_measure(1, [])
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
    const = f.modulus_constant
    x0, y0 = 0.3, 0.3 + 1e-4
    grid = np.linspace(0.0, 1.0, 6)
    xs = flow_map(f, np.array([[x0], [y0]]), grid, TIGHT)
    gaps = np.abs(xs[:, 0, 0] - xs[:, 1, 0])
    env = osgood_envelope(const, f.modulus, abs(x0 - y0), grid)
    assert np.all(gaps <= env * (1.0 + 1e-9))


def test_envelope_rejects_negative_separation(monkeypatch):
    # a negative or non-finite separation or constant fails before any
    # field call, not inside the separation field
    sizes = _record_batch_sizes(monkeypatch)
    grid = np.array([0.0, 1.0])
    for constant, d0 in [(1.0, -1e-3), (1.0, -math.inf), (1.0, math.nan),
                         (1.0, math.inf), (math.inf, 1e-3),
                         (-math.inf, 1e-3), (math.nan, 1e-3),
                         (math.nan, 0.0), (math.inf, 0.0),
                         (-1.0, 1e-3)]:
        with pytest.raises(FlowError, match="separation|constant"):
            osgood_envelope(constant, modulus_linear(), d0, grid)
    assert sizes == []


def test_flow_error_paths(monkeypatch):
    f = rotation_field()
    with pytest.raises(FieldError, match=r"expected points of shape \(N, 2\)"):
        flow_endpoints(f, [[1.0]], 0.0, 1.0)  # wrong dimension
    monkeypatch.setattr(flow, "_MAX_STEPS", 3)
    with pytest.raises(FlowError, match="did not reach"):
        flow_endpoints(f, [[1.0, 0.0]], 0.0, 50.0)
    monkeypatch.undo()
    with pytest.raises(FlowError):
        FlowOptions(abs_tol=0.0)
    # a speed over the tolerance scale overflows to an infinite d1, and
    # 0.01 d0 / d1 to a zero first step, which once divided d2
    with pytest.raises(FlowError, match="^initial step underflow at t=0"):
        flow_endpoints(linear_field([[1e300]]), [[0.5]], 0.0, 1.0, TIGHT)
    # a zero separation once returned before its grid was read: a scalar
    # grid raised a bare TypeError and a nan time gave zeros
    for d0 in (0.0, 1e-3):
        with pytest.raises(FlowError, match="one-dimensional, nonempty"):
            osgood_envelope(3.0, modulus_log(), d0, 0.5)
        with pytest.raises(FlowError, match="flow times must be finite"):
            osgood_envelope(3.0, modulus_log(), d0, [0.0, math.nan])


@pytest.mark.parametrize("fields, needle", [
    ({"abs_tol": math.nan}, "tolerances"),
    ({"abs_tol": math.inf}, "tolerances"),
    ({"rel_tol": math.nan}, "tolerances"),
    ({"rel_tol": math.inf}, "tolerances"),
    ({"rel_tol": -1e-8}, "tolerances"),
    ({"freeze_radius": math.nan}, "freeze_radius"),
    ({"freeze_radius": -1.0}, "freeze_radius"),
])
def test_flow_options_reject_bad_fields(fields, needle):
    with pytest.raises(FlowError, match=needle):
        FlowOptions(**fields)


def test_flow_options_take_a_zero_freeze_radius():
    opts = FlowOptions(freeze_radius=0.0)
    end = flow_endpoints(rotation_field(), [[1.0, 0.0]], 0.0, 0.5, opts)
    np.testing.assert_allclose(end, [[math.cos(0.5), math.sin(0.5)]],
                               atol=1e-8)


@pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (0.0, math.inf),
                                    (math.nan, 1.0), (-math.inf, 0.0)])
def test_non_finite_times_fail_before_any_step(monkeypatch, t0, t1):
    # nan once integrated backwards for max_steps steps, inf ended in a
    # step size underflow
    def no_step(*args):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(flow, "evaluate_batch", no_step)
    f = rotation_field()
    calls = [
        lambda: flow_endpoints(f, [[1.0, 0.0]], t0, t1),
        lambda: flow_map(f, [[1.0, 0.0]], [t0, t1]),
        lambda: flow_push(f, make_measure(2, [((1.0, 0.0), 1.0)]), t0, t1),
    ]
    for call in calls:
        with pytest.raises(FlowError, match="flow times must be finite"):
            call()


@pytest.mark.parametrize("field, start", [
    (rotation_field(), [[math.nan, 0.0]]),
    (constant_field([1.0]), [[math.inf]]),
])
def test_non_finite_start_points_fail_before_any_step(monkeypatch, field,
                                                      start):
    # the rotation once blamed the field for the NaN point, and the constant
    # field pushed the infinite one to an infinite endpoint
    def no_step(*args):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(flow, "evaluate_batch", no_step)
    with pytest.raises(FlowError, match="batch of finite start points"):
        flow_map(field, start, [0.0, 1.0])


@pytest.mark.parametrize("field,start,accepted,rejected", [
    (osgood_1d_field(), [[0.999]], 6, 1),
    # the atom freezes at the 74th accepted step; one more step with no
    # live row ends the segment
    (osgood_plane_field(), [[0.3, 0.0]], 75, 5),
    # no live row from the start: one step to t1
    (osgood_plane_field(), [[0.0, 0.0], [1e-9, 0.0], [3e-9, 4e-9]], 1, 0),
], ids=["osgood_1d", "osgood_plane", "starts_frozen"])
def test_step_controller_counts(monkeypatch, field, start, accepted,
                                rejected):
    # every attempted step counts against the step cap, so exactly that
    # many reach t1
    monkeypatch.setattr(flow, "_MAX_STEPS", accepted + rejected)
    _, counts = flow._advance(field, start, 0.0, 1.0, FlowOptions())
    assert counts == (accepted, rejected)


def _record_batch_sizes(monkeypatch):
    sizes = []

    def recorded(field, t, points, _original=flow.evaluate_batch):
        sizes.append(len(points))
        return _original(field, t, points)

    monkeypatch.setattr(flow, "evaluate_batch", recorded)
    return sizes


def test_batch_that_starts_frozen_returns_its_input(monkeypatch):
    sizes = _record_batch_sizes(monkeypatch)
    f = osgood_plane_field()
    start = np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, -5e-9], [3e-9, 4e-9]])
    frames = flow_map(f, start, [0.0, 0.5, 1.0])
    for frame in frames:
        assert frame.tobytes() == start.tobytes()
    # a segment with no live row ends at t1 without a field call
    assert sizes == []


def test_last_live_atom_freezes_mid_segment(monkeypatch):
    # the atom at radius 0.05 reaches the freeze radius near t = 0.35, so
    # the rest of [0.25, 0.5] and all of [0.5, 1] have no live row
    sizes = _record_batch_sizes(monkeypatch)
    f = osgood_plane_field()
    opts = FlowOptions(abs_tol=1e-9, rel_tol=1e-7)
    start = np.array([[0.0, 0.0], [0.04, 0.03]])
    frames = flow_map(f, start, [0.0, 0.25, 0.5, 1.0], opts)
    assert np.linalg.norm(frames[1, 1]) > opts.freeze_radius
    assert np.linalg.norm(frames[2, 1]) <= opts.freeze_radius
    for frame in frames[2:]:
        assert frame.tobytes() == frames[2].tobytes()
    assert frames[:, 0].tobytes() == np.zeros((4, 2)).tobytes()
    assert sizes and 0 not in sizes  # no zero-row call


def test_freezing_push_reuses_one_stage_block(monkeypatch):
    # 2,000 atoms at radii 0.02-0.3 freeze on dozens of different steps of
    # [0, 1]; each freeze views the stage block again instead of allocating
    # one, and the stage sums copy nothing.  In units of the 7 N n floats of
    # that block (224,000 bytes) the traced peak was 2.39 blocks here, 3.09
    # blocks before the stage block was contiguous (tensordot copied it on
    # every sum), and 2.94 blocks when each freeze allocated a new block.
    sizes = _record_batch_sizes(monkeypatch)
    count = 2_000
    radii = np.geomspace(0.02, 0.3, count)
    angles = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, count)
    start = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    f = osgood_plane_field()
    opts = FlowOptions(abs_tol=1e-11, rel_tol=1e-9)
    tracemalloc.start()
    try:
        final = flow_endpoints(f, start, 0.0, 1.0, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.linalg.norm(final, axis=1) <= opts.freeze_radius)
    assert len(set(sizes)) > 50
    block = 7 * start.size * start.itemsize
    assert peak <= 2.7 * block


def _masked_plane_evaluator(radial_factor):
    """osgood_plane's evaluator as it was when the radial factor ran only on
    the rows inside 0 < r^2 < 1/4, gathered and scattered back."""
    def ev(t, pts):
        x, y = pts[:, 0], pts[:, 1]
        r2 = x * x + y * y
        live = (r2 > 0.0) & (r2 < 0.5**2)
        factor = np.zeros_like(r2)
        factor[live] = radial_factor(r2[live])
        band = ~(r2 <= 0.25**2)
        if band.any():
            factor[band] *= plateau_bump(np.sqrt(r2[band]), 0.25, 0.5)
        return np.column_stack([x * factor, y * factor])
    return ev


def _osgood_plane_factor(r2):
    log_r2 = np.log(r2)
    return log_r2 * np.log(-log_r2)


def test_plane_push_keeps_the_bits_of_the_masked_evaluator():
    # a 2,000-atom ring about radius 0.28 at the push tolerances: most atoms
    # start in the plateau band 1/4 < r < 1/2, and they freeze on many steps
    # of the last three segments, so band rows and freezes run inside the
    # stepper, not only in single calls
    rng = np.random.default_rng(3)
    radii = 0.28 + 0.04 * rng.standard_normal(2_000)
    angles = rng.uniform(0.0, 2.0 * math.pi, 2_000)
    start = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    catalog = osgood_plane_field()
    oracle = dataclasses.replace(
        catalog, evaluator=_masked_plane_evaluator(_osgood_plane_factor))
    opts = FlowOptions(abs_tol=1e-11, rel_tol=1e-9)
    grid = np.linspace(0.0, 1.0, 5)
    frames = flow_map(catalog, start, grid, opts)
    assert frames.tobytes() == flow_map(oracle, start, grid, opts).tobytes()
    assert np.mean((radii > 0.25) & (radii < 0.5)) > 0.5
    frozen = [int(np.sum(np.linalg.norm(frame, axis=1) <= opts.freeze_radius))
              for frame in frames]
    assert frozen[1] == 0 and 0 < frozen[3] < frozen[4] < len(start)
