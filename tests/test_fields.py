"""Field catalog: envelopes, moduli, and the declared-constant audit."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from charflow import (EnvelopeViolation, FieldError, GrowthEnvelope,
                      Modulus, VectorFieldSpec, constant_field,
                      evaluate_batch, growth_affine, growth_constant,
                      linear_field, modulus_linear,
                      modulus_log, modulus_loglog, modulus_loglog_squared,
                      osgood_1d_field, osgood_plane_field,
                      nonosgood_plane_field, plateau_bump, rotation_field,
                      smooth_step, smooth_step_derivative)
from charflow.fields import FIELD_CATALOG, row_norms


# -- smooth glue -------------------------------------------------------------

def test_smooth_step_saturates_exactly():
    assert smooth_step(-0.3) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(17.0) == 1.0
    assert smooth_step(0.5) == 0.5  # a == b by symmetry


def _two_where_smooth_step(u):
    """The formula that evaluates both exponentials on every input."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.clip(u, 1e-300, None)), 0.0)
        b = np.where(u < 1.0,
                     np.exp(-1.0 / np.clip(1.0 - u, 1e-300, None)), 0.0)
    return a / (a + b)


def test_smooth_step_keeps_the_bits_of_the_two_where_formula():
    edges = [0.0, -0.0, 1.0, np.inf, -np.inf, 1e-320, 1e-300, -1e-300,
             1.0 - 1e-16, 1.0 + 1e-16, 5e-324]
    u = np.concatenate([edges,
                        np.random.default_rng(5).uniform(-0.5, 1.5, 20_000)])
    got = smooth_step(u)
    assert got.tobytes() == _two_where_smooth_step(u).tobytes()
    for x in edges:
        assert np.float64(smooth_step(x)).tobytes() == \
            _two_where_smooth_step(x).tobytes()


def test_smooth_step_is_monotone_with_slope_at_most_two():
    u = np.linspace(-0.5, 1.5, 4001)
    vals = smooth_step(u)
    assert np.all(np.diff(vals) >= 0.0)
    slopes = smooth_step_derivative(u)
    # the peak sits at the midpoint and equals 2 there
    assert np.max(slopes) <= 2.0 + 1e-9
    assert smooth_step_derivative(0.5) == pytest.approx(2.0, rel=1e-12)
    assert smooth_step_derivative(0.0) == 0.0
    assert smooth_step_derivative(1.0) == 0.0


def test_plateau_bump_window():
    r = np.array([0.0, 0.25, 0.3, 0.5, 2.0])
    vals = plateau_bump(r, 0.25, 0.5)
    assert vals[0] == 1.0 and vals[1] == 1.0
    assert 0.0 < vals[2] < 1.0
    assert vals[3] == 0.0 and vals[4] == 0.0


# -- moduli ------------------------------------------------------------------

def test_modulus_closed_forms():
    s = 0.37
    assert modulus_linear()(s) == s
    assert modulus_log()(s) == pytest.approx(
        s * math.log(math.e + 1.0 / s), rel=1e-15)
    big_l = math.log(math.e + 1.0 / s)
    assert modulus_loglog()(s) == pytest.approx(
        s * big_l * math.log(math.e + big_l), rel=1e-15)
    assert modulus_loglog_squared()(s) == pytest.approx(
        s * big_l * math.log(math.e + big_l) ** 2, rel=1e-15)


def test_modulus_limits_and_flags():
    for mod in (modulus_linear(), modulus_log(), modulus_loglog(),
                modulus_loglog_squared()):
        assert float(mod(0.0)) == 0.0
        grid = np.geomspace(1e-6, 10.0, 300)
        assert np.all(np.diff(mod(grid)) > 0.0)
    assert modulus_linear().osgood
    assert modulus_log().osgood
    assert modulus_loglog().osgood
    assert not modulus_loglog_squared().osgood


def _reciprocal_modulus_integral(mod, r_low):
    """Integral of 1/omega over [r_low, 1]; it diverges as r_low -> 0
    exactly for Osgood moduli."""
    result = scipy.integrate.quad(lambda s: 1.0 / float(mod(s)), r_low, 1.0,
                                  limit=400, epsabs=1e-13, epsrel=1e-11,
                                  full_output=1)
    assert len(result) == 3, result[3]  # no QUADPACK warning message
    return result[0]


def test_osgood_integral_separates_the_classes():
    # divergent: the log modulus gains without bound as r_low shrinks
    diverging = [_reciprocal_modulus_integral(modulus_log(), r)
                 for r in (1e-4, 1e-10, 1e-40)]
    assert diverging[0] < diverging[1] < diverging[2]
    assert diverging[2] > diverging[1] + 1.0
    # convergent: the squared outer log saturates
    converging = [_reciprocal_modulus_integral(modulus_loglog_squared(), r)
                  for r in (1e-4, 1e-10, 1e-40)]
    assert converging[2] - converging[1] < converging[1] - converging[0]
    assert converging[2] - converging[0] < 1.0


# -- evaluation and guards ---------------------------------------------------

def test_constant_field_is_constant():
    f = constant_field([0.35])
    np.testing.assert_array_equal(evaluate_batch(f, 0.0, np.array([[12.0]])),
                                  [[0.35]])
    np.testing.assert_array_equal(evaluate_batch(f, 3.0, np.array([[-4.0]])),
                                  [[0.35]])
    assert f.modulus_constant == 0.0
    # a speed whose square overflows once declared an infinite envelope
    assert constant_field([1e300]).growth_const == 1e300
    assert constant_field([3.0 * 2.0**800, 4.0 * 2.0**800]).growth_const \
        == 5.0 * 2.0**800


def test_rotation_quarter_positions():
    f = rotation_field()
    np.testing.assert_allclose(evaluate_batch(f, 0.0, np.array([[1.0, 0.0]])),
                               [[0.0, 1.0]])
    np.testing.assert_allclose(evaluate_batch(f, 0.0, np.array([[0.0, 2.0]])),
                               [[-2.0, 0.0]])


def test_batch_shape_guard():
    f = rotation_field()
    with pytest.raises(FieldError):
        evaluate_batch(f, 0.0, np.zeros((4, 3)))


def test_nonfinite_velocity_is_an_error():
    bad = VectorFieldSpec(
        dimension=1, name="bad", evaluator=lambda t, p: p * np.nan,
        growth=rotation_field().growth, modulus=modulus_linear(),
        growth_const=1.0, modulus_constant=1.0)
    with pytest.raises(FieldError, match="non-finite"):
        evaluate_batch(bad, 0.0, np.array([[1.0]]))


def test_envelope_violation_is_hard():
    # identity field with a lying envelope: speed |x| against cap 1
    lying = VectorFieldSpec(
        dimension=1, name="liar", evaluator=lambda t, p: p.copy(),
        growth=GrowthEnvelope(lambda r: np.ones_like(r)),
        modulus=modulus_linear(), growth_const=1.0,
        modulus_constant=1.0)
    evaluate_batch(lying, 0.0, np.array([[0.5]]))  # inside the cap: fine
    with pytest.raises(EnvelopeViolation):
        evaluate_batch(lying, 0.0, np.array([[2.0]]))


def _lying_on_one_row(velocity, row):
    """A field giving ``velocity(pts)`` on every row but ``row``, whose two
    components are 3 (1 + |x|) + 1, above both the constant and the affine
    cap there."""
    def ev(t, pts):
        out = velocity(pts)
        out[row] = 3.0 * (1.0 + np.linalg.norm(pts[row])) + 1.0
        return out
    return ev


@pytest.mark.parametrize("row", [0, 1, 4_999, 7_777, 9_999])
@pytest.mark.parametrize("growth, velocity", [
    (growth_constant(), lambda pts: 0.5 * np.ones_like(pts) / math.sqrt(2)),
    (growth_affine(), lambda pts: np.column_stack([-pts[:, 1], pts[:, 0]])),
])
def test_envelope_check_covers_every_row(growth, velocity, row):
    # a constant envelope hands evaluate_batch one cap; each of the 10,000
    # speeds is still compared with it, as with a rotation-style affine one
    pts = np.random.default_rng(row).uniform(-2.0, 2.0, (10_000, 2))
    liar = VectorFieldSpec(
        dimension=2, name="liar", evaluator=_lying_on_one_row(velocity, row),
        growth=growth, modulus=modulus_linear(), growth_const=1.0,
        modulus_constant=1.0)
    honest = VectorFieldSpec(
        dimension=2, name="honest", evaluator=lambda t, p: velocity(p),
        growth=growth, modulus=modulus_linear(), growth_const=1.0,
        modulus_constant=1.0)
    evaluate_batch(honest, 0.0, pts)
    with pytest.raises(EnvelopeViolation) as caught:
        evaluate_batch(liar, 0.0, pts)
    assert str(pts[row].tolist()) in str(caught.value)


_GUARD_POINTS = np.arange(5.0).reshape(-1, 1)


def _one_bad_row(value, growth_const):
    """A 1-D field with a constant envelope, as osgood_envelope builds one:
    speed 0.5 on every row of _GUARD_POINTS but row 2, which gets value."""
    def ev(t, pts):
        out = np.full_like(pts, 0.5)
        out[2] = value
        return out
    return VectorFieldSpec(
        dimension=1, name="one-bad-row", evaluator=ev,
        growth=growth_constant(), modulus=modulus_linear(),
        growth_const=growth_const, modulus_constant=1.0)


@pytest.mark.parametrize("value, growth_const", [
    (math.inf, math.inf), (-math.inf, math.inf), (math.nan, math.inf),
    (math.nan, 1.0), (math.inf, 1.0)])
def test_nonfinite_velocity_fails_under_every_cap(value, growth_const):
    # an infinite speed passes `speed <= cap` when the cap is infinite too,
    # so the one comparison of a good batch must still reject it
    with pytest.raises(FieldError, match="non-finite") as caught:
        evaluate_batch(_one_bad_row(value, growth_const), 0.0, _GUARD_POINTS)
    assert type(caught.value) is FieldError
    assert str(_GUARD_POINTS[2].tolist()) in str(caught.value)


@pytest.mark.parametrize("value", [2.0, -3.0, 1e200])
def test_finite_speed_over_the_cap_names_its_row(value):
    # 1e200 is finite but its square overflows: the message names its speed
    with pytest.raises(EnvelopeViolation) as caught:
        evaluate_batch(_one_bad_row(value, 1.0), 0.0, _GUARD_POINTS)
    assert str(_GUARD_POINTS[2].tolist()) in str(caught.value)
    assert f"speed {abs(value):.6g} > {1.0:.6g}" in str(caught.value)


def test_finite_speed_stays_under_an_infinite_cap():
    got = evaluate_batch(_one_bad_row(1e200, math.inf), 0.0, _GUARD_POINTS)
    assert got[2, 0] == 1e200


def test_speed_whose_square_overflows_stays_inside_its_envelope():
    # |b(1)| = 1e155 against the affine cap 1e155 * (1 + 1) = 2e155; the
    # square of 1e155 overflows, which must neither warn nor read as inf
    got = evaluate_batch(linear_field([[1e155]]), 0.0, np.array([[1.0]]))
    assert got.tolist() == [[1e155]]


def _ring_rows(count, low, high):
    rng = np.random.default_rng(5)
    r = rng.uniform(low, high, count)
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@pytest.mark.parametrize("low, high, arrays", [
    (0.01, 0.2, 4.25),   # inside the plateau, as on most push steps
    (0.2, 0.36, 6.5),    # mostly in the bump band, as at a push's start
])
def test_plane_evaluation_peak_memory(low, high, arrays):
    # traced peak of one checked osgood_plane call on 10,000 rows, in arrays
    # of N floats: 4.13 and 6.35 here, 6.14 and 7.85 when the radial factor
    # ran on a gathered copy of the live rows and was scattered back
    pts = _ring_rows(10_000, low, high)
    f = osgood_plane_field()
    evaluate_batch(f, 0.0, pts)
    tracemalloc.start()
    try:
        evaluate_batch(f, 0.0, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * len(pts) * pts.itemsize


@pytest.mark.parametrize("constant", [-1.0, math.nan])
def test_a_hand_built_spec_refuses_a_bad_modulus_constant(constant):
    # the spec checks its own constant, not only the catalog constructors
    with pytest.raises(FieldError, match="must be at least 0"):
        VectorFieldSpec(
            dimension=1, name="bad-constant", evaluator=lambda t, p: 0.0 * p,
            growth=growth_constant(), modulus=modulus_linear(),
            growth_const=1.0, modulus_constant=constant)


# -- catalog values ----------------------------------------------------------

def test_osgood1d_closed_form_inside():
    f = osgood_1d_field()
    x = 0.5
    assert evaluate_batch(f, 0.0, np.array([[x]]))[0, 0] == pytest.approx(
        -x * math.log(x), rel=1e-13)
    assert evaluate_batch(f, 0.0, np.array([[-0.2]]))[0, 0] == 0.0
    assert evaluate_batch(f, 0.0, np.array([[1.3]]))[0, 0] == 0.0


def test_plane_fields_match_their_formulas():
    r2 = 0.04  # radius 0.2, inside the plateau where the cutoff is exactly 1
    log_r2 = math.log(r2)
    f_val = log_r2 * math.log(-log_r2)
    g_val = log_r2 * math.log(-log_r2) ** 2
    v = evaluate_batch(osgood_plane_field(), 0.0, np.array([[0.2, 0.0]]))[0]
    assert v[0] == pytest.approx(0.2 * f_val, rel=1e-12)
    assert v[1] == 0.0
    w = evaluate_batch(nonosgood_plane_field(), 0.0,
                       np.array([[0.12, 0.16]]))[0]
    assert w[0] == pytest.approx(0.12 * g_val, rel=1e-12)
    assert w[1] == pytest.approx(-0.16 * g_val, rel=1e-12)


def test_plane_fields_vanish_outside_the_truncation():
    pts = np.array([[0.5, 0.0], [0.0, -0.8], [3.0, 4.0]])
    for build in (osgood_plane_field, nonosgood_plane_field):
        np.testing.assert_array_equal(evaluate_batch(build(), 0.0, pts),
                                      np.zeros_like(pts))


def _f_plane(r2):
    log_r2 = np.log(r2)
    return log_r2 * np.log(-log_r2)


def _g_plane(r2):
    log_r2 = np.log(r2)
    return log_r2 * np.log(-log_r2)**2


def _plane_oracle(radial_factor, flip_y, pts):
    """The plane fields' earlier formula, which sends every row through the
    radial factor and the plateau bump."""
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    live = (r2 > 0.0) & (r2 < 0.5**2)
    r2s = np.where(live, r2, 0.01)
    factor = np.where(live, radial_factor(r2s), 0.0)
    factor = factor * plateau_bump(np.sqrt(r2), 0.25, 0.5)
    vy = -y * factor if flip_y else y * factor
    return np.column_stack([x * factor, vy])


def _plane_probe(count):
    """Rows at r = 0, r < 1/4, r = 1/4 exactly and one ulp either side, the
    band, r = 1/2 exactly and one ulp either side, and r > 1/2, in all four
    quadrants, then rows drawn from the disk of radius 0.6 up to ``count``.
    Returns the batch and the number of those special rows."""
    quarter, half = 0.25, 0.5
    radii = [0.0, 1e-300, 1e-9, 0.1, 0.2, np.nextafter(quarter, 0.0),
             quarter, np.nextafter(quarter, 1.0), 0.3, 0.4,
             np.nextafter(half, 0.0), half, np.nextafter(half, 1.0), 0.7, 5.0]
    special = [[s * r, 0.0] for r in radii for s in (1.0, -1.0)]
    special += [[0.0, s * r] for r in radii for s in (1.0, -1.0)]
    special += [[-0.15, 0.2], [0.15, -0.2], [-0.3, -0.4], [0.3, 0.4]]
    rng = np.random.default_rng(11)
    r = np.sqrt(rng.uniform(0.0, 0.36, count - len(special)))
    theta = rng.uniform(0.0, 2.0 * math.pi, count - len(special))
    return np.concatenate([np.array(special),
                           np.column_stack([r * np.cos(theta),
                                            r * np.sin(theta)])]), \
        len(special)


@pytest.mark.parametrize("build, radial_factor, flip_y", [
    (osgood_plane_field, _f_plane, False),
    (nonosgood_plane_field, _g_plane, True),
])
def test_plane_fields_keep_the_bits_of_the_every_row_formula(
        build, radial_factor, flip_y):
    ev = build().evaluator
    pts, special = _plane_probe(10_000)
    got, want = ev(0.0, pts), _plane_oracle(radial_factor, flip_y, pts)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    for i in [*range(special), *range(special, len(pts), 97)]:
        got = ev(0.0, pts[i:i + 1])
        assert np.array_equal(got, want[i:i + 1]), pts[i]
        assert np.array_equal(np.signbit(got), np.signbit(want[i:i + 1]))


_CATALOG_INSTANCES = {
    "constant": lambda: constant_field([0.35]),
    "linear": lambda: linear_field([[0.6, 1.0], [0.0, 0.4]]),
    "rotation": rotation_field,
    "osgood1d": osgood_1d_field,
    "osgood_plane": osgood_plane_field,
    "nonosgood_plane": nonosgood_plane_field,
}


def _empirical_modulus_constant(field, radius, time_count, pair_samples,
                                seed):
    """Sup of |b(t,x)-b(t,y)| / omega(|x-y|) over seeded pairs in B(0, r).

    Times form a grid of ``time_count`` points on [0, 1].  Pairs come from
    one seeded stream, so more pairs refine the sample set without
    reshuffling it and the estimate never decreases.
    """
    times = np.linspace(0.0, 1.0, time_count)
    rng = np.random.default_rng(seed)
    box = rng.uniform(-radius, radius,
                      size=(pair_samples, 2, field.dimension))
    inside = np.linalg.norm(box, axis=2) <= radius
    keep = inside[:, 0] & inside[:, 1]
    xs, ys = box[keep, 0, :], box[keep, 1, :]
    dists = np.linalg.norm(xs - ys, axis=1)
    xs, ys, dists = xs[dists > 0.0], ys[dists > 0.0], dists[dists > 0.0]
    denom = np.asarray(field.modulus(dists), dtype=float)
    assert np.all(denom > 0.0)
    best = 0.0
    for t in times:
        gaps = np.linalg.norm(evaluate_batch(field, t, xs)
                              - evaluate_batch(field, t, ys), axis=1)
        best = max(best, float(np.max(gaps / denom)))
    return best


@pytest.mark.parametrize("name", sorted(FIELD_CATALOG))
def test_declared_modulus_constants_dominate_empirical(name):
    """The advertised constants must bound a dense seeded pair sample."""
    f = _CATALOG_INSTANCES[name]()
    for radius in (0.5, 2.0):
        declared = f.modulus_constant
        est = _empirical_modulus_constant(f, radius, 3, 4000, seed=101)
        assert est <= declared * (1.0 + 1e-12)


def test_declared_envelopes_hold_on_random_clouds():
    rng = np.random.default_rng(99)
    for name, build in _CATALOG_INSTANCES.items():
        f = build()
        pts = rng.normal(scale=2.0, size=(500, f.dimension))
        evaluate_batch(f, 0.5, pts)  # raises EnvelopeViolation on a breach


def test_linear_estimate_approaches_the_spectral_norm():
    matrix = [[0.6, 1.0], [0.0, 0.4]]
    f = linear_field(matrix)
    declared = float(np.linalg.norm(np.asarray(matrix), 2))
    assert f.modulus_constant == declared
    est = _empirical_modulus_constant(f, 1.0, 1, 8000, seed=3)
    assert 0.9 * declared <= est <= declared


def test_estimate_is_nondecreasing_in_sample_count():
    f = osgood_1d_field()
    small = _empirical_modulus_constant(f, 1.5, 2, 500, seed=8)
    large = _empirical_modulus_constant(f, 1.5, 2, 2000, seed=8)
    assert large >= small


# -- row values: what the flow's live-row evaluation relies on ----------------

@pytest.mark.parametrize("n", range(1, 8))
def test_row_norms_match_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3000, n)) * 10.0 ** rng.uniform(-320, 300,
                                                             (3000, n))
    a[::6] = 0.0
    a[1::6, 0] = 0.0
    a[2::6] = rng.uniform(-1.0, 1.0, (500, n)) * 2.0 ** -1060  # subnormal
    a[3::6] *= 1e-160  # squares near and below the smallest normal
    a[4::6, -1] = 1e200  # the square overflows to inf
    with np.errstate(over="ignore", under="ignore"):
        got = row_norms(a)
        want = np.linalg.norm(a, axis=1)
    assert np.isinf(got).any() and (got == 0.0).any()
    assert got.tobytes() == want.tobytes()
    assert row_norms(np.zeros((0, n))).shape == (0,)


def _probe_points(dimension):
    """67 points through every branch of the catalog: the singular point and
    its freeze radius, the smooth margins and truncations, and far out."""
    rng = np.random.default_rng(5)
    if dimension == 1:
        special = [0.0, 1e-9, 5e-4, 1e-3, 0.5, 1.0 - 5e-4, 1.0, -0.3, 1.7]
        x = np.concatenate([special,
                            rng.uniform(-0.5, 1.5, 67 - len(special))])
        return x[:, None]
    special = [0.0, 1e-9, 1e-5, 0.25, 0.4, 0.5, 0.9]
    r = np.concatenate([special, rng.uniform(0.0, 0.6, 67 - len(special))])
    theta = rng.uniform(0.0, 2.0 * math.pi, 67)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@pytest.mark.parametrize("name", sorted(FIELD_CATALOG))
def test_catalog_rows_do_not_depend_on_their_batch(name):
    # each row keeps its bits at every batch size and every position in the
    # batch, which SIMD tails could break
    f = _CATALOG_INSTANCES[name]()
    pts = _probe_points(f.dimension)
    full = f.evaluator(0.0, pts)
    count = len(pts)
    for size in range(1, count + 1):
        for shift in range(count):
            rows = (shift + np.arange(size)) % count
            assert f.evaluator(0.0, pts[rows]).tobytes() == \
                full[rows].tobytes(), (size, shift)


@pytest.mark.parametrize("name", sorted(FIELD_CATALOG))
def test_catalog_fields_do_not_depend_on_t(name):
    f = _CATALOG_INSTANCES[name]()
    pts = _probe_points(f.dimension)
    assert f.evaluator(0.0, pts).tobytes() == \
        f.evaluator(0.73, pts).tobytes()
