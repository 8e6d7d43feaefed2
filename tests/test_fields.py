"""Field catalog: envelopes, moduli, and the declared-constant audit."""

import math

import numpy as np
import pytest
import scipy.integrate

from charflow import (EnvelopeViolation, FieldError, GrowthEnvelope,
                      Modulus, VectorFieldSpec, constant_field, evaluate,
                      evaluate_batch, linear_field, modulus_linear,
                      modulus_log, modulus_loglog, modulus_loglog_squared,
                      osgood_1d_field, osgood_plane_field,
                      nonosgood_plane_field, plateau_bump, rotation_field,
                      smooth_step, smooth_step_derivative)
from charflow.fields import FIELD_CATALOG


# -- smooth glue -------------------------------------------------------------

def test_smooth_step_saturates_exactly():
    assert smooth_step(-0.3) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(17.0) == 1.0
    assert smooth_step(0.5) == 0.5  # a == b by symmetry


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
    np.testing.assert_array_equal(evaluate(f, 0.0, [12.0]), [0.35])
    np.testing.assert_array_equal(evaluate(f, 3.0, [-4.0]), [0.35])
    assert f.modulus_constant_for(100.0) == 0.0


def test_rotation_quarter_positions():
    f = rotation_field()
    np.testing.assert_allclose(evaluate(f, 0.0, [1.0, 0.0]), [0.0, 1.0])
    np.testing.assert_allclose(evaluate(f, 0.0, [0.0, 2.0]), [-2.0, 0.0])


def test_batch_shape_guard():
    f = rotation_field()
    with pytest.raises(FieldError):
        evaluate_batch(f, 0.0, np.zeros((4, 3)))


def test_nonfinite_velocity_is_an_error():
    bad = VectorFieldSpec(
        dimension=1, name="bad", evaluator=lambda t, p: p * np.nan,
        growth=rotation_field().growth, modulus=modulus_linear(),
        growth_const=1.0, modulus_constants=((math.inf, 1.0),))
    with pytest.raises(FieldError, match="non-finite"):
        evaluate(bad, 0.0, [1.0])


def test_envelope_violation_is_hard():
    # identity field with a lying envelope: speed |x| against cap 1
    lying = VectorFieldSpec(
        dimension=1, name="liar", evaluator=lambda t, p: p.copy(),
        growth=GrowthEnvelope(lambda r: np.ones_like(r),
                              divergent_tail=True, name="unit"),
        modulus=modulus_linear(), growth_const=1.0,
        modulus_constants=((math.inf, 1.0),))
    evaluate(lying, 0.0, [0.5])  # inside the cap: fine
    with pytest.raises(EnvelopeViolation):
        evaluate(lying, 0.0, [2.0])


def test_modulus_constant_lookup_prefers_tight_radii():
    f = VectorFieldSpec(
        dimension=1, name="tiered", evaluator=lambda t, p: 0.0 * p,
        growth=GrowthEnvelope(lambda r: np.ones_like(r),
                              divergent_tail=True, name="unit"),
        modulus=modulus_linear(), growth_const=1.0,
        modulus_constants=((1.0, 2.0), (math.inf, 5.0)))
    assert f.modulus_constant_for(0.5) == 2.0
    assert f.modulus_constant_for(1.0) == 2.0
    assert f.modulus_constant_for(3.0) == 5.0
    capped = VectorFieldSpec(
        dimension=1, name="capped", evaluator=lambda t, p: 0.0 * p,
        growth=f.growth, modulus=modulus_linear(), growth_const=1.0,
        modulus_constants=((1.0, 2.0),))
    with pytest.raises(FieldError):
        capped.modulus_constant_for(2.0)


# -- catalog values ----------------------------------------------------------

def test_osgood1d_closed_form_inside():
    f = osgood_1d_field()
    x = 0.5
    assert evaluate(f, 0.0, [x])[0] == pytest.approx(-x * math.log(x),
                                                     rel=1e-13)
    assert evaluate(f, 0.0, [-0.2])[0] == 0.0
    assert evaluate(f, 0.0, [1.3])[0] == 0.0


def test_plane_fields_match_their_formulas():
    r2 = 0.04  # radius 0.2, inside the plateau where the cutoff is exactly 1
    log_r2 = math.log(r2)
    f_val = log_r2 * math.log(-log_r2)
    g_val = log_r2 * math.log(-log_r2) ** 2
    v = evaluate(osgood_plane_field(), 0.0, [0.2, 0.0])
    assert v[0] == pytest.approx(0.2 * f_val, rel=1e-12)
    assert v[1] == 0.0
    w = evaluate(nonosgood_plane_field(), 0.0, [0.12, 0.16])
    assert w[0] == pytest.approx(0.12 * g_val, rel=1e-12)
    assert w[1] == pytest.approx(-0.16 * g_val, rel=1e-12)


def test_plane_fields_vanish_outside_the_truncation():
    pts = np.array([[0.5, 0.0], [0.0, -0.8], [3.0, 4.0]])
    for build in (osgood_plane_field, nonosgood_plane_field):
        np.testing.assert_array_equal(evaluate_batch(build(), 0.0, pts),
                                      np.zeros_like(pts))


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
        declared = f.modulus_constant_for(radius)
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
    assert f.modulus_constant_for(1.0) == declared
    est = _empirical_modulus_constant(f, 1.0, 1, 8000, seed=3)
    assert 0.9 * declared <= est <= declared


def test_estimate_is_nondecreasing_in_sample_count():
    f = osgood_1d_field()
    small = _empirical_modulus_constant(f, 1.5, 2, 500, seed=8)
    large = _empirical_modulus_constant(f, 1.5, 2, 2000, seed=8)
    assert large >= small
