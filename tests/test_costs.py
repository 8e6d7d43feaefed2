"""Concave saturating costs: closed forms, concavity, table vs quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import (ConcaveCost, CostRangeError, FieldError, Modulus,
                      modulus_linear, modulus_log, modulus_loglog,
                      modulus_loglog_squared, reference_cost,
                      saturation_integral, tail_modify)


def linear_closed_form(r, delta, beta):
    """beta * int_0^r ds/(max(s, s^2 1_{s>1}) + delta), done by hand."""
    rd = math.sqrt(delta)
    below = beta * math.log((min(r, 1.0) + delta) / delta)
    if r <= 1.0:
        return below
    return below + (beta / rd) * (math.atan(r / rd) - math.atan(1.0 / rd))


@pytest.fixture(scope="module")
def cost_quarter():
    return ConcaveCost(modulus_linear(), 0.25, 2.0)


def test_cost_closed_form_below_one(cost_quarter):
    assert cost_quarter.cost(1.0) == pytest.approx(2.0 * math.log(5.0),
                                                   rel=1e-12)
    for r in (1e-9, 0.01, 0.3, 0.999):
        assert cost_quarter.cost(r) == pytest.approx(
            linear_closed_form(r, 0.25, 2.0), rel=1e-11)


def test_cost_closed_form_beyond_one(cost_quarter):
    for r in (1.5, 3.0, 40.0, 1e5):
        assert cost_quarter.cost(r) == pytest.approx(
            linear_closed_form(r, 0.25, 2.0), rel=1e-10)


def test_saturation_value(cost_quarter):
    exact = 2.0 * (math.log(5.0) + 2.0 * (math.pi / 2.0 - math.atan(2.0)))
    assert cost_quarter.c_infinity == pytest.approx(exact, rel=1e-10)
    assert cost_quarter.cost(math.inf) == cost_quarter.c_infinity
    assert cost_quarter.cost(1e200) == pytest.approx(cost_quarter.c_infinity,
                                                     rel=1e-10)


def test_saturation_integral_matches_c_infinity(cost_quarter):
    j = saturation_integral(modulus_linear(), 0.25)
    assert cost_quarter.c_infinity == pytest.approx(2.0 * j, rel=1e-10)
    with pytest.raises(FieldError):
        saturation_integral(modulus_linear(), 0.0)


def test_cost_at_zero_and_slope(cost_quarter):
    assert cost_quarter.cost(0.0) == 0.0
    assert cost_quarter.cost_derivative(0.0) == 2.0 / 0.25
    # slope is nonincreasing (concavity, in derivative form)
    grid = np.geomspace(1e-8, 1e4, 200)
    slopes = [cost_quarter.cost_derivative(r) for r in grid]
    assert all(a >= b - 1e-15 for a, b in zip(slopes, slopes[1:]))


def test_array_slopes_equal_the_scalar_slopes():
    radii = np.concatenate([[0.0], np.geomspace(1e-30, 1e3, 121)])
    for modulus in (modulus_linear(), modulus_log(), modulus_loglog(),
                    modulus_loglog_squared()):
        c = ConcaveCost(modulus, 1e-3, 0.7)
        slopes = c.cost_derivative(radii)
        assert slopes.shape == radii.shape
        assert slopes.tolist() == [c.cost_derivative(r) for r in radii]


def test_cost_is_monotone_subadditive_lipschitz(cost_quarter):
    c = cost_quarter
    rng = np.random.default_rng(42)
    pairs = rng.uniform(0.0, 5.0, size=(200, 2))
    cap = c.beta / c.delta
    for a, b in pairs:
        ca, cb, cab = c.cost(a), c.cost(b), c.cost(a + b)
        assert cab <= ca + cb + 1e-12
        assert abs(ca - cb) <= cap * abs(a - b) * (1.0 + 1e-9) + 1e-15
        lo, hi = min(a, b), max(a, b)
        assert c.cost(lo) <= c.cost(hi) + 1e-14
        # midpoint concavity
        assert c.cost(0.5 * (a + b)) >= 0.5 * (ca + cb) - 1e-12


@pytest.mark.parametrize("delta", [1.0, 1e-3, 5e-13])
def test_vectorized_cost_tracks_the_scalar_path(delta):
    """The knot table must resolve the integrand knee near delta; a coarse
    table once made cost_many disagree with cost() by 1e-3 at tiny delta.
    The documented bound, 3e-11 relative, holds on every canned modulus."""
    radii = np.concatenate([[0.0], np.geomspace(1e-30, 1e3, 120), [np.inf]])
    for modulus in (modulus_linear(), modulus_log(), modulus_loglog(),
                    modulus_loglog_squared()):
        c = ConcaveCost(modulus, delta, 0.7)
        vec = c.cost_many(radii)
        for r, v in zip(radii, vec):
            s = c.cost(r)
            assert v == pytest.approx(s, rel=3e-11, abs=1e-300), f"r={r!r}"


def test_table_edges_match_the_scalar_path(cost_quarter):
    """Below the first positive knot, on a knot, at the last knot and
    beyond it, cost_many and cost agree; on a knot both return the table's
    cumulative value, because the residual interval is empty."""
    knots = cost_quarter._table.knots
    values = cost_quarter._table.values
    for i in (1, len(knots) // 2, len(knots) - 1):
        assert cost_quarter.cost(knots[i]) == values[i]
        assert cost_quarter.cost_many(np.array([knots[i]]))[0] == values[i]
    radii = np.array([0.5 * knots[1], knots[1], 1.0, knots[-1],
                      2.0 * knots[-1]])
    vec = cost_quarter.cost_many(radii)
    for r, v in zip(radii, vec):
        s = cost_quarter.cost(r)
        assert v == pytest.approx(s, rel=3e-11), f"r={r!r}"
        assert v <= cost_quarter.c_infinity
    assert cost_quarter.cost(0.5 * knots[1]) == pytest.approx(
        linear_closed_form(0.5 * knots[1], 0.25, 2.0), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [2.0, 1e3, 1e200])
def test_cost_beyond_the_last_knot_is_quiet_and_saturates(cost_quarter,
                                                          factor):
    r = factor * cost_quarter._table.knots[-1]
    value = cost_quarter.cost(r)
    assert value == pytest.approx(cost_quarter.cost_many(np.array([r]))[0],
                                  rel=3e-11)
    assert value <= cost_quarter.c_infinity


def test_cost_many_shapes(cost_quarter):
    grid = np.array([[0.1, 0.2], [0.3, 0.4]])
    out = cost_quarter.cost_many(grid)
    assert out.shape == grid.shape
    assert out[1, 0] == pytest.approx(cost_quarter.cost(0.3), rel=1e-11)
    assert isinstance(cost_quarter.cost_many(0.3), float)


def test_cost_inverse_roundtrip(cost_quarter):
    for r in (1e-6, 0.02, 0.5, 1.0, 7.0, 300.0):
        v = cost_quarter.cost(r)
        back = cost_quarter.cost_inverse(v)
        assert cost_quarter.cost(back) == pytest.approx(v, rel=1e-9,
                                                        abs=1e-12)
    assert cost_quarter.cost_inverse(0.0) == 0.0


def test_cost_inverse_range_guard(cost_quarter):
    with pytest.raises(CostRangeError):
        cost_quarter.cost_inverse(cost_quarter.c_infinity * 1.01)
    with pytest.raises(CostRangeError):
        cost_quarter.cost_inverse(-0.1)


def test_argument_guards(cost_quarter):
    with pytest.raises(CostRangeError):
        cost_quarter.cost(-1.0)
    with pytest.raises(CostRangeError):
        cost_quarter.cost(math.nan)
    with pytest.raises(CostRangeError):
        cost_quarter.cost_many(np.array([0.1, -0.2]))
    with pytest.raises(CostRangeError):
        cost_quarter.cost_derivative(np.array([0.1, -0.2]))
    with pytest.raises(FieldError):
        ConcaveCost(modulus_linear(), 0.0, 1.0)
    with pytest.raises(FieldError):
        ConcaveCost(modulus_linear(), 0.1, -1.0)


def test_tail_modify_pins_the_quadratic_floor():
    mod = tail_modify(modulus_linear())
    assert float(mod(0.5)) == 0.5
    assert float(mod(1.0)) == 1.0
    assert float(mod(3.0)) == 9.0
    log_mod = tail_modify(modulus_log())
    s = np.array([2.0, 50.0])
    base = modulus_log()(s)
    floor = float(modulus_log()(1.0)) * s * s
    np.testing.assert_allclose(log_mod(s), np.maximum(base, floor), rtol=0)


def test_tail_modify_rejects_degenerate_modulus():
    dead = Modulus(lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                   osgood=False)
    with pytest.raises(FieldError):
        tail_modify(dead)


def test_nonosgood_modulus_still_yields_a_finite_saturating_cost():
    c = ConcaveCost(modulus_loglog_squared(), 0.05, 1.0)
    assert math.isfinite(c.c_infinity)
    assert c.cost(1e4) <= c.c_infinity


def test_reference_cost_clips_at_one():
    assert reference_cost(0.3) == 0.3
    assert reference_cost(2.5) == 1.0
    np.testing.assert_array_equal(reference_cost(np.array([0.0, 0.5, 9.0])),
                                  [0.0, 0.5, 1.0])
    with pytest.raises(CostRangeError):
        reference_cost(-0.1)


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(min_value=1e-6, max_value=10.0),
       beta=st.floats(min_value=1e-3, max_value=100.0),
       a=st.floats(min_value=0.0, max_value=50.0),
       b=st.floats(min_value=0.0, max_value=50.0))
def test_cost_properties_hold_across_parameters(delta, beta, a, b):
    c = ConcaveCost(modulus_log(), delta, beta)
    lo, hi = sorted((a, b))
    c_lo, c_hi = c.cost(lo), c.cost(hi)
    assert 0.0 <= c_lo <= c_hi * (1.0 + 1e-12) + 1e-15
    assert c_hi <= c.c_infinity * (1.0 + 1e-12)
    assert c.cost(lo + hi) <= c_lo + c_hi + 1e-10 * (1.0 + c_hi)
