"""Concave saturating costs: closed forms, concavity, table vs quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import (ConcaveCost, CostRangeError, FieldError, Modulus,
                      QuadratureError, build_cutoff, growth_affine, growth_constant,
                      modulus_linear, modulus_log, modulus_loglog,
                      modulus_loglog_squared, reference_cost,
                      saturation_integral, tail_modify)
from charflow import costs, diagnostics, scenarios
from charflow.costs import brentq, excess, gauss_legendre


def linear_closed_form(r, delta, beta):
    """beta * int_0^r ds/(max(s, s^2 1_{s>1}) + delta), done by hand."""
    rd = math.sqrt(delta)
    below = beta * math.log((min(r, 1.0) + delta) / delta)
    if r <= 1.0:
        return below
    return below + (beta / rd) * (math.atan(r / rd) - math.atan(1.0 / rd))


def full_cost(c, r):
    """c(r) by adaptive quadrature from 0 in u = log s, reading no knot
    table: the integrand s / (omega'(s) + delta) is bounded in u, and the
    range splits at its knee s = delta."""
    omega = tail_modify(c.modulus)

    def integrand(u):
        s = math.exp(u)
        return s / (float(omega(s)) + c.delta)

    top = math.log(r)
    knee = min(math.log(c.delta), top)
    total = 0.0
    for a, b in ((-math.inf, knee - 60.0), (knee - 60.0, knee), (knee, top)):
        if b > a:
            total += scipy.integrate.quad(integrand, a, b, limit=200,
                                          epsabs=0.0, epsrel=1e-13)[0]
    return c.beta * total


def adaptive_cost(c, r):
    """Independent oracle for ``c.cost_many(r)``: below the first positive
    knot the full integral from 0, and above it the knot table's value at
    the nearest knot at or below r plus the rest by adaptive quadrature.
    Beyond the last knot K the rest is integrated in u = K/s, where the
    integrand stays bounded, so r may be infinite."""
    r = float(r)

    def density(s):
        return float(c._density(s))

    knots, values = c._table.knots, c._table.values
    if r < knots[1]:
        return full_cost(c, r) if r > 0.0 else 0.0
    top = float(knots[-1])
    if r > top:
        tail, _ = scipy.integrate.quad(
            lambda u: top * density(top / u) / (u * u), top / r, 1.0,
            limit=200, epsabs=1e-15, epsrel=1e-12)
        return float(values[-1]) + tail
    base_r, base_v = c._table.base(r)
    if r <= base_r:
        return float(base_v)
    val, _ = scipy.integrate.quad(density, float(base_r), r, limit=200,
                                  epsabs=1e-13, epsrel=1e-12)
    return float(base_v) + val


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


CANNED_MODULI = (modulus_linear, modulus_log, modulus_loglog,
                 modulus_loglog_squared)


def test_saturation_integral_matches_the_linear_closed_form():
    """Over the schedule's whole clamp; an adaptive quadrature once stalled
    near 286 below delta = 1e-124 (645.7 is right at the floor)."""
    mod = modulus_linear()
    for delta in np.geomspace(1e-280, 1e12, 301):
        delta = float(delta)
        exact = (math.log1p(1.0 / delta)
                 + math.atan(math.sqrt(delta)) / math.sqrt(delta))
        assert saturation_integral(mod, delta) == pytest.approx(
            exact, rel=1e-13, abs=0.0), f"delta={delta!r}"


@pytest.mark.parametrize("make", CANNED_MODULI)
def test_saturation_integral_strictly_decreases(make):
    mod = make()
    values = [saturation_integral(mod, float(d))
              for d in np.geomspace(1e-280, 1e12, 600)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("make", CANNED_MODULI)
@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-7, 1e-13])
def test_saturation_integral_is_the_cost_ceiling_over_beta(make, delta):
    # the bound reads J as the cost's own j_value, so both routes to J agree
    # bit for bit, and the ceiling is beta times that same J
    mod = make()
    cost = ConcaveCost(mod, delta, 0.7)
    j = saturation_integral(mod, delta)
    assert cost.j_value == j
    assert cost.c_infinity == 0.7 * j
    with pytest.raises(AttributeError):
        cost.j_value = 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_delta_or_beta_is_rejected(value):
    with pytest.raises(FieldError, match="finite"):
        saturation_integral(modulus_log(), value)
    with pytest.raises(FieldError, match="finite"):
        ConcaveCost(modulus_log(), value, 1.0)
    with pytest.raises(FieldError, match="finite"):
        ConcaveCost(modulus_log(), 1e-3, value)


def _leggauss_32(density, lo, hi):
    """32-node Gauss-Legendre integrals over each [lo, hi]: an oracle that
    shares no rule with the package."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    points = mid[:, None] + half[:, None] * nodes
    return (density(points.ravel()).reshape(points.shape)
            * weights).sum(axis=1) * half


def _residual_rules_disagree(table, radii):
    """Largest gap between the 4- and 32-node table values, relative to
    the value, after checking that ``value`` takes the 4-node one."""
    base_r, base_v = table.base(radii)
    four = base_v + gauss_legendre(table.density, base_r, radii)
    full = base_v + _leggauss_32(table.density, base_r, radii)
    assert np.array_equal(table.value(radii), four)
    return float(np.max(np.abs(four - full) / full))


@pytest.mark.parametrize("make", CANNED_MODULI)
@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-7, 1e-13])
def test_four_node_residual_matches_32_nodes_on_costs(make, delta):
    table = ConcaveCost(make(), delta, 0.7)._table
    rng = np.random.default_rng(11)
    radii = np.exp(rng.uniform(math.log(table.knots[1]),
                               math.log(table.knots[-1]), 4000))
    assert _residual_rules_disagree(table, radii) <= 4.4e-16


@pytest.mark.parametrize("growth", [growth_constant(), growth_affine()])
@pytest.mark.parametrize("k", [1.0, 7.0, 600.0])
def test_four_node_residual_matches_32_nodes_on_cutoffs(growth, k):
    # sampled over the window (k, r_zero): constant growth at k = 600 has
    # a one-interval table, whose knots[1:] is a single point
    cut = build_cutoff(growth, k)
    rng = np.random.default_rng(12)
    radii = rng.uniform(cut.k, cut.r_zero, 4000)
    assert _residual_rules_disagree(cut._h_table, radii) <= 4.4e-16


def test_cost_many_takes_4_nodes_inside_a_positive_knot_interval(
        monkeypatch):
    """4 modulus values per radius inside the table, one below its first
    positive knot (r * density(r)), and none beyond its last knot, where
    the floor tail is in closed form; a build on a tabulated modulus takes
    none.  A batch of several blocks is still one ``cost_many`` call, with
    one modulus call per block."""
    points = []

    def counted(s, _original=modulus_log()):
        points.append(np.size(s))
        return _original(s)

    modulus = Modulus(counted, osgood=True)
    saturation_integral(modulus, 1.0)
    points.clear()
    cost = ConcaveCost(modulus, 1e-3, 0.5)
    assert points == []
    knots = cost._table.knots
    inside = np.array([0.5 * (knots[1] + knots[2]), 0.3, 2.0, knots[-1]])
    head = np.array([0.5 * knots[1]])
    beyond = np.array([3.0 * knots[-1], np.inf])
    cost.cost_many(np.concatenate([inside, head, beyond]))
    assert sorted(points) == [len(head), 4 * len(inside)]
    points.clear()
    cost.cost_many(beyond)
    assert points == []

    calls = []

    def once(self, radii, _original=ConcaveCost.cost_many):
        calls.append(np.size(radii))
        return _original(self, radii)

    monkeypatch.setattr(ConcaveCost, "cost_many", once)
    many = np.geomspace(knots[1], knots[-1], 2 * costs._BLOCK + 3)
    cost.cost_many(many)
    assert calls == [len(many)]
    assert points == [4 * costs._BLOCK] * 2 + [4 * 3]


def _traced_peak(call):
    """Peak traced bytes while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_node_table_build_peak_memory():
    # traced peak of one node-table build beyond the 2.75 MiB table: 0.36
    # MiB here, 4.1 MiB when omega' and the rule nodes were formed on the
    # whole grid at once
    mod = modulus_log()
    peak = _traced_peak(lambda: costs._node_table(mod))
    table = sum(a.nbytes for a in costs._node_table(mod)[:3])
    assert peak <= table + 2**20


def test_cost_many_peak_memory():
    # traced peak of cost_many on 50,000 radii inside the knot table, in
    # arrays of 50,000 floats: 4.2 here, 21.9 when the residual ran on
    # every radius at once
    cost = ConcaveCost(modulus_log(), 1e-3, 0.5)
    radii = np.geomspace(cost._table.knots[1], cost._table.knots[-1], 50_000)
    cost.cost_many(radii)
    assert _traced_peak(lambda: cost.cost_many(radii)) <= 6 * radii.nbytes


def test_saturation_integral_peak_memory():
    # traced peak of one J in node-grid arrays (160,256 floats): 1.0 here,
    # 2.0 when omega' + delta and its quotient were two arrays
    mod = modulus_log()
    saturation_integral(mod, 1e-3)
    omega = costs._node_table(mod)[2]
    peak = _traced_peak(lambda: saturation_integral(mod, 1e-3))
    assert peak <= 1.1 * omega.nbytes


BLOCK_EDGE_SIZES = (costs._BLOCK - 1, costs._BLOCK, costs._BLOCK + 1,
                    3 * costs._BLOCK + 5)


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_cost_many_keeps_its_bits_across_block_edges(size):
    # head, table and floor-tail radii, each equal to its one-radius call
    cost = ConcaveCost(modulus_loglog(), 1e-3, 0.5)
    radii = np.geomspace(1e-305, 1e15, size)
    alone = [cost.cost_many(radii[k:k + 1])[0] for k in range(size)]
    np.testing.assert_array_equal(cost.cost_many(radii), alone)


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
def test_gauss_legendre_keeps_its_bits_across_block_edges(size):
    calls = []

    def density(s, _omega=tail_modify(modulus_log())):
        calls.append(np.size(s))
        return 1.0 / (_omega(s) + 1e-3)

    edges = np.geomspace(1e-12, 1e6, size + 1)
    whole = gauss_legendre(density, edges[:-1], edges[1:])
    assert calls == [4 * min(costs._BLOCK, size - k)
                     for k in range(0, size, costs._BLOCK)]
    alone = [gauss_legendre(density, edges[k:k + 1], edges[k + 1:k + 2])[0]
             for k in range(size)]
    np.testing.assert_array_equal(whole, alone)


# J recorded before the node table and J's terms were formed in blocks and
# in place, as repr'd floats: neither may move a bit
SATURATION_DELTAS = (1.0, 1e-4, 1e-9, 1e-280)
SATURATION_BITS = {
    "modulus_linear": (1.4785453439573937, 10.210407035643039,
                       21.723265837613077, 645.7238260383328),
    "modulus_log": (1.2225983043818553, 3.6508887392185785,
                    4.382167972134681, 7.690558073846679),
    "modulus_loglog": (0.9779137256597874, 2.2235917542972543,
                       2.4543760777626904, 3.147214889749504),
    "modulus_loglog_squared": (0.7661384645110655, 1.384280399744882,
                               1.454523878331801, 1.6030201604911651),
}


@pytest.mark.parametrize("make", CANNED_MODULI)
def test_saturation_integral_keeps_its_recorded_bits(make):
    mod = make()
    assert tuple(saturation_integral(mod, delta)
                 for delta in SATURATION_DELTAS) == \
        SATURATION_BITS[make.__name__]


@pytest.mark.parametrize("make", CANNED_MODULI)
@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-7, 1e-13])
def test_cost_many_matches_the_full_integral_from_zero(make, delta):
    """The oracle reads no knot table, so it sees the table's first
    intervals: a table whose first interval [0, delta * 1e-5] spanned the
    modulus's log singularity was 5.2e-11 off for loglog_squared at
    delta = 1e-13, r = 1e-18 (measured error now below 3e-15)."""
    c = ConcaveCost(make(), delta, 0.7)
    radii = [delta * 1e-5, delta, 0.3, 5.0]
    for r, value in zip(radii, c.cost_many(np.array(radii))):
        assert value == pytest.approx(full_cost(c, r), rel=1e-13, abs=0.0), \
            f"r={r!r}"


def test_tiny_beta_over_delta_starts_the_table_at_normal_increments():
    """With beta/delta = 1e-15 the increments of the intervals below about
    1e-291 are subnormal and would fail the slope and concavity audits; the
    table starts at the first normal one, and below it the cost is
    r * beta / delta to roundoff."""
    delta, beta = 1e12, 1e-3
    c = ConcaveCost(modulus_linear(), delta, beta)
    knots, values = c._table.knots, c._table.values
    assert 1e-300 < knots[1] < 1e-280
    assert values[2] - values[1] >= np.finfo(float).tiny
    root = math.sqrt(delta)
    for r in (1e-295, knots[1], 1e-6, 0.5):
        assert c.cost(r) == pytest.approx(beta * math.log1p(r / delta),
                                          rel=1e-13, abs=0.0)
    for r in (3.0, 1e15):
        exact = beta * (math.log1p(1.0 / delta) + (
            math.atan(r / root) - math.atan(1.0 / root)) / root)
        assert c.cost(r) == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("make", [modulus_linear, modulus_log])
@pytest.mark.parametrize("beta", [1e-3, 1.0, 100.0])
def test_cost_inverse_round_trips_up_to_the_ceiling(make, beta):
    """Past the last knot (1e13) the inverse solves the floor tail in
    closed form: with beta = 100 and delta >= 1e6 that tail is above the
    inverse's tolerance, so the last knot alone cannot answer."""
    for delta in (1e-13, 1e-4, 1.0, 1e6, 1e12):
        c = ConcaveCost(make(), delta, beta)
        for fraction in (0.2, 0.9, 1.0 - 1e-9, 1.0 - 1e-13, 1.0):
            value = fraction * c.c_infinity
            back = c.cost_inverse(value)
            assert abs(c.cost(back) - value) <= 1e-12 * max(1.0, value), \
                f"delta={delta!r}, fraction={fraction!r}"


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
    table once made cost_many disagree with an adaptive residual by 1e-3 at
    tiny delta.  The documented bound, 3e-11 relative against the adaptive
    oracle, holds on every canned modulus."""
    radii = np.concatenate([[0.0], np.geomspace(1e-30, 1e3, 120), [np.inf]])
    for modulus in (modulus_linear(), modulus_log(), modulus_loglog(),
                    modulus_loglog_squared()):
        c = ConcaveCost(modulus, delta, 0.7)
        vec = c.cost_many(radii)
        for r, v in zip(radii, vec):
            s = adaptive_cost(c, r)
            assert v == pytest.approx(s, rel=3e-11, abs=1e-300), f"r={r!r}"


def test_table_edges_match_the_scalar_path(cost_quarter):
    """Below the first positive knot, on a knot, at the last knot and
    beyond it, cost_many agrees with the adaptive oracle; on a knot it
    returns the table's cumulative value, because the residual interval is
    empty."""
    knots = cost_quarter._table.knots
    values = cost_quarter._table.values
    for i in (1, len(knots) // 2, len(knots) - 1):
        assert cost_quarter.cost(knots[i]) == values[i]
        assert cost_quarter.cost_many(np.array([knots[i]]))[0] == values[i]
    radii = np.array([0.5 * knots[1], knots[1], 1.0, knots[-1],
                      2.0 * knots[-1]])
    vec = cost_quarter.cost_many(radii)
    for r, v in zip(radii, vec):
        s = adaptive_cost(cost_quarter, r)
        assert v == pytest.approx(s, rel=3e-11), f"r={r!r}"
        assert v <= cost_quarter.c_infinity
    assert cost_quarter.cost(0.5 * knots[1]) == pytest.approx(
        linear_closed_form(0.5 * knots[1], 0.25, 2.0), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [2.0, 1e3, 1e200])
def test_cost_beyond_the_last_knot_is_quiet_and_saturates(cost_quarter,
                                                          factor):
    r = factor * cost_quarter._table.knots[-1]
    value = cost_quarter.cost_many(np.array([r]))[0]
    assert value == pytest.approx(adaptive_cost(cost_quarter, r), rel=3e-11)
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


@pytest.mark.parametrize("make", CANNED_MODULI)
@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-7, 1e-13])
def test_cost_inverse_of_the_ceiling_round_trips(make, delta):
    """c_infinity lies past the last knot's value by the closed-form tail,
    which no finite radius closes; the inverse stops within tolerance."""
    c = ConcaveCost(make(), delta, 0.7)
    back = c.cost_inverse(c.c_infinity)
    assert abs(c.cost(back) - c.c_infinity) <= 1e-12 * max(1.0,
                                                           c.c_infinity)


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


def _shallow_dip(s):
    """s, less 1e-8 spread over the decade [1e-12, 1e-11]: omega goes
    slightly negative, so the cost's slope climbs about 1e-8 above beta/delta
    in steps of under 1e-10, which the concavity check tolerates."""
    s = np.asarray(s, dtype=float)
    return s - 1e-8 * np.clip(np.log10(np.clip(s, 1e-300, None)) + 12.0,
                              0.0, 1.0)


def _drop_at_half(s):
    """s up to 0.5, then 0.25: nonnegative, so the slope never passes
    beta/delta, but it jumps up at 0.5."""
    s = np.asarray(s, dtype=float)
    return np.where(s <= 0.5, s, 0.25)


@pytest.mark.parametrize("evaluator,message", [
    (_shallow_dip, "cost slope exceeded beta/delta"),
    (_drop_at_half, "cost table lost concavity"),
])
def test_cost_table_audit_rejects_a_bad_modulus(evaluator, message):
    # each modulus fails that one of the three audits and passes the others
    with pytest.raises(QuadratureError, match=message):
        ConcaveCost(Modulus(evaluator, osgood=True), 1.0, 1.0)


def test_cost_table_audit_rejects_a_negative_increment(monkeypatch):
    # negative rule weights on the last interval of the node table give one
    # negative increment at the end: the slope falls below 0 there, so it
    # stays under beta/delta and concave
    mod = modulus_linear()
    edges, weights, omega, omega_one = costs._node_table(mod)
    weights = weights.copy()
    weights[-len(costs._WEIGHTS):] *= -1.0
    monkeypatch.setitem(costs._NODE_TABLES, mod,
                        (edges, weights, omega, omega_one))
    with pytest.raises(QuadratureError,
                       match="cost increments must be nonnegative"):
        ConcaveCost(mod, 1.0, 1.0)


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


UNDERFLOW_RADII = [5e-324, 1e-310, 2.225073858507203e-309, 1e-307, 3e-305]


@pytest.mark.parametrize("radius", UNDERFLOW_RADII)
def test_cost_near_the_underflow_threshold(radius):
    # the rule's half-width underflows here: 5e-324 once gave 0 and 1e-310
    # was 4.9e-14 off; below 1e-300 the cost is r * density(r)
    c = ConcaveCost(modulus_log(), 1e-6, 1.0)
    assert c.cost(radius) == pytest.approx(radius / 1e-6, rel=1e-12)
    radii = np.array(UNDERFLOW_RADII)
    np.testing.assert_allclose(c.cost_many(radii), radii / 1e-6, rtol=1e-12)


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


# -- the root finder against scipy's brentq -----------------------------------

EPS4 = 4.0 * np.finfo(float).eps


def _scipy_root(f, target, a, b, xtol, rtol, disp=True):
    return scipy.optimize.brentq(excess, a, b, args=(f, target), xtol=xtol,
                                 rtol=rtol, disp=disp)


def assert_same_root(f, target, a, b, xtol, rtol, disp=True):
    """The port and scipy give the same float, or the same error."""
    try:
        want = _scipy_root(f, target, a, b, xtol, rtol, disp)
    except (ValueError, RuntimeError) as error:
        with pytest.raises(type(error)) as caught:
            brentq(f, target, a, b, xtol=xtol, rtol=rtol, disp=disp)
        assert str(caught.value) == str(error)
        return None
    got = brentq(f, target, a, b, xtol=xtol, rtol=rtol, disp=disp)
    assert type(got) is float and got.hex() == want.hex(), (a, b, target)
    return got


@pytest.mark.parametrize("make", [modulus_linear, modulus_log,
                                  modulus_loglog])
@pytest.mark.parametrize("delta,beta", [(0.25, 2.0), (1e-7, 1.0),
                                        (1e-13, 0.01)])
def test_brentq_matches_scipy_on_the_cost_inverse_sweep(make, delta, beta):
    cost = ConcaveCost(make(), delta, beta)
    knots, values = cost._table.knots, cost._table.values
    targets = np.concatenate([
        cost.c_infinity * np.geomspace(1e-9, 0.999, 40),
        values[1:-1:997] * (1.0 + 1e-13)])
    for v in targets[(targets > 1e-12) & (targets < values[-1])]:
        pos = int(np.searchsorted(values, v))
        r = assert_same_root(cost.cost, float(v), knots[pos - 1],
                             knots[pos], 1e-300, EPS4, disp=False)
        assert cost.cost_inverse(v) == r


@pytest.mark.parametrize("growth", [growth_affine, growth_constant])
def test_brentq_matches_scipy_on_the_cutoff_radii(growth):
    g = growth()
    for k in range(1, 17):
        cut = build_cutoff(g, float(k))
        table = cut._h_table
        r = assert_same_root(table.value, 1.0, table.knots[-2],
                             table.knots[-1], 1e-300, EPS4)
        assert cut.r_zero == r


def test_brentq_matches_scipy_on_every_canned_schedule(monkeypatch,
                                                       tmp_path):
    # every root of a canned run (schedule deltas in log-delta, cutoff
    # radii, cost inverses) is found twice, by the port and by scipy
    seen = []

    def both(f, target, a, b, xtol, rtol, disp=True):
        seen.append((a, b))
        return assert_same_root(f, target, a, b, xtol, rtol, disp)

    monkeypatch.setattr(diagnostics, "brentq", both)
    monkeypatch.setattr(costs, "brentq", both)
    names = [n for n in scenarios.builtin_names() if n != "mixing_disc"]
    for name in names:
        config = scenarios.ScenarioConfig.from_dict(
            scenarios.builtin_config(name))
        assert scenarios.run_scenario(config, tmp_path / name).exit_code == 0
    assert len(seen) >= 3 * len(names)


TEXTBOOK = [
    (lambda x: x * x - 1.0, 0.0, 2.0),
    (lambda x: x * x - 1.0, -2.0, 0.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -10.0, 10.0),
    (lambda x: math.tan(x) - x, 4.0, 4.6),
    (lambda x: (x - 1.0) ** 3, 0.0, 3.0),
    (lambda x: (x - 1.0) ** 9, -5.0, 1.5),
    (lambda x: 1e-200 * (x - 0.3), -1.0, 2.0),
    # the extrapolation's denominator underflows to 0: C takes an infinite
    # or NaN step and bisects
    (lambda x: 1e-170 * ((x - 0.3) ** 3 + (x - 0.3)), -1.0, 2.0),
    (lambda x: math.atan(1e6 * (x - 1e-3)), -1.0, 1.0),
    (lambda x: 1.0 if x > 0.25 else -1.0, 0.0, 1.0),
    (lambda x: x, -1.0, 1.0),
    (lambda x: x, 0.0, 1.0),
]


@pytest.mark.parametrize("f,a,b", TEXTBOOK)
@pytest.mark.parametrize("xtol,rtol", [(2e-12, 8.881784197001252e-16),
                                       (1e-300, EPS4), (1e-3, 1e-6)])
def test_brentq_matches_scipy_on_textbook_brackets(f, a, b, xtol, rtol):
    for lo, hi in ((a, b), (b, a)):
        assert_same_root(f, 0.0, lo, hi, xtol, rtol)
    assert_same_root(f, 0.125, a, b, xtol, rtol, disp=False)


def _nan_at(bad):
    def f(x):
        return math.nan if x == bad else x - 0.5
    return f


def _nan_inside(x):
    return math.nan if 0.1 < x < 0.9 else x - 0.5


def _same_sign_underflowing(x):
    return 1e-200 * (x + 5.0)  # the product of the end values underflows


def _step(x):
    return 1.0 if x > 1e-300 else -1.0


def test_brentq_raises_scipys_errors():
    for f in (_nan_at(0.0), _nan_at(1.0), _nan_inside):
        with pytest.raises(ValueError, match="is NaN"):
            _scipy_root(f, 0.0, 0.0, 1.0, 2e-12, EPS4)
        assert_same_root(f, 0.0, 0.0, 1.0, 2e-12, EPS4)
    for f in (_same_sign_underflowing, math.exp, lambda x: -1.0):
        with pytest.raises(ValueError, match="different signs"):
            _scipy_root(f, 0.0, -1.0, 2.0, 2e-12, EPS4)
        assert_same_root(f, 0.0, -1.0, 2.0, 2e-12, EPS4)
    with pytest.raises(RuntimeError, match="100 iterations"):
        _scipy_root(_step, 0.0, -1e300, 1e300, 1e-300, EPS4)
    assert_same_root(_step, 0.0, -1e300, 1e300, 1e-300, EPS4)
    assert assert_same_root(_step, 0.0, -1e300, 1e300, 1e-300, EPS4,
                            disp=False) > 1e200
