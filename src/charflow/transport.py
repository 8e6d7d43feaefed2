"""Discrete optimal transport between balanced atomic measures.

The ground space is Euclidean space plus one absorbing point; moving mass to
or from the absorbing point costs the saturation value of the concave cost,
and mass may only sit there when the pair carries a reservoir.  Because the
cost is concave with c(0) = 0 it is subadditive, the induced ground distance
is a metric, and the dual collapses to a single potential v with
v(x) - v(y) <= c(|x - y|) and v pinned to 0 at the absorbing point.

Two independent solvers are kept deliberately separate:

* :func:`solve_ot` runs a primal transportation simplex (tree basis,
  Dantzig pricing with a Bland fallback) and recovers the single dual
  potential from the optimal tree.
* :func:`brute_force_ot` never touches that code path: tiny instances are
  settled by enumerating every spanning-tree basis, slightly larger ones by
  successive shortest augmenting paths.  It is the cross-check, so it shares
  no assembly or pivoting logic with the simplex route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .costs import reference_cost
from .errors import ComparisonBoundError, CostRangeError, TransportError
from .fields import evaluate_batch

DIAMOND = -1  # entry index marking the absorbing point

_GAP_TOL = 1e-9
_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling as sparse entries (i, j, mass); index -1 is the
    absorbing point."""

    entries: tuple
    primal_value: float
    mu_locations: np.ndarray
    nu_locations: np.ndarray


@dataclass(frozen=True)
class DualPotential:
    """Single Kantorovich potential, stored through its generating data.

    ``v(z) = min_j cost(|z - y_j|) + base_j`` (plus the constant branch
    ``c_infinity`` when the absorbing point carries target mass), which
    makes v automatically cost-Lipschitz.  ``mu_values`` and ``nu_values``
    are its evaluations on the two supports; the target values double as
    the bases ``base_j``.  The value at the absorbing point is 0 by
    normalization.  The location arrays are the pair's own read-only
    arrays, not copies.
    """

    mu_values: np.ndarray
    nu_values: np.ndarray
    nu_locations: np.ndarray
    include_diamond_base: bool
    cost: object

    def dual_value(self, mu, nu):
        terms = [w * v for w, v in zip(mu.weights, self.mu_values)]
        terms += [-w * v for w, v in zip(nu.weights, self.nu_values)]
        # reservoir mass sits at the absorbing point where v = 0 exactly
        return math.fsum(terms)


def c_transform_extend(potential, points):
    """Evaluate the dual potential anywhere via its defining minimum."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(potential.nu_values) == 0:
        if not potential.include_diamond_base:
            raise TransportError("potential has no generating data")
        return np.full(len(points), potential.cost.c_infinity)
    dists = cdist(points, potential.nu_locations)
    values = potential.cost.cost_many(dists) + potential.nu_values[None, :]
    out = values.min(axis=1)
    if potential.include_diamond_base:
        out = np.minimum(out, potential.cost.c_infinity)
    return out


# -- problem assembly --------------------------------------------------------

def _assemble(pair, cost):
    """Rows, columns, and the ground-cost matrix for a balanced pair.

    A reservoir common to both sides is cancelled first (it would ship to
    itself at zero cost); whichever side keeps a positive remainder
    contributes the absorbing point as an extra row or column.
    """
    mu, nu = pair.mu, pair.nu
    common = min(mu.reservoir_weight, nu.reservoir_weight)
    extra_mu = mu.reservoir_weight - common
    extra_nu = nu.reservoir_weight - common

    supplies = list(mu.weights)
    demands = list(nu.weights)
    if extra_mu > 0.0 and extra_nu > 0.0:
        raise TransportError("both sides kept a reservoir after cancelling")
    diamond_row = diamond_col = False
    if extra_mu > 0.0:
        supplies.append(extra_mu)
        diamond_row = True
    if extra_nu > 0.0:
        demands.append(extra_nu)
        diamond_col = True

    if (diamond_row or diamond_col) and not math.isfinite(cost.c_infinity):
        raise TransportError(
            "cost does not saturate, so the absorbing point is unreachable")

    total_s, total_d = math.fsum(supplies), math.fsum(demands)
    scale = max(abs(total_s), abs(total_d), 1.0)
    if abs(total_s - total_d) > 1e-12 * scale:
        raise TransportError(
            f"pair is not balanced: {total_s!r} vs {total_d!r}")

    m_atoms, n_atoms = mu.atom_count, nu.atom_count
    rows = m_atoms + int(diamond_row)
    cols = n_atoms + int(diamond_col)
    ground = np.empty((rows, cols))
    if m_atoms and n_atoms:
        ground[:m_atoms, :n_atoms] = cost.cost_many(
            cdist(mu.locations, nu.locations))
    if diamond_row:
        ground[m_atoms, :] = cost.c_infinity
    if diamond_col:
        ground[:, n_atoms] = cost.c_infinity
    return (np.asarray(supplies), np.asarray(demands), ground,
            diamond_row, diamond_col, common)


def _entry_label(index, atom_count):
    return DIAMOND if index >= atom_count else index


# -- transportation simplex --------------------------------------------------

def _least_cost_start(supplies, demands, costs):
    """Basic feasible start: ship greedily along globally cheapest arcs.

    Each shipment exhausts at least one endpoint exactly (x - x == 0.0), so
    every connected component of shipped arcs keeps at most one unexhausted
    node and the arc set is a forest; zero-flow arcs then splice the
    components into a single spanning tree.  Greedy matching starts close
    to optimal on near-diagonal instances, which keeps the pivot count low.
    """
    m, n = len(supplies), len(demands)
    rem_s, rem_d = list(supplies), list(demands)
    flows = {}
    for index in np.argsort(costs, axis=None, kind="stable"):
        i, j = divmod(int(index), n)
        if rem_s[i] <= 0.0 or rem_d[j] <= 0.0:
            continue
        q = min(rem_s[i], rem_d[j])
        flows[(i, j)] = q
        rem_s[i] -= q
        rem_d[j] -= q

    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (i, j) in flows:
        parent[find(i)] = find(m + j)

    components = {}
    for node in range(m + n):
        components.setdefault(find(node), []).append(node)
    # splice order: a component holding both sides anchors the tree (any
    # shipped arc provides one), so every later component finds its
    # counterpart side already present
    pending = sorted(components.values(), key=lambda c: (not (
        any(node < m for node in c) and any(node >= m for node in c)),
        min(c)))
    anchor_rows = [p for p in pending[0] if p < m]
    anchor_cols = [p - m for p in pending[0] if p >= m]
    for comp in pending[1:]:
        rows = [p for p in comp if p < m]
        cols = [p - m for p in comp if p >= m]
        if cols and anchor_rows:
            arc = (min(anchor_rows), min(cols))
        elif rows and anchor_cols:
            arc = (min(rows), min(anchor_cols))
        else:
            raise TransportError("cannot splice the starting basis")
        flows.setdefault(arc, 0.0)
        anchor_rows.extend(rows)
        anchor_cols.extend(cols)
    return flows


def _tree_potentials(adj, costs, m, n):
    """Potentials u_i + v_j = costs[i, j] on the basis tree rooted at row 0,
    and each node's parent in that tree (-1 at the root)."""
    u = np.zeros(m)
    v = np.zeros(n)
    parent = [-2] * (m + n)
    parent[0] = -1
    stack = [0]
    while stack:
        p = stack.pop()
        for q in adj[p]:
            if parent[q] != -2:
                continue
            parent[q] = p
            if p < m:
                v[q - m] = costs[p, q - m] - u[p]
            else:
                u[q] = costs[q, p - m] - v[p - m]
            stack.append(q)
    if -2 in parent:
        raise TransportError("basis lost connectivity")
    return u, v, parent


def _tree_path(parent, start, goal):
    """The unique tree path from start to goal, both endpoints included:
    climb from start to the first ancestor of goal, then descend to goal."""
    up = [goal]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    steps_above_goal = {node: i for i, node in enumerate(up)}
    path = [start]
    while path[-1] not in steps_above_goal:
        path.append(parent[path[-1]])
    return path + up[:steps_above_goal[path[-1]]][::-1]


def _network_simplex(supplies, demands, costs):
    """Primal transportation simplex on a dense cost matrix.

    Returns (flows, u, v, pivots) with u_i + v_j = costs[i, j] on the final
    basis.  Dantzig pricing normally; a run of degenerate pivots switches to
    Bland's rule, which cannot cycle.
    """
    m, n = len(supplies), len(demands)
    flows = _least_cost_start(supplies, demands, costs)
    adj = {node: set() for node in range(m + n)}
    for (i, j) in flows:
        adj[i].add(m + j)
        adj[m + j].add(i)

    total = math.fsum(supplies)
    enter_tol = 1e-12 * (1.0 + float(np.max(np.abs(costs))))
    zero_theta = 1e-15 * max(total, 1.0)
    pivot_cap = 60 * (m + n) + 3000
    bland = False
    degenerate_run = 0

    for pivot in range(pivot_cap):
        u, v, parent = _tree_potentials(adj, costs, m, n)
        reduced = costs - u[:, None] - v[None, :]
        rows, cols = zip(*flows)
        reduced[rows, cols] = np.inf
        if bland:
            offenders = np.argwhere(reduced < -enter_tol)
            if len(offenders) == 0:
                return flows, u, v, pivot
            ei, ej = map(int, offenders[0])
        else:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, n)
            if reduced[ei, ej] >= -enter_tol:
                return flows, u, v, pivot

        # closed walk: entering arc, then the unique tree path back;
        # row-to-column hops gain mass, column-to-row hops lose it
        walk = [ei] + _tree_path(parent, m + ej, ei)
        plus, minus = [], []
        for p, q in zip(walk[:-1], walk[1:]):
            if p < m:
                plus.append((p, q - m))
            else:
                minus.append((q, p - m))
        theta = min(flows[arc] for arc in minus)
        leaving = min(arc for arc in minus if flows[arc] <= theta)

        for arc in plus:
            flows[arc] = flows.get(arc, 0.0) + theta
        for arc in minus:
            flows[arc] = max(flows[arc] - theta, 0.0)
        del flows[leaving]
        adj[leaving[0]].discard(m + leaving[1])
        adj[m + leaving[1]].discard(leaving[0])
        flows.setdefault((ei, ej), 0.0)
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)

        if theta <= zero_theta:
            degenerate_run += 1
            if degenerate_run >= m + n:
                bland = True
        else:
            degenerate_run = 0

    raise TransportError(f"simplex exceeded its pivot budget ({pivot_cap})")


def solve_ot(pair, cost):
    """Optimal transport for a balanced pair; returns (plan, potential).

    The dual potential is recovered from the optimal basis tree, extended by
    its own c-transform so it is cost-Lipschitz on all of space, and shifted
    so the absorbing point sits at 0 (with no reservoir in play, the minimum
    over the target support sits at 0 instead).  Duality gap and support
    slackness are verified before returning.  Slackness is audited on every
    plan entry in one pass against the vectorized table evaluator
    ``cost.cost_many``; the adaptive ``cost.cost`` path stays the independent
    reference used by :func:`brute_force_ot` and the tests.
    """
    mu, nu = pair.mu, pair.nu
    (supplies, demands, ground, diamond_row, diamond_col,
     common) = _assemble(pair, cost)
    m_atoms, n_atoms = mu.atom_count, nu.atom_count

    if len(supplies) == 0 or len(demands) == 0:
        if math.fsum(supplies) > 0.0 or math.fsum(demands) > 0.0:
            raise TransportError("one-sided mass cannot be transported")
        plan = TransportPlan(entries=(), primal_value=0.0,
                             mu_locations=mu.locations,
                             nu_locations=nu.locations)
        potential = DualPotential(
            mu_values=np.zeros(0), nu_values=np.zeros(0),
            nu_locations=np.zeros((0, mu.dimension)),
            include_diamond_base=common > 0.0, cost=cost)
        return plan, potential

    flows, u, v, _ = _network_simplex(supplies, demands, ground)

    # feasibility audit on the returned flows
    row_tot = np.zeros(len(supplies))
    col_tot = np.zeros(len(demands))
    for (i, j), q in flows.items():
        if q < 0.0:
            raise TransportError("negative mass in the optimal plan")
        row_tot[i] += q
        col_tot[j] += q
    feas_tol = 1e-11 * max(math.fsum(supplies), 1.0)
    if (np.max(np.abs(row_tot - supplies)) > feas_tol
            or np.max(np.abs(col_tot - demands)) > feas_tol):
        raise TransportError("plan does not match its marginals")

    entries = tuple(sorted(
        (_entry_label(i, m_atoms), _entry_label(j, n_atoms), q)
        for (i, j), q in flows.items() if q > 0.0))
    primal = math.fsum(ground[i, j] * q for (i, j), q in flows.items())

    # single potential: phi(x_i) = u_i, phi(y_j) = -v_j, then normalize
    bases = -v[:n_atoms]
    if diamond_col:
        shift = -v[n_atoms]
    elif diamond_row:
        shift = u[m_atoms]
    else:
        shift = float(np.min(bases)) if n_atoms else 0.0
    potential = DualPotential(
        mu_values=u[:m_atoms] - shift,
        nu_values=bases - shift,
        nu_locations=nu.locations,
        include_diamond_base=diamond_col or common > 0.0,
        cost=cost)

    plan = TransportPlan(entries=entries, primal_value=primal,
                         mu_locations=mu.locations,
                         nu_locations=nu.locations)

    dual = potential.dual_value(mu, nu)
    if abs(primal - dual) > _GAP_TOL * (1.0 + abs(primal)):
        raise TransportError(
            f"duality gap {abs(primal - dual):.3e} exceeds tolerance")
    _check_slackness(plan, potential, cost)
    return plan, potential


def _check_slackness(plan, potential, cost):
    """Every plan entry must ship along a tight edge: v(x) - v(y) = c(x, y).

    The costs of all real entries come from one vectorized evaluation;
    entries touching the absorbing point cost ``c_infinity``.
    """
    rows, cols = np.array([(i, j) for i, j, _ in plan.entries],
                          dtype=int).reshape(-1, 2).T
    mu_values = np.append(potential.mu_values, 0.0)
    nu_values = np.append(potential.nu_values, 0.0)
    drops = mu_values[rows] - nu_values[cols]  # index -1 reads the 0.0
    costs = np.full(len(rows), float(cost.c_infinity))
    real = (rows != DIAMOND) & (cols != DIAMOND)
    if np.any(real):
        gaps = plan.mu_locations[rows[real]] - plan.nu_locations[cols[real]]
        costs[real] = cost.cost_many(np.linalg.norm(gaps, axis=1))
    bad = np.abs(drops - costs) > _SLACK_TOL * (1.0 + np.abs(costs))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise TransportError(
            f"slackness violated on entry ({rows[k]}, {cols[k]}): potential "
            f"drop {float(drops[k])!r} vs cost {float(costs[k])!r}")


# -- independent verification route ------------------------------------------

_BRUTE_ATOM_CAP = 7
_TREE_ENUM_CAP = 12


def _brute_assemble(pair, cost):
    """Assembly for the cross-check route, written independently: plain
    loops, scalar cost calls, no shared helpers."""
    mu, nu = pair.mu, pair.nu
    common = min(mu.reservoir_weight, nu.reservoir_weight)
    left_over_mu = mu.reservoir_weight - common
    left_over_nu = nu.reservoir_weight - common
    supplies = [float(w) for w in mu.weights]
    demands = [float(w) for w in nu.weights]
    if left_over_mu > 0.0:
        supplies.append(left_over_mu)
    if left_over_nu > 0.0:
        demands.append(left_over_nu)
    table = []
    for i in range(len(supplies)):
        row = []
        for j in range(len(demands)):
            if i < mu.atom_count and j < nu.atom_count:
                diff = mu.locations[i] - nu.locations[j]
                dist = math.sqrt(math.fsum(float(d) * float(d)
                                           for d in diff))
                row.append(cost.cost(dist))
            else:
                if not math.isfinite(cost.c_infinity):
                    raise TransportError(
                        "cost does not saturate, so the absorbing point "
                        "is unreachable")
                row.append(cost.c_infinity)
        table.append(row)
    return supplies, demands, table


def _union_find_is_tree(arcs, m, n):
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in arcs:
        ra, rb = find(i), find(m + j)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _tree_flows(arcs, supplies, demands):
    """Unique flow carried by a spanning tree, via leaf elimination.

    ``net`` holds +supply on rows and -demand on columns; peeling a leaf
    forces its single incident arc to carry the whole remaining imbalance.
    Flows of the wrong sign are returned as-is for the caller to reject.
    """
    m, n = len(supplies), len(demands)
    net = [float(s) for s in supplies] + [-float(d) for d in demands]
    incident = {node: set() for node in range(m + n)}
    for idx, (i, j) in enumerate(arcs):
        incident[i].add(idx)
        incident[m + j].add(idx)
    flows = [0.0] * len(arcs)
    leaves = [node for node in range(m + n) if len(incident[node]) == 1]
    for _ in range(len(arcs)):
        node = None
        while leaves:
            candidate = leaves.pop()
            if len(incident[candidate]) == 1:
                node = candidate
                break
        if node is None:
            return None
        edge = incident[node].pop()
        i, j = arcs[edge]
        if node == i:
            q = net[node]
            net[m + j] += q
            other = m + j
        else:
            q = -net[node]
            net[i] -= q
            other = i
        net[node] = 0.0
        flows[edge] = q
        incident[other].discard(edge)
        if len(incident[other]) == 1:
            leaves.append(other)
    return flows


def _brute_tree_enumeration(supplies, demands, table):
    m, n = len(supplies), len(demands)
    cells = list(itertools.product(range(m), range(n)))
    best_value = math.inf
    best_plan = None
    for arcs in itertools.combinations(cells, m + n - 1):
        if not _union_find_is_tree(arcs, m, n):
            continue
        flows = _tree_flows(list(arcs), supplies, demands)
        if flows is None or any(f < -1e-12 for f in flows):
            continue
        value = math.fsum(table[i][j] * max(f, 0.0)
                          for (i, j), f in zip(arcs, flows))
        if value < best_value:
            best_value = value
            best_plan = [(i, j, max(f, 0.0))
                         for (i, j), f in zip(arcs, flows) if f > 0.0]
    if best_plan is None:
        raise TransportError("no feasible spanning tree found")
    return best_value, best_plan


def _brute_ssp(supplies, demands, table):
    """Successive shortest augmenting paths with Johnson potentials.

    Residual arcs carry reduced cost ``c_ij + pi_row[i] - pi_col[j]``
    (negated on backward arcs); updating each potential by its Dijkstra
    distance capped at the augmentation target's distance keeps every
    reduced cost nonnegative, so plain Dijkstra stays valid throughout.
    Each augmentation exhausts a supply, a demand, or a backward arc.
    """
    m, n = len(supplies), len(demands)
    rem_s = [float(s) for s in supplies]
    rem_d = [float(d) for d in demands]
    flow = [[0.0] * n for _ in range(m)]
    pi_row = [0.0] * m
    pi_col = [0.0] * n
    dust = 1e-12 * max(math.fsum(supplies), 1.0)
    budget = 4 * (m + n) * (m * n) + 64

    for _ in range(budget):
        if max(rem_s) <= 0.0:
            break
        dist_row = [math.inf] * m
        dist_col = [math.inf] * n
        prev_col = [-1] * n  # row we came from
        prev_row = [-1] * m  # column we came from (backward arc)
        done_row = [False] * m
        done_col = [False] * n
        for i in range(m):
            if rem_s[i] > 0.0:
                dist_row[i] = 0.0
        while True:
            best, kind, idx = math.inf, None, -1
            for i in range(m):
                if not done_row[i] and dist_row[i] < best:
                    best, kind, idx = dist_row[i], "row", i
            for j in range(n):
                if not done_col[j] and dist_col[j] < best:
                    best, kind, idx = dist_col[j], "col", j
            if kind is None:
                break
            if kind == "row":
                done_row[idx] = True
                for j in range(n):
                    # nonnegative by the potential invariant; the clamp
                    # only swallows rounding dust
                    w = max(table[idx][j] + pi_row[idx] - pi_col[j], 0.0)
                    if dist_row[idx] + w < dist_col[j]:
                        dist_col[j] = dist_row[idx] + w
                        prev_col[j] = idx
            else:
                done_col[idx] = True
                for i in range(m):
                    if flow[i][idx] > 0.0:
                        w = max(-(table[i][idx] + pi_row[i]
                                  - pi_col[idx]), 0.0)
                        if dist_col[idx] + w < dist_row[i]:
                            dist_row[i] = dist_col[idx] + w
                            prev_row[i] = idx

        target, d_t = -1, math.inf
        for j in range(n):
            if rem_d[j] > 0.0 and dist_col[j] < d_t:
                d_t, target = dist_col[j], j
        if target < 0:
            # a hair of unmatched supply is rounding, not infeasibility
            if max(rem_s) <= dust:
                break
            raise TransportError("augmentation failed: no reachable demand")

        path = []  # (row, col, forward?)
        j = target
        while True:
            i = prev_col[j]
            path.append((i, j, True))
            if prev_row[i] == -1:  # reached a true source row
                break
            j = prev_row[i]
            path.append((i, j, False))
        source = path[-1][0]
        bottleneck = min(rem_s[source], rem_d[target])
        for i, j, forward in path:
            if not forward:
                bottleneck = min(bottleneck, flow[i][j])
        if bottleneck <= 0.0:
            raise TransportError("augmentation stalled at zero mass")
        for i, j, forward in path:
            if forward:
                flow[i][j] += bottleneck
            else:
                flow[i][j] -= bottleneck
        rem_s[source] -= bottleneck
        rem_d[target] -= bottleneck
        for i in range(m):
            pi_row[i] += min(dist_row[i], d_t)
        for j in range(n):
            pi_col[j] += min(dist_col[j], d_t)
    else:
        raise TransportError(
            "successive shortest paths exceeded their augmentation budget")

    plan = []
    value_terms = []
    for i in range(m):
        for j in range(n):
            if flow[i][j] > 0.0:
                plan.append((i, j, flow[i][j]))
                value_terms.append(table[i][j] * flow[i][j])
    return math.fsum(value_terms), plan


def brute_force_ot(pair, cost):
    """Reference optimum for small pairs; independent of :func:`solve_ot`.

    Every spanning-tree basis is enumerated when the cost table has at most
    12 cells; otherwise successive shortest paths take over.  Either way the
    instance is capped at 7 atoms per side.  Returns (value, entries).
    """
    mu, nu = pair.mu, pair.nu
    if mu.atom_count > _BRUTE_ATOM_CAP or nu.atom_count > _BRUTE_ATOM_CAP:
        raise TransportError(
            f"brute force is capped at {_BRUTE_ATOM_CAP} atoms per side")
    supplies, demands, table = _brute_assemble(pair, cost)
    if len(supplies) == 0 or len(demands) == 0:
        return 0.0, ()
    total_s, total_d = math.fsum(supplies), math.fsum(demands)
    if abs(total_s - total_d) > 1e-12 * max(total_s, total_d, 1.0):
        raise TransportError("pair is not balanced")
    if len(supplies) * len(demands) <= _TREE_ENUM_CAP:
        value, plan = _brute_tree_enumeration(supplies, demands, table)
    else:
        value, plan = _brute_ssp(supplies, demands, table)
    labeled = tuple(sorted(
        (_entry_label(i, mu.atom_count), _entry_label(j, nu.atom_count), q)
        for i, j, q in plan))
    return value, labeled


# -- derived quantities -------------------------------------------------------

class _ReferenceCost:
    """min(r, 1): the fixed benchmark metric cost."""

    c_infinity = 1.0

    cost = cost_many = staticmethod(reference_cost)


REFERENCE_COST = _ReferenceCost()


def reference_W(pair):
    """Transport distance under the benchmark cost min(r, 1)."""
    plan, _ = solve_ot(pair, REFERENCE_COST)
    return plan.primal_value


def comparison_bound(cost, transport_value, epsilon, total_mass):
    """Convert a concave-cost transport value into a benchmark-cost bound.

    Pairs are split at the radius where the cost crosses value/epsilon:
    closer pairs contribute at most that radius times the mass, farther
    pairs at most epsilon by Markov, and saturated or absorbed mass at most
    value / cost(1).  Raises when the crossing radius does not exist.
    """
    value = float(transport_value)
    epsilon = float(epsilon)
    total_mass = float(total_mass)
    if epsilon <= 0.0:
        raise ComparisonBoundError("epsilon must be positive")
    if value < 0.0 or total_mass < 0.0:
        raise ComparisonBoundError("negative transport value or mass")
    c_one = cost.cost(1.0)
    if c_one <= 0.0:
        raise ComparisonBoundError("comparison bound inapplicable")
    try:
        radius = cost.cost_inverse(value / epsilon)
    except CostRangeError as exc:
        raise ComparisonBoundError("comparison bound inapplicable") from exc
    return radius * total_mass + epsilon + value / c_one


def firstterm_estimate(field, t, plan, cost, const):
    """Leading growth-rate term of the transport functional and its bound.

    ``plan`` is the optimal plan already solved for the pair.  lhs pairs
    each matched velocity difference against the unit direction of its gap,
    weighted by the cost's slope at the gap length; rhs replaces each
    velocity gap by its declared modulus bound ``const * omega(d)``.  When
    ``const`` bounds the field's velocity differences, lhs <= rhs holds entry
    by entry for any plan, so a violation shows the declared constant is too
    small on this configuration.  rhs never exceeds beta * const * (matched
    mass) because the slope saturates the modulus.  Entries at the absorbing
    point or of zero length contribute to neither side.  Returns (|lhs|, rhs).
    """
    entries = np.array(plan.entries, dtype=float).reshape(-1, 3)
    entries = entries[(entries[:, 0] != DIAMOND) & (entries[:, 1] != DIAMOND)]
    rows, cols = entries[:, 0].astype(int), entries[:, 1].astype(int)
    gaps = plan.mu_locations[rows] - plan.nu_locations[cols]
    dists = np.linalg.norm(gaps, axis=1)
    live = dists > 0.0
    if not np.any(live):
        return 0.0, 0.0
    rows, cols, masses = rows[live], cols[live], entries[live, 2]
    gaps, dists = gaps[live], dists[live]
    vel_gaps = (evaluate_batch(field, t, plan.mu_locations)[rows]
                - evaluate_batch(field, t, plan.nu_locations)[cols])
    weights = masses * cost.cost_derivative(dists)
    lhs = weights * np.einsum("ij,ij->i", vel_gaps, gaps) / dists
    rhs = weights * const * np.asarray(field.modulus(dists), dtype=float)
    return abs(math.fsum(lhs)), math.fsum(rhs)
