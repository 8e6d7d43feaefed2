"""Discrete optimal transport between balanced atomic measures.

The ground space is Euclidean space plus one absorbing point.  The measures
of a balanced pair are atoms on R^n alone; the pair itself holds the mass at
the absorbing point, as one reservoir per side, and mass may only sit there
when a reservoir is positive.  Moving mass to or from the absorbing point
costs the saturation value of the concave cost.  Because the cost is concave
with c(0) = 0 it is subadditive, the induced ground distance is a metric,
and the dual collapses to a single potential v with v(x) - v(y) <= c(|x - y|)
and v pinned to 0 at the absorbing point.

Two independent solvers are kept deliberately separate:

* :func:`solve_ot` runs a primal transportation simplex (strongly
  feasible tree basis, Dantzig pricing) and recovers the single dual
  potential from the optimal tree.  Its least-cost greedy start crosses out
  one row or column per shipment, so it yields the starting spanning tree
  directly, rooted at a row.  The tree holds each basic arc once, at its
  lower node: the node's parent and the cell and flow of the arc up to it.
  The tree and one array of potentials persist across pivots; one walk
  fills the potentials for the start, and a pivot, its cycle found from
  parent links alone, re-hangs only the subtree that its leaving arc cuts
  off, by a path reversal, and runs the same walk over that subtree alone,
  as a fresh walk from the root would, so the potentials are exact at
  every pivot.  Reduced costs are not kept: each pivot prices the whole
  cost matrix against the current potentials in one in-place pass.
* :func:`brute_force_ot` never touches that code path: it settles instances
  of up to 7 atoms a side by successive shortest augmenting paths.  It is
  the cross-check, so it shares no assembly, pivoting or labeling logic with
  the simplex route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import _blocks, reference_cost
from .errors import ComparisonBoundError, CostRangeError, TransportError
from .fields import evaluate_batch, row_norms

DIAMOND = -1  # entry index marking the absorbing point

_GAP_TOL = 1e-9
_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling as sparse entries (i, j, mass); index -1 is the
    absorbing point.  ``pivots`` counts the simplex pivots of the solve."""

    entries: tuple
    primal_value: float
    mu_locations: np.ndarray
    nu_locations: np.ndarray
    pivots: int


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
        # reservoir mass sits at the absorbing point where v = 0 exactly
        return math.fsum(np.concatenate([mu.weights * self.mu_values,
                                         -(nu.weights * self.nu_values)]))


def c_transform_extend(potential, points):
    """Evaluate the dual potential anywhere via its defining minimum."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(potential.nu_values) == 0:
        if not potential.include_diamond_base:
            raise TransportError("potential has no generating data")
        return np.full(len(points), potential.cost.c_infinity)
    if points.shape[1] != potential.nu_locations.shape[1]:
        raise TransportError("points and the potential's support differ "
                             "in dimension")
    dists = _distances(points, potential.nu_locations)
    values = potential.cost.cost_many(dists) + potential.nu_values[None, :]
    out = values.min(axis=1)
    if potential.include_diamond_base:
        out = np.minimum(out, potential.cost.c_infinity)
    return out


def _distances(xs, ys):
    """Euclidean distance from each row of ``xs`` to each row of ``ys``:
    the squared differences summed one coordinate at a time, then the
    square root, which gives the reference ``cdist``'s bits."""
    total = np.subtract.outer(xs[:, 0], ys[:, 0])
    total *= total
    for axis in range(1, xs.shape[1]):
        diff = np.subtract.outer(xs[:, axis], ys[:, axis])
        total += np.multiply(diff, diff, out=diff)
    return np.sqrt(total, out=total)


# -- problem assembly --------------------------------------------------------

def _cost_matrix(xs, ys, cost, shape):
    """A matrix of ``shape`` whose leading len(xs) x len(ys) block holds
    ``cost.cost_many`` of each distance |x_i - y_j|; the rest is unset.

    Mollified atoms sit on a lattice, so many distances repeat: one
    ``argsort`` orders them (ties are equal, so it need not be stable),
    ``cost_many`` runs once on the distinct ones, and each cell takes the
    value at its rank, a running sum of first-occurrence flags.
    ``cost_many`` evaluates each entry independently of its batch, so every
    cell gets the bits of a full-matrix call.  The flags, the gather of the
    distinct distances and the scatter take ``costs._BLOCK`` cells at a
    time, and the distances are dropped before the matrix is allocated: on
    the largest ``osgood_line`` pairs this peaks at 3.2 arrays of every
    cell, where a full-matrix dedup held 5.5.
    """
    n = len(ys)
    dists = _distances(xs, ys).reshape(-1)
    order = np.argsort(dists)
    first = np.empty(len(order), dtype=bool)
    for part in _blocks(len(order)):
        ordered = dists[order[part]]
        flags = first[part]
        flags[0] = part.start == 0 or ordered[0] != previous
        np.not_equal(ordered[1:], ordered[:-1], out=flags[1:])
        previous = ordered[-1]
    radii = np.empty(np.count_nonzero(first))
    filled = 0
    for part in _blocks(len(order)):
        picked = dists[order[part][first[part]]]
        radii[filled:filled + len(picked)] = picked
        filled += len(picked)
    del dists
    values = cost.cost_many(radii)
    del radii
    matrix = np.empty(shape)
    flat, rank = matrix.reshape(-1), -1
    for part in _blocks(len(order)):
        ranks = np.cumsum(first[part], dtype=np.intp)
        ranks += rank
        rank = int(ranks[-1])
        cell = order[part]
        if shape[1] > n:  # each row of the matrix is one column longer
            cell = cell + cell // n
        flat[cell] = values[ranks]
    return matrix


def _assemble(pair, cost):
    """Rows, columns, and the ground-cost matrix for a balanced pair.

    A reservoir common to both sides is cancelled first (it would ship to
    itself at zero cost); whichever side keeps a positive remainder
    contributes the absorbing point as an extra row or column.

    The atoms' cells take the distinct-distance evaluation of
    :func:`_cost_matrix`, which allocates ``ground`` only once the
    distances are gone.
    """
    mu, nu = pair.mu, pair.nu
    common = min(pair.mu_reservoir, pair.nu_reservoir)
    extra_mu = pair.mu_reservoir - common
    extra_nu = pair.nu_reservoir - common

    supplies = list(mu.weights)
    demands = list(nu.weights)
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
    shape = (m_atoms + int(diamond_row), n_atoms + int(diamond_col))
    if m_atoms and n_atoms:
        ground = _cost_matrix(mu.locations, nu.locations, cost, shape)
    else:
        ground = np.empty(shape)
    if diamond_row:
        ground[m_atoms, :] = cost.c_infinity
    if diamond_col:
        ground[:, n_atoms] = cost.c_infinity
    return (np.asarray(supplies), np.asarray(demands), ground,
            diamond_row, diamond_col, common)


# -- transportation simplex --------------------------------------------------

def _least_cost_start(supplies, demands, costs):
    """Basic feasible start and its tree: ship greedily along globally
    cheapest arcs, crossing out one row or column per shipment.

    A shipment crosses out the line that it exhausts, the row when it
    exhausts both; the column then stays open at zero remainder until a
    later zero-mass arc hangs it below a row.  The last open row is kept to
    the end, and the last open column while rows stay open: the shipment
    crosses out its other end instead.  So m + n - 1 shipments leave one row
    open, each crossed-out line hangs from the other end of the arc that
    crossed it out, which is crossed out later or never, and the arcs form a
    spanning tree rooted at that row.  Every zero-mass arc hangs a column
    below a row, so the tree is strongly feasible: a row that meets the
    emptied last column still holds a rounding residue, and ships it there.
    Greedy matching starts close to optimal on near-diagonal instances,
    which keeps the pivot count low.

    Returns the tree as three lists over nodes, rows 0..m-1 and then
    columns m..m+n-1: each node's parent (-1 at the root), and the flat cell
    and the flow of the arc up to it, which the crossed-out line keeps.

    Fewer than m + n cells ship, so the sorted cells are walked in doubling
    blocks of at least m + n, and each block first drops the cells whose row
    or column was already crossed out when it began.  Lines stay crossed
    out, so the dropped cells are ones the per-cell test would skip: the
    arcs are those of a scan over every cell.
    """
    m, n = len(supplies), len(demands)
    rem_s, rem_d = list(supplies), list(demands)
    open_line = [True] * (m + n)
    open_rows, open_cols = m, n
    parent, up_cell, up_flow = [-1] * (m + n), [-1] * (m + n), [0.0] * (m + n)
    order = np.argsort(costs, axis=None, kind="stable")
    start, size = 0, m + n
    while open_rows + open_cols > 1:
        rows, cols = np.divmod(order[start:start + size], n)
        is_open = np.asarray(open_line)
        live = is_open[rows] & is_open[m + cols]
        for i, j in zip(rows[live].tolist(), cols[live].tolist()):
            if not (open_line[i] and open_line[m + j]):
                continue
            q = min(rem_s[i], rem_d[j])
            rem_s[i] -= q
            rem_d[j] -= q
            if open_rows == 1 or (open_cols > 1 and rem_s[i] > 0.0):
                lower, upper = m + j, i
                open_cols -= 1
            else:
                lower, upper = i, m + j
                open_rows -= 1
                if q == 0.0:  # a residue meets the emptied last column
                    q = rem_s[i]
            open_line[lower] = False
            parent[lower], up_cell[lower], up_flow[lower] = upper, i * n + j, q
        start += size
        size *= 2
    return parent, up_cell, up_flow


def _reverse(path, parent, children, up_cell, up_flow):
    """Turn a tree path upside down: ``path`` climbs from a node to an
    ancestor, and each node's parent arc moves down to its old parent, top
    first, so every node but ``path[0]`` hangs from the one before it.
    ``path[0]`` keeps its old arc fields for the caller to overwrite."""
    for lower, upper in zip(path[-2::-1], path[:0:-1]):
        children[upper].discard(lower)
        children[lower].add(upper)
        parent[upper] = lower
        up_cell[upper] = up_cell[lower]
        up_flow[upper] = up_flow[lower]


def _hang(heads, costs, parent, children, pot, up_cell):
    """Potentials down the subtrees below ``heads``, top-down, written into
    the array ``pot`` in place.  Each potential is its parent's subtracted
    from the cost of the arc between them, the flat cell ``up_cell[q]``, so
    the values depend on the tree alone, not on the order of the walk."""
    stack = list(heads)
    while stack:
        q = stack.pop()
        pot[q] = costs.item(up_cell[q]) - pot.item(parent[q])
        stack.extend(children[q])


def _entering_cell(red, enter_tol):
    """The cell that enters the basis, or None when none prices below
    -enter_tol: the most negative reduced cost (Dantzig's rule), first in
    row-major order on ties."""
    i, j = divmod(int(np.argmin(red)), red.shape[1])
    return (i, j) if red[i, j] < -enter_tol else None


def _network_simplex(supplies, demands, costs):
    """Primal transportation simplex on a dense cost matrix.

    Returns (cells, flows, u, v, pivots): the flat cells and flows of the
    m + n - 1 basic arcs, and u_i + v_j = costs[i, j] on each of them.

    The basis tree is strongly feasible (Cunningham 1976; Ahuja, Magnanti
    and Orlin, *Network Flows*, section 11.5): its root is a row and each
    zero-flow arc hangs a column below a row.  The greedy start hands over
    such a tree, and the leaving arc keeps it so: the first blocking arc met
    from the cycle's apex, down to the entering row, across and up from the
    entering column.  No basis then repeats, so the entering cell needs no
    rule but Dantzig's, the most negative reduced cost.

    The basis tree and the potentials persist across pivots.  The tree is
    held once, per node: parent and children, and the flat cell and flow of
    the arc up to the parent, which is the only record of a basic arc.  The
    potentials are one array ``pot``, u then v, and the pricing reads its
    views.  The simplex keeps the start's root, and one :func:`_hang` from
    it fills the potentials of the whole tree.  Each pivot prices every
    cell in one in-place pass, (c - u) - v, then sets the m + n - 1 basic
    cells to inf, and the root's slot past the cells.  The mask is explicit
    because a basic cell prices to zero only up to the rounding of
    u_i + v_j, which grows with |u| + |v| and so with the depth of the tree,
    and must never enter.  The cycle of an entering arc follows parent
    links alone: the entering column's path climbs to the root, the
    entering row's until it meets that path at the apex, where the column's
    is cut.  The leaving arc cuts a subtree off the root; the path from the
    entering endpoint up to the cut is reversed, the subtree is re-hung from
    the entering arc, and :func:`_hang` refills only its nodes.  That is the
    arithmetic of a fresh walk over the whole tree: the potentials stay
    exact, bit for bit, so no pivot acts on drifted prices and the final u
    and v equal a fresh walk's.
    """
    m, n = len(supplies), len(demands)
    costs = np.ascontiguousarray(costs)  # flat cell indices are row-major
    parent, up_cell, up_flow = _least_cost_start(supplies, demands, costs)
    root = parent.index(-1)
    up_cell[root] = m * n  # the spare slot past ``red``'s cells
    up_cell = np.array(up_cell, dtype=np.intp)
    children = [set() for _ in range(m + n)]
    for node, above in enumerate(parent):
        if above != -1:
            children[above].add(node)
    # u_i for rows, then v_j for columns: the pricing reads views of pot
    pot = np.zeros(m + n)
    u, v = pot[:m], pot[m:]
    _hang(children[root], costs, parent, children, pot, up_cell)
    slots = np.empty(m * n + 1)
    red = slots[:-1].reshape(m, n)

    # max|c| without an |c| array of every cell
    enter_tol = 1e-12 * (1.0 + max(float(costs.max()), -float(costs.min())))
    pivot_cap = 60 * (m + n) + 3000

    for pivot in range(pivot_cap):
        np.subtract(costs, u[:, None], out=red)
        red -= v
        slots[up_cell] = np.inf
        entering = _entering_cell(red, enter_tol)
        if entering is None:
            return (np.delete(up_cell, root), np.delete(up_flow, root), u, v,
                    pivot)
        ei, ej = entering

        # the tree paths from both endpoints up to the apex, where they join
        side_col, side_row = [m + ej], [ei]
        while side_col[-1] != root:
            side_col.append(parent[side_col[-1]])
        on_col = set(side_col)
        while side_row[-1] not in on_col:
            side_row.append(parent[side_row[-1]])
        del side_col[side_col.index(side_row[-1]) + 1:]

        # the cycle: entering arc, up from the column, down to the row; an
        # arc loses mass up from a column, or down to a row.  The first
        # blocking arc met from the apex leaves.
        gain = [q for q in side_col[:-1] if q < m] + \
            [q for q in side_row[:-1] if q >= m]
        lose = [q for q in side_row[-2::-1] if q < m] + \
            [q for q in side_col[:-1] if q >= m]
        cut = min(lose, key=up_flow.__getitem__)
        theta = up_flow[cut]
        for q in gain:
            up_flow[q] += theta
        for q in lose:
            up_flow[q] -= theta

        # the leaving arc's lower node heads the subtree cut off the root;
        # the entering endpoint on that side becomes the subtree's new head
        side, outer = (side_row, m + ej) if cut < m else (side_col, ei)
        children[parent[cut]].discard(cut)
        path = side[:side.index(cut) + 1]
        _reverse(path, parent, children, up_cell, up_flow)
        head = path[0]
        parent[head], up_cell[head], up_flow[head] = outer, ei * n + ej, theta
        children[outer].add(head)

        _hang([head], costs, parent, children, pot, up_cell)

    raise TransportError(f"simplex exceeded its pivot budget ({pivot_cap})")


def solve_ot(pair, cost):
    """Optimal transport for a balanced pair; returns (plan, potential).

    The dual potential is recovered from the optimal basis tree, extended by
    its own c-transform so it is cost-Lipschitz on all of space, and shifted
    so the absorbing point sits at 0 (with no reservoir in play, the minimum
    over the target support sits at 0 instead).  Duality gap and support
    slackness are verified before returning.  Slackness is audited on every
    plan entry in one pass against ``cost.cost_many``, the same evaluator
    that :func:`brute_force_ot` reaches through ``cost.cost``.
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
                             nu_locations=nu.locations, pivots=0)
        potential = DualPotential(
            mu_values=np.zeros(0), nu_values=np.zeros(0),
            nu_locations=nu.locations,
            include_diamond_base=common > 0.0, cost=cost)
        return plan, potential

    cells, flows, u, v, pivots = _network_simplex(supplies, demands, ground)

    # feasibility audit on the returned flows
    if np.any(flows < 0.0):
        raise TransportError("negative mass in the optimal plan")
    rows, cols = np.divmod(cells, len(demands))
    row_tot = np.bincount(rows, weights=flows, minlength=len(supplies))
    col_tot = np.bincount(cols, weights=flows, minlength=len(demands))
    feas_tol = 1e-11 * max(math.fsum(supplies), 1.0)
    if (np.max(np.abs(row_tot - supplies)) > feas_tol
            or np.max(np.abs(col_tot - demands)) > feas_tol):
        raise TransportError("plan does not match its marginals")

    shipped = flows > 0.0
    entries = tuple(sorted(zip(
        np.where(rows < m_atoms, rows, DIAMOND)[shipped].tolist(),
        np.where(cols < n_atoms, cols, DIAMOND)[shipped].tolist(),
        flows[shipped].tolist())))
    primal = math.fsum(ground.ravel()[cells] * flows)

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
                         nu_locations=nu.locations, pivots=pivots)

    dual = potential.dual_value(mu, nu)
    if abs(primal - dual) > _GAP_TOL * (1.0 + abs(primal)):
        raise TransportError(
            f"duality gap {abs(primal - dual):.3e} exceeds tolerance")
    _check_slackness(plan, potential, cost)
    return plan, potential


def _entry_arrays(plan):
    """A plan's entries as arrays: rows, columns and masses, the mask of
    the real entries (neither end at the absorbing point, ``DIAMOND``), and
    the gaps x_i - y_j of the real entries with their ``row_norms``."""
    table = np.array(plan.entries, dtype=float).reshape(-1, 3)
    rows, cols = table[:, 0].astype(int), table[:, 1].astype(int)
    real = (rows != DIAMOND) & (cols != DIAMOND)
    gaps = plan.mu_locations[rows[real]] - plan.nu_locations[cols[real]]
    return rows, cols, table[:, 2], real, gaps, row_norms(gaps)


def _check_slackness(plan, potential, cost):
    """Every plan entry must ship along a tight edge: v(x) - v(y) = c(x, y).

    The costs of all real entries come from one vectorized evaluation;
    entries touching the absorbing point cost ``c_infinity``.
    """
    rows, cols, _, real, _, dists = _entry_arrays(plan)
    mu_values = np.append(potential.mu_values, 0.0)
    nu_values = np.append(potential.nu_values, 0.0)
    drops = mu_values[rows] - nu_values[cols]  # index -1 reads the 0.0
    costs = np.full(len(rows), float(cost.c_infinity))
    if np.any(real):
        costs[real] = cost.cost_many(dists)
    bad = np.abs(drops - costs) > _SLACK_TOL * (1.0 + np.abs(costs))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise TransportError(
            f"slackness violated on entry ({rows[k]}, {cols[k]}): potential "
            f"drop {float(drops[k])!r} vs cost {float(costs[k])!r}")


# -- independent verification route ------------------------------------------

_BRUTE_ATOM_CAP = 7


def _brute_assemble(pair, cost):
    """Assembly for the cross-check route, written independently: plain
    loops, scalar cost calls, no shared helpers."""
    mu, nu = pair.mu, pair.nu
    common = min(pair.mu_reservoir, pair.nu_reservoir)
    left_over_mu = pair.mu_reservoir - common
    left_over_nu = pair.nu_reservoir - common
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

    Successive shortest paths settle the plain cost table that
    :func:`_brute_assemble` builds; the instance is capped at 7 atoms per
    side.  Returns (value, entries), with the absorbing point labeled
    ``DIAMOND``.
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
    value, plan = _brute_ssp(supplies, demands, table)
    labeled = tuple(sorted(
        (DIAMOND if i == mu.atom_count else i,
         DIAMOND if j == nu.atom_count else j, q)
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


def reference_cost_of(plan):
    """Cost of ``plan`` under the benchmark cost min(r, 1).

    Any plan of a balanced pair couples it feasibly for the W problem, so
    the result is an upper bound on :func:`reference_W` of the pair the
    plan couples; on ``reference_W``'s own plan it is that value, bit for
    bit.  Real entries cost ``REFERENCE_COST.cost_many`` of their gap
    lengths, the evaluator of ``reference_W``'s assembly, and entries at
    the absorbing point cost ``c_infinity``.
    """
    _, _, masses, real, _, dists = _entry_arrays(plan)
    costs = np.full(len(masses), REFERENCE_COST.c_infinity)
    costs[real] = REFERENCE_COST.cost_many(dists)
    return math.fsum(masses * costs)


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
    rows, cols, masses, real, gaps, dists = _entry_arrays(plan)
    live = dists > 0.0
    if not np.any(live):
        return 0.0, 0.0
    keep = np.flatnonzero(real)[live]
    rows, cols, masses = rows[keep], cols[keep], masses[keep]
    gaps, dists = gaps[live], dists[live]
    vel_gaps = (evaluate_batch(field, t, plan.mu_locations)[rows]
                - evaluate_batch(field, t, plan.nu_locations)[cols])
    weights = masses * cost.cost_derivative(dists)
    lhs = weights * np.einsum("ij,ij->i", vel_gaps, gaps) / dists
    rhs = weights * const * np.asarray(field.modulus(dists), dtype=float)
    return abs(math.fsum(lhs)), math.fsum(rhs)
