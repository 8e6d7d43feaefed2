"""Scenario configs, end-to-end runs, and the refinement study.

A scenario bundles a catalog velocity field, an initial density, a time
horizon, and diagnostics settings.  :func:`run_scenario` pushes two
discretizations of the same datum through the characteristic flow, measures
their difference at the report times, and checks the contraction machinery
at each cutoff level.  :func:`convergence_study` quantizes one datum on a
ladder of resolutions and tracks the flat transport distance between
consecutive rungs.  Levels and rungs run in turn on the calling thread: the
simplex's pivot loop holds the GIL, so worker threads overlapped no work.
"""

import inspect
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .costs import ConcaveCost, saturation_integral
from .diagnostics import (MollifierSpec, Schedule, build_cutoff, build_mu_nu,
                          costestimate_bound, D_functional, mollify,
                          parameter_schedule, variation_integrals,
                          weak_solution_residual)
from .errors import ConfigError, FieldError
from .fields import (FIELD_CATALOG, growth_affine, modulus_linear,
                     rotation_field, row_norms)
from .fileio import write_json, write_table
from .flow import FlowOptions, flow_endpoints, flow_map
from .measures import (balance_with_reservoir, make_measure,
                       measure_from_arrays)
from .transport import (brute_force_ot, comparison_bound, firstterm_estimate,
                        reference_W, solve_ot)

_ATOM_BUDGET = 20000
_SNAP_GRAIN = 2.0 ** -40
_BOUND_SLACK = 1e-5   # relative slack for D <= bound checks
_TERM_SLACK = 1e-9    # absolute slack for the unit bound on schedule terms

# one report row per time: the functional, its bound terms, the benchmark
# refinement distance, and the signed mass balance
REPORT_COLUMNS = ("t", "D", "term1", "term2", "term3", "bound",
                  "W_refine", "mass")


# -- densities ----------------------------------------------------------------


@dataclass(frozen=True)
class DensityField:
    """Unnormalized density on an axis-aligned box, with a known sup."""

    dimension: int
    box_low: np.ndarray
    box_high: np.ndarray
    pdf: object
    pdf_sup: float


def _scalars(value):
    """The entries of a value at every depth of its nested lists."""
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _scalars(item)
    else:
        yield value


def _typed(convert, value, key):
    """``convert(value)``; a ConfigError naming ``key`` for a wrong type (a
    bool or str too, at any depth of a nested list), a fractional int or a
    non-finite float."""
    try:
        if any(isinstance(v, (bool, str)) for v in _scalars(value)):
            raise TypeError(value)
        out = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"config key {key!r} has a value of the wrong type: {value!r}") \
            from None
    if convert is int and out != value:
        raise ConfigError(f"config key {key!r} needs an integer: {value!r}")
    if convert is not int and not np.all(np.isfinite(out)):
        raise ConfigError(f"config key {key!r} must be finite: {value!r}")
    return out


def _check_format(threads, fmt):
    """A ConfigError for an unknown report format, or for a ``threads``
    other than 1: runs and studies work on the calling thread."""
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be \"csv\" or \"json\"")
    if _typed(int, threads, "threads") != 1:
        raise ConfigError(f"threads must be 1, got {threads!r}")


def _array(value):
    return np.asarray(value, dtype=float)


def _atom_rows(atoms):
    """An ``atoms`` block's [location, weight] entries as the rows of one
    array: a location's coordinates, then its weight."""
    try:
        locations = [entry[0] for entry in atoms]
        weights = [entry[1] for entry in atoms]
    except (LookupError, TypeError):
        raise ConfigError(
            "config key 'atoms' needs [location, weight] entries") from None
    # a list for a weight makes a 3-D column, which column_stack refuses
    return np.column_stack([_array(locations), _array(weights)[:, None]])


# the converter of every numeric key of a field or density block, the
# pinned parameters and the config document, by name
_PARAM_TYPES = {"velocity": _array, "matrix": _array,
                "modulus_constant": float, "center": _array,
                "centers": _array, "spread": float, "radius": float,
                "width": float, "low": float, "high": float,
                "atoms": _atom_rows, "beta": float, "delta": float,
                "alpha": float, "horizon": float, "seed": int,
                "time_points": int, "resolution": int, "abs_tol": float,
                "rel_tol": float, "coarse_factor": float,
                "cells_per_alpha": int, "weak_tol": float}


def _build(make, block, label):
    """``make(**args)`` for a field or density block (each without its
    ``kind``), the pinned ``parameters`` block or the config document.  The
    parameters of ``make``'s signature are the keys the block may set, a
    default is its key's default, and a parameter without one is required.
    A key with a converter in ``_PARAM_TYPES`` is typed through it by
    ``_typed``, any other is passed as it is; a FieldError from ``make``
    becomes a ConfigError naming its key (a field takes at most one)."""
    params = inspect.signature(make).parameters
    extra = set(block) - set(params)
    if extra:
        raise ConfigError(
            f"unknown {label} key(s): {', '.join(sorted(extra))}")
    args = {}
    for key, param in params.items():
        if key not in block and param.default is param.empty:
            raise ConfigError(f"{label} key {key!r} is required")
        value = block.get(key, param.default)
        convert = _PARAM_TYPES.get(key)
        args[key] = value if convert is None else _typed(convert, value, key)
    try:
        return make(**args)
    except FieldError as err:
        raise ConfigError(
            f"config key {', '.join(map(repr, params))}: {err}") from None


def _bumps(centers, spread):
    """Gaussian bumps of width ``spread`` at the rows of ``centers``, summed,
    on the box four spreads past the centers."""
    def pdf(points):
        out = np.zeros(len(points))
        for c in centers:
            out += np.exp(-np.sum((points - c) ** 2, axis=1)
                          / (2.0 * spread * spread))
        return out

    return DensityField(centers.shape[1], centers.min(axis=0) - 4.0 * spread,
                        centers.max(axis=0) + 4.0 * spread, pdf,
                        float(len(centers)))


def _gaussian_density(center=(0.0, 0.0), spread=0.15):
    if center.ndim != 1 or center.size == 0:
        raise ConfigError("gaussian center must be a coordinate list")
    if not spread > 0.0:
        raise ConfigError("gaussian spread must be positive")
    return _bumps(center[None, :], spread)


def _ring_density(radius=0.5, width=0.06):
    if not (radius > 0.0 and width > 0.0):
        raise ConfigError("ring radius and width must be positive")
    reach = radius + 4.0 * width

    def pdf(points):
        r = row_norms(points)
        return np.exp(-((r - radius) ** 2) / (2.0 * width * width))

    return DensityField(2, np.array([-reach, -reach]),
                        np.array([reach, reach]), pdf, 1.0)


def _interval_density(low=0.0, high=1.0):
    if not high > low:
        raise ConfigError("interval density needs low < high")

    def pdf(points):
        return np.ones(len(points))

    return DensityField(1, np.array([low]), np.array([high]), pdf, 1.0)


def _two_bumps_density(centers=((-0.4,), (0.4,)), spread=0.1):
    if centers.ndim != 2 or centers.shape[0] != 2:
        raise ConfigError("two_bumps needs exactly two center coordinates")
    if not spread > 0.0:
        raise ConfigError("two_bumps spread must be positive")
    return _bumps(centers, spread)


def _atoms_density(atoms):
    """Explicit atoms, pushed as they are: read-only (locations, weights),
    not a density to sample."""
    if not len(atoms):
        raise ConfigError("explicit atoms list is empty")
    locations, weights = atoms[:, :-1].copy(), atoms[:, -1].copy()
    if np.any(weights == 0.0):
        raise ConfigError("explicit atom weights must be nonzero")
    locations.flags.writeable = weights.flags.writeable = False
    return locations, weights


_DENSITY_BUILDERS = {
    "gaussian": _gaussian_density,
    "ring": _ring_density,
    "interval": _interval_density,
    "two_bumps": _two_bumps_density,
    "atoms": _atoms_density,
}


def density_from_config(doc):
    """The datum of a density block, read by ``_build``: a
    :class:`DensityField`, or the read-only (locations, weights) of atoms."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("density block needs a \"kind\" key")
    kind = doc["kind"]
    known = sorted(_DENSITY_BUILDERS)  # as in build_field
    if kind not in known:
        raise ConfigError(
            f"unknown density kind {kind!r} (known: {', '.join(known)})")
    params = {key: value for key, value in doc.items() if key != "kind"}
    return _build(_DENSITY_BUILDERS[kind], params, f"{kind} density")


# -- quantization --------------------------------------------------------------


def _snap_unit_weights(weights):
    """Round positive weights onto the dyadic grain 2**-40 of total mass 1.

    Every snapped weight is an integer multiple of the grain and the
    multiplicities stay far below 2**53, so partial sums are exact and
    math.fsum of the result is exactly 1.0 in any order.
    """
    weights = np.asarray(weights, dtype=float)
    total = math.fsum(weights)
    if not total > 0.0:
        raise ConfigError("density sampled to zero mass")
    counts = np.round(weights / total / _SNAP_GRAIN)
    keep = counts > 0.0
    if not keep.any():
        raise ConfigError("quantization rounded every atom away")
    kept = counts[keep]
    shortfall = round(1.0 / _SNAP_GRAIN) - round(math.fsum(kept))
    kept[int(np.argmax(kept))] += shortfall
    if kept[int(np.argmax(kept))] <= 0.0:
        raise ConfigError("quantization shortfall swallowed the largest atom")
    snapped = kept * _SNAP_GRAIN
    if math.fsum(snapped) != 1.0:
        raise ConfigError("dyadic snapping missed unit mass")
    return keep, snapped


def _atom_count(resolution, dimension):
    """The atom count of a ``dimension``-D density at ``resolution``; a
    ConfigError for a resolution below 2 or a count over the budget."""
    if resolution < 2:
        raise ConfigError("resolution must be at least 2")
    count = resolution ** dimension
    if count > _ATOM_BUDGET:
        raise ConfigError(
            f"resolution {resolution} needs {count} atoms; "
            f"budget is {_ATOM_BUDGET}")
    return count


def quantize_density(density, resolution, mode, seed):
    """Quantize a density into atoms of exactly unit total mass.

    ``grid`` places one atom per cell of a regular lattice over the box and
    weights it by the density value; ``random`` draws atom positions by
    rejection sampling and gives them equal weights.  Both snap weights so
    the atom masses fsum to exactly 1.0.
    """
    resolution = int(resolution)
    count = _atom_count(resolution, density.dimension)
    if mode == "grid":
        axes = [density.box_low[i] + (np.arange(resolution) + 0.5)
                * (density.box_high[i] - density.box_low[i]) / resolution
                for i in range(density.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=1)
        values = np.asarray(density.pdf(points), dtype=float)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ConfigError("density returned invalid values on the grid")
        keep, weights = _snap_unit_weights(values)
        return points[keep], weights
    if mode == "random":
        rng = np.random.default_rng([0x5EED, int(seed), resolution])
        span = density.box_high - density.box_low
        accepted = []
        have = 0
        for _ in range(400):
            draws = density.box_low + rng.uniform(
                size=(4 * count, density.dimension)) * span
            bar = rng.uniform(0.0, density.pdf_sup, size=len(draws))
            hits = draws[np.asarray(density.pdf(draws), dtype=float) > bar]
            accepted.append(hits)
            have += len(hits)
            if have >= count:
                break
        else:
            raise ConfigError("rejection sampling stalled; density too peaked")
        points = np.concatenate(accepted, axis=0)[:count]
        _, weights = _snap_unit_weights(np.full(count, 1.0 / count))
        return points, weights
    raise ConfigError(f"unknown quantization mode {mode!r}")


# -- configuration --------------------------------------------------------------

def build_field(kind, params):
    """Instantiate a catalog field from its config block."""
    known = sorted(FIELD_CATALOG)  # a list: an unhashable kind is unknown
    if kind not in known:
        raise ConfigError(
            f"unknown field kind {kind!r} (known: {', '.join(known)})")
    return _build(FIELD_CATALOG[kind], params, f"{kind} field")


def _pinned_parameters(beta, delta, alpha):
    """The ``parameters`` block that pins a run's beta, delta and alpha."""
    if not (beta > 0.0 and delta > 0.0):
        raise ConfigError("beta and delta must be positive")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    return {"beta": beta, "delta": delta, "alpha": alpha}


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A scenario's config document, checked whole when it is built.  The
    fields are the document's keys and their defaults, the schema that
    :meth:`from_dict` reads through ``_build``.  ``field`` is the field
    block, read through ``field_kind`` and ``field_params``; the field is
    built here to check it, then again per run.  ``density`` is given the
    density block and keeps its datum from :func:`density_from_config`, so
    configs compare by identity; ``parameters`` is read by ``_build`` too,
    and ``cutoff_levels`` is typed by ``_typed``, then sorted."""

    name: str
    field: dict
    density: object
    horizon: float
    seed: int
    time_points: int = 5
    resolution: int = 9
    quantization: str = "grid"
    difference_mode: str = "tolerance"
    cutoff_levels: tuple = (2.0,)
    parameters: object = "schedule"
    abs_tol: float = 1e-11
    rel_tol: float = 1e-9
    coarse_factor: float = 100.0
    cells_per_alpha: int = 4
    weak_tol: float = 1.0

    def __post_init__(self):
        name = str(self.name)
        if not name or any(ch in name for ch in "/\\ \t"):
            raise ConfigError("scenario name must be a short filename stem")
        if not isinstance(self.field, dict) or "kind" not in self.field:
            raise ConfigError("field block needs a \"kind\" key")
        if not self.horizon > 0.0:
            raise ConfigError("horizon must be positive")
        if self.time_points < 2:
            raise ConfigError("time grid needs at least two points")
        if self.quantization not in ("grid", "random"):
            raise ConfigError("quantization must be \"grid\" or \"random\"")
        mode = self.difference_mode
        if mode not in ("tolerance", "resolution"):
            raise ConfigError(
                "difference_mode must be \"tolerance\" or \"resolution\"")

        levels = tuple(sorted(_typed(lambda ks: [float(k) for k in ks],
                                     self.cutoff_levels, "cutoff_levels")))
        if not levels or levels[0] < 1.0:
            raise ConfigError(
                "config key 'cutoff_levels' needs radii of at least 1")
        if len(set(levels)) != len(levels):
            raise ConfigError("cutoff levels must be distinct")

        parameters = self.parameters
        if parameters != "schedule":
            if not isinstance(parameters, dict):
                raise ConfigError(
                    "parameters must be \"schedule\" or an object")
            parameters = _build(_pinned_parameters, parameters, "parameters")

        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ConfigError("integrator tolerances must be positive")
        if mode == "tolerance" and not self.coarse_factor > 1.0:
            raise ConfigError(
                "coarse_factor must exceed 1 for tolerance differencing")
        if self.cells_per_alpha < 4:
            raise ConfigError("cells_per_alpha must be at least 4")
        if not self.weak_tol > 0.0:
            raise ConfigError("weak_tol must be positive")
        if self.seed < 0:
            raise ConfigError(
                f"config key 'seed' must not be negative: {self.seed}")

        # the block is copied, so a later change to it skips no check; the
        # field is built to check it, then dropped: its modulus's 2.75 MB
        # node table would live as long as the config (35 in perfbench)
        object.__setattr__(self, "field", dict(self.field))
        field = build_field(self.field_kind, self.field_params)
        density = density_from_config(self.density)
        sampled = isinstance(density, DensityField)
        if mode == "resolution" and not sampled:
            raise ConfigError(
                "resolution differencing needs a sampled density, "
                "not explicit atoms")
        density_dim = density.dimension if sampled else density[0].shape[1]
        if density_dim != field.dimension:
            raise ConfigError(
                f"the {self.density['kind']} density has dimension {density_dim} "
                f"but the {field.name} field has dimension {field.dimension}")
        if sampled:  # every run quantizes at resolution, and 2 resolution
            _atom_count(self.resolution, density_dim)
            if mode == "resolution":
                _atom_count(2 * self.resolution, density_dim)

        for key, value in (("name", name), ("cutoff_levels", levels),
                           ("parameters", parameters), ("density", density)):
            object.__setattr__(self, key, value)

    @property
    def field_kind(self):
        return self.field["kind"]

    @property
    def field_params(self):
        return {key: value for key, value in self.field.items()
                if key != "kind"}

    @staticmethod
    def from_dict(doc, seed_override=None):
        if not isinstance(doc, dict):
            raise ConfigError("scenario config must be a JSON object")
        if seed_override is not None:
            doc = {**doc, "seed": seed_override}
        elif "seed" not in doc:
            raise ConfigError("config key 'seed' is required (or --seed)")
        return _build(ScenarioConfig, doc, "config")


def load_config(path, seed_override=None):
    """Read and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return ScenarioConfig.from_dict(doc, seed_override=seed_override)


def _initial_atoms(config, resolution, salt):
    """The datum's atoms: ``config.density`` quantized at ``resolution``
    with seed ``config.seed + salt``, or its explicit atoms as they are."""
    if isinstance(config.density, DensityField):
        return quantize_density(config.density, resolution,
                                config.quantization, config.seed + salt)
    return config.density


# -- scenario run ----------------------------------------------------------------


@dataclass(frozen=True)
class LevelResult:
    """Everything one cutoff level contributes to the report."""

    level: float
    schedule: Schedule
    alpha_used: float
    rows: tuple
    invariants: dict


@dataclass(frozen=True)
class ScenarioResult:
    exit_code: int
    summary: dict
    levels: tuple
    summary_path: str
    report_paths: dict


def _difference_measure(dimension, loc_fine, w_fine, loc_coarse, w_coarse):
    # refined minus baseline; the merge sums each group of atoms within
    # DEDUP_TOL, so twins cancel and a difference of equal clouds is the
    # empty measure
    locations = np.vstack([loc_fine, loc_coarse])
    weights = np.concatenate([w_fine, -w_coarse])
    return measure_from_arrays(dimension, locations, weights, merge=True)


def _refinement_distance(diff):
    """Benchmark-cost distance between the two sides of a difference."""
    return reference_W(balance_with_reservoir(diff))


def _level_job(field, config, level, times, diffs, w_refine, masses):
    cutoff = build_cutoff(field.growth, level)
    const = field.modulus_constant
    int_total, int_tail = variation_integrals(zip(times, diffs), level - 1.0)
    var_integral = float(int_total[-1])
    var_floor = max(float(int_tail[-1]), 1.0 / level)

    if config.parameters == "schedule":
        schedule = parameter_schedule(
            level, var_integral, var_floor, const, field.growth_const,
            field.modulus, growth_at_k=float(field.growth(level)))
        scheduled = True
    else:
        given = config.parameters
        j_value = saturation_integral(field.modulus, given["delta"])
        schedule = Schedule(
            k=level, variation_integral=var_integral,
            variation_floor=var_floor, beta=given["beta"],
            delta=given["delta"], alpha=given["alpha"], j_target=j_value,
            j_value=j_value)
        scheduled = False

    # the bound only improves for smaller alpha; keep the lattice workable
    alpha_used = min(schedule.alpha, 0.5)
    spec = MollifierSpec(alpha_used, field.dimension,
                         cells_per_alpha=config.cells_per_alpha)
    cost = ConcaveCost(field.modulus, schedule.delta, schedule.beta)
    estimate = costestimate_bound(field, int_total, int_tail, cutoff, cost,
                                  alpha_used, j_value=schedule.j_value,
                                  const=const)
    terms = np.column_stack([estimate.term1, estimate.term2, estimate.term3,
                             estimate.bound])

    rows = []
    final_pair = None
    final_value = 0.0
    worst_gap = -math.inf
    first_term_ok = True
    for i, t in enumerate(times):
        pair = build_mu_nu(diffs[i], cutoff, spec)
        plan = D_functional(pair, cost)
        value = plan.primal_value
        row = tuple(map(float, (t, value, *terms[i], w_refine[i],
                                masses[i])))
        rows.append(row)
        worst_gap = max(worst_gap, value - row[5] * (1.0 + _BOUND_SLACK))
        lhs, rhs = firstterm_estimate(field, t, plan, cost, const)
        first_term_ok = first_term_ok and lhs <= rhs * (1.0 + 1e-9) + 1e-15
        final_pair, final_value = pair, value

    last = rows[-1]
    invariants = {"first_term": bool(first_term_ok)}
    if config.difference_mode == "tolerance":
        invariants["d_le_bound"] = bool(worst_gap <= 1e-15)
    if scheduled:
        invariants["schedule_terms"] = bool(
            max(last[2], last[3], last[4]) <= 1.0 + _TERM_SLACK)
        invariants["d_le_three"] = bool(
            final_value <= 3.0 * (1.0 + _BOUND_SLACK))
    chain_ok = True
    lhs = reference_W(final_pair)
    for eps in (0.1, 0.01):
        rhs = comparison_bound(cost, final_value, eps,
                               final_pair.total_mass())
        chain_ok = chain_ok and lhs <= rhs * (1.0 + 1e-9) + 1e-12
    invariants["comparison_chain"] = bool(chain_ok)

    return LevelResult(level=level, schedule=schedule, alpha_used=alpha_used,
                       rows=tuple(rows), invariants=invariants)


def run_scenario(config, out_dir, threads=1, fmt="csv"):
    """Run one scenario end to end and write reports plus a summary.

    Returns a :class:`ScenarioResult` whose exit code is 0 exactly when
    every checked invariant held: the transport functional stays under its
    three-term bound, every report row's optimal plan satisfies the
    first-term estimate with the declared modulus constant, scheduled
    parameters keep each term at most 1 and the functional at most 3, the
    comparison chain closes, differences carry exactly zero signed mass, and
    the weak-form residual stays under the configured tolerance.
    ``threads`` accepts only 1; it stays while the benchmark workloads
    pass ``threads=1``, and goes once they stop.
    """
    _check_format(threads, fmt)
    os.makedirs(out_dir, exist_ok=True)

    field = build_field(config.field_kind, config.field_params)
    times = np.linspace(0.0, config.horizon, config.time_points)

    loc_coarse, weights_coarse = _initial_atoms(config, config.resolution, 0)
    fine_opts = coarse_opts = FlowOptions(abs_tol=config.abs_tol,
                                          rel_tol=config.rel_tol)
    if config.difference_mode == "tolerance":
        loc_fine, weights_fine = loc_coarse, weights_coarse
        coarse_opts = FlowOptions(
            abs_tol=config.abs_tol * config.coarse_factor,
            rel_tol=config.rel_tol * config.coarse_factor)
    else:
        loc_fine, weights_fine = _initial_atoms(
            config, 2 * config.resolution, 1)
    frames_fine = flow_map(field, loc_fine, times, fine_opts)
    frames_coarse = flow_map(field, loc_coarse, times, coarse_opts)

    diffs = [_difference_measure(field.dimension, fine, weights_fine, coarse,
                                 weights_coarse)
             for fine, coarse in zip(frames_fine, frames_coarse)]
    solution = [(t, measure_from_arrays(field.dimension, frames_fine[i],
                                        weights_fine, merge=False))
                for i, t in enumerate(times)]

    masses = [m.total_mass() for m in diffs]
    w_refine = [_refinement_distance(m) for m in diffs]
    mass_ok = all(mass == 0.0 for mass in masses)
    residual = weak_solution_residual(field, solution)

    levels = [_level_job(field, config, level, times, diffs, w_refine,
                         masses)
              for level in config.cutoff_levels]

    report_paths = {}
    for result in levels:
        stem = f"{config.name}_k{result.level:g}"
        path = os.path.join(out_dir, f"{stem}.{fmt}")
        write_table(path, REPORT_COLUMNS, result.rows, fmt)
        report_paths[f"{result.level:g}"] = os.path.basename(path)

    invariants = {"mass_zero": bool(mass_ok),
                  "weak_residual": bool(residual <= config.weak_tol)}
    per_level = {}
    schedules = {}
    for result in levels:
        per_level[f"{result.level:g}"] = result.invariants
        sched = result.schedule
        schedules[f"{result.level:g}"] = {
            "beta": sched.beta, "delta": sched.delta, "alpha": sched.alpha,
            "alpha_used": result.alpha_used, "j_target": sched.j_target,
            "variation_integral": sched.variation_integral,
            "variation_floor": sched.variation_floor,
        }

    flat = [*invariants.values()]
    for block in per_level.values():
        flat.extend(block.values())
    exit_code = 0 if all(flat) else 1

    summary = {
        "name": config.name,
        "field": config.field_kind,
        "difference_mode": config.difference_mode,
        "seed": config.seed,
        "invariants": {**invariants, "levels": per_level},
        "schedules": schedules,
        "weak_residual_value": residual,
        "reports": report_paths,
        "exit_code": exit_code,
    }
    summary_path = os.path.join(out_dir, f"{config.name}_summary.json")
    write_json(summary_path, summary)
    return ScenarioResult(exit_code=exit_code, summary=summary,
                          levels=tuple(levels), summary_path=summary_path,
                          report_paths=report_paths)


# -- refinement study --------------------------------------------------------------


@dataclass(frozen=True)
class StudyResult:
    exit_code: int
    resolutions: tuple
    distances: tuple
    ratios: tuple
    warning: bool
    passed: bool
    summary_path: str
    table_path: str


def convergence_study(config, out_dir, rungs=4, threads=1, fmt="csv"):
    """Quantize one datum on a resolution ladder and compare rung endpoints.

    Each rung doubles the resolution, flows its atoms to the horizon with
    the tight tolerances, and the flat transport distance between
    consecutive rungs lands in the table.  Lipschitz fields must shrink the
    distance by at least 1.8 per rung; Osgood fields must shrink it
    strictly; fields outside the Osgood class only raise a warning flag.
    ``threads`` accepts only 1, and stays as in :func:`run_scenario`.
    """
    rungs = _typed(int, rungs, "rungs")
    if rungs < 3:
        raise ConfigError("a refinement study needs at least three rungs")
    _check_format(threads, fmt)
    if not isinstance(config.density, DensityField):
        raise ConfigError("a refinement study needs a sampled density")
    resolutions = [config.resolution * 2 ** j for j in range(rungs)]
    for resolution in resolutions:  # before any rung flows
        _atom_count(resolution, config.density.dimension)
    os.makedirs(out_dir, exist_ok=True)

    field = build_field(config.field_kind, config.field_params)
    opts = FlowOptions(abs_tol=config.abs_tol, rel_tol=config.rel_tol)

    endpoints = []
    for resolution in resolutions:
        points, weights = _initial_atoms(config, resolution, resolution)
        frames = flow_map(field, points,
                          np.array([0.0, config.horizon]), opts)
        endpoints.append((frames[-1], weights))

    distances = []
    for (loc_a, w_a), (loc_b, w_b) in zip(endpoints, endpoints[1:]):
        diff = _difference_measure(field.dimension, loc_b, w_b, loc_a, w_a)
        distances.append(_refinement_distance(diff))
    ratios = [a / b if b > 0.0 else math.inf
              for a, b in zip(distances, distances[1:])]

    warning = not field.modulus.osgood
    if field.lipschitz:
        passed = all(r >= 1.8 for r in ratios)
    elif field.modulus.osgood:
        passed = all(a > b for a, b in zip(distances, distances[1:]))
    else:
        passed = True

    header = ("rung", "resolution", "w_refine", "ratio")
    rows = []
    for j, resolution in enumerate(resolutions):
        w_val = distances[j] if j < len(distances) else math.nan
        ratio = ratios[j - 1] if 1 <= j <= len(ratios) else math.nan
        rows.append((j, resolution, w_val, ratio))

    table_path = os.path.join(out_dir, f"{config.name}_refinement.{fmt}")
    write_table(table_path, header, rows, fmt)

    exit_code = 0 if passed else 1
    summary = {
        "name": config.name,
        "field": config.field_kind,
        "seed": config.seed,
        "resolutions": resolutions,
        "distances": distances,
        # a zero distance gives an infinite ratio, which JSON cannot hold
        "ratios": [r if math.isfinite(r) else None for r in ratios],
        "lipschitz": bool(field.lipschitz),
        "osgood": bool(field.modulus.osgood),
        "warning_non_osgood": warning,
        "passed": passed,
        "exit_code": exit_code,
    }
    summary_path = os.path.join(out_dir, f"{config.name}_refinement_summary.json")
    write_json(summary_path, summary)
    return StudyResult(exit_code=exit_code, resolutions=tuple(resolutions),
                       distances=tuple(distances), ratios=tuple(ratios),
                       warning=warning, passed=passed,
                       summary_path=summary_path, table_path=table_path)


# -- canned scenarios ---------------------------------------------------------------


_BUILTIN_CONFIGS = {
    "rotation_ring": {
        "name": "rotation_ring",
        "field": {"kind": "rotation"},
        "density": {"kind": "ring", "radius": 0.5, "width": 0.06},
        "horizon": 1.0,
        "time_points": 5,
        "resolution": 9,
        "seed": 7,
    },
    "osgood_line": {
        "name": "osgood_line",
        "field": {"kind": "osgood1d"},
        "density": {"kind": "interval", "low": 0.15, "high": 0.85},
        "horizon": 1.0,
        "time_points": 5,
        "resolution": 96,
        "seed": 11,
    },
    "osgood_disc": {
        "name": "osgood_disc",
        "field": {"kind": "osgood_plane"},
        "density": {"kind": "ring", "radius": 0.28, "width": 0.04},
        "horizon": 1.0,
        "time_points": 5,
        "resolution": 9,
        "parameters": {"beta": 0.1, "delta": 0.05, "alpha": 0.25},
        "seed": 13,
    },
    "shear_line": {
        "name": "shear_line",
        "field": {"kind": "linear", "matrix": [[1.0]]},
        "density": {"kind": "interval", "low": 0.2, "high": 0.8},
        "horizon": 1.0,
        "time_points": 3,
        "resolution": 24,
        "seed": 17,
    },
    "drift_line": {
        "name": "drift_line",
        "field": {"kind": "constant", "velocity": [0.35]},
        "density": {"kind": "two_bumps", "centers": [[-0.3], [0.35]],
                    "spread": 0.09},
        "horizon": 1.0,
        "time_points": 3,
        "resolution": 24,
        "seed": 19,
    },
    "mixing_disc": {
        "name": "mixing_disc",
        "field": {"kind": "nonosgood_plane"},
        "density": {"kind": "ring", "radius": 0.28, "width": 0.04},
        "horizon": 1.0,
        "time_points": 3,
        "resolution": 6,
        "seed": 23,
    },
}


def builtin_config(name):
    """A fresh copy of one of the canned scenario documents."""
    if name not in _BUILTIN_CONFIGS:
        known = ", ".join(sorted(_BUILTIN_CONFIGS))
        raise ConfigError(f"unknown builtin scenario {name!r} (known: {known})")
    return json.loads(json.dumps(_BUILTIN_CONFIGS[name]))


def builtin_names():
    return tuple(sorted(_BUILTIN_CONFIGS))


# -- selftest ----------------------------------------------------------------------


def selftest(echo=print):
    """Fast deterministic sanity checks; returns a process exit code."""
    results = []

    def record(label, ok, detail=""):
        suffix = f"  ({detail})" if detail and not ok else ""
        echo(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
        results.append(ok)

    cut = build_cutoff(growth_affine(), 1.0)
    want = 2.0 * math.e - 1.0
    record("cutoff-window-radius", abs(cut.r_zero - want) <= 1e-8,
           f"r_zero={cut.r_zero!r}")

    cost = ConcaveCost(modulus_linear(), 0.25, 2.0)
    closed = 2.0 * math.log(1.25 / 0.25)
    record("cost-closed-form", abs(cost.cost(1.0) - closed) <= 1e-9 * closed,
           f"cost(1)={cost.cost(1.0)!r}")

    ok = True
    for frac in (0.2, 0.65, 0.95):
        value = frac * closed
        radius = cost.cost_inverse(value)
        ok = ok and abs(cost.cost(radius) - value) <= 1e-9 * (1.0 + value)
    record("cost-inverse-roundtrip", ok)

    pair = balance_with_reservoir(make_measure(
        1, [((0.0,), 0.4), ((0.7,), 0.35), ((1.4,), 0.25),
            ((0.2,), -0.3), ((1.0,), -0.45)]))
    plan, _ = solve_ot(pair, cost)
    check, _ = brute_force_ot(pair, cost)
    record("transport-dual-route",
           abs(plan.primal_value - check) <= 1e-9 * (1.0 + abs(check)),
           f"simplex={plan.primal_value!r} ssp={check!r}")

    end = flow_endpoints(rotation_field(), [[1.0, 0.0]],
                         0.0, math.pi / 2.0)[0]
    record("rotation-quarter-turn",
           abs(end[0]) <= 1e-8 and abs(end[1] - 1.0) <= 1e-8,
           f"end={end!r}")

    density = density_from_config(
        {"kind": "gaussian", "center": [0.0, 0.0], "spread": 0.2})
    _, grid_w = quantize_density(density, 7, "grid", 0)
    _, rand_w = quantize_density(density, 7, "random", 3)
    record("unit-mass-quantization",
           math.fsum(grid_w) == 1.0 and math.fsum(rand_w) == 1.0)

    atom = make_measure(2, [((0.05, -0.02), 0.625)])
    smooth = mollify(atom, MollifierSpec(0.25, 2))
    record("mollifier-mass-conservation",
           abs(math.fsum(smooth.weights) - 0.625) <= 1e-12)

    return 0 if all(results) else 1
