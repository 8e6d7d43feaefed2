"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a closed loop of one client: the next operation starts when
the previous one has returned.  A cycle is one pass over the workload's
operation kinds, each built from one config seed of the recorded bank
``BANK``; the workload seed picks which bank seeds a run uses, so every input
has a recorded reference.  charflow receives only the generated configs and
arrays.
"""

import json
import math
import os

import numpy as np

from charflow import flow, scenarios

# Config seeds whose outputs are recorded in refs/; a run draws its cycles
# from these so that every operation can be checked against a reference.
BANK = tuple(range(1, 17))

# Relative and absolute tolerance on the D, bound and W_refine columns and on
# the refinement distances: loose enough for reordered floating-point sums,
# far tighter than any wrong transport plan or cost.
VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-14

# Push endpoints may differ from their reference by this many integrator
# tolerances, abs_tol + rel_tol * |x|, per coordinate.
PUSH_TOL_FACTOR = 100.0
PUSH_OPTIONS = flow.FlowOptions(abs_tol=1e-11, rel_tol=1e-9)
PUSH_TIMES = np.linspace(0.0, 1.0, 5)
PUSH_RESOLUTION = 100  # 100**2 = 10,000 atoms per cloud
PUSH_SAMPLE = 64       # atoms per cloud whose endpoints are recorded

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _close(value, ref):
    return abs(value - ref) <= VALUE_RTOL * abs(ref) + VALUE_ATOL


def _dir_bytes(path):
    """Every file under path, names and contents, in a fixed order."""
    chunks = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            chunks.append(name.encode() + b"\0" + handle.read())
    return b"\0\0".join(chunks)


def _compare_series(label, got, want, errors):
    if len(got) != len(want):
        errors.append(f"{label}: {len(got)} values, reference has {len(want)}")
        return
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w):
            errors.append(f"{label}[{i}] = {g!r}, reference {w!r}")


# -- scenarios ----------------------------------------------------------------


class ScenarioOp:
    """One verified diagnostic run of a canned scenario."""

    def __init__(self, name, seed):
        doc = scenarios.builtin_config(name)
        doc["seed"] = seed
        doc["quantization"] = "random"
        self.kind = name
        self.key = f"{name}/{seed}"
        self.config = scenarios.ScenarioConfig.from_dict(doc)

    def run(self, out_dir):
        return scenarios.run_scenario(self.config, out_dir, threads=1,
                                      fmt="csv")

    def _columns(self, result, out_dir):
        path = os.path.join(out_dir, result.report_paths["2"])
        with open(path, encoding="utf-8") as handle:
            header, *rows = [line.split(",") for line in
                             handle.read().splitlines()]
        cols = {name: i for i, name in enumerate(header)}
        return {name: [float(row[cols[name]]) for row in rows]
                for name in ("D", "bound", "W_refine")}

    def check(self, result, out_dir, refs):
        errors = []
        if result.exit_code != 0:
            errors.append(f"exit code {result.exit_code}")
        with open(result.summary_path, encoding="utf-8") as handle:
            summary = json.load(handle)
        flat = {k: v for k, v in summary["invariants"].items()
                if k != "levels"}
        for level, block in summary["invariants"]["levels"].items():
            flat.update({f"{k}@k{level}": v for k, v in block.items()})
        errors += [f"invariant {k} is false" for k, v in flat.items() if not v]
        got = self._columns(result, out_dir)
        for column, want in refs[self.key].items():
            _compare_series(f"{self.key} {column}", got[column], want, errors)
        return errors

    def output_bytes(self, result, out_dir):
        return _dir_bytes(out_dir)

    def record(self, result, out_dir):
        return self._columns(result, out_dir)


# -- refine -------------------------------------------------------------------

# (scenario, starting resolution); three rungs double it twice.
REFINE_STUDIES = (("osgood_line", 96), ("rotation_ring", 9))
REFINE_RUNGS = 3
REFINE_JITTER = 0.03  # density parameters move by at most this fraction


class StudyOp:
    """One resolution-refinement study on grid quantization."""

    def __init__(self, name, resolution, seed):
        doc = scenarios.builtin_config(name)
        doc["seed"] = seed
        doc["resolution"] = resolution
        rng = np.random.default_rng([0x4EF1, seed, resolution])
        density = doc["density"]
        for key in sorted(density):
            if key in ("radius", "width", "low", "high"):
                density[key] *= 1.0 + REFINE_JITTER * rng.uniform(-1.0, 1.0)
        self.kind = name
        self.key = f"{name}/{seed}"
        self.config = scenarios.ScenarioConfig.from_dict(doc)

    def run(self, out_dir):
        return scenarios.convergence_study(self.config, out_dir,
                                           rungs=REFINE_RUNGS, threads=1,
                                           fmt="csv")

    def check(self, result, out_dir, refs):
        errors = []
        if not result.passed or result.exit_code != 0:
            errors.append(f"study failed its contraction gate "
                          f"(ratios {list(result.ratios)})")
        _compare_series(f"{self.key} distances", list(result.distances),
                        refs[self.key]["distances"], errors)
        return errors

    def output_bytes(self, result, out_dir):
        return _dir_bytes(out_dir)

    def record(self, result, out_dir):
        return {"distances": list(result.distances)}


# -- push ---------------------------------------------------------------------

# (field, ring radius, ring width) of the two pushed clouds
PUSH_CLOUDS = (("rotation", 0.5, 0.06), ("osgood_plane", 0.28, 0.04))


def _push_tolerance(ref):
    return PUSH_TOL_FACTOR * (PUSH_OPTIONS.abs_tol
                              + PUSH_OPTIONS.rel_tol * np.abs(ref))


class PushOp:
    """Snapshots of about 10,000 random atoms along one field's flow."""

    def __init__(self, field_kind, radius, width, seed):
        density = scenarios.density_from_config(
            {"kind": "ring", "radius": radius, "width": width})
        self.kind = field_kind
        self.key = f"{field_kind}/{seed}"
        self.field = scenarios.build_field(field_kind, {})
        self.points, self.weights = scenarios.quantize_density(
            density, PUSH_RESOLUTION, "random", seed)
        self.sample = np.linspace(0, len(self.points) - 1,
                                  PUSH_SAMPLE).astype(int)

    def run(self, out_dir):
        return flow.flow_map(self.field, self.points, PUSH_TIMES, PUSH_OPTIONS)

    def check(self, frames, out_dir, refs):
        errors = []
        if math.fsum(self.weights) != 1.0:
            errors.append("atom weights do not fsum to exactly 1.0")
        if frames.shape != (len(PUSH_TIMES),) + self.points.shape:
            return errors + [f"snapshot shape {frames.shape}"]
        if not np.all(np.isfinite(frames)):
            errors.append("non-finite endpoint")
        if not np.array_equal(frames[0], self.points):
            errors.append("first snapshot is not the start cloud")
        if self.kind == "rotation":
            x, y = self.points[:, 0], self.points[:, 1]
            for t, frame in zip(PUSH_TIMES[1:], frames[1:]):
                exact = np.column_stack([np.cos(t) * x - np.sin(t) * y,
                                         np.sin(t) * x + np.cos(t) * y])
                worst = np.max(np.abs(frame - exact) / _push_tolerance(exact))
                if not worst <= 1.0:
                    errors.append(f"rotation at t={t:g} is {worst:.3g} "
                                  f"times its tolerance off the closed form")
            return errors
        errors += self._check_radial(frames)
        ref = refs[self.key]
        got = self.record(frames, out_dir)
        frozen = PUSH_OPTIONS.freeze_radius
        for i, (g, w) in enumerate(zip(got["sample"], ref["sample"])):
            g, w = np.asarray(g), np.asarray(w)
            both_frozen = (np.linalg.norm(g, axis=1) <= frozen) & \
                (np.linalg.norm(w, axis=1) <= frozen)
            off = np.abs(g - w) > _push_tolerance(w)
            if np.any(off & ~both_frozen[:, None]):
                errors.append(f"{self.key} frame {i + 1}: sampled endpoint "
                              f"off its reference")
        for i, (g, w) in enumerate(zip(got["radius_sum"], ref["radius_sum"])):
            # frozen atoms may stop anywhere inside the freeze radius
            allowed = len(self.points) * frozen + PUSH_TOL_FACTOR * (
                len(self.points) * PUSH_OPTIONS.abs_tol
                + PUSH_OPTIONS.rel_tol * w)
            if not abs(g - w) <= allowed:
                errors.append(f"{self.key} frame {i + 1}: radius sum {g!r}, "
                              f"reference {w!r}")
        return errors

    def _check_radial(self, frames):
        # osgood_plane is radial, so every atom stays on its starting ray
        # and never moves outward.
        start = self.points
        errors = []
        norms = [np.linalg.norm(frame, axis=1) for frame in frames]
        for i, frame in enumerate(frames[1:], start=1):
            cross = np.abs(start[:, 0] * frame[:, 1]
                           - start[:, 1] * frame[:, 0])
            if np.any(cross > 1e-10 * norms[0] * norms[i] + 1e-300):
                errors.append(f"frame {i}: an atom left its starting ray")
            if np.any(norms[i] > norms[i - 1] * (1.0 + 1e-12)):
                errors.append(f"frame {i}: an atom moved outward")
        return errors

    def output_bytes(self, frames, out_dir):
        return frames.tobytes()

    def record(self, frames, out_dir):
        if self.kind == "rotation":
            return {}  # checked against the closed form instead
        return {
            "sample": frames[1:, self.sample, :].tolist(),
            "radius_sum": [math.fsum(np.linalg.norm(frame, axis=1))
                           for frame in frames[1:]],
        }


# -- the workload table -------------------------------------------------------


class Workload:
    """A named cycle of operation kinds built from one bank seed."""

    def __init__(self, name, nominal_cycle_s, ops_per_cycle, make_cycle):
        self.name = name
        self.nominal_cycle_s = nominal_cycle_s
        self.ops_per_cycle = ops_per_cycle
        self.make_cycle = make_cycle

    def cycles(self, seconds, least_ops=11):
        """Whole cycles a run measures: about ``seconds`` long at the
        nominal cycle time, and at least ``least_ops`` operations (eleven by
        default, so that a tail percentile with ten samples beyond it
        exists)."""
        return max(math.ceil(least_ops / self.ops_per_cycle),
                   math.ceil(seconds / self.nominal_cycle_s))

    def setup(self, seed, cycles):
        """The run's bank seeds, one per cycle, and its operations in order,
        with validated configs and generated inputs."""
        rng = np.random.default_rng([0xBE7C, int(seed)])
        seeds = [BANK[i] for i in rng.choice(len(BANK), size=cycles,
                                             replace=cycles > len(BANK))]
        return seeds, [op for s in seeds for op in self.make_cycle(s)]

    def load_refs(self):
        with open(os.path.join(REFS_DIR, f"{self.name}.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)


SCENARIO_ORDER = ("drift_line", "shear_line", "osgood_line", "osgood_disc",
                  "rotation_ring")

# Nominal cycle times were measured at the commit that added the benchmark
# on a 2-core Intel Xeon; they fix how much work ``--seconds`` buys.
WORKLOADS = {
    "scenarios": Workload(
        "scenarios", 4.3, len(SCENARIO_ORDER),
        lambda s: [ScenarioOp(name, s) for name in SCENARIO_ORDER]),
    "refine": Workload(
        "refine", 6.0, len(REFINE_STUDIES),
        lambda s: [StudyOp(name, res, s) for name, res in REFINE_STUDIES]),
    "push": Workload(
        "push", 2.3, len(PUSH_CLOUDS),
        lambda s: [PushOp(kind, r, w, s) for kind, r, w in PUSH_CLOUDS]),
}
