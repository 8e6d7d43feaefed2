"""Scenario configs, quantization, end-to-end runs, and the CLI."""

import dataclasses
import inspect
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import ComparisonBoundError, ConfigError, MollifierError
from charflow.cli import main as cli_main
from charflow.fields import FIELD_CATALOG
from charflow.scenarios import (ScenarioConfig, builtin_config, builtin_names,
                                build_field, convergence_study,
                                density_from_config, load_config,
                                quantize_density, run_scenario, selftest)
from charflow import costs, scenarios
from charflow.measures import DEDUP_TOL
from charflow.scenarios import _SNAP_GRAIN, _snap_unit_weights
from charflow.scenarios import _difference_measure as difference_measure

MICRO = {
    "name": "micro_spin",
    "field": {"kind": "rotation"},
    "density": {"kind": "gaussian", "center": [0.0, 0.0], "spread": 0.2},
    "horizon": 0.5,
    "time_points": 3,
    "resolution": 4,
    "cutoff_levels": [2.0],
    "seed": 5,
}

LINE = {
    "name": "micro_shear",
    "field": {"kind": "linear", "matrix": [[1.0]]},
    "density": {"kind": "interval", "low": 0.2, "high": 0.8},
    "horizon": 1.0,
    "time_points": 3,
    "resolution": 8,
    "seed": 17,
}


def micro_config(**overrides):
    return ScenarioConfig.from_dict({**MICRO, **overrides})


# -- config validation ---------------------------------------------------------

@pytest.mark.parametrize("patch, needle", [
    ({"name": None}, "^config key 'name' is required$"),
    ({"horizon": None}, "^config key 'horizon' is required$"),
    ({"horizon": 0.0}, "horizon"),
    ({"name": "two words"}, "filename stem"),
    ({"field": {"dimension": 2}}, "kind"),
    ({"density": []}, "kind"),
    ({"time_points": 1}, "two points"),
    ({"quantization": "jittered"}, "quantization"),
    ({"difference_mode": "both"}, "difference_mode"),
    ({"cutoff_levels": []}, "at least 1"),
    ({"cutoff_levels": [0.5]}, "at least 1"),
    ({"cutoff_levels": [2.0, 2.0]}, "distinct"),
    ({"cutoff_levels": 3.0},
     r"^config key 'cutoff_levels' has a value of the wrong type: 3.0$"),
    # the pinned parameters are a block that _build reads
    ({"parameters": {"beta": 1.0}}, "^parameters key 'delta' is required$"),
    ({"parameters": {"beta": 1.0, "delta": 0.1, "alpha": 0.5, "gamma": 1.0}},
     r"^unknown parameters key\(s\): gamma$"),
    ({"parameters": "pinned"},
     '^parameters must be "schedule" or an object$'),
    ({"parameters": {"beta": -1.0, "delta": 0.1, "alpha": 0.5}}, "positive"),
    ({"parameters": {"beta": 1.0, "delta": 0.1, "alpha": 1.5}}, "(0, 1)"),
    ({"abs_tol": 0.0}, "tolerances"),
    ({"coarse_factor": 1.0}, "coarse_factor"),
    # the lattice (alpha / 4) and the residual ceiling (1.0) are constants
    ({"cells_per_alpha": 4, "weak_tol": 1.0},
     r"^unknown config key\(s\): cells_per_alpha, weak_tol$"),
    ({"seed": None}, r"^config key 'seed' is required \(or --seed\)$"),
    ({"banana": 1}, r"^unknown config key\(s\): banana$"),
    # a kind belongs to a field or density block, not to the document
    ({"kind": "rotation"}, r"^unknown config key\(s\): kind$"),
    ({"parameters": {"beta": math.nan, "delta": 0.1, "alpha": 0.5}},
     "finite"),
    ({"parameters": {"beta": 1.0, "delta": math.inf, "alpha": 0.5}},
     "finite"),
    ({"parameters": {"beta": 1.0, "delta": 0.1, "alpha": math.nan}},
     "'alpha' must be finite"),
    ({"cutoff_levels": [math.inf]}, "'cutoff_levels' must be finite"),
    ({"cutoff_levels": [2.0, math.nan]}, "'cutoff_levels' must be finite"),
    ({"horizon": math.inf}, "'horizon' must be finite"),
    ({"abs_tol": math.nan}, "'abs_tol' must be finite"),
    ({"rel_tol": math.inf}, "'rel_tol' must be finite"),
    ({"coarse_factor": math.inf}, "'coarse_factor' must be finite"),
    ({"time_points": math.inf}, "'time_points' has a value of the wrong"),
    ({"seed": math.nan}, "'seed' has a value of the wrong type"),
    # booleans and strings are not numbers, and an int key takes no fraction
    ({"resolution": 24.9}, "'resolution' needs an integer"),
    ({"time_points": 2.5}, "'time_points' needs an integer"),
    ({"seed": 1.5}, "'seed' needs an integer"),
    ({"horizon": True}, "'horizon' has a value of the wrong type"),
    ({"resolution": "24"}, "'resolution' has a value of the wrong type"),
    ({"abs_tol": "1e-11"}, "'abs_tol' has a value of the wrong type"),
    ({"cutoff_levels": [2.0, True]},
     r"^config key 'cutoff_levels' has a value of the wrong type: "
     r"\[2.0, True\]$"),
    ({"cutoff_levels": ["2"]}, "'cutoff_levels' has a value of the wrong"),
    ({"parameters": {"beta": True, "delta": 0.1, "alpha": 0.5}},
     "'beta' has a value of the wrong type"),
    # nor are they inside array-valued keys, at any depth
    ({"field": {"kind": "linear", "matrix": [[True]]}},
     "'matrix' has a value of the wrong type"),
    ({"field": {"kind": "constant", "velocity": [0.3, True]}},
     "'velocity' has a value of the wrong type"),
    ({"field": {"kind": "constant", "velocity": [0.3, "0.1"]}},
     "'velocity' has a value of the wrong type"),
    ({"density": {"kind": "atoms", "atoms": [[[0.0, True], 1.0]]}},
     "'atoms' has a value of the wrong type"),
    ({"density": {"kind": "atoms", "atoms": [[[0.0, 0.0], True]]}},
     "'atoms' has a value of the wrong type"),
    ({"density": {"kind": "atoms"}}, "^atoms density key 'atoms' is required$"),
    ({"seed": -2}, "'seed' must not be negative"),
])
def test_config_rejections(patch, needle):
    doc = {**MICRO, **patch}
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ConfigError, match=needle):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("field, density, dims", [
    ({"kind": "osgood1d"}, {"kind": "ring"}, (2, 1)),
    ({"kind": "rotation"}, {"kind": "interval"}, (1, 2)),
    ({"kind": "rotation"},
     {"kind": "gaussian", "center": [0.0, 0.0, 0.0]}, (3, 2)),
    ({"kind": "rotation"},
     {"kind": "atoms", "atoms": [[0.25, 0.5], [0.75, 0.5]]}, (1, 2)),
    ({"kind": "linear", "matrix": [[1.0]]},
     {"kind": "atoms", "atoms": [[[0.0, 0.5], 1.0]]}, (2, 1)),
])
def test_density_and_field_dimensions_are_checked_at_read(tmp_path, field,
                                                          density, dims):
    doc = {**MICRO, "field": field, "density": density}
    out = tmp_path / "out"
    want = (rf"the {density['kind']} density has dimension {dims[0]} but "
            rf"the {field['kind']} field has dimension {dims[1]}")
    with pytest.raises(ConfigError, match=want):
        run_scenario(ScenarioConfig.from_dict(doc), str(out))
    with pytest.raises(ConfigError, match=want):
        convergence_study(ScenarioConfig.from_dict(doc), str(out))
    assert not out.exists()


def test_a_directly_built_config_is_checked():
    # the dataclass is the schema, so its constructor checks what from_dict
    # reads; only the typing of values is from_dict's
    given = {"name": "direct", "field": {"kind": "rotation"},
             "density": dict(MICRO["density"]), "horizon": 0.5, "seed": 3}
    config = ScenarioConfig(**given)
    assert (config.field_kind, config.field_params) == ("rotation", {})
    assert (config.resolution, config.cutoff_levels) == (9, (2.0,))
    assert config.density.dimension == 2
    for patch, needle in [
            ({"horizon": 0.0}, "horizon must be positive"),
            ({"seed": -1}, "'seed' must not be negative"),
            ({"resolution": 1}, "resolution must be at least 2"),
            ({"cutoff_levels": [0.5]}, "at least 1"),
            ({"cutoff_levels": [3.0, "2"]},
             r"^config key 'cutoff_levels' has a value of the wrong type: "
             r"\[3.0, '2'\]$"),
            ({"parameters": {"beta": 1.0, "delta": 0.1}},
             "^parameters key 'alpha' is required$"),
            ({"field": {"kind": "vortex"}}, "unknown field kind"),
            ({"field": {"kind": "rotation", "speed": 2.0}},
             "unknown rotation field key"),
            ({"density": {"kind": "ring", "radius": -1.0}}, "positive")]:
        with pytest.raises(ConfigError, match=needle):
            ScenarioConfig(**{**given, **patch})


@pytest.mark.parametrize("patch, needle", [
    ({"resolution": 1}, "^resolution must be at least 2$"),
    ({"resolution": 200}, "^resolution 200 needs 40000 atoms; budget is"),
    ({"resolution": 100, "difference_mode": "resolution"},
     "^resolution 200 needs 40000 atoms; budget is 20000$"),
])
def test_resolutions_a_run_refuses_are_refused_at_read(tmp_path, patch,
                                                      needle):
    # quantize_density would refuse them only after the run made its output
    # directory
    doc = {**builtin_config("rotation_ring"), **patch}
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=needle):
        run_scenario(ScenarioConfig.from_dict(doc), str(out))
    with pytest.raises(ConfigError, match=needle):
        convergence_study(ScenarioConfig.from_dict(doc), str(out))
    assert not out.exists()


def test_resolution_differencing_needs_a_density():
    doc = {**MICRO, "difference_mode": "resolution",
           "density": {"kind": "atoms", "atoms": [[[0.0, 0.0], 1.0]]}}
    with pytest.raises(ConfigError, match="sampled density"):
        ScenarioConfig.from_dict(doc)


def test_configs_compare_by_identity():
    # a parsed density holds arrays and a pdf closure, which have no value
    # equality; comparing two reads of a 2-D config must not raise
    first, second = (ScenarioConfig.from_dict(builtin_config("rotation_ring"))
                     for _ in range(2))
    assert first == first and first != second


def test_config_takes_integral_floats_for_int_keys():
    cfg = micro_config(resolution=9.0, time_points=3.0, seed=4.0)
    assert (cfg.resolution, cfg.time_points, cfg.seed) == (9, 3, 4)
    assert all(type(v) is int for v in (cfg.resolution, cfg.time_points,
                                         cfg.seed))


def test_config_defaults():
    cfg = micro_config()
    assert cfg.quantization == "grid"
    assert cfg.difference_mode == "tolerance"
    assert cfg.parameters == "schedule"
    assert cfg.coarse_factor == 100.0


def test_seed_override_wins():
    cfg = micro_config()
    assert cfg.seed == 5
    assert ScenarioConfig.from_dict(MICRO, seed_override=99).seed == 99
    no_seed = {k: v for k, v in MICRO.items() if k != "seed"}
    assert ScenarioConfig.from_dict(no_seed, seed_override=42).seed == 42


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(bad)


def test_builtins_all_validate():
    names = builtin_names()
    assert "rotation_ring" in names and "osgood_line" in names
    for name in names:
        cfg = ScenarioConfig.from_dict(builtin_config(name))
        assert cfg.name == name
    copy = builtin_config("rotation_ring")
    copy["seed"] = 12345
    assert builtin_config("rotation_ring")["seed"] == 7  # fresh each time
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin_config("spiral")


@pytest.mark.parametrize("doc, needle", [
    ({"kind": "pyramid"}, "unknown density kind"),
    ({"kind": ["gaussian"]}, "unknown density kind"),
    ({"kind": "atoms"}, "^atoms density key 'atoms' is required$"),
    ({"kind": "gaussian", "spread": -0.1}, "positive"),
    ({"kind": "gaussian", "sigma": 0.1}, "unknown gaussian"),
    ({"kind": "interval", "low": 1.0, "high": 0.0}, "low < high"),
    ({"kind": "ring", "radius": 0.0}, "positive"),
    ({"kind": "two_bumps", "centers": [[0.0]]}, "exactly two"),
    ({"kind": "gaussian", "spread": math.inf}, "'spread' must be finite"),
    ({"kind": "gaussian", "center": [True, False]},
     "'center' has a value of the wrong type"),
    ({"kind": "two_bumps", "centers": [[1.0], [True]]},
     "'centers' has a value of the wrong type"),
])
def test_density_rejections(doc, needle):
    with pytest.raises(ConfigError, match=needle):
        density_from_config(doc)


def test_build_field_guards():
    with pytest.raises(ConfigError, match="unknown field kind"):
        build_field("vortex", {})
    with pytest.raises(ConfigError, match="unknown field kind"):
        build_field(["rotation"], {})
    with pytest.raises(ConfigError, match="key 'matrix' is required"):
        build_field("linear", {})
    with pytest.raises(ConfigError,
                       match=r"^unknown rotation field key\(s\): speed$"):
        build_field("rotation", {"speed": 2.0})
    assert build_field("constant", {"velocity": [0.5, 0.0]}).dimension == 2
    assert build_field("osgood1d", {"modulus_constant": 5.0}).dimension == 1


def test_every_catalog_parameter_has_a_type_and_every_kind_a_default():
    # a constructor's signature declares its block, so a parameter added
    # without a converter would fail a user's run, not this test; the
    # config's numeric keys are read through the same map, and a key
    # without a converter would reach a run untyped
    makers = [*FIELD_CATALOG.values(), *scenarios._DENSITY_BUILDERS.values(),
              scenarios._pinned_parameters]
    for make in makers:
        for name in inspect.signature(make).parameters:
            assert name in scenarios._PARAM_TYPES, (make.__name__, name)
    numeric = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)
               if f.type in (int, float)}
    assert len(numeric) == 7, sorted(numeric)
    for name, kind in numeric.items():
        assert scenarios._PARAM_TYPES.get(name) is kind, name
    for kind in FIELD_CATALOG:
        if kind != "linear":
            assert build_field(kind, {}).name == kind
    with pytest.raises(ConfigError,
                       match="^linear field key 'matrix' is required$"):
        build_field("linear", {})
    for kind in scenarios._DENSITY_BUILDERS:
        if kind != "atoms":
            assert density_from_config({"kind": kind}).pdf_sup > 0.0
    with pytest.raises(ConfigError,
                       match="^atoms density key 'atoms' is required$"):
        density_from_config({"kind": "atoms"})


# -- quantization ----------------------------------------------------------------

def test_grid_quantization_exact_unit_mass():
    density = density_from_config(MICRO["density"])
    points, weights = quantize_density(density, 6, "grid", 0)
    assert points.shape == (len(weights), 2)
    assert math.fsum(weights) == 1.0
    assert math.fsum(sorted(weights)) == 1.0  # order cannot matter
    for w in weights:
        assert (w / _SNAP_GRAIN).is_integer()
        assert w > 0.0


def test_random_quantization_is_seed_deterministic():
    density = density_from_config(MICRO["density"])
    pts_a, w_a = quantize_density(density, 5, "random", 7)
    pts_b, w_b = quantize_density(density, 5, "random", 7)
    pts_c, _ = quantize_density(density, 5, "random", 8)
    np.testing.assert_array_equal(pts_a, pts_b)
    np.testing.assert_array_equal(w_a, w_b)
    assert not np.array_equal(pts_a, pts_c)
    assert math.fsum(w_a) == 1.0
    assert len(set(w_a)) <= 2  # equal shares, one carries the shortfall


def test_quantization_guards():
    density = density_from_config(MICRO["density"])
    with pytest.raises(ConfigError, match="at least 2"):
        quantize_density(density, 1, "grid", 0)
    with pytest.raises(ConfigError, match="budget"):
        quantize_density(density, 200, "grid", 0)
    with pytest.raises(ConfigError, match="unknown quantization"):
        quantize_density(density, 4, "jitter", 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1,
                max_size=40))
def test_snapped_weights_always_fsum_to_one(raw):
    keep, snapped = _snap_unit_weights(raw)
    assert math.fsum(snapped) == 1.0
    assert math.fsum(snapped[::-1]) == 1.0
    assert np.all(snapped > 0.0)
    assert keep.sum() == len(snapped)
    for w in snapped:
        assert (w / _SNAP_GRAIN).is_integer()


def test_snapping_refuses_a_shortfall_that_swallows_its_atom():
    # 2.5 million equal weights each round up by 0.35 grain, so the
    # shortfall of about -872,000 grains is larger than any one atom; the
    # guard reads the atom that took it, not the next largest
    with pytest.raises(ConfigError, match="swallowed"):
        _snap_unit_weights(np.full(2_500_000, 1 / 2_500_000))


# -- end-to-end runs ---------------------------------------------------------------

def test_micro_run_passes_every_invariant(tmp_path):
    result = run_scenario(micro_config(), tmp_path)
    assert result.exit_code == 0
    inv = result.summary["invariants"]
    assert inv["mass_zero"] and inv["weak_residual"]
    assert all(inv["levels"]["2"].values())
    report = tmp_path / "micro_spin_k2.csv"
    lines = report.read_text().splitlines()
    assert lines[0] == "t,D,term1,term2,term3,bound,W_refine,mass"
    assert len(lines) == 1 + 3
    for line in lines[2:]:  # the initial row has a zero bound by construction
        row = [float(c) for c in line.split(",")]
        assert row[1] <= row[5] * (1.0 + 1e-5)
        assert row[7] == 0.0
    assert (tmp_path / "micro_spin_summary.json").exists()


def test_runs_are_byte_reproducible(tmp_path):
    out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
    run_scenario(micro_config(), out_a)
    run_scenario(micro_config(), out_b)
    run_scenario(micro_config(), out_c)
    for name in ("micro_spin_k2.csv", "micro_spin_summary.json"):
        blob = (out_a / name).read_bytes()
        assert (out_b / name).read_bytes() == blob
        assert (out_c / name).read_bytes() == blob


@pytest.mark.parametrize("name,levels", [
    ("shear_line", [2.0, 3.0]),
    # level 3 of rotation_ring aborts like osgood_line below
    ("rotation_ring", [2.0]),
])
def test_resolution_mode_passes(tmp_path, name, levels):
    doc = builtin_config(name)
    doc["difference_mode"] = "resolution"
    doc["cutoff_levels"] = levels
    config = ScenarioConfig.from_dict(doc)
    one = run_scenario(config, tmp_path / "one")
    assert one.exit_code == 0
    inv = one.summary["invariants"]
    assert inv["mass_zero"] and inv["weak_residual"]
    assert len(inv["levels"]) == len(levels)
    assert all(all(block.values()) for block in inv["levels"].values())


def test_levels_and_rungs_run_on_the_main_thread(tmp_path, monkeypatch):
    # no pool hides the level job from a profiler on the main thread
    seen = []

    def on_caller(label, original):
        def wrapped(*args):
            seen.append((label, threading.current_thread()
                         is threading.main_thread()))
            return original(*args)
        return wrapped

    monkeypatch.setattr(scenarios, "_level_job",
                        on_caller("level", scenarios._level_job))
    monkeypatch.setattr(scenarios, "flow_map",
                        on_caller("flow", scenarios.flow_map))
    run_scenario(micro_config(cutoff_levels=[2.0, 3.0]), tmp_path / "run")
    convergence_study(ScenarioConfig.from_dict(LINE), tmp_path / "study",
                      rungs=3)
    assert seen == [("flow", True)] * 2 + [("level", True)] * 2 + \
        [("flow", True)] * 3


def test_resolution_mode_osgood_line_breaks_the_comparison_chain(tmp_path):
    # D / epsilon exceeds the cost's saturation value c_infinity, so the
    # comparison bound has no crossing radius
    doc = builtin_config("osgood_line")
    doc["difference_mode"] = "resolution"
    with pytest.raises(ComparisonBoundError, match="inapplicable"):
        run_scenario(ScenarioConfig.from_dict(doc), tmp_path)


def _reference_W_callers(monkeypatch):
    """The name of the function behind each ``reference_W`` call of a run."""
    callers = []

    def counted(pair, _original=scenarios.reference_W):
        callers.append(inspect.currentframe().f_back.f_code.co_name)
        return _original(pair)

    monkeypatch.setattr(scenarios, "reference_W", counted)
    return callers


def _output_bytes(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def test_the_d_plan_decides_the_comparison_chain(monkeypatch, tmp_path):
    # the last D plan's cost under min(r, 1) closes the chain by itself:
    # W is solved only for the W_refine column
    callers = _reference_W_callers(monkeypatch)
    config = micro_config(cutoff_levels=[2.0, 3.0])
    result = run_scenario(config, tmp_path)
    assert result.exit_code == 0
    assert all(block["comparison_chain"]
               for block in result.summary["invariants"]["levels"].values())
    assert callers == ["_refinement_distance"] * config.time_points


def test_the_exact_w_decides_where_the_d_plan_does_not(monkeypatch,
                                                       tmp_path):
    config = micro_config(cutoff_levels=[2.0, 3.0])
    run_scenario(config, tmp_path / "plain")
    callers = _reference_W_callers(monkeypatch)
    monkeypatch.setattr(scenarios, "reference_cost_of", lambda plan: math.inf)
    result = run_scenario(config, tmp_path / "patched")
    # one exact solve per level decides both epsilons, and the chain holds
    assert callers.count("_level_job") == len(config.cutoff_levels)
    assert result.exit_code == 0
    assert _output_bytes(tmp_path / "patched") == \
        _output_bytes(tmp_path / "plain")


def test_the_chain_fails_when_the_exact_w_exceeds_the_bound(monkeypatch,
                                                            tmp_path):
    # the micro run's final pair is at W > 0, over a right side of 0
    callers = _reference_W_callers(monkeypatch)
    monkeypatch.setattr(scenarios, "comparison_bound", lambda *args: 0.0)
    result = run_scenario(micro_config(), tmp_path)
    assert callers.count("_level_job") == 1
    verdicts = result.summary["invariants"]["levels"]["2"]
    assert verdicts.pop("comparison_chain") is False
    assert all(verdicts.values())
    assert result.exit_code == 1


def test_canned_run_certifies_the_first_term(tmp_path):
    # shear_line's unit shear meets the certificate with equality
    result = run_scenario(ScenarioConfig.from_dict(builtin_config(
        "shear_line")), tmp_path)
    assert result.exit_code == 0
    summary = json.loads(open(result.summary_path).read())
    assert summary["invariants"]["levels"]["2"]["first_term"] is True


def test_canned_osgood_disc_differences_hold_no_colocated_atoms(
        tmp_path, monkeypatch):
    # the grid twins of osgood_disc sit within DEDUP_TOL of each other with
    # a third atom between them in lexicographic order
    diffs = []

    def record(*args):
        diffs.append(difference_measure(*args))
        return diffs[-1]

    monkeypatch.setattr(scenarios, "_difference_measure", record)
    result = run_scenario(ScenarioConfig.from_dict(builtin_config(
        "osgood_disc")), tmp_path)
    assert result.exit_code == 0
    assert len(diffs) == 5
    for diff in diffs:
        locs = diff.locations
        gaps = np.max(np.abs(locs[:, None, :] - locs[None, :, :]), axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min(initial=np.inf) > DEDUP_TOL


def test_failed_invariant_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "_RESIDUAL_CEILING", 1e-15)
    result = run_scenario(micro_config(), tmp_path)
    assert result.exit_code == 1
    assert result.summary["invariants"]["weak_residual"] is False
    assert result.summary["weak_residual_value"] > 1e-15


def test_json_report_format(tmp_path):
    result = run_scenario(micro_config(), tmp_path, fmt="json")
    payload = json.loads((tmp_path / "micro_spin_k2.json").read_text())
    assert payload["columns"][:2] == ["t", "D"]
    assert len(payload["rows"]) == 3
    assert result.exit_code == 0
    with pytest.raises(ConfigError, match="format"):
        run_scenario(micro_config(), tmp_path, fmt="yaml")


def test_refinement_study_contracts(tmp_path):
    cfg = ScenarioConfig.from_dict(LINE)
    result = convergence_study(cfg, tmp_path, rungs=3)
    assert result.exit_code == 0 and result.passed
    assert result.resolutions == (8, 16, 32)
    assert len(result.distances) == 2 and len(result.ratios) == 1
    assert result.ratios[0] >= 1.8  # Lipschitz contraction requirement
    assert not result.warning
    table = (tmp_path / "micro_shear_refinement.csv").read_text().splitlines()
    assert table[0] == "rung,resolution,w_refine,ratio"
    assert len(table) == 4
    summary = json.loads(
        (tmp_path / "micro_shear_refinement_summary.json").read_text())
    assert summary["passed"] is True and summary["lipschitz"] is True


def test_an_infinite_ratio_is_null_in_the_study_files(tmp_path,
                                                     monkeypatch):
    # a zero distance on the last rung makes the ratio over it infinite;
    # both files once held the non-standard token Infinity
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    distances = []

    def last_is_zero(diff, _original=scenarios._refinement_distance):
        distances.append(_original(diff) if not distances else 0.0)
        return distances[-1]

    monkeypatch.setattr(scenarios, "_refinement_distance", last_is_zero)
    cfg = ScenarioConfig.from_dict(LINE)
    result = convergence_study(cfg, tmp_path, rungs=3, fmt="json")
    assert result.distances == (distances[0], 0.0) and distances[0] > 0.0
    assert result.ratios == (math.inf,) and result.passed
    table = json.loads((tmp_path / "micro_shear_refinement.json").read_text(),
                       parse_constant=refuse)
    assert [row[3] for row in table["rows"]] == [None, None, None]
    assert [row[2] for row in table["rows"]] == [distances[0], 0.0, None]
    summary = json.loads(
        (tmp_path / "micro_shear_refinement_summary.json").read_text(),
        parse_constant=refuse)
    assert summary["ratios"] == [None]
    assert summary["distances"] == [distances[0], 0.0]


def test_refinement_study_guards(tmp_path):
    cfg = ScenarioConfig.from_dict(LINE)
    with pytest.raises(ConfigError, match="three rungs"):
        convergence_study(cfg, tmp_path, rungs=2)
    atoms = ScenarioConfig.from_dict({
        **LINE, "density": {"kind": "atoms", "atoms": [[[0.5], 1.0]]}})
    with pytest.raises(ConfigError, match="sampled density"):
        convergence_study(atoms, tmp_path, rungs=3)


def test_study_checks_every_rung_before_it_flows(tmp_path, monkeypatch):
    # rotation_ring's sixth rung, resolution 288, and its fifth, 144, are
    # over the atom budget; the first four once flowed before 144 raised
    calls = []
    monkeypatch.setattr(scenarios, "flow_map",
                        lambda *args: calls.append(args))
    config = ScenarioConfig.from_dict(builtin_config("rotation_ring"))
    out = tmp_path / "study"
    with pytest.raises(ConfigError,
                       match="^resolution 144 needs 20736 atoms; budget"):
        convergence_study(config, out, rungs=6)
    assert not calls and not out.exists()


@pytest.mark.parametrize("threads", [0, -3, 2, 2.5, True, "2"],
                         ids=["zero", "negative", "two", "fraction", "bool",
                              "string"])
def test_threads_other_than_one_are_config_errors(tmp_path, threads):
    # runs and studies work on the calling thread, so 1 is the one count
    with pytest.raises(ConfigError, match="threads"):
        run_scenario(micro_config(), tmp_path / "run", threads=threads)
    with pytest.raises(ConfigError, match="threads"):
        convergence_study(ScenarioConfig.from_dict(LINE), tmp_path / "study",
                          rungs=3, threads=threads)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("rungs", [3.5, "4", True])
def test_rung_counts_must_be_integers(tmp_path, rungs):
    # 3.5 and "4" once raised a bare TypeError
    with pytest.raises(ConfigError, match="'rungs'"):
        convergence_study(ScenarioConfig.from_dict(LINE), tmp_path,
                          rungs=rungs)
    assert not os.listdir(tmp_path)


def test_selftest_passes():
    lines = []
    assert selftest(echo=lines.append) == 0
    assert len(lines) >= 5
    assert all(line.startswith("PASS") for line in lines)


# -- command line ------------------------------------------------------------------

def _write_config(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_pass(tmp_path):
    cfg = _write_config(tmp_path, MICRO)
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "invariants: pass" in result.output
    assert (out / "micro_spin_summary.json").exists()


def test_cli_run_seed_override(tmp_path):
    cfg = _write_config(tmp_path, MICRO)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["run", cfg, "--out", str(out), "--seed", "31"])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "micro_spin_summary.json").read_text())
    assert summary["seed"] == 31


@pytest.mark.parametrize("name,quantization,constant", [
    ("osgood_line", "grid", 0.3),
    ("osgood_disc", "random", 1.0),
])
def test_undervalued_modulus_constant_fails_the_first_term(
        tmp_path, name, quantization, constant):
    doc = builtin_config(name)
    doc["quantization"] = quantization
    doc["field"]["modulus_constant"] = constant
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["run", _write_config(tmp_path, doc), "--out", str(out)])
    assert result.exit_code == 1, result.output
    summary = json.loads((out / f"{name}_summary.json").read_text())
    level = summary["invariants"]["levels"]["2"]
    assert level.pop("first_term") is False
    assert all(level.values())


def test_cli_missing_config_is_a_usage_error(tmp_path):
    result = CliRunner().invoke(
        cli_main, ["run", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_cli_bad_config_exits_two_with_record(tmp_path):
    cfg = _write_config(tmp_path, {**MICRO, "banana": 1}, name="broken.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 2
    record = json.loads((out / "broken_error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "banana" in record["message"]


@pytest.mark.parametrize("doc_seed, flags", [(-2, []), (5, ["--seed", "-1"])])
def test_cli_negative_seed_exits_two_with_record(tmp_path, doc_seed, flags):
    # random quantization once handed the seed to numpy, which raised
    cfg = _write_config(tmp_path, {**MICRO, "seed": doc_seed,
                                   "quantization": "random"},
                        name="negative.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main,
                                ["run", cfg, "--out", str(out), *flags])
    assert result.exit_code == 2, result.output
    record = json.loads((out / "negative_error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "'seed'" in record["message"]


@pytest.mark.parametrize("verb", ["run", "converge"])
@pytest.mark.parametrize("count", ["0", "1", "2"])
def test_cli_threads_option_is_a_usage_error(tmp_path, verb, count):
    cfg = _write_config(tmp_path, MICRO, name="idle.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, [verb, cfg, "--out", str(out), "--threads", count])
    assert result.exit_code == 2, result.output
    assert "no such option" in result.output.lower()
    assert "--threads" in result.output
    assert not out.exists()


@pytest.mark.parametrize("key", ["beta", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cli_non_finite_given_parameter_exits_two(tmp_path, key, value):
    # json writes these as NaN and Infinity, which json.load reads back;
    # NaN once reached the quadrature and Infinity the comparison bound
    params = {"beta": 0.5, "delta": 1e-3, "alpha": 0.25, key: value}
    cfg = _write_config(tmp_path, {**MICRO, "parameters": params},
                        name="nonfinite.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    record = json.loads((out / "nonfinite_error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "finite" in record["message"]


def test_cli_mixing_disc_names_j_at_the_floor(tmp_path):
    cfg = _write_config(tmp_path, builtin_config("mixing_disc"),
                        name="mixing.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 3, result.output
    record = json.loads((out / "mixing_error.json").read_text())
    assert record["error"] == "ScheduleError"
    match = re.match(r"J\(1e-280\) = ([0-9.]+) stays below the target "
                     r"([0-9.]+);.*converges", record["message"])
    assert match, record["message"]
    j_floor, target = map(float, match.groups())
    assert j_floor == pytest.approx(1.603, abs=1e-3) and j_floor < target


def test_cli_shear_line_names_an_osgood_integral_too_slow(tmp_path):
    # the linear modulus is Osgood, so J diverges, but J(1e-280) = 645.7
    # stays below level 1e8's target of 6.25e7
    doc = {**builtin_config("shear_line"), "cutoff_levels": [1e8]}
    cfg = _write_config(tmp_path, doc, name="slow.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 3, result.output
    record = json.loads((out / "slow_error.json").read_text())
    assert record["error"] == "ScheduleError"
    assert record["message"] == (
        "J(1e-280) = 645.7 stays below the target 6.25e+07; no delta "
        "reaches the target saturation scale, the reciprocal modulus "
        "integral diverges too slowly")


def test_pinned_shear_line_cuts_off_at_level_2e9(tmp_path):
    # affine growth puts r_zero at (1 + 2e9) e - 1 = 5.4e9; atoms near 0
    # sit on the plateau of both levels
    doc = {**builtin_config("shear_line"), "cutoff_levels": [2.0, 2e9],
           "parameters": {"beta": 0.5, "delta": 1e-3, "alpha": 0.25}}
    cfg = _write_config(tmp_path, doc, name="far.json")
    result = CliRunner().invoke(
        cli_main, ["run", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output


def test_shear_line_at_level_600_stops_at_the_lattice_guard(tmp_path,
                                                            monkeypatch):
    # J of the linear modulus diverges like log(1/delta), so the schedule
    # meets level 600's target near delta = 3.7e-163; the mollifier lattice
    # that delta asks for is finer than 2^-52 of the atom radii
    schedules = []

    def recorded(*args, _original=scenarios.parameter_schedule, **kwargs):
        schedules.append(_original(*args, **kwargs))
        return schedules[-1]

    monkeypatch.setattr(scenarios, "parameter_schedule", recorded)
    doc = {**builtin_config("shear_line"), "cutoff_levels": [600]}
    with pytest.raises(MollifierError, match="too fine"):
        run_scenario(ScenarioConfig.from_dict(doc), str(tmp_path))
    (sched,) = schedules
    assert sched.delta == pytest.approx(3.7e-163, rel=0.05)
    assert sched.j_value == pytest.approx(sched.j_target, rel=1e-12)


def test_the_bound_reads_j_off_the_cost_and_c_off_the_field(monkeypatch,
                                                          tmp_path):
    # on a scheduled run the J of each level's bound is its schedule's J
    # bit for bit, and C is the field's declared constant
    seen = []

    def recorded(field, int_total, int_out, cutoff, cost, alpha,
                 _original=scenarios.costestimate_bound):
        seen.append((field.modulus_constant, cost.j_value))
        return _original(field, int_total, int_out, cutoff, cost, alpha)

    monkeypatch.setattr(scenarios, "costestimate_bound", recorded)
    config = ScenarioConfig.from_dict(
        {**builtin_config("shear_line"), "cutoff_levels": [2.0, 3.0]})
    result = run_scenario(config, str(tmp_path))
    assert result.exit_code == 0
    field = build_field(config.field_kind, config.field_params)
    assert seen == [(field.modulus_constant, level.schedule.j_value)
                    for level in result.levels]


def test_a_pinned_run_computes_each_level_s_j_once(monkeypatch, tmp_path):
    # the level's cost computes J at the pinned delta; the schedule and the
    # bound read it there, so no second quadrature runs
    deltas = []

    def counted(mod, delta, _original=costs._saturation_terms):
        deltas.append(delta)
        return _original(mod, delta)

    monkeypatch.setattr(costs, "_saturation_terms", counted)
    config = ScenarioConfig.from_dict(
        {**builtin_config("osgood_disc"), "cutoff_levels": [2.0, 3.0]})
    result = run_scenario(config, str(tmp_path))
    assert result.exit_code == 0
    assert deltas == [0.05, 0.05]
    for level in result.levels:
        assert level.schedule.j_target == level.schedule.j_value


@pytest.mark.parametrize("patch, key", [
    ({"horizon": "soon"}, "horizon"),
    ({"time_points": [3]}, "time_points"),
    ({"field": {"kind": "linear", "matrix": "identity"}}, "matrix"),
    ({"density": {"kind": "ring", "radius": "wide"}}, "radius"),
])
def test_cli_config_value_of_the_wrong_type_exits_two_with_record(
        tmp_path, patch, key):
    cfg = _write_config(tmp_path, {**LINE, **patch}, name="typed.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    record = json.loads((out / "typed_error.json").read_text())
    assert record["error"] == "ConfigError"
    assert repr(key) in record["message"]


@pytest.mark.parametrize("patch, key", [
    ({"density": {"kind": "atoms", "atoms": [[[0.5]]]}}, "atoms"),
    ({"density": {"kind": "atoms", "atoms": [[[0.5], [1.0, 2.0]]]}}, "atoms"),
    ({"density": {"kind": "atoms", "atoms": [[[[0.5]], 1.0]]}}, "atoms"),
    ({"field": {"kind": "linear", "matrix": [[1.0, 2.0]]}}, "matrix"),
    ({"field": {"kind": "osgood1d", "modulus_constant": -1.0}},
     "modulus_constant"),
    ({"field": {"kind": "osgood_plane", "modulus_constant": -1.0},
      "density": {"kind": "ring"}}, "modulus_constant"),
    ({"field": {"kind": "constant", "velocity": [[0.35, 0.1]]}}, "velocity"),
    ({"field": {"kind": "constant", "velocity": [[0.35]]}}, "velocity"),
])
def test_cli_malformed_config_value_exits_two_with_record(tmp_path, patch,
                                                          key):
    # an atom without its weight, a list for a weight or a location nested
    # too deep, a matrix that is not square, a negative modulus constant, a
    # velocity that is not a vector
    cfg = _write_config(tmp_path, {**LINE, **patch}, name="shape.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    record = json.loads((out / "shape_error.json").read_text())
    assert record["error"] == "ConfigError"
    assert repr(key) in record["message"]


def test_cli_runtime_failure_exits_three_with_record(tmp_path):
    # tolerances this tight stall the step controller into underflow
    doc = {**MICRO, "abs_tol": 1e-300, "rel_tol": 1e-300}
    cfg = _write_config(tmp_path, doc, name="stall.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 3
    record = json.loads((out / "stall_error.json").read_text())
    assert record["error"] == "FlowError"
    assert record["verb"] == "run"


@pytest.mark.parametrize("field, message", [
    ({"kind": "constant", "velocity": [1e300]},
     "initial step underflow at t=0"),
    ({"kind": "linear", "matrix": [[1e300]]}, "initial step underflow at t=0"),
    ({"kind": "linear", "matrix": [[1e296]]},
     r"non-finite stage state at t=2\.6\d*e-295"),
])
def test_cli_speed_past_the_tolerance_scale_exits_three(tmp_path, field,
                                                        message):
    # the first two once raised a ZeroDivisionError: the speed over the
    # tolerance scale overflowed and the first step divided by the zero step
    # that made; the third takes a first step of about 1e-298, its stage
    # sums then overflow, and it once left a RuntimeWarning, an error under
    # this suite's warning filter
    cfg = _write_config(tmp_path, {**LINE, "field": field}, name="fast.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 3, result.output
    record = json.loads((out / "fast_error.json").read_text())
    assert record["error"] == "FlowError"
    assert re.fullmatch(message, record["message"]), record["message"]


@pytest.mark.filterwarnings("error")
def test_cli_run_with_a_lattice_too_fine_exits_three_with_record(tmp_path):
    # at cutoff level 3 the schedule picks alpha near 1e-54, whose lattice
    # index would overflow an integer for atoms at distance about 1
    doc = {**builtin_config("osgood_line"), "cutoff_levels": [3.0]}
    cfg = _write_config(tmp_path, doc, name="fine.json")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli_main, ["run", cfg, "--out", str(out)])
    assert result.exit_code == 3, result.output
    record = json.loads((out / "fine_error.json").read_text())
    assert record["error"] == "MollifierError"
    assert "too fine for atoms as far out as" in record["message"]


def test_cli_converge(tmp_path):
    cfg = _write_config(tmp_path, LINE)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        cli_main, ["converge", cfg, "--ladder", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "study: pass" in result.output
    assert (out / "micro_shear_refinement.csv").exists()


def test_cli_selftest():
    result = CliRunner().invoke(cli_main, ["selftest"])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
