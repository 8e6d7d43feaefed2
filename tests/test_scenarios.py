"""Scenario configs, quantization, end-to-end runs, and the CLI."""

import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import ComparisonBoundError, ConfigError
from charflow.cli import main as cli_main
from charflow.scenarios import (ScenarioConfig, builtin_config, builtin_names,
                                build_field, convergence_study,
                                density_from_config, load_config,
                                quantize_density, run_scenario, selftest)
from charflow.scenarios import _SNAP_GRAIN, _snap_unit_weights

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
    ({"name": None}, "required"),
    ({"horizon": None}, "required"),
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
    ({"cutoff_levels": 3.0}, "list of radii"),
    ({"parameters": {"beta": 1.0}}, "exactly beta, delta, alpha"),
    ({"parameters": {"beta": -1.0, "delta": 0.1, "alpha": 0.5}}, "positive"),
    ({"parameters": {"beta": 1.0, "delta": 0.1, "alpha": 1.5}}, "(0, 1)"),
    ({"abs_tol": 0.0}, "tolerances"),
    ({"coarse_factor": 1.0}, "coarse_factor"),
    ({"cells_per_alpha": 2}, "at least 4"),
    ({"weak_tol": 0.0}, "weak_tol"),
    ({"seed": None}, "seed"),
    ({"banana": 1}, "unknown config key"),
])
def test_config_rejections(patch, needle):
    doc = {**MICRO, **patch}
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ConfigError, match=needle):
        ScenarioConfig.from_dict(doc)


def test_resolution_differencing_needs_a_density():
    doc = {**MICRO, "difference_mode": "resolution",
           "density": {"kind": "atoms", "atoms": [[[0.0, 0.0], 1.0]]}}
    with pytest.raises(ConfigError, match="sampled density"):
        ScenarioConfig.from_dict(doc)


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
    ({"kind": "atoms"}, "no density"),
    ({"kind": "gaussian", "spread": -0.1}, "positive"),
    ({"kind": "gaussian", "sigma": 0.1}, "unknown gaussian"),
    ({"kind": "interval", "low": 1.0, "high": 0.0}, "low < high"),
    ({"kind": "ring", "radius": 0.0}, "positive"),
    ({"kind": "two_bumps", "centers": [[0.0]]}, "exactly two"),
])
def test_density_rejections(doc, needle):
    with pytest.raises(ConfigError, match=needle):
        density_from_config(doc)


def test_build_field_guards():
    with pytest.raises(ConfigError, match="unknown field kind"):
        build_field("vortex", {})
    with pytest.raises(ConfigError, match="needs parameter"):
        build_field("linear", {})
    with pytest.raises(ConfigError, match="unknown rotation"):
        build_field("rotation", {"speed": 2.0})
    assert build_field("constant", {"velocity": [0.5, 0.0]}).dimension == 2
    assert build_field("osgood1d", {"modulus_constant": 5.0}).dimension == 1


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
    run_scenario(micro_config(), out_c, threads=3)
    for name in ("micro_spin_k2.csv", "micro_spin_summary.json"):
        blob = (out_a / name).read_bytes()
        assert (out_b / name).read_bytes() == blob
        assert (out_c / name).read_bytes() == blob


@pytest.mark.parametrize("name,levels", [
    ("shear_line", [2.0, 3.0]),
    # level 3 of rotation_ring aborts like osgood_line below
    ("rotation_ring", [2.0]),
])
def test_resolution_mode_passes_and_is_thread_stable(tmp_path, name, levels):
    doc = builtin_config(name)
    doc["difference_mode"] = "resolution"
    doc["cutoff_levels"] = levels
    config = ScenarioConfig.from_dict(doc)
    one = run_scenario(config, tmp_path / "one")
    two = run_scenario(config, tmp_path / "two", threads=2)
    assert one.exit_code == 0
    inv = one.summary["invariants"]
    assert inv["mass_zero"] and inv["weak_residual"]
    assert len(inv["levels"]) == len(levels)
    assert all(all(block.values()) for block in inv["levels"].values())
    for path in (one.summary_path, *one.report_paths.values()):
        name_only = os.path.basename(path)
        assert ((tmp_path / "two" / name_only).read_bytes()
                == (tmp_path / "one" / name_only).read_bytes())
    assert two.exit_code == 0


def test_resolution_mode_osgood_line_breaks_the_comparison_chain(tmp_path):
    # D / epsilon exceeds the cost's saturation value c_infinity, so the
    # comparison bound has no crossing radius
    doc = builtin_config("osgood_line")
    doc["difference_mode"] = "resolution"
    with pytest.raises(ComparisonBoundError, match="inapplicable"):
        run_scenario(ScenarioConfig.from_dict(doc), tmp_path)


def test_canned_run_certifies_the_first_term(tmp_path):
    # shear_line's unit shear meets the certificate with equality
    result = run_scenario(ScenarioConfig.from_dict(builtin_config(
        "shear_line")), tmp_path)
    assert result.exit_code == 0
    summary = json.loads(open(result.summary_path).read())
    assert summary["invariants"]["levels"]["2"]["first_term"] is True


def test_failed_invariant_exits_one(tmp_path):
    result = run_scenario(micro_config(weak_tol=1e-15), tmp_path)
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


def test_refinement_study_guards(tmp_path):
    cfg = ScenarioConfig.from_dict(LINE)
    with pytest.raises(ConfigError, match="three rungs"):
        convergence_study(cfg, tmp_path, rungs=2)
    atoms = ScenarioConfig.from_dict({
        **LINE, "density": {"kind": "atoms", "atoms": [[[0.5], 1.0]]}})
    with pytest.raises(ConfigError, match="sampled density"):
        convergence_study(atoms, tmp_path, rungs=3)


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
