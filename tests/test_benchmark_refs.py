"""Scenario and push runs match the benchmark's recorded references.

``perfbench/run.py`` refuses a run whose outputs leave ``perfbench/refs``;
these cases run the same operation and check, so a change that moves a
recorded value past its tolerance fails here first.  ``osgood_disc`` sits
closest to its allowance (its ``W_refine`` columns), so it runs at every
bank seed; the other kinds run at seed 1, and so do the two push clouds
(``rotation`` against its closed form, ``osgood_plane`` against its
recorded endpoints).  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

CASES = [("osgood_disc", seed) for seed in workloads.BANK] + [
    (name, 1) for name in workloads.SCENARIO_ORDER if name != "osgood_disc"]


@pytest.fixture(scope="module")
def refs():
    return workloads.WORKLOADS["scenarios"].load_refs()


@pytest.mark.parametrize("name,seed", CASES)
def test_scenario_run_matches_its_reference(refs, tmp_path, name, seed):
    op = workloads.ScenarioOp(name, seed)
    result = op.run(str(tmp_path))
    assert op.check(result, str(tmp_path), refs) == []


@pytest.fixture(scope="module")
def push_refs():
    return workloads.WORKLOADS["push"].load_refs()


@pytest.mark.parametrize("kind,radius,width", workloads.PUSH_CLOUDS)
def test_push_run_matches_its_reference(push_refs, tmp_path, kind, radius,
                                        width):
    op = workloads.PushOp(kind, radius, width, 1)
    frames = op.run(str(tmp_path))
    assert op.check(frames, str(tmp_path), push_refs) == []
