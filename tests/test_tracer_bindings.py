"""The benchmark tracer's bindings still name charflow's functions.

``perfbench/tracing.py`` wraps every ``TARGETS`` entry by name and reads its
work counts from arguments at fixed positions.  A rename or a signature
change there would break only a ``--trace 1`` run; these cases load the
tracer (editing nothing under ``perfbench/``) and check that every target
exists and that each argument a counter reads sits where it reads it.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_PATH = ROOT / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _counter_reads():
    """(index, name) of every ``_arg`` call of each target's counter, in
    ``TARGETS`` order, read from the tracer's source."""
    tree = ast.parse(_PATH.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    reads = []
    for entry in targets.elts:
        counter = entry.elts[4]
        if isinstance(counter, ast.Name):
            counter = functions[counter.id]
        reads.append([(call.args[2].value, call.args[3].value)
                      for call in ast.walk(counter)
                      if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Name)
                      and call.func.id == "_arg"])
    return reads


READS = _counter_reads()


def test_counter_reads_are_found_for_every_target():
    assert len(READS) == len(tracing.TARGETS)
    # the counters that read arguments; a new one joins this list
    read = {target[0]: names for target, names in zip(tracing.TARGETS, READS)
            if names}
    assert read == {
        "fields.evaluate_batch": [(2, "points")],
        "flow.flow_map": [(1, "points"), (2, "t_grid")],
        "costs.ConcaveCost.cost_many": [(1, "radii")],
        "transport.solve_ot": [(0, "pair")],
        "diagnostics.mollify": [(0, "measure")],
        "measures.measure_from_arrays": [(1, "locations")],
    }


@pytest.mark.parametrize("target,reads", zip(tracing.TARGETS, READS),
                         ids=tracing.NAMES)
def test_tracer_target_exists_and_its_counted_arguments_sit_in_place(
        target, reads):
    _, module, cls, attr, _ = target
    owner = importlib.import_module(module)
    if cls is not None:
        function = vars(getattr(owner, cls)).get(attr)
    else:
        function = getattr(owner, attr, None)
    assert callable(function), f"{module}.{cls or ''} has no {attr}"
    params = list(inspect.signature(function).parameters)
    for index, name in reads:
        assert index < len(params) and params[index] == name, \
            f"{attr} takes {params}; the counter reads {name!r} at {index}"
