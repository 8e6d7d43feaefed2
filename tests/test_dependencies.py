"""Source guards: the package imports only numpy, click and the standard
library and names no scipy, so no run loads it (a fresh process that
validates configs, pushes atoms, runs every passing canned scenario, a
refinement study and the selftest holds no scipy module, and no
``numpy.ma``); no module imports ``threading``, ``concurrent.futures`` or
``multiprocessing``;
``fields.row_norms`` is its only per-row norm, ``fileio`` alone calls
``atomic_write_text``, ``scenarios`` compares no value with the name of
a field or density kind and declares the config's keys only in
``ScenarioConfig``, ``costs`` builds the one Gauss-Legendre rule and the
one root finder with its one root function, the brute-force transport
route shares no function with the simplex it checks, no module keeps a
private name or an import that nothing uses, every exported function or
class is reached from the package or the acceptance battery, the
absorbing point's mass is read only from a balanced pair, by ``measures``
and ``transport``, and no source names a retired setting: the
modulus-constant table and its lookup, or a step-cap option."""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

ALLOWED = {"numpy", "click"}
ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "charflow").glob("*.py"))


def _imported_packages(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_import_only_the_declared_packages(path):
    outside = {name for name in _imported_packages(path)
               if name not in ALLOWED and name not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_sources_are_found():
    assert len(SOURCES) >= 10


def test_pyproject_declares_only_the_allowed_packages():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
             for spec in project["dependencies"]}
    assert names <= ALLOWED, sorted(names - ALLOWED)


_SCIPY = re.compile(r"scipy", re.IGNORECASE)


def _scipy_names(source):
    """Line numbers of each line that names scipy, in any case, comments
    and strings included."""
    return [lineno for lineno, line in enumerate(source.splitlines(), 1)
            if _SCIPY.search(line)]


def test_scipy_guard_finds_every_mention():
    sample = ("import numpy as np\n"
              "import scipy\n"
              "from scipy.spatial.distance import cdist\n"
              "x = scipy.optimize.brentq(g, 0.0, 1.0)\n"
              "# as SciPy's brentq gives it\n"
              "y = np.sqrt(total)\n")
    assert _scipy_names(sample) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_name_no_scipy(path):
    # distances, co-location groups, roots and the kernel-mass audit are
    # numpy code; a scipy submodule brings scipy.linalg and its own BLAS,
    # 22-52 MB of resident memory, into every run
    lines = _scipy_names(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name}:{lines} name scipy"


FRESH_PROCESS = """
import json, os, sys, tempfile
import numpy as np
from click.testing import CliRunner
from charflow import flow, scenarios
from charflow.cli import main
for name in scenarios.builtin_names():
    scenarios.ScenarioConfig.from_dict(scenarios.builtin_config(name))
density = scenarios.density_from_config(
    {"kind": "ring", "radius": 0.28, "width": 0.04})
points, _ = scenarios.quantize_density(density, 10, "random", 3)
frames = flow.flow_map(scenarios.build_field("osgood_plane", {}), points,
                       np.linspace(0.0, 1.0, 3))
assert frames.shape == (3, 100, 2) and np.all(np.isfinite(frames))
runs = [["run", name] for name in scenarios.builtin_names()
        if name != "mixing_disc"]
runs += [["converge", "drift_line", "--ladder", "3"], ["selftest"]]
with tempfile.TemporaryDirectory() as tmp:
    for verb, *rest in runs:
        args = [verb]
        if rest:
            name, *flags = rest
            config = os.path.join(tmp, name + ".json")
            with open(config, "w", encoding="utf-8") as handle:
                json.dump(scenarios.builtin_config(name), handle)
            args += [config, "--out", os.path.join(tmp, verb + name), *flags]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
masked = sorted(name for name in sys.modules
                if name.split(".")[:2] == ["numpy", "ma"])
assert not masked, masked
"""


def test_runs_studies_and_selftest_load_no_scipy():
    # a subprocess: pytest's filterwarnings has loaded scipy.integrate here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


_CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def _concurrency_imports(source):
    """(line, module) of each import of ``threading``, ``concurrent`` or
    ``multiprocessing``, or of a submodule or a name of one."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        yield from ((node.lineno, module) for module in modules
                    if module.split(".")[0] in _CONCURRENCY)


def test_concurrency_guard_finds_thread_and_process_imports():
    sample = ("import threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "import multiprocessing.pool as pool\n"
              "import os, concurrent.futures\n"
              "from .threading_notes import spawn\n"
              "import weakref\n")
    assert list(_concurrency_imports(sample)) == [
        (1, "threading"), (2, "concurrent.futures"),
        (3, "multiprocessing.pool"), (4, "concurrent.futures")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_import_no_threads_or_processes(path):
    # the simplex's pivot loop holds the GIL, so worker threads overlapped
    # no work; levels and rungs run in plain loops on the calling thread
    found = list(_concurrency_imports(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: {found}"


def _row_norm_calls(source):
    """Line numbers of ``np.linalg.norm`` calls given an axis."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                ast.unparse(node.func).endswith("linalg.norm") and \
                (len(node.args) > 2 or
                 any(k.arg == "axis" for k in node.keywords)):
            yield node.lineno


def test_row_norm_guard_finds_axis_calls():
    sample = ("r = np.linalg.norm(a, axis=1)\n"
              "s = numpy.linalg.norm(a, None, 0)\n"
              "n = np.linalg.norm(matrix, 2)\n")
    assert list(_row_norm_calls(sample)) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_row_norms_have_one_owner(path):
    # fields.row_norms gives numpy's bits several times faster
    lines = list(_row_norm_calls(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}:{lines} use np.linalg.norm with an axis"


def _atomic_write_calls(source):
    """Line numbers of each ``atomic_write_text`` call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                ast.unparse(node.func).split(".")[-1] == "atomic_write_text":
            yield node.lineno


def test_writer_guard_finds_atomic_write_calls():
    sample = ("atomic_write_text(path, text)\n"
              "fileio.atomic_write_text(path, json.dumps(doc) + '\\n')\n"
              "from .fileio import atomic_write_text\n"
              "write_json(path, doc)\n")
    assert list(_atomic_write_calls(sample)) == [1, 2]


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "fileio.py"],
                         ids=lambda p: p.name)
def test_files_are_written_through_fileio(path):
    # summaries, JSON tables and error records share fileio.write_json, so
    # every JSON file charflow writes has one form
    lines = list(_atomic_write_calls(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}:{lines} call atomic_write_text"


def _kind_comparisons(source, kinds):
    """Line numbers of each comparison with a string constant in
    ``kinds``, on either side and at any depth of its operands."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                isinstance(leaf, ast.Constant) and leaf.value in kinds
                for operand in (node.left, *node.comparators)
                for leaf in ast.walk(operand)):
            yield node.lineno


def test_kind_guard_finds_comparisons_with_a_kind():
    sample = ("if kind == 'constant':\n    pass\n"
              "ok = kind in ('ring', 'interval')\n"
              "same = 'linear' != doc.get('kind')\n"
              "mode = kind == 'atoms' or mode == 'grid'\n"
              "block = {'kind': 'ring'}\n")
    kinds = {"constant", "ring", "interval", "linear"}
    assert list(_kind_comparisons(sample, kinds)) == [1, 3, 4]


def test_scenarios_branch_on_no_catalog_kind():
    # a catalog constructor's signature declares its block, and one reader
    # serves every kind, so no kind gets a branch of its own; explicit
    # atoms are named too, for they are a density kind like any other
    from charflow.fields import FIELD_CATALOG
    from charflow.scenarios import _DENSITY_BUILDERS
    source = (ROOT / "src" / "charflow" / "scenarios.py").read_text(
        encoding="utf-8")
    kinds = {*FIELD_CATALOG, *_DENSITY_BUILDERS, "atoms"}
    lines = list(_kind_comparisons(source, kinds))
    assert not lines, f"scenarios.py:{lines} compare with a catalog kind"


def _key_tables(source, keys):
    """Names of the module-level tables that name a string in ``keys`` as
    one of their own entries: a key or a value of a dict, or an element of
    a tuple, list or set.  Entries of a nested table do not count, so a
    table of whole config documents names none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            table = node.value
            if isinstance(table, ast.Dict):
                entries = [*table.keys, *table.values]
            elif isinstance(table, (ast.Tuple, ast.List, ast.Set)):
                entries = table.elts
            else:
                continue
            if any(isinstance(e, ast.Constant) and e.value in keys
                   for e in entries):
                yield from (t.id for t in node.targets
                            if isinstance(t, ast.Name))


def test_key_table_guard_finds_tables_that_name_a_key():
    sample = ("_DEFAULTS = {'horizon': 1.0, 'resolution': 9}\n"
              "_KEYS = ('name', 'field', *_DEFAULTS)\n"
              "_NUMBERS = ['coarse_factor']\n"
              "_TYPES = {'horizon': float}\n"
              "_CANNED = {'ring': {'name': 'ring', 'horizon': 1.0}}\n"
              "COLUMNS = ('t', 'D', 'bound')\n"
              "LABEL = 'horizon'\n"
              "def f():\n    local = ('horizon',)\n")
    keys = {"name", "field", "horizon", "resolution", "coarse_factor"}
    assert list(_key_tables(sample, keys)) == [
        "_DEFAULTS", "_KEYS", "_NUMBERS", "_TYPES"]


def test_config_keys_are_declared_only_by_the_config_class():
    # ScenarioConfig's fields are the document's keys and defaults, and
    # _PARAM_TYPES types its numbers; a second table of keys would drift
    import dataclasses
    from charflow.scenarios import ScenarioConfig
    source = (ROOT / "src" / "charflow" / "scenarios.py").read_text(
        encoding="utf-8")
    keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
    tables = [name for name in _key_tables(source, keys)
              if name != "_PARAM_TYPES"]
    assert not tables, f"scenarios.py tables {tables} name a config key"


def _leggauss_calls(source):
    """(line, node-count argument) of each ``leggauss`` call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                ast.unparse(node.func).split(".")[-1] == "leggauss":
            yield node.lineno, ast.unparse(node.args[0]) if node.args else ""


def test_rule_guard_finds_leggauss_calls():
    sample = ("a = np.polynomial.legendre.leggauss(4)\n"
              "from numpy.polynomial.legendre import leggauss\n"
              "b = leggauss(n)\n")
    assert list(_leggauss_calls(sample)) == [(1, "4"), (3, "n")]


def test_one_gauss_legendre_rule():
    # the cost grid's node table, the cutoff window and every knot-table
    # residual take the 4-node rule that costs.py builds once
    calls = {path.name: [arg for _, arg in _leggauss_calls(
        path.read_text(encoding="utf-8"))] for path in SOURCES}
    assert {name: args for name, args in calls.items() if args} == \
        {"costs.py": ["4"]}


def _root_calls(source):
    """(line, callee) of each call of a ``brentq`` or an ``excess``, bare
    or as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if callee.split(".")[-1] in ("brentq", "excess"):
                yield node.lineno, callee


def test_root_guard_finds_brentq_calls():
    sample = ("r = scipy.optimize.brentq(excess, a, b, args=(g, 1.0))\n"
              "s = brentq(g, 1.0, a, b, xtol=1e-12, rtol=1e-15)\n"
              "t = costs.excess(a, g, 1.0)\n"
              "u = bisect(excess, a, b)\n"
              "w = np.sum(g(a))\n")
    assert list(_root_calls(sample)) == [
        (1, "scipy.optimize.brentq"), (2, "brentq"), (3, "costs.excess")]


def test_every_root_is_found_through_the_one_excess_function():
    # costs.brentq is the one root finder and evaluates costs.excess, the
    # one root function; the cost inverse, the cutoff radius and the
    # schedule's delta call it by name
    calls = [(path.name, callee) for path in SOURCES
             for _, callee in _root_calls(path.read_text(encoding="utf-8"))]
    assert sorted(calls) == [("costs.py", "brentq"), ("costs.py", "excess"),
                             ("diagnostics.py", "brentq"),
                             ("diagnostics.py", "brentq")], calls
    owners = [(path.name, node.name) for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) and
              node.name.lstrip("_") in ("brentq", "excess")]
    assert sorted(owners) == [("costs.py", "brentq"), ("costs.py", "excess")]


def _reachable_functions(source, root):
    """Names of the module-level functions that ``root`` reaches, itself
    included, through the names its body (nested functions too) loads."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    seen, pending = set(), [root]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        pending.extend(node.id for node in ast.walk(functions[name])
                       if isinstance(node, ast.Name) and node.id in functions)
    return seen


def test_reach_guard_follows_calls_and_references():
    sample = ("LIMIT = 3\n"
              "def a(x):\n    return b(x) + LIMIT\n"
              "def b(x):\n    return sorted(x, key=c)\n"
              "def c(x):\n    return x\n"
              "def d(x):\n    def inner():\n        return a(x)\n"
              "    return inner()\n"
              "def e(x):\n    return x\n")
    assert _reachable_functions(sample, "a") == {"a", "b", "c"}
    assert _reachable_functions(sample, "d") == {"a", "b", "c", "d"}
    assert _reachable_functions(sample, "e") == {"e"}


def test_brute_force_route_shares_no_function_with_the_simplex():
    # brute_force_ot is the independent cross-check of solve_ot; shared
    # constants (DIAMOND) and error classes are not functions, so they pass
    source = (ROOT / "src" / "charflow" / "transport.py").read_text(
        encoding="utf-8")
    brute = _reachable_functions(source, "brute_force_ot")
    simplex = _reachable_functions(source, "solve_ot")
    assert {"_brute_assemble", "_brute_ssp"} <= brute
    assert {"_assemble", "_network_simplex"} <= simplex
    assert not brute & simplex, sorted(brute & simplex)


def _leftovers(sources):
    """(module, name) of each module-level ``_private`` name that no code
    outside its own definition loads, in any module of ``sources`` (a dict
    of module name to source), and of each import that its module never
    loads.  ``__init__`` is exempt from the import rule: it re-exports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = {}  # module -> [(name, node)]
    for module, tree in trees.items():
        loads[module] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[module].append((node.id, node))
            elif isinstance(node, ast.Attribute):
                loads[module].append((node.attr, node))
            elif isinstance(node, ast.ImportFrom) and node.level:
                loads[module] += [(alias.name, node) for alias in node.names]
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            own = set(map(id, ast.walk(node)))
            for name in names:
                if name.startswith("_") and not name.startswith("__") and \
                        not any(used == name and id(use) not in own
                                for uses in loads.values()
                                for used, use in uses):
                    yield module, name
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not any(used == bound and isinstance(use, ast.Name)
                               for used, use in loads[module]):
                        yield module, bound


def test_leftover_guard_finds_unused_private_names_and_imports():
    sample = {
        "__init__": "from .a import helper\n",
        "a": ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from .b import _shared, _imported_only\n"
              "_TOL = 1e-9\n"
              "_SPARE = 2.0\n"
              "def _entry_label(index, count):\n"
              "    return -1 if index >= count else index\n"
              "def _recurse(k):\n"
              "    return _recurse(k - 1) if k else 0\n"
              "def helper(x):\n"
              "    return np.abs(x) < _TOL and _shared(x)\n"),
        "b": ("def _shared(x):\n    return x\n"
              "def _imported_only(x):\n    return x\n"
              "def _reached_as_attribute(x):\n    return x\n"),
        "c": "from . import b\ny = b._reached_as_attribute(1)\n",
    }
    assert sorted(_leftovers(sample)) == [
        ("a", "_SPARE"), ("a", "_entry_label"), ("a", "_imported_only"),
        ("a", "_recurse"), ("a", "math")]


def test_package_keeps_no_unused_private_name_or_import():
    leftovers = sorted(_leftovers({path.stem: path.read_text(encoding="utf-8")
                                   for path in SOURCES}))
    assert not leftovers, leftovers


def _unreached(exports, sources):
    """Each name of ``exports`` that no ``Name`` or ``Attribute`` node of
    ``sources`` (source texts) uses; an import or a definition is no use."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(set(exports) - used)


def test_export_guard_finds_names_nothing_uses():
    sources = [
        "from .b import spare\n"
        "def helper(x):\n    return x\n"
        "def spare(x):\n    return helper(x)\n",
        "from . import a\nclass Kind:\n    pass\ny = a.Other()\n",
    ]
    assert _unreached(["helper", "spare", "Kind", "Other"], sources) == \
        ["Kind", "spare"]


def test_every_exported_function_and_class_is_reached():
    """Each function or class in ``charflow.__all__`` is used by another
    module of the package or by the acceptance battery, not only exported
    and unit-tested."""
    import charflow
    exports = [name for name in charflow.__all__
               if inspect.isfunction(getattr(charflow, name))
               or inspect.isclass(getattr(charflow, name))]
    sources = [path.read_text(encoding="utf-8") for path in SOURCES
               if path.name != "__init__.py"]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8"))
    unreached = _unreached(exports, sources)
    assert not unreached, unreached


_PAIR_RESERVOIRS = {"mu_reservoir", "nu_reservoir"}


def _reservoir_names(source):
    """(line, name) of each line that holds ``reservoir_weight``, comments
    included, and of each read of a ``mu_reservoir`` or ``nu_reservoir``
    attribute."""
    for lineno, line in enumerate(source.splitlines(), 1):
        if "reservoir_weight" in line:
            yield lineno, "reservoir_weight"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _PAIR_RESERVOIRS:
            yield node.lineno, node.attr


def test_reservoir_guard_finds_measure_reservoirs_and_pair_reads():
    sample = ("pair = BalancedPair(mu, nu, mu_reservoir=r)\n"
              "r = pair.mu_reservoir + other.nu_reservoir\n"
              "w = m.reservoir_weight\n"
              "# a reservoir_weight in a comment\n"
              "reservoir = 0.0\n")
    assert sorted(_reservoir_names(sample)) == [
        (2, "mu_reservoir"), (2, "nu_reservoir"),
        (3, "reservoir_weight"), (4, "reservoir_weight")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_absorbing_point_belongs_to_the_balanced_pair(path):
    # a signed measure is atoms on R^n alone; the pair that balances its
    # Jordan parts holds the reservoirs, and only its own module and the
    # transport assembly read them
    allowed = (_PAIR_RESERVOIRS if path.name in ("measures.py", "transport.py")
               else set())
    found = [(line, name) for line, name
             in _reservoir_names(path.read_text(encoding="utf-8"))
             if name not in allowed]
    assert not found, f"{path.name}: {found}"


_RETIRED_SETTINGS = re.compile(
    r"\b(modulus_constants|modulus_constant_for|_declared|max_steps)\b")


def _retired_settings(source):
    """(line, name) of each whole-word use of a retired setting's name,
    comments and strings included."""
    for lineno, line in enumerate(source.splitlines(), 1):
        for match in _RETIRED_SETTINGS.finditer(line):
            yield lineno, match.group(1)


def test_settings_guard_finds_the_retired_names():
    sample = ("spec = VectorFieldSpec(modulus_constants=((inf, 1.0),))\n"
              "c = spec.modulus_constant_for(2.0)\n"
              "# _declared(c) and FlowOptions(max_steps=3)\n"
              "c = spec.modulus_constant  # declared once\n"
              "steps = _MAX_STEPS\n")
    assert list(_retired_settings(sample)) == [
        (1, "modulus_constants"), (2, "modulus_constant_for"),
        (3, "_declared"), (3, "max_steps")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_settings_no_caller_varies_are_constants(path):
    # a field declares one modulus constant, and the stepper's step cap is
    # the module constant _MAX_STEPS
    found = list(_retired_settings(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: {found}"
