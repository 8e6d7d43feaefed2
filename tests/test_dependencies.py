"""Source guards: the package imports only numpy, scipy, click and the
standard library, and of scipy only the top-level package, whose
submodules load on first use, so a fresh process that imports charflow,
validates configs and pushes atoms loads none of them;
``fields.row_norms`` is its only per-row norm, ``fileio`` alone calls
``atomic_write_text``, ``scipy.integrate`` serves only the mollifier's
kernel-mass audit, ``costs`` builds the one Gauss-Legendre rule and the
one brentq root function, the brute-force transport route shares no
function with the simplex it checks, the simplex builds no
``scipy.sparse`` graph, and no module keeps a private name or an import
that nothing uses."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ALLOWED = {"numpy", "scipy", "click"}
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


def _scipy_submodule_imports(source):
    """Line numbers of each import that names a scipy submodule or pulls a
    name out of scipy: all but a bare ``import scipy``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.") for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "scipy" or module.startswith("scipy."):
                yield node.lineno


def test_scipy_import_guard_finds_submodule_imports():
    sample = ("import scipy\n"
              "import scipy.optimize\n"
              "from scipy.spatial.distance import cdist\n"
              "from scipy import integrate\n"
              "import numpy as np, scipy.sparse.csgraph\n"
              "def f():\n    from scipy.optimize import brentq\n"
              "x = scipy.optimize.brentq(g, 0.0, 1.0)\n")
    assert list(_scipy_submodule_imports(sample)) == [2, 3, 4, 5, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_import_only_the_scipy_package(path):
    # scipy loads a submodule on first attribute access; importing one, or
    # a name from one, loads it (scipy.optimize alone about 550 modules)
    # into every process, flow-only ones too
    lines = list(_scipy_submodule_imports(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}:{lines} import a scipy submodule"


FRESH_PROCESS = """
import sys
import numpy as np
import charflow
from charflow import flow, scenarios
for name in scenarios.builtin_names():
    scenarios.ScenarioConfig.from_dict(scenarios.builtin_config(name))
density = scenarios.density_from_config(
    {"kind": "ring", "radius": 0.28, "width": 0.04})
points, _ = scenarios.quantize_density(density, 10, "random", 3)
frames = flow.flow_map(scenarios.build_field("osgood_plane", {}), points,
                       np.linspace(0.0, 1.0, 3))
assert frames.shape == (3, 100, 2) and np.all(np.isfinite(frames))
loaded = sorted(name for name in ("scipy.optimize", "scipy.integrate",
                                  "scipy.sparse", "scipy.spatial",
                                  "scipy.linalg") if name in sys.modules)
assert not loaded, loaded
import scipy
assert callable(scipy.optimize.brentq)
"""


def test_flow_and_config_validation_load_no_scipy_submodule():
    # a subprocess: pytest's filterwarnings has loaded scipy.integrate here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


def _quadrature_uses(source):
    """(kind, line) of each ``scipy.integrate`` import ("import") and each
    ``scipy.integrate`` attribute or ``quad`` call ("use")."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.integrate") for a in node.names):
                yield "import", node.lineno
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("scipy.integrate"):
                yield "import", node.lineno
        elif isinstance(node, ast.Attribute) and \
                ast.unparse(node).startswith("scipy.integrate."):
            yield "use", node.lineno
        elif isinstance(node, ast.Call) and \
                ast.unparse(node.func).split(".")[-1] == "quad":
            yield "use", node.lineno


def test_quadrature_guard_finds_integrate_uses():
    sample = ("import scipy.integrate\n"
              "from scipy.integrate import quad\n"
              "v, _ = quad(f, 0.0, 1.0)\n"
              "w, _ = scipy.integrate.quad_vec(f, 0.0, 1.0)\n"
              "x = np.sum(f(s))\n")
    assert sorted(set(_quadrature_uses(sample))) == [
        ("import", 1), ("import", 2), ("use", 3), ("use", 4)]


def _mollifier_audit_lines(source):
    """Line numbers of ``MollifierSpec.__post_init__``, the kernel-mass
    audit, or an empty range where the source has none."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "MollifierSpec":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        item.name == "__post_init__":
                    return range(item.lineno, item.end_lineno + 1)
    return range(0)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_quadrature_has_one_owner(path):
    # the integrals run on costs.gauss_legendre's fixed rule; only the
    # kernel-mass audit of MollifierSpec keeps quad, as an independent check
    source = path.read_text(encoding="utf-8")
    audit = _mollifier_audit_lines(source)
    found = set(_quadrature_uses(source))
    stray = sorted(line for kind, line in found
                   if kind == "use" and line not in audit)
    assert not stray, f"{path.name}:{stray} use scipy.integrate"
    imports = sorted(line for kind, line in found if kind == "import")
    assert not imports or any(kind == "use" for kind, _ in found), \
        f"{path.name}:{imports} import scipy.integrate without the audit"


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


def _brentq_calls(source):
    """(line, callable, passes ``args``) of each ``brentq`` call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and \
                ast.unparse(node.func).split(".")[-1] == "brentq":
            func = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "f"), None)
            yield (node.lineno, ast.unparse(func) if func else "",
                   any(k.arg == "args" for k in node.keywords))


def test_root_guard_finds_brentq_calls():
    sample = ("r = scipy.optimize.brentq(excess, a, b, args=(g, 1.0))\n"
              "s = brentq(lambda x: g(x) - 1.0, a, b)\n"
              "t = optimize.brentq(self.cost, a, b, args=(v,))\n"
              "u = brentq(f=excess, a=a, b=b)\n"
              "w = np.sum(excess(a, g, 1.0))\n")
    assert list(_brentq_calls(sample)) == [
        (1, "excess", True), (2, "lambda x: g(x) - 1.0", False),
        (3, "self.cost", True), (4, "excess", False)]


def test_every_root_is_found_through_the_one_excess_function():
    # brentq keeps its callable in a closure that refers to itself: a
    # lambda or bound method there keeps what it holds (a modulus and its
    # node table, a cost) alive until the cyclic collector runs, while
    # objects passed through ``args`` are freed with the call
    calls = [(path.name, line, func, args) for path in SOURCES
             for line, func, args in _brentq_calls(
                 path.read_text(encoding="utf-8"))]
    assert len(calls) == 3, calls  # cost_inverse, the cutoff, the schedule
    stray = [call for call in calls if call[2:] != ("excess", True)]
    assert not stray, stray
    owners = [path.name for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) and
              node.name.lstrip("_") == "excess"]
    assert owners == ["costs.py"]


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


def _sparse_uses(source):
    """Line numbers of each import from ``scipy.sparse`` and each
    ``scipy.sparse`` attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.sparse") for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.sparse") or (
                    module == "scipy" and
                    any(a.name == "sparse" for a in node.names)):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and \
                ast.unparse(node).startswith("scipy.sparse."):
            yield node.lineno


def test_sparse_guard_finds_imports_and_uses():
    sample = ("from scipy.sparse import csr_array\n"
              "from scipy.sparse.csgraph import breadth_first_order\n"
              "import scipy.sparse.csgraph as csgraph\n"
              "from scipy import sparse\n"
              "import scipy\n"
              "g = scipy.sparse.csgraph.connected_components(a)\n"
              "from scipy.spatial.distance import cdist\n")
    assert sorted(set(_sparse_uses(sample))) == [1, 2, 3, 4, 6]


def test_simplex_builds_no_sparse_graph():
    # the greedy start hands the simplex its spanning tree as parent
    # pointers, so no basis graph is built, spliced or searched
    source = (ROOT / "src" / "charflow" / "transport.py").read_text(
        encoding="utf-8")
    lines = sorted(set(_sparse_uses(source)))
    assert not lines, f"transport.py:{lines} use scipy.sparse"


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
