"""Source guards: the package imports only numpy, scipy, click and the
standard library, ``fields.row_norms`` is its only per-row norm,
``scipy.integrate`` serves only the mollifier's kernel-mass audit,
``costs`` builds the one Gauss-Legendre rule and the one brentq root
function, the brute-force transport route shares no function with the
simplex it checks, and the simplex builds no ``scipy.sparse`` graph."""

import ast
import pathlib
import re
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
