"""Source hygiene: every import in src/rbfadapt is read, every
module-level private name is referenced somewhere in src/rbfadapt, and so
is every public module-level function, class and constant, unless the
benchmark's tracer names it (bench/spans.py's SPANS and PINNED).  No
module imports another module's private name, and no two functions draw
from the same random stream of the run's seed.  A numerical failure has
one type, ArithmeticError: only assembly.solve_least_squares meets
numpy's LinAlgError (or calls into numpy.linalg, but for norm), and only
the functions that handle a failure catch ArithmeticError.  Every
refusal on the path that builds a run's spec names its field first.

Tests may reach any name, but they do not keep one alive: a helper or a
public function that only tests call is dead code.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "rbfadapt").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _traced(tree) -> set:
    """The "module.function" names a spans module lists in SPANS and PINNED."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("SPANS", "PINNED") for t in node.targets):
            listed = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            out.update(item.value for item in listed)
    return out


TRACED = _traced(ast.parse((ROOT / "bench" / "spans.py").read_text()))


def _read_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported(tree) -> list:
    """(bound name, line) of every import outside __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
    return out


def _definitions(tree, variables: bool = True) -> list:
    """(name, line) of each function and class the module body defines,
    and of each variable when variables."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif variables and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def _private_definitions(tree) -> list:
    """(name, line) of each private function, class or variable the module body defines."""
    return [(name, line) for name, line in _definitions(tree) if name.startswith("_") and not name.endswith("__")]


def _public_definitions(tree, variables: bool = False) -> list:
    """(name, line) of each public function or class the module body
    defines, and of each public variable when variables."""
    return [(name, line) for name, line in _definitions(tree, variables) if not name.startswith("_")]


def _private_imports(tree) -> list:
    """(name, line) of each private name imported from a module of the package."""
    return [
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("rbfadapt"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def _references(tree) -> set:
    """Names read, attributes read and names imported from a module."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_read(name):
    tree = TREES[name]
    read = _read_names(tree)
    assert [(bound, line) for bound, line in _imported(tree) if bound not in read] == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_name_is_referenced(name):
    # a definition is not a reference: a def or class statement binds no
    # Name node, and an assignment's target is stored, not read
    referenced = set().union(*(_references(tree) for tree in TREES.values()))
    assert [(n, line) for n, line in _private_definitions(TREES[name]) if n not in referenced] == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_module_imports_another_modules_private_name(name):
    # a name one module shares with another is public
    assert _private_imports(TREES[name]) == []


def _unused_public(name: str, variables: bool) -> list:
    referenced = set().union(*(_references(tree) for tree in TREES.values()))
    module = name.removesuffix(".py")
    public = _public_definitions(TREES[name], variables)
    return [(n, line) for n, line in public if n not in referenced and f"{module}.{n}" not in TRACED]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_public_function_and_class_is_used_or_traced(name):
    assert _unused_public(name, variables=False) == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_public_constant_is_read_or_traced(name):
    # an alias kept for the tracer alone (cli_io.compare_to_exact) is traced
    functions_and_classes = _public_definitions(TREES[name])
    assert [d for d in _unused_public(name, variables=True) if d not in functions_and_classes] == []


def test_the_checks_see_unused_code():
    tree = ast.parse(
        "import os\nfrom math import pi as _pi\n_LIMIT = 3\nLIMIT = 4\n"
        "def _helper():\n    return _LIMIT\ndef helper():\n    pass\nclass Used:\n    pass\nUsed()\n"
    )
    assert [bound for bound, _ in _imported(tree) if bound not in _read_names(tree)] == ["os", "_pi"]
    assert [n for n, _ in _private_definitions(tree) if n not in _references(tree)] == ["_helper"]
    assert [n for n, _ in _public_definitions(tree) if n not in _references(tree)] == ["helper"]
    unread = [n for n, _ in _public_definitions(tree, variables=True) if n not in _references(tree)]
    assert unread == ["LIMIT", "helper"]
    shared = ast.parse("from . import __version__\nfrom .assembly import _chunks, fill\nfrom rbfadapt.rbf import _gauss\n")
    assert [n for n, _ in _private_imports(shared)] == ["_chunks", "_gauss"]
    spans = ast.parse('SPANS = {"drivers.run": None}\nPINNED = ("blas.pin",)\nOTHER = ("x.y",)\n')
    assert _traced(spans) == {"drivers.run", "blas.pin"}


def _seed_sequences(tree, module: str) -> list:
    """(leading spawn key, "module.function", line) of each SeedSequence
    call in tree: the key None for a keyless root, and "?" for a spawn_key
    that is not a tuple literal led by an integer."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) == "SeedSequence":
                keys = [kw.value for kw in child.keywords if kw.arg == "spawn_key"]
                lead = None
                if keys:
                    first = keys[0].elts[0] if isinstance(keys[0], ast.Tuple) and keys[0].elts else None
                    lead = first.value if isinstance(first, ast.Constant) and isinstance(first.value, int) else "?"
                out.append((lead, f"{module}.{function}", child.lineno))
            visit(child, function)

    visit(tree, None)
    return out


def _stream_owners(trees: dict) -> dict:
    """Each leading spawn key (None for the keyless root) -> the set of
    "module.function" names that build it, and of "module:line" call
    sites for the root."""
    owners = {}
    for name, tree in trees.items():
        for lead, function, line in _seed_sequences(tree, name.removesuffix(".py")):
            owners.setdefault(lead, set()).add(function if lead is not None else f"{function}:{line}")
    return owners


def test_every_random_stream_has_one_owner():
    # one seed drives every draw of a run, so the streams stay independent
    # only while no two functions share a leading spawn key (see drivers)
    owners = _stream_owners(TREES)
    assert "?" not in owners, owners.get("?")
    assert {lead: sorted(names) for lead, names in owners.items() if len(names) > 1} == {}
    # the table of the drivers module docstring
    assert {lead: names for lead, names in owners.items() if lead is not None} == {
        1: {"bayesopt._initial_design"},
        2: {"drivers.forward_objective"},
        3: {"drivers.solve_advection_timeblocks"},
        9: {"cli_io._forward_spec"},
    }


def test_the_stream_check_sees_a_shared_key():
    trees = {
        "a.py": ast.parse(
            "import numpy as np\n"
            "def draw(seed, i):\n    return np.random.SeedSequence(entropy=seed, spawn_key=(2, i))\n"
            "def root(seed):\n    return np.random.SeedSequence(entropy=seed)\n"
        ),
        "b.py": ast.parse(
            "from numpy.random import SeedSequence\n"
            "def sensors(seed):\n    def inner():\n        return SeedSequence(seed, spawn_key=(2,))\n    return inner\n"
            "def other(seed, key):\n    return SeedSequence(seed), SeedSequence(seed, spawn_key=key)\n"
        ),
    }
    owners = _stream_owners(trees)
    assert owners[2] == {"a.draw", "b.sensors"}
    assert owners[None] == {"a.root:5", "b.other:7"}
    assert owners["?"] == {"b.other"}


def _scoped(tree, module: str) -> list:
    """(node, scope) of every node in tree: the scope is "module", or
    "module.Class.function" for the innermost def or class around it."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            out.append((child, inner))
            visit(child, inner)

    visit(tree, module)
    return out


def _linalg_sites(tree, module: str) -> set:
    """The scopes that name LinAlgError or reach a numpy.linalg function
    other than norm (np.linalg.f, or imported from numpy.linalg)."""
    sites = set()
    for node, scope in _scoped(tree, module):
        if isinstance(node, ast.Name):
            names = [node.id] if node.id == "LinAlgError" else []
        elif isinstance(node, ast.Attribute):
            base = node.value
            in_linalg = isinstance(base, ast.Attribute) and base.attr == "linalg"
            in_numpy = in_linalg and getattr(base.value, "id", None) in ("np", "numpy")
            names = [node.attr] if in_numpy or node.attr == "LinAlgError" else []
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names = [alias.name for alias in node.names]
        else:
            names = []
        if any(name != "norm" for name in names):
            sites.add(scope)
    return sites


def _arithmetic_handlers(tree, module: str) -> set:
    """The scopes of the except clauses that catch ArithmeticError."""
    sites = set()
    for node, scope in _scoped(tree, module):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", None) == "ArithmeticError" for t in caught):
                sites.add(scope)
    return sites


def _package_sites(find) -> set:
    return set().union(*(find(tree, name.removesuffix(".py")) for name, tree in TREES.items()))


def test_only_the_least_squares_solve_meets_linalg_errors():
    # it turns a LinAlgError into the package's one failure type
    assert _package_sites(_linalg_sites) - {"assembly.solve_least_squares"} == set()


def test_arithmetic_errors_are_caught_only_where_a_failure_is_handled():
    # the search records a failed evaluation, the likelihood scores a
    # covariance that does not factor, the march names the failed block,
    # and the command line exits 3
    handlers = {"bayesopt.optimize", "bayesopt._NegativeLogMarginal._value", "drivers._solve_block", "cli_io.main"}
    assert _package_sites(_arithmetic_handlers) - handlers == set()


def test_the_failure_checks_see_stray_sites():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "def solve(a, b):\n    try:\n        return np.linalg.lstsq(a, b)\n"
        "    except np.linalg.LinAlgError:\n        raise ArithmeticError\n"
        "def size(v):\n    return np.linalg.norm(v)\n"
        "def fail():\n    raise LinAlgError\n"
        "class Search:\n    def step(self):\n        try:\n            pass\n"
        "        except (ValueError, ArithmeticError):\n            pass\n"
        "def other():\n    try:\n        pass\n    except ValueError:\n        pass\n"
    )
    assert _linalg_sites(tree, "m") == {"m", "m.solve", "m.fail"}
    assert _arithmetic_handlers(tree, "m") == {"m.Search.step"}


# the functions a spec's construction runs; cli_io._built reads the text
# before a refusal's first colon to decide whether to put a section in front
SPEC_CHECKS = {
    "drivers.ForwardRunSpec.__post_init__",
    "drivers.TimeBlockSpec.__post_init__",
    "sampling.BaselineConfig.__post_init__",
    "drivers.hyperparam_names",
    "drivers.check_baseline",
    "drivers.check_curriculum",
    "sampling.check_grid_count",
    "drivers._check_signs",
    "drivers._check_inside",
    "drivers._check_stretch",
    "problems.PdeProblem.boundary_points",
}
# "field: " at the start of a message, each formatted value read as {}
_FIELD_FIRST = re.compile(r"[\w.{}]+: ")


def _message_start(node) -> str:
    """The leading text of a message expression, each formatted value
    written {}; empty when it does not start with a string."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _message_start(node.left)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ""


def _unnamed_refusals(tree, module: str, scopes) -> list:
    """(scope, line) of each raise ValueError(message) inside scopes whose
    message does not start with "field: "."""
    out = []
    for node, scope in _scoped(tree, module):
        if scope in scopes and isinstance(node, ast.Raise):
            args = node.exc.args if isinstance(node.exc, ast.Call) else []
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(raised, "id", None) == "ValueError" and not (args and _FIELD_FIRST.match(_message_start(args[0]))):
                out.append((scope, node.lineno))
    return out


def test_spec_refusals_name_their_field_first():
    scopes = {scope for name, tree in TREES.items() for _, scope in _scoped(tree, name.removesuffix(".py"))}
    assert SPEC_CHECKS - scopes == set()
    assert [site for name, tree in TREES.items()
            for site in _unnamed_refusals(tree, name.removesuffix(".py"), SPEC_CHECKS)] == []


def test_the_refusal_check_sees_unnamed_messages():
    tree = ast.parse(
        "def check(n, key):\n"
        "    if n < 0:\n        raise ValueError(f'n: must be nonnegative, got {n}')\n"
        "    if n > 9:\n        raise ValueError(f'{key}.n: ' + 'too big')\n"
        "    if n == 3:\n        raise ValueError('n must not be 3')\n"
        "    if n == 4:\n        raise ValueError(f'the count {n}: four')\n"
        "    if n == 5:\n        raise ValueError(key)\n"
        "    if n == 6:\n        raise ValueError\n"
        "    raise TypeError('not a refusal')\n"
        "class Spec:\n    def __post_init__(self):\n        raise ValueError('only 1D and 2D layouts exist')\n"
        "def other():\n    raise ValueError('unchecked')\n"
    )
    assert _unnamed_refusals(tree, "m", {"m.check", "m.Spec.__post_init__"}) == [
        ("m.check", 7), ("m.check", 9), ("m.check", 11), ("m.check", 13), ("m.Spec.__post_init__", 17)
    ]
