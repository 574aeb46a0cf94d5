"""Rules every module under ``src/maxmix`` keeps, read from its syntax tree.

The package's certificates are checks that raise, never ``assert``:
``python -O`` strips ``assert`` statements, and with them any certificate
written as one; an ``assert`` that fails otherwise escapes the CLI as a
traceback instead of exit 3.

numpy is imported inside the functions that sample, never when a module
loads, so that no command that skips the Monte Carlo oracle pays its
start-up time and memory.  An ``if TYPE_CHECKING:`` block does not run and
may import it for annotations.

Every ``NamedTuple`` record defines ``__repr__``: the generated one writes a
field with ``repr``, and ``Fraction.__repr__`` raises past the interpreter's
digit limit.  No ``NamedTuple`` record, nor any class derived from one in the
same module, defines ``__new__`` or ``_make``: a record holds what its
producer computed, and a check or conversion of its inputs belongs to the
function that takes them.

A ``bool`` is an ``int`` to Python, and refusing one is written twice only:
``isinstance(..., bool)`` appears in ``as_rational``, for values, and in
``_check_count``, for counts, orders and seeds; every other integer argument
goes through ``_check_count``.

Every Hypothesis test under ``tests`` carries a ``@seed``, so the suite draws
the same examples on every run.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "maxmix"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def _imports_at_load(nodes):
    """The import statements among nodes and below them that run when the module loads."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _imports_at_load(node.orelse)  # the body never runs
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _imports_at_load(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in _imports_at_load(tree.body):
        names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    assert not lines, f"{path.name} imports numpy when it loads, at lines {lines}"


def _defines(cls: ast.ClassDef, name: str) -> bool:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return True
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return True
    return False


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_named_tuple_records_define_repr(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(ast.unparse(base).split(".")[-1] == "NamedTuple" for base in node.bases)
               and not _defines(node, "__repr__")]
    assert not missing, f"{path.name}: NamedTuple classes without __repr__: {missing}"


def _named_tuple_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Classes deriving from ``NamedTuple``, directly or through a class of the module."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    names = {"NamedTuple"}
    grew = True
    while grew:
        grew = False
        for node in classes:
            if node.name not in names and any(
                    ast.unparse(base).split(".")[-1] in names for base in node.bases):
                names.add(node.name)
                grew = True
    return [node for node in classes if node.name in names]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_named_tuple_records_do_not_check_on_construction(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{node.name}.{name}" for node in _named_tuple_classes(tree)
             for name in ("__new__", "_make") if _defines(node, name)]
    assert not found, f"{path.name}: NamedTuple classes that override construction: {found}"


#: the functions that may test for a ``bool``
BOOL_CHECKERS = {"as_rational", "_check_count"}


def _bool_tests(node, owner=None):
    """``(function, line)`` of each ``isinstance(..., bool)`` below node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
            yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _bool_tests(child, owner)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_bool_is_refused_in_one_place_per_kind(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{owner} (line {line})" for owner, line in _bool_tests(tree)
             if owner not in BOOL_CHECKERS]
    assert not found, f"{path.name}: isinstance(..., bool) outside {sorted(BOOL_CHECKERS)}: {found}"


def _decorator_names(node) -> set[str]:
    names = set()
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        names.add(ast.unparse(target).split(".")[-1])
    return names


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_hypothesis_tests_are_seeded(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unseeded = [node.name for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and {"given", "seed"} & _decorator_names(node) == {"given"}]
    assert not unseeded, f"{path.name}: @given tests without @seed: {unseeded}"
