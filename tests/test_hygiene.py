"""Source hygiene checks over the `recomp` package, its tests and its
demos, read with `ast`."""

import ast
from pathlib import Path

import pytest

import recomp

ROOT = Path(__file__).parents[1]
PACKAGE = Path(recomp.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS + DEMOS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_every_import_is_used(path):
    """Every name a module, test file or demo imports is read somewhere in
    it (the package's `__init__.py`, which imports to re-export, is left
    out)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_every_verifier_has_a_caller():
    """Every public `verify_*` function of the package is called from
    `src/` or `demos/`: a check that only tests call belongs with the
    tests (`tests/theorem_reference.py`), not in the package."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES + DEMOS}
    defined = {
        (path.name, node.name)
        for path, tree in trees.items()
        if path in MODULES
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
    }
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    uncalled = sorted(f"{module}:{name}" for module, name in defined if name not in called)
    assert not uncalled, f"verifiers with no caller in src/ or demos/: {uncalled}"


def test_every_private_helper_has_a_caller():
    """Every module-level `_`-prefixed function or class of the package is
    referenced in `src/` outside its own definition: a helper that only
    tests read belongs with the tests, and a leftover one goes."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}

    def referenced(node: ast.AST) -> list[str]:
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        ]

    everywhere = [name for tree in trees.values() for name in referenced(tree)]
    unreferenced = sorted(
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere.count(node.name) == referenced(node).count(node.name)
    )
    assert not unreferenced, f"private helpers never referenced in src/: {unreferenced}"


def test_every_error_is_raised():
    """Every exception class of `recomp.errors` is raised somewhere in
    `src/`: an error that only tests raise belongs with them."""
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert not defined - raised, f"errors never raised in src/: {sorted(defined - raised)}"


def test_unchecked_graph_constructor_stays_in_graphs():
    """`graphs._built` makes a Graph without `Graph.__post_init__`'s
    checks, for rows valid by construction.  Only `recomp/graphs.py` reads
    it, and only `_built` calls `__new__` there, so every other module and
    demo builds a Graph through a checked constructor."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")) + DEMOS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("_built", "__new__") and path != PACKAGE / "graphs.py":
                outside.append(f"{path.name}:{node.lineno} {name}")
        if path == PACKAGE / "graphs.py":
            new = [
                owner.name
                for owner in tree.body
                if any(isinstance(n, ast.Attribute) and n.attr == "__new__" for n in ast.walk(owner))
            ]
            assert new == ["_built"], f"graphs.py calls __new__ in {new}"
    assert not outside, f"the unchecked Graph constructor read outside graphs.py: {outside}"
