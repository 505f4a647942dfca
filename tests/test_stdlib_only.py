"""The package imports nothing beyond the standard library, and no
import or private top-level name in it is left without a user."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ratclass"


def test_imports_are_relative_or_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, \
                    "%s imports %s" % (path.name, name)


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _referenced(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    # the package's __init__ imports to re-export
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).partition(".")[0]
                    assert bound in used, "%s imports %s unused" % (name,
                                                                    bound)


def _unused_private(kinds):
    """(module, name) for each private top-level definition of the given
    node kinds that no module of the package reads or imports."""
    trees = _trees()
    used = set()
    for tree in trees.values():
        used |= _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                bound = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                bound = [node.name]
            for b in bound:
                if (b.startswith("_") and not b.startswith("__")
                        and b not in used):
                    yield name, b


def test_private_functions_have_users():
    unused = list(_unused_private((ast.FunctionDef, ast.AsyncFunctionDef)))
    assert not unused, "defined, used nowhere in the package: %s" % unused


def test_private_assignments_and_classes_have_users():
    unused = list(_unused_private((ast.Assign, ast.AnnAssign, ast.ClassDef)))
    assert not unused, "defined, used nowhere in the package: %s" % unused
