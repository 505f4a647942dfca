"""The package imports nothing beyond the standard library, and no
import or private function in it is left without a user."""

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
        if isinstance(node, ast.Name):
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


def test_private_functions_have_users():
    trees = _trees()
    used = set()
    for tree in trees.values():
        used |= _referenced(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                assert node.name in used, "%s defines %s, used nowhere in " \
                    "the package" % (name, node.name)
