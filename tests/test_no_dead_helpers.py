"""No dead helpers: every private function of the package, at module level
or as a method of a package class, is referenced somewhere in the package
outside its own definition.  A name counts as referenced when it is loaded,
taken as an attribute or imported; a call from inside the function's own
body does not count."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qbrauer")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def _names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(body, where):
    """(statement, private function name or None, location) for each
    statement of body, descending into class bodies."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from ((dec, None, where) for dec in node.decorator_list)
            yield from ((base, None, where) for base in node.bases)
            yield from _definitions(node.body, f"{where}:{node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name if _is_private(node.name) else None, where
        else:
            yield node, None, where


def test_every_private_function_is_referenced():
    private = {}
    used = set()
    for module, tree in _modules():
        for node, own, where in _definitions(tree.body, module):
            if own:
                private[f"{where}.{own}"] = own
            used.update(name for name in _names_used(node) if name != own)
    assert any(":" in key for key in private)
    assert {key for key, name in private.items() if name not in used} == set()
