"""No dead helpers: every module-level private function of the package is
referenced somewhere in the package outside its own definition.  A name
counts as referenced when it is loaded, taken as an attribute or imported;
a call from inside the function's own body does not count."""

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


def test_every_private_function_is_referenced():
    private = {}
    used = set()
    for module, tree in _modules():
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if own.startswith("_") and not own.startswith("__"):
                    private[own] = module
            used.update(name for name in _names_used(top) if name != own)
    assert private
    assert {name: mod for name, mod in private.items() if name not in used} == {}
