"""The benchmark's traced run wraps the functions named in
perfbench/layers.py; each name must still resolve in the package, or
`perfbench/run.py --trace 1` crashes.  The file is loaded read-only and
each name is resolved the way the tracer resolves it: the module, then
attributes, with a class member looked up in the class's own namespace."""

import importlib
import os

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def resolves(qualname):
    modname, _, attr = qualname.partition(".")
    obj = importlib.import_module(f"qbrauer.{modname}")
    *path, last = attr.split(".")
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    if isinstance(obj, type):
        return last in vars(obj)
    return callable(getattr(obj, last, None))


def test_traced_targets_resolve():
    with open(LAYERS) as fh:
        layers = {}
        exec(compile(fh.read(), LAYERS, "exec"), layers)
    names = [name for name, _, _ in layers["TARGETS"]]
    assert names
    assert [name for name in names if not resolves(name)] == []
