"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: ``[name, layer, start, end,
parent]``, where ``parent`` is the index of the enclosing span in the same
list (-1 for a root).  Spans of one job share the tracer's ``trace_id``.
Spans nest like the call stack of the single thread that records them, so
the child spans of one span never overlap each other.

``install`` replaces a function under every name it is bound to in the
loaded modules of a package, including class attributes and aliases such as
``__radd__ = __add__``.
"""

import functools
import sys
import time
import uuid


class Tracer:
    def __init__(self, clock=time.perf_counter, trace_id=None):
        self.clock = clock
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, name, layer, fn, note=None):
        """Return fn wrapped so that each call records a span.

        ``note(tracer, args, kwargs)``, when given, runs before the call and
        may update ``tracer.counts``."""
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(self, args, kwargs)
            rec = [name, layer, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside one span."""
        return self.wrap(name, layer, fn)(*args, **kwargs)

    def bump(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def dump(self):
        return {"trace_id": self.trace_id, "spans": self.spans, "counts": self.counts}


def _union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per-layer self time and per-name call counts and inclusive times.

    Self time of a span is its duration minus the part of it that its child
    spans cover.  The inclusive time of a name is the length of the union of
    its spans, so a recursive call is not counted twice."""
    children = {}
    by_name = {}
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
        by_name.setdefault(name, []).append((start, end))
    layer_self = {}
    for i, (name, layer, start, end, parent) in enumerate(spans):
        covered = _union_length(children.get(i, ()))
        layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - covered
    calls = {name: len(iv) for name, iv in by_name.items()}
    inclusive = {name: _union_length(iv) for name, iv in by_name.items()}
    return {"layer_self_s": layer_self, "calls": calls, "inclusive_s": inclusive}


def _owners(package):
    """Module and class namespaces of the loaded modules of a package."""
    prefix = package + "."
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(prefix)):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and getattr(value, "__module__", "").startswith(
                package
            ):
                yield value


def install(tracer, package, targets):
    """Wrap each target under every name it is bound to in the package.

    targets: [(qualified name such as "mod.Class.method", layer, note)].
    A staticmethod or classmethod is rewrapped in its own descriptor type.
    Returns {qualified name: number of bindings replaced}."""
    replaced = {}
    owners = list(_owners(package))
    for qualname, layer, note in targets:
        modname, _, attr = qualname.partition(".")
        obj = sys.modules[f"{package}.{modname}"]
        *path, last = attr.split(".")
        for part in path:
            obj = getattr(obj, part)
        raw = vars(obj)[last] if isinstance(obj, type) else getattr(obj, last)
        descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if descriptor else raw
        wrapped = tracer.wrap(qualname, layer, fn, note)
        if descriptor:
            wrapped = descriptor(wrapped)
        count = 0
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, key, wrapped)
                    count += 1
        replaced[qualname] = count
    return replaced
