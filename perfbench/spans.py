"""Spans around flatwall's public functions, installed from outside the package.

A layer is one public function (or, for `serialize`, every public function
of the module).  Installing the tracer replaces the function under every
name a flatwall module binds it to -- `flatwall.structure.find_minor` as
well as `flatwall.minors.find_minor` -- because callers look the name up in
their own module.  Modules are resolved with `importlib.import_module`: the
package attribute `flatwall.wall` is the `wall()` generator, not the
module.  `restore()` puts every original back.

Spans are aggregated per layer as they close: calls, self time (span CPU
time minus the CPU time of the spans opened inside it) and a few deterministic
counters read off arguments and results.
"""

import importlib
import inspect
import sys
from time import process_time


class Layer:
    """Aggregated spans of one layer."""

    __slots__ = ("calls", "self_s", "hits", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0   # positive results (find_minor found, trichotomy clause 3)
        self.work = 0   # summed work counter (explored, dp_space, yielded)

    def counts(self):
        return (self.calls, self.hits, self.work)


# layer name -> (module, attribute names, what counts as a hit, work counter)
# `work` receives (args, kwargs, result) and returns an int.
LAYERS = {
    "minors.find_minor": ("flatwall.minors", ("find_minor",),
                          lambda r: r is not None, None),
    "minors.iter_topological_embeddings": ("flatwall.minors", ("iter_topological_embeddings",),
                                           None, None),
    "minors.verify_minor_model": ("flatwall.minors", ("verify_minor_model",), None, None),
    "decomposition.exact_treewidth": ("flatwall.decomposition", ("exact_treewidth",),
                                      None, lambda a, k, r: a[0].n * 2 ** a[0].n),
    "decomposition.validate": ("flatwall.decomposition", ("validate",), None, None),
    "wall.is_flat": ("flatwall.wall", ("is_flat",), None, None),
    "wall.compass": ("flatwall.wall", ("compass",), None, None),
    "wall.verify_wall": ("flatwall.wall", ("verify_wall",), None, None),
    "paths.two_disjoint_paths": ("flatwall.paths", ("two_disjoint_paths",),
                                 None, lambda a, k, r: r.explored),
    "paths.max_vertex_disjoint_paths": ("flatwall.paths", ("max_vertex_disjoint_paths",),
                                        None, None),
    "rural.validate_rural": ("flatwall.rural", ("validate_rural",), None, None),
    "planarity.is_planar": ("flatwall.planarity", ("is_planar",), None, None),
    "structure.trichotomy_check": ("flatwall.structure", ("trichotomy_check",),
                                   lambda r: r.clause == 3, None),
    "structure.verify_certificate": ("flatwall.structure", ("verify_certificate",), None, None),
    "structure.apex_number": ("flatwall.structure", ("apex_number",), None, None),
    "serialize": ("flatwall.serialize", None, None, None),
    "cli.main": ("flatwall.cli", ("main",), None, None),
}


class Tracer:
    """Installs spans on every layer of LAYERS; one tracer per traced pass."""

    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self._open = []      # child-time accumulators of the open spans
        self._patched = []   # (module, attribute, original)

    def _call(self, layer, fn, hit, work, args, kwargs):
        self._open.append(0.0)
        t0 = process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = process_time() - t0
            child = self._open.pop()
            layer.calls += 1
            layer.self_s += dt - child
            if self._open:
                self._open[-1] += dt
        if hit is not None and hit(result):
            layer.hits += 1
        if work is not None:
            layer.work += work(args, kwargs, result)
        return result

    def _wrap(self, layer, fn, hit, work):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)

        def span(*args, **kwargs):
            return self._call(layer, fn, hit, work, args, kwargs)
        return span

    def _wrap_generator(self, layer, fn):
        # One call per generator; every resumption is a span segment, and
        # `work` counts the items handed to the caller.
        def segments(*args, **kwargs):
            inner = fn(*args, **kwargs)
            layer.calls += 1
            try:
                while True:
                    self._open.append(0.0)
                    t0 = process_time()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = process_time() - t0
                        layer.self_s += dt - self._open.pop()
                        if self._open:
                            self._open[-1] += dt
                    layer.work += 1
                    yield item
            finally:
                inner.close()
        return segments

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "flatwall" or name.startswith("flatwall."))]
        for name, (module_name, attrs, hit, work) in LAYERS.items():
            module = importlib.import_module(module_name)
            if attrs is None:
                attrs = tuple(a for a, v in vars(module).items()
                              if not a.startswith("_") and inspect.isfunction(v)
                              and v.__module__ == module_name)
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap(self.layers[name], original, hit, work)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, bound, wrapper)
                            self._patched.append((m, bound, original))
        return self

    def restore(self):
        while self._patched:
            m, bound, original = self._patched.pop()
            setattr(m, bound, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False
