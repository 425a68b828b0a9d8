"""Spans at the package's module boundaries, recorded from outside the package.

``Tracer(om)`` rebinds every public function of the six modules (the names
in each module's ``__all__`` that still exist) under every name the package
binds it to, such as ``oddmaps.maps.is_odd`` and ``oddmaps.oddity.is_odd``,
so calls between modules pass through a timing wrapper. Calls into the
``partition`` module, which happen 10^5-10^6 times a round, and
``Partition`` constructions keep only a count and self time per function;
every other call becomes a span (id, parent id, name, start, end) kept in
memory. Cache metrics come from whichever functions still expose
``cache_info``. The package's files are never touched; ``uninstall``
restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

LAYERS = ("partition", "quotient", "oddity", "maps", "oracle", "cli")
AGGREGATED = {"partition"}
# Private functions worth a span of their own: one verify level per call.
EXTRA = (("oracle", "_check_level"),)
CONSTRUCTOR = "partition.Partition"


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    def __init__(self, om):
        self.stack = [[0.0, 0]]
        self.spans = []
        self.stats = {}  # name -> [calls, self_s, errors]
        self.caches = {}
        self._restore = []
        self._ids = itertools.count(1)
        modules = {layer: sys.modules.get(f"{om.__name__}.{layer}") for layer in LAYERS}
        targets = []
        for layer, mod in modules.items():
            if mod is None:
                continue
            names = list(getattr(mod, "__all__", ()))
            names += [n for lay, n in EXTRA if lay == layer]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None and not inspect.isclass(fn) and callable(fn):
                    targets.append((f"{layer}.{name}", layer in AGGREGATED, fn))
            for name, obj in vars(mod).items():
                if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
                    self.caches[f"{layer}.{name}"] = obj
        package = [m for n, m in list(sys.modules.items()) if n == om.__name__ or n.startswith(om.__name__ + ".")]
        for name, aggregated, fn in targets:
            wrapper = self._wrap(name, aggregated, fn)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        cls = getattr(modules["partition"], "Partition", None)
        if cls is not None:
            init = cls.__init__
            self._restore.append((cls, "__init__", init))
            cls.__init__ = self._wrap(CONSTRUCTOR, True, init)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _wrap(self, name, aggregated, fn):
        stack, spans, ids = self.stack, self.spans, self._ids
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def timed(call, *args, **kwargs):
            parent = stack[-1]
            # Spans nested in an aggregated call attach to the nearest span.
            frame = [0.0, parent[1] if aggregated else next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return call(*args, **kwargs)
            except StopIteration:  # a wrapped generator finishing
                raise
            except BaseException:
                stat[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                parent[0] += took
                stat[1] += took - frame[0]
                if not aggregated:
                    spans.append((frame[1], parent[1], name, start, end))

        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so the generator's own work is attributed
            # to it rather than to whoever iterates it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        value = timed(next, it)
                    except StopIteration:
                        return
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return timed(fn, *args, **kwargs)

        return wrapper

    def metrics(self, wall_s):
        """Per-layer and per-function figures for a timed phase of ``wall_s``."""
        out = {}
        for layer in LAYERS:
            rows = [s for n, s in self.stats.items() if n.split(".")[0] == layer]
            calls = [s for n, s in self.stats.items() if n.split(".")[0] == layer and n != CONSTRUCTOR]
            self_s = sum(s[1] for s in rows)
            out[f"{layer}.calls"] = sum(s[0] for s in calls)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall_s if wall_s > 0 else 0.0
            out[f"{layer}.errors"] = sum(s[2] for s in rows)
        out["partition.objects_built"] = self.stats.get(CONSTRUCTOR, [0])[0]
        durations = {}
        for _, _, name, start, end in self.spans:
            durations.setdefault(name, []).append(end - start)
        for name, ds in durations.items():
            out[f"{name}.ms_p50"] = _percentile_ms(ds, 0.5)
            out[f"{name}.ms_p90"] = _percentile_ms(ds, 0.9)
        entries = 0
        for name, fn in self.caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            entries += info.currsize
        out["cache.entries"] = entries
        # Levels run in increasing n, so the last one is the largest n.
        levels = durations.get("oracle._check_level", [])
        sweep = sum(durations.get("oracle.cross_validate", []))
        out["oracle.largest_level_share"] = levels[-1] / sweep if levels and sweep else 0.0
        return out

    def write_spans(self, path):
        """Write every span as [id, parent id, name, start s, end s]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans}, fh)
