"""Spans around the public functions of the pdkf modules, installed from outside.

`Tracer.active()` replaces every public pdkf function held in the namespace of
`sim`, `filter`, `event`, `analysis`, `model` and `cli` with a wrapper that
records one span (name, start, end, parent) per call, and puts the originals
back on exit.  Nothing in the package is edited.

A span is named after the namespace the call went through: `event.predict`
is `filter.predict` called from the event layer through the name `event`
imported.  Per-layer metrics (`layer_totals`) sum spans by the module that
defines the function, so `filter.predict` counts calls from every layer.

A span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

MODULES = ("sim", "filter", "event", "analysis", "model", "cli")


class Tracer:
    def __init__(self, pdkf_package):
        self._modules = {name: getattr(pdkf_package, name) for name in MODULES}
        self.spans: list = []         # [name, start, end, parent index]
        self._stack: list = []
        self._home: dict = {}         # span name -> defining "module.function"
        self._saved: list = []

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def _targets(self):
        for ns, mod in self._modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("pdkf.")):
                    continue
                yield ns, mod, attr, obj

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already active")
        for ns, mod, attr, fn in self._targets():
            span_name = f"{ns}.{attr}"
            self._home[span_name] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span_name, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in self._saved:
                setattr(mod, attr, fn)
            self._saved = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, e.g. the root of one operation."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> list:
        out = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def subtree(self, root: int) -> range:
        """Indices of `root` and every span opened inside it (spans are stored
        in opening order, so a subtree is contiguous)."""
        stop = root + 1
        while stop < len(self.spans) and self.spans[stop][3] >= root:
            stop += 1
        return range(root, stop)

    def layer_totals(self, root: int) -> dict:
        """{"module.function": {"calls", "s", "self_s"}} inside one root span.

        `s` sums the durations of the outermost calls only, so a recursive
        call (rate_bound's self-check) is not counted twice in it.
        """
        selfs = self.self_times()
        totals: dict = {}
        for idx in self.subtree(root)[1:]:
            name, start, end, parent = self.spans[idx]
            key = self._home.get(name, name)
            t = totals.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += selfs[idx]
            if not self._inside(parent, key):
                t["s"] += end - start
        return totals

    def _inside(self, idx: int, key: str) -> bool:
        while idx >= 0:
            name = self.spans[idx][0]
            if self._home.get(name, name) == key:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
