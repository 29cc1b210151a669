"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of every ``vaguelab``
module from outside the package, so the package itself is unchanged. A
span records its name, its layer (the defining module), the span that was
open when it started, and its start and end times. Spans are kept in
memory and reduced to per-layer self times and counts when the round ends.

Two details make the numbers trustworthy:

* Modules import names from each other (``from .grids import
  inverse_transform``), so every binding of a wrapped function is replaced,
  including entries of module-level dicts such as ``cli.COMMANDS``.
* ``verify-vaguelet`` runs its work on a ``ThreadPoolExecutor`` worker,
  where the submitting thread's open span is not visible. Each module's
  ``ThreadPoolExecutor`` binding is replaced by a subclass whose tasks
  inherit the submitter's open span as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

# span record fields (records are lists so the end time can be filled in)
NAME, LAYER, PARENT, START, END = range(5)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    left = reach = None
    for start, end in sorted(intervals):
        if reach is not None and start <= reach:
            reach = max(reach, end)
            continue
        if reach is not None:
            total += reach - left
        left, reach = start, end
    if reach is not None:
        total += reach - left
    return total


class Tracer:
    """Collects spans and counts; install() wraps a package in place."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self.distinct: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = True
        self._instances = weakref.WeakKeyDictionary()
        self._next_instance = itertools.count()

    # ---------------------------------------------------------- recording

    def current(self):
        """The innermost open span of this thread, or the inherited one."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def wrap(self, fn, name: str, layer: str, hook=None):
        """fn recording one span per call; hook(tracer, span, args, kwargs,
        result) runs after a successful call to record counts."""
        local = self._local
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            span = [name, layer, parent, clock(), None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def key(self, key: str, item) -> None:
        """Record item as one of the distinct keys seen under key."""
        with self._lock:
            self.distinct.setdefault(key, set()).add(item)

    def instance_id(self, obj) -> int:
        """A number for obj that no other object traced in this run gets."""
        with self._lock:
            ident = self._instances.get(obj)
            if ident is None:
                ident = self._instances[obj] = next(self._next_instance)
            return ident

    def executor_class(self):
        """Executor whose tasks open their spans under the submitter's."""
        tracer = self

        class ContextExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    local = tracer._local
                    saved = getattr(local, "inherited", None)
                    local.inherited = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        local.inherited = saved

                return super().submit(run)

        return ContextExecutor

    # ------------------------------------------------------- installation

    def install(self, package: str, hooks: dict, extra_methods=()) -> None:
        """Wrap every public function and method defined in package.

        hooks maps span names ("layer.func" or "layer.Class.method") to
        count hooks; extra_methods lists non-public (layer, class, method)
        triples to wrap as well, e.g. a constructor whose calls are counted.
        """
        prefix = package + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith(prefix) and m is not None]
        wrappers = {}
        for module in modules:
            layer = module.__name__[len(prefix):]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(obj, name, layer,
                                                  hooks.get(name))
                elif (isinstance(obj, type)
                      and obj.__module__ == module.__name__):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_")
                        if not isinstance(fn, types.FunctionType) or not (
                                public or (layer, attr, meth) in extra_methods):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        setattr(obj, meth,
                                self.wrap(fn, name, layer, hooks.get(name)))
        executor = self.executor_class()
        for module in modules + [sys.modules[package]]:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                elif obj is ThreadPoolExecutor:
                    setattr(module, attr, executor)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]

    # ---------------------------------------------------------- reduction

    def self_times(self) -> list:
        """(span, self time) pairs: duration minus the part of the span's
        interval that its child spans cover."""
        children: dict = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        out = []
        for span in self.spans:
            start, end = span[START], span[END]
            covered = union_length(
                (max(c[START], start), min(c[END], end))
                for c in children.get(id(span), ())
                if c[END] > start and c[START] < end)
            out.append((span, (end - start) - covered))
        return out

    def top_level_coverage(self, windows) -> float:
        """Time inside the given (start, end) windows covered by root spans."""
        roots = [(s[START], s[END]) for s in self.spans if s[PARENT] is None]
        total = 0.0
        for w_start, w_end in windows:
            total += union_length((max(a, w_start), min(b, w_end))
                                  for a, b in roots if b > w_start and a < w_end)
        return total
