"""Outside-in span tracer.

The tracer changes no program file. It replaces every public module-level
function of the traced modules with a wrapper that records one span per
call, both in the module that defines the function and in every module of
the package that bound the function by name at import time (``from .x import
f``). Calls that resolve a name at call time, such as a function-level
``from .kernels import check_T1``, read the module attribute and so meet the
wrapper as well. ``uninstall`` puts every original back.

Spans stay in memory as a flat list with parent ids; nothing is written
while tracing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str                   # "<layer>.<function>"
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls into the public functions of ``modules``.

    Span times are CPU time of the process. ``observers`` maps a span name
    to ``fn(args, kwargs, result)``, called after the traced call returns,
    so that counts can be read from the objects a layer returns."""

    def __init__(self, modules, observers=None):
        self.module_names = tuple(modules)
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        # import_module, not getattr on the package: the package namespace
        # rebinds some submodule names to functions of the same name
        modules = [importlib.import_module(name) for name in self.module_names]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        packages = {name.split(".", 1)[0] for name in self.module_names}
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if mod is not None
                      and name.split(".", 1)[0] in packages]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while a traced call is open")
        self.spans.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observer = self.observers.get(name)
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name,
                        clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Calls are synchronous, so children never overlap one another."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def has_ancestor(spans, span: Span, names) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False
