"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every public function of the package's modules
in every namespace that bound it (``toepnull.enumeration.gf2_rank`` as
well as ``toepnull.toeplitz.gf2_rank``), because modules call the names
they imported.  Each call is a span named ``<layer>.<function>``, where
the layer is the module that defined the function.

Spans are kept in memory as a call tree: one node per (parent, name)
path holding the call count, total time and self time (total minus the
time of wrapped children).  That aggregates the millions of leaf kernel
calls of a scan per parent.  Spans at the top two levels (the harness's
own operation span and the package call under it) are also kept one by
one with start, end and parent.  ``restore`` puts every original back
and checks that it did.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Dict, List, Tuple

LAYERS = ("field", "toeplitz", "kernel_structure", "counting", "enumeration", "cli")
_LAYER_MODULES = {f"toepnull.{layer}": layer for layer in LAYERS}


class Node:
    __slots__ = ("key", "calls", "total", "self", "children")

    def __init__(self, key: str) -> None:
        self.key = key
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.children: Dict[str, "Node"] = {}

    def as_json(self) -> list:
        return [self.key, self.calls, self.total, self.self,
                [c.as_json() for c in self.children.values()]]


class Tracer:
    def __init__(self) -> None:
        self.root = Node("root")
        # one frame per open span: [node, time of wrapped children, span index]
        self._stack: List[list] = [[self.root, 0.0, None]]
        self.spans: List[list] = []  # [name, start, end, parent index]
        self._patched: List[Tuple[object, str, object]] = []

    def _enter(self, key: str) -> list:
        stack = self._stack
        parent = stack[-1]
        node = parent[0].children.get(key)
        if node is None:
            node = parent[0].children[key] = Node(key)
        span = None
        if len(stack) <= 2:
            span = len(self.spans)
            self.spans.append([key, 0.0, 0.0, parent[2]])
        frame = [node, 0.0, span]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        dur = end - start
        self._stack.pop()
        node = frame[0]
        node.calls += 1
        node.total += dur
        node.self += dur - frame[1]
        self._stack[-1][1] += dur
        if frame[2] is not None:
            self.spans[frame[2]][1:3] = [start, end]

    def wrap(self, key: str, fn):
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(key)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, start, clock())

        return traced

    def span(self, key: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (the harness's op span)."""
        return self.wrap(key, fn)(*args)

    def install(self) -> int:
        """Wrap every public package function in every module that binds it."""
        modules = [importlib.import_module("toepnull")]
        modules += [importlib.import_module(m) for m in _LAYER_MODULES]
        wrappers: Dict[int, object] = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = _LAYER_MODULES.get(value.__module__)
                if layer is None:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self.wrap(
                        f"{layer}.{value.__name__}", value)
                setattr(module, name, wrapper)
                self._patched.append((module, name, value))
        return len(self._patched)

    def restore(self) -> bool:
        """Put every original back; True when each name is the original again."""
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        ok = all(getattr(module, name) is value for module, name, value in self._patched)
        self._patched = []
        return ok
