"""In-memory span recorder that wraps library functions by module attribute.

A span is one call of a wrapped function: name, start, end, parent index.
Callers inside the library look functions up in their own module namespace
(``experiments`` binds ``decompose`` and the samplers by name, ``conditions``
binds ``rate_F``, ``rate_Fd`` and ``g_alpha`` by name), so each target names
the namespace the caller reads, not only the defining module.  Patching is
undone on exit, so an untraced pass runs the original functions.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _points(args, kwargs) -> int:
    """Number of (x, t) points in one rate_F call, after broadcasting."""
    x = args[0] if args else kwargs["x"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    return int(np.broadcast(np.asarray(x), np.asarray(t)).size)


class Tracer:
    def __init__(self):
        # [name, start, end, parent, points]; parent is an index or -1.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count_points: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [name, clock(), 0.0, stack[-1] if stack else -1,
                 _points(args, kwargs) if count_points else 0]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each target.

        ``targets`` holds (module, attr, span name) triples.  A function bound
        in several namespaces gets one wrapper per namespace, all calling the
        original, so a call is recorded once whichever binding it goes through.
        """
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count_points=name == "numerics.rate_F"))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "points"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
