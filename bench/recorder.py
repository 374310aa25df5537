"""Span and counter recorder that times the package's layers from outside.

Each traced function is replaced, in the namespace its caller looks it up in,
by a wrapper that records a span (id, name, start, end, parent).  Leaves that run
hundreds of thousands of times are kept as counters plus summed busy time
(`leaf=True`) instead, so the trace stays small.  Spans live in memory until
`dump`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    errors: int = 0


class Recorder:
    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1); ids number spans by start
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []  # ids of the open spans
        self._child_s: list[float] = []  # per span id, time covered by its children
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _finish(self, name: str, dt: float, self_dt: float, failed: bool) -> None:
        st = self.stats.setdefault(name, Stat())
        st.calls += 1
        st.busy_s += dt
        st.self_s += self_dt
        st.max_s = max(st.max_s, dt)
        st.errors += failed
        if self._stack:
            self._child_s[self._stack[-1]] += dt

    def wrap(self, fn, name: str, leaf: bool = False, observe=None):
        """Return `fn` wrapped to record `name`; `observe(result, args)` may
        add counters from the result.  A leaf must not call other wrapped
        functions: its whole duration counts as self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not leaf:
                slot = len(self._child_s)
                self._child_s.append(0.0)
                parent = self._stack[-1] if self._stack else -1
                self._stack.append(slot)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = time.perf_counter()
                if not leaf:
                    self._stack.pop()
                    self.spans.append((slot, name, t0, t1, parent))
                    self._finish(name, t1 - t0, t1 - t0 - self._child_s[slot], failed)
                else:
                    self._finish(name, t1 - t0, t1 - t0, failed)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def install(self, module, attr: str, name: str, **kwargs) -> None:
        """Replace `module.attr` by its traced wrapper until `uninstall`."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **kwargs))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, the layer being the name's first component."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st.self_s
        return out

    def dump(self, path) -> None:
        data = {
            "spans": [list(s) for s in self.spans],
            "stats": {name: vars(st) for name, st in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
