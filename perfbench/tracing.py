"""Span tracing from outside the program.

Each gaah module imports its collaborators by name, so a call is traced by
rebinding that name in the consuming module's namespace (for instance
``gaah.dynamics.ipr`` and ``gaah.oracle.ipr`` for the observables).  Nothing
under ``src/gaah`` is modified; ``Tracer.uninstall`` restores every binding.

Two kinds of wrapper share one call stack, so self time is exact for both:

* span  -- coarse calls (evolve, find_poles, CSV writers, ...); every call is
  kept in memory as (name, start, end, parent, self time) and written out at
  the end of the run;
* leaf  -- hot calls (observables per step, determinants, self-energies);
  only call count, total and self time are aggregated, so a t=1200 run does
  not hold hundreds of thousands of span records.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self._reset()
        self._installed: list[tuple[object, str, object]] = []

    def _reset(self):
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self s
        self.counts = defaultdict(float)
        self.records = defaultdict(list)
        self._stack: list[list] = []   # [name, start, child time, span index]

    @contextlib.contextmanager
    def isolated(self):
        """Run traced calls whose records are discarded (derived baselines)."""
        saved = (self.spans, self.totals, self.counts, self.records, self._stack)
        self._reset()
        try:
            yield
        finally:
            self.spans, self.totals, self.counts, self.records, self._stack = saved

    def _enter(self, name: str, keep: bool):
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, 0.0))
        frame = [name, _perf(), 0.0, index if keep else parent]
        self._stack.append(frame)
        return frame, index

    def _exit(self, frame, index: int) -> float:
        end = _perf()
        self._stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals[frame[0]]
        total[0] += 1
        total[1] += duration
        total[2] += own
        if index >= 0:
            name, _, _, parent, _ = self.spans[index]
            self.spans[index] = (name, frame[1], end, parent, own)
        return duration

    def wrap(self, name: str, fn, keep: bool = True, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, index = self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(frame, index)
            if on_result is not None:
                on_result(self, args, kwargs, result, duration)
            return result
        return traced

    def patch(self, target: str, name: str, keep: bool = True, on_result=None):
        """Rebind ``module.attr`` (or ``module.Class.attr``) to a traced
        wrapper of its current value."""
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep, on_result))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "self_s"],
                "spans": self.spans,
                "leaf_totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                                for k, v in sorted(self.totals.items())},
            }, handle)
