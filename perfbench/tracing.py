"""Spans and dispatch counters recorded from outside the program.

Nothing here edits ``src/``: the traced run swaps public functions and
methods of ``repro`` for timing wrappers (restored afterwards), keeps
every span in memory, and writes them out when the run ends.

* :class:`SpanRecorder` — name, start, end, parent and a group id (one
  per cell, trial batch or request) per span; self time is a span's
  duration minus the part its child spans cover.
* :class:`DispatchProbe` — wraps ``Simulator.schedule``/``schedule_at``
  so every scheduled callback is timed when the kernel dispatches it,
  attributed to the ``repro`` package that owns the callback, and wraps
  ``Simulator.step`` so time spent in the kernel outside callbacks is
  known too.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: packages whose dispatch is reported per layer
PACKAGES = ("linkguardian", "switchsim", "transport", "hosts")


def owning_package(callback: Callable) -> str:
    """``repro.<package>`` of a callback's defining module, or its module."""
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    module = getattr(target, "__module__", None) or "?"
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return module


class SpanRecorder:
    """In-memory span store; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self._stack: List[int] = []
        self._group = ""

    @contextmanager
    def group(self, group_id: str):
        """Spans opened inside share ``group_id`` (one cell/batch/request)."""
        previous, self._group = self._group, group_id
        try:
            yield
        finally:
            self._group = previous

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, _clock(), 0.0, parent, self._group))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, group = self.spans[index]
            self.spans[index] = (name_, start, _clock(), parent_, group)

    @contextmanager
    def op(self, group_id: str, name: str):
        """One top-level operation: a span in its own group."""
        with self.group(group_id), self.span(name):
            yield

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
        return out

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Spans as JSONL (one object per span), then one summary line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, group) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_s": start,
                    "end_s": end, "parent": parent, "group": group,
                }, separators=(",", ":")) + "\n")
            handle.write(json.dumps({
                "summary": {"self_s": self.self_times(), **(extra or {})},
            }, sort_keys=True) + "\n")


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, original: Callable, replacement: Callable) -> int:
        """Rebind ``original`` to ``replacement`` in every loaded ``repro``
        module that holds it (``from x import f`` copies the binding)."""
        hits = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        return hits

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class _Timed:
    """A scheduled callback that times itself when dispatched."""

    __slots__ = ("callback", "stats")

    def __init__(self, callback: Callable, stats: list) -> None:
        self.callback = callback
        self.stats = stats        # [count, seconds] of the owning package

    def __call__(self, *args):
        started = _clock()
        try:
            return self.callback(*args)
        finally:
            stats = self.stats
            stats[0] += 1
            stats[1] += _clock() - started


class DispatchProbe:
    """Per-package event counts and callback time; kernel overhead."""

    def __init__(self) -> None:
        self.by_package: Dict[str, list] = {}
        self._by_code: Dict[Any, list] = {}
        self.step_calls = 0
        self.step_s = 0.0
        #: simulators built since the last :meth:`harvest` (held so their
        #: counters survive until read; harvest after every operation)
        self.simulators: list = []
        self.cancelled = 0
        self.heap_high_watermark = 0
        self._patches = Patches()

    def _stats_for(self, callback: Callable) -> list:
        # Keyed by code object: closures made per call share one entry.
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        key = getattr(target, "__code__", None) or type(target)
        stats = self._by_code.get(key)
        if stats is None:
            package = owning_package(target)
            stats = self.by_package.setdefault(package, [0, 0.0])
            self._by_code[key] = stats
        return stats

    def install(self) -> None:
        from repro.core.engine import Simulator

        probe = self
        original_init = Simulator.__init__
        original_step = Simulator.step
        original_schedule = Simulator.schedule
        original_schedule_at = Simulator.schedule_at

        def init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            probe.simulators.append(sim)

        def wrap(callback):
            if isinstance(callback, _Timed):
                return callback
            return _Timed(callback, probe._stats_for(callback))

        def schedule(sim, delay, callback, *args):
            return original_schedule(sim, delay, wrap(callback), *args)

        def schedule_at(sim, at, callback, *args):
            return original_schedule_at(sim, at, wrap(callback), *args)

        def step(sim):
            started = _clock()
            try:
                return original_step(sim)
            finally:
                probe.step_calls += 1
                probe.step_s += _clock() - started

        patches = self._patches
        patches.set(Simulator, "__init__", init)
        patches.set(Simulator, "schedule", schedule)
        patches.set(Simulator, "schedule_at", schedule_at)
        patches.set(Simulator, "step", step)

    def harvest(self) -> None:
        """Fold the kernel's own counters of the simulators built since
        the last harvest in, and let them go."""
        for sim in self.simulators:
            self.cancelled += sim.events_cancelled
            self.heap_high_watermark = max(
                self.heap_high_watermark, sim.heap_high_watermark)
        self.simulators = []

    def uninstall(self) -> None:
        self._patches.undo()

    @property
    def events(self) -> int:
        return sum(count for count, _ in self.by_package.values())

    @property
    def callback_s(self) -> float:
        return sum(seconds for _, seconds in self.by_package.values())

    @property
    def dispatch_overhead_s(self) -> float:
        """Kernel step time outside callbacks (zero if ``step`` is never
        called, e.g. a kernel whose run loop pops events itself)."""
        return max(0.0, self.step_s - self.callback_s) if self.step_calls else 0.0

    def package(self, name: str) -> Tuple[int, float]:
        count, seconds = self.by_package.get(name, (0, 0.0))
        return count, seconds
