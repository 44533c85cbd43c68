"""Discrete-event simulation kernel.

The whole reproduction runs on a single-threaded event loop with integer
nanosecond timestamps.  Integer time keeps event ordering exact (no float
round-off when two packets are scheduled back-to-back at 100G) and makes
experiments reproducible bit-for-bit given a seed.

Pending events live in one ``heapq`` binary heap ordered by
``(time, seq)``, ``seq`` being the insertion counter, so same-time
events fire FIFO and dispatch order is a pure function of the schedule
(relied on by every "same seed ⇒ same bytes" claim in the repo).
Cancelled events stay in the heap as tombstones, skipped on the way out
and swept eagerly once they outnumber the live entries.

There is one drive loop, :meth:`Simulator.run`: it dispatches until the
heap empties, the next event lies past ``until``, or a ``stop``
predicate (checked before each dispatch) says so.  LinkGuardian's
self-replenishing queues keep the heap non-empty forever, so
experiments end on a stop predicate rather than on an empty heap.

Typical usage::

    sim = Simulator()
    sim.schedule(1000, lambda: print("1 microsecond in"))
    sim.run(until=1_000_000)
"""

from __future__ import annotations

import heapq
import itertools
import sys
import time
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimError"]


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and can be cancelled with
    :meth:`cancel` before they fire.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner")

    def __init__(self, time: int, seq: int, callback: Callable[..., Any], args: Tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: the Simulator this event is pending in; cleared on dispatch so
        #: a late ``cancel()`` on a fired handle stays a cheap no-op.
        self.owner = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        # Ties break on insertion order so same-time events fire FIFO.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, {getattr(self.callback, '__name__', self.callback)}, {state})"


class Simulator:
    """Single-threaded discrete-event simulator with integer-ns time."""

    #: cap on recycled Event objects kept for reuse
    POOL_CAP = 512
    #: below this many pending entries, cancelled events are left for
    #: lazy pop-side skipping rather than compacted eagerly
    COMPACT_MIN = 64

    def __init__(self, obs=None) -> None:
        self._now: int = 0
        self._heap: List[Event] = []
        #: cancelled entries still occupying the heap
        self._cancelled_pending = 0
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._events_cancelled = 0
        self._events_compacted = 0
        self._heap_high_watermark = 0
        self._wall_seconds = 0.0
        self._pool: List[Event] = []
        self.obs = obs
        if obs is not None:
            obs.registry.register_provider("engine", self.obs_snapshot)
            # obs v2: lets the flight recorder install its sampling tick
            # (duck-typed so bare registry+tracer stand-ins keep working).
            attach = getattr(obs, "attach_engine", None)
            if attach is not None:
                attach(self)

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (for overhead accounting)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of pending events cancelled so far."""
        return self._events_cancelled

    @property
    def heap_high_watermark(self) -> int:
        """Largest number of pending events ever held at once."""
        return self._heap_high_watermark

    @property
    def wall_seconds(self) -> float:
        """Host wall-clock time spent inside :meth:`run` so far."""
        return self._wall_seconds

    def obs_snapshot(self) -> dict:
        """Kernel self-measurement: the substrate for all perf claims."""
        sim_seconds = self._now / 1e9
        return {
            "events_processed": self._events_processed,
            "events_cancelled": self._events_cancelled,
            "events_compacted": self._events_compacted,
            "heap_high_watermark": self._heap_high_watermark,
            "heap_pending": len(self._heap),
            "event_pool_size": len(self._pool),
            "sim_time_ns": self._now,
            "wall_seconds": self._wall_seconds,
            "wall_seconds_per_sim_second": (
                self._wall_seconds / sim_seconds if sim_seconds > 0 else 0.0
            ),
            "events_per_wall_second": (
                self._events_processed / self._wall_seconds
                if self._wall_seconds > 0 else 0.0
            ),
        }

    # -- cancellation bookkeeping (called from Event.cancel) ------------------

    def _note_cancel(self) -> None:
        self._events_cancelled += 1
        self._cancelled_pending += 1
        heap = self._heap
        # Eager compaction: cancelled entries would otherwise linger
        # until the pop path reaches their timestamps — on timer-heavy
        # workloads (every ACK re-arms RTO/TLP/RACK) that is most of the
        # heap.  Compact when they exceed half the pending set.
        if self._cancelled_pending * 2 > len(heap) >= self.COMPACT_MIN:
            live = [e for e in heap if not e.cancelled]
            self._events_compacted += len(heap) - len(live)
            heapq.heapify(live)
            self._heap = live
            self._cancelled_pending = 0

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + int(delay), callback, *args)

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute time (ns)."""
        time = int(time)
        if time < self._now:
            raise SimError(f"cannot schedule at t={time} < now={self._now}")
        if self._pool:
            event = self._pool.pop()
            event.time = time
            event.seq = next(self._seq)
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, next(self._seq), callback, args)
        event.owner = self
        heap = self._heap
        heapq.heappush(heap, event)
        if len(heap) > self._heap_high_watermark:
            self._heap_high_watermark = len(heap)
        return event

    def _recycle(self, event: Event) -> None:
        """Pool a dispatched event for reuse — only when no caller still
        holds the handle (the ``cancel()``-after-fire contract would
        otherwise let an old handle cancel an unrelated future event).
        Refcount 3 == the pop-site local + this argument + getrefcount's
        own frame: nothing external."""
        if len(self._pool) < self.POOL_CAP and sys.getrefcount(event) <= 3:
            event.callback = None
            event.args = ()
            self._pool.append(event)

    # -- dispatch -------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if nothing is pending."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        return heap[0].time if heap else None

    def step(self) -> bool:
        """Dispatch the next event.  Returns False when nothing is pending."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            event.owner = None
            self._now = event.time
            self._events_processed += 1
            callback, args = event.callback, event.args
            self._recycle(event)
            del event
            callback(*args)
            return True
        return False

    def run(self, until: Optional[int] = None,
            stop: Optional[Callable[[], bool]] = None) -> int:
        """Run the event loop.

        Args:
            until: dispatch no event later than this (ns); the clock is
                advanced to ``until`` on return unless ``stop`` ended
                the run.
            stop: checked before each dispatch; the run ends, with the
                clock left at the last dispatched event, once it
                returns True.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimError("run() is not reentrant")
        self._running = True
        stopped = False
        wall_start = time.perf_counter()
        try:
            while True:
                if stop is not None and stop():
                    stopped = True
                    break
                next_time = self.peek()
                if next_time is None or (until is not None and next_time > until):
                    break
                self.step()
        finally:
            self._running = False
            self._wall_seconds += time.perf_counter() - wall_start
        if until is not None and not stopped and self._now < until:
            self._now = int(until)
        return self._now

    def jump_to(self, time: int) -> None:
        """Advance the idle clock without dispatching (snapshot restore:
        materializing a simulation mid-run needs ``now`` at the capture
        time before components re-arm their timers)."""
        time = int(time)
        if time < self._now:
            raise SimError(f"cannot jump to t={time} < now={self._now}")
        next_time = self.peek()
        if next_time is not None and next_time < time:
            raise SimError(
                f"cannot jump past pending event at t={next_time}")
        self._now = time

    def clear(self) -> None:
        """Drop all pending events and reset per-run accounting (the
        clock is left where it is) — a reused simulator reports stats
        for its current run, not its lifetime.  Pooled events are
        dropped too, so the pool cannot carry handles across runs."""
        self._heap.clear()
        self._cancelled_pending = 0
        self._pool.clear()
        self._events_processed = 0
        self._events_cancelled = 0
        self._events_compacted = 0
        self._heap_high_watermark = 0
        self._wall_seconds = 0.0
