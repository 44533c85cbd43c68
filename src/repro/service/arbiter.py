"""Streaming arbitration: counters in, controller decisions out.

:class:`StreamingArbiter` is the service-side analogue of what the
batch pipeline does in two passes (corruptd loss estimation, then
:meth:`FleetController.run` over a complete episode timeline).  Here
neither pass has the luxury of hindsight: records arrive one at a time,
a link's clear time is unknown at onset, and the controller must commit
a decision immediately.

The arbiter is the port-counter estimator of a
:class:`~repro.fleet.driver.ControllerDriver`: per link, a corruptd-style
:class:`~repro.monitor.corruptd.LossWindow` over the cumulative RX
counters yields one estimate per record for the driver's shared
:class:`~repro.monitor.detector.OnsetClearDetector`, whose onsets and
clears open and close controller episodes.  Window state is sharded by
pod — the shard map is what a scaled-out deployment would partition
across ingestion workers, and the per-shard sizes are exported as
service gauges.
"""

from __future__ import annotations

from typing import Dict, List

from ..fleet.controller import ControllerConfig
from ..fleet.driver import ControllerDriver
from ..fleet.topology import FleetTopology
from ..monitor.corruptd import LossWindow
from .telemetry import TelemetryRecord

__all__ = ["StreamingArbiter"]


class StreamingArbiter(ControllerDriver):
    """Drives a :class:`FleetController` from a live counter stream."""

    #: stamped on every decision record; the
    #: :class:`~repro.blame.adapter.BlameMonitor` stamps ``"voting"``
    evidence = "port_counters"

    def __init__(self, topology: FleetTopology, config: ControllerConfig,
                 policy: str = "incremental", *,
                 window_frames: int = 10_000_000, **driver_kwargs) -> None:
        super().__init__(topology, config, policy, **driver_kwargs)
        self.window_frames = int(window_frames)
        #: pod -> link_id -> LossWindow; the shard map
        self.shards: Dict[int, Dict[int, LossWindow]] = {}

    # -- state access ---------------------------------------------------------

    def window(self, link_id: int) -> LossWindow:
        shard = self.shards.setdefault(self.topology.link(link_id).pod, {})
        window = shard.get(link_id)
        if window is None:
            window = shard[link_id] = LossWindow(self.window_frames)
        return window

    def loss_estimate(self, link_id: int) -> float:
        return self.window(link_id).loss_rate() or 0.0

    def tracked_links(self) -> int:
        return sum(len(shard) for shard in self.shards.values())

    def shard_sizes(self) -> Dict[int, int]:
        return {pod: len(shard) for pod, shard in sorted(self.shards.items())}

    # -- the streaming transition function ------------------------------------

    def observe(self, record: TelemetryRecord) -> List[dict]:
        """Fold one counter snapshot in; return any new decisions."""
        if record.link_id >= self.topology.n_links:
            self.rejected += 1
            return []
        self.records_seen += 1
        self.last_record_s = record.time_s
        window = self.window(record.link_id)
        window.observe(record.rx_all, record.rx_ok)
        loss = window.loss_rate()
        if loss is None:
            return []
        if self.detector.observe(record.link_id, loss, record.time_s):
            return self._drain_decisions()
        return []
