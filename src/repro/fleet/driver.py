"""ControllerDriver: one onset/clear detector driving a live FleetController.

The shared half of both streaming arbiters — the port-counter
:class:`~repro.service.arbiter.StreamingArbiter` and the 007-voting
:class:`~repro.blame.adapter.BlameMonitor`.  Each is an estimator that
feeds :attr:`ControllerDriver.detector`; the driver turns onsets and
clears into :meth:`FleetController.stream_onset` / :meth:`stream_clear`
calls, logs the decisions stamped with the subclass's ``evidence``
label, and keeps the counters and summaries behind ``GET /state``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..monitor.detector import OnsetClearDetector
from .controller import ControllerConfig, FleetController
from .policies import fleet_policy
from .topology import CorruptionEpisode, FleetTopology

__all__ = ["ControllerDriver"]


class ControllerDriver:
    """Drives a :class:`FleetController` from a stream of loss estimates.

    Subclasses set ``evidence``, feed :attr:`detector`, and provide
    ``loss_estimate(link_id)`` (the latest estimate, 0.0 if none),
    ``tracked_links()`` and ``shard_sizes()``.
    """

    def __init__(self, topology: FleetTopology, config: ControllerConfig,
                 policy: str = "incremental", *,
                 onset_threshold: float = 1e-6,
                 clear_hysteresis: float = 0.1,
                 decision_log: int = 1024,
                 mean_burst: float = 1.0,
                 obs=None) -> None:
        self.topology = topology
        self.controller = FleetController(
            topology, config, fleet_policy(policy), obs=obs)
        self.mean_burst = float(mean_burst)
        self.detector = OnsetClearDetector(
            onset_threshold, clear_hysteresis, self._on_onset, self._on_clear)
        self.decisions: Deque[dict] = deque(maxlen=int(decision_log))
        self._decision_cursor = 0
        self.records_seen = 0
        self.rejected = 0
        self.last_record_s = 0.0

    onsets = property(lambda self: self.detector.onsets)
    clears = property(lambda self: self.detector.clears)

    def _on_onset(self, link_id: int, estimate: float, now_s: float) -> int:
        return self.controller.stream_onset(CorruptionEpisode(
            link_id=link_id, onset_s=now_s, clear_s=math.inf,
            loss_rate=estimate, mean_burst=self.mean_burst))

    def _on_clear(self, link_id: int, episode_index: int, estimate: float,
                  now_s: float) -> None:
        self.controller.stream_clear(episode_index, now_s)

    def _drain_decisions(self) -> List[dict]:
        """New controller decisions since the last drain, as dicts."""
        log = self.controller.outcome.decisions
        if self._decision_cursor == len(log):
            return []
        fresh = [{"time_s": decision.time_s, "link_id": decision.link_id,
                  "action": decision.action, "loss_rate": decision.loss_rate,
                  "evidence": self.evidence}
                 for decision in log[self._decision_cursor:]]
        self._decision_cursor = len(log)
        self.decisions.extend(fresh)
        return fresh

    def flush(self, time_s: Optional[float] = None) -> List[dict]:
        """Settle pending evidence (end of a feed, drain); new decisions."""
        return self._drain_decisions()

    def corrupting_links(self) -> List[Tuple[int, float]]:
        return sorted((link_id, self.loss_estimate(link_id))
                      for link_id in self.detector.open)

    def counts(self) -> Dict[str, int]:
        return {
            **self.controller.outcome.counts(),
            "records_seen": self.records_seen,
            "records_rejected": self.rejected,
            "onsets": self.onsets,
            "clears": self.clears,
            "tracked_links": self.tracked_links(),
            "open_episodes": len(self.detector.open),
        }

    def state_dict(self) -> dict:
        """A JSON-able snapshot of the arbitration state (GET /state)."""
        return {
            "evidence": self.evidence,
            "counts": self.counts(),
            "shard_sizes": self.shard_sizes(),
            "corrupting": [
                {"link_id": link_id, "loss_estimate": loss}
                for link_id, loss in self.corrupting_links()
            ],
            "lg_active": self.controller.lg_active_links(),
            "exposed": self.controller.exposed_links(),
            "last_record_s": self.last_record_s,
        }
