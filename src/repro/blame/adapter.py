"""BlameMonitor: 007 voting as an estimator for the shared detector.

The monitor is the drop-in replacement for the port-counter path: where
the service's :class:`~repro.service.arbiter.StreamingArbiter` folds
counter snapshots into per-link :class:`LossWindow` estimates, the
BlameMonitor folds **flow reports** into a sliding evidence window and
re-runs the 007 vote at a fixed cadence.  Both feed the same
:class:`~repro.fleet.driver.ControllerDriver` and its onset/clear
detector, so the policy, capacity checks, budget accounting, and
decision audit trail are byte-for-byte the machinery the oracle path
uses; only the ``evidence`` label on each decision record differs
(``"voting"`` here, ``"port_counters"`` there).

Each vote hands the detector the open links first — their inverted
loss estimate, or 0.0 once they leave the blamed set — then the rest
of the blamed set in vote order.  A link clears when it leaves the
blamed set or drops through the hysteresis band, with the extra lag
that flagged flows take up to ``window_s`` to age out of the evidence
window after the link actually heals.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..fleet.controller import ControllerConfig, FleetController
from ..fleet.driver import ControllerDriver
from ..fleet.policies import fleet_policy
from ..fleet.topology import FleetSpec, FleetTopology
from ..obs.trace import NULL_TRACER
from .evidence import FlowReport
from .voting import BlameReport, tally_votes

__all__ = [
    "BlameMonitor", "decision_signature", "run_oracle", "run_voting",
]


class BlameMonitor(ControllerDriver):
    """Drives a :class:`FleetController` from a live flow-report stream."""

    evidence = "voting"

    def __init__(self, topology: FleetTopology, config: ControllerConfig,
                 policy: str = "incremental", *,
                 window_s: float = 60.0,
                 eval_interval_s: Optional[float] = None,
                 flow_packets: int = 100,
                 min_votes: float = 2.0,
                 obs=None, **driver_kwargs) -> None:
        super().__init__(topology, config, policy, obs=obs, **driver_kwargs)
        self.window_s = float(window_s)
        self.eval_interval_s = (float(eval_interval_s)
                                if eval_interval_s is not None
                                else self.window_s / 4.0)
        if self.window_s <= 0 or self.eval_interval_s <= 0:
            raise ValueError("window_s and eval_interval_s must be positive")
        self.flow_packets = int(flow_packets)
        self.min_votes = float(min_votes)
        self._reports: Deque[FlowReport] = deque()
        self._estimates: Dict[int, float] = {}
        self._next_eval_s: Optional[float] = None
        self.last_verdict: Optional[BlameReport] = None
        self.flagged_seen = 0
        self.evaluations = 0
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._counters = None
        if obs is not None:
            registry = obs.registry
            self._counters = {
                name: registry.counter(f"blame.monitor.{name}")
                for name in ("reports", "flagged", "onsets", "clears",
                             "evaluations")
            }

    # -- state access ----------------------------------------------------------

    def loss_estimate(self, link_id: int) -> float:
        return self._estimates.get(link_id, 0.0)

    def tracked_links(self) -> int:
        links = set()
        for report in self._reports:
            links.update(report.path)
        return len(links)

    def shard_sizes(self) -> Dict[int, int]:
        """Links under evidence in the current window, grouped by pod."""
        by_pod: Dict[int, set] = {}
        for report in self._reports:
            for link_id in report.path:
                pod = self.topology.link(link_id).pod
                by_pod.setdefault(pod, set()).add(link_id)
        return {pod: len(links) for pod, links in sorted(by_pod.items())}

    # -- the streaming transition function -------------------------------------

    def observe(self, report: FlowReport) -> List[dict]:
        """Fold one flow report in; return any new decisions."""
        if any(link >= self.topology.n_links or link < 0
               for link in report.path):
            self.rejected += 1
            return []
        self.records_seen += 1
        if report.retx:
            self.flagged_seen += 1
        if self._counters is not None:
            self._counters["reports"].inc()
            if report.retx:
                self._counters["flagged"].inc()
        self.last_record_s = report.time_s
        self._reports.append(report)
        horizon = report.time_s - self.window_s
        while self._reports and self._reports[0].time_s < horizon:
            self._reports.popleft()
        if self._next_eval_s is None:
            self._next_eval_s = report.time_s + self.eval_interval_s
        if report.time_s >= self._next_eval_s:
            self._reevaluate(report.time_s)
            self._next_eval_s = report.time_s + self.eval_interval_s
        return self._drain_decisions()

    def flush(self, time_s: Optional[float] = None) -> List[dict]:
        """Force an immediate re-vote (end of a feed, tests, drain)."""
        self._reevaluate(time_s if time_s is not None else self.last_record_s)
        return self._drain_decisions()

    def _reevaluate(self, now_s: float) -> None:
        self.evaluations += 1
        if self._counters is not None:
            self._counters["evaluations"].inc()
        verdict = tally_votes(
            self._reports, flow_packets=self.flow_packets,
            min_votes=self.min_votes)
        self.last_verdict = verdict
        self._estimates = {
            score.link_id: score.loss_estimate for score in verdict.ranked}
        blamed = {link_id: self.loss_estimate(link_id)
                  for link_id in verdict.blamed}
        self.detector.update(
            now_s, {**dict.fromkeys(self.detector.open, 0.0), **blamed})

    def _on_onset(self, link_id: int, estimate: float, now_s: float) -> int:
        index = super()._on_onset(link_id, estimate, now_s)
        if self._counters is not None:
            self._counters["onsets"].inc()
        if self._tracer.enabled:
            score = self.last_verdict.score_for(link_id)
            self._tracer.instant(int(now_s * 1e9), "blame", "onset", {
                "link": link_id, "loss_estimate": estimate,
                "votes": score.votes if score else 0.0,
            })
        return index

    def _on_clear(self, link_id: int, episode_index: int, estimate: float,
                  now_s: float) -> None:
        super()._on_clear(link_id, episode_index, estimate, now_s)
        if self._counters is not None:
            self._counters["clears"].inc()
        if self._tracer.enabled:
            self._tracer.instant(int(now_s * 1e9), "blame", "clear", {
                "link": link_id, "loss_estimate": self.loss_estimate(link_id),
            })

    # -- summaries -------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return {**super().counts(), "reports_flagged": self.flagged_seen,
                "evaluations": self.evaluations}

    def state_dict(self) -> dict:
        verdict = self.last_verdict
        return {**super().state_dict(), "last_verdict": (
            verdict.to_dict() if verdict is not None else None)}


# ---------------------------------------------------------------------------
# Oracle comparison: does voting reach the counters' verdicts?
# ---------------------------------------------------------------------------

def decision_signature(decisions) -> List[Tuple[int, str]]:
    """The policy-visible core of a decision stream: (link, action).

    Times and loss rates are excluded on purpose — the voting path sees
    onsets later (evidence must accumulate) and estimates loss rather
    than measuring it, but *which link* got *which remedy* must match
    the oracle within hysteresis.
    """
    out = []
    for decision in decisions:
        if isinstance(decision, dict):
            link_id, action = decision["link_id"], decision["action"]
        else:
            link_id, action = decision.link_id, decision.action
        if action != "clear":
            out.append((link_id, action))
    return out


def run_oracle(fleet: FleetSpec, seed: int, config: ControllerConfig,
               policy: str, episodes) -> List[Tuple[int, str]]:
    """Batch-arbitrate ground-truth episodes on a fresh topology."""
    topology = FleetTopology(fleet, seed=seed)
    controller = FleetController(topology, config, fleet_policy(policy))
    outcome = controller.run(list(episodes))
    return decision_signature(outcome.decisions)


def run_voting(fleet: FleetSpec, seed: int, config: ControllerConfig,
               policy: str, reports, **monitor_kwargs) -> BlameMonitor:
    """Feed a report stream through a fresh BlameMonitor; returns it.

    A final :meth:`BlameMonitor.flush` runs so evidence at the tail of
    the stream still reaches a verdict.
    """
    topology = FleetTopology(fleet, seed=seed)
    monitor = BlameMonitor(topology, config, policy, **monitor_kwargs)
    for report in reports:
        monitor.observe(report)
    monitor.flush()
    return monitor
