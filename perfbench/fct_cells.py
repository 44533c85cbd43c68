"""fct-143b-lg and fct-2mb-lg: back-to-back DCTCP flows behind an LG link.

One operation is one ``run_cell`` of ``kind="fct"`` on the packet
backend with a few trials; every operation gets its own seed derived
from the benchmark seed, so a run is a stream of independent cells of
the same shape.
"""

from __future__ import annotations

import time
from typing import Dict, List

from measure import (HostSpeed, Metrics, Outcome, derive_seed,
                     latency_metrics, sha256, timed_loop)
from tracing import PACKAGES, DispatchProbe, SpanRecorder

#: the paper's RTO floor: an LG-masked loss must finish well below it
RTO_FLOOR_US = 1000.0
#: operations whose canonical output the digest covers (always run)
DIGEST_OPS = 3

SHAPES: Dict[str, dict] = {
    # Fig 10 cell: single-packet flows; LG's idle dummy/ACK frames are
    # ~95% of the dispatched events.
    "fct-143b-lg": {"flow_size": 143, "loss_rate": 5e-3, "trials": 50,
                    "traced_cells": 24},
    # Fig 12 cell: the protected link carries data all the time.
    "fct-2mb-lg": {"flow_size": 2_000_000, "loss_rate": 1e-3, "trials": 1,
                   "traced_cells": 8},
}


class FctWorkload:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.shape = SHAPES[name]

    def spec(self, index: int):
        from repro.runner.spec import ExperimentSpec

        return ExperimentSpec(
            kind="fct", transport="dctcp", scenario="lg",
            flow_size=self.shape["flow_size"],
            loss_rate=self.shape["loss_rate"],
            n_trials=self.shape["trials"], rate_gbps=100.0,
            seed=derive_seed(self.seed, self.name, index),
            backend="packet")

    def inputs(self) -> List[str]:
        """The first generated inputs (specs), for the determinism tests."""
        return [self.spec(i).canonical_json() for i in range(DIGEST_OPS)]

    def setup(self) -> None:
        """Imports plus one small warm-up cell (not a measured input)."""
        from repro.runner.cells import run_cell

        run_cell(self.spec(-1).with_(n_trials=1))

    def run_op(self, index: int, obs=None):
        from repro.runner.cells import run_cell

        return run_cell(self.spec(index), obs=obs)

    def check(self, cell, outcome: Outcome) -> None:
        metrics = cell.metrics
        trials = self.shape["trials"]
        outcome.attempt(trials)
        incomplete = int(metrics["incomplete"])
        outcome.check(incomplete == 0,
                      f"{cell.cell_id}: {incomplete} incomplete trials",
                      n=incomplete)
        outcome.check(
            metrics["p99.9_us"] < RTO_FLOOR_US,
            f"{cell.cell_id}: LG p99.9 FCT {metrics['p99.9_us']:.1f} us "
            f">= RTO floor {RTO_FLOOR_US} us", n=trials - incomplete)

    @staticmethod
    def digest(cells) -> str:
        return sha256(cell.canonical_json() for cell in cells[:DIGEST_OPS])

    # -- untraced -----------------------------------------------------------

    def measure(self, seconds: float, speed: HostSpeed, outcome: Outcome,
                metrics: Metrics, lines: List[str]) -> None:
        walls, cells = timed_loop(self.run_op, seconds, speed,
                                  min_ops=DIGEST_OPS)
        for cell in cells:
            self.check(cell, outcome)
        trials = self.shape["trials"] * len(cells)
        metrics.put("throughput_per_s", trials / sum(walls),
                    f"FCT trials per host second, {trials} trials")
        latency_metrics(metrics, walls,
                        f"one {self.shape['trials']}-trial cell")
        lines.append(f"{self.name} digest sha256={self.digest(cells)} "
                     f"(first {DIGEST_OPS} cells)")

    # -- traced -------------------------------------------------------------

    def trace(self, seconds: float, speed: HostSpeed, outcome: Outcome,
              metrics: Metrics, lines: List[str],
              spans: SpanRecorder) -> dict:
        """A fixed set of cells untraced, then the same cells traced, so
        the per-layer counts repeat exactly across runs."""
        from repro.obs import Observability

        n_ops = self.shape["traced_cells"]
        walls, plain = timed_loop(self.run_op, 0, speed, min_ops=n_ops,
                                  max_ops=n_ops)
        probe = DispatchProbe()
        lg = {"dummies": 0, "acks": 0, "protected": 0, "retx_copies": 0,
              "loss_events": 0}
        affected = 0
        traced = []
        traced_wall = 0.0
        probe.install()
        try:
            for index in range(n_ops):
                obs = Observability(tracing=False)
                t0 = time.perf_counter()
                with spans.op(f"batch-{index}", "fct.cell"):
                    cell = self.run_op(index, obs=obs)
                t1 = time.perf_counter()
                probe.harvest()
                speed.calibrate()
                traced_wall += speed.scale(t0, t1)
                traced.append(cell)
                affected += int(cell.metrics.get("affected", 0))
                _fold_lg(obs.registry.snapshot(), lg)
        finally:
            probe.uninstall()
        for cell in traced:
            self.check(cell, outcome)
        plain_digest = sha256(c.canonical_json() for c in plain)
        traced_digest = sha256(c.canonical_json() for c in traced)
        outcome.check(plain_digest == traced_digest,
                      "traced cells differ from untraced cells",
                      n=n_ops)
        trials = self.shape["trials"] * n_ops
        events = probe.events
        metrics.put("core.events_per_trial", events / trials,
                    f"{events} events over {trials} trials")
        metrics.put("core.events_per_s", events / sum(walls),
                    "traced count / untraced wall of the same cells")
        metrics.put("core.cancelled_per_trial", probe.cancelled / trials)
        metrics.put("core.heap_high_watermark", probe.heap_high_watermark)
        metrics.put("core.dispatch_overhead_s", probe.dispatch_overhead_s,
                    f"{probe.step_calls} steps")
        for package in PACKAGES:
            count, secs = probe.package(package)
            metrics.put(f"{package}.events_per_trial", count / trials)
            metrics.put(f"{package}.callback_s", secs)
        metrics.put("linkguardian.idle_frames_per_trial",
                    (lg["dummies"] + lg["acks"]) / trials)
        frames = lg["protected"] + lg["dummies"] + lg["retx_copies"]
        metrics.put("linkguardian.useful_frame_ratio",
                    lg["protected"] / frames if frames else 0.0)
        metrics.put("linkguardian.retx_copies_per_loss",
                    lg["retx_copies"] / lg["loss_events"]
                    if lg["loss_events"] else 0.0,
                    f"{lg['loss_events']} losses")
        metrics.put("transport.affected_flows", affected)
        lines.append(f"{self.name} digest sha256={self.digest(traced)} "
                     f"(traced == untraced over {n_ops} cells: "
                     f"{plain_digest == traced_digest})")
        by_package = {name: {"events": c, "callback_s": s}
                      for name, (c, s) in sorted(probe.by_package.items())}
        for name, row in by_package.items():
            lines.append(f"  dispatch {name:<14} events={row['events']:>9} "
                         f"callback_s={row['callback_s']:.3f}")
        return {"untraced_s": sum(walls), "traced_s": traced_wall,
                "dispatch": by_package}


def _fold_lg(snapshot: dict, totals: dict) -> None:
    """Sum the ``lg.sender.*``/``lg.receiver.*`` provider counters."""
    for name, values in snapshot.items():
        if not isinstance(values, dict):
            continue
        if name.startswith("lg.sender."):
            totals["dummies"] += values.get("dummies_sent", 0)
            totals["protected"] += values.get("protected", 0)
            totals["retx_copies"] += values.get("retx_copies", 0)
        elif name.startswith("lg.receiver."):
            totals["acks"] += values.get("explicit_acks", 0)
            totals["loss_events"] += values.get("loss_events", 0)
