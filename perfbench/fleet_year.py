"""fleet-year: fleet history of a 1024-link fleet, three ways.

One iteration calls each fleet-history entry point once on the same
fleet shape for one quarter (91 days): ``lifecycle.run_replay``, the
CorrOpt deployment comparison (Fig 15/16) and
``fleet.campaign.run_fleet_campaign``.  Iteration ``k`` draws its traces
from a seed derived from the benchmark seed; a 10-second run covers
four or more iterations, a year of fleet time per entry point.  The
packet engine is never touched.  (Quarter-long calls rather than one
year-long call keep each timed call short enough for the host-speed
calibration between calls to track the host.)
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import List

from measure import (HostSpeed, Metrics, Outcome, derive_seed,
                     latency_metrics, sha256)
from tracing import Patches, SpanRecorder

#: 8 pods x 16 ToRs x 4 fabrics x 16 spine uplinks = 1024 links
SHAPE = {"n_pods": 8, "tors_per_pod": 16, "fabrics_per_pod": 4,
         "spine_uplinks": 16}
#: simulated days per entry-point call
DAYS = 91
ENTRY_POINTS = ("replay", "deployment", "campaign")


def _array_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


class FleetYearWorkload:
    name = "fleet-year"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def iteration_seed(self, k: int) -> int:
        # the deployment simulator wants a small non-negative int seed
        return derive_seed(self.seed, "fleet-year", k) % (2 ** 31)

    def fleet(self):
        from repro.fleet.topology import FleetSpec

        return FleetSpec(**SHAPE)

    def inputs(self) -> List[str]:
        """The first rounds' trace specs, for the determinism tests."""
        from repro.lifecycle.traces import TraceSpec

        return [json.dumps(TraceSpec(fleet=self.fleet(), duration_days=DAYS,
                                     seed=self.iteration_seed(k)).to_dict(),
                           sort_keys=True)
                for k in range(2)]

    def setup(self) -> None:
        """Imports plus a two-day warm-up on a small fleet."""
        import repro.experiments.deployment  # noqa: F401
        from repro.fleet.campaign import FleetCampaignSpec, run_fleet_campaign
        from repro.fleet.topology import FleetSpec
        from repro.lifecycle.replay import ReplaySpec, run_replay
        from repro.lifecycle.traces import TraceSpec

        small = FleetSpec(n_pods=1, tors_per_pod=2, fabrics_per_pod=2,
                          spine_uplinks=2)
        run_replay(ReplaySpec(trace=TraceSpec(fleet=small, duration_days=2)))
        run_fleet_campaign(FleetCampaignSpec(fleet=small, duration_days=2))

    def call(self, entry: str, k: int):
        """One entry-point call; returns its canonical output string."""
        import repro.experiments.deployment as deployment
        import repro.fleet.campaign as campaign
        import repro.lifecycle.replay as replay
        from repro.lifecycle.traces import TraceSpec

        seed = self.iteration_seed(k)
        if entry == "replay":
            result = replay.run_replay(replay.ReplaySpec(
                trace=TraceSpec(fleet=self.fleet(), duration_days=DAYS,
                                seed=seed)))
            return result, result.canonical_json()
        if entry == "deployment":
            result = deployment.run_deployment_comparison(
                **SHAPE, duration_days=float(DAYS), seed=seed)
            canonical = json.dumps({
                "summary": result.summary(),
                "vanilla": _array_digest(result.vanilla.times_s,
                                         result.vanilla.total_penalty),
                "combined": _array_digest(result.combined.times_s,
                                          result.combined.total_penalty),
            }, sort_keys=True)
            return result, canonical
        result = campaign.run_fleet_campaign(campaign.FleetCampaignSpec(
            fleet=self.fleet(), duration_days=float(DAYS), seed=seed))
        return result, result.canonical_json()

    def check(self, entry: str, result, outcome: Outcome) -> None:
        outcome.attempt()
        if entry == "deployment":
            vanilla = float(result.vanilla.total_penalty.sum())
            combined = float(result.combined.total_penalty.sum())
            outcome.check(combined <= vanilla,
                          f"LG+CorrOpt penalty {combined:g} > "
                          f"CorrOpt-only {vanilla:g}")
            return
        bad = {name: value for name, value in result.slos.items()
               if "attainment" in name and not 0.0 <= value <= 1.0}
        outcome.check(not bad, f"{entry}: SLO attainment outside [0, 1]: "
                               f"{bad}")

    def run_iterations(self, seconds: float, speed: HostSpeed,
                       outcome: Outcome, iterations: int = 0):
        """Whole iterations until ``seconds`` have passed (at least one),
        or exactly ``iterations`` when given.  Returns reference-speed
        walls and the canonical outputs, one per call."""
        spans: List[tuple] = []
        canon: List[str] = []
        started = time.perf_counter()
        speed.calibrate()
        k = 0
        while (k < iterations if iterations
               else k == 0 or time.perf_counter() - started < seconds):
            for entry in ENTRY_POINTS:
                t0 = time.perf_counter()
                result, canonical = self.call(entry, k)
                spans.append((t0, time.perf_counter()))
                speed.calibrate()
                self.check(entry, result, outcome)
                canon.append(canonical)
            k += 1
        return [speed.scale(t0, t1) for t0, t1 in spans], canon

    # -- untraced -----------------------------------------------------------

    def measure(self, seconds: float, speed: HostSpeed, outcome: Outcome,
                metrics: Metrics, lines: List[str]) -> None:
        walls, canon = self.run_iterations(seconds, speed, outcome)
        link_days = 1024 * DAYS * len(walls)
        metrics.put("throughput_per_s", link_days / sum(walls),
                    f"simulated link-days per host second, "
                    f"{len(walls)} entry-point calls")
        latency_metrics(metrics, walls, "one entry-point call")
        lines.append(f"{self.name} digest sha256="
                     f"{sha256(canon[:len(ENTRY_POINTS)])} (iteration 0)")

    # -- traced -------------------------------------------------------------

    def trace(self, seconds: float, speed: HostSpeed, outcome: Outcome,
              metrics: Metrics, lines: List[str],
              spans: SpanRecorder) -> dict:
        """Iteration 0 untraced, then again with stage spans."""
        import repro.experiments.deployment as deployment
        import repro.fleet.campaign as campaign
        import repro.fleet.topology as topology
        import repro.lifecycle.repair as repair
        import repro.lifecycle.replay as replay
        from repro.corropt.simulation import DeploymentSimulation
        from repro.fleet.controller import FleetController
        from repro.lifecycle.traces import LifecycleTrace

        plain_walls, plain = self.run_iterations(0, speed, Outcome(),
                                                 iterations=1)

        episodes = {"arbitrated": 0, "sampled": 0}
        arbitrate = FleetController.run
        sample = topology.sample_affected_fraction

        def run(controller, batch):
            episodes["arbitrated"] += len(batch)
            with spans.span("fleet.arbitration"):
                return arbitrate(controller, batch)

        def sample_affected_fraction(*args, **kwargs):
            episodes["sampled"] += 1
            with spans.span("fleet.sample"):
                return sample(*args, **kwargs)

        patches = Patches()
        patches.function(replay.run_replay,
                         spans.wrap("lifecycle.replay", replay.run_replay))
        patches.function(deployment.run_deployment_comparison,
                         spans.wrap("corropt.deployment",
                                    deployment.run_deployment_comparison))
        patches.function(campaign.run_fleet_campaign,
                         spans.wrap("fleet.campaign",
                                    campaign.run_fleet_campaign))
        patches.function(repair.apply_repair,
                         spans.wrap("lifecycle.repair", repair.apply_repair))
        patches.function(sample, sample_affected_fraction)
        generate = LifecycleTrace.__dict__["generate"].__func__
        patches.set(LifecycleTrace, "generate",
                    classmethod(spans.wrap("lifecycle.trace", generate)))
        patches.set(FleetController, "run", run)
        patches.set(DeploymentSimulation, "run",
                    spans.wrap("corropt.simulation", DeploymentSimulation.run))
        try:
            traced_walls, traced = self.run_iterations(
                0, speed, outcome, iterations=1)
        finally:
            patches.undo()
        same = sha256(plain) == sha256(traced)
        outcome.check(same, "traced iteration differs from untraced")
        metrics.put("lifecycle.replay_s", spans.total("lifecycle.replay"))
        metrics.put("corropt.deployment_s", spans.total("corropt.deployment"))
        metrics.put("fleet.campaign_s", spans.total("fleet.campaign"))
        metrics.put("lifecycle.trace_s", spans.total("lifecycle.trace"))
        metrics.put("lifecycle.repair_s", spans.total("lifecycle.repair"))
        metrics.put("fleet.arbitration_s", spans.total("fleet.arbitration"))
        metrics.put("fleet.sample_s", spans.total("fleet.sample"))
        metrics.put("fleet.sampled_episodes", episodes["sampled"])
        metrics.put("fleet.episodes", episodes["arbitrated"],
                    "episodes handed to FleetController.run")
        lines.append(f"{self.name} digest sha256={sha256(traced)} "
                     f"(traced == untraced: {same})")
        return {"untraced_s": sum(plain_walls), "traced_s": sum(traced_walls)}
