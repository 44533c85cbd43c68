"""hybrid-grid: the 200-cell validation grid on ``backend="hybrid"``.

The grid is ``repro.fastpath.validate.default_grid(seed=1)``, the one
the hybrid backend was validated on; the benchmark seed picks the order
its cells run in.  Every hybrid cell is checked against the stored
packet-backend reference for the same cell (``reference/grid_1.json``,
made by ``make_reference.py``) within
``repro.fastpath.validate.TOLERANCES``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List

from measure import (HERE, HostSpeed, Metrics, Outcome, derive_seed,
                     latency_metrics, sha256)
from tracing import PACKAGES, DispatchProbe, Patches, SpanRecorder

#: the validated grid, whose packet reference is stored
GRID_SEED = 1
KINDS = ("fct", "stress", "goodput")


def reference_path(grid_seed: int) -> str:
    return os.path.join(HERE, "reference", f"grid_{grid_seed}.json")


class HybridGridWorkload:
    name = "hybrid-grid"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = []
        self.order: List[int] = []
        self.reference: Dict[str, dict] = {}

    def inputs(self) -> List[str]:
        self.generate()
        return [self.specs[i].canonical_json() for i in self.order]

    def generate(self) -> None:
        import numpy as np
        from repro.fastpath.validate import default_grid

        self.specs = [s.with_(backend="hybrid")
                      for s in default_grid(seed=GRID_SEED)]
        rng = np.random.default_rng(derive_seed(self.seed, "hybrid-grid.order"))
        self.order = [int(i) for i in rng.permutation(len(self.specs))]

    def setup(self) -> None:
        from repro.runner.cells import run_cell
        from repro.runner.spec import ExperimentSpec

        self.generate()
        with open(reference_path(GRID_SEED)) as handle:
            self.reference = json.load(handle)["cells"]
        # Warm-up on a cell outside the grid (imports, first-call costs).
        run_cell(ExperimentSpec(kind="fct", scenario="lg", flow_size=143,
                                loss_rate=1e-3, n_trials=4, seed=0,
                                backend="hybrid"))

    def run_pass(self, speed: HostSpeed, walls: List[float],
                 results: Dict[int, object]) -> None:
        """One pass in seeded order; ``walls`` get reference-speed times.
        ``run_cell`` is looked up per call so the traced run's wrapper
        applies."""
        import repro.runner.cells as cells

        spans = []
        speed.calibrate()
        for index in self.order:
            started = time.perf_counter()
            results[index] = cells.run_cell(self.specs[index])
            spans.append((started, time.perf_counter()))
            speed.tick()
        speed.calibrate()
        walls.extend(speed.scale(t0, t1) for t0, t1 in spans)

    def check(self, results: Dict[int, object], outcome: Outcome) -> None:
        from repro.fastpath.validate import TOLERANCES, _compare_cell
        from repro.runner.harness import CellResult

        for index, spec in enumerate(self.specs):
            outcome.attempt()
            result = results[index]
            # stored under the packet cell's id (the id covers the backend)
            ref = self.reference.get(spec.with_(backend="packet").cell_id())
            if ref is None:
                outcome.fail(f"{spec.cell_id()}: no packet reference")
                continue
            packet = CellResult(cell_id=spec.cell_id(), spec=spec.to_dict(),
                                metrics=ref["metrics"], series=ref["series"])
            bad = [f"{metric} err {error:.3f} > {TOLERANCES[metric][0]}"
                   for metric, error in _compare_cell(spec, result, packet)
                   if error is not None
                   and error > TOLERANCES[metric][0] + 1e-12]
            outcome.check(not bad, f"{spec.cell_id()}: {'; '.join(bad)}")

    def digest(self, results: Dict[int, object]) -> str:
        return sha256(results[i].canonical_json()
                      for i in range(len(self.specs)))

    # -- untraced -----------------------------------------------------------

    def measure(self, seconds: float, speed: HostSpeed, outcome: Outcome,
                metrics: Metrics, lines: List[str]) -> None:
        """One pass over the grid (~15 s on a 2-core container), whatever
        ``seconds`` asks: a partial pass would change the cell mix."""
        walls: List[float] = []
        results: Dict[int, object] = {}
        self.run_pass(speed, walls, results)
        self.check(results, outcome)
        metrics.put("throughput_per_s", len(walls) / sum(walls),
                    f"grid cells per host second, {len(walls)} cells of "
                    f"grid {GRID_SEED}")
        latency_metrics(metrics, walls, "one hybrid cell")
        lines.append(f"{self.name} digest sha256={self.digest(results)} "
                     f"(grid {GRID_SEED}, {len(self.specs)} cells)")

    # -- traced -------------------------------------------------------------

    def trace(self, seconds: float, speed: HostSpeed, outcome: Outcome,
              metrics: Metrics, lines: List[str],
              spans: SpanRecorder) -> dict:
        """One untraced pass, then one traced pass over the same grid."""
        import repro.fastpath.splice as splice
        import repro.runner.cells as cells

        plain_walls: List[float] = []
        plain: Dict[int, object] = {}
        self.run_pass(speed, plain_walls, plain)

        probe = DispatchProbe()
        patches = Patches()
        fallback = {"cells": 0}
        hybrid_cell = splice.run_hybrid_cell
        packet_cell = cells.run_cell

        def run_hybrid_cell(spec):
            name = f"fastpath.hybrid_cell.{spec.kind}"
            with spans.span(name):
                return hybrid_cell(spec)

        position = {id(spec): index for index, spec in enumerate(self.specs)}

        def run_cell(spec, obs=None):
            index = position.get(id(spec))
            if index is not None:       # a grid cell, from run_pass
                with spans.op(f"cell-{index}", "grid.cell"):
                    result = packet_cell(spec, obs=obs)
                probe.harvest()
                return result
            fallback["cells"] += 1      # the hybrid backend fell back
            with spans.span("fastpath.packet_fallback"):
                return packet_cell(spec, obs=obs)

        traced_walls: List[float] = []
        traced: Dict[int, object] = {}
        probe.install()
        patches.function(hybrid_cell, run_hybrid_cell)
        patches.function(packet_cell, run_cell)
        try:
            self.run_pass(speed, traced_walls, traced)
        finally:
            patches.undo()
            probe.uninstall()
        traced_wall = sum(traced_walls)

        self.check(traced, outcome)
        same = self.digest(plain) == self.digest(traced)
        outcome.check(same, "traced grid differs from untraced grid",
                      n=len(self.specs))
        n_cells = len(self.specs)
        metrics.put("core.events_per_cell", probe.events / n_cells,
                    f"{probe.events} events over {n_cells} cells")
        metrics.put("core.events_per_s", probe.events / sum(plain_walls),
                    "traced count / untraced wall of the same cells")
        metrics.put("core.heap_high_watermark", probe.heap_high_watermark)
        metrics.put("core.dispatch_overhead_s", probe.dispatch_overhead_s,
                    f"{probe.step_calls} steps")
        for package in PACKAGES:
            metrics.put(f"{package}.callback_s", probe.package(package)[1])
        for kind in KINDS:
            walls = spans.durations(f"fastpath.hybrid_cell.{kind}")
            metrics.put(f"fastpath.{kind}_cell_ms_p50",
                        statistics.median(walls) * 1e3 if walls else 0.0,
                        f"n={len(walls)}")
        metrics.put("fastpath.packet_fallback_cells", fallback["cells"])
        metrics.put("fastpath.packet_fallback_s",
                    spans.total("fastpath.packet_fallback"))
        lines.append(f"{self.name} digest sha256={self.digest(traced)} "
                     f"(traced == untraced: {same})")
        return {"untraced_s": sum(plain_walls), "traced_s": traced_wall,
                "dispatch": {name: {"events": c, "callback_s": s}
                             for name, (c, s)
                             in sorted(probe.by_package.items())}}
