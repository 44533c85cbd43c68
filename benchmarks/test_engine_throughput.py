"""Event-kernel throughput, plus hybrid-cell gain.

Two workloads drive the raw kernel (no protocol code, just scheduling):

* *streaming* — every event schedules its successor a fixed spacing
  ahead, the shape of line-rate packet serialization chains;
* *timer-heavy* — each event also arms a far-future timer that is
  cancelled before it fires, the shape of per-packet retransmission /
  ackNoTimeout timers: the workload eager tombstone compaction exists
  for.

A third measurement times one fig10-style sparse-loss FCT cell on the
packet and hybrid backends — the end-to-end gain the kernel and the
snapshot machinery buy through ``repro.fastpath.splice``.
"""

import time

from _report import emit, header, save_json, table

from repro.core.engine import Simulator
from repro.core.rng import RngFactory
from repro.runner.cells import run_cell
from repro.runner.spec import ExperimentSpec

N_EVENTS = 200_000
TIMER_HORIZON_NS = 1_000_000
SPACING_NS = 123

FIG10 = ExperimentSpec(
    kind="fct", transport="dctcp", scenario="lg", flow_size=143,
    loss_rate=1e-3, n_trials=150, rate_gbps=100.0)
FIG10 = FIG10.with_(seed=RngFactory(1).child_seed(FIG10.grid_key()))


def _streaming(sim: Simulator, n_events: int) -> None:
    state = {"left": n_events}

    def fire():
        state["left"] -= 1
        if state["left"] > 0:
            sim.schedule(SPACING_NS, fire)

    sim.schedule(0, fire)
    sim.run()


def _timer_heavy(sim: Simulator, n_events: int) -> None:
    """Each tick arms a far-future timer and cancels the previous one —
    the queue carries a deep tail of tombstones the whole run."""
    state = {"left": n_events, "timer": None}

    def timeout():  # pragma: no cover - timers are always cancelled
        raise AssertionError("cancelled timer fired")

    def fire():
        state["left"] -= 1
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = sim.schedule(TIMER_HORIZON_NS, timeout)
        if state["left"] > 0:
            sim.schedule(SPACING_NS, fire)
        elif state["timer"] is not None:
            state["timer"].cancel()

    sim.schedule(0, fire)
    sim.run()


def _rate(workload, n_events: int) -> dict:
    sim = Simulator()
    t0 = time.perf_counter()
    workload(sim, n_events)
    wall = time.perf_counter() - t0
    snap = sim.obs_snapshot()
    return {
        "workload": workload.__name__.strip("_"),
        "events": snap["events_processed"],
        "cancelled": snap["events_cancelled"],
        "wall_s": round(wall, 4),
        "events_per_s": round(snap["events_processed"] / wall, 0),
    }


def test_engine_throughput(benchmark):
    def _run():
        rows = [_rate(workload, N_EVENTS)
                for workload in (_streaming, _timer_heavy)]
        t0 = time.perf_counter()
        run_cell(FIG10)
        t_packet = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_cell(FIG10.with_(backend="hybrid"))
        t_hybrid = time.perf_counter() - t0
        return rows, t_packet, t_hybrid

    rows, t_packet, t_hybrid = benchmark.pedantic(_run, rounds=1,
                                                  iterations=1)

    header(f"Event-kernel throughput — {N_EVENTS} events per workload")
    table(rows, ["workload", "events", "cancelled",
                 "wall_s", "events_per_s"])
    hybrid_speedup = t_packet / t_hybrid
    emit(f"fig10 cell: packet {t_packet:.3f}s, hybrid {t_hybrid:.3f}s "
         f"({hybrid_speedup:.1f}x)")
    save_json("engine_throughput", {
        "n_events": N_EVENTS,
        "kernels": rows,
        "fig10_packet_s": t_packet,
        "fig10_hybrid_s": t_hybrid,
        "fig10_hybrid_speedup": hybrid_speedup,
    })

    # Every workload dispatched its events.
    for row in rows:
        assert row["events"] > 0, row
    # The kernel+snapshot payoff: hybrid >= 3x packet on the
    # fig10-style sparse-loss cell (the issue's acceptance floor).
    assert hybrid_speedup >= 3.0, (
        f"hybrid only {hybrid_speedup:.1f}x packet on the fig10 cell")
