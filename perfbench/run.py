"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fct-143b-lg --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same inputs untraced and then traced, and reports the
per-layer metrics, the tracing overhead and a span file under
``.perfbench/``.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable report (metric, unit, samples, output digests).
Metric names and units come from ``BENCHMARK.json``; the workloads, the
prediction map and the baseline this benchmark starts from are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402

sys.path.insert(0, measure.SRC)

WORKLOADS = ("fct-143b-lg", "fct-2mb-lg", "hybrid-grid", "fleet-year",
             "service-ingest-whatif")


def build(name: str, seed: int, seconds: float):
    if name.startswith("fct-"):
        from fct_cells import FctWorkload

        return FctWorkload(name, seed)
    if name == "hybrid-grid":
        from hybrid_grid import HybridGridWorkload

        return HybridGridWorkload(seed)
    if name == "fleet-year":
        from fleet_year import FleetYearWorkload

        return FleetYearWorkload(seed)
    from service_load import ServiceWorkload

    return ServiceWorkload(seed, seconds)


def _untraced(workload, args, outcome, metrics, lines) -> None:
    if args.workload == "service-ingest-whatif":
        # the service runs on the last CPU: calibrate that one too
        speed = measure.HostSpeed(second_cpu=measure.CPUS[-1])
        try:
            workload.measure(args.seconds, speed, outcome, metrics, lines)
        finally:
            speed.close()
    else:
        speed = measure.HostSpeed()
        samples = measure.measure_setup([
            sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)], speed)
        workload.setup()
        ready = time.perf_counter()
        age = measure.process_age_s()
        speed.calibrate()
        samples.append(speed.scale(ready - age, ready))
        workload.measure(args.seconds, speed, outcome, metrics, lines)
        measure.setup_metric(
            metrics, samples,
            "process start to ready: imports, inputs, warm-up")
        metrics.put("peak_rss_mb", measure.peak_rss_mib(), "benchmark VmHWM")
    lines.append(f"host speed (reference kernel "
                 f"{measure.HostSpeed.REFERENCE_S * 1e3:.2f} ms): "
                 f"{speed.summary()}")


def _traced(workload, args, outcome, metrics, lines) -> None:
    from tracing import SpanRecorder

    spans = SpanRecorder()
    if args.workload == "service-ingest-whatif":
        speed = measure.HostSpeed(second_cpu=measure.CPUS[-1])
    else:
        speed = measure.HostSpeed()
        workload.setup()
    try:
        info = workload.trace(args.seconds, speed, outcome, metrics, lines,
                              spans)
    finally:
        speed.close()
    overhead = info["traced_s"] - info["untraced_s"]
    metrics.put("trace.overhead_s", overhead,
                f"traced {info['traced_s']:.3f} s - untraced "
                f"{info['untraced_s']:.3f} s on the same inputs")
    metrics.put("trace.overhead_ratio", overhead / info["untraced_s"])
    with open(os.path.join(HERE, "predictions.json")) as handle:
        scope = json.load(handle)["per_layer"]
    for name, entry in scope.items():
        if args.workload in entry["measured_on"]:
            if name not in metrics.values:
                raise RuntimeError(f"{args.workload} did not measure {name}")
        elif name not in metrics.values:
            metrics.put(name, 0.0, "not exercised by this workload")
    path = os.path.join(measure.ARTIFACTS,
                        f"{args.workload}-seed{args.seed}-spans.jsonl")
    spans.write(path, extra=info)
    lines.append(f"spans: {len(spans.spans)} written to "
                 f"{os.path.relpath(path, measure.ROOT)}")
    for name, secs in sorted(spans.self_times().items(),
                             key=lambda kv: -kv[1]):
        lines.append(f"  self time {name:<32} {secs:10.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its result.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="imports, inputs and warm-up, then exit "
                             "(used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The program is built from this checkout's src/, never from an
    # installed copy: without it there is nothing to measure.
    package = os.path.join(measure.SRC, "repro")
    try:
        if not os.path.isdir(package):
            raise ImportError(f"{package} does not exist")
        import repro
        if not os.path.abspath(repro.__file__).startswith(package):
            raise ImportError(f"repro imported from {repro.__file__}")
    except ImportError as exc:
        print(f"error: cannot import repro from {measure.SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.exists(measure.BENCHMARK_JSON):
        print(f"error: {measure.BENCHMARK_JSON} not found", file=sys.stderr)
        return 2

    measure.pin_to_cpu()
    workload = build(args.workload, args.seed, args.seconds)
    if args.setup_only:
        workload.setup()
        return 0
    outcome, metrics, lines = measure.Outcome(), measure.Metrics(), []
    started = time.perf_counter()
    if args.trace:
        _traced(workload, args, outcome, metrics, lines)
    else:
        _untraced(workload, args, outcome, metrics, lines)
    lines.append(f"{args.workload} seed={args.seed} wall "
                 f"{time.perf_counter() - started:.1f} s")
    measure.emit(args.workload, outcome, metrics,
                 "per_layer" if args.trace else "end_to_end", lines)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashing is salted per process, and the salt alone moves
        # host time by several percent between processes (dict and set
        # layouts); fix it for this process and every child.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
