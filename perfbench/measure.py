"""Shared measurement helpers for the benchmark workloads.

Everything here is timed from outside the program: wall clocks around
calls into ``repro``'s public functions, memory from ``/proc``, and
correctness from the outputs those calls return.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: run artifacts (span files, port files); ignored by git
ARTIFACTS = os.path.join(ROOT, ".perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: extra set-ups a run spawns besides its own, to report a median of 3
SETUP_REPEATS = 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: the CPUs this process could run on when it started
CPUS = sorted(os.sched_getaffinity(0))


def pin_to_cpu(last: bool = False, pid: int = 0) -> None:
    """Pin a process (default: this one) to the first (or last) of
    :data:`CPUS`, so the scheduler never migrates it mid-run."""
    os.sched_setaffinity(pid, {CPUS[-1] if last else CPUS[0]})


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def process_age_s() -> float:
    """Seconds since this process started (10 ms kernel resolution)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])     # field 22: starttime, in clock ticks
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def sha256(chunks: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def derive_seed(seed: int, name: str, index: Optional[int] = None) -> int:
    """A per-input seed from the benchmark seed, stable across runs."""
    from repro.core.rng import RngFactory

    return RngFactory(seed).child_seed(name, index)


class Outcome:
    """Attempted/failed operation accounting plus the output checks.

    A failed check is counted, never raised: the run still prints its
    result line, with ``correct: false``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str, n: int = 1) -> bool:
        if not ok:
            self.fail(message, n)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Metrics:
    """Named metric values with the sample count and meaning behind each."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}

    def put(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = float(value)
        self.notes[name] = note


def calibration_kernel(n: int = 8000) -> int:
    """A fixed pure-Python workload shaped like an event loop (a heap
    and dict updates); it runs no ``repro`` code and allocates no
    GC-tracked objects, so a garbage collection never lands inside it."""
    heap: List[int] = []
    counts: Dict[int, int] = {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 10007) * 65536 + i)
    total = 0
    while heap:
        key = heapq.heappop(heap)
        slot = key & 63
        counts[slot] = counts.get(slot, 0) + (key >> 16)
        total += key
    return total


#: a child that runs the calibration kernel once per line on its stdin
#: and answers with the kernel's host time
_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "from measure import calibration_kernel\n"
          "for _ in sys.stdin:\n"
          "    t = time.perf_counter(); calibration_kernel()\n"
          "    print(time.perf_counter() - t, flush=True)\n")


class HostSpeed:
    """Scales host timings to one reference host speed.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds, for every process alike (CPU time tracks wall time).  The
    benchmark runs :func:`calibration_kernel` between its operations,
    after every operation that ends ``EVERY_S`` or more after the last
    calibration, and reports each operation's host time multiplied by
    ``REFERENCE_S / k``, where ``k`` is the median kernel time measured
    within ``WINDOW_S`` of the operation.  Calibration time is never
    counted as work.

    With ``second_cpu`` a probe process pinned to that CPU runs the
    kernel at the same moments, and the factor is the mean of both
    CPUs' factors (for work split between two processes on two CPUs).
    Call :meth:`close` to stop the probe.
    """

    #: kernel time at the reference speed: roughly its median on the
    #: 2-core container this benchmark was written on
    REFERENCE_S = 0.008
    #: calibrate after any operation ending this long after the last one
    EVERY_S = 0.1
    #: calibrations this close to an operation set its factor (the best
    #: of 0-2 s when tried on the 143 B cell)
    WINDOW_S = 0.5

    def __init__(self, second_cpu: Optional[int] = None) -> None:
        self.times: List[float] = []
        #: kernel times per CPU measured (this one, then the probe's)
        self.kernel_s: List[List[float]] = [[]]
        self._last = -math.inf
        self._probe = None
        if second_cpu is not None:
            self.kernel_s.append([])
            self._probe = subprocess.Popen(
                [sys.executable, "-c", _PROBE, HERE],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            os.sched_setaffinity(self._probe.pid, {second_cpu})

    def close(self) -> None:
        if self._probe is not None:
            self._probe.stdin.close()
            self._probe.wait(timeout=30)
            self._probe.stdout.close()
            self._probe = None

    def calibrate(self) -> None:
        if self._probe is not None:
            self._probe.stdin.write(b"\n")
            self._probe.stdin.flush()
        started = time.perf_counter()
        calibration_kernel()
        ended = time.perf_counter()
        self.kernel_s[0].append(ended - started)
        if self._probe is not None:
            self.kernel_s[1].append(float(self._probe.stdout.readline()))
        self.times.append((started + ended) / 2)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Calibrate if the last calibration is ``EVERY_S`` old."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.calibrate()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time around [start, end]
        (within ``WINDOW_S``, and at least the nearest calibration on
        each side), averaged over the CPUs measured."""
        if not self.times:
            raise RuntimeError("no calibration measured")
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect_right(self.times, end) + 1))
        return statistics.mean(
            self.REFERENCE_S / statistics.median(kernel[lo:hi])
            for kernel in self.kernel_s)

    def scale(self, start: float, end: float) -> float:
        """Host time of [start, end] at the reference speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> str:
        return "; ".join(
            f"cpu {cpu}: {len(k)} calibrations, kernel median "
            f"{statistics.median(k) * 1e3:.2f} ms, range "
            f"{min(k) * 1e3:.2f}-{max(k) * 1e3:.2f} ms"
            for cpu, k in zip(("this", "second"), self.kernel_s))


def timed_loop(op: Callable[[int], object], seconds: float,
               speed: HostSpeed, min_ops: int = 1,
               max_ops: Optional[int] = None):
    """Run ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed,
    calibrating host speed between calls.

    Returns ``(walls, results)``; each wall is the host time of one call
    at the reference speed.  At least ``min_ops`` calls run, at most
    ``max_ops`` when given.
    """
    spans: List[tuple] = []
    results: List[object] = []
    started = time.perf_counter()
    speed.calibrate()
    index = 0
    while (index < min_ops
           or time.perf_counter() - started < seconds):
        if max_ops is not None and index >= max_ops:
            break
        t0 = time.perf_counter()
        results.append(op(index))
        spans.append((t0, time.perf_counter()))
        speed.tick()
        index += 1
    speed.calibrate()
    return [speed.scale(t0, t1) for t0, t1 in spans], results


def latency_metrics(metrics: Metrics, walls_s: Sequence[float],
                    what: str) -> None:
    """``op_p50_ms`` and ``op_p90_ms`` over per-operation host times."""
    ms = [w * 1e3 for w in walls_s]
    n = len(ms)
    metrics.put("op_p50_ms", percentile(ms, 50), f"{what}, n={n}")
    metrics.put("op_p90_ms", percentile(ms, 90),
                f"{what}, n={n}, {n // 10} beyond p90")


def measure_setup(argv: List[str], speed: HostSpeed,
                  repeats: int = SETUP_REPEATS) -> List[float]:
    """Spawn ``argv`` ``repeats`` times; time each from spawn to exit,
    at the reference host speed.

    The child must exit 0; its stderr is reported if it does not.
    """
    samples = []
    for _ in range(repeats):
        speed.calibrate()
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        ended = time.perf_counter()
        speed.calibrate()
        samples.append(speed.scale(started, ended))
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({done.returncode}): "
                f"{done.stderr.decode(errors='replace')[-2000:]}")
    return samples


def stop_child(child: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM a child, wait for it, SIGKILL if it will not go."""
    if child.poll() is None:
        child.terminate()
        try:
            child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait(timeout=timeout)
    for stream in (child.stdout, child.stderr):
        if stream is not None:
            stream.close()
    return child.returncode


def setup_metric(metrics: Metrics, samples: Sequence[float],
                 what: str) -> None:
    metrics.put("setup_s", statistics.median(samples),
                f"median of {len(samples)} set-ups ({what})")


def load_catalog() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def emit(workload: str, outcome: Outcome, metrics: Metrics,
         section: str, lines: Sequence[str] = ()) -> None:
    """Print the human-readable report, then the one-line JSON result.

    The metric set must be exactly the catalog's ``section`` — a
    missing or unknown name is a benchmark bug and raises.
    """
    units = load_catalog()[section]
    missing = sorted(set(units) - set(metrics.values))
    extra = sorted(set(metrics.values) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"{workload}: metrics do not match BENCHMARK.json {section}: "
            f"missing {missing}, unknown {extra}")
    for line in lines:
        print(line)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name in sorted(units):
        note = metrics.notes.get(name, "")
        print(f"{workload} {name} = {metrics.values[name]:.6g} "
              f"{units[name]}" + (f"  [{note}]" if note else ""))
    print(f"{workload} attempted={outcome.attempted} "
          f"failed={outcome.failed} error_rate="
          f"{outcome.failed / max(1, outcome.attempted):.6g}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics.values[name],
                           "unit": units[name]} for name in sorted(units)},
    }
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
