"""service-ingest-whatif: a ``repro serve`` process under ingest and queries.

The service runs as a subprocess (``--telemetry tcp --executor thread
--workers 1``, default fastpath backend).  The load generator uses one
TCP ingest connection and one HTTP connection at a time:

* phase 1 — flat-out ingest of ``N1`` counter records (writes alone),
  timed until ``/healthz`` reports ``records_seen == N1``;
* phase 2 — a closed-loop what-if client (the next request is sent when
  the previous answer arrives) drawing from a seeded pool of loss-rate x
  flow-size cells, scraping ``/metrics`` every 20th request, beside an
  open-loop paced ingest of ``PACED_RATE`` records/s: one chunk every
  ``TICK_S`` on a fixed schedule, each sent by the client thread before
  its next request once the chunk is due (lateness is reported).

Counter records come from ``SyntheticTelemetry`` and are serialized
before anything is timed.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from measure import (ARTIFACTS, HERE, HostSpeed, Metrics, Outcome,
                     derive_seed, latency_metrics, peak_rss_mib, percentile,
                     pin_to_cpu, setup_metric, sha256, stop_child)
from tracing import SpanRecorder

HOST = "127.0.0.1"
#: phase-1 records (flat-out ingest)
N1 = 60_000
#: phase-2 open-loop ingest rate, records per second; well under the
#: ~70k records/s the service ingests flat out
PACED_RATE = 10_000
#: the paced generator sends one chunk per tick; at 5 ms about one
#: what-if in five lands behind a chunk, so the p90 sits inside the
#: slowed population rather than on its edge
TICK_S = 0.005
#: distinct what-if cells; the first touch of each is cold
POOL = 64
FLOW_SIZES = (143, 1460, 24_387, 100_000)
SCRAPE_EVERY = 20
#: the serve CLI's default fleet (4 pods x 8 ToRs x 4 fabrics x 8 spines)
N_LINKS = 256
SERVE_ARGS = ["--port", "0", "--telemetry", "tcp", "--ingest-port", "0",
              "--executor", "thread", "--workers", "1"]


class ServiceWorkload:
    name = "service-ingest-whatif"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.phase2_s = float(seconds)
        self.n_paced = int(PACED_RATE * self.phase2_s)
        self.service_seed = derive_seed(seed, "service.topology") % (2 ** 31)
        self.lines: List[bytes] = []
        self.pool: List[dict] = []
        self.sequence: List[int] = []

    # -- inputs -------------------------------------------------------------

    def generate(self, n_queries: int = 200_000) -> None:
        import numpy as np
        from repro.fleet.topology import FleetSpec
        from repro.lifecycle.traces import TraceSpec
        from repro.service.telemetry import SyntheticTelemetry

        total = N1 + self.n_paced
        feed = SyntheticTelemetry(
            TraceSpec(fleet=FleetSpec(), duration_days=365,
                      seed=derive_seed(self.seed, "service.telemetry")),
            limit=total)
        self.lines = [(r.to_json() + "\n").encode() for r in feed.records()]
        if len(self.lines) != total:
            raise RuntimeError(
                f"telemetry feed ran dry: {len(self.lines)} < {total}")
        rng = np.random.default_rng(derive_seed(self.seed, "service.queries"))
        cells = set()
        self.pool = []
        while len(self.pool) < POOL:
            loss = float(f"{10 ** rng.uniform(-5.0, -1.7):.3g}")
            size = int(FLOW_SIZES[int(rng.integers(len(FLOW_SIZES)))])
            if (loss, size) in cells:
                continue
            cells.add((loss, size))
            self.pool.append({"loss_rate": loss, "flow_size": size,
                              "link": int(rng.integers(N_LINKS))})
        repeats = rng.integers(POOL, size=n_queries - POOL)
        self.sequence = ([int(i) for i in rng.permutation(POOL)]
                         + [int(i) for i in repeats])

    def inputs(self) -> List[str]:
        self.generate(n_queries=1_000)
        return ([line.decode() for line in self.lines[:2_000]]
                + [json.dumps(q, sort_keys=True) for q in self.pool]
                + [json.dumps(self.sequence)])

    # -- the service process --------------------------------------------------

    def spawn(self, speed: HostSpeed, stats_out: Optional[str] = None):
        """Start the service; return ``(child, http_port, ingest_port,
        seconds from spawn until the port file was written)``, the last
        at the reference host speed."""
        os.makedirs(ARTIFACTS, exist_ok=True)
        port_file = os.path.join(ARTIFACTS, f"service-{os.getpid()}.port")
        if os.path.exists(port_file):
            os.remove(port_file)
        serve = ["serve", *SERVE_ARGS, "--port-file", port_file,
                 "--seed", str(self.service_seed)]
        if stats_out is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, os.path.join(HERE, "service_launcher.py"),
                    "--stats-out", stats_out, "--", *serve]
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        speed.calibrate()
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        try:
            # the service gets its own CPU, away from the load generator
            pin_to_cpu(last=True, pid=child.pid)
            while not _port_written(port_file):
                if child.poll() is not None:
                    raise RuntimeError(
                        f"service exited early ({child.returncode})")
                if time.perf_counter() - started > 120:
                    raise RuntimeError("service did not start in 120 s")
                time.sleep(0.002)
            ready = time.perf_counter()
            speed.calibrate()
            elapsed = speed.scale(started, ready)
            with open(port_file) as handle:
                http_port = int(handle.read())
            ingest_port = _read_ingest_port(child)
        except BaseException:
            stop_child(child)
            raise
        finally:
            if os.path.exists(port_file):
                os.remove(port_file)
        return child, http_port, ingest_port, elapsed

    # -- one session against a running service --------------------------------

    def session(self, http_port: int, ingest_port: int, speed: HostSpeed,
                outcome: Outcome, phase2: bool,
                spans: Optional[SpanRecorder] = None) -> dict:
        """Phase 1 (and phase 2); returns the raw observations."""
        client = _Client(HOST, http_port)
        obs: Dict[str, object] = {}
        ingest = socket.create_connection((HOST, ingest_port), timeout=60)
        try:
            blob = b"".join(self.lines[:N1])
            speed.calibrate()
            started = time.perf_counter()
            ingest.sendall(blob)
            client.wait_records(N1)
            ended = time.perf_counter()
            speed.calibrate()
            obs["phase1_s"] = speed.scale(started, ended)
            outcome.attempt(N1)
            obs["phase1_decisions"] = client.get_json("/decisions")
            if not phase2:
                obs["cold"] = [client.whatif(q)[1] for q in self.pool]
                outcome.attempt(POOL)
                obs["total_records"] = N1
                return obs
            obs.update(self._phase2(client, ingest, speed, outcome, spans))
        finally:
            ingest.close()
        return obs

    def _phase2(self, client: "_Client", ingest: socket.socket,
                speed: HostSpeed, outcome: Outcome,
                spans: Optional[SpanRecorder]) -> dict:
        per_tick = max(1, int(PACED_RATE * TICK_S))
        paced = self.lines[N1:]
        chunks = [b"".join(paced[i:i + per_tick])
                  for i in range(0, len(paced), per_tick)]
        requests: List[tuple] = []      # (start, end, "cold"|"cached"|"")
        scrapes: List[tuple] = []
        cold: Dict[int, dict] = {}
        dispatch_ms: List[float] = []
        scrape_bytes: List[int] = []
        lag: List[float] = []
        late_max_s = 0.0
        sent = 0
        speed.calibrate()
        started = time.perf_counter()
        i = 0
        while sent < len(chunks) or i < POOL:
            # open-loop ingest: every chunk whose time has come goes out
            # before the next request; lateness is measured, not hidden
            now = time.perf_counter()
            while sent < len(chunks) and started + sent * TICK_S <= now:
                late_max_s = max(late_max_s, now - started - sent * TICK_S)
                ingest.sendall(chunks[sent])
                sent += 1
            index = self.sequence[i % len(self.sequence)]
            t0 = time.perf_counter()
            with _op(spans, f"req-{i}", "service.whatif"):
                status, answer = client.whatif(self.pool[index])
            t1 = time.perf_counter()
            outcome.attempt()
            kind = ""
            if status != 200:
                outcome.fail(f"what-if {self.pool[index]} answered {status}")
            elif index not in cold:
                kind = "cold"
                cold[index] = answer
                if "dispatch_wall_s" in answer:
                    dispatch_ms.append(answer["dispatch_wall_s"] * 1e3)
            else:
                kind = "cached"
                outcome.check(
                    answer.get("metrics") == cold[index].get("metrics"),
                    f"cached answer for {self.pool[index]} differs from "
                    f"the cold answer")
            requests.append((t0, t1, kind))
            i += 1
            if i % SCRAPE_EVERY == 0:
                t0 = time.perf_counter()
                with _op(spans, f"scrape-{i}", "obs.metrics_scrape"):
                    status, body = client.get("/metrics")
                scrapes.append((t0, time.perf_counter()))
                outcome.attempt()
                if outcome.check(status == 200, f"/metrics answered {status}"):
                    scrape_bytes.append(len(body))
                    found = _INGEST_LAG.search(body.decode(errors="replace"))
                    if found:
                        lag.append(float(found.group(1)))
            speed.tick()
        speed.calibrate()
        latency = [speed.scale(t0, t1) * 1e3 for t0, t1, _ in requests]
        scrape_ms = [speed.scale(t0, t1) * 1e3 for t0, t1 in scrapes]
        answered = sum(1 for _, _, kind in requests if kind)
        total = N1 + len(self.lines[N1:])
        outcome.attempt(total - N1)
        client.wait_records(total)
        return {
            "busy_s": (sum(latency) + sum(scrape_ms)) / 1e3,
            "answered": answered, "latency_ms": latency,
            "cached_ms": [ms for ms, (_, _, kind) in zip(latency, requests)
                          if kind == "cached"],
            "cold_ms": [ms for ms, (_, _, kind) in zip(latency, requests)
                        if kind == "cold"],
            "cold": [cold.get(i) for i in range(POOL)],
            "dispatch_ms": dispatch_ms, "scrape_ms": scrape_ms,
            "scrape_bytes": scrape_bytes, "ingest_lag": lag,
            "late_max_ms": late_max_s * 1e3,
            "total_records": total,
            "state": client.get_json("/state"),
            "decisions": client.get_json("/decisions"),
        }

    def check_state(self, obs: dict, outcome: Outcome) -> None:
        counts = obs["state"]["counts"]
        service = obs["state"]["service"]
        seen, total = counts["records_seen"], obs["total_records"]
        outcome.check(seen == total, f"records_seen {seen} != {total}",
                      n=abs(total - seen))
        rejected = counts["records_rejected"] + service["telemetry_bad_lines"]
        outcome.check(rejected == 0, f"{rejected} records rejected",
                      n=rejected)

    @staticmethod
    def digest(obs: dict, phase1_only: bool = False) -> str:
        """Cold answers per pool cell, then the decision log."""
        chunks = [json.dumps(a and a.get("metrics"), sort_keys=True)
                  for a in obs["cold"]]
        chunks.append(json.dumps(obs["phase1_decisions"], sort_keys=True))
        if not phase1_only:
            chunks.append(json.dumps(obs["decisions"], sort_keys=True))
            chunks.append(json.dumps(obs["state"]["counts"], sort_keys=True))
        return sha256(chunks)

    # -- untraced -----------------------------------------------------------

    def measure(self, seconds: float, speed: HostSpeed, outcome: Outcome,
                metrics: Metrics, lines: List[str]) -> None:
        self.generate()
        startups = []
        for _ in range(2):
            child, _, _, elapsed = self.spawn(speed)
            stop_child(child)
            startups.append(elapsed)
        child, http_port, ingest_port, elapsed = self.spawn(speed)
        startups.append(elapsed)
        try:
            obs = self.session(http_port, ingest_port, speed, outcome,
                               phase2=True)
            rss = peak_rss_mib(child.pid)
        finally:
            code = stop_child(child)
        outcome.check(code == 0, f"service exited {code} after SIGTERM")
        self.check_state(obs, outcome)
        answered = obs["answered"]
        metrics.put("throughput_per_s", answered / obs["busy_s"],
                    f"what-ifs answered per second of phase-2 client time, "
                    f"{answered} answers")
        latency_metrics(metrics, [ms / 1e3 for ms in obs["latency_ms"]],
                        "one what-if, client side, cached and cold")
        setup_metric(metrics, startups, "spawn until the port file is written")
        metrics.put("peak_rss_mb", rss, "service VmHWM")
        lines.append(
            f"{self.name} phase 1: {N1} records in {obs['phase1_s']:.3f} s "
            f"= {N1 / obs['phase1_s']:.0f} records/s")
        lines.append(
            f"{self.name} phase 2: what-if p99 "
            f"{percentile(obs['latency_ms'], 99):.3f} ms "
            f"(n={len(obs['latency_ms'])}), "
            f"paced ingest {PACED_RATE}/s ran at most "
            f"{obs['late_max_ms']:.2f} ms late")
        lines.append(f"{self.name} digest sha256={self.digest(obs)}")

    # -- traced -------------------------------------------------------------

    def trace(self, seconds: float, speed: HostSpeed, outcome: Outcome,
              metrics: Metrics, lines: List[str],
              spans: SpanRecorder) -> dict:
        """Phase 1 on a plain service, then both phases on a service
        started through ``service_launcher.py``."""
        self.generate()
        child, http_port, ingest_port, _ = self.spawn(speed)
        try:
            plain = self.session(http_port, ingest_port, speed, outcome,
                                 phase2=False)
        finally:
            stop_child(child)
        stats_out = os.path.join(ARTIFACTS, f"service-{os.getpid()}.stats")
        child, http_port, ingest_port, _ = self.spawn(speed,
                                                      stats_out=stats_out)
        try:
            obs = self.session(http_port, ingest_port, speed, outcome,
                               phase2=True, spans=spans)
        finally:
            code = stop_child(child)
        outcome.check(code == 0, f"traced service exited {code}")
        self.check_state(obs, outcome)
        with open(stats_out) as handle:
            stats = json.load(handle)
        os.remove(stats_out)
        same = (self.digest(plain, phase1_only=True)
                == self.digest(obs, phase1_only=True))
        outcome.check(same, "traced service answers/decisions differ")
        counts = obs["state"]["counts"]
        cache = obs["state"]["cache"]

        def p50(values):
            return statistics.median(values) if values else 0.0

        metrics.put("service.ingest_records_per_s", N1 / plain["phase1_s"],
                    "phase 1 on the plain service")
        metrics.put("service.whatif_p99_ms", percentile(obs["latency_ms"], 99),
                    f"n={len(obs['latency_ms'])}")
        metrics.put("service.whatif_cached_p50_ms", p50(obs["cached_ms"]),
                    f"n={len(obs['cached_ms'])}")
        metrics.put("service.whatif_cold_p50_ms", p50(obs["cold_ms"]),
                    f"n={len(obs['cold_ms'])}")
        metrics.put("fastpath.whatif_dispatch_p50_ms", p50(obs["dispatch_ms"]))
        metrics.put("service.cache_hit_ratio", cache["hit_rate"])
        metrics.put("service.ingest_lag_max",
                    max(obs["ingest_lag"]) if obs["ingest_lag"] else 0.0,
                    f"{len(obs['ingest_lag'])} samples")
        metrics.put("service.rejected_429",
                    obs["state"]["service"]["rejected_429"])
        metrics.put("service.paced_ingest_late_ms", obs["late_max_ms"])
        metrics.put("fleet.stream_decisions",
                    counts["onsets"] + counts["clears"])
        metrics.put("service.parse_record_s", stats["parse_record"]["s"],
                    f"{stats['parse_record']['calls']} calls")
        metrics.put("service.arbiter_observe_s",
                    stats["arbiter_observe"]["s"],
                    f"{stats['arbiter_observe']['calls']} calls")
        metrics.put("service.cache_lookup_s", stats["cache_lookup"]["s"],
                    f"{stats['cache_lookup']['calls']} calls")
        metrics.put("obs.metrics_scrape_ms", p50(obs["scrape_ms"]),
                    f"median of {len(obs['scrape_ms'])} scrapes")
        metrics.put("obs.metrics_bytes", p50(obs["scrape_bytes"]))
        lines.append(f"{self.name} digest sha256={self.digest(obs)} "
                     f"(traced == untraced over phase 1: {same})")
        return {"untraced_s": plain["phase1_s"], "traced_s": obs["phase1_s"],
                "launcher": stats}


def _op(spans: Optional[SpanRecorder], group: str, name: str):
    return nullcontext() if spans is None else spans.op(group, name)


_INGEST_LAG = re.compile(r"^\S*ingest_lag\s+(\S+)\s*$", re.MULTILINE)


def _port_written(path: str) -> bool:
    try:
        with open(path) as handle:
            return handle.read().endswith("\n")
    except FileNotFoundError:
        return False


def _read_ingest_port(child: subprocess.Popen) -> int:
    """The serve CLI prints ``TCP ingest on HOST:PORT`` once listening."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = child.stdout.readline().decode(errors="replace")
        if not line:
            break
        if line.startswith("TCP ingest on"):
            return int(line.rsplit(":", 1)[1])
    raise RuntimeError("service did not report its ingest port")


class _Client:
    """One HTTP connection per request (the service closes each)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def request(self, method: str, path: str, body: bytes = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str):
        return self.request("GET", path)

    def get_json(self, path: str):
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        data = json.loads(body)
        return data["decisions"] if path == "/decisions" else data

    def whatif(self, query: dict):
        status, body = self.request(
            "POST", "/whatif", json.dumps(query).encode())
        return status, json.loads(body) if status == 200 else {}

    def wait_records(self, n: int, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.get_json("/healthz")["records_seen"] >= n:
                return
            time.sleep(0.005)
        raise RuntimeError(f"service did not ingest {n} records in "
                           f"{timeout} s")
