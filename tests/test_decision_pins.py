"""Pinned decision streams of the three onset/clear consumers.

Each digest is a sha256 over the full decision records (time, link,
action, loss rate, evidence label) plus ``state_dict()`` — or, for
corruptd, over the published notices plus the protected link's
``summary()``.  The values were recorded before the onset/clear
detector was factored out of the port-counter arbiter, the voting
monitor and corruptd, and must never move when that machinery is
refactored: a moved digest means a decision changed.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from lg_fixtures import build_testbed

from repro.blame import EvidenceSpec, harvest_evidence, run_voting
from repro.fleet.controller import ControllerConfig
from repro.fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from repro.lifecycle.traces import TraceSpec
from repro.monitor.corruptd import Corruptd, PubSubBus
from repro.phy.loss import BernoulliLoss
from repro.service.arbiter import StreamingArbiter
from repro.service.telemetry import SyntheticTelemetry
from repro.units import MS


def digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(json.dumps(part, sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def test_arbiter_stream_pinned():
    spec = TraceSpec(FleetSpec(mttf_hours=500), duration_days=5, seed=1)
    topology = FleetTopology(spec.fleet, seed=spec.seed)
    arbiter = StreamingArbiter(topology, ControllerConfig(),
                               decision_log=100_000)
    decisions = []
    for record in SyntheticTelemetry(spec).records():
        decisions.extend(arbiter.observe(record))
    counts = arbiter.counts()
    assert (counts["records_seen"], counts["onsets"], counts["clears"]) == (
        162_839, 39, 17)
    assert decisions == list(arbiter.decisions)
    assert digest(decisions, arbiter.state_dict()) == (
        "9d3bd38a21575c190f3055efe3bc7b1a8b88d0d30bef6ec9d5053915bce44fca")


BLAME_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)

#: four episodes on three links, overlapping in time; link 5 relapses
BLAME_EPISODES = [
    CorruptionEpisode(link_id=5, onset_s=0.0, clear_s=150.0,
                      loss_rate=1.5e-3, mean_burst=1.0),
    CorruptionEpisode(link_id=12, onset_s=40.0, clear_s=200.0,
                      loss_rate=3e-3, mean_burst=1.0),
    CorruptionEpisode(link_id=21, onset_s=90.0, clear_s=260.0,
                      loss_rate=8e-4, mean_burst=1.0),
    CorruptionEpisode(link_id=5, onset_s=220.0, clear_s=320.0,
                      loss_rate=2e-3, mean_burst=1.0),
]


@pytest.mark.parametrize("budget,expected", [
    (8, "341b17188bfdf8dd2bcf55b1b1e7b48e5d41e6f0b8194cf4b09eb99e51a1fb6c"),
    (1, "014d349599985b1cdaafe1fa57dbda918ca9bffd4a70d9a7c6cf47927121fca4"),
])
def test_voting_stream_pinned(budget, expected):
    topology = FleetTopology(BLAME_FLEET, seed=1)
    spec = EvidenceSpec(flows_per_s=250.0, seed=4)
    reports = harvest_evidence(spec, topology, BLAME_EPISODES, 0.0, 400.0)
    monitor = run_voting(BLAME_FLEET, 1,
                         ControllerConfig(activation_budget=budget),
                         "incremental", reports)
    assert monitor.onsets >= 3
    assert digest(list(monitor.decisions), monitor.state_dict()) == expected


@pytest.mark.parametrize("loss_rate,packets,until_ms,expected", [
    (5e-3, 30_000, 40, "e2cdb76e70ab11fc221acdbcb0d8a5050c1f10c96a7a261b18980408a4b595b2"),
    (0.0, 20_000, 30, "713c30b383b9960ad5d983d8eb7e6bfe3d1af1bf800372da51d7cd5cb748f1ce"),
    (2e-3, 60_000, 80, "a2fc925805044617bc223b7de8b492113fc47a62f2fd7054c890e8a9492896c0"),
])
def test_corruptd_notices_pinned(loss_rate, packets, until_ms, expected):
    loss = (BernoulliLoss(loss_rate, np.random.default_rng(3))
            if loss_rate else None)
    testbed = build_testbed(loss=loss, activate_loss_rate=None)
    bus = PubSubBus(testbed.sim)
    daemon = Corruptd(testbed.sim, testbed.plink, bus,
                      poll_interval_ns=MS, window_frames=10_000)
    daemon.start()
    testbed.inject(packets, spacing_ns=1_000)
    testbed.sim.run(until=until_ms * MS)
    notices = [asdict(notice) for notice in daemon.notices]
    assert digest(notices, testbed.plink.summary()) == expected
