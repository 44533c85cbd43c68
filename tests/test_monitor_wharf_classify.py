"""Tests for corruptd monitoring, the Wharf model, and flow classification."""

import pytest

from lg_fixtures import build_testbed

from repro.monitor.corruptd import Corruptd, PubSubBus
from repro.phy.loss import BernoulliLoss
from repro.transport.flow import FlowRecord
from repro.analysis.classify import classify_flows
from repro.wharf.model import WharfFec, best_parameters
from repro.units import MS

import numpy as np


class TestCorruptd:
    def _monitored_testbed(self, loss_rate):
        loss = BernoulliLoss(loss_rate, np.random.default_rng(3)) if loss_rate else None
        testbed = build_testbed(loss=loss, activate_loss_rate=None)
        bus = PubSubBus(testbed.sim)
        daemon = Corruptd(
            testbed.sim, testbed.plink, bus,
            poll_interval_ns=MS,          # accelerated polling for the test
            window_frames=10_000,
        )
        daemon.start()
        return testbed, daemon, bus

    def test_detects_corruption_and_activates_lg(self):
        testbed, daemon, bus = self._monitored_testbed(loss_rate=5e-3)
        testbed.inject(30_000, spacing_ns=1_000)
        testbed.sim.run(until=40 * MS)
        assert daemon.notices, "corruptd never noticed the corruption"
        assert testbed.plink.active
        notice = daemon.notices[0]
        assert notice.loss_rate == pytest.approx(5e-3, rel=0.6)
        assert bus.published >= 1

    def test_healthy_link_never_triggers(self):
        testbed, daemon, bus = self._monitored_testbed(loss_rate=0.0)
        testbed.inject(20_000, spacing_ns=1_000)
        testbed.sim.run(until=30 * MS)
        assert not daemon.notices
        assert not testbed.plink.active

    def test_lg_masks_loss_after_activation(self):
        """End-to-end control loop: corruption starts, corruptd activates
        LinkGuardian, subsequent losses are recovered."""
        testbed, daemon, bus = self._monitored_testbed(loss_rate=2e-3)
        testbed.inject(60_000, spacing_ns=1_000)
        testbed.sim.run(until=80 * MS)
        assert testbed.plink.active
        stats = testbed.plink.summary()
        assert stats["recovered"] > 0
        # Once active, deliveries resume in order and losses are masked.
        assert stats["timeouts"] <= stats["loss_events"] * 0.05

    def test_healed_link_publishes_clear_and_deactivates_lg(self):
        testbed, daemon, bus = self._monitored_testbed(loss_rate=5e-3)
        testbed.inject(30_000, spacing_ns=1_000)
        testbed.sim.run(until=10 * MS)
        assert testbed.plink.active
        testbed.plink.forward_link.set_loss(None)
        testbed.sim.run(until=40 * MS)
        assert [notice.cleared for notice in daemon.notices] == [False, True]
        assert daemon.notices[1].loss_rate < daemon.activation_threshold
        assert not testbed.plink.active

    def test_window_loss_rate_none_without_samples(self):
        testbed, daemon, bus = self._monitored_testbed(loss_rate=0.0)
        assert daemon.window_loss_rate() is None


class TestPubSubBus:
    def _bus(self, **kwargs):
        testbed = build_testbed(activate_loss_rate=None)
        return testbed.sim, PubSubBus(testbed.sim, **kwargs)

    def test_unsubscribe_stops_future_deliveries(self):
        sim, bus = self._bus()
        seen = []
        bus.subscribe("ch", seen.append)
        bus.publish("ch", "first")
        assert bus.unsubscribe("ch", seen.append)
        bus.publish("ch", "second")
        sim.run(until=10_000_000)
        assert seen == ["first"]
        assert bus.delivered == 1

    def test_unsubscribe_unknown_subscription_is_false(self):
        _, bus = self._bus()
        assert not bus.unsubscribe("ch", print)
        bus.subscribe("ch", print)
        assert not bus.unsubscribe("other", print)
        assert bus.unsubscribe("ch", print)
        assert not bus.unsubscribe("ch", print)  # already gone

    def test_in_flight_message_survives_unsubscribe(self):
        """Unsubscribing cannot recall a message already on the wire."""
        sim, bus = self._bus()
        seen = []
        bus.subscribe("ch", seen.append)
        bus.publish("ch", "sent")
        bus.unsubscribe("ch", seen.append)
        sim.run(until=10_000_000)
        assert seen == ["sent"]

    def test_pending_queue_bounded_and_drops_counted(self):
        sim, bus = self._bus(max_pending=3)
        seen = []
        bus.subscribe("ch", seen.append)
        for i in range(5):
            bus.publish("ch", i)
        assert bus.pending == 3
        assert bus.dropped == 2
        sim.run(until=10_000_000)
        assert seen == [0, 1, 2]
        assert bus.pending == 0
        assert bus.delivered == 3
        assert bus.published == 5

    def test_delivery_frees_queue_slots(self):
        sim, bus = self._bus(max_pending=1, delivery_delay_ns=1_000)
        seen = []
        bus.subscribe("ch", seen.append)
        bus.publish("ch", "a")
        sim.run(until=5_000)           # drains the slot
        bus.publish("ch", "b")
        sim.run(until=10_000)
        assert seen == ["a", "b"]
        assert bus.dropped == 0

    def test_publish_reports_queued_fanout(self):
        sim, bus = self._bus(max_pending=1)
        bus.subscribe("ch", lambda m: None)
        bus.subscribe("ch", lambda m: None)
        assert bus.publish("ch", "x") == 1   # second fan-out dropped
        assert bus.publish("nobody-home", "x") == 0
        assert bus.dropped == 1

    def test_rejects_nonpositive_max_pending(self):
        testbed = build_testbed(activate_loss_rate=None)
        with pytest.raises(ValueError):
            PubSubBus(testbed.sim, max_pending=0)

    def test_drop_counter_surfaced_through_obs(self):
        from repro.obs import Observability

        obs = Observability()
        testbed = build_testbed(activate_loss_rate=None)
        bus = PubSubBus(testbed.sim, max_pending=1, obs=obs)
        bus.subscribe("ch", lambda m: None)
        bus.publish("ch", "a")
        bus.publish("ch", "b")
        snap = obs.snapshot()["corruptd.bus"]
        assert snap["published"] == 2
        assert snap["dropped"] == 1
        assert snap["pending"] == 1
        assert snap["channels"] == 1


class TestWharf:
    def test_code_rate(self):
        assert WharfFec(25, 1).code_rate == pytest.approx(25 / 26)
        assert WharfFec(5, 1).code_rate == pytest.approx(5 / 6)

    def test_residual_loss_zero_without_loss(self):
        assert WharfFec(25, 1).residual_loss(0.0) == 0.0

    def test_residual_loss_much_smaller_than_raw(self):
        fec = WharfFec(25, 1)
        assert fec.residual_loss(1e-4) < 1e-4 / 100

    def test_residual_loss_monotone(self):
        fec = WharfFec(25, 1)
        rates = [1e-5, 1e-4, 1e-3, 1e-2]
        residuals = [fec.residual_loss(r) for r in rates]
        assert residuals == sorted(residuals)

    def test_heavier_code_for_heavy_loss(self):
        assert best_parameters(1e-4) == WharfFec(25, 1)
        assert best_parameters(1e-2) == WharfFec(5, 1)

    def test_table3_goodput_ratio_shape(self):
        """Wharf's constant tax: ~96% of capacity up to 1e-3, ~83% at 1e-2
        (matching the 9.13 and 7.91 Gb/s rows of Table 3 on a 10G link)."""
        assert best_parameters(1e-3).code_rate == pytest.approx(9.13 / 9.49, abs=0.01)
        assert best_parameters(1e-2).code_rate == pytest.approx(7.91 / 9.49, abs=0.01)


class TestClassification:
    def _flow(self, fid, saw_sack=True, burst=0, pending=0):
        flow = FlowRecord(flow_id=fid, size_bytes=24_387)
        flow.saw_sack = saw_sack
        flow.max_sack_burst = burst
        flow.pending_bytes_at_reduction = pending
        return flow

    def test_unaffected_flows_not_classified(self):
        flows = [self._flow(1, saw_sack=False)]
        result = classify_flows(flows)
        assert result.affected == 0 and result.total == 1

    def test_group_a_small_sack_no_tail(self):
        result = classify_flows([self._flow(1, burst=1460)])
        assert result.group_a == 1 and result.group_b == 0

    def test_group_b_small_sack_tail_loss(self):
        result = classify_flows([self._flow(1, burst=1460)], tail_loss_flow_ids={1})
        assert result.group_b == 1

    def test_group_c_large_sack_nothing_pending(self):
        result = classify_flows([self._flow(1, burst=5 * 1460, pending=0)])
        assert result.group_c == 1

    def test_group_d_large_sack_with_pending(self):
        result = classify_flows([self._flow(1, burst=5 * 1460, pending=7 * 1460)])
        assert result.group_d == 1

    def test_tree_partitions_affected_flows(self):
        flows = [
            self._flow(1, burst=1460),
            self._flow(2, burst=1460),
            self._flow(3, burst=9000, pending=0),
            self._flow(4, burst=9000, pending=100),
            self._flow(5, saw_sack=False),
        ]
        result = classify_flows(flows, tail_loss_flow_ids={2})
        assert result.affected == 4
        groups = result.group_a + result.group_b + result.group_c + result.group_d
        assert groups == result.affected
        assert result.as_dict()["A"] == 1
