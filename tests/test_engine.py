"""Unit tests for the discrete-event kernel: ``(time, seq)`` dispatch
order, tombstone cancellation and compaction, and the one drive loop
``Simulator.run(until, stop)``."""

import pytest

from repro.core.engine import SimError, Simulator
from repro.runner.harness import TrialHarness


def _reused_simulator():
    # A simulator that has already run (pooled events, a tombstone,
    # pending work) and was then clear()ed, clock still at 0: a reused
    # kernel must honour exactly the contract a fresh one does.
    sim = Simulator()
    for _ in range(8):
        sim.schedule(0, lambda: None)
    sim.schedule(0, lambda: None).cancel()
    sim.schedule(1_000, lambda: None)
    sim.run(until=0)
    sim.clear()
    assert sim.now == 0 and sim.peek() is None
    return sim


# The ids keep the names of the two queue implementations this fixture
# used to select, so test ids stay comparable across the kernel's
# history; both now run the one heap kernel, fresh ("heap") or reused
# after clear() ("calendar").
@pytest.fixture(params=[Simulator, _reused_simulator], ids=["heap", "calendar"])
def sim(request):
    return request.param()


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo(sim):
    order = []
    for tag in range(5):
        sim.schedule(100, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_advances_clock_even_when_idle(sim):
    sim.run(until=5_000)
    assert sim.now == 5_000


def test_run_until_does_not_fire_later_events(sim):
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(900, fired.append, 2)
    sim.run(until=500)
    assert fired == [1]
    assert sim.now == 500
    sim.run()
    assert fired == [1, 2]


def test_schedule_after_idle_run_until_stays_ordered(sim):
    # run(until=) advances the clock without dispatching; scheduling
    # afterwards (earlier than already-pending events) must still
    # dispatch in time order.
    fired = []
    sim.schedule(500_000, fired.append, "far")
    sim.run(until=10)
    sim.schedule(5, fired.append, "near")
    sim.run()
    assert fired == ["near", "far"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10, fired.append, "no")
    sim.schedule(5, event.cancel)
    sim.run()
    assert fired == []
    assert sim.events_cancelled == 1


def test_cancel_then_reschedule(sim):
    # The cancel-then-reschedule pattern every timer in the repo uses
    # (RTO re-arm, ackNoTimeout): the replacement fires, the old one
    # doesn't, and a second cancel of the old handle is a no-op.
    fired = []
    old = sim.schedule(10, fired.append, "old")
    old.cancel()
    old.cancel()  # idempotent
    sim.schedule(10, fired.append, "new")
    sim.run()
    assert fired == ["new"]
    assert sim.events_cancelled == 1


def test_cancel_after_fire_is_noop(sim):
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.run()
    event.cancel()  # documented safe; must not count as a cancellation
    assert fired == ["x"]
    assert sim.events_cancelled == 0
    sim.schedule(10, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]


def test_events_scheduled_during_run_are_dispatched(sim):
    seen = []

    def chain(depth):
        seen.append(sim.now)
        if depth:
            sim.schedule(7, chain, depth - 1)

    sim.schedule(0, chain, 3)
    sim.run()
    assert seen == [0, 7, 14, 21]


def test_zero_delay_self_reschedule_runs_after_same_time_peers(sim):
    # A zero-delay reschedule lands at the same timestamp but a later
    # seq, so it must run *after* events already pending at that time.
    order = []

    def first():
        order.append("first")
        sim.schedule(0, order.append, "rescheduled")

    sim.schedule(10, first)
    sim.schedule(10, order.append, "peer")
    sim.run()
    assert order == ["first", "peer", "rescheduled"]


def test_scheduling_in_the_past_raises(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(5, lambda: None)
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_max_events_guard(sim):
    # an event budget enforced through the stop predicate
    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    sim.run(stop=lambda: sim.events_processed >= 50)
    assert sim.events_processed == 50


def test_stop_is_checked_before_each_dispatch(sim):
    seen = []

    def stop():
        seen.append(sim.events_processed)
        return False

    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run(stop=stop)
    # once before every dispatch, then once more before finding the
    # heap empty
    assert seen == [0, 1, 2, 3, 4, 5]


def test_stop_leaves_clock_at_last_dispatched_event(sim):
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(300, fired.append, 2)
    # a stop before the first dispatch leaves the clock at 0, not `until`
    assert sim.run(until=10_000, stop=lambda: True) == 0
    now = sim.run(until=10_000, stop=lambda: bool(fired))
    assert fired == [1]
    assert now == sim.now == 100
    assert sim.peek() == 300


def test_until_advances_idle_clock_when_stop_never_fires(sim):
    sim.schedule(100, lambda: None)
    assert sim.run(until=5_000, stop=lambda: False) == 5_000
    assert sim.events_processed == 1


def test_run_accrues_wall_seconds(sim):
    for i in range(200):
        sim.schedule(i, lambda: None)
    sim.run(stop=lambda: False)
    assert sim.wall_seconds > 0.0
    assert sim.obs_snapshot()["events_per_wall_second"] > 0.0


def test_run_is_not_reentrant(sim):
    errors = []

    def nested():
        try:
            sim.run()
        except SimError as exc:
            errors.append(exc)

    sim.schedule(1, nested)
    sim.run()
    assert len(errors) == 1


def test_trial_harness_dispatches_nothing_past_safety_horizon(sim):
    # A wedged trial (its flow never completes) with a self-replenishing
    # event source, the shape of LinkGuardian's dummy queue: the safety
    # horizon ends the run, and no event later than it is dispatched.
    times = []

    def tick():
        times.append(sim.now)
        sim.schedule(7, tick)

    def launch(trial, finished):
        return (lambda: sim.schedule(0, tick)), None

    harness = TrialHarness(sim, 3, launch, safety_ns=1_000)
    assert harness.run() == []
    assert max(times) <= 1_000 < max(times) + 7
    assert sim.now == 1_000


def test_trial_harness_stops_after_last_trial(sim):
    # Each trial finishes 50 ns after it starts; the run ends right after
    # the last one even though an endless ticker keeps the heap non-empty.
    def tick():
        sim.schedule(1_000, tick)

    def launch(trial, finished):
        return (lambda: sim.schedule(50, finished, trial)), None

    sim.schedule(0, tick)
    harness = TrialHarness(sim, 3, launch, inter_trial_gap_ns=10)
    assert harness.run() == [0, 1, 2]
    # trial k launches at 60*k and finishes 50 ns later; the would-be
    # fourth launch (at 180) ends the run
    assert sim.now == 180
    assert sim.wall_seconds > 0.0


def test_peek_skips_cancelled(sim):
    event = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    event.cancel()
    assert sim.peek() == 20


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_eager_compaction_keeps_queue_small(sim):
    # Cancelled events must not linger until the pop path reaches their
    # timestamps once they exceed half the pending set.
    events = [sim.schedule(1_000_000 + i, lambda: None) for i in range(200)]
    assert sim.obs_snapshot()["heap_pending"] == 200
    for event in events[:150]:
        event.cancel()
    assert sim.events_cancelled == 150
    snap = sim.obs_snapshot()
    # Compaction triggered at the half-full mark (101 cancelled of 200):
    # the heap then held only the 99 live entries, and the 49 later
    # cancellations stay as tombstones below the next trigger.
    assert snap["events_compacted"] == 101
    assert snap["heap_pending"] == 99
    assert snap["events_cancelled"] == 150
    fired = sim.run()
    assert fired == 1_000_000 + 199
    assert sim.events_processed == 50


def test_clear_resets_per_run_stats_and_pool(sim):
    # A reused simulator reports per-run stats.
    for i in range(10):
        sim.schedule(i, lambda: None)
    sim.schedule(100, lambda: None).cancel()
    sim.run()
    assert sim.events_processed == 10
    assert sim.heap_high_watermark == 11
    sim.clear()
    assert sim.events_processed == 0
    assert sim.events_cancelled == 0
    assert sim.heap_high_watermark == 0
    assert sim.wall_seconds == 0.0
    assert sim.obs_snapshot()["heap_pending"] == 0
    assert sim.obs_snapshot()["event_pool_size"] == 0
    sim.schedule(5, lambda: None)
    assert sim.heap_high_watermark == 1
    sim.run()
    assert sim.events_processed == 1


def test_event_pool_recycles_unreferenced_events(sim):
    # Fire-and-forget events (no caller keeps the handle) are recycled;
    # the pool never grows past its cap.
    for i in range(50):
        sim.schedule(i, lambda: None)
    sim.run()
    assert 0 < sim.obs_snapshot()["event_pool_size"] <= Simulator.POOL_CAP


def test_held_handles_are_never_recycled(sim):
    # A caller holding the Event may still call cancel() after it fires
    # ("safe to call more than once") — so a held event must not be
    # recycled into a new scheduled event that the stale cancel() would
    # then kill.
    held = [sim.schedule(10, lambda: None) for _ in range(5)]
    sim.run()
    assert sim.obs_snapshot()["event_pool_size"] == 0
    fired = []
    replacement = sim.schedule(10, fired.append, "ok")
    for event in held:
        event.cancel()   # stale handles: must not touch `replacement`
    assert replacement.cancelled is False
    sim.run()
    assert fired == ["ok"]


def test_jump_to_advances_idle_clock(sim):
    sim.jump_to(1_000)
    assert sim.now == 1_000
    with pytest.raises(SimError):
        sim.jump_to(500)
    sim.schedule(100, lambda: None)
    with pytest.raises(SimError):
        sim.jump_to(5_000)  # would jump past a pending event

