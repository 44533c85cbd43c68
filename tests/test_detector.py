"""Tests for the shared onset/clear detector (repro.monitor.detector)."""

from hypothesis import given, settings, strategies as st

from repro.monitor.detector import OnsetClearDetector


def recording_detector(onset=1e-3, hysteresis=0.1):
    events = []

    def on_onset(link, estimate, now):
        events.append(("onset", link, estimate, now))
        return f"episode-{now}"

    def on_clear(link, handle, estimate, now):
        events.append(("clear", link, estimate, now, handle))

    return OnsetClearDetector(onset, hysteresis, on_onset, on_clear), events


class TestOnsetClearDetector:
    def test_hysteresis_band(self):
        detector, events = recording_detector()
        detector.observe("a", 5e-4, 0)          # below onset: nothing
        detector.observe("a", 1e-3, 1)          # at onset: opens
        detector.observe("a", 2e-4, 2)          # inside the band: stays open
        detector.observe("a", 1e-4, 3)          # at clear: stays open
        assert detector.open == {"a": "episode-1"}
        detector.observe("a", 9e-5, 4)          # below clear: closes
        assert events == [("onset", "a", 1e-3, 1),
                          ("clear", "a", 9e-5, 4, "episode-1")]
        assert (detector.onsets, detector.clears) == (1, 1)
        assert detector.open == {}

    def test_update_runs_onsets_before_clears_in_mapping_order(self):
        detector, events = recording_detector()
        detector.update(0, {"a": 1.0, "b": 1.0})
        detector.update(1, {"b": 0.0, "a": 0.0, "c": 1.0, "d": 0.5})
        assert [event[:2] for event in events] == [
            ("onset", "a"), ("onset", "b"),
            ("onset", "c"), ("onset", "d"), ("clear", "b"), ("clear", "a"),
        ]
        assert list(detector.open) == ["c", "d"]

    def test_unit_hysteresis_clears_just_below_onset(self):
        detector, events = recording_detector(onset=1e-8, hysteresis=1.0)
        detector.observe("l", 1e-8, 0)
        detector.observe("l", 1e-8, 1)
        detector.observe("l", 0.0, 2)
        assert [event[0] for event in events] == ["onset", "clear"]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.1, 0.5, 1.0]),
           st.lists(st.tuples(st.sampled_from("abc"),
                              st.floats(0.0, 3e-3) | st.sampled_from(
                                  [1e-3, 1e-4, 5e-4, 1e-3 * 0.5])),
                    max_size=60),
           st.booleans())
    def test_alternates_and_respects_thresholds(self, hysteresis, stream,
                                                batched):
        """An estimate straddling the threshold cannot produce two
        onsets without a clear between them, nor open below the onset
        threshold or close at or above the clear threshold."""
        detector, events = recording_detector(onset=1e-3,
                                              hysteresis=hysteresis)
        for now, (link, estimate) in enumerate(stream):
            if batched:
                detector.update(now, {link: estimate})
            else:
                detector.observe(link, estimate, now)
        for link in "abc":
            kinds = [event[0] for event in events if event[1] == link]
            assert kinds == ["onset", "clear"] * (len(kinds) // 2) + (
                ["onset"] if len(kinds) % 2 else [])
            assert (link in detector.open) == (len(kinds) % 2 == 1)
        for kind, _, estimate, *_ in events:
            if kind == "onset":
                assert estimate >= detector.onset_threshold
            else:
                assert estimate < detector.clear_threshold
        assert detector.onsets - detector.clears == len(detector.open)
