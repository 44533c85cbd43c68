"""Outside input gets a clean rejection, never a crash or a stuck state.

Everything a peer, an operator or a torn write can hand the program —
telemetry and flow-report lines, lifecycle trace files, sweep
checkpoints, HTTP requests — is either accepted with finite, in-range
fields or rejected with the module's own error type.  The first half
pins one regression per concrete defect; the second half states the
same contract as hypothesis properties over arbitrary input.
"""

import asyncio
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.blame import EvidenceSpec, FlowReport, harvest_evidence
from repro.cli import main
from repro.fleet.topology import CorruptionEpisode, FleetSpec, FleetTopology
from repro.lifecycle.traces import LifecycleTrace, TraceSpec
from repro.runner.harness import CellResult
from repro.runner.sweep import load_checkpoint
from repro.service import (
    ControlPlaneService, ServiceConfig, TelemetryError, TelemetryRecord,
    parse_record,
)
from repro.service.http import HttpError, Request, read_request
from repro.service.telemetry import parse_evidence_line

SMALL_FLEET = FleetSpec(n_pods=2, tors_per_pod=4, fabrics_per_pod=2,
                        spine_uplinks=4, mttf_hours=300.0)

GOOD_RECORD = {"t": 60.0, "link": 3, "rx_all": 1000, "rx_ok": 999}
GOOD_REPORT = FlowReport(1.0, 7, 0, 0, 1, 1, (2, 9), True).to_dict()


def line(**fields) -> str:
    """A JSON line; Python's encoder spells non-finite floats as the
    ``NaN``/``Infinity`` tokens ``json.loads`` accepts."""
    return json.dumps(fields)


# ---------------------------------------------------------------------------
# Telemetry and flow-report lines
# ---------------------------------------------------------------------------

class TestTelemetryLines:
    def test_infinite_link_is_a_telemetry_error(self):
        with pytest.raises(TelemetryError):
            parse_record(line(**{**GOOD_RECORD, "link": math.inf}))
        with pytest.raises(TelemetryError):
            parse_record(line(**{**GOOD_RECORD, "rx_all": -math.inf}))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(TelemetryError):
            parse_record(line(**{**GOOD_RECORD, "t": t}))
        with pytest.raises(TelemetryError):
            parse_evidence_line(line(**{**GOOD_REPORT, "t": t}))

    def test_infinite_flow_id_is_a_telemetry_error(self):
        with pytest.raises(TelemetryError):
            parse_evidence_line(line(**{**GOOD_REPORT, "flow": math.inf}))

    def test_string_path_is_not_a_link_list(self):
        with pytest.raises(TelemetryError):
            parse_evidence_line(line(**{**GOOD_REPORT, "path": "12"}))

    def test_good_lines_still_parse(self):
        assert parse_record(json.dumps(GOOD_RECORD)) == TelemetryRecord(
            60.0, 3, 1000, 999)
        report = parse_evidence_line(json.dumps(GOOD_REPORT))
        assert report.path == (2, 9) and report.retx


def small_config(**overrides) -> ServiceConfig:
    base = dict(port=0, fleet=SMALL_FLEET, executor="inline",
                backend="fastpath", telemetry="file")
    base.update(overrides)
    return ServiceConfig(**base)


def ingest_file(config: ServiceConfig):
    """Run the service until the file is folded in; returns it drained."""

    async def scenario():
        service = ControlPlaneService(config)
        await service.start()
        try:
            await service.wait_ingest_idle()
        finally:
            await service.begin_drain()
        return service

    return asyncio.run(scenario())


class TestIngestSurvivesJunk:
    def test_counter_ingest_counts_junk_and_keeps_going(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        junk = [line(**{**GOOD_RECORD, "link": math.inf}),
                line(**{**GOOD_RECORD, "t": math.nan}),
                "[1, 2]",
                "{not json"]
        good = [TelemetryRecord(60.0 * tick, 3, 1000 * tick, 1000 * tick)
                for tick in range(1, 6)]
        lines = [junk[0], good[0].to_json(), junk[1], good[1].to_json(),
                 junk[2], good[2].to_json(), junk[3], good[3].to_json(),
                 good[4].to_json()]
        path.write_text("\n".join(lines) + "\n")
        service = ingest_file(small_config(telemetry_file=str(path)))
        assert service.arbiter.records_seen == len(good)
        assert service._bad_lines == len(junk)

    def test_nan_first_report_does_not_stall_voting(self, tmp_path):
        path = tmp_path / "evidence.jsonl"
        topology = FleetTopology(SMALL_FLEET, seed=1)
        truth = CorruptionEpisode(link_id=5, onset_s=0.0, clear_s=60.0,
                                  loss_rate=1.5e-3, mean_burst=1.0)
        reports = harvest_evidence(EvidenceSpec(flows_per_s=100.0, seed=4),
                                   topology, [truth], 0.0, 60.0)
        with open(path, "w") as handle:
            handle.write(line(**{**reports[0].to_dict(), "t": math.nan})
                         + "\n")
            for report in reports:
                handle.write(report.to_json() + "\n")
        service = ingest_file(small_config(
            evidence="voting", blame_window_s=20.0,
            telemetry_file=str(path)))
        monitor = service.arbiter
        assert service._bad_lines == 1
        assert monitor.records_seen == len(reports)
        assert monitor.evaluations > 1
        horizon = monitor.last_record_s - monitor.window_s
        assert all(report.time_s >= horizon for report in monitor._reports)


# ---------------------------------------------------------------------------
# Lifecycle trace files
# ---------------------------------------------------------------------------

def small_trace() -> LifecycleTrace:
    return LifecycleTrace.generate(
        TraceSpec(SMALL_FLEET, duration_days=3.0, seed=2))


def mangled(**changes) -> str:
    document = json.loads(small_trace().to_json())
    for key, value in changes.items():
        if key == "duration_days":
            document["spec"]["duration_days"] = value
        else:
            document[key] = value
    return json.dumps(document)


MANGLED_TRACES = {
    "event_not_object": dict(events=[5], n_events=1),
    "events_not_list": dict(events=7),
    "unknown_event_key": dict(events=[{"time_s": 1.0, "bogus": 2}],
                              n_events=1),
    "duration_not_number": dict(duration_days="x"),
    "duration_infinite": dict(duration_days=math.inf),
    "spec_not_object": dict(spec=[1, 2]),
}


class TestTraceFiles:
    @pytest.mark.parametrize("name", sorted(MANGLED_TRACES))
    def test_mis_shaped_trace_is_a_value_error(self, name):
        with pytest.raises(ValueError):
            LifecycleTrace.from_json(mangled(**MANGLED_TRACES[name]))

    def test_round_trip_unchanged(self):
        trace = small_trace()
        assert LifecycleTrace.from_json(trace.to_json()).events == trace.events

    def test_replay_cli_exits_2_on_mis_shaped_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(mangled(events=[5], n_events=1))
        with pytest.raises(SystemExit) as excinfo:
            main(["lifecycle", "replay", "--trace", str(bad)])
        assert excinfo.value.code == 2
        assert "bad.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sweep checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoints:
    def test_non_object_lines_are_skipped(self, tmp_path):
        good = CellResult(cell_id="c1", spec={"kind": "fct"},
                          metrics={"x": 1.0})
        path = tmp_path / "ckpt.jsonl"
        path.write_text("\n".join([
            "[1,2]", "5", '"x"', "null", '{"cell_id": [1], "spec": {}}',
            good.to_json(), '{"cell_id": "c2", "spe',
        ]) + "\n")
        done = load_checkpoint(str(path))
        assert list(done) == ["c1"]
        assert done["c1"].metrics == {"x": 1.0}


# ---------------------------------------------------------------------------
# Properties over arbitrary input
# ---------------------------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats() | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)


ANY_VALUE = st.floats() | st.integers() | JSON_VALUES


def shaped_dict(template: dict):
    """Objects like the template with one value, or every value,
    replaced by anything."""
    one = st.tuples(st.sampled_from(sorted(template)), ANY_VALUE).map(
        lambda item: {**template, item[0]: item[1]})
    return one | st.fixed_dictionaries({key: ANY_VALUE for key in template})


def shaped(template: dict):
    """JSON lines of :func:`shaped_dict` objects."""
    return shaped_dict(template).map(json.dumps)


ANY_LINE = st.text(max_size=60) | JSON_VALUES.map(json.dumps)


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(ANY_LINE | shaped(GOOD_RECORD))
    def test_parse_record_total(self, text):
        try:
            record = parse_record(text)
        except TelemetryError:
            return
        assert finite(record.time_s)
        assert all(isinstance(value, int) and value >= 0 for value in
                   (record.link_id, record.rx_all, record.rx_ok))
        assert record.rx_ok <= record.rx_all

    @settings(max_examples=300, deadline=None)
    @given(ANY_LINE | shaped(GOOD_REPORT))
    def test_parse_evidence_line_total(self, text):
        try:
            report = parse_evidence_line(text)
        except TelemetryError:
            return
        assert finite(report.time_s)
        assert all(isinstance(value, int) for value in (
            report.flow_id, report.src_pod, report.src_tor,
            report.dst_pod, report.dst_tor, *report.path))
        assert isinstance(report.path, tuple)
        assert isinstance(report.retx, bool)

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES | st.fixed_dictionaries(
        {"lifecycle_trace": st.just(1)},
        optional={"spec": JSON_VALUES | shaped_dict(
                      {"fleet": {}, "duration_days": 1.0, "seed": 1}),
                  "events": JSON_VALUES | st.lists(shaped_dict(
                      {"time_s": 1.0, "link_id": 0, "loss_rate": 1e-3,
                       "mean_burst": 1.0, "event_index": 0}), max_size=3),
                  "n_events": JSON_VALUES}))
    def test_trace_from_json_raises_only_value_error(self, document):
        try:
            LifecycleTrace.from_json(json.dumps(document), verify=False)
        except ValueError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_LINE | shaped({"cell_id": "c", "spec": {}}),
                    max_size=6))
    def test_load_checkpoint_never_raises(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("ckpt") / "c.jsonl"
        path.write_text("\n".join(line.replace("\n", " ")
                                  for line in lines) + "\n")
        for cell_id, result in load_checkpoint(str(path)).items():
            assert isinstance(cell_id, str) and result.cell_id == cell_id

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200)
           | st.builds(lambda head, tail: head + b"\r\n\r\n" + tail,
                       st.sampled_from([b"GET / HTTP/1.1",
                                        b"POST /whatif HTTP/1.1",
                                        b"GET http://[ HTTP/1.1",
                                        b"GET //[x/ HTTP/1.0"])
                       .flatmap(lambda start: st.binary(max_size=80).map(
                           lambda rest: start + b"\r\n" + rest)),
                       st.binary(max_size=40)))
    def test_read_request_total(self, data):
        async def parse():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_request(reader)

        try:
            result = asyncio.run(parse())
        except HttpError:
            return
        assert result is None or isinstance(result, Request)
