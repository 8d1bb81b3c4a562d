import json
import threading

from repro.obs import (
    EVENT_SCHEMA,
    EventBus,
    JsonlEventSink,
    MemorySink,
    read_events,
    validate_event,
    validate_events,
)
from repro.obs.events import now


class TestEventBus:
    def test_inactive_publish_is_noop(self):
        bus = EventBus()
        assert not bus.active
        bus.publish("run.start")  # nobody listening; must not raise

    def test_publish_delivers_kind_ts_and_fields(self):
        bus = EventBus(clock=lambda: 123.0)
        sink = MemorySink()
        bus.subscribe(sink)
        assert bus.active
        bus.publish("process.skipped", process="p")
        assert sink.events == [
            {"kind": "process.skipped", "ts": 123.0, "process": "p"}
        ]

    def test_ts_field_overrides_the_stamp(self):
        bus = EventBus(clock=lambda: 123.0)
        sink = MemorySink()
        bus.subscribe(sink)
        bus.publish("span.open", ts=7.0, span_id="a")
        assert sink.events[0]["ts"] == 7.0

    def test_default_clock_is_monotonic_epoch_seconds(self):
        import time

        stamps = [now() for _ in range(1000)]
        assert stamps == sorted(stamps)
        assert abs(stamps[-1] - time.time()) < 5.0
        assert EventBus().clock is now

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        sink = MemorySink()
        bus.subscribe(sink)
        bus.unsubscribe(sink)
        assert not bus.active
        bus.publish("run.start")
        assert sink.events == []

    def test_duplicate_subscribe_delivers_once(self):
        bus = EventBus()
        sink = MemorySink()
        bus.subscribe(sink)
        bus.subscribe(sink)
        bus.publish("run.start")
        assert len(sink.events) == 1

    def test_concurrent_publish_is_safe(self):
        bus = EventBus()
        sink = MemorySink()
        bus.subscribe(sink)

        def pump():
            for _ in range(200):
                bus.publish("journal.record", process="x")

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sink.events) == 800


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus()
        with JsonlEventSink(path) as sink:
            bus.subscribe(sink)
            bus.publish("run.start", backend="serial")
            bus.publish("run.end", elapsed=1.5)
        events = read_events(path)
        assert [e["kind"] for e in events] == ["run.start", "run.end"]
        assert events[1]["elapsed"] == 1.5
        assert validate_events(events) == []

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps({"kind": "run.start", "ts": 1.0})
        path.write_text(good + "\n" + '{"kind": "run.e')  # crash artifact
        events = read_events(str(path))
        assert len(events) == 1
        assert events[0]["kind"] == "run.start"

    def test_write_after_close_is_silent(self, tmp_path):
        sink = JsonlEventSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink({"kind": "run.start", "ts": 0.0})  # dropped, not raised

    def test_unjsonable_payloads_degrade_to_repr(self, tmp_path):
        path = str(tmp_path / "e.jsonl")
        with JsonlEventSink(path) as sink:
            sink({"kind": "run.start", "ts": 0.0, "odd": {1, 2}, "obj": object()})
        (event,) = read_events(path)
        assert event["odd"] == [1, 2]
        assert "object" in event["obj"]


class TestSchema:
    def test_every_kind_validates_with_required_fields(self):
        for kind, required in EVENT_SCHEMA.items():
            event = {"kind": kind, "ts": 0.0}
            event.update({field: 0 for field in required})
            assert validate_event(event) == [], kind

    def test_unknown_kind_rejected(self):
        problems = validate_event({"kind": "bogus.kind", "ts": 0.0})
        assert any("unknown event kind" in p for p in problems)

    def test_missing_field_and_ts_reported(self):
        problems = validate_event({"kind": "run.end"})
        assert any("missing numeric 'ts'" in p for p in problems)
        assert any("'elapsed'" in p for p in problems)

    def test_validate_events_indexes_problems(self):
        problems = validate_events([{"kind": "run.start", "ts": 0.0}, {"no": 1}])
        assert len(problems) == 1
        assert problems[0].startswith("event 1:")

