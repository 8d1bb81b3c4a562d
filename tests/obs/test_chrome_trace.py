import json
import os

from repro.engine.context import EngineConfig, GPFContext
from repro.obs import (
    EventBus,
    MemorySink,
    Tracer,
    chrome_trace_dict,
    read_events,
    validate_chrome_trace,
)


def recording_tracer() -> tuple[Tracer, MemorySink]:
    tracer = Tracer(EventBus())
    sink = MemorySink()
    tracer.events.subscribe(sink)
    return tracer, sink


class TestChromeTraceDict:
    def test_spans_become_complete_events(self):
        tracer, sink = recording_tracer()
        with tracer.span("pipeline:x", kind="pipeline"):
            with tracer.span("job:y", kind="job", partition=2):
                pass
        trace = chrome_trace_dict(sink.events)
        assert validate_chrome_trace(trace) == []
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"pipeline:x", "job:y"}
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert "span_id" in event["args"]
        job = next(e for e in complete if e["name"] == "job:y")
        pipeline = next(e for e in complete if e["name"] == "pipeline:x")
        assert job["args"]["parent_id"] == pipeline["args"]["span_id"]
        assert job["args"]["partition"] == 2

    def test_events_sorted_and_metadata_present(self):
        tracer, sink = recording_tracer()
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        trace = chrome_trace_dict(sink.events)
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert metadata and metadata[0]["name"] == "process_name"
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [e["ts"] for e in complete] == sorted(e["ts"] for e in complete)

    def test_open_spans_excluded(self):
        tracer, sink = recording_tracer()
        tracer.start_span("never-finished")
        trace = chrome_trace_dict(sink.events)
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"] == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace({}) == ["traceEvents is not a list"]
        bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1}]}
        assert any("negative dur" in p for p in validate_chrome_trace(bad))


class TestTracedRunExport:
    def test_context_writes_loadable_trace_json(self, tmp_path):
        config = EngineConfig(
            spill_dir=str(tmp_path / "spill"), trace_dir=str(tmp_path / "trace")
        )
        with GPFContext(config) as ctx:
            ctx.parallelize(range(20), 4).map(lambda x: x + 1).collect()
        path = os.path.join(str(tmp_path / "trace"), "trace.json")
        with open(path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        # One job span plus its per-partition task spans.
        assert any(name.startswith("job:") for name in names)
        assert any(name.startswith("result-p") for name in names)
        # Task spans parent into the stage span across executor threads.
        by_id = {
            e["args"]["span_id"]: e
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        }
        tasks = [e for e in by_id.values() if e["name"].startswith("result-p")]
        assert tasks
        for task in tasks:
            parent = by_id[task["args"]["parent_id"]]
            assert parent["cat"] == "stage"
        # trace.json is derived from events.jsonl: one complete event per
        # span close, with the same IDs and durations.
        events = read_events(os.path.join(str(tmp_path / "trace"), "events.jsonl"))
        closed = {e["span_id"]: e for e in events if e["kind"] == "span.close"}
        assert set(by_id) == set(closed)
        for span_id, entry in by_id.items():
            assert entry["dur"] == closed[span_id]["dur"] * 1e6

    def test_degraded_event_log_writes_no_trace(self, tmp_path):
        """A sink that hits a write error mid-run loses every later event:
        no trace.json is built from the partial log (nor left from an
        earlier segment), and the loss is reported as an incident."""
        trace_dir = tmp_path / "trace"
        config = EngineConfig(spill_dir=str(tmp_path / "spill"), trace_dir=str(trace_dir))
        incidents = MemorySink()
        with GPFContext(config) as ctx:
            ctx.events.subscribe(incidents)
            ctx.parallelize(range(8), 2).collect()
            ctx.end_trace()
            assert (trace_dir / "trace.json").exists()
            ctx.begin_trace(str(trace_dir))
            ctx.parallelize(range(8), 2).collect()

            class FullDisk:
                def __init__(self, fh):
                    self._fh = fh

                def write(self, text):
                    raise OSError(28, "No space left on device")

                def flush(self):
                    self._fh.flush()

                def close(self):
                    self._fh.close()

            ctx._event_sink._fh = FullDisk(ctx._event_sink._fh)
            ctx.parallelize(range(8), 2).collect()
        assert not (trace_dir / "trace.json").exists()
        assert any(
            e["kind"] == "executor.incident"
            and e["incident"] == "event_log_degraded"
            for e in incidents.events
        )
        assert ctx.metrics.snapshot()["counters"]["executor.event_log_degraded"] == 1

    def test_reused_trace_dir_traces_only_its_segment(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        config = EngineConfig(spill_dir=str(tmp_path / "spill"), trace_dir=trace_dir)
        with GPFContext(config) as ctx:
            ctx.parallelize(range(8), 2).collect()
            ctx.end_trace()
            ctx.begin_trace(trace_dir)
            ctx.parallelize(range(8), 4).collect()
        with open(os.path.join(trace_dir, "trace.json"), encoding="utf-8") as fh:
            trace = json.load(fh)
        tasks = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("result-p")
        ]
        assert len(tasks) == 4
        events = read_events(os.path.join(trace_dir, "events.jsonl"))
        assert sum(e["kind"] == "run.start" for e in events) == 2
