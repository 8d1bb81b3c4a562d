import threading

import pytest

from repro.obs import (
    EventBus,
    MemorySink,
    Tracer,
    new_span_id,
    validate_events,
)


def recording_tracer() -> tuple[Tracer, MemorySink]:
    tracer = Tracer(EventBus())
    sink = MemorySink()
    tracer.events.subscribe(sink)
    return tracer, sink


def closes(sink: MemorySink) -> list[dict]:
    return [e for e in sink.events if e["kind"] == "span.close"]


class TestSpanIds:
    def test_ids_unique_across_threads(self):
        ids: list[str] = []
        lock = threading.Lock()

        def mint():
            mine = [new_span_id() for _ in range(500)]
            with lock:
                ids.extend(mine)

        threads = [threading.Thread(target=mint) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == len(set(ids)) == 4000

    def test_id_embeds_pid(self):
        import os

        assert new_span_id().startswith(f"{os.getpid():x}-")


class TestTracerNesting:
    def test_context_manager_nests_implicitly(self):
        tracer, sink = recording_tracer()
        with tracer.span("outer", kind="pipeline") as outer:
            assert tracer.current() is outer
            with tracer.span("inner", kind="job") as inner:
                assert inner.parent_id == outer.span_id
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert [(e["kind"], e["name"]) for e in sink.events] == [
            ("span.open", "outer"),
            ("span.open", "inner"),
            ("span.close", "inner"),
            ("span.close", "outer"),
        ]
        assert validate_events(sink.events) == []
        for span, close in ((inner, closes(sink)[0]), (outer, closes(sink)[1])):
            assert span.finished
            assert span.end >= span.start
            assert close["ts"] == span.end
            assert close["dur"] == span.duration >= 0
            assert close["span_id"] == span.span_id
        assert closes(sink)[0]["parent_id"] == outer.span_id
        assert closes(sink)[1]["span_kind"] == "pipeline"

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer(EventBus())
        root = tracer.start_span("root")
        tracer.finish(root)
        # A worker thread has no stack ancestry; the parent is explicit.
        result = {}

        def worker():
            with tracer.span("task", kind="task", parent=root) as span:
                result["parent"] = span.parent_id

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert result["parent"] == root.span_id

    def test_attributes(self):
        tracer, sink = recording_tracer()
        with tracer.span("s", partition=3) as span:
            span.set_attribute("records", 10)
            span.set_attributes(bytes=99, attempt=0)
        opened, closed = sink.events
        # The open event carries what was known at the start; the close
        # event carries everything.
        assert opened["attrs"] == {"partition": 3}
        assert closed["attrs"] == {
            "partition": 3,
            "records": 10,
            "bytes": 99,
            "attempt": 0,
        }

    def test_exception_recorded_as_error_attr(self):
        tracer, sink = recording_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("no")
        (closed,) = closes(sink)
        assert closed["attrs"]["error"] == "ValueError"
        assert span.finished

    def test_double_finish_is_idempotent(self):
        tracer, sink = recording_tracer()
        span = tracer.start_span("s")
        tracer.finish(span)
        end = span.end
        tracer.finish(span)
        assert span.end == end
        assert len(closes(sink)) == 1

    def test_missed_inner_finish_tolerated(self):
        tracer = Tracer(EventBus())
        outer = tracer.start_span("outer")
        tracer.start_span("inner")  # never finished explicitly
        tracer.finish(outer)
        assert tracer.current() is None


class TestContextTracer:
    def test_idle_bus_spans_nest_and_publish_nothing(self, ctx):
        # One tracer per context, traced or not: on a bus nobody
        # subscribes to, a span still nests but builds no event.
        assert isinstance(ctx.tracer, Tracer)
        assert ctx.tracer.events is ctx.events
        assert not ctx.events.active
        with ctx.tracer.span("outer") as outer:
            with ctx.tracer.span("inner", partition=1) as inner:
                assert ctx.tracer.current() is inner
                assert inner.parent_id == outer.span_id
        assert inner.finished and inner.attrs == {"partition": 1}
        assert ctx.tracer.current() is None

    def test_subscriber_sees_spans_without_a_trace_dir(self, ctx):
        sink = MemorySink()
        ctx.events.subscribe(sink)
        ctx.parallelize([(i % 2, i) for i in range(10)], 2).group_by_key().collect()
        kinds = {e["span_kind"] for e in closes(sink)}
        assert {"job", "stage", "task"} <= kinds
        assert not validate_events(sink.events)
