"""Overhead guard: untraced runs must pay (almost) nothing for repro.obs.

Every context runs one Tracer over an EventBus; with no subscriber both
hot paths — ``events.publish`` and ``tracer.span`` — must stay cheap:
the bus returns before building an event, and the tracer only times and
nests the span.  The bounds are deliberately generous (CI machines vary
wildly); what they guard against is an accidental O(work) regression
like formatting event payloads before the subscriber check.
"""

import time

from repro.obs import EventBus, Tracer


def test_inactive_publish_100k_is_fast():
    bus = EventBus()
    start = time.perf_counter()
    for i in range(100_000):
        bus.publish("span.close", span_id=i, dur=0.1)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"inactive publish too slow: {elapsed:.3f}s"


def test_idle_bus_span_100k_is_fast():
    bus = EventBus()
    tracer = Tracer(bus)
    published = []
    bus.publish = lambda kind, **fields: published.append(kind)
    start = time.perf_counter()
    for i in range(100_000):
        with tracer.span("task", kind="task", partition=i):
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"idle-bus span too slow: {elapsed:.3f}s"
    assert published == []
    assert tracer.current() is None


def test_default_context_is_untraced(ctx, monkeypatch):
    assert not ctx.events.active
    # A real job through the scheduler opens spans but publishes nothing:
    # not even a publish call reaches the inert bus.
    published = []
    monkeypatch.setattr(
        ctx.events, "publish", lambda kind, **fields: published.append(kind)
    )
    ctx.parallelize([(i % 2, i) for i in range(10)], 2).group_by_key().collect()
    assert published == []
    assert ctx.tracer.current() is None
