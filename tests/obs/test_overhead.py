"""Overhead guard: untraced runs must pay (almost) nothing for repro.obs.

The default context keeps a NoopTracer and an EventBus with no
subscribers; both hot paths — ``events.publish`` and ``tracer.span`` —
must stay trivially cheap.  The bounds are deliberately generous (CI
machines vary wildly); what they guard against is an accidental O(work)
regression like formatting event payloads before the subscriber check.
"""

import time

from repro.obs import EventBus, NoopTracer


def test_inactive_publish_100k_is_fast():
    bus = EventBus()
    start = time.perf_counter()
    for i in range(100_000):
        bus.publish("span.close", span_id=i, dur=0.1)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"inactive publish too slow: {elapsed:.3f}s"


def test_noop_span_100k_is_fast():
    tracer = NoopTracer()
    start = time.perf_counter()
    for i in range(100_000):
        with tracer.span("task", kind="task", partition=i):
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"noop span too slow: {elapsed:.3f}s"
    assert tracer.current() is None


def test_default_context_is_untraced(ctx, monkeypatch):
    assert not ctx.tracer.enabled
    assert not ctx.events.active
    # A real job through the scheduler records no spans and publishes
    # nothing: not even a publish call reaches the inert bus.
    published = []
    monkeypatch.setattr(
        ctx.events, "publish", lambda kind, **fields: published.append(kind)
    )
    ctx.parallelize([(i % 2, i) for i in range(10)], 2).group_by_key().collect()
    assert published == []
    assert ctx.tracer.current() is None
