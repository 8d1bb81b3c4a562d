"""Hierarchical tracing: nested spans, published as run events.

The span model mirrors the run's natural hierarchy::

    pipeline -> process -> job -> stage -> task attempt

A :class:`Span` records a name, a kind (one of the levels above), start
and end timestamps on the event bus's clock, free-form attributes
(partition, attempt, shuffle bytes, records, cache hits), and its parent
span.  Span IDs embed the producing process's PID plus a process-local
counter, so IDs minted inside ``process``-backend workers can never
collide with driver IDs.

Every context owns one :class:`Tracer`, built with the context over its
:class:`EventBus`.  It publishes each span twice: a ``span.open`` event
when it starts and a ``span.close`` event, with every attribute, when it
ends.  Those events are the run's one timeline: ``events.jsonl`` keeps
them, and the run report, the live progress tracker and ``trace.json``
are all built from them.  Within one thread, spans nest implicitly
through a thread-local stack; work handed to executor threads passes
the parent span explicitly instead.

The tracer has no off switch of its own.  On a bus nobody subscribes to
it times the span and keeps the nesting, but builds no event dict, so
an untraced run pays a few microseconds per span and nothing more.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.events import EventBus

#: Span kinds, outermost first (purely informational — nesting is free-form).
SPAN_KINDS = ("pipeline", "process", "job", "stage", "task", "span")

_span_counter = itertools.count(1)


def new_span_id() -> str:
    """Process- and thread-safe span ID: ``<pid>-<counter>`` in hex."""
    return f"{os.getpid():x}-{next(_span_counter):x}"


class Span:
    """One timed, attributed interval of the run."""

    __slots__ = (
        "name",
        "kind",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "pid",
        "tid",
        "ident",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        parent_id: str | None,
        clock: Callable[[], float],
    ):
        self.name = name
        self.kind = kind
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start = clock()
        self.end: float | None = None
        self.attrs: dict = {}
        self.pid = os.getpid()
        self.tid = threading.get_native_id()
        #: ``threading.get_ident()`` of the opening thread — the key
        #: ``sys._current_frames()`` uses, which is how the sampling
        #: profiler attributes a sampled stack back to this span.
        self.ident = threading.get_ident()

    def set_attribute(self, key: str, value) -> None:
        self.attrs[key] = value

    def set_attributes(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Span length in seconds; 0.0 while still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.2f}ms" if self.finished else "open"
        return f"<Span {self.kind}:{self.name} {self.span_id} {state}>"


class Tracer:
    """Publishes nested spans to an event bus; thread-safe."""

    def __init__(self, events: EventBus) -> None:
        self.events = events
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Open spans by ID — lets the sampling profiler walk parent
        #: chains from any thread, since stage/job ancestors stay open
        #: while their tasks run.
        self._open: dict[str, Span] = {}
        #: Innermost open span per thread ident (``get_ident()``, the
        #: ``sys._current_frames()`` key); the profiler maps a sampled
        #: thread's stack to its span ancestry through this.
        self._active_by_tid: dict[int, Span] = {}

    # -- implicit parent stack (per thread) ---------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        """The innermost open span started on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span lifecycle -----------------------------------------------------
    def start_span(
        self, name: str, kind: str = "span", parent: Span | None = None, **attrs
    ) -> Span:
        """Open a span; ``parent`` overrides the thread-local nesting.

        Executor threads have no thread-local ancestry, so stage/task
        spans created there must pass the driver-side parent explicitly.
        """
        if parent is None:
            parent = self.current()
        parent_id = getattr(parent, "span_id", None)
        span = Span(name, kind, parent_id, self.events.clock)
        if attrs:
            span.attrs.update(attrs)
        self._stack().append(span)
        with self._lock:
            self._open[span.span_id] = span
            self._active_by_tid[span.ident] = span
        self._publish("span.open", span, ts=span.start)
        return span

    def finish(self, span: Span) -> None:
        """Close a span and publish it with every attribute it gathered."""
        if span.end is not None:
            return
        span.end = self.events.clock()
        stack = self._stack()
        if span in stack:
            # Pop through (tolerates a missed finish of an inner span).
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        with self._lock:
            self._open.pop(span.span_id, None)
            if self._active_by_tid.get(span.ident) is span:
                parent = (
                    self._open.get(span.parent_id) if span.parent_id else None
                )
                # Reattribute the thread to the enclosing span only when
                # the parent lives on the same thread (executor threads
                # inherit a driver-side parent they don't run on).
                if parent is not None and parent.ident == span.ident:
                    self._active_by_tid[span.ident] = parent
                else:
                    del self._active_by_tid[span.ident]
        # Published outside the lock: sinks do I/O.
        self._publish(
            "span.close",
            span,
            ts=span.end,
            dur=span.duration,
            pid=span.pid,
            tid=span.tid,
        )

    def _publish(self, kind: str, span: Span, **fields) -> None:
        if self.events.active:
            self.events.publish(
                kind,
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                span_kind=span.kind,
                attrs=dict(span.attrs),
                **fields,
            )

    def path_for_thread(self, tid: int) -> list[str] | None:
        """Span ancestry for one thread ident (a ``sys._current_frames``
        key), root-first, as ``kind:name`` frames (``pipeline:wgs`` is one
        already) — the profiler prefixes sampled stacks with this so every
        sample lands under its job/stage/task in the flamegraph."""
        with self._lock:
            span = self._active_by_tid.get(tid)
            if span is None:
                return None
            path: list[str] = []
            depth = 0
            while span is not None and depth < 16:
                name, kind = span.name, f"{span.kind}:"
                path.append(name if name.startswith(kind) else kind + name)
                span = self._open.get(span.parent_id) if span.parent_id else None
                depth += 1
        path.reverse()
        return path

    @contextmanager
    def span(
        self, name: str, kind: str = "span", parent: Span | None = None, **attrs
    ) -> Iterator[Span]:
        """Context-managed span; an escaping exception is recorded as the
        ``error`` attribute before the span closes."""
        span = self.start_span(name, kind=kind, parent=parent, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.set_attribute("error", type(exc).__name__)
            raise
        finally:
            self.finish(span)
