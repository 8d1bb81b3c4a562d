"""The Transport seam's defaults, the backend factory, and inline-fallback
telemetry on the one transport that still falls back (cluster)."""

import pytest

from repro.dist.cluster import ClusterExecutor
from repro.engine.executors import (
    SerialExecutor,
    ThreadExecutor,
    Transport,
    make_executor,
)
from repro.obs import EventBus, TelemetryRegistry


class TestFactory:
    def test_builtin_backends_resolve(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        threads = make_executor("threads", num_workers=2)
        assert isinstance(threads, ThreadExecutor)
        threads.shutdown()

    def test_cluster_resolves_to_a_transport(self):
        transport = make_executor("cluster", num_workers=2)
        try:
            assert isinstance(transport, Transport)
            assert isinstance(transport, ClusterExecutor)
        finally:
            transport.shutdown()

    def test_unknown_backend_names_the_options(self):
        with pytest.raises(ValueError, match="unknown executor backend.*cluster"):
            make_executor("quantum")

    def test_default_execute_runs_inline(self):
        transport = SerialExecutor()
        sentinel = object()
        task, value = transport.execute(lambda t: (t, 41)[1] + 1, sentinel)
        assert task is sentinel
        assert value == 42

    def test_local_transports_never_lose_map_outputs(self):
        assert SerialExecutor().missing_map_outputs(0) == []


class TestFallbackTelemetry:
    """Inline fallbacks are counted, total and per reason.  An unbound
    cluster executor has no fleet, so every ``execute`` falls back."""

    @pytest.fixture
    def ex(self):
        ex = ClusterExecutor(num_workers=2)
        yield ex
        ex.shutdown()

    def test_no_workers_counts_a_fallback(self, ex):
        ex.telemetry = TelemetryRegistry()
        assert ex.execute(lambda t: t + 1, 1) == (1, 2)
        assert ex.fallback_batches == 1
        assert ex.telemetry.counter("executor.fallbacks") == 1
        assert ex.telemetry.counter("executor.fallbacks.no_workers") == 1

    def test_fallback_event_reaches_the_bus(self, ex):
        seen = []
        ex.events = EventBus()
        ex.events.subscribe(seen.append)
        ex.execute(lambda t: t, 0)
        incidents = [e for e in seen if e.get("kind") == "executor.incident"]
        assert incidents and incidents[0]["reason"] == "no_workers"

    def test_no_telemetry_attached_is_fine(self, ex):
        assert ex.execute(lambda t: 9, 0) == (0, 9)
        assert ex.fallback_batches == 1
