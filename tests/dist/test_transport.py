"""The Transport seam's defaults, the backend factory, and inline-fallback
counting on the one transport that still falls back (cluster)."""

import pytest

from repro.dist.cluster import ClusterExecutor
from repro.engine.executors import (
    SerialExecutor,
    ThreadExecutor,
    Transport,
    make_executor,
)
from repro.engine.context import EngineConfig, GPFContext


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
    """Inline fallbacks are counted, total and per reason, on the bound
    context's registry.  No worker ever registers, so every ``execute``
    falls back."""

    @pytest.fixture
    def ctx(self, tmp_path):
        ctx = GPFContext(
            EngineConfig(
                executor_backend="cluster",
                spill_dir=str(tmp_path / "spill"),
                cluster_wait=0.05,
            )
        )
        yield ctx
        ctx.stop()

    def test_no_workers_counts_a_fallback(self, ctx):
        assert ctx.executor.execute(lambda t: t + 1, 1) == (1, 2)
        assert ctx.metrics.counter("executor.fallbacks") == 1
        assert ctx.metrics.counter("executor.fallbacks.no_workers") == 1

    def test_fallback_event_reaches_the_bus(self, ctx):
        seen = []
        ctx.events.subscribe(seen.append)
        ctx.executor.execute(lambda t: t, 0)
        incidents = [e for e in seen if e.get("kind") == "executor.incident"]
        assert incidents and incidents[0]["reason"] == "no_workers"
