"""Context pooling hooks: per-job tracing segments and warm reuse.

The serve worker pool keeps one ``GPFContext`` alive across jobs; these
tests pin the contract that makes that safe: ``begin_trace``/``end_trace``
give each job an isolated event log, and ``reset_for_reuse`` clears every
piece of per-run state without tearing down the engine.
"""

import os

import pytest

from repro.engine.context import EngineConfig, GPFContext
from repro.obs import read_events, validate_events


def _tiny_job(ctx, seed: int) -> int:
    rdd = ctx.parallelize(list(range(20)), 2).map(lambda x: x * seed)
    rdd.persist()
    return sum(rdd.collect())


class TestTraceSegments:
    def test_per_job_trace_files(self, tmp_path):
        with GPFContext(EngineConfig(default_parallelism=2)) as ctx:
            tracer = ctx.tracer
            for tag in ("job_a", "job_b"):
                trace_dir = str(tmp_path / tag)
                ctx.begin_trace(trace_dir)
                _tiny_job(ctx, 3)
                ctx.end_trace()
                # A segment only attaches and detaches the sink.
                assert ctx.tracer is tracer
                assert not ctx.events.active
                events = read_events(os.path.join(trace_dir, "events.jsonl"))
                assert events and not validate_events(events)
                # each segment is self-contained: starts and ends a run
                assert events[0]["kind"] == "run.start"
                assert events[-1]["kind"] == "run.end"
                assert os.path.exists(os.path.join(trace_dir, "trace.json"))

    def test_begin_trace_closes_previous_segment(self, tmp_path):
        with GPFContext(EngineConfig(default_parallelism=2)) as ctx:
            ctx.begin_trace(str(tmp_path / "first"))
            ctx.begin_trace(str(tmp_path / "second"))
            first = read_events(str(tmp_path / "first" / "events.jsonl"))
            assert first[-1]["kind"] == "run.end"
            ctx.end_trace()

    def test_begin_trace_on_closed_context_rejected(self):
        ctx = GPFContext(EngineConfig())
        ctx.stop()
        with pytest.raises(RuntimeError, match="closed"):
            ctx.begin_trace("/tmp/nope")


class TestResetForReuse:
    def test_clears_metrics_telemetry_quarantine_and_cache(self, tmp_path):
        with GPFContext(EngineConfig(default_parallelism=2)) as ctx:
            _tiny_job(ctx, 2)
            ctx.metrics.inc("something", 5)
            ctx.quarantine.add("fastq", "@bad", "truncated")
            assert ctx.metrics.job().stage_count > 0
            assert ctx.cached_bytes() > 0
            first_metrics = ctx.metrics

            ctx.reset_for_reuse()
            # Reset in place: one registry for the context's whole life.
            assert ctx.metrics is first_metrics
            assert ctx.metrics.job().stage_count == 0
            assert ctx.metrics.counter("something") == 0
            assert ctx.quarantine.total == 0
            assert ctx.cached_bytes() == 0

    def test_engine_still_works_after_reset(self):
        with GPFContext(EngineConfig(default_parallelism=2)) as ctx:
            before = _tiny_job(ctx, 7)
            ctx.reset_for_reuse()
            assert _tiny_job(ctx, 7) == before
            assert ctx.metrics.job().stage_count > 0

    def test_reset_closes_open_trace_segment(self, tmp_path):
        with GPFContext(EngineConfig(default_parallelism=2)) as ctx:
            ctx.begin_trace(str(tmp_path / "seg"))
            ctx.reset_for_reuse()
            assert not ctx.events.active
            events = read_events(str(tmp_path / "seg" / "events.jsonl"))
            assert events[-1]["kind"] == "run.end"

    def test_reset_on_closed_context_rejected(self):
        ctx = GPFContext(EngineConfig())
        ctx.stop()
        with pytest.raises(RuntimeError, match="closed"):
            ctx.reset_for_reuse()
