import json
import os
import threading
import time

from repro.engine.context import EngineConfig, GPFContext
from repro.obs import (
    EventBus,
    SamplingProfiler,
    Tracer,
    fold_folded_text,
    top_functions_from_stacks,
    validate_events,
)


def _burn(stop: threading.Event) -> None:
    """A busy loop with a recognizable frame for the sampler to catch."""
    while not stop.is_set():
        sum(i * i for i in range(500))


def _sample_this_thread(profiler: SamplingProfiler) -> None:
    """One deterministic sample of the caller's stack (``sample_once``
    skips the thread it runs on, so it runs on a helper)."""
    sampler = threading.Thread(target=profiler.sample_once)
    sampler.start()
    sampler.join()


class TestSampling:
    def test_samples_busy_thread_with_qualified_names(self):
        profiler = SamplingProfiler(interval=0.001)
        stop = threading.Event()
        worker = threading.Thread(target=_burn, args=(stop,), name="burner")
        worker.start()
        profiler.start()
        time.sleep(0.2)
        profiler.stop()
        stop.set()
        worker.join()
        assert profiler.samples > 0
        folded = profiler.folded()
        burn_stacks = [s for s in folded if "_burn" in s]
        assert burn_stacks, folded
        # Unspanned threads root at thread:<name>.
        assert any(s.startswith("thread:burner;") for s in burn_stacks)

    def test_span_attribution_prefixes_stacks(self):
        tracer = Tracer(EventBus())
        profiler = SamplingProfiler(
            interval=0.001, tracer=tracer
        )
        profiler.start()
        with tracer.span("s1", kind="stage"):
            deadline = time.monotonic() + 0.2
            while time.monotonic() < deadline:
                sum(i * i for i in range(500))
        profiler.stop()
        attributed = [s for s in profiler.folded() if s.startswith("stage:s1;")]
        assert attributed, profiler.folded()

    def test_folded_path_names_each_span_once(self):
        # Pipeline, process and job span names already carry their kind;
        # stage and task names do not.
        tracer = Tracer(EventBus())
        profiler = SamplingProfiler(interval=1.0, tracer=tracer)
        with tracer.span("pipeline:wgs", kind="pipeline"):
            with tracer.span("job:reads", kind="job"):
                with tracer.span("result:reads", kind="stage"):
                    with tracer.span("result-p0", kind="task"):
                        _sample_this_thread(profiler)
        (stack,) = [s for s in profiler.folded() if "names_each_span_once" in s]
        assert stack.startswith(
            "pipeline:wgs;job:reads;stage:result:reads;task:result-p0;"
        ), stack

    def test_flush_publishes_schema_valid_delta_events(self):
        events = []
        bus = EventBus()
        bus.subscribe(events.append)
        profiler = SamplingProfiler(interval=0.001, events=bus)
        profiler.start()
        time.sleep(0.05)
        profiler.stop()  # stop flushes
        samples = [e for e in events if e["kind"] == "profile.sample"]
        assert samples
        assert validate_events(samples) == []
        # Deltas: replaying every event reconstructs the full profile.
        replayed = sum(e["samples"] for e in samples)
        assert replayed == profiler.samples

    def test_reset_clears_everything(self):
        profiler = SamplingProfiler(interval=0.001)
        _sample_this_thread(profiler)
        assert profiler.samples > 0
        profiler.reset()
        assert profiler.samples == 0
        assert profiler.folded() == {}

    def test_folded_text_format(self):
        profiler = SamplingProfiler(interval=0.001)

        def hot():
            _sample_this_thread(profiler)

        def cold():
            _sample_this_thread(profiler)

        hot()
        hot()
        cold()
        # Other live threads get sampled too; keep this test's own stacks.
        lines = [
            line
            for line in profiler.folded_text().splitlines()
            if "test_folded_text_format" in line
        ]
        assert len(lines) == 2
        assert "hot" in lines[0] and lines[0].endswith(" 2")
        assert "cold" in lines[1] and lines[1].endswith(" 1")


class TestHelpers:
    def test_top_functions_aggregates_by_leaf(self):
        stacks = {"a;hot": 3, "b;hot": 2, "a;cold": 1}
        assert top_functions_from_stacks(stacks, 2) == [("hot", 5), ("cold", 1)]

    def test_fold_folded_text_merges_maps(self):
        text = fold_folded_text([{"a;b": 1}, {"a;b": 2, "c": 1}])
        assert "a;b 3" in text.splitlines()


class TestProfiledContext:
    def test_profiled_traced_run_writes_artifacts(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        config = EngineConfig(
            spill_dir=str(tmp_path / "spill"),
            trace_dir=trace_dir,
            profile_interval=0.001,
        )
        ctx = GPFContext(config)
        try:
            data = [(i % 4, i) for i in range(4000)]
            ctx.parallelize(data, 4).map_values(
                lambda v: sum(j * j for j in range(v % 97))
            ).group_by_key().collect()
        finally:
            ctx.stop()
        folded_path = os.path.join(trace_dir, "profile.folded")
        assert os.path.exists(folded_path)
        with open(folded_path) as fh:
            folded = fh.read()
        assert folded.strip(), "profiled run produced no samples"
        with open(os.path.join(trace_dir, "trace.json")) as fh:
            trace = json.load(fh)
        assert any(e.get("ph") == "P" for e in trace["traceEvents"])

    def test_unprofiled_context_has_no_profiler(self, tmp_path):
        ctx = GPFContext(EngineConfig(spill_dir=str(tmp_path / "spill")))
        try:
            assert ctx.profiler is None
        finally:
            ctx.stop()
