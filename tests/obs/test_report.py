import json
import os

import pytest

from repro.chaos import ChaosPlan, ChaosRule
from repro.engine.context import EngineConfig, GPFContext
from repro.obs import Histogram, RunReport, read_events, validate_events
from repro.wgs import build_wgs_pipeline

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_report.txt")


def span_open(ts, span_id, parent_id, name, span_kind, attrs=None) -> dict:
    return {
        "kind": "span.open",
        "ts": ts,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "span_kind": span_kind,
        "attrs": attrs or {},
    }


def span_close(ts, dur, span_id, parent_id, name, span_kind, attrs=None) -> dict:
    return {
        "kind": "span.close",
        "ts": ts,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "span_kind": span_kind,
        "dur": dur,
        "pid": 1,
        "tid": 1,
        "attrs": attrs or {},
    }


def stage_totals(stage_id, name, tasks, run_time, disk, net, gc, rd, wr, rec_rd, rec_wr):
    return dict(
        stage_id=stage_id,
        name=name,
        tasks=tasks,
        run_time=run_time,
        disk_blocked=disk,
        network_blocked=net,
        gc_time=gc,
        shuffle_bytes_read=rd,
        shuffle_bytes_written=wr,
        records_read=rec_rd,
        records_written=rec_wr,
    )


def synthetic_events() -> list[dict]:
    """A tiny fixed run: every value deterministic, for the golden test."""
    s0 = stage_totals(0, "shuffle-map:reads", 4, 2.0, 0.5, 0.25, 0.125, 0, 4096, 100, 100)
    s1 = stage_totals(1, "result:calls", 2, 2.0, 0.1, 0.05, 0.0, 4096, 0, 100, 10)
    return [
        {"kind": "run.start", "ts": 0.0, "backend": "serial"},
        span_open(0.1, "p", None, "pipeline:demo", "pipeline", {"processes": ["Align", "Call"]}),
        span_open(0.1, "a", "p", "process:Align", "process"),
        span_open(0.1, "j0", "a", "job:reads", "job", {"rdd_id": 3}),
        span_open(0.1, "s0", "j0", "shuffle-map:reads", "stage", {"stage_id": 0, "tasks": 4}),
        span_close(0.4, 0.3, "s0", "j0", "shuffle-map:reads", "stage", s0),
        span_close(0.45, 0.35, "j0", "a", "job:reads", "job", {"rdd_id": 3}),
        span_close(0.5, 0.4, "a", "p", "process:Align", "process"),
        {"kind": "process.skipped", "ts": 0.5, "process": "Call"},
        span_open(0.5, "j1", "p", "job:calls", "job", {"rdd_id": 7}),
        span_open(0.5, "s1", "j1", "result:calls", "stage", {"stage_id": 1, "tasks": 2}),
        {
            "kind": "task.failure",
            "ts": 0.7,
            "stage_kind": "result",
            "partition": 1,
            "attempt": 0,
            "error_type": "ValueError",
            "backoff": 0.05,
        },
        span_close(0.9, 0.4, "s1", "j1", "result:calls", "stage", s1),
        span_close(0.95, 0.45, "j1", "p", "job:calls", "job", {"rdd_id": 7}),
        span_close(1.0, 0.9, "p", None, "pipeline:demo", "pipeline", {"processes": ["Align", "Call"]}),
        {
            "kind": "telemetry",
            "ts": 1.0,
            "counters": {
                "journal.restored": 1,
                "quarantine.fastq": 3,
                "likelihood_cache.hits": 10,
            },
            "gauges": {"likelihood_cache.entries": 5},
        },
        {"kind": "run.end", "ts": 1.1, "elapsed": 1.1},
    ]


class TestFromEvents:
    def test_derived_numbers(self):
        report = RunReport.from_events(synthetic_events())
        assert report.pipeline_name == "demo"
        assert report.elapsed == 0.9
        assert report.task_count == 6
        assert report.core_seconds == 4.0
        assert report.shuffle_bytes == 4096
        disk, net = report.blocked_fractions()
        assert disk == (0.5 + 0.1) / 4.0
        assert net == (0.25 + 0.05) / 4.0
        assert report.failures == [("result", 1, "ValueError")]
        assert [p.name for p in report.processes] == ["Align", "Call"]
        assert report.processes[1].skipped

    def test_summary_line(self):
        report = RunReport.from_events(synthetic_events())
        assert report.summary_line() == (
            "gpf run: 6 task(s), 1 retried failure(s), 3 quarantined "
            "record(s), 1 process(es) restored from journal"
        )

    def test_golden_text_render(self):
        report = RunReport.from_events(synthetic_events())
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            expected = fh.read()
        assert report.render_text() == expected

    def test_to_json_round_trips_through_json(self):
        report = RunReport.from_events(synthetic_events())
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["pipeline"] == "demo"
        assert payload["totals"]["tasks"] == 6
        assert payload["blocked_fractions"]["disk"] > 0
        assert payload["counters"]["journal.restored"] == 1
        assert len(payload["stages"]) == 2

    def test_empty_event_list_renders(self):
        report = RunReport.from_events([])
        text = report.render_text()
        assert "no pipeline information" in text
        assert report.summary_line().startswith("gpf run: 0 task(s)")

    def test_observability_event_kinds_tolerated(self):
        # The new live-plane kinds must not derail report building.
        events = synthetic_events()
        events.insert(
            3,
            {
                "kind": "profile.sample",
                "ts": 0.2,
                "stacks": {"stage:s;mod.fn": 7},
                "samples": 7,
            },
        )
        # Task spans: progress for a live tracker, nothing for the report.
        events.insert(5, span_open(0.2, "t0", "s0", "shuffle-map-p0", "task"))
        events.insert(
            6,
            span_close(0.3, 0.1, "t0", "s0", "shuffle-map-p0", "task", {"run_time": 0.1}),
        )
        assert validate_events(events) == []
        report = RunReport.from_events(events)
        assert report.task_count == 6
        assert report.pipeline_name == "demo"

    def test_unknown_future_event_kinds_tolerated(self):
        # Forward compatibility: a report reader from this version must
        # survive logs written by a future one.
        events = synthetic_events()
        events.insert(2, {"kind": "hologram.render", "ts": 0.15, "qubits": 9})
        report = RunReport.from_events(events)
        assert report.task_count == 6

    def test_histograms_from_telemetry_event(self):
        h = Histogram()
        for v in (0.01, 0.2):
            h.observe(v)
        events = synthetic_events()
        for event in events:
            if event["kind"] == "telemetry":
                event["histograms"] = {"task.seconds": h.snapshot()}
        report = RunReport.from_events(events)
        assert "task.seconds" in report.histograms
        text = report.render_text()
        assert "Latency distributions" in text
        assert "task.seconds" in text
        assert report.to_json()["histograms"]["task.seconds"]["count"] == 2


    def test_synthetic_log_is_schema_valid(self):
        assert validate_events(synthetic_events()) == []

    def test_failed_process_span_is_not_a_row(self):
        events = synthetic_events()
        events.insert(
            8,
            span_close(0.5, 0.1, "b", "p", "process:Call", "process", {"error": "ValueError"}),
        )
        report = RunReport.from_events(events)
        assert [(p.name, p.skipped) for p in report.processes] == [
            ("Align", False),
            ("Call", True),
        ]

    def test_log_saved_before_span_events_renders(self):
        """A log in the older lifecycle vocabulary (``pipeline.end``,
        ``process.end``, ``stage.end``) renders: its lifecycle lines are
        unknown kinds now, so the report has no process or stage rows,
        while failures and telemetry come through."""
        events = [
            {"kind": "run.start", "ts": 0.0},
            {"kind": "pipeline.start", "ts": 0.1, "pipeline": "demo", "processes": ["A"]},
            {"kind": "process.end", "ts": 0.5, "process": "A", "elapsed": 0.4},
            {"kind": "stage.end", "ts": 0.4, "stage_id": 0, "name": "result:x", "tasks": 2},
            {"kind": "task.end", "ts": 0.3, "stage_id": 0, "partition": 0},
            {"kind": "progress.stage", "ts": 0.3, "stage_id": 0, "tasks_done": 1},
            {
                "kind": "task.failure",
                "ts": 0.3,
                "stage_kind": "result",
                "partition": 1,
                "attempt": 0,
                "error_type": "ValueError",
                "backoff": 0.05,
            },
            {"kind": "pipeline.end", "ts": 1.0, "pipeline": "demo", "elapsed": 0.9},
            {"kind": "telemetry", "ts": 1.0, "counters": {"c": 1}, "gauges": {}},
            {"kind": "run.end", "ts": 1.1, "elapsed": 1.1},
        ]
        report = RunReport.from_events(events)
        text = report.render_text()
        assert "no pipeline information" in text
        assert report.stages == []
        assert report.elapsed == 1.1
        assert report.failures == [("result", 1, "ValueError")]
        assert report.counters == {"c": 1}


class TestTornAndDirtyLogs:
    def test_torn_last_line_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(e) for e in synthetic_events()]
        # A crash mid-write leaves a torn final line.
        path.write_text("\n".join(lines) + '\n{"kind": "run.en')
        events = read_events(str(path))
        report = RunReport.from_events(events)
        assert report.task_count == 6

    def test_torn_line_with_new_kinds_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = synthetic_events()
        events.append(
            {"kind": "profile.sample", "ts": 1.2, "stacks": {"a": 1}, "samples": 1}
        )
        lines = [json.dumps(e) for e in events]
        path.write_text("\n".join(lines) + '\n{"kind": "span.cl')
        report = RunReport.from_events(read_events(str(path)))
        assert report.pipeline_name == "demo"


def assert_report_matches_run(report: RunReport, ctx, pipeline=None) -> None:
    """The report rebuilt from the events against what the run recorded:
    the metrics ledger and, given a Pipeline, the Processes it executed."""
    job = ctx.metrics.job()
    assert len(report.stages) == job.stage_count
    assert [s.stage_id for s in report.stages] == [s.stage_id for s in job.stages]
    assert report.task_count == sum(len(s.tasks) for s in job.stages)
    assert report.core_seconds == pytest.approx(job.core_seconds)
    assert report.shuffle_bytes == job.shuffle_bytes
    assert report.failures == [
        (f.stage_kind, f.partition, f.error_type) for f in ctx.metrics.failures
    ]
    if pipeline is not None:
        assert report.pipeline_name == pipeline.name
        executed = [p for p in report.processes if not p.skipped]
        assert [p.name for p in executed] == [p.name for p in pipeline.executed]
        assert all(p.seconds is not None and p.seconds >= 0 for p in executed)


def traced_wgs_run(tmp_path, reference, known_sites, read_pairs, **config):
    """A traced WGS run over 60 pairs: the stopped context, its Pipeline
    and the saved event log."""
    trace_dir = tmp_path / "trace"
    ctx = GPFContext(
        EngineConfig(
            spill_dir=str(tmp_path / "spill"), trace_dir=str(trace_dir), **config
        )
    )
    try:
        handles = build_wgs_pipeline(
            ctx,
            reference,
            ctx.parallelize(read_pairs[:60], 3),
            known_sites,
            partition_length=4_000,
        )
        handles.pipeline.run()
    finally:
        ctx.stop()
    events = read_events(str(trace_dir / "events.jsonl"))
    assert validate_events(events) == []
    return ctx, handles.pipeline, events


class TestFromEventsMatchesTheRun:
    def test_traced_run_matches(self, tmp_path):
        config = EngineConfig(
            spill_dir=str(tmp_path / "spill"), trace_dir=str(tmp_path / "trace")
        )
        with GPFContext(config) as ctx:
            data = [(i % 3, i) for i in range(30)]
            ctx.parallelize(data, 3).group_by_key().collect()
        report = RunReport.from_events(
            read_events(str(tmp_path / "trace" / "events.jsonl"))
        )
        assert report.task_count == 6
        assert_report_matches_run(report, ctx)
        assert report.counters == ctx.telemetry_snapshot()["counters"]

    def test_two_runs_into_one_trace_dir_report_the_last(self, tmp_path):
        # Two runs with one --trace-out directory append to one events.jsonl.
        for parts in (2, 3):
            config = EngineConfig(
                spill_dir=str(tmp_path / "spill"), trace_dir=str(tmp_path / "trace")
            )
            with GPFContext(config) as ctx:
                data = [(i % 3, i) for i in range(30)]
                ctx.parallelize(data, parts).group_by_key().collect()
        events = read_events(str(tmp_path / "trace" / "events.jsonl"))
        assert sum(e["kind"] == "run.start" for e in events) == 2
        report = RunReport.from_events(events)
        assert [s.stage_id for s in report.stages] == [0, 1]
        assert report.stages[0].tasks == 3
        assert_report_matches_run(report, ctx)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_subscriber_without_trace_dir_gets_the_same_report(
        self, tmp_path, backend
    ):
        # What `gpf run` does: subscribe a list, report after the close.
        seen: list[dict] = []
        config = EngineConfig(
            spill_dir=str(tmp_path / "spill"),
            executor_backend=backend,
            num_workers=4,
        )
        with GPFContext(config) as ctx:
            ctx.events.subscribe(seen.append)
            ctx.parallelize([(i % 3, i) for i in range(30)], 3).group_by_key().collect()
        assert [e["kind"] for e in seen[-2:]] == ["telemetry", "run.end"]
        report = RunReport.from_events(seen)
        assert_report_matches_run(report, ctx)
        assert report.counters == ctx.telemetry_snapshot()["counters"]

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_traced_wgs_run_matches(
        self, tmp_path, reference, known_sites, read_pairs, backend
    ):
        ctx, pipeline, events = traced_wgs_run(
            tmp_path,
            reference,
            known_sites,
            read_pairs,
            executor_backend=backend,
            num_workers=2,
        )
        report = RunReport.from_events(events)
        assert report.stages and report.processes
        assert_report_matches_run(report, ctx, pipeline)
        assert report.pipeline_name == "wgs"

    def test_run_with_an_injected_task_failure_matches(
        self, tmp_path, reference, known_sites, read_pairs
    ):
        plan = ChaosPlan(rules=[ChaosRule(site="task.attempt", fault="die", nth=3)])
        ctx, pipeline, events = traced_wgs_run(
            tmp_path, reference, known_sites, read_pairs, chaos=plan
        )
        report = RunReport.from_events(events)
        assert len(report.failures) == 1
        assert_report_matches_run(report, ctx, pipeline)
        # The failed attempt's task span closed with the error.
        failed = [
            e
            for e in events
            if e["kind"] == "span.close"
            and e["span_kind"] == "task"
            and "error" in e["attrs"]
        ]
        assert len(failed) == 1


class TestRunTreeFromEvents:
    def test_span_tree_rebuilds_from_the_event_log_alone(
        self, tmp_path, reference, known_sites, read_pairs
    ):
        _, _, events = traced_wgs_run(tmp_path, reference, known_sites, read_pairs)
        opened = [e for e in events if e["kind"] == "span.open"]
        closed = {e["span_id"]: e for e in events if e["kind"] == "span.close"}
        # Every span that opened also closed, under the same parent.
        assert {e["span_id"] for e in opened} == set(closed)
        for event in opened:
            assert closed[event["span_id"]]["parent_id"] == event["parent_id"]
        kind_of = {span_id: e["span_kind"] for span_id, e in closed.items()}

        def parent_kind(event):
            return kind_of.get(event["parent_id"])

        by_kind: dict[str, list] = {}
        for event in closed.values():
            by_kind.setdefault(event["span_kind"], []).append(event)
        (pipeline,) = by_kind["pipeline"]
        assert pipeline["parent_id"] is None
        assert by_kind["task"] and by_kind["stage"] and by_kind["job"]
        assert all(parent_kind(e) == "stage" for e in by_kind["task"])
        assert all(parent_kind(e) == "job" for e in by_kind["stage"])
        assert all(parent_kind(e) == "process" for e in by_kind["job"])
        assert all(parent_kind(e) == "pipeline" for e in by_kind["process"])
        # Each stage's Table-4 totals are its clean task spans summed.
        for stage in by_kind["stage"]:
            tasks = [
                e["attrs"]
                for e in by_kind["task"]
                if e["parent_id"] == stage["span_id"] and "error" not in e["attrs"]
            ]
            assert len(tasks) == stage["attrs"]["tasks"]
            for field in ("run_time", "disk_blocked", "network_blocked"):
                assert sum(t[field] for t in tasks) == pytest.approx(
                    stage["attrs"][field]
                )
        # A child lies inside its parent on the one clock.
        for event in closed.values():
            parent = closed.get(event["parent_id"])
            if parent is not None:
                assert parent["ts"] - parent["dur"] <= event["ts"] - event["dur"]
                assert event["ts"] <= parent["ts"]
