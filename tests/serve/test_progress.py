"""The live progress plane: JobProgress folding, the endpoint, gpf top."""

import threading

import pytest

from repro.serve import JobProgress, ServiceClient, ServiceError, start_http_server
from tests.serve.conftest import GatedRunner, make_service


def _open(span_id, parent_id, name, span_kind, ts=0.0, **attrs) -> dict:
    return {
        "kind": "span.open",
        "ts": ts,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "span_kind": span_kind,
        "attrs": attrs,
    }


def _close(span_id, parent_id, name, span_kind, ts=0.0, **attrs) -> dict:
    return {
        "kind": "span.close",
        "ts": ts,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "span_kind": span_kind,
        "dur": 0.0,
        "pid": 1,
        "tid": 1,
        "attrs": attrs,
    }


def _stage_open(tracker, stage_id=0, total=4, ts=0.0) -> str:
    span_id = f"s{stage_id}"
    tracker(_open(span_id, "j", f"stage-{stage_id}", "stage", ts,
                  stage_id=stage_id, tasks=total))
    return span_id


def _task_close(tracker, stage_span, partition, ts, **attrs) -> None:
    tracker(_close(f"{stage_span}-t{partition}", stage_span,
                   f"result-p{partition}", "task", ts, **attrs))


class TestJobProgress:
    def test_folds_stage_events(self):
        tracker = JobProgress("j1")
        tracker(_open("p", None, "pipeline:wgs", "pipeline",
                      processes=["Align", "Call"]))
        tracker(_open("a", "p", "process:Align", "process"))
        stage = _stage_open(tracker, ts=10.0)
        _task_close(tracker, stage, 0, 11.0, shuffle_bytes_read=60,
                    shuffle_bytes_written=40)
        _task_close(tracker, stage, 1, 12.0)
        snap = tracker.snapshot()
        assert snap["pipeline"] == "wgs"
        assert snap["processes"] == ["Align", "Call"]
        assert snap["current_process"] == "Align"
        assert snap["tasks_done"] == 2
        assert snap["tasks_total"] == 4
        assert snap["stages"][0]["bytes"] == 100
        # EWMA of the close intervals (1.0 s each) times 2 tasks left.
        assert snap["eta_seconds"] == pytest.approx(2.0)

    def test_monotonic_guard_against_out_of_order_delivery(self):
        tracker = JobProgress("j1")
        stage = _stage_open(tracker, ts=0.0)
        _task_close(tracker, stage, 0, 3.0)
        _task_close(tracker, stage, 1, 2.0)  # closed earlier, delivered late
        snap = tracker.snapshot()
        assert snap["tasks_done"] == 2
        # The late close's interval counts as zero, never negative.
        assert snap["stages"][0]["eta_seconds"] >= 0.0

    def test_failed_attempts_do_not_count(self):
        tracker = JobProgress("j1")
        stage = _stage_open(tracker, total=2)
        _task_close(tracker, stage, 0, 1.0, error="InjectedFault")
        _task_close(tracker, stage, 0, 2.0)
        _task_close(tracker, stage, 1, 3.0)
        _task_close(tracker, stage, 2, 4.0)  # a recovered map task
        assert tracker.snapshot()["tasks_done"] == 2

    def test_stage_end_finishes_and_zeroes_eta(self):
        tracker = JobProgress("j1")
        stage = _stage_open(tracker)
        for partition in range(4):
            _task_close(tracker, stage, partition, 1.0 + partition)
        tracker(_close(stage, "j", "stage-0", "stage", 5.0))
        snap = tracker.snapshot()
        assert snap["stages"][0]["finished"]
        assert snap["stages"][0]["eta_seconds"] == 0.0
        assert snap["eta_seconds"] is None  # no active stages left

    def test_profile_samples_become_hot_functions(self):
        tracker = JobProgress("j1", hot_functions=2)
        tracker({"kind": "profile.sample", "ts": 0,
                 "stacks": {"a;hot": 5, "b;hot": 3, "a;cold": 1}, "samples": 9})
        snap = tracker.snapshot()
        assert snap["samples"] == 9
        assert snap["hot_functions"][0] == {"function": "hot", "samples": 8}

    def test_process_lifecycle_counted(self):
        tracker = JobProgress("j1")
        tracker(_open("p", None, "pipeline:p", "pipeline", processes=["A", "B"]))
        tracker(_open("a", "p", "process:A", "process"))
        assert tracker.snapshot()["current_process"] == "A"
        tracker(_close("a", "p", "process:A", "process", 1.0))
        tracker({"kind": "process.skipped", "ts": 1, "process": "B"})
        snap = tracker.snapshot()
        assert snap["processes_done"] == 2
        assert snap["current_process"] is None

    def test_unknown_events_ignored(self):
        tracker = JobProgress("j1")
        tracker({"kind": "hologram.render", "ts": 0})
        assert tracker.snapshot()["tasks_done"] == 0


class TestProgressEndpoint:
    @pytest.fixture
    def stack(self, tmp_path):
        runner = GatedRunner()
        service = make_service(tmp_path / "state", runner=runner, workers=1)
        service.start()
        server = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        yield service, client, runner
        runner.gate.set()
        server.shutdown()
        service.drain()

    SPEC = {"reference": "r.fa", "fastq1": "a.fq", "fastq2": "b.fq"}

    def test_unknown_job_is_404(self, stack):
        _, client, _ = stack
        with pytest.raises(ServiceError) as err:
            client.progress("nope")
        assert err.value.status == 404

    def test_running_job_has_progress_document(self, stack):
        service, client, runner = stack
        job = client.submit(self.SPEC)
        assert runner.started.wait(5.0)
        doc = client.progress(job["id"])
        assert doc["job_id"] == job["id"]
        assert doc["state"] == "running"
        assert "stages" in doc and "hot_functions" in doc
        runner.gate.set()
        client.wait(job["id"], timeout=10.0)

    def test_queued_job_progress_is_empty_but_served(self, stack):
        service, client, runner = stack
        first = client.submit(self.SPEC)
        assert runner.started.wait(5.0)
        second = client.submit(self.SPEC)  # queued behind the gated job
        doc = client.progress(second["id"])
        assert doc["state"] == "queued"
        assert doc["tasks_done"] == 0
        runner.gate.set()
        client.wait(first["id"], timeout=10.0)
        client.wait(second["id"], timeout=10.0)

    def test_finished_job_keeps_final_snapshot(self, stack):
        service, client, runner = stack
        runner.gate.set()
        job = client.submit(self.SPEC)
        done = client.wait(job["id"], timeout=10.0)
        assert done["state"] == "succeeded"
        doc = client.progress(job["id"])
        assert doc["state"] == "succeeded"


class TestWaitOnProgress:
    def test_callback_sees_snapshots_and_errors_are_swallowed(self, tmp_path):
        runner = GatedRunner()
        service = make_service(tmp_path / "state", runner=runner, workers=1)
        service.start()
        server = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            seen = []

            def on_progress(doc):
                seen.append(doc)
                if len(seen) >= 2:
                    runner.gate.set()

            job = client.submit(TestProgressEndpoint.SPEC)
            done = client.wait(
                job["id"], timeout=15.0, poll=0.05, on_progress=on_progress
            )
            assert done["state"] == "succeeded"
            assert seen, "on_progress never fired"
            assert all(d["job_id"] == job["id"] for d in seen)
        finally:
            runner.gate.set()
            server.shutdown()
            service.drain()

    def test_callback_exceptions_do_not_break_wait(self, tmp_path):
        runner = GatedRunner()
        service = make_service(tmp_path / "state", runner=runner, workers=1)
        service.start()
        server = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            fired = threading.Event()

            def bad_callback(doc):
                fired.set()
                runner.gate.set()
                raise RuntimeError("render crashed")

            job = client.submit(TestProgressEndpoint.SPEC)
            with pytest.raises(RuntimeError):
                client.wait(
                    job["id"], timeout=15.0, poll=0.05, on_progress=bad_callback
                )
            assert fired.is_set()
        finally:
            runner.gate.set()
            server.shutdown()
            service.drain()
