"""The JSON API end to end: routes, status codes, admission contract."""

import http.client
import json
import time

import pytest

from repro.obs import RunReport
from repro.serve import (
    ServiceClient,
    ServiceError,
    start_http_server,
)
from tests.serve.conftest import GatedRunner, instant_runner, make_service


@pytest.fixture
def stub_stack(tmp_path):
    """Service (gated stub runner) + HTTP server + client."""
    runner = GatedRunner()
    service = make_service(tmp_path / "state", runner=runner, workers=1, depth=2)
    service.start()
    server = start_http_server(service)
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    yield service, server, client, runner
    runner.gate.set()
    server.shutdown()
    service.drain()


SPEC = {"reference": "r.fa", "fastq1": "a.fq", "fastq2": "b.fq"}


class TestRoutes:
    def test_healthz(self, stub_stack):
        _, _, client, _ = stub_stack
        health = client.health()
        assert health["status"] == "healthy"
        assert health["workers_alive"] == 1
        assert health["queue_capacity"] == 2

    def test_submit_poll_cancel_flow(self, stub_stack):
        service, _, client, runner = stub_stack
        job = client.submit(SPEC, priority=2)
        assert job["state"] == "queued" and job["priority"] == 2
        assert runner.started.wait(5.0)
        listed = client.jobs()
        assert [j["id"] for j in listed] == [job["id"]]
        runner.gate.set()
        done = client.wait(job["id"], timeout=10.0)
        assert done["state"] == "succeeded"
        assert client.jobs(state="succeeded")
        with pytest.raises(ServiceError) as err:
            client.cancel(job["id"])
        assert err.value.status == 409
        assert err.value.kind == "NotCancellableError"

    def test_unknown_job_is_404(self, stub_stack):
        _, _, client, _ = stub_stack
        with pytest.raises(ServiceError) as err:
            client.job("missing")
        assert err.value.status == 404

    def test_bad_spec_is_400(self, stub_stack):
        _, _, client, _ = stub_stack
        with pytest.raises(ServiceError) as err:
            client.submit({"reference": 42})
        assert err.value.status == 400
        assert err.value.kind == "InvalidSpecError"

    def test_unknown_route_is_404(self, stub_stack):
        _, _, client, _ = stub_stack
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_metrics_shape(self, stub_stack):
        _, _, client, _ = stub_stack
        metrics = client.metrics()
        assert set(metrics) == {
            "service",
            "counters",
            "gauges",
            "histograms",
            "health",
        }
        assert "jobs_submitted" in metrics["service"]
        assert metrics["health"]["state"] == "healthy"

    def test_terminal_state_implies_complete_report(self, stub_stack):
        # The per-job event log is flushed *before* the terminal state
        # is persisted, so the first poll that observes a finished job
        # already carries the full run report (run.end included).
        _, _, client, runner = stub_stack
        runner.gate.set()
        job = client.submit(SPEC)
        done = client.wait(job["id"], timeout=10.0)
        assert done["state"] == "succeeded"
        assert "report" in done

    def test_unread_body_does_not_poison_persistent_connection(self, stub_stack):
        # HTTP/1.1 keep-alive: a rejected POST whose body was never read
        # must not leave body bytes in the stream to be misparsed as the
        # next request line on the same socket.
        _, server, _, _ = stub_stack
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            body = json.dumps({"spec": SPEC}).encode("utf-8")
            conn.request(
                "POST", "/nope", body=body,
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 404
            first.read()
            # the very same socket must parse the next request cleanly
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "healthy"
        finally:
            conn.close()


class TestAdmissionOverHTTP:
    def test_429_past_queue_depth_without_touching_running_job(self, stub_stack):
        service, _, client, runner = stub_stack
        running = client.submit(SPEC)
        assert runner.started.wait(5.0)
        client.submit(SPEC)
        client.submit(SPEC)
        with pytest.raises(ServiceError) as err:
            client.submit(SPEC)
        assert err.value.status == 429
        assert err.value.kind == "QueueFullError"
        # the running job is untouched by the rejection
        assert client.job(running["id"])["state"] == "running"
        runner.gate.set()
        assert client.wait(running["id"], timeout=10.0)["state"] == "succeeded"

    def test_503_while_draining(self, tmp_path):
        service = make_service(tmp_path / "state", runner=instant_runner).start()
        server = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            service.drain()
            # /healthz flips to 503 while draining so orchestrators
            # stop routing to this instance.
            with pytest.raises(ServiceError) as health_err:
                client.health()
            assert health_err.value.status == 503
            assert health_err.value.payload["status"] == "draining"
            with pytest.raises(ServiceError) as err:
                client.submit(SPEC)
            assert err.value.status == 503
            assert err.value.kind == "ServiceDrainingError"
        finally:
            server.shutdown()


class TestRealJobOverHTTP:
    def test_submit_to_report(self, tmp_path, wgs_spec):
        service = make_service(tmp_path / "state", workers=1).start()
        server = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            job = client.submit(wgs_spec("http"))
            done = client.wait(job["id"], timeout=120.0)
            assert done["state"] == "succeeded", done.get("error")
            assert done["result"]["records"] > 0
            assert done["result"]["telemetry"]["counters"]
            # the finished-job document folds in the per-job run report
            assert "report" in done
            assert done["report"]["stages"]
            assert any(
                row["name"] == "BwaMapping" for row in done["report"]["processes"]
            )
            # Progress folds the job's span events: every stage finished
            # and counted to its total, every planned Process walked.
            progress = client.progress(job["id"])
            assert progress["stages"]
            assert all(stage["finished"] for stage in progress["stages"])
            assert progress["tasks_done"] == progress["tasks_total"] > 0
            assert progress["processes"]
            assert progress["processes_done"] == len(progress["processes"])
            assert progress["current_process"] is None
        finally:
            server.shutdown()
            service.drain()


class TestPrometheusExposition:
    def test_content_type_and_validity(self, stub_stack):
        _, server, _, _ = stub_stack
        from repro.obs import validate_prometheus

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        conn.request("GET", "/metrics?format=prometheus")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in response.headers["Content-Type"]
        assert validate_prometheus(body) == []
        assert "gpf_service_jobs_submitted_total" in body
        conn.close()

    def test_json_remains_default(self, stub_stack):
        _, _, client, _ = stub_stack
        metrics = client.metrics()
        assert isinstance(metrics, dict) and "service" in metrics

    def test_request_latency_observed(self, stub_stack):
        service, _, client, _ = stub_stack
        client.health()
        client.metrics()
        # The handler observes latency *after* flushing the response, so
        # the client can outrun the server thread's finally block.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            hist = service.latencies.histogram("http.request_seconds")
            if hist is not None and hist.count >= 2:
                break
            time.sleep(0.02)
        assert hist is not None and hist.count >= 2


def _warm_contexts(service, expected):
    """Worker threads register their warm contexts asynchronously."""
    import time as _time

    deadline = _time.monotonic() + 5.0
    while _time.monotonic() < deadline:
        with service._lock:
            contexts = list(service._contexts.values())
        if len(contexts) >= expected:
            return contexts
        _time.sleep(0.01)
    raise AssertionError(f"only {len(contexts)} warm context(s)")


class TestGaugeFoldOverHTTP:
    def test_point_in_time_gauges_not_summed_across_contexts(self, tmp_path):
        # Regression for the /metrics fold: gauges sum across contexts,
        # so two warm contexts each at a 2.0x compression ratio once
        # yielded a nonsense 4.0x.  No ratio is stored as a gauge now; the
        # memory view derives it from the summed byte gauges.
        service = make_service(tmp_path / "state", runner=instant_runner, workers=2)
        service.start()
        try:
            for ctx in _warm_contexts(service, 2):
                # 100 compressed bytes standing in for 200 logical ones:
                # each warm context reports a 2.0x ratio on its own.
                ctx.block_manager.put((0, 0), b"x" * 100, logical_bytes=200)
            metrics = service.metrics()
            gauges = metrics["gauges"]
            # Capacity gauges sum; the ratio is derived from the sums.
            assert gauges["blockmanager.compressed_bytes"] == 200.0
            assert gauges["blockmanager.logical_bytes"] == 400.0
            assert "blockmanager.compression_ratio" not in gauges
            assert "block.memory_bytes" not in gauges
            memory = RunReport(
                counters=metrics["counters"], gauges=gauges
            ).memory_summary()
            assert memory["compression_ratio"] == pytest.approx(2.0)
        finally:
            service.drain()

    def test_histograms_folded_across_contexts(self, tmp_path):
        service = make_service(tmp_path / "state", runner=instant_runner, workers=2)
        service.start()
        try:
            contexts = _warm_contexts(service, 2)
            for ctx in contexts:
                ctx.metrics.observe("task.seconds", 0.1)
            folded = service.metrics()["histograms"]
            assert folded["task.seconds"]["count"] == len(contexts)
        finally:
            service.drain()
