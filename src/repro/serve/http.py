"""Stdlib JSON API over a :class:`~repro.serve.service.PipelineService`.

Routes::

    POST   /jobs                 submit {"spec": {...}, "priority": 0} (or a bare spec)
    GET    /jobs                 all jobs, newest last; ?state= filters
    GET    /jobs/<id>            job state + telemetry + run report (when finished)
    GET    /jobs/<id>/progress   live stage progress + hot functions
    DELETE /jobs/<id>            cancel (queued: immediate; running: cooperative)
    GET    /healthz              liveness + queue occupancy
    GET    /metrics              service counters + folded worker telemetry
                                 (?format=prometheus for text format 0.0.4)

Typed service errors map onto HTTP statuses — the admission contract::

    InvalidSpecError       400    QueueFullError           429
    UnknownJobError        404    ServiceOverloadedError   503
    NotCancellableError    409    ServiceDrainingError     503

429/503 responses carry a ``Retry-After`` header (the error's own hint
when it has one).  ``GET /healthz`` folds the service health state: it
returns 200 while ``healthy`` or ``degraded`` (a coping service must
not be restart-looped by its orchestrator) and 503 only while
``shedding`` or draining.

Built on ``http.server.ThreadingHTTPServer`` only: no third-party web
framework enters the dependency set for the serving layer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.jobs import Job, QueueFullError, ServeError
from repro.serve.service import (
    InvalidSpecError,
    NotCancellableError,
    PipelineService,
    ServiceDrainingError,
    ServiceOverloadedError,
    UnknownJobError,
)

_STATUS_BY_ERROR: tuple[tuple[type, int], ...] = (
    (InvalidSpecError, 400),
    (UnknownJobError, 404),
    (NotCancellableError, 409),
    (QueueFullError, 429),
    (ServiceOverloadedError, 503),
    (ServiceDrainingError, 503),
)

#: Statuses that tell the client to come back later; they always carry a
#: Retry-After header (the error's own hint, or this default).
_RETRYABLE_STATUSES = frozenset((429, 503))
_DEFAULT_RETRY_AFTER = 1.0


def error_status(exc: ServeError) -> int:
    for err_type, status in _STATUS_BY_ERROR:
        if isinstance(exc, err_type):
            return status
    return 500


def job_payload(service: PipelineService, job: Job, report: bool = True) -> dict:
    """Job JSON plus, once finished, the per-job run report."""
    payload = job.to_json()
    if report and job.is_terminal:
        events_path = os.path.join(service.job_trace_dir(job.id), "events.jsonl")
        if os.path.exists(events_path):
            from repro.obs import RunReport, read_events

            events = read_events(events_path)
            if events:
                payload["report"] = RunReport.from_events(events).to_json()
    return payload


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP front end bound to one service instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: PipelineService, quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(BaseHTTPRequestHandler):
    server_version = "gpf-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(
        self, status: int, payload: dict | list, retry_after: float | None = None
    ) -> None:
        chaos = getattr(self.server.service, "chaos", None)
        if chaos is not None:
            try:
                chaos.hit("serve.http.response", path=self.path, status=status)
            except ConnectionResetError:
                # Injected mid-response reset: drop the connection with no
                # bytes written, the way a dying peer or proxy would.
                self.close_connection = True
                return
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in _RETRYABLE_STATUSES:
            seconds = retry_after if retry_after is not None else _DEFAULT_RETRY_AFTER
            # Retry-After is delta-seconds per RFC 9110; round sub-second
            # hints up so the header never says "now".
            self.send_header("Retry-After", str(max(1, int(seconds + 0.999))))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        """Non-JSON response path (Prometheus exposition)."""
        chaos = getattr(self.server.service, "chaos", None)
        if chaos is not None:
            try:
                chaos.hit("serve.http.response", path=self.path, status=status)
            except ConnectionResetError:
                self.close_connection = True
                return
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ServeError) -> None:
        self._send(
            error_status(exc),
            {"error": type(exc).__name__, "detail": str(exc)},
            retry_after=getattr(exc, "retry_after", None),
        )

    def _drain_body(self) -> None:
        """Consume an unread request body before responding.

        The handler speaks HTTP/1.1 (persistent connections): if a
        request carried a body nobody read, those bytes would sit in
        the stream and be misparsed as the next request line on a
        reused connection.  Bodies we cannot cheaply drain (chunked, or
        an unparsable length) force the connection closed instead.
        """
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        if length > 0:
            self.rfile.read(length)

    def _read_json(self) -> dict:
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            raise InvalidSpecError("chunked request bodies are not supported")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            self.close_connection = True
            raise InvalidSpecError("Content-Length is not an integer") from exc
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise InvalidSpecError("empty request body")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidSpecError("request body must be a JSON object")
        return data

    def _job_id(self) -> str | None:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            return parts[1]
        return None

    def _job_subresource(self) -> tuple[str, str] | None:
        """``/jobs/<id>/<sub>`` -> (id, sub), else None."""
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 3 and parts[0] == "jobs":
            return parts[1], parts[2]
        return None

    def _query(self) -> dict[str, str]:
        if "?" not in self.path:
            return {}
        query: dict[str, str] = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            if "=" in pair:
                key, value = pair.split("=", 1)
                query[key] = value
        return query

    # -- routes -------------------------------------------------------------
    def _observed(self, handler) -> None:
        """Charge one request's wall time to the service's latency
        histogram (every verb routes through here)."""
        started = time.perf_counter()
        try:
            handler()
        finally:
            self.server.service.latencies.observe(
                "http.request_seconds", time.perf_counter() - started
            )

    def do_POST(self) -> None:  # noqa: N802
        self._observed(self._handle_post)

    def do_GET(self) -> None:  # noqa: N802
        self._observed(self._handle_get)

    def do_DELETE(self) -> None:  # noqa: N802
        self._observed(self._handle_delete)

    def _handle_post(self) -> None:
        if self.path.split("?")[0] != "/jobs":
            self._drain_body()
            self._send(404, {"error": "NotFound", "detail": self.path})
            return
        try:
            body = self._read_json()
            spec = body.get("spec", body)
            priority = body.get("priority", 0)
            if not isinstance(priority, int):
                raise InvalidSpecError("priority must be an integer")
            job = self.server.service.submit(spec, priority=priority)
        except ServeError as exc:
            self._send_error(exc)
            return
        self._send(201, job_payload(self.server.service, job, report=False))

    def _handle_get(self) -> None:
        self._drain_body()
        service = self.server.service
        path = self.path.split("?")[0]
        if path == "/healthz":
            health = service.health()
            shedding = health.get("status") in ("shedding", "draining")
            retry_after = (
                health.get("health", {}).get("retry_after") if shedding else None
            )
            self._send(503 if shedding else 200, health, retry_after=retry_after)
            return
        if path == "/metrics":
            if self._query().get("format") == "prometheus":
                from repro.obs import render_prometheus

                self._send_text(200, render_prometheus(service.metrics()))
            else:
                self._send(200, service.metrics())
            return
        if path == "/jobs":
            state = self._query().get("state")
            self._send(
                200,
                {
                    "jobs": [
                        job_payload(service, job, report=False)
                        for job in service.jobs(state)
                    ]
                },
            )
            return
        sub = self._job_subresource()
        if sub is not None and sub[1] == "progress":
            try:
                self._send(200, service.progress(sub[0]))
            except ServeError as exc:
                self._send_error(exc)
            return
        job_id = self._job_id()
        if job_id is not None:
            try:
                job = service.get(job_id)
            except ServeError as exc:
                self._send_error(exc)
                return
            self._send(200, job_payload(service, job))
            return
        self._send(404, {"error": "NotFound", "detail": self.path})

    def _handle_delete(self) -> None:
        self._drain_body()
        job_id = self._job_id()
        if job_id is None:
            self._send(404, {"error": "NotFound", "detail": self.path})
            return
        try:
            job = self.server.service.cancel(job_id)
        except ServeError as exc:
            self._send_error(exc)
            return
        self._send(200, job_payload(self.server.service, job, report=False))


def start_http_server(
    service: PipelineService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind, start serving on a daemon thread, return the server.

    ``port=0`` picks a free port (``server.port`` tells you which) —
    what the tests and the CI smoke job use.
    """
    server = ServiceHTTPServer((host, port), service, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, name="gpf-serve-http", daemon=True
    )
    thread.start()
    return server
