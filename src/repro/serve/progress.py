"""Live per-job progress: an event subscriber the service can serve.

While a job runs, its worker context's EventBus carries the job's span
events, and they are everything a client needs to render progress: the
pipeline span opens with the process list, process spans open and close
as the plan walks it (``process.skipped`` marks a journal restore),
each stage span opens with its task count, and every task span that
closes cleanly under it is one task done.  ``profile.sample`` events
carry collapsed stacks.  :class:`JobProgress` is the subscriber that
folds those into one snapshot ``GET /jobs/<id>/progress`` returns, and
it is where the stage ETA is computed: an EWMA of the intervals between
successive task closes (which already reflect parallelism, so
``ewma * remaining`` is the stage ETA, not a per-task sum).

Tasks close on many executor threads, so closes can arrive out of
order; a count of closes cannot go backwards, and an out-of-order
close's interval counts as zero.  The tracker outlives its
subscription: the service unsubscribes it when the job ends but keeps
it around, so a client polling a just-finished job still sees the final
100% snapshot.
"""

from __future__ import annotations

import threading

from repro.obs.profiler import top_functions_from_stacks


class JobProgress:
    """Folds one job's run events into a live progress snapshot."""

    _ALPHA = 0.3

    def __init__(self, job_id: str, hot_functions: int = 10):
        self.job_id = job_id
        self._hot_n = hot_functions
        self._lock = threading.Lock()
        self._pipeline: str | None = None
        self._processes: list[str] = []
        self._process: str | None = None
        self._processes_done = 0
        #: stage_id -> {"name", "tasks_done", "tasks_total", "bytes",
        #: "eta_seconds", "finished"} in first-seen order (dicts are
        #: insertion-ordered, and stage IDs increase within a job).
        self._stages: dict[int, dict] = {}
        #: open stage span_id -> [stage row, last task close ts, EWMA].
        self._open_stages: dict[str, list] = {}
        self._leaf_counts: dict[str, int] = {}
        self._samples = 0

    # -- event subscriber ---------------------------------------------------
    def __call__(self, event: dict) -> None:
        kind = event.get("kind")
        if kind == "profile.sample":
            self._on_profile_sample(event)
            return
        attrs = event.get("attrs") or {}
        with self._lock:
            if kind == "span.open":
                self._on_span_open(event, attrs)
            elif kind == "span.close":
                self._on_span_close(event, attrs)
            elif kind == "process.skipped":
                self._processes_done += 1

    def _on_span_open(self, event: dict, attrs: dict) -> None:
        span_kind = event.get("span_kind")
        if span_kind == "stage":
            stage = self._stages[attrs.get("stage_id")] = {
                "stage_id": attrs.get("stage_id"),
                "name": event.get("name"),
                "tasks_done": 0,
                "tasks_total": attrs.get("tasks", 0),
                "bytes": 0,
                "eta_seconds": None,
                "finished": False,
            }
            self._open_stages[event.get("span_id")] = [stage, event.get("ts"), None]
        elif span_kind == "process":
            self._process = _subject(event)
        elif span_kind == "pipeline":
            self._pipeline = _subject(event)
            self._processes = list(attrs.get("processes") or [])

    def _on_span_close(self, event: dict, attrs: dict) -> None:
        span_kind = event.get("span_kind")
        failed = "error" in attrs
        if span_kind == "task" and not failed:
            opened = self._open_stages.get(event.get("parent_id"))
            if opened is not None:
                self._on_task_done(opened, event.get("ts"), attrs)
        elif span_kind == "stage":
            opened = self._open_stages.pop(event.get("span_id"), None)
            if opened is not None:
                opened[0]["finished"] = True
                opened[0]["eta_seconds"] = 0.0
        elif span_kind == "process":
            if not failed:
                self._processes_done += 1
            if self._process == _subject(event):
                self._process = None

    def _on_task_done(self, opened: list, ts: float, attrs: dict) -> None:
        """One clean task close under an open stage."""
        stage, last, ewma = opened
        interval = max(0.0, ts - last)
        ewma = (
            interval
            if ewma is None
            else self._ALPHA * interval + (1 - self._ALPHA) * ewma
        )
        opened[1:] = [max(last, ts), ewma]
        # A recovered map task closes under the reduce stage that
        # needed it; the stage's own count stops at its total.
        stage["tasks_done"] = min(stage["tasks_done"] + 1, stage["tasks_total"])
        stage["bytes"] += attrs.get("shuffle_bytes_read", 0) + attrs.get(
            "shuffle_bytes_written", 0
        )
        stage["eta_seconds"] = ewma * (stage["tasks_total"] - stage["tasks_done"])

    def _on_profile_sample(self, event: dict) -> None:
        stacks = event.get("stacks")
        if not isinstance(stacks, dict):
            return
        with self._lock:
            for folded, count in stacks.items():
                leaf = str(folded).rsplit(";", 1)[-1]
                self._leaf_counts[leaf] = self._leaf_counts.get(leaf, 0) + int(
                    count
                )
                self._samples += int(count)

    # -- snapshot -----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready progress view (what the endpoint returns)."""
        with self._lock:
            stages = [dict(s) for s in self._stages.values()]
            active = [
                s for s in stages if not s["finished"] and s["tasks_total"]
            ]
            eta = None
            if active:
                etas = [
                    s["eta_seconds"]
                    for s in active
                    if s["eta_seconds"] is not None
                ]
                eta = sum(etas) if etas else None
            hot = [
                {"function": name, "samples": count}
                for name, count in top_functions_from_stacks(
                    self._leaf_counts, self._hot_n
                )
            ]
            return {
                "job_id": self.job_id,
                "pipeline": self._pipeline,
                "processes": list(self._processes),
                "processes_done": self._processes_done,
                "current_process": self._process,
                "stages": stages,
                "tasks_done": sum(s["tasks_done"] for s in stages),
                "tasks_total": sum(s["tasks_total"] for s in stages),
                "eta_seconds": eta,
                "hot_functions": hot,
                "samples": self._samples,
            }


def _subject(event: dict) -> str:
    """``Align`` from a span named ``process:Align``."""
    return str(event.get("name", "")).partition(":")[2]
