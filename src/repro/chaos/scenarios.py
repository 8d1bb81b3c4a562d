"""The chaos scenario suite behind ``gpf chaos``.

Each scenario runs the full WGS pipeline (or a serve submit/drain
cycle) under a seeded :class:`ChaosPlan` and asserts the robustness
contract:

- the run ends in **byte-identical output** to a chaos-free baseline,
  or a **typed failure** from a known allowlist — never a hang or a
  wedged worker (every run executes under a watchdog deadline);
- two runs under the same plan + seed inject the **identical ordered
  fault sequence** (the replay contract);
- every ``chaos.inject`` event validates against the closed event
  schema.

Scenarios write their chaos event logs under ``--out`` so CI can keep
the fault sequence as an artifact of the smoke run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.chaos.plan import ChaosPlan, ChaosRule
from repro.obs.events import validate_event

#: Failure types a chaos run is allowed to end with.  Anything else —
#: and above all a hang — is a scenario failure.
TYPED_FAILURES: tuple[type, ...] = ()  # populated lazily in _typed_failures()

#: Watchdog deadline per single run; a run still alive after this is
#: reported as hung (the suite's cardinal sin).
RUN_DEADLINE_SECONDS = 180.0


def _typed_failures() -> tuple[type, ...]:
    global TYPED_FAILURES
    if not TYPED_FAILURES:
        from repro.engine.blockmanager import BlockCorruptionError
        from repro.engine.faults import (
            InjectedFault,
            RetryBudgetExhaustedError,
            TaskFailedError,
            TaskTimeoutError,
        )

        TYPED_FAILURES = (
            TaskFailedError,
            TaskTimeoutError,
            RetryBudgetExhaustedError,
            InjectedFault,
            BlockCorruptionError,
            OSError,
        )
    return TYPED_FAILURES


@dataclass
class ScenarioOutcome:
    """Result of one scenario: the suite's pass/fail unit."""

    name: str
    seed: int
    passed: bool
    #: "identical" | "typed_failure" | "hung" | "error:<Type>" | ...
    outcome: str
    detail: str = ""
    runs: int = 0
    #: Faults injected per chaos run.
    injected: list = field(default_factory=list)
    replay_ok: bool | None = None
    events_ok: bool | None = None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "outcome": self.outcome,
            "detail": self.detail,
            "runs": self.runs,
            "injected": self.injected,
            "replay_ok": self.replay_ok,
            "events_ok": self.events_ok,
            "elapsed": round(self.elapsed, 3),
        }


# -- shared tiny sample ----------------------------------------------------
_SAMPLE = None


def _sample():
    """One small deterministic sample shared by every pipeline scenario."""
    global _SAMPLE
    if _SAMPLE is None:
        from repro.sim import (
            ReadSimConfig,
            ReadSimulator,
            generate_known_sites,
            generate_reference,
            plant_variants,
        )

        reference = generate_reference([6_000], seed=3)
        truth = plant_variants(reference, snp_rate=0.002, indel_rate=0.0003, seed=4)
        known = generate_known_sites(truth, reference, seed=5)
        pairs = ReadSimulator(
            truth.donor, ReadSimConfig(coverage=4.0, seed=9)
        ).simulate()
        _SAMPLE = (reference, known, pairs)
    return _SAMPLE


def _run_pipeline(workdir: str, plan: ChaosPlan | None, journal_dir: str | None,
                  **engine_overrides) -> dict:
    """One pipeline run; returns status/vcf/sequence/events — never raises."""
    from repro.engine.context import EngineConfig, GPFContext
    from repro.formats.vcf import write_vcf
    from repro.wgs import build_wgs_pipeline

    reference, known, pairs = _sample()
    os.makedirs(workdir, exist_ok=True)
    config = EngineConfig(
        default_parallelism=3,
        spill_dir=os.path.join(workdir, "spill"),
        max_task_attempts=8,
        chaos=plan,
        **engine_overrides,
    )
    events: list[dict] = []
    result: dict = {"status": "ok", "error": None, "vcf": None,
                    "sequence": [], "injected": 0, "events": events}
    with GPFContext(config) as ctx:
        ctx.events.subscribe(events.append)
        try:
            handles = build_wgs_pipeline(
                ctx, reference, ctx.parallelize(pairs, 3), known,
                partition_length=3_000,
            )
            handles.pipeline.run(journal_dir=journal_dir)
            records = sorted(handles.vcf.rdd.collect(), key=lambda r: r.key())
            path = os.path.join(workdir, "out.vcf")
            write_vcf(handles.vcf.header, records, path)
            with open(path, "rb") as fh:
                result["vcf"] = fh.read()
        except Exception as exc:  # noqa: BLE001 - classified by the caller
            result["status"] = "failed"
            result["error"] = exc
        if ctx.chaos is not None:
            result["sequence"] = ctx.chaos.sequence()
            result["injected"] = ctx.chaos.injected
    return result


def _run_with_watchdog(fn, deadline: float = RUN_DEADLINE_SECONDS) -> dict | None:
    """Run ``fn`` on a daemon thread; None means it hung past the deadline.

    An exception escaping ``fn`` re-raises here — a scenario harness
    bug, not a chaos outcome — so it is never mistaken for a hang.
    """
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - reraised on the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True, name="chaos-scenario-run")
    thread.start()
    thread.join(deadline)
    if thread.is_alive():
        return None
    if "error" in box:
        raise box["error"]
    return box.get("result")


def _dump_events(out_dir: str | None, name: str, tag: str, events: list[dict]):
    if out_dir is None:
        return
    scenario_dir = os.path.join(out_dir, name)
    os.makedirs(scenario_dir, exist_ok=True)
    with open(os.path.join(scenario_dir, f"{tag}.events.jsonl"), "w") as fh:
        for event in events:
            fh.write(json.dumps(event, default=str) + "\n")


def _classify(run: dict, baseline_vcf: bytes) -> tuple[bool, str, str]:
    """(ok, outcome, detail) for one chaos run against the contract."""
    if run["status"] == "ok":
        if run["vcf"] == baseline_vcf:
            return True, "identical", ""
        return False, "divergent", "run succeeded but output differs from baseline"
    error = run["error"]
    if isinstance(error, _typed_failures()):
        return True, "typed_failure", f"{type(error).__name__}: {error}"
    return False, f"error:{type(error).__name__}", str(error)


def _pipeline_scenario(
    name: str,
    rules: list[ChaosRule],
    seed: int,
    out_dir: str | None,
    expect_failure: bool = False,
    require_events: tuple[str, ...] = (),
    journaled: bool = False,
    min_injected: int = 1,
    **engine_overrides,
) -> ScenarioOutcome:
    """Baseline + two identically-seeded chaos runs of the WGS pipeline."""
    import tempfile

    start = time.perf_counter()
    root = tempfile.mkdtemp(prefix=f"chaos_{name}_")

    baseline = _run_with_watchdog(
        lambda: _run_pipeline(os.path.join(root, "baseline"), None, None)
    )
    if baseline is None or baseline["status"] != "ok":
        detail = (
            "baseline hung"
            if baseline is None
            else f"baseline failed: {baseline['error']!r}"
        )
        return ScenarioOutcome(
            name, seed, False, "baseline_failed", detail,
            elapsed=time.perf_counter() - start,
        )

    plan = ChaosPlan(seed=seed, rules=rules, name=name)
    runs: list[dict] = []
    for k in range(2):
        journal_dir = os.path.join(root, f"journal{k}") if journaled else None
        run = _run_with_watchdog(
            lambda k=k, j=journal_dir: _run_pipeline(
                os.path.join(root, f"chaos{k}"), plan.with_seed(seed), j,
                **engine_overrides,
            )
        )
        if run is None:
            return ScenarioOutcome(
                name, seed, False, "hung",
                f"chaos run {k} exceeded {RUN_DEADLINE_SECONDS}s",
                runs=k + 1, elapsed=time.perf_counter() - start,
            )
        runs.append(run)
        _dump_events(out_dir, name, f"run{k}", run["events"])

    problems: list[str] = []
    outcome = "identical"
    for k, run in enumerate(runs):
        ok, run_outcome, detail = _classify(run, baseline["vcf"])
        if not ok:
            problems.append(f"run {k}: {run_outcome} ({detail})")
        if run_outcome != "identical":
            outcome = run_outcome
        if expect_failure and run["status"] == "ok":
            problems.append(f"run {k}: expected a typed failure, got success")
        if run["injected"] < min_injected:
            problems.append(
                f"run {k}: injected {run['injected']} < {min_injected} faults"
            )
        for kind in require_events:
            if not any(e.get("kind") == kind for e in run["events"]):
                problems.append(f"run {k}: required event {kind!r} never published")

    replay_ok = runs[0]["sequence"] == runs[1]["sequence"]
    if not replay_ok:
        problems.append("fault sequences differ between identically-seeded runs")

    event_problems: list[str] = []
    for run in runs:
        for event in run["events"]:
            if event.get("kind") == "chaos.inject":
                event_problems.extend(validate_event(event))
    events_ok = not event_problems
    if event_problems:
        problems.append(f"schema violations: {event_problems[:3]}")

    return ScenarioOutcome(
        name=name,
        seed=seed,
        passed=not problems,
        outcome=outcome if not problems else "failed",
        detail="; ".join(problems),
        runs=len(runs),
        injected=[r["injected"] for r in runs],
        replay_ok=replay_ok,
        events_ok=events_ok,
        elapsed=time.perf_counter() - start,
    )


# -- scenario definitions --------------------------------------------------
def _scenario_spill_pressure(seed: int, out_dir: str | None) -> ScenarioOutcome:
    """ENOSPC on spill + corrupt reads under a tiny memory budget."""
    return _pipeline_scenario(
        "spill-pressure",
        [
            ChaosRule(site="block.spill", fault="enospc", probability=0.7),
            ChaosRule(site="block.read", fault="corrupt", probability=0.2,
                      max_faults=3),
            ChaosRule(site="task.attempt", fault="slow", every=7, delay=0.01),
        ],
        seed, out_dir,
        memory_budget=48_000,
    )


def _scenario_task_storm(seed: int, out_dir: str | None) -> ScenarioOutcome:
    """Random task deaths plus occasional hangs; retries must converge."""
    return _pipeline_scenario(
        "task-storm",
        [
            ChaosRule(site="task.attempt", fault="die", probability=0.12),
            ChaosRule(site="task.attempt", fault="slow", probability=0.05,
                      delay=0.02),
        ],
        seed, out_dir,
    )


def _scenario_shuffle_flaky(seed: int, out_dir: str | None) -> ScenarioOutcome:
    """EIO and bit flips on shuffle fetch; crc + retry must recover."""
    return _pipeline_scenario(
        "shuffle-flaky",
        [
            ChaosRule(site="shuffle.fetch", fault="eio", probability=0.25,
                      max_faults=4),
            ChaosRule(site="shuffle.fetch", fault="corrupt", probability=0.25,
                      max_faults=4),
            ChaosRule(site="task.attempt", fault="slow", every=9, delay=0.01),
        ],
        seed, out_dir,
    )


def _scenario_journal_enospc(seed: int, out_dir: str | None) -> ScenarioOutcome:
    """Journal commit hits ENOSPC: degrade to journal-less, same bytes."""
    return _pipeline_scenario(
        "journal-enospc",
        [ChaosRule(site="journal.append", fault="enospc", nth=1)],
        seed, out_dir,
        require_events=("journal.disabled",),
        journaled=True,
    )


def _scenario_retry_budget(seed: int, out_dir: str | None) -> ScenarioOutcome:
    """Every attempt dies; the consolidated budget must fail the run fast."""
    return _pipeline_scenario(
        "retry-budget",
        [ChaosRule(site="task.attempt", fault="die", probability=1.0)],
        seed, out_dir,
        expect_failure=True,
        retry_budget=3,
    )


def _scenario_serve_overload(seed: int, out_dir: str | None) -> ScenarioOutcome:
    """Worker faults drive the service into shedding, then it recovers.

    A stub runner keeps this about the *service*: chaos ``die`` faults
    fail the first jobs, the health monitor crosses into ``shedding``,
    a low-priority submission is refused with 503 + Retry-After while a
    high-priority one is still admitted, successes dilute the window
    back to ``healthy``, and the service drains cleanly.  The whole
    cycle runs twice to assert the serve-layer fault sequence replays.
    """
    import tempfile

    from repro.serve.client import ServiceClient, ServiceError
    from repro.serve.health import HealthConfig
    from repro.serve.http import start_http_server
    from repro.serve.service import PipelineService, ServiceConfig

    start = time.perf_counter()
    failures = 4
    # Passes validate_spec; the stub runner never opens the paths.
    stub_spec = {"reference": "ref.fa", "fastq1": "r1.fq", "fastq2": "r2.fq"}

    def stub_runner(job, ctx, should_cancel, journal_dir):
        os.makedirs(journal_dir, exist_ok=True)
        return {"records": 0}

    def one_cycle(root: str) -> dict:
        plan = ChaosPlan(
            seed=seed,
            rules=[
                ChaosRule(site="serve.worker.run", fault="die",
                          probability=1.0, max_faults=failures),
                ChaosRule(site="serve.persist.clock", fault="clock_skew",
                          nth=1, skew=90.0),
            ],
            name="serve-overload",
        )
        config = ServiceConfig(
            workers=1,
            queue_depth=8,
            health=HealthConfig(
                window_seconds=60.0, min_samples=2, retry_after=1.0
            ),
            chaos=plan,
        )
        service = PipelineService(root, config, runner=stub_runner).start()
        server = start_http_server(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        report = {"problems": [], "sequence": [], "injected": 0, "events": []}
        try:
            # Phase 1: chaos fails the first jobs; failure rate spikes.
            for _ in range(failures):
                job = client.submit(stub_spec, priority=1)
                done = client.wait(job["id"], timeout=30.0, poll=0.05)
                if done["state"] != "failed":
                    report["problems"].append(
                        f"chaos job ended {done['state']}, expected failed"
                    )
            if service.healthmon.state != "shedding":
                report["problems"].append(
                    f"state {service.healthmon.state!r} after "
                    f"{failures} failures, expected shedding"
                )
            # Phase 2: low priority is shed with 503 + Retry-After ...
            try:
                client.submit(stub_spec, priority=0)
                report["problems"].append("low-priority submit was not shed")
            except ServiceError as exc:
                if exc.status != 503:
                    report["problems"].append(f"shed status {exc.status} != 503")
                if exc.retry_after is None:
                    report["problems"].append("shed response had no Retry-After")
            # ... and /healthz reports the shedding state as 503.
            try:
                client.health()
                report["problems"].append("healthz returned 200 while shedding")
            except ServiceError as exc:
                if exc.payload.get("status") != "shedding":
                    report["problems"].append(
                        f"healthz status {exc.payload.get('status')!r}"
                    )
            # Phase 3: high priority still admitted; successes dilute the
            # window (chaos max_faults is exhausted) until healthy again.
            for _ in range(3 * failures):
                job = client.submit(stub_spec, priority=1)
                done = client.wait(job["id"], timeout=30.0, poll=0.05)
                if done["state"] != "succeeded":
                    report["problems"].append(
                        f"recovery job ended {done['state']}"
                    )
                    break
            health = client.health()
            if health.get("status") != "healthy":
                report["problems"].append(
                    f"status {health.get('status')!r} after recovery"
                )
            if health.get("workers_alive", 0) < 1:
                report["problems"].append("no workers alive after recovery")
        finally:
            report["sequence"] = service.chaos.sequence()
            report["injected"] = service.chaos.injected
            report["events"] = list(service.chaos.log)
            server.shutdown()
            server.server_close()
            service.drain(timeout=30.0)
        return report

    cycles: list[dict] = []
    for k in range(2):
        root = tempfile.mkdtemp(prefix=f"chaos_serve_{k}_")
        cycle = _run_with_watchdog(lambda r=root: one_cycle(r), deadline=90.0)
        if cycle is None:
            return ScenarioOutcome(
                "serve-overload", seed, False, "hung",
                f"serve cycle {k} exceeded 90s", runs=k + 1,
                elapsed=time.perf_counter() - start,
            )
        cycles.append(cycle)
        _dump_events(out_dir, "serve-overload", f"run{k}", cycle["events"])

    problems = [p for c in cycles for p in c["problems"]]
    replay_ok = cycles[0]["sequence"] == cycles[1]["sequence"]
    if not replay_ok:
        problems.append("serve fault sequences differ between cycles")
    return ScenarioOutcome(
        name="serve-overload",
        seed=seed,
        passed=not problems,
        outcome="recovered" if not problems else "failed",
        detail="; ".join(problems),
        runs=len(cycles),
        injected=[c["injected"] for c in cycles],
        replay_ok=replay_ok,
        events_ok=True,
        elapsed=time.perf_counter() - start,
    )


#: name -> (function, one-line description); ``gpf chaos --list`` prints it.
SCENARIOS: dict = {
    "spill-pressure": (
        _scenario_spill_pressure,
        "ENOSPC on spill + corrupt block reads under a tiny memory budget",
    ),
    "task-storm": (
        _scenario_task_storm,
        "random task deaths and slowdowns; retries must converge",
    ),
    "shuffle-flaky": (
        _scenario_shuffle_flaky,
        "EIO and bit flips on shuffle fetch; crc + retry must recover",
    ),
    "journal-enospc": (
        _scenario_journal_enospc,
        "journal commit ENOSPC degrades to journal-less, bytes unchanged",
    ),
    "retry-budget": (
        _scenario_retry_budget,
        "every attempt dies; the consolidated retry budget fails fast",
    ),
    "serve-overload": (
        _scenario_serve_overload,
        "worker faults drive shedding (503 + Retry-After), then recovery",
    ),
}


def run_scenario(name: str, seed: int = 0, out_dir: str | None = None) -> ScenarioOutcome:
    """Run one named scenario; unknown names raise ``KeyError``."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown chaos scenario {name!r} (known: {known})")
    fn, _ = SCENARIOS[name]
    return fn(seed, out_dir)


def run_suite(
    names: list[str] | None = None,
    seed: int = 0,
    out_dir: str | None = None,
) -> list[ScenarioOutcome]:
    """Run the selected (default: all) scenarios; returns their outcomes."""
    outcomes = []
    for name in names or list(SCENARIOS):
        outcomes.append(run_scenario(name, seed=seed, out_dir=out_dir))
    return outcomes
