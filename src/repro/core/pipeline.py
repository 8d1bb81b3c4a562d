"""Pipeline: GPF's runtime driver (paper §3.2, §4.3, Algorithm 1).

``Pipeline.run()`` performs a unified analysis of every added Process
*before any committed operation*:

1. **Redundancy elimination** (optional, on by default): the Fig. 7
   rewrite fuses chains of partition Processes so FASTA/VCF partitioning
   and bundle joins happen once per chain (``repro.core.optimizer``).
2. **Algorithm 1**: iterate — collect every Process whose input Resources
   are all in the resource pool, execute them, add their outputs to the
   pool — until no Process remains; an iteration that makes no progress
   means a circular dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.optimizer import eliminate_redundancy
from repro.core.process import Process
from repro.core.resource import Resource
from repro.engine.context import GPFContext

if TYPE_CHECKING:
    from repro.analysis.diagnostics import LintReport


class CircularDependencyError(RuntimeError):
    pass


class PipelineCancelledError(RuntimeError):
    """``run(should_cancel=...)`` observed a cancellation request.

    Raised *between* Processes, never inside one: every finished Process
    committed its outputs (and, with a journal, its checkpoint), so a
    cancelled journaled run resumes exactly where it stopped.
    """

    def __init__(self, pipeline: str, completed: list[str], remaining: list[str]):
        self.pipeline = pipeline
        self.completed = completed
        self.remaining = remaining
        super().__init__(
            f"pipeline {pipeline!r} cancelled after "
            f"{', '.join(completed) or '<nothing>'}; "
            f"remaining: {', '.join(remaining)}"
        )


class PipelineLintError(RuntimeError):
    """``run(strict=True)`` refused a plan with error-severity diagnostics."""

    def __init__(self, report: "LintReport"):
        self.report = report
        super().__init__(
            "pipeline failed static analysis with "
            f"{len(report.errors)} error(s):\n{report.render()}"
        )


class Pipeline:
    def __init__(self, name: str, ctx: GPFContext):
        self.name = name
        self.ctx = ctx
        self.processes: list[Process] = []
        #: Processes actually executed on the last run (post-optimization).
        self.executed: list[Process] = []
        #: Processes skipped on the last run because the run journal
        #: already held their outputs (crash resume).
        self.skipped: list[Process] = []
        #: Resources the caller keeps (terminal outputs); gpfcheck's
        #: GPF004 dead-output rule treats them as consumed.
        self.returned: list[Resource] = []

    def add_process(self, process: Process) -> "Pipeline":
        """Append a Process to the plan (each instance at most once)."""
        if process in self.processes:
            raise ValueError(f"process {process.name!r} already added")
        self.processes.append(process)
        return self

    def mark_returned(self, *resources: Resource) -> "Pipeline":
        """Declare terminal outputs the caller will read after the run."""
        self.returned.extend(resources)
        return self

    # -- static analysis (gpfcheck) -----------------------------------------
    def lint(self, **kwargs) -> "LintReport":
        """Statically validate the plan without executing anything.

        Keyword arguments are forwarded to
        :func:`repro.analysis.lint_pipeline` (``returned=``, ``options=``).
        """
        from repro.analysis import lint_pipeline

        return lint_pipeline(self, **kwargs)

    # -- Algorithm 1 ---------------------------------------------------------
    def run(
        self,
        optimize: bool = True,
        strict: bool = False,
        journal_dir: str | None = None,
        should_cancel=None,
    ) -> None:
        """Analyze, optimize, and execute every Process.

        With ``strict=True`` the plan is linted first and execution is
        refused (``PipelineLintError``) if any error-severity diagnostic
        is found — the paper's fail-before-any-committed-operation
        contract.

        With ``journal_dir`` set, every finished Process's outputs are
        checkpointed there and journaled; a re-run against the same
        directory with the same (optimized) plan restores those outputs
        and skips the finished Processes (``self.skipped``) — the crash
        resume path.  A journal written by a different plan is discarded.

        ``should_cancel`` is an optional zero-argument callable polled
        between Processes; when it returns true, the run stops with
        :class:`PipelineCancelledError` before the next Process starts
        (a running Process always commits).  The pipeline service uses
        this for job cancellation and cooperative deadlines.
        """
        if strict:
            report = self.lint()
            if report.has_errors:
                raise PipelineLintError(report)
        plan = list(self.processes)
        if optimize:
            plan = eliminate_redundancy(plan)
        self.executed = []
        self.skipped = []
        journal = None
        events = self.ctx.events
        if journal_dir is not None:
            from repro.engine.journal import RunJournal, plan_signature

            try:
                journal = RunJournal(journal_dir)
                journal.open(plan_signature(plan))
            except OSError as exc:
                # The journal directory is unusable (disk full, revoked
                # mount): degrade to journal-less execution.  The run
                # still produces its outputs; it just can't be resumed.
                journal = None
                events.publish(
                    "journal.disabled", reason=f"{type(exc).__name__}: {exc}"
                )
            else:
                if journal.discarded_stale:
                    events.publish("journal.stale")

        unfinished: list[Process] = list(plan)
        resource_pool: set[int] = set()
        # Seed the pool with Resources that are already defined
        # (Algorithm 1 lines 4-11).
        for process in unfinished:
            for resource in process.inputs:
                if resource.is_defined:
                    resource_pool.add(id(resource))

        with self.ctx.tracer.span(
            f"pipeline:{self.name}",
            kind="pipeline",
            processes=[p.name for p in plan],
        ):
            while unfinished:
                ready = [
                    p
                    for p in unfinished
                    if all(id(r) in resource_pool or r.is_defined for r in p.inputs)
                ]
                if not ready:
                    blocked = {p.name: [r.name for r in p.inputs if not r.is_defined] for p in unfinished}
                    raise CircularDependencyError(
                        f"no executable process; circular dependency among {blocked}"
                    )
                for process in ready:
                    if should_cancel is not None and should_cancel():
                        raise PipelineCancelledError(
                            self.name,
                            [p.name for p in self.executed + self.skipped],
                            [p.name for p in unfinished],
                        )
                    if journal is not None and journal.restore(process, self.ctx):
                        self.skipped.append(process)
                        events.publish("process.skipped", process=process.name)
                    else:
                        process.run(self.ctx)
                        self.executed.append(process)
                        if journal is not None:
                            try:
                                journal.record(process, self.ctx)
                            except OSError as exc:
                                # Mid-run journal failure: fall back to
                                # journal-less execution for the rest of
                                # the run rather than failing a pipeline
                                # whose actual work just succeeded.
                                journal = None
                                events.publish(
                                    "journal.disabled",
                                    reason=f"{type(exc).__name__}: {exc}",
                                )
                    unfinished.remove(process)
                    for resource in process.outputs:
                        resource_pool.add(id(resource))

    def reset(self) -> None:
        """Undefine every Process-produced Resource so the pipeline can be
        re-run (user-defined inputs stay defined)."""
        for process in self.processes:
            process.reset()
        self.executed = []

    def describe(self) -> str:
        """Human-readable plan summary (structure + execution levels)."""
        from repro.core.dag import analyze, execution_levels

        report = analyze(self.processes)
        lines = [
            f"Pipeline {self.name!r}: {report.num_processes} processes, "
            f"{report.num_edges} edges, depth {report.depth}, width {report.width}",
        ]
        if not report.is_dag:
            lines.append("  WARNING: the plan contains a cycle")
            return "\n".join(lines)
        for level, names in enumerate(execution_levels(self.processes)):
            lines.append(f"  level {level}: {', '.join(names)}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """GraphViz DOT text of the Process DAG."""
        from repro.core.dag import to_dot

        return to_dot(self.processes)

    def __repr__(self) -> str:
        return f"<Pipeline {self.name!r} processes={len(self.processes)}>"
