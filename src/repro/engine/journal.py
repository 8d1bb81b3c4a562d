"""Pipeline run journal: crash-resumable Process-level checkpointing.

The journal makes ``Pipeline.run(journal_dir=...)`` idempotent at Process
granularity.  After each Process finishes, every output Resource is
materialized to crc32-framed checkpoint files in the journal directory
and one JSON line describing them is appended (and fsynced) to
``journal.jsonl``.  Files are durably written *before* their journal
line, so a crash mid-checkpoint leaves no entry and the Process simply
re-executes on resume.

A later run with the same journal directory and the same *plan
signature* (a hash of the optimized Process graph) restores the journaled
outputs — RDDs come back as :class:`CheckpointFileRDD` sources with no
lineage to replay — and skips the finished Processes.  A journal written
by a different plan is discarded, never partially applied.

Layout::

    <journal_dir>/journal.jsonl           header + one line per Process
    <journal_dir>/data/<process>__<resource>__p<N>.ckpt   RDD partitions
    <journal_dir>/data/<process>__<resource>.val          plain values
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from typing import Sequence, TYPE_CHECKING

from repro.engine.blockmanager import read_block_file, write_block_file
from repro.engine.metrics import TaskMetrics
from repro.engine.rdd import RDD

if TYPE_CHECKING:
    from repro.core.process import Process
    from repro.engine.context import GPFContext

#: Bumped when the checkpoint payload format changes: a journal whose
#: header carries another version is discarded whole (2: a checkpoint
#: is the bare serializer payload, with no block header of its own).
JOURNAL_VERSION = 2


def plan_signature(processes: Sequence["Process"]) -> str:
    """Stable hash of the (optimized) plan structure.

    Covers Process class names, Process names, and input/output Resource
    names — enough to reject a journal written by a structurally different
    plan (the optimizer's fused names are deterministic, so optimization
    does not perturb the signature across runs).
    """
    digest = hashlib.blake2b(digest_size=16)
    for process in processes:
        entry = "|".join(
            [
                type(process).__name__,
                process.name,
                ",".join(r.name for r in process.inputs),
                ",".join(r.name for r in process.outputs),
            ]
        )
        digest.update(entry.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class CheckpointFileRDD(RDD):
    """RDD over journaled checkpoint files — one file per partition.

    In the run that wrote them, ``lineage`` is the RDD the files hold and
    the one parent: a partition whose file cannot be read or decoded
    where the task runs (a worker that does not share the driver's
    filesystem, a revoked mount, a corrupt file) is recomputed from it,
    and counted in ``journal.checkpoint_fallbacks``.  A resumed run's
    checkpoint has no lineage to recompute from, so a failed read fails
    the task; :meth:`RunJournal.restore` verifies every file before the
    RDD is handed to the plan, so a torn file downgrades to a
    re-executed Process rather than a mid-run crash.
    """

    def __init__(
        self, ctx: "GPFContext", paths: Sequence[str], lineage: RDD | None = None
    ):
        super().__init__(
            ctx,
            len(paths),
            parents=[lineage] if lineage is not None else [],
            name="checkpoint-file",
        )
        self._paths = list(paths)

    def compute(self, split: int, task: TaskMetrics) -> list:
        try:
            blob = read_block_file(
                self._paths[split],
                getattr(self.ctx, "chaos", None),
                site="journal.checkpoint.read",
            )
            return self.ctx._decode_block(blob)
        except Exception:  # noqa: BLE001 - any read/decode failure
            if not self.parents:
                raise
        self.ctx.metrics.inc("journal.checkpoint_fallbacks")
        return self.parents[0].iterator(split, task)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def job_journal_dir(base_dir: str, job_id: str) -> str:
    """Per-job journal namespace: ``<base_dir>/<job_id>/``.

    The plan signature hashes the *structure* of a plan, not its inputs,
    so two jobs running the same pipeline over different samples collide
    on it.  Anything that shares one journal root across jobs (the serve
    worker pool, ``gpf run --job-id``) must namespace by job id or one
    job would happily restore another's checkpoints.  Job ids that
    sanitize to the same filesystem name get a hash suffix so they can
    never alias either.
    """
    if not job_id:
        raise ValueError("job_id must be non-empty")
    safe = _safe_name(job_id)
    if safe != job_id:
        tag = hashlib.blake2b(job_id.encode("utf-8"), digest_size=4).hexdigest()
        safe = f"{safe}-{tag}"
    path = os.path.join(base_dir, safe)
    os.makedirs(path, exist_ok=True)
    return path


class RunJournal:
    """Append-only JSONL journal of completed Processes for one plan."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, "journal.jsonl")
        self.data_dir = os.path.join(directory, "data")
        os.makedirs(self.data_dir, exist_ok=True)
        self._entries: dict[str, dict] = {}
        #: True when an existing journal was discarded (plan changed).
        self.discarded_stale = False

    # -- lifecycle ---------------------------------------------------------
    def open(self, plan_sig: str) -> None:
        """Load entries for this plan; discard a stale journal."""
        self._entries = {}
        lines: list[dict] = []
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        lines.append(json.loads(raw))
                    except json.JSONDecodeError:
                        # A torn trailing line is the expected crash
                        # artifact; everything before it is intact.
                        break
        header_ok = (
            bool(lines)
            and lines[0].get("kind") == "header"
            and lines[0].get("plan") == plan_sig
            and lines[0].get("version") == JOURNAL_VERSION
        )
        if header_ok:
            for line in lines[1:]:
                if line.get("kind") == "process":
                    self._entries[line["process"]] = line
            return
        if lines:
            self.discarded_stale = True
        self._write_header(plan_sig)

    def _write_header(self, plan_sig: str) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"kind": "header", "version": JOURNAL_VERSION, "plan": plan_sig}
                )
            )
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())

    @property
    def completed(self) -> set[str]:
        return set(self._entries)

    # -- record ------------------------------------------------------------
    def record(self, process: "Process", ctx: "GPFContext") -> None:
        """Checkpoint every output of a just-finished Process.

        All files are written (atomically, fsynced) before the journal
        line is appended: the line is the commit point.  Once committed,
        each RDD output *is* its checkpoint: it is redefined as a
        :class:`CheckpointFileRDD` over the files, so later Processes
        read them instead of replaying its lineage — which the
        checkpoint keeps, to recompute a partition whose file cannot be
        read where its task runs.
        """
        chaos = getattr(ctx, "chaos", None)
        outputs: list[dict] = []
        checkpoints: list[tuple] = []
        for resource in process.outputs:
            value = resource.value
            spec: dict = {"name": resource.name}
            stem = f"{_safe_name(process.name)}__{_safe_name(resource.name)}"
            if isinstance(value, RDD):
                paths = []
                for split, part in enumerate(ctx.run_job(value)):
                    path = os.path.join(self.data_dir, f"{stem}__p{split}.ckpt")
                    write_block_file(path, ctx.serializer.dumps(part), chaos)
                    paths.append(path)
                spec["type"] = "rdd"
                spec["paths"] = paths
                checkpoints.append((resource, CheckpointFileRDD(ctx, paths, value)))
            else:
                path = os.path.join(self.data_dir, f"{stem}.val")
                write_block_file(
                    path,
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                    chaos,
                )
                spec["type"] = "value"
                spec["path"] = path
            # Bundles carry format metadata (SAM/VCF headers) the Process
            # mutated; persist it or the resumed run would see stale headers.
            header = getattr(resource, "header", None)
            if header is not None:
                spec["header"] = pickle.dumps(
                    header, protocol=pickle.HIGHEST_PROTOCOL
                ).hex()
            outputs.append(spec)
        entry = {"kind": "process", "process": process.name, "outputs": outputs}
        if chaos is not None:
            # The append is the commit point; an injected ENOSPC/EIO here
            # surfaces as an OSError the pipeline degrades on (journal-less
            # execution) rather than a torn journal.
            chaos.hit("journal.append", process=process.name)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._entries[process.name] = entry
        for resource, checkpoint in checkpoints:
            resource.undefine()
            resource.define(checkpoint)
        ctx.metrics.inc("journal.recorded")
        ctx.events.publish("journal.record", process=process.name)

    # -- restore -----------------------------------------------------------
    def restore(self, process: "Process", ctx: "GPFContext") -> bool:
        """Re-define a journaled Process's outputs; True when skipped.

        Every checkpoint file is crc32-verified *before* any Resource is
        touched, so a corrupt or missing file leaves the plan untouched
        and the Process re-executes normally.
        """
        entry = self._entries.get(process.name)
        if entry is None:
            return False
        specs = entry["outputs"]
        by_name = {r.name: r for r in process.outputs}
        if set(s["name"] for s in specs) != set(by_name):
            return False
        chaos = getattr(ctx, "chaos", None)
        restored: list[tuple] = []
        try:
            for spec in specs:
                if spec["type"] == "rdd":
                    blobs = [
                        read_block_file(p, chaos, site="journal.data.read")
                        for p in spec["paths"]
                    ]
                    # Decode too: a blob that passes crc32 but does not
                    # decode must also downgrade to re-execution.
                    for blob in blobs:
                        ctx.serializer.loads(blob)
                    value: object = CheckpointFileRDD(ctx, spec["paths"])
                else:
                    value = pickle.loads(
                        read_block_file(spec["path"], chaos, site="journal.data.read")
                    )
                header = (
                    pickle.loads(bytes.fromhex(spec["header"]))
                    if "header" in spec
                    else None
                )
                restored.append((by_name[spec["name"]], value, header))
        except Exception:  # noqa: BLE001 - any decode failure => re-execute
            return False
        for resource, value, header in restored:
            if resource.is_defined:
                resource.undefine()
            resource.define(value)
            if header is not None:
                resource.header = header
        process.restore_outputs()
        ctx.metrics.inc("journal.restored")
        ctx.events.publish("journal.restore", process=process.name)
        return True
