"""Lazy paired-FASTQ source RDD: per-task record-range reads.

``parallelize`` needs the whole dataset in driver memory; the paper's
500 GB FASTQ input obviously never fits.  :class:`FastqPairFileRDD`
finds each split's record offsets at construction (one cheap scan per
mate file) and has *each task* open both files and read only its own
records — the engine analogue of HDFS input splits.  File read time is
charged to the task's disk-blocked metric, so loading shows up in
blocked-time analysis exactly like the paper's "conversion of the FASTQ
file to RDD format" phase.  :func:`load_fastq_pair_lazy` builds one at
the context's default parallelism.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.engine.metrics import TaskMetrics, timed
from repro.engine.rdd import RDD
from repro.formats.fastq import FastqPair, FastqRecord, pair_reads, parse_fastq
from repro.formats.quarantine import QuarantineSink, check_policy

if TYPE_CHECKING:
    from repro.engine.context import GPFContext


class FastqPairFileRDD(RDD):
    """Paired-end FASTQ: mate files zipped lazily per partition.

    Both files must list mates in the same order (the standard _1/_2
    convention); splits are chosen on the *record index*, so partition i
    of both files holds the same fragments.
    """

    def __init__(
        self,
        ctx: "GPFContext",
        path1: str,
        path2: str,
        num_partitions: int,
        malformed: str = "fail",
    ):
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        check_policy(malformed)
        super().__init__(
            ctx, num_partitions, name=f"fastq-pair:{os.path.basename(path1)}"
        )
        self._path1 = path1
        self._path2 = path2
        self._malformed = malformed
        # Index-aligned splits need record counts; count records once per
        # file (a sequential scan, not a load).
        count1 = _count_fastq_records(path1, malformed)
        count2 = _count_fastq_records(path2, malformed)
        if count1 != count2:
            if malformed == "fail":
                raise ValueError(
                    f"paired FASTQ files disagree: {count1} vs {count2} records"
                )
            # Tolerant policies pair up to the shorter file; the unmatched
            # tail is quarantined record-by-record when its split is read.
            count1 = min(count1, count2)
        self._record_ranges = [
            (count1 * i // num_partitions, count1 * (i + 1) // num_partitions)
            for i in range(num_partitions)
        ]
        self._offsets1 = _record_offsets(path1, [r[0] for r in self._record_ranges])
        self._offsets2 = _record_offsets(path2, [r[0] for r in self._record_ranges])

    def compute(self, split: int, task: TaskMetrics) -> list:
        lo, hi = self._record_ranges[split]
        if hi <= lo:
            return []
        count = hi - lo
        sink = _quarantine_sink(self.ctx, self._malformed)
        reads1 = _read_records(
            self._path1, self._offsets1[split], count, task, self._malformed, sink
        )
        reads2 = _read_records(
            self._path2, self._offsets2[split], count, task, self._malformed, sink
        )
        if self._malformed == "fail":
            pairs = [FastqPair(r1, r2) for r1, r2 in zip(reads1, reads2)]
        else:
            pairs = list(pair_reads(reads1, reads2, self._malformed, sink))
        task.records_read += len(pairs)
        return pairs


def _quarantine_sink(ctx: "GPFContext", malformed: str) -> "QuarantineSink | None":
    return ctx.quarantine if malformed == "quarantine" else None


def _count_fastq_records(path: str, malformed: str = "fail") -> int:
    lines = 0
    with open(path, "rb") as fh:
        for _ in fh:
            lines += 1
    if lines % 4:
        if malformed == "fail":
            raise ValueError(
                f"{path}: FASTQ line count {lines} not a multiple of 4"
            )
        # Tolerant policies drop the trailing partial record; the parse
        # step quarantines its lines when the final split is read.
    return lines // 4


def _record_offsets(path: str, record_indices: list[int]) -> list[int]:
    """Byte offset of each requested record index (single forward scan)."""
    wanted = sorted(set(record_indices))
    offsets: dict[int, int] = {}
    record = 0
    position = 0
    with open(path, "rb") as fh:
        pending = [w for w in wanted]
        while pending and pending[0] == record:
            offsets[record] = position
            pending.pop(0)
        for line_number, line in enumerate(fh):
            position += len(line)
            if (line_number + 1) % 4 == 0:
                record += 1
                while pending and pending[0] == record:
                    offsets[record] = position
                    pending.pop(0)
    return [offsets.get(i, position) for i in record_indices]


def _read_records(
    path: str,
    offset: int,
    count: int,
    task: TaskMetrics,
    malformed: str = "fail",
    sink: "QuarantineSink | None" = None,
) -> list[FastqRecord]:
    lines: list[str] = []
    with timed(task, "disk_blocked"):
        with open(path, "rb") as fh:
            fh.seek(offset)
            for _ in range(count * 4):
                line = fh.readline()
                if not line:
                    break
                lines.append(line.decode("ascii"))
    return list(parse_fastq(lines, malformed, sink))


def load_fastq_pair_lazy(
    ctx: "GPFContext",
    path1: str,
    path2: str,
    num_partitions: int | None = None,
    malformed: str = "fail",
) -> FastqPairFileRDD:
    return FastqPairFileRDD(
        ctx,
        path1,
        path2,
        num_partitions or ctx.config.default_parallelism,
        malformed=malformed,
    )
