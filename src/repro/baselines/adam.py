"""ADAM-style execution: in-memory Spark, but columnar conversion and
per-tool repartitioning, no genomic codec, no process-level fusion.

ADAM (Massie et al. 2013) stores records in a columnar (Parquet-backed)
layout, so every tool boundary converts row records to columns and back,
and each tool independently repartitions its input.  This runnable
reference executes our substrate algorithms through that shape on the
repro engine — the mechanisms (conversion passes, extra shuffles,
compact-but-content-blind serialization) are real; only the JVM constant
in the simulator's :class:`BaselineFactors` is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cleaner.bqsr import apply_recalibration, build_recalibration_table
from repro.cleaner.duplicates import mark_duplicates
from repro.cleaner.realign import find_realignment_intervals, realign_reads
from repro.core.partitioning import PartitionInfo
from repro.engine.context import GPFContext
from repro.engine.rdd import RDD, FuncPartitioner
from repro.formats.fasta import Reference
from repro.formats.sam import SamRecord
from repro.formats.vcf import VcfRecord


@dataclass
class ColumnarBatch:
    """ADAM's columnar record layout: one array per SAM field."""

    qnames: list[str]
    flags: list[int]
    rnames: list[str]
    positions: list[int]
    mapqs: list[int]
    cigars: list[str]
    seqs: list[str]
    quals: list[str]

    @classmethod
    def from_records(cls, records: list[SamRecord]) -> "ColumnarBatch":
        return cls(
            qnames=[r.qname for r in records],
            flags=[r.flag for r in records],
            rnames=[r.rname for r in records],
            positions=[r.pos for r in records],
            mapqs=[r.mapq for r in records],
            cigars=[str(r.cigar) for r in records],
            seqs=[r.seq for r in records],
            quals=[r.qual for r in records],
        )

    def to_records(self) -> list[SamRecord]:
        from repro.formats.cigar import Cigar

        return [
            SamRecord(
                qname=self.qnames[i],
                flag=self.flags[i],
                rname=self.rnames[i],
                pos=self.positions[i],
                mapq=self.mapqs[i],
                cigar=Cigar.parse(self.cigars[i]),
                rnext="*",
                pnext=-1,
                tlen=0,
                seq=self.seqs[i],
                qual=self.quals[i],
            )
            for i in range(len(self.qnames))
        ]


def _to_columnar(split: int, records: list) -> list:
    """Row -> column conversion pass (runs per partition)."""
    return [ColumnarBatch.from_records(records)] if records else []


def _to_rows(split: int, batches: list) -> list:
    out: list[SamRecord] = []
    for batch in batches:
        out.extend(batch.to_records())
    return out


class AdamLikePipeline:
    """Cleaner tools executed ADAM-style on the repro engine.

    Each tool: repartition by position -> convert to columnar -> convert
    back -> run the algorithm -> columnar again (the write-side
    conversion).  Compare with GPF's single bundle shuffle for the whole
    chain.
    """

    def __init__(
        self,
        ctx: GPFContext,
        reference: Reference,
        known_sites: list[VcfRecord],
        partition_length: int = 5_000,
    ):
        self.ctx = ctx
        self.reference = reference
        self.known_sites = known_sites
        self.info = PartitionInfo.from_reference(reference, partition_length)

    # -- tools --------------------------------------------------------------
    def _repartition(self, rdd: RDD) -> RDD:
        info = self.info
        partitioner = FuncPartitioner(info.num_partitions, info.partition_func())
        return (
            rdd.filter(lambda r: not r.is_unmapped)
            .key_by(lambda r: (r.rname, r.pos))
            .partition_by(partitioner)
            .values()
        )

    def _tool(self, rdd: RDD, algorithm) -> RDD:
        converted = self._repartition(rdd).map_partitions_with_index(_to_columnar)
        rows = converted.map_partitions_with_index(_to_rows)
        processed = rows.map_partitions(algorithm)
        # Write-side conversion back to the columnar store.
        return (
            processed.map_partitions_with_index(_to_columnar)
            .map_partitions_with_index(_to_rows)
            .persist()
        )

    def mark_duplicates(self, rdd: RDD) -> RDD:
        def run(records: list) -> list:
            marked, _ = mark_duplicates(list(records))
            return marked

        return self._tool(rdd, run)

    def indel_realignment(self, rdd: RDD) -> RDD:
        """Realignment through the ADAM-style repartition+convert shape."""
        reference = self.reference

        def run(records: list) -> list:
            records = [r.copy() for r in records]
            intervals = find_realignment_intervals(records)
            if intervals:
                realign_reads(records, reference, intervals)
            return records

        return self._tool(rdd, run)

    def bqsr(self, rdd: RDD) -> RDD:
        """BQSR through the ADAM-style repartition+convert shape."""
        reference = self.reference
        known = self.known_sites

        def run(records: list) -> list:
            records = [r.copy() for r in records]
            table = build_recalibration_table(records, reference, known)
            apply_recalibration(records, table)
            return records

        return self._tool(rdd, run)
