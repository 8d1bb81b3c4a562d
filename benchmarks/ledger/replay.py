"""Layer replay: the pipeline's stages called directly, in order, in one
process, one span each.

RDDs are lazy, so a Process-level timer charges the aligner's seconds to
whichever later Process first forces the lineage.  Until spans exist
inside the program, the replay is the per-layer source: the benchmark
itself calls each layer's public functions over the run's inputs and
records counts at the same boundaries.  It reads what each layer costs
on this input, not what the engine adds around it — that part is
``wall_s`` minus the replayed total, and the engine counters.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.caller.haplotype_caller import HaplotypeCaller
from repro.cleaner.bqsr import apply_recalibration, build_recalibration_table
from repro.cleaner.duplicates import mark_duplicates
from repro.cleaner.realign import find_realignment_intervals, realign_reads
from repro.cleaner.sort import coordinate_sort
from repro.core.partitioning import PartitionInfo
from repro.compression.records import FastqCodec, SamCodec, ratio
from repro.engine.serializers import get_serializer
from repro.formats.fastq import parse_fastq
from repro.formats.flags import PROPER_PAIR
from repro.formats.sam import SamHeader, SamRecord
from repro.formats.vcf import VcfHeader, sort_records, write_vcf

from benchmarks.ledger.spans import Span, SpanLog
from benchmarks.ledger.workloads import Inputs, align

Metrics = dict[str, tuple[float, str]]

class ReplayMismatch(AssertionError):
    """A codec or serializer round trip did not return what went in."""


class _Replay:
    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.metrics: Metrics = {}

    @contextmanager
    def step(self, name: str, records: int) -> Iterator[Span]:
        """One layer call: span ``<layer>.<what>``, metric ``<name>_s``."""
        with self.spans.span(name, name.split(".")[0], records) as span:
            yield span
        self.metrics[name + "_s"] = (span.seconds, "s")

    def roundtrip(self, prefix: str, records: list, dumps, loads) -> bytes:
        """Time ``<prefix><dumps>`` then ``<prefix><loads>``; the round
        trip must be lossless."""
        with self.step(prefix + dumps.__name__, len(records)):
            blob = dumps(records)
        with self.step(prefix + loads.__name__, len(records)):
            back = loads(blob)
        if back != records:
            raise ReplayMismatch(prefix)
        return blob


def replay(
    inputs: Inputs, partition_info: PartitionInfo, workdir: str, spans: SpanLog
) -> Metrics:
    """Run every layer once over ``inputs``; return the (R) metrics.

    ``partition_info`` is the map the measured job derived; the replay
    counts its own mapped reads against it for the partition skew."""
    r = _Replay(spans)
    m = r.metrics
    reference = inputs.reference
    with spans.span(f"replay:{inputs.kind}", "bench") as root:
        with spans.span("bench.fastq_text", "bench"):
            lines = [line for pair in inputs.pairs for read in pair for line in read.to_lines()]
        with r.step("formats.fastq_parse", 2 * len(inputs.pairs)):
            reads = list(parse_fastq(lines))
        m["formats.fastq_parse_reads"] = (len(reads), "count")

        blob = r.roundtrip("compression.fastq_", reads, FastqCodec.encode, FastqCodec.decode)
        m["compression.fastq_ratio"] = (ratio(reads, blob), "ratio")

        aligned = align(reference, inputs.pairs, spans)
        for name in ("align.index_build", "align.align_pairs"):
            m[name + "_s"] = (spans.last(name).seconds, "s")
        mapped = [rec for rec in aligned if not rec.is_unmapped]
        m["align.pairs"] = (len(inputs.pairs), "count")
        m["align.mapped_frac"] = (len(mapped) / len(aligned), "ratio")
        m["align.proper_pair_frac"] = (
            sum(1 for rec in aligned if rec.flag & PROPER_PAIR) / len(aligned),
            "ratio",
        )

        with spans.span("core.partition_count", "core", records=len(mapped)):
            loads: dict[int, int] = {}
            for rec in mapped:
                pid = partition_info.partition_id(rec.rname, rec.pos)
                loads[pid] = loads.get(pid, 0) + 1
        m["core.partitions"] = (len(loads), "count")
        m["core.partition_skew"] = (max(loads.values()) * len(loads) / len(mapped), "ratio")

        for name in ("gpf", "compact"):
            serializer = get_serializer(name)
            blob = r.roundtrip(f"engine.ser_{name}_", aligned, serializer.dumps, serializer.loads)
            m[f"engine.ser_{name}_bytes"] = (len(blob), "bytes")
        blob = r.roundtrip("compression.sam_", aligned, SamCodec.encode, SamCodec.decode)
        m["compression.sam_ratio"] = (ratio(aligned, blob), "ratio")

        with r.step("cleaner.markdup", len(aligned)):
            _, dup_stats = mark_duplicates(aligned)
        m["cleaner.dup_frac"] = (dup_stats.duplicate_fraction, "ratio")
        with r.step("cleaner.sort", len(mapped)):
            records: list[SamRecord] = coordinate_sort(
                mapped, SamHeader.unsorted(reference.contig_lengths())
            )
        with r.step("cleaner.realign", len(records)):
            realigned = realign_reads(records, reference, find_realignment_intervals(records))
        m["cleaner.realigned_reads"] = (realigned, "count")
        with r.step("cleaner.bqsr_build", len(records)):
            table = build_recalibration_table(records, reference, inputs.known_sites)
        with r.step("cleaner.bqsr_apply", len(records)):
            apply_recalibration(records, table)

        with r.step("caller.call", len(records)):
            calls = HaplotypeCaller(reference).call(records)
        m["caller.variants"] = (len(calls), "count")
        with r.step("formats.vcf_write", len(calls)):
            write_vcf(
                VcfHeader(tuple(reference.contig_lengths())),
                sort_records(calls, reference.contig_names),
                os.path.join(workdir, "replay.vcf"),
            )
    m["obs.replay_unattributed_frac"] = (spans.self_seconds(root) / root.seconds, "ratio")
    return m
