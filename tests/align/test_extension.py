"""Chain extension as the aligner drives it: NM, mate rescue, work tally.

The batched kernel is checked against the scalar oracle in
``test_sw_batch.py``; here the aligner's own use of it is: the edit
distance it reports, the rescue path that now goes through the batched
kernel, and the deterministic count of Smith-Waterman work on a fixed
simulated input.
"""

import numpy as np
import pytest

import repro.align.bwamem as bwamem
import repro.align.pairing as pairing
from repro.align.bwamem import BwaMemAligner
from repro.align.fmindex import reverse_complement
from repro.align.pairing import PairedEndAligner
from repro.align.smith_waterman import AlignmentResult, smith_waterman
from repro.formats.fastq import FastqPair, FastqRecord
from repro.sim import ReadSimConfig, ReadSimulator, generate_reference, plant_variants


def _scalar_batch(pairs, scoring=None, band=None, work=None):
    return [smith_waterman(q, r, scoring, band) for q, r in pairs]


@pytest.fixture(scope="module")
def ref():
    return generate_reference([8_000], seed=21)


@pytest.fixture(scope="module")
def sim_pairs():
    reference = generate_reference([3_000, 1_500], seed=5)
    truth = plant_variants(reference, snp_rate=0.004, indel_rate=0.001, seed=6)
    pairs = ReadSimulator(truth.donor, ReadSimConfig(coverage=4.0, seed=7)).simulate()
    return reference, pairs[:60]


def _brute_nm(rec, reference) -> int:
    """NM of a SAM record, one base at a time against the reference."""
    contig = reference[rec.rname]
    qi, ri, nm = 0, rec.pos, 0
    for op in rec.cigar.ops:
        if op.op == "S":
            qi += op.length
        elif op.op == "M":
            for k in range(op.length):
                nm += rec.seq[qi + k] != contig.fetch(ri + k, ri + k + 1)
            qi += op.length
            ri += op.length
        elif op.op == "I":
            nm += op.length
            qi += op.length
        elif op.op == "D":
            nm += op.length
            ri += op.length
    return nm


class TestEditDistance:
    def test_runs_counted_against_reference(self):
        query = "ACGTACGTAA" + "CCC" + "GGTTA"
        window = "TT" + "ACGAACGTAT" + "GA" + "GGTTT"
        result = AlignmentResult(
            0, 0, len(query), 2, len(window), ((10, "M"), (3, "I"), (2, "D"), (5, "M"))
        )
        # 2 + 1 mismatches in the M runs, 3 inserted and 2 deleted bases.
        assert BwaMemAligner._edit_distance(query, window, result) == 8
        exact = AlignmentResult(0, 0, 10, 2, 12, ((10, "M"),))
        assert BwaMemAligner._edit_distance("ACGAACGTAT", window, exact) == 0

    def test_nm_matches_brute_force_on_edited_reads(self, ref):
        aligner = BwaMemAligner(ref)
        contig = ref.contigs[0]
        rng = np.random.default_rng(23)
        edits = 0
        for k in range(24):
            start = 200 + 300 * k
            seq = list(contig.fetch(start, start + 110))
            n_sub = int(rng.integers(0, 4))
            for pos in rng.choice(np.arange(5, 100), size=n_sub, replace=False):
                seq[pos] = "A" if seq[pos] != "A" else "G"
            if k % 3 == 1:
                del seq[40 : 40 + int(rng.integers(1, 4))]  # deletion
            elif k % 3 == 2:
                seq[60:60] = list("TTG"[: int(rng.integers(1, 4))])  # insertion
            read = FastqRecord(f"r{k}", "".join(seq[:100]), "I" * 100)
            rec = aligner.align_read(read)
            assert not rec.is_unmapped
            assert rec.tags["NM"] == _brute_nm(rec, ref)
            edits += rec.tags["NM"]
        assert edits > 24  # the reads really carried edits


class TestMateRescue:
    def _degraded_pair(self, ref):
        contig = ref.contigs[0]
        frag_start = 4200
        r1 = FastqRecord("q/1", contig.fetch(frag_start, frag_start + 100), "I" * 100)
        mate = list(reverse_complement(contig.fetch(frag_start + 200, frag_start + 300)))
        rng = np.random.default_rng(8)
        for i in range(0, 100, 11):
            mate[i] = "ACGT"[rng.integers(0, 4)]
        return FastqPair(r1, FastqRecord("q/2", "".join(mate), "I" * 100))

    def test_rescued_candidate_equals_scalar_kernel(self, ref, monkeypatch):
        pair = self._degraded_pair(ref)
        pe = PairedEndAligner(ref)
        (mate,) = pe.single.candidates(pair.read1.sequence)[:1]
        batched = pe._rescue(pair.read2, mate)
        assert batched is not None
        assert pe.single.sw_work.snapshot()["dp_lanes"] >= 1
        monkeypatch.setattr(pairing, "smith_waterman_batch", _scalar_batch)
        assert pe._rescue(pair.read2, mate) == batched

    def test_exact_mate_rescued_without_dp(self, ref):
        contig = ref.contigs[0]
        pe = PairedEndAligner(ref)
        (mate,) = pe.single.candidates(contig.fetch(4200, 4300))[:1]
        read = FastqRecord(
            "e/2", reverse_complement(contig.fetch(4400, 4500)), "I" * 100
        )
        before = pe.single.sw_work.snapshot()
        cand = pe._rescue(read, mate)
        after = pe.single.sw_work.snapshot()
        assert cand is not None and cand.pos == 4400 and cand.edit_distance == 0
        assert after["exact_lanes"] == before["exact_lanes"] + 1
        assert after["dp_lanes"] == before["dp_lanes"]


class TestAlignerWork:
    def test_batched_aligner_output_equals_scalar_kernel(self, sim_pairs, monkeypatch):
        reference, pairs = sim_pairs
        batched = PairedEndAligner(reference).align_pairs(pairs)
        monkeypatch.setattr(bwamem, "smith_waterman_batch", _scalar_batch)
        monkeypatch.setattr(pairing, "smith_waterman_batch", _scalar_batch)
        scalar = PairedEndAligner(reference).align_pairs(pairs)
        as_lines = lambda recs: [r.to_line() for mates in recs for r in mates]
        assert as_lines(batched) == as_lines(scalar)

    def test_sw_work_counts_are_pinned(self, sim_pairs):
        reference, pairs = sim_pairs
        aligner = PairedEndAligner(reference)
        aligner.align_pairs(pairs[:30])
        aligner.align_pairs(pairs[30:])
        assert aligner.single.sw_work.snapshot() == PINNED_WORK


#: SW work of ``sim_pairs`` in two batches: lanes the exact path resolved,
#: DP lanes and stored cells per DP matrix.
PINNED_WORK = {"exact_lanes": 42, "dp_lanes": 78, "dp_cells": 645_996}
