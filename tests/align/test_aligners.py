"""Seed extraction, BWA-MEM driver, paired-end pairing, and SNAP."""

import numpy as np
import pytest

from repro.align.bwamem import BwaMemAligner
from repro.align.fmindex import FMIndex, reverse_complement
from repro.align.pairing import PairedEndAligner
from repro.align.seeds import chain_seeds
from repro.align.snap import SnapAligner, SnapConfig
from repro.formats import flags as F
from repro.formats.fastq import FastqPair, FastqRecord
from repro.sim import generate_reference
from tests.align.reference_seeds import find_seeds


@pytest.fixture(scope="module")
def ref():
    return generate_reference([8_000], seed=21)


@pytest.fixture(scope="module")
def index(ref):
    return FMIndex(ref)


def read_at(ref, start, length=100, contig=0, rc=False, name="r"):
    seq = ref.contigs[contig].fetch(start, start + length)
    if rc:
        seq = reverse_complement(seq)
    return FastqRecord(name, seq, "I" * length)


class TestSeeds:
    def test_exact_read_produces_covering_seed(self, ref, index):
        read = read_at(ref, 1000)
        seeds = find_seeds(index, read.sequence)
        assert seeds
        best = max(seeds, key=lambda s: s.length)
        assert best.length >= 50
        assert any(
            s.ref_start - s.query_start == 1000 and not s.is_reverse for s in seeds
        )

    def test_short_read_yields_nothing(self, index):
        assert find_seeds(index, "ACGT") == []

    def test_mismatches_break_but_do_not_kill_seeding(self, ref, index):
        seq = list(read_at(ref, 2000).sequence)
        seq[50] = "A" if seq[50] != "A" else "C"
        seeds = find_seeds(index, "".join(seq))
        assert seeds  # both halves still produce seeds

    def test_chains_group_by_diagonal(self, ref, index):
        read = read_at(ref, 3000)
        chains = chain_seeds(find_seeds(index, read.sequence))
        assert chains
        top = chains[0]
        diags = {s.diagonal() for s in top}
        assert max(diags) - min(diags) <= 16


class TestBwaMem:
    def test_perfect_forward_read(self, ref):
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(read_at(ref, 1500))
        assert not rec.is_unmapped
        assert rec.rname == "chr1"
        assert rec.pos == 1500
        assert str(rec.cigar) == "100M"
        assert rec.tags["NM"] == 0
        assert rec.mapq > 0

    def test_reverse_strand_read(self, ref):
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(read_at(ref, 2500, rc=True))
        assert not rec.is_unmapped
        assert rec.is_reverse
        assert rec.pos == 2500
        # SEQ is stored as the forward-strand sequence.
        assert rec.seq == ref.contigs[0].fetch(2500, 2600)

    def test_reverse_strand_seq_keeps_soft_mask_and_iupac(self, ref):
        forward = ref.contigs[0].fetch(2500, 2600)
        rc = reverse_complement(forward)
        # Soft-mask the read end that covers forward[:10]; a Y at read
        # offset 49 is an R at forward offset 50.
        read_seq = rc[:49] + "Y" + rc[50:90] + rc[90:].lower()
        rec = BwaMemAligner(ref).align_read(FastqRecord("rm", read_seq, "I" * 100))
        assert rec.is_reverse
        assert rec.seq == forward[:10].lower() + forward[10:50] + "R" + forward[51:]

    def test_read_with_mismatches(self, ref):
        raw = read_at(ref, 4000)
        seq = list(raw.sequence)
        for i in (20, 70):
            seq[i] = "A" if seq[i] != "A" else "G"
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(FastqRecord("m", "".join(seq), raw.quality))
        assert rec.pos == 4000
        assert rec.tags["NM"] == 2

    def test_read_with_deletion_gets_d_cigar(self, ref):
        contig = ref.contigs[0]
        seq = contig.fetch(5000, 5048) + contig.fetch(5053, 5105)
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(FastqRecord("d", seq, "I" * len(seq)))
        assert rec.pos == 5000
        assert "5D" in str(rec.cigar)

    def test_read_with_insertion_gets_i_cigar(self, ref):
        contig = ref.contigs[0]
        seq = contig.fetch(6000, 6050) + "TTTT" + contig.fetch(6050, 6096)
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(FastqRecord("i", seq, "I" * len(seq)))
        assert rec.pos == 6000
        assert "4I" in str(rec.cigar)

    def test_garbage_read_unmapped(self, ref):
        aligner = BwaMemAligner(ref)
        rng = np.random.default_rng(5)
        # Random 100-mer: essentially certainly absent from an 8kb genome.
        seq = "".join(rng.choice(list("ACGT"), size=100))
        rec = aligner.align_read(FastqRecord("g", seq, "I" * 100))
        # Either unmapped or very low quality spurious hit.
        assert rec.is_unmapped or rec.tags["NM"] > 10 or rec.mapq == 0

    def test_unique_read_has_high_mapq(self, ref):
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(read_at(ref, 700))
        assert rec.mapq >= 30

    @pytest.mark.parametrize("length", [0, -1])
    def test_config_rejects_non_positive_min_seed_length(self, length):
        from repro.align.bwamem import AlignerConfig

        with pytest.raises(ValueError, match="min_seed_length"):
            AlignerConfig(min_seed_length=length)


class TestPairedEnd:
    def test_proper_pair_flags_and_tlen(self, ref):
        contig = ref.contigs[0]
        frag_start, insert = 3000, 400
        r1 = read_at(ref, frag_start, name="p/1")
        r2_seq = reverse_complement(
            contig.fetch(frag_start + insert - 100, frag_start + insert)
        )
        pair = FastqPair(r1, FastqRecord("p/2", r2_seq, "I" * 100))
        pe = PairedEndAligner(ref)
        s1, s2 = pe.align_pair(pair)
        assert s1.flag & F.PROPER_PAIR and s2.flag & F.PROPER_PAIR
        assert s1.flag & F.FIRST_IN_PAIR and s2.flag & F.SECOND_IN_PAIR
        assert s1.tlen == insert and s2.tlen == -insert
        assert s1.rnext == "=" and s1.pnext == s2.pos

    def test_mate_rescue_places_degraded_mate(self, ref):
        contig = ref.contigs[0]
        frag_start = 4200
        r1 = read_at(ref, frag_start, name="q/1")
        # Mate so corrupted no seed survives, but SW can still place it.
        mate_seq = list(
            reverse_complement(contig.fetch(frag_start + 200, frag_start + 300))
        )
        rng = np.random.default_rng(8)
        for i in range(0, 100, 11):
            mate_seq[i] = "ACGT"[rng.integers(0, 4)]
        pair = FastqPair(r1, FastqRecord("q/2", "".join(mate_seq), "I" * 100))
        pe = PairedEndAligner(ref)
        s1, s2 = pe.align_pair(pair)
        assert not s1.is_unmapped
        # Rescue should have placed the mate near its partner.
        if not s2.is_unmapped:
            assert abs(s2.pos - s1.pos) < 1000

    def test_both_garbage_unmapped_pair(self, ref):
        rng = np.random.default_rng(9)
        mk = lambda n: FastqRecord(n, "".join(rng.choice(list("ACGT"), 100)), "I" * 100)
        pe = PairedEndAligner(ref)
        s1, s2 = pe.align_pair(FastqPair(mk("x/1"), mk("x/2")))
        for rec in (s1, s2):
            assert rec.is_paired
            if rec.is_unmapped:
                assert rec.rname == "*"


class TestSnap:
    def test_exact_read_found(self, ref):
        snap = SnapAligner(ref)
        rec = snap.align_read(read_at(ref, 1000))
        assert not rec.is_unmapped
        assert rec.pos == 1000
        assert rec.tags["NM"] == 0

    def test_reverse_read_found(self, ref):
        snap = SnapAligner(ref)
        rec = snap.align_read(read_at(ref, 2000, rc=True))
        assert rec.is_reverse
        assert rec.pos == 2000

    def test_mismatch_cap_respected(self, ref):
        snap = SnapAligner(ref, SnapConfig(max_mismatches=2))
        raw = read_at(ref, 3000)
        seq = list(raw.sequence)
        for i in range(0, 30, 5):  # 6 mismatches > cap
            seq[i] = "A" if seq[i] != "A" else "G"
        rec = snap.align_read(FastqRecord("mm", "".join(seq), raw.quality))
        assert rec.is_unmapped

    def test_snap_is_faster_than_bwamem(self, ref):
        import time

        reads = [read_at(ref, 500 + i * 37, name=f"s{i}") for i in range(30)]
        snap = SnapAligner(ref)
        bwa = BwaMemAligner(ref)
        t0 = time.perf_counter()
        for r in reads:
            snap.align_read(r)
        snap_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        for r in reads:
            bwa.align_read(r)
        bwa_t = time.perf_counter() - t0
        assert snap_t < bwa_t  # the SNAP/BWA trade-off of Fig. 11d


class TestAlternativeHits:
    @pytest.fixture(scope="class")
    def repeat_ref(self):
        """A genome with an exact 300 bp repeat at two loci."""
        rng = np.random.default_rng(55)
        body = "".join(rng.choice(list("ACGT"), size=2_000))
        repeat = "".join(rng.choice(list("ACGT"), size=300))
        seq = body[:500] + repeat + body[500:1_500] + repeat + body[1_500:]
        from repro.formats.fasta import Contig, Reference

        return Reference([Contig("chr1", seq.encode())])

    def test_repeat_read_gets_xa_tag(self, repeat_ref):
        aligner = BwaMemAligner(repeat_ref)
        seq = repeat_ref.contigs[0].fetch(600, 700)  # inside the repeat
        rec = aligner.align_read(FastqRecord("rep", seq, "I" * 100))
        assert not rec.is_unmapped
        assert "XA" in rec.tags
        # The XA entry points at the other repeat copy.
        entry = rec.tags["XA"].split(";")[0]
        contig, pos, cigar, nm = entry.split(",")
        assert contig == "chr1"
        assert cigar == "100M"
        positions = {rec.pos, int(pos.lstrip("+-")) - 1}
        assert len(positions) == 2  # two distinct placements

    def test_repeat_read_has_low_mapq(self, repeat_ref):
        aligner = BwaMemAligner(repeat_ref)
        seq = repeat_ref.contigs[0].fetch(600, 700)
        rec = aligner.align_read(FastqRecord("rep", seq, "I" * 100))
        assert rec.mapq == 0  # equal best scores => ambiguous

    def test_unique_read_has_no_xa(self, ref):
        aligner = BwaMemAligner(ref)
        rec = aligner.align_read(read_at(ref, 900))
        assert "XA" not in rec.tags

    def test_xa_disabled_by_config(self, repeat_ref):
        from repro.align.bwamem import AlignerConfig

        aligner = BwaMemAligner(repeat_ref, AlignerConfig(max_alternative_hits=0))
        seq = repeat_ref.contigs[0].fetch(600, 700)
        rec = aligner.align_read(FastqRecord("rep", seq, "I" * 100))
        assert "XA" not in rec.tags

class TestAlignPairsBatch:
    """align_pairs must be record-for-record identical to align_pair."""

    def _pairs(self, ref, n=6):
        contig = ref.contigs[0]
        pairs = []
        for i in range(n):
            start = 500 + i * 900
            r1 = read_at(ref, start, name=f"b{i}/1")
            r2_seq = reverse_complement(contig.fetch(start + 300, start + 400))
            pairs.append(
                FastqPair(r1, FastqRecord(f"b{i}/2", r2_seq, "I" * 100))
            )
        return pairs

    def test_batch_matches_scalar(self, ref):
        pairs = self._pairs(ref)
        pe = PairedEndAligner(ref)
        batched = pe.align_pairs(pairs)
        scalar = [pe.align_pair(p) for p in pairs]
        assert batched == scalar

    def test_empty_batch(self, ref):
        assert PairedEndAligner(ref).align_pairs([]) == []

    def test_iterator_input(self, ref):
        pairs = self._pairs(ref, 3)
        pe = PairedEndAligner(ref)
        assert pe.align_pairs(iter(pairs)) == [pe.align_pair(p) for p in pairs]
