"""End-to-end HaplotypeCaller tests on simulated scenes."""

import numpy as np
import pytest

from repro.caller.haplotype_caller import CallerConfig, HaplotypeCaller
from repro.caller.pairhmm import PairHMM
from repro.formats.cigar import Cigar
from repro.formats.fasta import Contig, Reference
from repro.formats.sam import SamRecord


def rec(qname, pos, cigar, seq, rname="chr1", qual=None):
    return SamRecord(
        qname=qname, flag=0, rname=rname, pos=pos, mapq=60,
        cigar=Cigar.parse(cigar), rnext="*", pnext=-1, tlen=0,
        seq=seq, qual=qual or ("I" * len(seq)),
    )


def make_scene(seed=41, size=600):
    rng = np.random.default_rng(seed)
    seq = "".join(rng.choice(list("ACGT"), size=size))
    return Reference([Contig("chr1", seq.encode())]), seq


def reads_from_donor(donor, centre, n=14, length=90, prefix="r"):
    reads = []
    for i in range(n):
        start = max(0, centre - length + 12 + 6 * i)
        if start + length > len(donor):
            break
        reads.append(rec(f"{prefix}{i}", start, f"{length}M", donor[start : start + length]))
    return reads


class TestSnvCalling:
    def test_homozygous_snv_called(self):
        reference, seq = make_scene()
        pos = 300
        alt = "A" if seq[pos] != "A" else "G"
        donor = seq[:pos] + alt + seq[pos + 1 :]
        caller = HaplotypeCaller(reference)
        calls = caller.call(reads_from_donor(donor, pos))
        assert any(
            c.pos == pos and c.ref == seq[pos] and c.alt == alt for c in calls
        )
        call = next(c for c in calls if c.pos == pos)
        assert call.genotype == "1/1"
        assert call.qual >= 20

    def test_heterozygous_snv_genotype(self):
        reference, seq = make_scene(seed=43)
        pos = 300
        alt = "C" if seq[pos] != "C" else "T"
        donor = seq[:pos] + alt + seq[pos + 1 :]
        ref_reads = reads_from_donor(seq, pos, prefix="ref")
        alt_reads = reads_from_donor(donor, pos, prefix="alt")
        caller = HaplotypeCaller(reference)
        calls = caller.call(ref_reads + alt_reads)
        matching = [c for c in calls if c.pos == pos]
        assert matching
        assert matching[0].genotype == "0/1"

    def test_clean_reads_produce_no_calls(self):
        reference, seq = make_scene(seed=44)
        caller = HaplotypeCaller(reference)
        assert caller.call(reads_from_donor(seq, 300)) == []

    def test_lone_sequencing_error_not_called(self):
        reference, seq = make_scene(seed=45)
        reads = reads_from_donor(seq, 300)
        # One read carries one low-quality error.
        bad = list(reads[0].seq)
        bad[40] = "A" if bad[40] != "A" else "C"
        quals = list(reads[0].qual)
        quals[40] = "#"
        reads[0].seq = "".join(bad)
        reads[0].qual = "".join(quals)
        caller = HaplotypeCaller(reference)
        assert caller.call(reads) == []


class TestIndelCalling:
    def test_deletion_called(self):
        reference, seq = make_scene(seed=46)
        pos = 300
        donor = seq[: pos + 1] + seq[pos + 4 :]  # 3-base deletion after anchor
        caller = HaplotypeCaller(reference)
        calls = caller.call(reads_from_donor(donor, pos))
        deletions = [c for c in calls if c.is_deletion]
        assert deletions
        assert any(abs(c.pos - pos) <= 3 for c in deletions)

    def test_insertion_called(self):
        reference, seq = make_scene(seed=47)
        pos = 300
        donor = seq[: pos + 1] + "TTT" + seq[pos + 1 :]
        caller = HaplotypeCaller(reference)
        calls = caller.call(reads_from_donor(donor, pos))
        insertions = [c for c in calls if c.is_insertion]
        assert insertions
        assert any(abs(c.pos - pos) <= 3 for c in insertions)


class TestGvcf:
    def test_gvcf_emits_reference_blocks(self):
        reference, seq = make_scene(seed=48)
        pos = 300
        alt = "A" if seq[pos] != "A" else "G"
        donor = seq[:pos] + alt + seq[pos + 1 :]
        caller = HaplotypeCaller(reference, CallerConfig(gvcf=True))
        calls = caller.call(reads_from_donor(donor, pos))
        blocks = [c for c in calls if c.alt == "<NON_REF>"]
        variants = [c for c in calls if c.alt != "<NON_REF>"]
        assert blocks and variants
        # Blocks must not cover the variant position.
        for block in blocks:
            end = block.info.get("END", block.pos + 1)
            assert not (block.pos <= pos < end)

    def test_gvcf_off_by_default(self):
        reference, seq = make_scene(seed=48)
        caller = HaplotypeCaller(reference)
        calls = caller.call(reads_from_donor(seq, 300))
        assert all(c.alt != "<NON_REF>" for c in calls)


class TestDuplicateHandling:
    def test_duplicate_reads_excluded_from_evidence(self):
        reference, seq = make_scene(seed=49)
        pos = 300
        alt = "A" if seq[pos] != "A" else "G"
        donor = seq[:pos] + alt + seq[pos + 1 :]
        reads = reads_from_donor(donor, pos)
        for r in reads:
            r.set_duplicate(True)
        caller = HaplotypeCaller(reference)
        assert caller.call(reads) == []


def twin_contig_scene():
    """Two SNVs 250 bases apart, and chr2 an exact copy of chr1 carrying
    copies of the same reads: four active regions, and every (read,
    haplotype) triple of chr2 repeats one of chr1."""
    rng = np.random.default_rng(50)
    seq = "".join(rng.choice(list("ACGT"), size=900))
    reference = Reference([Contig("chr1", seq.encode()), Contig("chr2", seq.encode())])
    donor = list(seq)
    for pos in (300, 550):
        donor[pos] = "A" if seq[pos] != "A" else "G"
    donor = "".join(donor)
    reads = reads_from_donor(donor, 300, prefix="a") + reads_from_donor(donor, 550, prefix="b")
    twins = [rec(f"{r.qname}x", r.pos, str(r.cigar), r.seq, rname="chr2") for r in reads]
    return reference, reads + twins


class TestCallShape:
    def test_one_pairhmm_batch_per_call(self, monkeypatch):
        reference, reads = twin_contig_scene()
        batches = []
        original = PairHMM._forward

        def spy(self, read, error, hap, m_len, n_len):
            batches.append(read.shape[1])
            return original(self, read, error, hap, m_len, n_len)

        monkeypatch.setattr(PairHMM, "_forward", spy)
        caller = HaplotypeCaller(reference)
        calls = caller.call(reads)
        assert [(c.contig, c.pos) for c in calls] == [
            ("chr1", 300), ("chr1", 550), ("chr2", 300), ("chr2", 550)
        ]
        # chr2's (read, haplotype) pairs equal chr1's and are deduped inside
        # the call: one forward over chr1's 56 distinct pairs.
        assert batches == [56]
        # Nothing is kept between calls: the second computes them again.
        assert caller.call(reads) == calls
        assert batches == [56, 56]


class TestMissingQual:
    def snv_reads(self):
        reference, seq = make_scene(seed=51)
        pos = 300
        donor = seq[:pos] + ("A" if seq[pos] != "A" else "G") + seq[pos + 1 :]
        return reference, reads_from_donor(donor, pos)

    def test_reads_without_qual_are_skipped(self):
        reference, reads = self.snv_reads()
        expected = HaplotypeCaller(reference).call(reads[::2])
        assert expected
        for r in reads[1::2]:
            r.qual = ""  # QUAL "*"
        assert HaplotypeCaller(reference).call(reads) == expected

    def test_qual_seq_length_mismatch_names_the_read(self):
        reference, reads = self.snv_reads()
        reads[3].qual = reads[3].qual[:-1]
        with pytest.raises(ValueError, match="'r3': QUAL has 89 bases, SEQ has 90"):
            HaplotypeCaller(reference).call(reads)
