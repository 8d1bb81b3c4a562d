"""The caller's array kernels against the loop forms they replaced.

Hypothesis generates regions — a reference window, haplotypes carrying
SNVs and indels, and reads drawn from them with qualities and CIGARs —
and requires of every kernel what ``tests/caller/reference_caller.py``
gives: the same haplotypes in the same order, equal activity profiles,
equal variant lists, and likelihood matrices within 1e-12 relative.
``PINNED_CALLER_WORK`` then pins the work one fixed region batch costs,
so a change shows it did the same work, not only that it reached the
same VCF.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caller.active_region import build_activity_profiles
from repro.caller.debruijn import DeBruijnAssembler
from repro.caller.genotyper import haplotype_variants
from repro.caller.haplotype_caller import HaplotypeCaller
from repro.caller.pairhmm import PairHMM
from repro.formats.cigar import Cigar
from repro.formats.fasta import Contig, Reference
from repro.formats.sam import SamRecord
from tests.caller import reference_caller as ref

RTOL = 1e-12
NETS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def sam(name: str, pos: int, cigar: str, seq: str, qual: str, contig: str = "chr1") -> SamRecord:
    return SamRecord(
        qname=name, flag=0, rname=contig, pos=pos, mapq=60, cigar=Cigar.parse(cigar),
        rnext="*", pnext=-1, tlen=0, seq=seq, qual=qual,
    )


def mutate(rng: np.random.Generator, window: str, edits: int) -> str:
    """``window`` with ``edits`` SNVs, insertions and deletions."""
    seq = list(window)
    for _ in range(edits):
        pos = int(rng.integers(5, len(seq) - 10))
        kind = int(rng.integers(3))
        if kind == 0:
            seq[pos] = "ACGT"[("ACGT".index(seq[pos]) + 1 + int(rng.integers(3))) % 4]
        elif kind == 1:
            seq[pos:pos] = rng.choice(list("ACGT"), size=int(rng.integers(1, 4))).tolist()
        else:
            del seq[pos : pos + int(rng.integers(1, 4))]
    return "".join(seq)


def random_cigar(rng: np.random.Generator, length: int) -> str:
    """A CIGAR over M, =, X, I, D, S and N whose query length is ``length``."""
    ops = []
    left = length
    if rng.random() < 0.3:
        clip = int(rng.integers(1, 6))
        ops.append(f"{clip}S")
        left -= clip
    while left > 0:
        run = min(left, int(rng.integers(1, 30)))
        ops.append(f"{run}{'MMM=X'[int(rng.integers(5))]}")
        left -= run
        if left > 3 and rng.random() < 0.3:
            gap = int(rng.integers(1, 4))
            kind = "IDN"[int(rng.integers(3))]
            ops.append(f"{gap}{kind}")
            left -= gap if kind == "I" else 0
    return "".join(ops)


@st.composite
def regions(draw):
    """(reference, window start, window, haplotypes, reads)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(60, 140))
    start = 100
    reference_seq = "".join(rng.choice(list("ACGT"), size=start + size + 40))
    window = reference_seq[start : start + size]
    haplotypes = [window] + [
        mutate(rng, window, draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 3)))
    ]
    reads = []
    for i in range(draw(st.integers(2, 24))):
        hap = haplotypes[int(rng.integers(len(haplotypes)))]
        length = int(rng.integers(20, min(60, len(hap)) + 1))
        offset = int(rng.integers(0, len(hap) - length + 1))
        seq = list(hap[offset : offset + length])
        if rng.random() < 0.2:
            seq[int(rng.integers(length))] = "N"
        qual = "".join(chr(33 + int(q)) for q in rng.integers(2, 41, size=length))
        # Placed near the window, some running past the contig's end.
        pos = int(rng.integers(start - 20, len(reference_seq) - 5))
        reads.append(sam(f"r{i}", pos, random_cigar(rng, length), "".join(seq), qual))
    reference = Reference([Contig("chr1", reference_seq.encode())])
    return reference, start, window, haplotypes, reads


@NETS
@given(regions(), st.sampled_from([(15, 25, 35), (7, 11), (5,), (33, 35)]))
def test_assembly_emits_the_dict_graph_haplotypes_in_order(region, kmer_sizes):
    _, _, window, _, reads = region
    assembler = DeBruijnAssembler(kmer_sizes=kmer_sizes)
    assert assembler.assemble(window, reads) == ref.assemble(assembler, window, reads)


@NETS
@given(regions())
def test_activity_profile_equals_the_cigar_walk(region):
    reference, _, _, _, reads = region
    got = build_activity_profiles(reads, reference)
    want = ref.build_activity_profiles(reads, reference)
    assert sorted(got) == sorted(want)
    for contig, (first, mismatch_quality, indel_events) in got.items():
        # The window's arrays equal the contig-long ones over the window,
        # and the contig-long ones are zero outside it.
        window = slice(first, first + len(mismatch_quality))
        for name, array in (("mismatch_quality", mismatch_quality), ("indel_events", indel_events)):
            whole = getattr(want[contig], name).copy()
            np.testing.assert_array_equal(array, whole[window])
            whole[window] = 0
            assert not whole.any()


@NETS
@given(regions())
def test_variants_equal_the_full_table_traceback(region):
    _, start, window, haplotypes, _ = region
    for hap in haplotypes:
        assert haplotype_variants(hap, window, "chr1", start) == ref.haplotype_variants(
            hap, window, "chr1", start
        )


@NETS
@given(regions())
def test_matrices_match_the_row_major_kernel_and_the_scalar_oracle(region):
    _, _, _, haplotypes, reads = region
    hmm = PairHMM()
    pairs = [(r.seq, r.phred_scores) for r in reads]
    matrix = hmm.likelihood_matrix(pairs, haplotypes)
    items = [(seq, quals, hap) for seq, quals in pairs for hap in haplotypes]
    row_major = ref.row_major_log_likelihoods(hmm, items).reshape(matrix.shape)
    np.testing.assert_allclose(matrix, row_major, rtol=RTOL, atol=0)
    if pairs:
        np.testing.assert_allclose(
            matrix[:2], ref.likelihood_matrix_scalar(hmm, pairs[:2], haplotypes), rtol=RTOL, atol=0
        )


def fixed_region_batch() -> tuple[Reference, list[SamRecord]]:
    """Two SNVs and a 3-base deletion, heterozygous, 8x, seeded qualities."""
    rng = np.random.default_rng(2024)
    seq = "".join(rng.choice(list("ACGT"), size=1400))
    reference = Reference([Contig("chr1", seq.encode())])
    alt = list(seq)
    for pos in (300, 700):
        alt[pos] = "ACGT"[("ACGT".index(seq[pos]) + 1) % 4]
    del alt[1100:1103]
    alt = "".join(alt)
    reads = []
    for i, start in enumerate(range(200, 1250, 12)):
        carrier = i % 2 == 1
        qual = "".join(chr(33 + int(q)) for q in rng.integers(20, 41, size=90))
        if not carrier:
            reads.append(sam(f"r{i}", start, "90M", seq[start : start + 90], qual))
        elif start + 90 <= 1100 or start >= 1100:
            shift = 3 if start >= 1100 else 0
            reads.append(sam(f"a{i}", start + shift, "90M", alt[start : start + 90], qual))
        elif 1100 - start >= 10 and start + 90 - 1100 >= 10:
            left = 1100 - start
            reads.append(sam(f"a{i}", start, f"{left}M3D{90 - left}M", alt[start : start + 90], qual))
    return reference, reads


#: The work :func:`fixed_region_batch` costs: forward pair x read-row x
#: haplotype-column cells, distinct k-mers counted per k, haplotypes
#: emitted per region.
PINNED_CALLER_WORK = {"forward_cells": 324_360, "kmers": {15: 646}, "haplotypes": [2, 2, 2]}


def test_pinned_caller_work(monkeypatch):
    work = {"forward_cells": 0, "kmers": {}, "haplotypes": []}
    forward = PairHMM._forward
    graph = DeBruijnAssembler._kmer_graph
    assemble = DeBruijnAssembler.assemble

    def count_cells(self, read, error, hap, m_len, n_len):
        work["forward_cells"] += read.shape[1] * read.shape[0] * hap.shape[0]
        return forward(self, read, error, hap, m_len, n_len)

    def count_kmers(self, text, seg_end, ref_start, k):
        raw = text.tobytes().decode("ascii")
        kmers = {
            raw[t : t + k]
            for t in range(len(raw) - k + 1)
            if t + k <= seg_end[t] and (t >= ref_start or "N" not in raw[t : t + k])
        }
        work["kmers"][k] = work["kmers"].get(k, 0) + len(kmers)
        return graph(self, text, seg_end, ref_start, k)

    def count_haplotypes(self, ref_window, reads):
        haplotypes = assemble(self, ref_window, reads)
        work["haplotypes"].append(len(haplotypes))
        return haplotypes

    monkeypatch.setattr(PairHMM, "_forward", count_cells)
    monkeypatch.setattr(DeBruijnAssembler, "_kmer_graph", count_kmers)
    monkeypatch.setattr(DeBruijnAssembler, "assemble", count_haplotypes)
    reference, reads = fixed_region_batch()
    calls = HaplotypeCaller(reference).call(reads)
    deletion = (1099, reference.fetch("chr1", 1099, 1103), reference.fetch("chr1", 1099, 1100))
    assert deletion in {(c.pos, c.ref, c.alt) for c in calls}
    assert work == PINNED_CALLER_WORK
