"""Batched FM-index seeding must reproduce the scalar path exactly.

Differential tests over seeded stdlib-``random`` inputs: repeat-rich and
random references, read batches mixing lengths (0, below, at and well
above ``min_seed_length``) with ``N``, lowercase and IUPAC bases, and
several anchor strides / seed lengths.  ``reference_seeds.find_seeds``
and ``reference_seeds.extend_lane`` are the references.
"""

import pickle
import random

import numpy as np
import pytest

from repro.align.fmindex import FMIndex, reverse_complement
from repro.align.pairing import PairedEndAligner
from repro.align.seeds import extend_anchors_batch, find_seeds_batch
from repro.formats.fasta import Contig, Reference
from repro.sim import ReadSimConfig, ReadSimulator, generate_reference
from tests.align import reference_seeds as ref
from tests.align.reference_seeds import find_seeds

#: Off-alphabet bases a read can carry: soft-masked, ambiguous, unknown.
NOISE = "NacgtnRYKMBVDHSW?"

#: ``(anchor_stride, min_seed_length)``; the first is the aligner default.
SEED_PARAMS = [(8, 19), (1, 12), (5, 25), (13, 4)]


def _dna(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


def _mutate(rng, seq, rate):
    out = list(seq)
    for i in range(len(out)):
        if rng.random() < rate:
            out[i] = rng.choice("ACGT" + NOISE)
    return "".join(out)


def _random_reference():
    rng = random.Random(101)
    return Reference(
        [Contig("r1", _dna(rng, 1_500).encode()), Contig("r2", _dna(rng, 900).encode())]
    )


def _repeat_reference():
    """Tandem repeats plus exact and near-exact copies of one segment."""
    rng = random.Random(202)
    segment = _dna(rng, 180)
    near_copy = "".join(
        rng.choice("ACGT") if rng.random() < 0.03 else c for c in segment
    )
    parts = [
        _dna(rng, 300),
        _dna(rng, 3) * 60,
        segment,
        _dna(rng, 250),
        segment,
        _dna(rng, 7) * 30,
        near_copy,
        "A" * 40,
        _dna(rng, 200),
    ]
    return Reference(
        [Contig("rep", "".join(parts).encode()), Contig("cp", segment.encode() * 3)]
    )


def _simulated_reference():
    return generate_reference([2_500], n_run_rate=0.002, n_run_length=20, seed=31)


REFERENCES = {
    "random": _random_reference,
    "repeats": _repeat_reference,
    "simulated": _simulated_reference,
    # A BWT of a few characters.
    "tiny": lambda: Reference([Contig("t", b"ACGTNACG")]),
}


@pytest.fixture(scope="module", params=sorted(REFERENCES))
def reference(request):
    return REFERENCES[request.param]()


@pytest.fixture(scope="module")
def index(reference):
    return FMIndex(reference)


def _read_batch(rng, reference, min_seed_length, size=30):
    """Reads of mixed lengths and sources, with off-alphabet noise."""
    contigs = [c.sequence.decode() for c in reference.contigs]
    reads = []
    for _ in range(size):
        length = rng.choice(
            [0, rng.randint(1, max(1, min_seed_length - 1)), min_seed_length]
            + [rng.randint(100, 151)] * 3
        )
        source = rng.choice(contigs)
        if rng.random() < 0.15 or length > len(source):
            read = _dna(rng, length)
        else:
            start = rng.randint(0, len(source) - length)
            read = source[start : start + length]
            if rng.random() < 0.5:
                read = reverse_complement(read)
        read = _mutate(rng, read, rng.choice([0.0, 0.005, 0.02, 0.08]))
        if read and rng.random() < 0.1:  # a soft-masked run
            cut = rng.randint(0, len(read))
            read = read[:cut] + read[cut:].lower()
        reads.append(read)
    return reads


class TestFindSeedsBatch:
    @pytest.mark.parametrize("anchor_stride,min_seed_length", SEED_PARAMS)
    def test_random_batches_match_scalar(
        self, reference, index, anchor_stride, min_seed_length
    ):
        rng = random.Random(anchor_stride * 1_000 + min_seed_length)
        kwargs = dict(min_seed_length=min_seed_length, anchor_stride=anchor_stride)
        for _ in range(4):
            reads = _read_batch(rng, reference, min_seed_length)
            batched = find_seeds_batch(index, reads, **kwargs)
            assert len(batched) == len(reads)
            for read, got in zip(reads, batched):
                assert got == find_seeds(index, read, **kwargs), read

    def test_max_hits_is_honoured(self, reference, index):
        rng = random.Random(5)
        reads = _read_batch(rng, reference, 12)
        for limit in (1, 3):
            kwargs = dict(min_seed_length=12, max_hits_per_seed=limit, anchor_stride=4)
            assert find_seeds_batch(index, reads, **kwargs) == [
                find_seeds(index, read, **kwargs) for read in reads
            ]

    def test_later_anchor_reaching_read_start_is_kept(self):
        """Only a first match reaching base 0 lets later anchors be skipped:
        here it stops at base 1 while a later anchor's match reaches 0."""
        rng = random.Random(9)
        body = _dna(rng, 400)
        first = "A" if body[100] != "A" else "C"
        read = first + body[101:200]
        # A copy of read[:29] elsewhere, so anchors ending by 29 reach base 0.
        contig = body + "N" + read[:29] + _dna(rng, 50)
        index = FMIndex(Reference([Contig("c", contig.encode())]))
        seeds = find_seeds(index, read)
        assert (0, 28) in {(s.query_start, s.query_end) for s in seeds}
        assert min(s.query_start for s in seeds if s.query_end == 100) == 1
        assert find_seeds_batch(index, [read]) == [seeds]

    def test_edge_batches(self, index):
        edge = ["", "A", "N" * 30, "acgt" * 10, "?" * 25, "ACGTé" * 6]
        assert find_seeds_batch(index, []) == []
        assert find_seeds_batch(index, edge) == [find_seeds(index, r) for r in edge]


def _lanes(rng, index, reference, size=400):
    """Search lanes over one text of reference cuts (either strand) and
    off-alphabet noise: ``(text, codes, ends, floors)``.  A lane may read
    back to a random floor, cut to just after the nearest off-alphabet
    code before its end as ``extend_anchors_batch`` cuts it; a lane
    ending on such a code has no budget."""
    contigs = [c.sequence.decode() for c in reference.contigs]
    parts = []
    for _ in range(40):
        source = rng.choice(contigs)
        start = rng.randint(0, len(source))
        part = source[start : start + rng.randint(0, 60)]
        if rng.random() < 0.5:
            part = reverse_complement(part)
        parts += [part, _mutate(rng, _dna(rng, rng.randint(0, 4)), 0.5)]
    text = "".join(parts)
    codes = index.search_codes(text.encode("ascii"))
    ends = np.array([rng.randint(0, len(text)) for _ in range(size)])
    floors = np.array([rng.randint(0, end) for end in ends.tolist()])
    stops = np.concatenate(([0], np.flatnonzero(codes < 0) + 1))
    cuts = stops[np.searchsorted(stops, ends, side="right") - 1]
    return text, codes, ends, np.maximum(floors, cuts)


class TestExtendLeftBatch:
    """``FMIndex.extend_lanes``, the batched left extension, lane by lane."""

    def test_lanes_match_scalar_step(self, reference, index):
        text, codes, ends, floors = _lanes(random.Random(77), index, reference)
        starts, lo, hi = index.extend_lanes(codes, ends, floors)
        lanes = zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist())
        for lane, end, floor in zip(lanes, ends.tolist(), floors.tolist()):
            assert lane == ref.extend_lane(index, text, end, floor), (end, floor)


class TestSeedingWork:
    def test_skipped_anchors_cut_backward_search_steps(self, monkeypatch):
        """The lane-step count of the batched path is bounded by the scalar
        path's ``extend_left`` calls on a fixed simulated input, and the
        work row (lane-steps, located hits) is pinned exactly."""
        reference = generate_reference([6_000], seed=211)
        simulator = ReadSimulator(reference, ReadSimConfig(coverage=3.0, seed=211))
        pairs = simulator.simulate()
        reads = [r.sequence for pair in pairs for r in (pair.read1, pair.read2)]
        index = FMIndex(reference)

        scalar_steps = 0
        extend_left = ref.extend_left

        def counting_extend_left(*args):
            nonlocal scalar_steps
            scalar_steps += 1
            return extend_left(*args)

        with monkeypatch.context() as patch:
            patch.setattr(ref, "extend_left", counting_extend_left)
            expected = [find_seeds(index, read) for read in reads]

        _, batch_steps = extend_anchors_batch(index, reads)
        seeds = find_seeds_batch(index, reads)
        assert seeds == expected
        assert scalar_steps > 0
        assert batch_steps <= 0.55 * scalar_steps, (batch_steps, scalar_steps)
        work = {"lane_steps": batch_steps, "hits": sum(map(len, seeds))}
        assert work == PINNED_SEED_WORK


class TestPickledIndex:
    def test_restored_aligner_rebuilds_the_lf_table_and_extends_alike(self):
        reference = _simulated_reference()
        aligner = PairedEndAligner(reference)
        index = aligner.single.index
        assert "_lf" not in index.__getstate__()
        assert len(pickle.dumps(index)) < index._lf.nbytes
        restored = pickle.loads(pickle.dumps(aligner)).single.index
        assert np.array_equal(restored._lf, index._lf)

        _, codes, ends, floors = _lanes(random.Random(8), index, reference)
        got = restored.extend_lanes(codes, ends, floors)
        want = index.extend_lanes(codes, ends, floors)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

        reads = _read_batch(random.Random(8), reference, 19, size=60)
        got, got_steps = extend_anchors_batch(restored, reads)
        want, want_steps = extend_anchors_batch(index, reads)
        assert got_steps == want_steps
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestAlignerOutput:
    def test_align_pairs_sam_matches_scalar_seeding(self, monkeypatch):
        reference = generate_reference([5_000], seed=17)
        pairs = ReadSimulator(reference, ReadSimConfig(coverage=2.0, seed=3)).simulate()
        aligner = PairedEndAligner(reference)

        def sam_lines():
            return [
                rec.to_line()
                for start in range(0, len(pairs), 16)
                for mates in aligner.align_pairs(pairs[start : start + 16])
                for rec in mates
            ]

        batched = sam_lines()
        monkeypatch.setattr(
            "repro.align.bwamem.find_seeds_batch",
            lambda index, reads, **kw: [find_seeds(index, r, **kw) for r in reads],
        )
        assert sam_lines() == batched


#: Seeding work of ``TestSeedingWork``'s simulated batch: backward-search
#: lane-steps and located seed hits.  The lane-step count is derived from
#: the match starts, so it pins which anchors are extended and how far
#: (the skip of contained anchors included), not the gathers the search
#: spends on lanes that already stopped.
PINNED_SEED_WORK = {"lane_steps": 37_560, "hits": 206}
