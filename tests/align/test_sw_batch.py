"""Batched Smith-Waterman must reproduce the scalar kernel exactly."""

import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.bwamem import BwaMemAligner
from repro.align.smith_waterman import AlignmentResult, ScoringScheme, smith_waterman
from repro.align.sw_batch import SwWork, smith_waterman_batch
from repro.sim import generate_reference

BASES = np.array(list("ACGTN"))
BASE_P = [0.2425, 0.2425, 0.2425, 0.2425, 0.03]
BANDS = [None, 4, 8, 16, 40, 64]


def _random_seq(rng, lo, hi):
    return "".join(rng.choice(BASES, size=int(rng.integers(lo, hi + 1)), p=BASE_P))


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("band", BANDS)
    def test_randomized_batches_match_scalar(self, band):
        rng = np.random.default_rng(hash(band) % 1000 if band else 0)
        for _ in range(40):
            pairs = []
            for _ in range(int(rng.integers(1, 9))):
                query = _random_seq(rng, 0, 60)
                ref = _random_seq(rng, 0, 120)
                # Plant the query so real alignments (not just score-0
                # rejections) are exercised.
                if rng.random() < 0.5 and len(ref) > len(query) > 4:
                    pos = int(rng.integers(0, len(ref) - len(query)))
                    ref = ref[:pos] + query + ref[pos + len(query):]
                pairs.append((query, ref))
            batched = smith_waterman_batch(pairs, band=band)
            for (query, ref), got in zip(pairs, batched):
                assert got == smith_waterman(query, ref, band=band)

    def test_edge_cases(self):
        pairs = [
            ("", ""),
            ("", "ACGT"),
            ("ACGT", ""),
            ("A", "A"),
            ("A", "T"),
            ("N", "N"),
            ("NNNN", "NNNN"),
            ("ACGT", "NNNN"),
            ("A" * 40, "A" * 40),
        ]
        batched = smith_waterman_batch(pairs, band=8)
        for (query, ref), got in zip(pairs, batched):
            assert got == smith_waterman(query, ref, band=8)

    def test_empty_batch(self):
        assert smith_waterman_batch([]) == []

    def test_mixed_lengths_padding_does_not_leak(self):
        # One long pair forces heavy padding on the short ones.
        pairs = [("ACGTACGTA" * 12, "ACGTACGTA" * 20), ("AC", "ACGT"), ("G", "G")]
        batched = smith_waterman_batch(pairs)
        for (query, ref), got in zip(pairs, batched):
            assert got == smith_waterman(query, ref)

    def test_positive_gap_open_falls_back_to_scalar(self):
        scoring = ScoringScheme(match=2, mismatch=-1, gap_open=1, gap_extend=-2)
        pairs = [("ACGTAC", "ACGGTAC"), ("TTTT", "TTAT")]
        batched = smith_waterman_batch(pairs, scoring=scoring)
        for (query, ref), got in zip(pairs, batched):
            assert got == smith_waterman(query, ref, scoring=scoring)



def _acgt(rng, n):
    return "".join(rng.choice(list("ACGT"), size=n))


def _assert_matches_scalar(pairs, band, scoring=None):
    work = SwWork()
    got = smith_waterman_batch(pairs, scoring=scoring, band=band, work=work)
    assert got == [smith_waterman(q, r, scoring, band) for q, r in pairs]
    return got, work


class TestExactLanesAndBandEdges:
    """The exact-match path, the band-major DP and the lockstep traceback
    against the scalar oracle, one planted situation at a time."""

    @pytest.mark.parametrize("band", BANDS)
    def test_planted_exact_copies_in_generated_batches(self, band):
        rng = np.random.default_rng(1000 + (band or 0))
        for _ in range(12):
            pairs = []
            for _ in range(int(rng.integers(1, 16))):
                query = _acgt(rng, int(rng.integers(8, 70)))
                offset = int(rng.integers(0, 2 * (band or 40) + 2))
                window = _acgt(rng, offset) + query + _acgt(rng, int(rng.integers(0, 40)))
                if rng.random() < 0.4:  # one substitution: the DP decides
                    k = int(rng.integers(len(query)))
                    query = query[:k] + ("A" if query[k] != "A" else "C") + query[k + 1 :]
                pairs.append((query, window))
            _assert_matches_scalar(pairs, band)

    @pytest.mark.parametrize("band", BANDS)
    def test_tandem_repeat_leftmost_copy_wins(self, band):
        rng = np.random.default_rng(7)
        unit = _acgt(rng, 12)
        window = "TT" + unit + unit + "GG"  # both copies within 14 of diagonal 0
        (res,), work = _assert_matches_scalar([(unit, window)], band)
        if band is None or band >= 2:
            assert (res.ref_start, res.ref_end) == (2, 14)
            assert work.exact_lanes == 1 and work.dp_lanes == 0
        periodic = "AC" * 10
        (res,), _ = _assert_matches_scalar([(periodic, "G" + "AC" * 30)], band)
        assert res.ref_start == 1 and res.cigar_pairs == ((20, "M"),)

    @pytest.mark.parametrize("band", [4, 8, 16, 40, 64])
    def test_copy_at_band_takes_exact_path_and_band_plus_one_the_dp(self, band):
        rng = np.random.default_rng(band)
        query = _acgt(rng, 30)
        at_band = _acgt(rng, band) + query + "A"
        past_band = _acgt(rng, band + 1) + query + "A"
        (res, _), work = _assert_matches_scalar(
            [(query, at_band), (query, past_band)], band
        )
        assert res == AlignmentResult(30, 0, 30, band, band + 30, ((30, "M"),))
        assert (work.exact_lanes, work.dp_lanes) == (1, 1)

    @pytest.mark.parametrize("band", BANDS)
    def test_n_in_query_and_lowercase_in_window(self, band):
        rng = np.random.default_rng(3)
        core = _acgt(rng, 40)
        with_n = core[:15] + "N" + core[16:]
        pairs = [
            (with_n, "CC" + core + "TT"),  # N never matches: DP, one mismatch
            (with_n, "CC" + with_n + "TT"),  # not even an N in the window
            (core, "CC" + core.lower() + "TT"),  # lowercase never equals upper
            (core.lower(), "CC" + core.lower() + "TT"),  # lowercase equals itself
            (core, "CC" + core[:20] + core[20:].lower() + core + "A"),
        ]
        got, work = _assert_matches_scalar(pairs, band)
        # Exact: the lowercase lane, and the last one once its copy at 42 is in band.
        assert work.exact_lanes == (2 if band is None or band >= 42 else 1)
        assert got[3].cigar_pairs == ((40, "M"),)

    @pytest.mark.parametrize("band", BANDS)
    def test_query_longer_than_every_window(self, band):
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(6):
            window = _acgt(rng, int(rng.integers(5, 30)))
            query = _acgt(rng, 3) + window[2:] + _acgt(rng, 40)
            pairs.append((query, window))
        _assert_matches_scalar(pairs, band)
        # The lowest diagonal holds one cell, (m_max, 1), and here it is the best.
        _assert_matches_scalar([("T" * 7 + "A", "AC"), ("T" * 8, "A")], band)

    @pytest.mark.parametrize("band", BANDS)
    def test_empty_lanes_and_non_default_scoring(self, band):
        rng = np.random.default_rng(13)
        query = _acgt(rng, 25)
        window = _acgt(rng, 3) + query[:10] + "A" + query[10:] + _acgt(rng, 5)
        pairs = [("", window), (query, ""), (query, window), (query, "G" + query)]
        _, work = _assert_matches_scalar(pairs, band)
        assert (work.exact_lanes, work.dp_lanes) == (1, 1)
        scoring = ScoringScheme(match=2, mismatch=-3)
        got, work = _assert_matches_scalar(pairs, band, scoring)
        assert got[3].score == 50 and work.exact_lanes == 1
        # Scoring under which a full-length match is not the unique maximum
        # never takes the exact path.
        flat = ScoringScheme(match=1, mismatch=1, gap_open=-2, gap_extend=-1)
        _, work = _assert_matches_scalar(pairs, band, flat)
        assert work.exact_lanes == 0

    @pytest.mark.parametrize(
        "scoring",
        [
            ScoringScheme(match=2, mismatch=-3, gap_open=-5, gap_extend=-2),
            ScoringScheme(match=1, mismatch=-1, gap_open=0, gap_extend=-1),
            ScoringScheme(match=2, mismatch=1, gap_open=-1, gap_extend=-1),
            ScoringScheme(match=3, mismatch=-2, gap_open=-4, gap_extend=1),
            ScoringScheme(match=4, mismatch=3, gap_open=0, gap_extend=1),
        ],
    )
    @pytest.mark.parametrize("band", BANDS)
    def test_randomized_batches_under_other_scoring(self, scoring, band):
        # A non-negative mismatch or gap extension keeps cells past a lane's
        # own lengths positive: only the masks keep them out of the result.
        rng = np.random.default_rng(29 + (band or 0))
        for _ in range(8):
            pairs = []
            for _ in range(int(rng.integers(1, 9))):
                query = _random_seq(rng, 0, 50)
                ref = _random_seq(rng, 0, 80)
                if rng.random() < 0.5 and len(ref) > len(query) > 4:
                    pos = int(rng.integers(0, len(ref) - len(query)))
                    ref = ref[:pos] + query + ref[pos + len(query) :]
                pairs.append((query, ref))
            _assert_matches_scalar(pairs, band, scoring)

    @pytest.mark.parametrize("band", BANDS)
    def test_traceback_tie_order_e_before_f(self, band):
        # Cells where diagonal fails and H == E == F: the deletion wins.
        cases = [
            (
                ScoringScheme(1, -1, 0, -1),
                "TTGACCCCTACCGAAGGTAGGT",
                "TTGACCCCTACCACCACCTAAGGTAGGT",
            ),
            (ScoringScheme(2, -1, -1, -1), "CCCACGAGAC", "CCCACCCCTAGAC"),
        ]
        for scoring, query, ref in cases:
            _assert_matches_scalar([(query, ref), ("ACGT", "ACGT")], band, scoring)

    def test_positive_gap_open_fallback_with_planted_copies(self):
        scoring = ScoringScheme(match=2, mismatch=-1, gap_open=1, gap_extend=-2)
        rng = np.random.default_rng(17)
        query = _acgt(rng, 20)
        pairs = [(query, "AA" + query + "C"), (query, _acgt(rng, 30))]
        for band in BANDS:
            _assert_matches_scalar(pairs, band, scoring)

    def test_work_tally(self):
        rng = np.random.default_rng(19)
        query = _acgt(rng, 30)
        mutated = query[:10] + ("A" if query[10] != "A" else "C") + query[11:]
        window = _acgt(rng, 5) + query + _acgt(rng, 5)  # 40 bases
        work = SwWork()
        smith_waterman_batch([(query, window), (mutated, window)], band=8, work=work)
        # One DP lane: 31 rows of 2*8+1 diagonals plus the guard slot.
        assert work.snapshot() == {"exact_lanes": 1, "dp_lanes": 1, "dp_cells": 31 * 18}
        smith_waterman_batch([(mutated, window)], band=None, work=work)
        # Unbanded: diagonals -29..39, plus the guard slot.
        assert work.snapshot()["dp_cells"] == 31 * 18 + 31 * 70
        # A broadcast aligner carries its tally across the wire.
        assert pickle.loads(pickle.dumps(work)).snapshot() == work.snapshot()

    def test_work_tally_loses_no_update_across_threads(self):
        # The threads backend shares one broadcast aligner between tasks.
        work = SwWork()
        threads = [
            threading.Thread(target=lambda: [work.add(1, 2, 3) for _ in range(2_000)])
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert work.snapshot() == {
            "exact_lanes": 16_000,
            "dp_lanes": 32_000,
            "dp_cells": 48_000,
        }

@st.composite
def _batches(draw):
    """A batch of mixed-length pairs (some empty, some with ``N``), a
    ``gap_open <= 0`` scoring and a band; about half the queries are
    planted in their window at the band edge (band - 1, band or band + 1),
    some with one substitution, so exact lanes, the DP and both band edges
    are all drawn."""
    band = draw(st.one_of(st.none(), st.integers(0, 24)))
    scoring = ScoringScheme(
        match=draw(st.integers(1, 4)),
        mismatch=draw(st.integers(-6, 3)),
        gap_open=draw(st.integers(-8, 0)),
        gap_extend=draw(st.integers(-3, 1)),
    )
    seq = lambda lo, hi: st.text(alphabet="ACGTN", min_size=lo, max_size=hi)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        query, window = draw(seq(0, 30)), draw(seq(0, 45))
        if query and draw(st.booleans()):
            offset = max((band or 8) + draw(st.integers(-1, 1)), 0)
            if draw(st.booleans()):
                k = draw(st.integers(0, len(query) - 1))
                query = query[:k] + ("A" if query[k] != "A" else "C") + query[k + 1 :]
            window = draw(seq(offset, offset)) + query + draw(seq(0, 6))
        pairs.append((query, window))
    return pairs, scoring, band


class TestGeneratedBatches:
    @settings(max_examples=150, deadline=None)
    @given(_batches())
    def test_batch_equals_scalar_kernel(self, case):
        pairs, scoring, band = case
        assert smith_waterman_batch(pairs, scoring=scoring, band=band) == [
            smith_waterman(q, r, scoring, band) for q, r in pairs
        ]


def test_dp_memory_is_two_bytes_per_traceback_cell():
    # An aligner-sized batch: 100 chain jobs of 100-base reads, each one
    # substitution off its 148-base window, band 40 (all go to the DP).
    rng = np.random.default_rng(41)
    pairs = []
    for _ in range(100):
        window = _acgt(rng, 148)
        read = list(window[24:124])
        read[50] = "A" if read[50] != "A" else "C"
        pairs.append(("".join(read), window))
    work = SwWork()
    smith_waterman_batch(pairs, band=40, work=work)  # warm-up: imports, caches
    tracemalloc.start()
    try:
        smith_waterman_batch(pairs, band=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = work.snapshot()["dp_cells"]
    assert work.snapshot()["dp_lanes"] == 100
    assert peak <= 2 * cells + 512 * 1024, (peak, cells)


class TestAlignerBatchWiring:
    def test_candidates_batch_matches_single_reads(self):
        reference = generate_reference([6_000], seed=42)
        aligner = BwaMemAligner(reference)
        contig = reference.contigs[0]
        rng = np.random.default_rng(5)
        sequences = []
        for _ in range(12):
            start = int(rng.integers(0, len(contig) - 80))
            seq = contig.fetch(start, start + 70)
            sequences.append(seq)
        batched = aligner.candidates_batch(sequences)
        assert len(batched) == len(sequences)
        for seq, cands in zip(sequences, batched):
            assert cands == aligner.candidates(seq)
            assert cands, "planted read must align"
