"""Batched pair-HMM: equivalence with the scalar oracle, and the dedup of
(read, haplotype) pairs within one call."""

import numpy as np
import pytest

from repro.caller.pairhmm import LOG_ZERO, PairHMM
from tests.caller.reference_caller import likelihood_matrix_scalar, log_likelihood

BASES = np.array(list("ACGTN"))
BASE_P = [0.2425, 0.2425, 0.2425, 0.2425, 0.03]

TOLERANCE = 1e-6


def _random_read(rng, lo, hi):
    seq = "".join(rng.choice(BASES, size=int(rng.integers(lo, hi + 1)), p=BASE_P))
    quals = rng.integers(2, 41, size=len(seq)).tolist()
    return seq, quals


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_matrices_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        hmm = PairHMM()
        for _ in range(12):
            reads = [
                _random_read(rng, 1, 45) for _ in range(int(rng.integers(1, 10)))
            ]
            haps = [
                "".join(rng.choice(BASES, size=int(rng.integers(1, 90)), p=BASE_P))
                for _ in range(int(rng.integers(1, 5)))
            ]
            batched = hmm.likelihood_matrix(reads, haps)
            scalar = likelihood_matrix_scalar(hmm, reads, haps)
            np.testing.assert_allclose(batched, scalar, atol=TOLERANCE, rtol=0)

    def test_edge_cases(self):
        hmm = PairHMM()
        reads = [
            ("", []),  # empty read
            ("N", [30]),  # all-N length-1
            ("A", [2]),  # length-1, minimum quality
            ("NNNNN", [10] * 5),  # all-N read
            ("ACGTACGTAC", [35] * 10),
        ]
        haps = ["A", "N", "NNNN", "ACGTACGTACGTACGT"]
        batched = hmm.likelihood_matrix(reads, haps)
        scalar = likelihood_matrix_scalar(hmm, reads, haps)
        np.testing.assert_allclose(batched, scalar, atol=TOLERANCE, rtol=0)
        # Empty read rows are exactly LOG_ZERO, as in the scalar kernel.
        assert (batched[0] == LOG_ZERO).all()

    def test_batch_log_likelihoods_order_and_gaps(self):
        hmm = PairHMM()
        items = [
            ("ACGT", [30] * 4, "ACGTACGT"),
            ("", [], "ACGT"),  # dead item in the middle of the batch
            ("TTTT", [20] * 4, "TTTTT"),
        ]
        out = hmm.batch_log_likelihoods(items)
        assert out[1] == LOG_ZERO
        assert out[0] == pytest.approx(
            log_likelihood(hmm, "ACGT", [30] * 4, "ACGTACGT"), abs=TOLERANCE
        )
        assert out[2] == pytest.approx(
            log_likelihood(hmm, "TTTT", [20] * 4, "TTTTT"), abs=TOLERANCE
        )

    def test_quals_as_ndarray_match_list(self):
        hmm = PairHMM()
        quals = [17, 25, 40, 2]
        a = hmm.likelihood_matrix([("ACGT", quals)], ["ACGTA"])
        b = hmm.likelihood_matrix([("ACGT", np.array(quals))], ["ACGTA"])
        np.testing.assert_array_equal(a, b)


class TestDedupWithinCall:
    """Each distinct (read, qualities, haplotype) pair of a call is computed
    once; nothing is kept between calls."""

    @staticmethod
    def forward_pairs(monkeypatch) -> list[int]:
        pairs: list[int] = []
        original = PairHMM._forward

        def spy(self, read, error, hap, m_len, n_len):
            pairs.append(read.shape[1])
            return original(self, read, error, hap, m_len, n_len)

        monkeypatch.setattr(PairHMM, "_forward", spy)
        return pairs

    def test_duplicate_pairs_computed_once(self, monkeypatch):
        pairs = self.forward_pairs(monkeypatch)
        dup = ("ACGTACGT", [30] * 8)
        out = PairHMM().likelihood_matrix([dup, dup, dup], ["ACGTACGTA"])
        assert out[0, 0] == out[1, 0] == out[2, 0]
        assert pairs == [1]

    def test_shared_pairs_across_regions_computed_once(self, monkeypatch):
        pairs = self.forward_pairs(monkeypatch)
        read = ("ACGTACGT", [30] * 8)
        first, second = PairHMM().likelihood_matrices(
            [([read], ["ACGTACGTA"]), ([read], ["ACGTACGTA", "TTTT"])]
        )
        assert first[0, 0] == second[0, 0]
        assert pairs == [2]

    def test_repeat_calls_compute_again_and_agree(self, monkeypatch):
        pairs = self.forward_pairs(monkeypatch)
        hmm = PairHMM()
        reads = [("ACGTACGT", [30] * 8), ("TTGCAAGC", [25] * 8)]
        haps = ["ACGTACGTA", "TTGCAAGCT"]
        np.testing.assert_array_equal(hmm.likelihood_matrix(reads, haps), hmm.likelihood_matrix(reads, haps))
        assert pairs == [4, 4]

    def test_qualities_are_part_of_the_key(self, monkeypatch):
        pairs = self.forward_pairs(monkeypatch)
        out = PairHMM().likelihood_matrix(
            [("ACGT", [30, 30, 30, 30]), ("ACGT", [30, 30, 30, 31]), ("ACGT", np.array([30, 30, 30, 30]))],
            ["ACGT"],
        )
        assert pairs == [2]
        assert out[0, 0] == out[2, 0] != out[1, 0]

    def test_empty_problems(self):
        assert [m.shape for m in PairHMM().likelihood_matrices([([], ["ACGT"]), ([("ACGT", [30] * 4)], [])])] == [
            (0, 1),
            (1, 0),
        ]
