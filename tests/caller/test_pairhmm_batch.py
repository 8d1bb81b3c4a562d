"""Batched pair-HMM: equivalence with the scalar kernel + dedup cache."""

import numpy as np
import pytest

from repro.caller.likelihood_cache import LikelihoodCache
from repro.caller.pairhmm import LOG_ZERO, PairHMM

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
        hmm = PairHMM(cache_size=0)
        for _ in range(12):
            reads = [
                _random_read(rng, 1, 45) for _ in range(int(rng.integers(1, 10)))
            ]
            haps = [
                "".join(rng.choice(BASES, size=int(rng.integers(1, 90)), p=BASE_P))
                for _ in range(int(rng.integers(1, 5)))
            ]
            batched = hmm.likelihood_matrix(reads, haps)
            scalar = hmm.likelihood_matrix_scalar(reads, haps)
            np.testing.assert_allclose(batched, scalar, atol=TOLERANCE, rtol=0)

    def test_edge_cases(self):
        hmm = PairHMM(cache_size=0)
        reads = [
            ("", []),  # empty read
            ("N", [30]),  # all-N length-1
            ("A", [2]),  # length-1, minimum quality
            ("NNNNN", [10] * 5),  # all-N read
            ("ACGTACGTAC", [35] * 10),
        ]
        haps = ["A", "N", "NNNN", "ACGTACGTACGTACGT"]
        batched = hmm.likelihood_matrix(reads, haps)
        scalar = hmm.likelihood_matrix_scalar(reads, haps)
        np.testing.assert_allclose(batched, scalar, atol=TOLERANCE, rtol=0)
        # Empty read rows are exactly LOG_ZERO, as in the scalar kernel.
        assert (batched[0] == LOG_ZERO).all()

    def test_batch_log_likelihoods_order_and_gaps(self):
        hmm = PairHMM(cache_size=0)
        items = [
            ("ACGT", [30] * 4, "ACGTACGT"),
            ("", [], "ACGT"),  # dead item in the middle of the batch
            ("TTTT", [20] * 4, "TTTTT"),
        ]
        out = hmm.batch_log_likelihoods(items)
        assert out[1] == LOG_ZERO
        assert out[0] == pytest.approx(
            hmm.log_likelihood("ACGT", [30] * 4, "ACGTACGT"), abs=TOLERANCE
        )
        assert out[2] == pytest.approx(
            hmm.log_likelihood("TTTT", [20] * 4, "TTTTT"), abs=TOLERANCE
        )

    def test_quals_as_ndarray_match_list(self):
        hmm = PairHMM(cache_size=0)
        quals = [17, 25, 40, 2]
        a = hmm.likelihood_matrix([("ACGT", quals)], ["ACGTA"])
        b = hmm.likelihood_matrix([("ACGT", np.array(quals))], ["ACGTA"])
        np.testing.assert_array_equal(a, b)


class TestLikelihoodCache:
    def test_repeat_calls_hit_cache(self):
        hmm = PairHMM()
        reads = [("ACGTACGT", [30] * 8), ("TTGCAAGC", [25] * 8)]
        haps = ["ACGTACGTA", "TTGCAAGCT"]
        first = hmm.likelihood_matrix(reads, haps)
        misses_after_first = hmm.cache.misses
        second = hmm.likelihood_matrix(reads, haps)
        np.testing.assert_array_equal(first, second)
        assert hmm.cache.misses == misses_after_first  # all hits
        assert hmm.cache.hits >= len(reads) * len(haps)

    def test_first_call_counts_every_miss(self):
        # An empty cache is falsy (it has __len__): the lookup must not be
        # skipped on that account, or the first region's misses vanish.
        hmm = PairHMM()
        reads = [("ACGTACGT", [30] * 8), ("TTGCAAGC", [25] * 8)]
        hmm.likelihood_matrix(reads, ["ACGTACGTA", "TTGCAAGCT"])
        assert hmm.cache.misses == len(hmm.cache) == 4
        assert hmm.cache.hits == 0

    def test_duplicate_pairs_computed_once_within_call(self):
        hmm = PairHMM()
        dup = ("ACGTACGT", [30] * 8)
        out = hmm.likelihood_matrix([dup, dup, dup], ["ACGTACGTA"])
        assert out[0, 0] == out[1, 0] == out[2, 0]
        assert len(hmm.cache) == 1  # one unique triple stored

    def test_cache_shared_across_regions(self):
        cache = LikelihoodCache()
        hmm = PairHMM(cache=cache)
        read = ("ACGTACGT", [30] * 8)
        hmm.likelihood_matrix([read], ["ACGTACGTA"])  # "region 1"
        baseline_misses = cache.misses
        hmm.likelihood_matrix([read], ["ACGTACGTA", "TTTT"])  # "region 2"
        assert cache.misses == baseline_misses + 1  # only the new haplotype

    def test_content_addressing_distinguishes_quals(self):
        key_a = LikelihoodCache.key("ACGT", [30, 30, 30, 30], "ACGT")
        key_b = LikelihoodCache.key("ACGT", [30, 30, 30, 31], "ACGT")
        key_c = LikelihoodCache.key("ACGT", np.array([30.0, 30, 30, 30]), "ACGT")
        assert key_a != key_b
        assert key_a == key_c  # int/float quals canonicalize identically

    def test_lru_eviction_bounds_size(self):
        cache = LikelihoodCache(max_entries=2)
        for i in range(5):
            cache.put(LikelihoodCache.key("A" * (i + 1), [30], "ACGT"), float(i))
        assert len(cache) == 2

    def test_cache_disabled(self):
        hmm = PairHMM(cache_size=0)
        assert hmm.cache is None
        out = hmm.likelihood_matrix([("ACGT", [30] * 4)], ["ACGTA"])
        assert np.isfinite(out).all()
