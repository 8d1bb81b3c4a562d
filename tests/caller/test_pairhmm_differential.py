"""Linear-space batched pair-HMM against the log-space scalar oracle.

Generated cases cover N bases, qualities 2-60, read and haplotype lengths
1-150 mixed inside one batch, haplotypes shorter and longer than the read,
and pairs whose likelihood lies below float64's range.  Every value must
match the scalar oracle :func:`reference_caller.log_likelihood` to 1e-12
relative, and a pair's value must not depend, bit for bit, on the rest of
its batch.
"""

import numpy as np
import pytest

from repro.caller import pairhmm
from repro.caller.pairhmm import LOG_ZERO, PairHMM
from tests.caller.reference_caller import log_likelihood

RTOL = 1e-12
BASES = np.array(list("ACGTN"))
BASE_P = [0.2425, 0.2425, 0.2425, 0.2425, 0.03]

#: Pairs whose likelihood is below the smallest normal float64 (or is 0).
UNDERFLOWING = [
    ("A" * 100, [40] * 100, "C"),  # a 1-base haplotype: probability 0
    ("A" * 300, [60] * 300, "CT"),
    ("A" * 400, [40] * 400, "C" * 400),
    ("ACGT" * 90, [2, 30, 60, 45] * 90, "TGCA" * 40),
]


def generated_items(seed: int, count: int = 120) -> list[tuple[str, list[int], str]]:
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(count):
        m = int(rng.integers(1, 151))
        n = int(rng.integers(1, 151))
        hap = "".join(rng.choice(BASES, size=n, p=BASE_P))
        if rng.random() < 0.5:
            # A read drawn from the haplotype, with errors, maybe run off its end.
            start = int(rng.integers(0, n))
            seq = list(hap[start : start + m])
            seq += list(rng.choice(BASES, size=m - len(seq), p=BASE_P))
            for pos in rng.integers(0, m, size=3):
                seq[pos] = "ACGT"[int(rng.integers(4))]
            read = "".join(seq)
        else:
            read = "".join(rng.choice(BASES, size=m, p=BASE_P))
        items.append((read, rng.integers(2, 61, size=m).tolist(), hap))
    return items


def scalar(hmm: PairHMM, items) -> np.ndarray:
    return np.array([log_likelihood(hmm, *item) for item in items])


@pytest.mark.parametrize("seed", range(4))
def test_generated_cases_match_scalar(seed):
    hmm = PairHMM()
    items = generated_items(seed)
    lengths = {len(read) for read, _, _ in items}
    assert len(lengths) > 50  # variable read lengths inside one batch
    assert any(len(h) < len(r) for r, _, h in items)
    assert any(len(h) > len(r) for r, _, h in items)
    np.testing.assert_allclose(hmm.batch_log_likelihoods(items), scalar(hmm, items), rtol=RTOL, atol=0)


def test_underflowing_pairs_are_finite_and_match_scalar():
    hmm = PairHMM()
    batched = hmm.batch_log_likelihoods(UNDERFLOWING)
    assert np.isfinite(batched).all()
    # Each lies below log(smallest normal double): a linear-space kernel
    # without rescaling would return 0 probability for all of them.
    assert (batched < np.log(np.finfo(np.float64).tiny)).all()
    assert batched[0] == LOG_ZERO
    np.testing.assert_allclose(batched, scalar(hmm, UNDERFLOWING), rtol=RTOL, atol=0)


def test_value_does_not_depend_on_the_batch():
    hmm = PairHMM()
    items = generated_items(7, count=60) + UNDERFLOWING
    batched = hmm.batch_log_likelihoods(items)
    alone = np.array([hmm.batch_log_likelihoods([item])[0] for item in items])
    order = np.random.default_rng(8).permutation(len(items))
    shuffled = np.empty(len(items))
    shuffled[order] = hmm.batch_log_likelihoods([items[p] for p in order])
    wide = ("ACGT" * 30, [30] * 120, "".join(np.random.default_rng(9).choice(list("ACGT"), 300)))
    padded = hmm.batch_log_likelihoods(items + [wide])[:-1]
    np.testing.assert_array_equal(batched, alone)
    np.testing.assert_array_equal(batched, shuffled)
    np.testing.assert_array_equal(batched, padded)


def test_chunked_batch_is_bitwise_equal(monkeypatch):
    hmm = PairHMM()
    items = generated_items(11, count=40)
    whole = hmm.batch_log_likelihoods(items)
    monkeypatch.setattr(pairhmm, "MAX_CHUNK_CELLS", 500)
    np.testing.assert_array_equal(hmm.batch_log_likelihoods(items), whole)


def test_matrices_equal_one_problem_at_a_time():
    rng = np.random.default_rng(12)
    problems = []
    for _ in range(4):
        reads = [(read, quals) for read, quals, _ in generated_items(int(rng.integers(100)), 5)]
        haps = [hap for _, _, hap in generated_items(int(rng.integers(100)), 3)]
        problems.append((reads, haps))
    together = PairHMM().likelihood_matrices(problems)
    for (reads, haps), matrix in zip(problems, together):
        np.testing.assert_array_equal(matrix, PairHMM().likelihood_matrix(reads, haps))


def test_quals_length_mismatch_raises():
    with pytest.raises(ValueError, match="3 qualities for a 4-base read"):
        PairHMM().batch_log_likelihoods([("ACGT", [30] * 3, "ACGT")])


def test_other_gap_penalties_match_scalar():
    hmm = PairHMM(gap_open_phred=60.0, gap_extend_phred=20.0)
    items = generated_items(13, count=30)
    np.testing.assert_allclose(hmm.batch_log_likelihoods(items), scalar(hmm, items), rtol=RTOL, atol=0)


@pytest.mark.parametrize(
    "gap_open, gap_extend, reason",
    [(200.0, 10.0, "too large"), (45.0, 60.0, "too large"), (45.0, 0.0, "positive"), (3.0, 10.0, "positive")],
)
def test_gap_penalties_outside_the_scaling_range_are_refused(gap_open, gap_extend, reason):
    with pytest.raises(ValueError, match=reason):
        PairHMM(gap_open_phred=gap_open, gap_extend_phred=gap_extend)
