"""The vectorized edit-table row scan against the per-column loop it replaced."""

import numpy as np
import pytest

from repro.caller.genotyper import _edit_table, haplotype_variants


def loop_edit_table(a: str, b: str) -> np.ndarray:
    """The per-column reference: the row scan as a Python loop."""
    m, n = len(a), len(b)
    dp = np.zeros((m + 1, n + 1), dtype=np.int64)
    dp[:, 0] = np.arange(m + 1)
    dp[0, :] = np.arange(n + 1)
    a_arr = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    b_arr = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    for i in range(1, m + 1):
        sub_cost = (a_arr[i - 1] != b_arr).astype(np.int64)
        row = dp[i]
        prev = dp[i - 1]
        best = np.minimum(prev[:-1] + sub_cost, prev[1:] + 1)
        running = row[0]
        for j in range(1, n + 1):
            val = best[j - 1]
            left = running + 1
            if left < val:
                val = left
            row[j] = val
            running = val
    return dp


def mutated(rng, window: str) -> str:
    """``window`` with a few SNVs, insertions and deletions."""
    seq = list(window)
    for _ in range(int(rng.integers(0, 6))):
        if not seq:
            break
        pos = int(rng.integers(0, len(seq)))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            seq[pos] = "ACGT"[int(rng.integers(4))]
        elif kind == 1:
            seq[pos:pos] = list(rng.choice(list("ACGT"), size=int(rng.integers(1, 6))))
        else:
            del seq[pos : pos + int(rng.integers(1, 6))]
    return "".join(seq)


@pytest.mark.parametrize("seed", range(6))
def test_edit_table_matches_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        window = "".join(rng.choice(list("ACGTN"), size=int(rng.integers(0, 120))))
        hap = mutated(rng, window)
        np.testing.assert_array_equal(_edit_table(window, hap), loop_edit_table(window, hap))


def test_edit_table_unrelated_and_empty_sequences():
    for a, b in [("", ""), ("ACGT", ""), ("", "ACGT"), ("AAAAAAA", "TTT"), ("ACGTACGT", "TGCA")]:
        np.testing.assert_array_equal(_edit_table(a, b), loop_edit_table(a, b))


def test_planted_edits_are_reported():
    window = "ACGTTGCAAGGCTATCGGATCGGCTAACGT"
    snv = window[:10] + "T" + window[11:]
    assert haplotype_variants(snv, window, "chr1", 100) == [("chr1", 110, "G", "T")]
    deletion = window[:12] + window[15:]
    assert haplotype_variants(deletion, window, "chr1", 100) == [
        ("chr1", 111, "CTAT", "C")
    ]
