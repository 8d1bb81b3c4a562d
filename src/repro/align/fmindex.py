"""FM-index: BWT + sampled occurrence table + the whole suffix array.

Supports the two primitives seed-and-extend alignment needs:

- :meth:`FMIndex.extend_left_batch` — one backward-search step for many
  independent lanes at once: each lane's ``(lo, hi)`` suffix-array
  interval narrows to the rows whose suffixes start with one more
  character on the left.  A pattern's interval is ``(0, text_length)``
  extended by its characters right to left.
- :meth:`FMIndex.locate` — the forward-strand hits of an interval: a
  slice of the suffix array mapped onto the contig spans.

The index is built over the concatenation of all reference contigs (plus
the reverse complements, as BWA does, so reverse-strand seeds are found by
the same forward search) with a 0 sentinel at the end.  ``occ`` is sampled
every ``occ_sample`` rows; a rank query scans at most ``occ_sample`` BWT
entries with vectorized comparison.  BWA samples its suffix array and
walks the LF mapping back to a sample for every hit because its text is
gigabases long; this reproduction's text is tens of kilobytes, so the
index keeps the whole suffix array as int32 (4 bytes per text byte) and
there is no LF walk.
"""

from __future__ import annotations

import numpy as np

from repro.align.suffix_array import build_suffix_array
from repro.formats.fasta import Reference

#: DNA complement for reverse-complement handling: case-preserving, with
#: the IUPAC ambiguity pairs (S, W and N are their own complements).
_COMPLEMENT = bytes.maketrans(
    b"ACGTNRYKMBVDHSWacgtnrykmbvdhsw", b"TGCANYRMKVBHDSWtgcanyrmkvbhdsw"
)


def reverse_complement(seq: str) -> str:
    return seq.encode("ascii").translate(_COMPLEMENT)[::-1].decode("ascii")


def bwt_from_suffix_array(text: bytes, suffix_array: np.ndarray) -> np.ndarray:
    """BWT[i] = text[SA[i] - 1]  (the character preceding each suffix)."""
    data = np.frombuffer(text, dtype=np.uint8)
    prev = np.asarray(suffix_array, dtype=np.int64) - 1
    return data[prev]  # index -1 wraps to the sentinel, as required


class FMIndex:
    """FM-index over a multi-contig reference, both strands."""

    #: Alphabet of the index text; sentinel first so it sorts lowest.
    ALPHABET = b"\x00ACGNT"

    def __init__(self, reference: Reference, occ_sample: int = 32):
        self._occ_sample = occ_sample

        strands: list[bytes] = []
        for contig in reference.contigs:
            strands += [contig.sequence, contig.sequence.translate(_COMPLEMENT)[::-1]]
        text = b"".join(strands) + b"\x00"
        self._text_len = len(text)
        # Contig k's forward strand is span 2k and its reverse complement
        # span 2k + 1; span s covers text[bounds[s]:bounds[s + 1]].
        self._contig_names = [contig.name for contig in reference.contigs]
        self._span_bounds = np.cumsum([0] + [len(s) for s in strands], dtype=np.int64)

        sa = build_suffix_array(text)
        bwt = bwt_from_suffix_array(text, sa)
        self._sa = sa.astype(np.int32)

        # Character codes 0..5 over the fixed alphabet.
        code_of = np.full(256, -1, dtype=np.int8)
        for code, byte in enumerate(self.ALPHABET):
            code_of[byte] = code
        self._code_of = code_of
        bwt_codes = code_of[bwt]
        if bwt_codes.min() < 0:
            raise ValueError("reference contains bytes outside the ACGTN alphabet")

        # C array: for each code, number of text chars strictly smaller.
        counts = np.bincount(bwt_codes, minlength=len(self.ALPHABET))
        self._C = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)

        # BWT codes padded with 255 (no code) to whole ``occ_sample``-byte
        # blocks, one per checkpoint.  occ[k, c] = occurrences of code c in
        # bwt[:k*occ_sample], the running sum of per-block counts.
        full = len(bwt) // occ_sample
        self._bwt_codes = np.full((full + 1) * occ_sample, 255, dtype=np.uint8)
        self._bwt_codes[: len(bwt)] = bwt_codes
        blocks = self._bwt_codes.reshape(full + 1, occ_sample)[:full]
        self._occ = np.zeros((full + 1, len(self.ALPHABET)), dtype=np.int64)
        for code in range(len(self.ALPHABET)):
            np.cumsum(np.count_nonzero(blocks == code, axis=1), out=self._occ[1:, code])

    # -- search -------------------------------------------------------------
    def search_codes(self, text: bytes) -> np.ndarray:
        """Per-byte character codes of ``text`` for :meth:`extend_left_batch`.

        ``N``, lowercase and any byte outside the alphabet map to -1, which
        ends a search there (``N`` never matches, as in BWA's exact-seed
        phase).
        """
        codes = self._code_of[np.frombuffer(text, dtype=np.uint8)]
        codes[codes == self._code_of[ord("N")]] = -1
        return codes

    def extend_left_batch(
        self, codes: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One backward-search step for many independent lanes at once.

        Lane ``i`` extends ``(lo[i], hi[i])`` by the character whose code
        (from :meth:`search_codes`) is ``codes[i]``.  A negative code or an
        emptied interval yields ``(0, 0)``.
        """
        codes = np.asarray(codes, dtype=np.int64)
        valid = codes >= 0
        safe = np.where(valid, codes, 0)
        ranks = self._rank_batch(
            np.concatenate([safe, safe]),
            np.concatenate([lo, hi]).astype(np.int64, copy=False),
        )
        new_lo = self._C[safe] + ranks[: len(safe)]
        new_hi = self._C[safe] + ranks[len(safe) :]
        empty = ~valid | (new_lo >= new_hi)
        new_lo[empty] = 0
        new_hi[empty] = 0
        return new_lo, new_hi

    def _rank_batch(self, codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Occurrences of ``codes[i]`` in ``bwt[:rows[i]]`` per lane: the occ
        checkpoint at or below the row plus a masked compare over the
        ``occ_sample``-byte BWT block that starts at that checkpoint,
        gathered from a reshaped view of the padded BWT (small uint8
        temporaries, no index matrix)."""
        sample = self._occ_sample
        checkpoint = rows // sample
        window = self._bwt_codes.reshape(-1, sample)[checkpoint]
        hits = window == codes.astype(np.uint8)[:, None]
        hits &= np.arange(sample) < (rows - checkpoint * sample)[:, None]
        return self._occ[checkpoint, codes] + np.count_nonzero(hits, axis=1)

    # -- locate ------------------------------------------------------------
    def locate(
        self, lo: int, hi: int, length: int, limit: int = 64
    ) -> list[tuple[str, int, bool]]:
        """``(contig, start, is_reverse)`` of the first ``limit`` rows of the
        interval ``[lo, hi)`` of a ``length``-character match, in row order
        (repetitive seeds are truncated, as in BWA).

        ``start`` is the 0-based forward-strand position where the match
        begins.  A hit at ``pos`` in a contig's reverse complement, which
        ends at ``end``, starts at ``end - pos - length`` on the forward
        strand.
        """
        pos = self._sa[lo : min(hi, lo + limit)].astype(np.int64)
        # The sentinel suffix (row 0) only an empty match's interval holds.
        pos = pos[pos < self._text_len - 1]
        span = np.searchsorted(self._span_bounds, pos, side="right") - 1
        is_reverse = span % 2 == 1
        start = np.where(
            is_reverse,
            self._span_bounds[span + 1] - pos - length,
            pos - self._span_bounds[span],
        )
        names = self._contig_names
        return [
            (names[s // 2], p, r)
            for s, p, r in zip(span.tolist(), start.tolist(), is_reverse.tolist())
        ]

    # -- introspection -----------------------------------------------------
    @property
    def text_length(self) -> int:
        return self._text_len
