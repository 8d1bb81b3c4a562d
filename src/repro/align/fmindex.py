"""FM-index: BWT + sampled occurrence table + sampled suffix array.

Supports the two primitives seed-and-extend alignment needs:

- :meth:`FMIndex.backward_search` — the (lo, hi) suffix-array interval of
  every exact occurrence of a pattern, in O(|pattern|) rank queries.
  :meth:`FMIndex.extend_left` is its one-character step and
  :meth:`FMIndex.extend_left_batch` the same step for many independent
  lanes at once.
- :meth:`FMIndex.locate` — text positions for an interval, via the sampled
  suffix array and LF-walking.

The index is built over the concatenation of all reference contigs (plus
the reverse complements, as BWA does, so reverse-strand seeds are found by
the same forward search) with a 0 sentinel at the end.  ``occ`` is sampled
every ``occ_sample`` rows; a rank query scans at most ``occ_sample`` BWT
entries with vectorized comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.bwt import bwt_from_suffix_array
from repro.align.suffix_array import build_suffix_array
from repro.formats.fasta import Reference

#: DNA complement for reverse-complement handling: case-preserving, with
#: the IUPAC ambiguity pairs (S, W and N are their own complements).
_COMPLEMENT = bytes.maketrans(
    b"ACGTNRYKMBVDHSWacgtnrykmbvdhsw", b"TGCANYRMKVBHDSWtgcanyrmkvbhdsw"
)


def reverse_complement(seq: str) -> str:
    return seq.encode("ascii").translate(_COMPLEMENT)[::-1].decode("ascii")


@dataclass(frozen=True, slots=True)
class ContigSpan:
    """Half-open span of one contig (strand-specific) in the index text."""

    name: str
    start: int
    end: int
    is_reverse: bool


class FMIndex:
    """FM-index over a multi-contig reference, both strands."""

    #: Alphabet of the index text; sentinel first so it sorts lowest.
    ALPHABET = b"\x00ACGNT"

    def __init__(
        self,
        reference: Reference,
        occ_sample: int = 32,
        sa_sample: int = 8,
    ):
        self.reference = reference
        self._occ_sample = occ_sample
        self._sa_sample = sa_sample

        parts: list[bytes] = []
        spans: list[ContigSpan] = []
        offset = 0
        for contig in reference.contigs:
            for is_reverse in (False, True):
                seq = contig.sequence
                if is_reverse:
                    seq = seq.translate(_COMPLEMENT)[::-1]
                spans.append(
                    ContigSpan(contig.name, offset, offset + len(seq), is_reverse)
                )
                parts.append(seq)
                offset += len(seq)
        text = b"".join(parts) + b"\x00"
        self._spans = spans
        self._text_len = len(text)
        self._span_starts = np.asarray([s.start for s in spans], dtype=np.int64)

        sa = build_suffix_array(text)
        bwt = bwt_from_suffix_array(text, sa)
        # Sampled suffix array: keep SA[i] where i % sa_sample == 0.
        self._sa_samples = sa[::sa_sample].copy()

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

    # -- rank/search --------------------------------------------------------
    def _rank(self, code: int, row: int) -> int:
        """Occurrences of character ``code`` in bwt[:row]."""
        checkpoint = row // self._occ_sample
        base = self._occ[checkpoint, code]
        start = checkpoint * self._occ_sample
        if row > start:
            base += int(np.count_nonzero(self._bwt_codes[start:row] == code))
        return int(base)

    def backward_search(self, pattern: str) -> tuple[int, int]:
        """(lo, hi) interval of rows whose suffixes start with ``pattern``.

        Empty interval (lo >= hi) means no exact occurrence.  ``N`` in the
        pattern never matches (as in BWA's exact-seed phase).
        """
        lo, hi = 0, self._text_len
        for char in reversed(pattern):
            code = self._code_of[ord(char)]
            if code < 0 or char == "N":
                return (0, 0)
            lo = int(self._C[code]) + self._rank(int(code), lo)
            hi = int(self._C[code]) + self._rank(int(code), hi)
            if lo >= hi:
                return (0, 0)
        return lo, hi

    def count(self, pattern: str) -> int:
        lo, hi = self.backward_search(pattern)
        return hi - lo

    def extend_left(self, char: str, lo: int, hi: int) -> tuple[int, int]:
        """One backward-search step; the primitive SMEM extraction uses."""
        code = self._code_of[ord(char)]
        if code < 0 or char == "N":
            return (0, 0)
        new_lo = int(self._C[code]) + self._rank(int(code), lo)
        new_hi = int(self._C[code]) + self._rank(int(code), hi)
        return (new_lo, new_hi) if new_lo < new_hi else (0, 0)

    def search_codes(self, text: bytes) -> np.ndarray:
        """Per-byte character codes of ``text`` for :meth:`extend_left_batch`.

        ``N``, lowercase and any byte outside the alphabet map to -1, which
        ends a search exactly where :meth:`extend_left` would.
        """
        codes = self._code_of[np.frombuffer(text, dtype=np.uint8)]
        codes[codes == self._code_of[ord("N")]] = -1
        return codes

    def extend_left_batch(
        self, codes: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`extend_left` for many independent lanes at once.

        Lane ``i`` extends ``(lo[i], hi[i])`` by the character whose code
        (from :meth:`search_codes`) is ``codes[i]``.  A negative code or an
        emptied interval yields ``(0, 0)``, as in the scalar step.
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
        """:meth:`_rank` per lane: the occ checkpoint at or below ``row``
        plus a masked compare over the ``occ_sample``-byte BWT block that
        starts at that checkpoint, gathered from a reshaped view of the
        padded BWT (small uint8 temporaries, no index matrix)."""
        sample = self._occ_sample
        checkpoint = rows // sample
        window = self._bwt_codes.reshape(-1, sample)[checkpoint]
        hits = window == codes.astype(np.uint8)[:, None]
        hits &= np.arange(sample) < (rows - checkpoint * sample)[:, None]
        return self._occ[checkpoint, codes] + np.count_nonzero(hits, axis=1)

    # -- locate ------------------------------------------------------------
    def _suffix_position(self, row: int) -> int:
        """Text position of the suffix at BWT row ``row`` (LF-walk)."""
        steps = 0
        while row % self._sa_sample != 0:
            code = int(self._bwt_codes[row])
            row = int(self._C[code]) + self._rank(code, row)
            steps += 1
        return int(self._sa_samples[row // self._sa_sample]) + steps

    def locate(self, lo: int, hi: int, limit: int = 64) -> list[tuple[str, int, bool]]:
        """Map interval rows to ``(contig, position, is_reverse)`` hits.

        ``position`` is the 0-based offset on the *forward* strand where
        the pattern occurrence begins for forward hits; for reverse-strand
        hits it is the offset within the reversed sequence (callers convert
        via :meth:`to_forward_position`).  At most ``limit`` hits are
        returned (repetitive seeds are truncated, as in BWA).
        """
        hits: list[tuple[str, int, bool]] = []
        for row in range(lo, min(hi, lo + limit)):
            pos = self._suffix_position(row)
            if pos >= self._text_len - 1:  # the sentinel row
                continue
            span = self._span_for(pos)
            hits.append((span.name, pos - span.start, span.is_reverse))
        return hits

    def _span_for(self, pos: int) -> ContigSpan:
        idx = int(np.searchsorted(self._span_starts, pos, side="right")) - 1
        span = self._spans[idx]
        if not (span.start <= pos < span.end):
            raise IndexError(f"position {pos} outside any contig span")
        return span

    def to_forward_position(
        self, contig: str, offset: int, match_len: int, is_reverse: bool
    ) -> int:
        """Convert a reverse-strand index offset to a forward-strand start."""
        if not is_reverse:
            return offset
        contig_len = len(self.reference[contig])
        return contig_len - offset - match_len

    # -- introspection -----------------------------------------------------
    @property
    def text_length(self) -> int:
        return self._text_len

    def memory_bytes(self) -> int:
        """Approximate index footprint (bwt + occ + sa samples)."""
        return (
            self._bwt_codes.nbytes + self._occ.nbytes + self._sa_samples.nbytes
        )
