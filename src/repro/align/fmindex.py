"""FM-index: BWT + full LF table + the whole suffix array.

The index is built over the concatenation of all reference contigs and
their reverse complements (as BWA does, so reverse-strand seeds are found
by the same forward search) with a 0 sentinel at the end.  A pattern's
suffix-array interval is ``(0, text_length)`` narrowed by its characters
right to left: :meth:`FMIndex.extend_lanes` runs the searches of many
lanes in lockstep, and :meth:`FMIndex.locate_batch` maps intervals to
forward-strand hits.

BWA samples its occurrence table and suffix array because its text is
gigabases long; this text is tens of kilobytes, so both are kept whole.
The LF table ``lf[c, row] = C[c] + occ(c, bwt[:row])`` is 6 x (n + 1)
int32 (24 bytes per text byte), so a search step is two gathers; the
int32 suffix array makes locating a slice.  The table is derived from the
1-byte BWT codes: a pickled index leaves it out and unpickling rebuilds
it, so a shipped aligner carries only the BWT and the suffix array.
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
    return data[np.asarray(suffix_array) - 1]  # index -1 wraps to the sentinel


class FMIndex:
    """FM-index over a multi-contig reference, both strands."""

    #: Alphabet of the index text; sentinel first so it sorts lowest.
    ALPHABET = b"\x00ACGNT"

    def __init__(self, reference: Reference):
        strands: list[bytes] = []
        for contig in reference.contigs:
            strands += [contig.sequence, contig.sequence.translate(_COMPLEMENT)[::-1]]
        text = b"".join(strands) + b"\x00"
        self._text_len = len(text)
        # Contig k's forward strand is span 2k and its reverse complement
        # span 2k + 1; span s covers text[bounds[s]:bounds[s + 1]].
        self._contig_names = [contig.name for contig in reference.contigs]
        self._span_bounds = np.cumsum([0] + [len(s) for s in strands], dtype=np.int64)

        self._sa = build_suffix_array(text)
        # Character codes 0..5 over the fixed alphabet.
        code_of = np.full(256, -1, dtype=np.int8)
        for code, byte in enumerate(self.ALPHABET):
            code_of[byte] = code
        self._code_of = code_of
        bwt_codes = code_of[bwt_from_suffix_array(text, self._sa)]
        if bwt_codes.min() < 0:
            raise ValueError("reference contains bytes outside the ACGTN alphabet")
        self._bwt_codes = bwt_codes.view(np.uint8)
        self._lf = self._lf_table()

    def _lf_table(self) -> np.ndarray:
        """``lf[c, row] = C[c] + occ(c, bwt[:row])``, flattened row-major:
        code ``c``'s row starts at ``c * (text_length + 1)``."""
        lf = np.zeros((len(self.ALPHABET), len(self._bwt_codes) + 1), dtype=np.int32)
        for code, row in enumerate(lf):
            np.cumsum(self._bwt_codes == code, dtype=np.int32, out=row[1:])
        counts = lf[:, -1].copy()
        lf += (np.cumsum(counts) - counts)[:, None]  # C[c]
        return lf.ravel()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lf"]  # derived: 24 bytes per text byte, rebuilt on load
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lf = self._lf_table()

    # -- search -------------------------------------------------------------
    def search_codes(self, text: bytes) -> np.ndarray:
        """Per-byte character codes of ``text`` for the search methods.

        ``N``, lowercase and any byte outside the alphabet map to -1, which
        ends a search there (``N`` never matches, as in BWA's exact-seed
        phase).
        """
        codes = self._code_of[np.frombuffer(text, dtype=np.uint8)]
        codes[codes == self._code_of[ord("N")]] = -1
        return codes

    def extend_lanes(
        self, codes: np.ndarray, ends: np.ndarray, floors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward search of many lanes in lockstep, each as far as it goes.

        Lane ``i`` narrows the whole interval by ``codes[ends[i] - 1]``,
        ``codes[ends[i] - 2]``, ... until a step would empty it or it
        reaches ``floors[i]`` (every code in ``codes[floors[i]:ends[i]]``
        must be valid).  Returns ``(starts, lo, hi)``: lane ``i`` matched
        ``codes[starts[i]:ends[i]]``, with interval ``[lo[i], hi[i])``.
        Lanes are sorted by how far they may go, so a step's lanes are a
        prefix; a stopped lane keeps its state, and the arrays are
        compacted once half the prefix has stopped.
        """
        ends = np.asarray(ends, dtype=np.int64)
        budget = ends - np.asarray(floors, dtype=np.int64)
        starts = ends.copy()
        out = np.zeros((2, len(ends)), dtype=np.int64)
        out[1] = self._text_len
        rows = codes.astype(np.int64) * (self._text_len + 1)
        lane = np.flatnonzero(budget > 0)
        lane = lane[np.argsort(-budget[lane], kind="stable")]
        step = 0
        while lane.size:
            # Per lane: its interval and the position of its next code; a
            # lane that stopped keeps both, so its start is ``at + 1``.
            bounds = out[:, lane]
            at = ends[lane] - 1 - step
            running = np.ones(lane.size, dtype=bool)
            # ``width[t]``: how many lanes (a prefix) may take step t.
            reach = budget[lane]
            widths = np.searchsorted(-reach, -np.arange(step, reach[0]), side="left")
            live = lane.size
            for width in widths.tolist():
                if 2 * live < width:
                    break
                nxt = self._lf[bounds[:, :width] + rows[at[:width]]]
                grew = running[:width]
                grew &= nxt[0] < nxt[1]
                np.copyto(bounds[:, :width], nxt, where=grew)
                at[:width] -= grew
                step += 1
                live = np.count_nonzero(grew)
                if not live:
                    break
            out[:, lane] = bounds
            starts[lane] = at + 1
            lane = lane[running & (reach > step)]
        return starts, out[0], out[1]

    # -- locate ------------------------------------------------------------
    def locate_batch(
        self, lo: np.ndarray, hi: np.ndarray, length: np.ndarray, limit: int = 64
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Hits of the first ``limit`` rows of each interval ``[lo[i], hi[i])``
        of a ``length[i]``-character match, in interval then row order
        (repetitive seeds are truncated, as in BWA): per-hit arrays
        ``(interval, contig, start, is_reverse)``, with the contig's index
        and the 0-based forward-strand start.  A hit at ``pos`` in a
        reverse-complement span ending at ``end`` starts at
        ``end - pos - length``.
        """
        lo = np.asarray(lo, dtype=np.int64)
        count = np.clip(np.asarray(hi, dtype=np.int64) - lo, 0, limit)
        interval = np.repeat(np.arange(len(lo)), count)
        row = np.arange(len(interval)) + np.repeat(lo - (np.cumsum(count) - count), count)
        pos = self._sa[row].astype(np.int64)
        # The sentinel suffix (row 0) only an empty match's interval holds.
        real = pos < self._text_len - 1
        interval, pos = interval[real], pos[real]
        span = np.searchsorted(self._span_bounds, pos, side="right") - 1
        is_reverse = span % 2 == 1
        start = np.where(
            is_reverse,
            self._span_bounds[span + 1] - pos - np.asarray(length)[interval],
            pos - self._span_bounds[span],
        )
        return interval, span // 2, start, is_reverse

    # -- introspection -----------------------------------------------------
    @property
    def text_length(self) -> int:
        return self._text_len

    @property
    def contig_names(self) -> list[str]:
        return self._contig_names
