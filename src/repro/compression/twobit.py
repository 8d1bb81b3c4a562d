"""2-bit base-sequence packing with the special-character-to-quality trick.

Paper Fig. 4: the encoding is ``A:00 G:01 C:10 T:11``.  A non-ACGT base
(``N`` and IUPAC ambiguity codes) is rewritten to ``A`` and its quality
score is set to 0 — legal Phred scores of real reads are >= 1 in this
scheme (the paper notes the range 33..126 for the raw ASCII, i.e. score
0 is never produced by a sequencer) — so the decoder can recognize
"A with quality 0" as a masked special character.

The ``*_block`` functions take a whole block of records laid end to end
in one array, in a few NumPy passes, and pack their bases as runs (a
record batch is one run), 4 bases per byte, each run zero padded to a
whole byte.  The per-sequence functions are their one-record case, with
a length header::

    [length: u32 little-endian][packed 2-bit bases, 4 per byte, zero padded]
"""

from __future__ import annotations

import numpy as np

#: Paper's code assignment (Fig. 4).
BASE_TO_CODE = {"A": 0, "G": 1, "C": 2, "T": 3}
CODE_TO_BASE = np.frombuffer(b"AGCT", dtype=np.uint8)

#: ASCII lookup: base byte -> 2-bit code, 255 for non-ACGT.
_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _base, _code in BASE_TO_CODE.items():
    _ENCODE_LUT[ord(_base)] = _code

#: Quality character marking a masked special base: Phred 0, ASCII '!'.
#: Real reads must have Phred >= 1, which repro.sim guarantees and real
#: Illumina data satisfies (minimum reported quality is 2).
MASK_QUAL_CHAR = "!"
_MASK = ord(MASK_QUAL_CHAR)
_SHIFTS = np.array([6, 4, 2, 0], dtype=np.uint8)


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _pack(codes: np.ndarray, runs: np.ndarray) -> tuple[bytes, list[int]]:
    """Runs of ``runs[i]`` 2-bit codes, 4 per byte, each zero padded to a
    whole byte: the packed bytes back to back and the run boundaries in
    them.  A record batch is one run, so there are few."""
    bounds = [0] + ((runs + 3) >> 2).cumsum().tolist()
    ends = runs.cumsum().tolist()
    slots = np.zeros(4 * bounds[-1], dtype=np.uint8)
    for start, end, at in zip([0] + ends, ends, bounds):
        slots[4 * at : 4 * at + end - start] = codes[start:end]
    packed = (slots.reshape(-1, 4) << _SHIFTS).sum(axis=1, dtype=np.uint8)
    return packed.tobytes(), bounds


def _unpack(packed: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack`: the runs' bases as ASCII, end to end."""
    codes = ((packed[:, None] >> _SHIFTS) & 3).ravel()
    starts = 4 * (((runs + 3) >> 2).cumsum() - ((runs + 3) >> 2))
    if runs.size > 1:
        codes = np.concatenate([codes[a : a + n] for a, n in zip(starts.tolist(), runs.tolist())])
    return CODE_TO_BASE[codes[: int(runs.sum())]]


def _mask(seq: np.ndarray, qual: np.ndarray) -> np.ndarray:
    """2-bit codes of ``seq``, each special base rewritten to ``A`` with its
    quality (in ``qual``, in place) set to the Phred-0 marker."""
    if seq.size != qual.size:
        raise ValueError("sequence/quality length mismatch")
    codes = _ENCODE_LUT[seq]
    special = codes == 255
    if (qual[~special] == _MASK).any():
        raise ValueError(
            "quality uses the reserved Phred-0 score at a regular base; "
            "cannot mask special characters unambiguously"
        )
    codes[special] = 0
    qual[special] = _MASK
    return codes


def pack_bases(sequence: str) -> np.ndarray:
    """Pack an ACGT-only sequence into a uint8 array, 4 bases per byte.

    Raises ``ValueError`` on non-ACGT characters — callers must mask
    specials first (see :func:`compress_sequence`).
    """
    raw = _ascii(sequence)
    codes = _ENCODE_LUT[raw]
    if codes.max(initial=0) == 255:
        bad = sorted({chr(b) for b in raw[codes == 255]})
        raise ValueError(f"cannot 2-bit pack non-ACGT characters: {bad}")
    return np.frombuffer(_pack(codes, np.array([codes.size]))[0], dtype=np.uint8)


def unpack_bases(packed: np.ndarray, length: int) -> str:
    """Inverse of :func:`pack_bases`."""
    packed = np.asarray(packed, dtype=np.uint8)
    return _unpack(packed, np.array([length])).tobytes().decode("ascii")


def mask_special_bases(sequence: str, quality: str) -> tuple[str, str]:
    """Rewrite non-ACGT bases to ``A`` and their qualities to Phred 0.

    Returns the masked (sequence, quality) pair.  Raises if the input
    quality already uses Phred 0 at a real (ACGT) base, which would make
    decompression ambiguous.
    """
    qual = _ascii(quality).copy()
    codes = _mask(_ascii(sequence), qual)
    return CODE_TO_BASE[codes].tobytes().decode("ascii"), qual.tobytes().decode("ascii")


def unmask_special_bases(sequence: str, quality: str) -> str:
    """Restore ``N`` at every position where quality is the Phred-0 marker."""
    seq = _ascii(sequence).copy()
    seq[_ascii(quality) == _MASK] = ord("N")
    return seq.tobytes().decode("ascii")


def compress_block(seq: np.ndarray, qual: np.ndarray, runs: np.ndarray) -> tuple[bytes, list[int]]:
    """The 2-bit codes of records laid end to end in ``seq`` and ``qual``
    (ASCII ``uint8``), packed as runs of ``runs[i]`` bases, each run from a
    fresh byte: the packed runs back to back and the run boundaries in
    them.  ``qual`` is masked in place."""
    return _pack(_mask(seq, qual), runs)


def decompress_block(packed, qual: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`compress_block`: the bases laid end to end, ``N``
    restored wherever the masked quality holds the marker."""
    if int(runs.sum()) != qual.size:
        raise ValueError("sequence and quality lengths differ")
    if len(packed) != int(((runs + 3) >> 2).sum()):
        raise ValueError("truncated 2-bit sequence run")
    bases = _unpack(np.frombuffer(packed, dtype=np.uint8), runs)
    bases[qual == _MASK] = ord("N")
    return bases


def compress_sequence(sequence: str, quality: str) -> tuple[bytes, str]:
    """Compress the sequence field of one record.

    Returns ``(packed_bytes, masked_quality)``.  ``packed_bytes`` is the
    length-prefixed 2-bit packing; ``masked_quality`` carries the Phred-0
    markers for special bases and must be stored alongside (it is what the
    quality codec then compresses).
    """
    qual = _ascii(quality).copy()
    packed, _ = compress_block(_ascii(sequence), qual, np.array([len(sequence)]))
    return len(sequence).to_bytes(4, "little") + packed, qual.tobytes().decode("ascii")


def decompress_sequence(blob: bytes, masked_quality: str) -> str:
    """Inverse of :func:`compress_sequence`; restores special characters."""
    qual = _ascii(masked_quality)
    if len(blob) < 4 or int.from_bytes(blob[:4], "little") != qual.size:
        raise ValueError("sequence and quality lengths differ")
    return decompress_block(blob[4:], qual, np.array([qual.size])).tobytes().decode("ascii")
