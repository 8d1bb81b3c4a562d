"""Reference-based SAM sequence compression (a CRAM-style extension).

The paper's conclusion notes that "serialization and compression formats
will inevitably evolve"; the natural next step after 2-bit packing is to
drop aligned sequences entirely and store only their *differences* from
the reference — what CRAM does.  For each mapped record the codec stores:

- the alignment anchor (pos + CIGAR, already in the record's framing),
- mismatching bases as ``(query_offset, base)`` pairs,
- inserted and soft-clipped bases verbatim (they have no reference),

and reconstructs the full sequence at decode time by walking the CIGAR
over the reference.  Unmapped records fall back to 2-bit packing.

On real data most aligned reads have 0-3 mismatches, so sequence storage
drops from len/4 bytes (2-bit) to a handful of bytes per read.  The codec
needs the reference at *both* ends, which GPF satisfies by broadcast —
the same reference every Process already holds.
"""

from __future__ import annotations

import struct
from itertools import compress
from typing import Sequence

import numpy as np

from repro.compression.records import (
    _block_arrays,
    _decode_qualities,
    _encode_qualities,
    _frame,
    _passes,
    _sam_extras,
    _sam_from_extra,
    _serialize_table,
    _split,
    _strings,
)
from repro.compression.twobit import compress_block, decompress_block
from repro.formats.fasta import Reference
from repro.formats.sam import SamRecord


def encode_against_reference(rec: SamRecord, reference: Reference) -> bytes | None:
    """Difference encoding of one mapped record's sequence.

    Returns None when the record cannot be reference-encoded (unmapped,
    empty sequence, contig missing) — callers fall back to 2-bit packing.

    Layout: ``[u16 n_diff][(u16 offset, u8 base) * n_diff]`` where diffs
    cover mismatches AND all query bases without a reference counterpart
    (insertions, soft clips), identified by their query offset.
    """
    if rec.is_unmapped or not rec.seq or rec.rname not in reference:
        return None
    contig = reference[rec.rname]
    seq = rec.seq
    diffs: list[tuple[int, str]] = []
    for ref_pos, query_idx, op in rec.cigar.walk(rec.pos):
        if query_idx is None:
            continue  # deletion: no query base
        base = seq[query_idx]
        if ref_pos is None or ref_pos >= len(contig):
            diffs.append((query_idx, base))  # insertion / clip / overhang
        elif chr(contig.sequence[ref_pos]) != base:
            diffs.append((query_idx, base))
    if rec.cigar.query_length() != len(seq):
        return None  # malformed CIGAR; cannot reconstruct
    out = struct.pack("<HH", len(seq), len(diffs))
    for offset, base in diffs:
        out += struct.pack("<HB", offset, ord(base))
    return out


def decode_against_reference(
    blob: bytes, rec_pos: int, rname: str, cigar, reference: Reference
) -> str:
    """Inverse of :func:`encode_against_reference`."""
    seq_len, n_diff = struct.unpack_from("<HH", blob, 0)
    contig = reference[rname]
    out = bytearray(b"?" * seq_len)
    for ref_pos, query_idx, op in cigar.walk(rec_pos):
        if query_idx is None:
            continue
        if ref_pos is not None and ref_pos < len(contig):
            out[query_idx] = contig.sequence[ref_pos]
    offset = 4
    for _ in range(n_diff):
        query_idx, base = struct.unpack_from("<HB", blob, offset)
        offset += 3
        out[query_idx] = base
    return out.decode("ascii")


#: Per-record frame tags inside a reference-based batch.
_REF_ENCODED = 0
_TWOBIT_FALLBACK = 1


class RefBasedSamCodec:
    """Batch codec: reference-diff sequences + delta/Huffman qualities.

    Drop-in alternative to :class:`repro.compression.records.SamCodec`
    for contexts that hold the reference (all of GPF's Processes do).
    """

    def __init__(self, reference: Reference):
        self.reference = reference

    def encode(self, records: Sequence[SamRecord]) -> bytes:
        """Serialize a batch with reference-diff sequences where possible."""
        ref_blobs = [encode_against_reference(r, self.reference) for r in records]
        twobit = [r for r, ref in zip(records, ref_blobs) if ref is None and r.seq]
        seq, qual, lengths = _block_arrays(
            [r.seq for r in twobit], [r.qual for r in twobit], strict=False
        )
        packed = iter(compress_block(seq, qual, lengths))
        masked = iter(_split(qual.tobytes().decode("ascii"), lengths))
        tags, seq_blobs, quals = [], [], []
        for rec, ref_blob in zip(records, ref_blobs):
            if ref_blob is not None:
                tags.append(_REF_ENCODED)
                seq_blobs.append(ref_blob)
                quals.append(rec.qual)
            else:
                tags.append(_TWOBIT_FALLBACK)
                seq_blobs.append(next(packed) if rec.seq else b"")
                quals.append(next(masked) if rec.seq else "")
        lengths = np.array([len(q) for q in quals], dtype=np.int64)
        qual = np.frombuffer("".join(quals).encode("ascii"), dtype=np.uint8)
        codec, qual_blobs = _encode_qualities(qual, lengths)
        columns = [
            ("h", tags),
            ("H", [r.qname.encode("ascii") for r in records]),
            ("I", seq_blobs),
            ("I", qual_blobs),
            ("I", _sam_extras(records, strict=False)),
        ]
        [blob] = _frame(_serialize_table(codec.code_lengths()), columns, [len(records)])
        return blob

    def decode(self, blob: bytes) -> list[SamRecord]:
        """Inverse of :meth:`encode`; reconstructs sequences from the reference."""
        records: list[SamRecord] = []
        for codecs, owner, (tags, names, seq_blobs, quals, extras) in _passes(
            [blob], "hHIII"
        ):
            qual, lengths = _decode_qualities(codecs, owner, quals)
            twobit = np.array(tags, dtype=np.int64) != _REF_ENCODED
            bases = decompress_block(
                list(compress(seq_blobs, twobit)),
                qual[twobit.repeat(lengths)],
                lengths[twobit],
            )
            seqs = iter(_split(bases.tobytes().decode("ascii"), lengths[twobit]))
            quals = _split(qual.tobytes().decode("ascii"), lengths)
            for tag, name, seq_blob, qual_text, line in zip(
                tags, _strings(names), seq_blobs, quals, _strings(extras)
            ):
                if tag == _REF_ENCODED:
                    # Build the record shell first (pos/cigar live in extra).
                    rec = _sam_from_extra(name, "", qual_text, line)
                    rec.seq = decode_against_reference(
                        seq_blob, rec.pos, rec.rname, rec.cigar, self.reference
                    )
                else:
                    rec = _sam_from_extra(name, next(seqs), qual_text, line)
                records.append(rec)
        return records
