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
from typing import Sequence

import numpy as np

from repro.compression.records import (
    _Columns,
    _batches,
    _block_arrays,
    _encode_qualities,
    _sam_fields,
    _sam_records,
    _sam_tags,
    _sequence_text,
    _split,
    _strings,
    _text,
)
from repro.compression.twobit import compress_block
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


class RefBasedSamCodec:
    """Batch codec: reference-diff sequences + delta/Huffman qualities.

    Drop-in alternative to :class:`repro.compression.records.SamCodec`
    for contexts that hold the reference (all of GPF's Processes do).
    Its batch is ``SamCodec``'s layout with one more length column, each
    record's diff bytes (0 for a record 2-bit packed instead), and the
    diffs as one more byte column ahead of the 2-bit run, which holds
    only the 2-bit packed records.  The read-length column counts QUAL.
    """

    def __init__(self, reference: Reference):
        self.reference = reference

    def encode(self, records: Sequence[SamRecord]) -> bytes:
        """Serialize a batch with reference-diff sequences where possible."""
        records = list(records)
        diffs = [encode_against_reference(r, self.reference) or b"" for r in records]
        twobit = [r for r, diff in zip(records, diffs) if not diff]
        seq, qual, reads = _block_arrays(
            [r.seq for r in twobit], [r.qual if r.seq else "" for r in twobit], strict=False
        )
        packed, _ = compress_block(seq, qual, reads.sum(keepdims=True))
        masked = iter(_split(qual.tobytes().decode("ascii"), reads.tolist()))
        quals = [rec.qual if diff else next(masked) for rec, diff in zip(records, diffs)]
        qual_len = np.fromiter(map(len, quals), np.int64, len(quals))
        table, streams, nbytes = _encode_qualities(
            np.frombuffer("".join(quals).encode("ascii"), dtype=np.uint8), qual_len
        )
        texts, _, _, ints = _sam_fields(records, strict=False)
        texts = [_text(values) for values in texts]
        lengths = [n for n, _ in texts] + [qual_len, nbytes, np.array([len(d) for d in diffs])]
        sections = [[data] for _, data in texts] + [[b"".join(diffs)], [packed], [streams]]
        ends = np.array([len(records)])
        return _batches(table, ends, lengths, ints, sections + [[_sam_tags(records)]])[0]

    def decode(self, blob: bytes) -> list[SamRecord]:
        """Inverse of :meth:`encode`; reconstructs sequences from the reference."""
        cols = _Columns([blob], 7, 5, lambda lens: [
            *lens[:4].sum(axis=1),
            lens[6].sum(),
            (lens[4][lens[6] == 0].sum() + 3) >> 2,
            lens[5].sum(),
        ])
        *texts, diffs, packed, streams, tags = cols.pieces
        qual_len, nbytes, diff_len = cols.lengths[4:]
        qual = cols.qualities(qual_len, nbytes, streams)
        twobit = diff_len == 0
        bases = cols.bases(packed, qual[twobit.repeat(qual_len)], np.where(twobit, qual_len, 0))
        seqs = iter(_sequence_text(bases, qual_len[twobit]))
        texts = [_strings(pieces, n) for pieces, n in zip(texts, cols.lengths)]
        quals = _sequence_text(qual, qual_len)
        records = _sam_records(cols, texts, [""] * twobit.size, quals, tags)
        diffs = b"".join(diffs)
        bounds = [0] + diff_len.cumsum().tolist()
        for rec, a, b in zip(records, bounds, bounds[1:]):
            if a == b:
                rec.seq = next(seqs)
            else:
                rec.seq = decode_against_reference(
                    diffs[a:b], rec.pos, rec.rname, rec.cigar, self.reference
                )
        return records
