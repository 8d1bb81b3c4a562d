"""Reference record codecs for the differential tests: one record at a time.

The batch layout of ``repro.compression.records`` written and read the
slow, obvious way: every length and integer packed one ``struct`` value at
a time, every record's qualities Huffman-coded on their own and decoded
by walking the code tree bit by bit.  It is the oracle: the block codec
must write the same bytes and decode to the same records.  It imports
nothing from ``repro.compression`` (bar the reference-diff helpers the
reference-based codec is built on) so that a change there cannot move
the oracle with it.
"""

from __future__ import annotations

import heapq
import pickle
import struct
from dataclasses import dataclass

import numpy as np

from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord

EOF_SYMBOL = 0x10000
_NO_SYMBOL = -(2**31)
_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _code, _base in enumerate("AGCT"):
    _ENCODE_LUT[ord(_base)] = _code
_CODE_TO_BASE = np.frombuffer(b"AGCT", dtype=np.uint8)
MASK = "!"


class Unsupported(ValueError):
    """The reference's strict-mode refusal."""


# -- Huffman: heap of nodes, canonical codes as bit arrays, tree walk ------
@dataclass(frozen=True)
class _Node:
    weight: int
    order: int
    symbol: int | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None

    def __lt__(self, other: "_Node") -> bool:
        return (self.weight, self.order) < (other.weight, other.order)


class RefHuffman:
    def __init__(self, code_lengths: dict[int, int]):
        if EOF_SYMBOL not in code_lengths:
            raise ValueError("codec must include the EOF symbol")
        self.lengths = dict(code_lengths)
        ordered = sorted(self.lengths.items(), key=lambda kv: (kv[1], kv[0]))
        self.codes: dict[int, list[int]] = {}
        code = prev = 0
        for symbol, length in ordered:
            code <<= length - prev
            self.codes[symbol] = [(code >> (length - 1 - i)) & 1 for i in range(length)]
            code += 1
            prev = length
        left, right, symbols = [-1], [-1], [_NO_SYMBOL]
        for symbol, bits in self.codes.items():
            node = 0
            for bit in bits:
                children = right if bit else left
                if children[node] == -1:
                    left.append(-1)
                    right.append(-1)
                    symbols.append(_NO_SYMBOL)
                    children[node] = len(symbols) - 1
                node = children[node]
            symbols[node] = symbol
        self.left, self.right, self.symbols = left, right, symbols

    @classmethod
    def from_frequencies(cls, freqs: dict[int, int]) -> "RefHuffman":
        counts = {int(s): int(c) for s, c in freqs.items() if c > 0}
        counts[EOF_SYMBOL] = counts.get(EOF_SYMBOL, 0) + 1
        if len(counts) == 1:
            counts[0] = counts.get(0, 0) + 1
        heap = [_Node(w, i, symbol=s) for i, (s, w) in enumerate(sorted(counts.items()))]
        heapq.heapify(heap)
        order = len(heap)
        while len(heap) > 1:
            a = heapq.heappop(heap)
            b = heapq.heappop(heap)
            heapq.heappush(heap, _Node(a.weight + b.weight, order, left=a, right=b))
            order += 1
        lengths: dict[int, int] = {}
        stack = [(heap[0], 0)]
        while stack:
            node, depth = stack.pop()
            if node.symbol is not None:
                lengths[node.symbol] = max(depth, 1)
            else:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
        return cls(lengths)

    def encode(self, symbols) -> bytes:
        bits: list[int] = []
        for sym in list(np.asarray(symbols, dtype=np.int64).tolist()) + [EOF_SYMBOL]:
            if sym not in self.codes:
                raise ValueError(f"symbol {sym} not in codec alphabet")
            bits += self.codes[sym]
        return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()

    def decode(self, blob: bytes) -> list[int]:
        out: list[int] = []
        node = 0
        for bit in np.unpackbits(np.frombuffer(blob, dtype=np.uint8)).tolist():
            node = self.right[node] if bit else self.left[node]
            if node < 0:
                raise ValueError("invalid bit stream: walked past a leaf")
            sym = self.symbols[node]
            if sym != _NO_SYMBOL:
                if sym == EOF_SYMBOL:
                    return out
                out.append(sym)
                node = 0
        raise ValueError("bit stream ended before EOF symbol")


# -- per-record sequence and quality transforms -----------------------------
def mask_sequence(sequence: str, quality: str) -> tuple[list[int], str]:
    """One record's 2-bit codes, and its quality with the Phred-0 marker on
    every special base (which is coded as ``A``)."""
    if len(sequence) != len(quality):
        raise ValueError("sequence/quality length mismatch")
    seq = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8).copy()
    qual = np.frombuffer(quality.encode("ascii"), dtype=np.uint8).copy()
    special = _ENCODE_LUT[seq] == 255
    if ((~special) & (qual == ord(MASK))).any():
        raise ValueError("reserved Phred-0 score at a regular base")
    seq[special] = ord("A")
    qual[special] = ord(MASK)
    return _ENCODE_LUT[seq].tolist(), qual.tobytes().decode("ascii")


def pack_codes(codes: list[int]) -> bytes:
    """2-bit codes, 4 per byte, first code in the high bits, zero padded."""
    codes = codes + [0] * (-len(codes) % 4)
    return bytes(
        (codes[i] << 6) | (codes[i + 1] << 4) | (codes[i + 2] << 2) | codes[i + 3]
        for i in range(0, len(codes), 4)
    )


def unpack_codes(packed: bytes, count: int) -> list[int]:
    codes = [(byte >> shift) & 3 for byte in packed for shift in (6, 4, 2, 0)]
    if len(packed) != (count + 3) // 4:
        raise ValueError("2-bit run has the wrong size")
    return codes[:count]


def unmask(codes: list[int], masked_quality: str) -> str:
    return "".join(
        "N" if q == MASK else chr(_CODE_TO_BASE[c]) for c, q in zip(codes, masked_quality)
    )


def delta_encode(quality: str) -> np.ndarray:
    raw = np.frombuffer(quality.encode("ascii"), dtype=np.uint8).astype(np.int16)
    if raw.size == 0:
        return raw
    return np.concatenate([raw[:1], np.diff(raw)])


def delta_decode(deltas) -> str:
    raw = np.cumsum(np.asarray(deltas, dtype=np.int16), dtype=np.int64)
    if raw.size and (raw.min() < 0 or raw.max() > 255):
        raise ValueError("delta stream decodes outside byte range")
    return raw.astype(np.uint8).tobytes().decode("ascii")


def roundtrip_safe(sequence: str, quality: str) -> bool:
    if len(sequence) != len(quality):
        return False
    try:
        seq = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
        qual = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return False
    special = _ENCODE_LUT[seq] == 255
    bad_special = special & ~((seq == ord("N")) & (qual == ord(MASK)))
    collision = (~special) & (qual == ord(MASK))
    return not (bad_special.any() or collision.any())


# -- batch layout: header, length columns, integer columns, byte columns -------
def _table(lengths: dict[int, int]) -> bytes:
    return ",".join(f"{s}:{l}" for s, l in sorted(lengths.items())).encode("ascii")


def _read_table(blob: bytes) -> dict[int, int]:
    return {int(s): int(l) for s, l in (t.split(":") for t in blob.decode("ascii").split(","))}


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def quality_codec(masked: list[str]) -> RefHuffman:
    """The Huffman codec built from these qualities' deltas."""
    freqs: dict[int, int] = {}
    for quality in masked:
        for s in delta_encode(quality).tolist():
            freqs[s] = freqs.get(s, 0) + 1
    return RefHuffman.from_frequencies(freqs)


def _batch(codec: RefHuffman, lengths: list[list[int]], ints: list[list[int]], sections: list[bytes]) -> bytes:
    out = struct.pack("<I", len(lengths[0])) + struct.pack("<I", len(_table(codec.lengths)))
    out += _table(codec.lengths)
    top = max((v for column in lengths for v in column), default=0)
    fmt = "<B" if top < 256 else "<H" if top < 65536 else "<I"
    out += struct.pack("<B", struct.calcsize(fmt))
    for column in lengths:
        for value in column:
            out += struct.pack(fmt, value)
    for column in ints:
        for value in column:
            out += struct.pack("<q", value)
    for section in sections:
        out += section
    return out


class _Reader:
    """Walks a batch front to back: header, columns, then sections."""

    def __init__(self, data: bytes, nlengths: int, nints: int) -> None:
        self.data, self.off = bytes(data), 0
        self.count = self.num("<I")
        self.codec = RefHuffman(_read_table(self.take(self.num("<I"))))
        fmt = {1: "<B", 2: "<H", 4: "<I"}[self.num("<B")]
        self.lengths = [[self.num(fmt) for _ in range(self.count)] for _ in range(nlengths)]
        self.ints = [[self.num("<q") for _ in range(self.count)] for _ in range(nints)]

    def num(self, fmt: str) -> int:
        (value,) = struct.unpack_from(fmt, self.data, self.off)
        self.off += struct.calcsize(fmt)
        return value

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ValueError("truncated batch")
        self.off += n
        return self.data[self.off - n : self.off]

    def pieces(self, lengths: list[int]) -> list[bytes]:
        return [self.take(n) for n in lengths]

    def strings(self, lengths: list[int]) -> list[str]:
        return [piece.decode("utf-8", "surrogatepass") for piece in self.pieces(lengths)]

    def qualities(self, nbytes: list[int]) -> list[str]:
        return [delta_decode(self.codec.decode(piece)) for piece in self.pieces(nbytes)]


def fastq_encode(records: list[FastqRecord], strict: bool = False, shared=None) -> bytes:
    """One batch; ``shared``: the records whose qualities build the table
    (a group of an encode pass shares the pass's table)."""
    codes, masked = [], []
    for rec in records:
        if strict and not roundtrip_safe(rec.sequence, rec.quality):
            raise Unsupported(rec.name)
        rec_codes, qual = mask_sequence(rec.sequence, rec.quality)
        codes += rec_codes
        masked.append(qual)
    if shared is None:
        codec = quality_codec(masked)
    else:
        codec = quality_codec([mask_sequence(r.sequence, r.quality)[1] for r in shared])
    streams = [codec.encode(delta_encode(q)) for q in masked]
    names = [_utf8(rec.name) for rec in records]
    return _batch(
        codec,
        [[len(n) for n in names], [len(r.sequence) for r in records], [len(s) for s in streams]],
        [],
        [b"".join(names), pack_codes(codes), b"".join(streams)],
    )


def fastq_decode(blob: bytes) -> list[FastqRecord]:
    reader = _Reader(blob, 3, 0)
    name_len, reads, nbytes = reader.lengths
    names = reader.strings(name_len)
    codes = unpack_codes(reader.take((sum(reads) + 3) // 4), sum(reads))
    quals = reader.qualities(nbytes)
    if reader.off != len(reader.data):
        raise ValueError("trailing bytes")
    records, at = [], 0
    for name, n, qual in zip(names, reads, quals):
        if len(qual) != n:
            raise ValueError("sequence and quality lengths differ")
        records.append(FastqRecord(name, unmask(codes[at : at + n], qual), qual))
        at += n
    return records


def _sam_text(rec: SamRecord) -> list[bytes]:
    return [_utf8(rec.qname), _utf8(rec.rname), _utf8(rec.rnext), _utf8(str(rec.cigar))]


def _check_sam(rec: SamRecord) -> None:
    if rec.seq and not roundtrip_safe(rec.seq, rec.qual):
        raise Unsupported(rec.qname)
    if rec.qual and not rec.seq:
        raise Unsupported(rec.qname)
    if any(type(v) is not int for v in (rec.flag, rec.pos, rec.mapq, rec.pnext, rec.tlen)):
        raise Unsupported(rec.qname)


def _sam_ints(records: list[SamRecord]) -> list[list[int]]:
    return [[r.flag for r in records], [r.pos for r in records], [r.mapq for r in records],
            [r.pnext for r in records], [r.tlen for r in records]]


def _tags(records: list[SamRecord]) -> bytes:
    return pickle.dumps([rec.tags for rec in records], protocol=pickle.HIGHEST_PROTOCOL)


def sam_encode(records: list[SamRecord], strict: bool = False, shared=None) -> bytes:
    """One batch (``shared`` as in :func:`fastq_encode`); a QUAL without a
    SEQ is refused under ``strict`` and dropped without it."""
    def masked_of(rec: SamRecord) -> tuple[list[int], str]:
        return mask_sequence(rec.seq, rec.qual) if rec.seq else ([], "")

    codes, masked = [], []
    for rec in records:
        if strict:
            _check_sam(rec)
        rec_codes, qual = masked_of(rec)
        codes += rec_codes
        masked.append(qual)
    codec = quality_codec(masked if shared is None else [masked_of(r)[1] for r in shared])
    streams = [codec.encode(delta_encode(q)) for q in masked]
    texts = [_sam_text(rec) for rec in records]
    return _batch(
        codec,
        [[len(t[i]) for t in texts] for i in range(4)]
        + [[len(r.seq) for r in records], [len(s) for s in streams]],
        _sam_ints(records),
        [b"".join(t[i] for t in texts) for i in range(4)]
        + [pack_codes(codes), b"".join(streams), _tags(records)],
    )


def sam_decode(blob: bytes) -> list[SamRecord]:
    reader = _Reader(blob, 6, 5)
    reads, nbytes = reader.lengths[4:]
    texts = [reader.strings(n) for n in reader.lengths[:4]]
    codes = unpack_codes(reader.take((sum(reads) + 3) // 4), sum(reads))
    quals = reader.qualities(nbytes)
    tags = reader.data[reader.off :]
    seqs, at = [], 0
    for n, qual in zip(reads, quals):
        if len(qual) != n:
            raise ValueError("sequence and quality lengths differ")
        seqs.append(unmask(codes[at : at + n], qual))
        at += n
    return _records(reader, texts, seqs, quals, tags)


def _records(reader: _Reader, texts: list, seqs, quals, tags: bytes) -> list[SamRecord]:
    qnames, rnames, rnexts, cigars = texts
    tag_dicts = pickle.loads(tags)
    if len(tag_dicts) != reader.count:
        raise ValueError("tag column has the wrong length")
    flag, pos, mapq, pnext, tlen = reader.ints
    return [
        SamRecord(qnames[i], flag[i], rnames[i], pos[i], mapq[i], Cigar.parse(cigars[i]),
                  rnexts[i], pnext[i], tlen[i], seqs[i], quals[i], tag_dicts[i])
        for i in range(reader.count)
    ]


def refbased_encode(records: list[SamRecord], reference) -> bytes:
    from repro.compression.refbased import encode_against_reference

    diffs, codes, masked = [], [], []
    for rec in records:
        diff = encode_against_reference(rec, reference)
        if diff is not None:
            diffs.append(diff)
            masked.append(rec.qual)
        else:
            rec_codes, qual = mask_sequence(rec.seq, rec.qual) if rec.seq else ([], "")
            diffs.append(b"")
            codes += rec_codes
            masked.append(qual)
    codec = quality_codec(masked)
    streams = [codec.encode(delta_encode(q)) for q in masked]
    texts = [_sam_text(rec) for rec in records]
    return _batch(
        codec,
        [[len(t[i]) for t in texts] for i in range(4)]
        + [[len(q) for q in masked], [len(s) for s in streams], [len(d) for d in diffs]],
        _sam_ints(records),
        [b"".join(t[i] for t in texts) for i in range(4)]
        + [b"".join(diffs), pack_codes(codes), b"".join(streams), _tags(records)],
    )


def refbased_decode(blob: bytes, reference) -> list[SamRecord]:
    from repro.compression.refbased import decode_against_reference

    reader = _Reader(blob, 7, 5)
    qual_len, nbytes, diff_len = reader.lengths[4:]
    texts = [reader.strings(n) for n in reader.lengths[:4]]
    diffs = reader.pieces(diff_len)
    twobit = sum(n for n, d in zip(qual_len, diff_len) if d == 0)
    codes = unpack_codes(reader.take((twobit + 3) // 4), twobit)
    quals = reader.qualities(nbytes)
    tags = reader.data[reader.off :]
    records = _records(reader, texts, [""] * reader.count, quals, tags)
    at = 0
    for rec, n, diff in zip(records, qual_len, diffs):
        if len(rec.qual) != n:
            raise ValueError("quality length differs")
        if diff:
            rec.seq = decode_against_reference(diff, rec.pos, rec.rname, rec.cigar, reference)
        else:
            rec.seq = unmask(codes[at : at + n], rec.qual)
            at += n
    return records
