"""Reference record codecs for the differential tests: one record at a time.

This is the per-record encoder and tree-walk decoder the block codec in
``repro.compression`` replaced, kept here (test side only) as the oracle:
the block codec must write the same bytes and decode to the same records.
It imports nothing from ``repro.compression`` so that a change there
cannot move the oracle with it.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
import numpy as np

from repro.formats.cigar import Cigar
from repro.formats.fastq import FastqRecord
from repro.formats.sam import SamRecord, format_tag, parse_tag

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
def compress_sequence(sequence: str, quality: str) -> tuple[bytes, str]:
    if len(sequence) != len(quality):
        raise ValueError("sequence/quality length mismatch")
    seq = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8).copy()
    qual = np.frombuffer(quality.encode("ascii"), dtype=np.uint8).copy()
    special = _ENCODE_LUT[seq] == 255
    if ((~special) & (qual == ord(MASK))).any():
        raise ValueError("reserved Phred-0 score at a regular base")
    seq[special] = ord("A")
    qual[special] = ord(MASK)
    codes = _ENCODE_LUT[seq]
    codes = np.concatenate([codes, np.zeros((-len(codes)) % 4, dtype=np.uint8)])
    quads = codes.reshape(-1, 4).astype(np.uint8)
    packed = (quads[:, 0] << 6) | (quads[:, 1] << 4) | (quads[:, 2] << 2) | quads[:, 3]
    blob = len(sequence).to_bytes(4, "little") + packed.astype(np.uint8).tobytes()
    return blob, qual.tobytes().decode("ascii")


def decompress_sequence(blob: bytes, masked_quality: str) -> str:
    length = int.from_bytes(blob[:4], "little")
    if length == 0:
        return ""
    packed = np.frombuffer(blob[4:], dtype=np.uint8)
    codes = np.stack([(packed >> s) & 3 for s in (6, 4, 2, 0)], axis=1).reshape(-1)
    seq = _CODE_TO_BASE[codes[:length]].copy()
    qual = np.frombuffer(masked_quality.encode("ascii"), dtype=np.uint8)
    seq[qual == ord(MASK)] = ord("N")
    return seq.tobytes().decode("ascii")


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


# -- batch framing -----------------------------------------------------------
def _table(lengths: dict[int, int]) -> bytes:
    return ",".join(f"{s}:{l}" for s, l in sorted(lengths.items())).encode("ascii")


def _read_table(blob: bytes) -> dict[int, int]:
    return {int(s): int(l) for s, l in (t.split(":") for t in blob.decode("ascii").split(","))}


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data, self.off = data, 0

    def num(self, fmt: str) -> int:
        (value,) = struct.unpack_from(fmt, self.data, self.off)
        self.off += struct.calcsize(fmt)
        return value

    def blob(self, fmt: str = "<I") -> bytes:
        n = self.num(fmt)
        self.off += n
        return self.data[self.off - n : self.off]


def _lp(data: bytes, fmt: str = "<I") -> bytes:
    return struct.pack(fmt, len(data)) + data


def _qualities(masked: list[str]) -> tuple[RefHuffman, list[bytes]]:
    deltas = [delta_encode(q) for q in masked]
    freqs: dict[int, int] = {}
    for arr in deltas:
        for s in arr.tolist():
            freqs[s] = freqs.get(s, 0) + 1
    codec = RefHuffman.from_frequencies(freqs)
    return codec, [codec.encode(arr) for arr in deltas]


def _check_name(name: str) -> None:
    if not name.isascii():
        raise Unsupported(f"non-ascii record name {name!r}")


def fastq_encode(records: list[FastqRecord], strict: bool = False) -> bytes:
    seq_blobs, masked = [], []
    for rec in records:
        if strict:
            _check_name(rec.name)
            if not roundtrip_safe(rec.sequence, rec.quality):
                raise Unsupported(rec.name)
        blob, qual = compress_sequence(rec.sequence, rec.quality)
        seq_blobs.append(blob)
        masked.append(qual)
    codec, qual_blobs = _qualities(masked)
    out = struct.pack("<I", len(records)) + _lp(_table(codec.lengths))
    for rec, seq_blob, qual_blob in zip(records, seq_blobs, qual_blobs):
        out += _lp(rec.name.encode("ascii"), "<H") + _lp(seq_blob) + _lp(qual_blob)
    return out


def fastq_decode(blob: bytes) -> list[FastqRecord]:
    reader = _Reader(blob)
    count = reader.num("<I")
    codec = RefHuffman(_read_table(reader.blob()))
    records = []
    for _ in range(count):
        name = reader.blob("<H").decode("ascii")
        seq_blob = reader.blob()
        qual = delta_decode(codec.decode(reader.blob()))
        records.append(FastqRecord(name, decompress_sequence(seq_blob, qual), qual))
    return records


def sam_extra_fields(rec: SamRecord) -> bytes:
    fields = [str(rec.flag), rec.rname, str(rec.pos), str(rec.mapq), str(rec.cigar),
              rec.rnext, str(rec.pnext), str(rec.tlen)]
    fields += [format_tag(k, v) for k, v in sorted(rec.tags.items())]
    return "\t".join(fields).encode("ascii")


def sam_from_extra(name: str, seq: str, qual: str, extra: bytes) -> SamRecord:
    parts = extra.decode("ascii").split("\t")
    tags = dict(parse_tag(raw) for raw in parts[8:])
    return SamRecord(name, int(parts[0]), parts[1], int(parts[2]), int(parts[3]),
                     Cigar.parse(parts[4]), parts[5], int(parts[6]), int(parts[7]),
                     seq, qual, tags)


def _check_sam(rec: SamRecord) -> None:
    _check_name(rec.qname)
    if rec.seq and not roundtrip_safe(rec.seq, rec.qual):
        raise Unsupported(rec.qname)
    try:
        extra = sam_extra_fields(rec)
    except (UnicodeEncodeError, ValueError, TypeError) as exc:
        raise Unsupported(rec.qname) from exc
    if extra.count(b"\t") != 7 + len(rec.tags) or b"\n" in extra:
        raise Unsupported(rec.qname)


def sam_encode(records: list[SamRecord], strict: bool = False) -> bytes:
    """The replaced SAM encoder, QUAL-without-SEQ bug included: such a
    record passes ``strict`` and loses its QUAL."""
    seq_blobs, masked = [], []
    for rec in records:
        if strict:
            _check_sam(rec)
        blob, qual = compress_sequence(rec.seq, rec.qual) if rec.seq else (b"", "")
        seq_blobs.append(blob)
        masked.append(qual)
    codec, qual_blobs = _qualities(masked)
    out = struct.pack("<I", len(records)) + _lp(_table(codec.lengths))
    for rec, seq_blob, qual_blob in zip(records, seq_blobs, qual_blobs):
        out += _lp(rec.qname.encode("ascii"), "<H") + _lp(seq_blob) + _lp(qual_blob)
        out += _lp(sam_extra_fields(rec))
    return out


def sam_decode(blob: bytes) -> list[SamRecord]:
    reader = _Reader(blob)
    count = reader.num("<I")
    codec = RefHuffman(_read_table(reader.blob()))
    records = []
    for _ in range(count):
        name = reader.blob("<H").decode("ascii")
        seq_blob = reader.blob()
        qual = delta_decode(codec.decode(reader.blob()))
        extra = reader.blob()
        seq = decompress_sequence(seq_blob, qual) if seq_blob else ""
        records.append(sam_from_extra(name, seq, qual, extra))
    return records


def refbased_encode(records: list[SamRecord], reference) -> bytes:
    from repro.compression.refbased import encode_against_reference

    tags_blobs, masked = [], []
    for rec in records:
        ref_blob = encode_against_reference(rec, reference)
        if ref_blob is not None:
            tags_blobs.append((0, ref_blob))
            masked.append(rec.qual)
        elif rec.seq:
            blob, qual = compress_sequence(rec.seq, rec.qual)
            tags_blobs.append((1, blob))
            masked.append(qual)
        else:
            tags_blobs.append((1, b""))
            masked.append("")
    codec, qual_blobs = _qualities(masked)
    out = struct.pack("<I", len(records)) + _lp(_table(codec.lengths))
    for rec, (tag, seq_blob), qual_blob in zip(records, tags_blobs, qual_blobs):
        out += struct.pack("<H", tag) + _lp(rec.qname.encode("ascii"), "<H")
        out += _lp(seq_blob) + _lp(qual_blob) + _lp(sam_extra_fields(rec))
    return out


def refbased_decode(blob: bytes, reference) -> list[SamRecord]:
    from repro.compression.refbased import decode_against_reference

    reader = _Reader(blob)
    count = reader.num("<I")
    codec = RefHuffman(_read_table(reader.blob()))
    out = []
    for _ in range(count):
        tag = reader.num("<H")
        name = reader.blob("<H").decode("ascii")
        seq_blob = reader.blob()
        qual = delta_decode(codec.decode(reader.blob()))
        extra = reader.blob()
        if tag == 0:
            rec = sam_from_extra(name, "", qual, extra)
            rec.seq = decode_against_reference(seq_blob, rec.pos, rec.rname, rec.cigar, reference)
        else:
            seq = decompress_sequence(seq_blob, qual) if seq_blob else ""
            rec = sam_from_extra(name, seq, qual, extra)
        out.append(rec)
    return out
