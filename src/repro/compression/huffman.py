"""Canonical Huffman coding with an explicit EOF symbol (paper Fig. 6).

The quality-delta alphabet is small (deltas in [-255, 255] plus EOF), so a
codec is built once per encode pass (a partition, or a map task's shuffle
buckets) from the observed symbol frequencies and shipped with each
compressed block as its code-length table.  Codes are canonical (sorted
by length, then symbol) integer ``(code, length)`` pairs.

Both directions handle many streams (one per record, each from a fresh
byte, back to back in one buffer) in NumPy passes over all of them.  A
codec refuses any symbol outside the delta alphabet, so the encoder looks
codes up in one dense 512-entry table.  The decoder is table-driven: every
bit position gets a window value, a table of at most ``2**12`` entries
gives the code starting there (longer codes are resolved per length by
canonical arithmetic), and a walk follows every stream's chain of code
starts to its EOF at once, one code per step.  :func:`decode_streams`
decodes streams of several codecs in one pass by stacking their tables.
"""

from __future__ import annotations

import bisect
import heapq
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

#: Symbol appended to every encoded stream so the decoder knows where the
#: payload ends inside the zero-padded final byte.
EOF_SYMBOL = 0x10000

#: The delta alphabet's bounds; EOF takes the dense table's last slot.
_LOW, _HIGH, _EOF_SLOT = -255, 255, 511

#: A code must fit one 64-bit window from any bit of its first byte; only
#: counts past Fibonacci(57) ~ 3.6e11 could ask for longer codes.
MAX_CODE_LENGTH = 57

_TABLE_BITS = 12
_BIT_SHIFTS = np.arange(8, dtype=np.uint32)


class HuffmanCodec:
    """A prefix code over an integer alphabet, built from frequencies."""

    def __init__(self, code_lengths: Mapping[int, int]):
        if EOF_SYMBOL not in code_lengths:
            raise ValueError("codec must include the EOF symbol")
        self._lengths = {int(s): int(l) for s, l in code_lengths.items()}
        symbols = np.fromiter(self._lengths, np.int64, len(self._lengths))
        lengths = np.fromiter(self._lengths.values(), np.int64, len(self._lengths))
        if not ((symbols == EOF_SYMBOL) | ((_LOW <= symbols) & (symbols <= _HIGH))).all():
            raise ValueError(f"codec symbols must lie in [{_LOW}, {_HIGH}] or be EOF")
        slot = np.where(symbols == EOF_SYMBOL, _EOF_SLOT, symbols - _LOW)
        if not 1 <= lengths.min() <= lengths.max() <= MAX_CODE_LENGTH:
            raise ValueError(f"code lengths must lie in [1, {MAX_CODE_LENGTH}]")
        # Index i is the i-th canonical code: its value is the Kraft sum of
        # codes 0..i-1 scaled to its own length.
        order = np.lexsort((symbols, lengths))
        self._symbols, self._code_len = symbols[order], lengths[order]
        weight = 1 << (MAX_CODE_LENGTH - self._code_len)
        kraft = weight.cumsum()
        if kraft[-1] > 1 << MAX_CODE_LENGTH:
            raise ValueError("code lengths break Kraft's inequality")
        self._code = (kraft - weight) >> (MAX_CODE_LENGTH - self._code_len)
        # By alphabet slot: the code left-aligned in 64 bits, its length (0: none).
        self._slot_top = np.zeros(_EOF_SLOT + 1, dtype=np.uint64)
        self._slot_len = np.zeros(_EOF_SLOT + 1, dtype=np.int64)
        top = self._code.astype(np.uint64) << (64 - self._code_len).astype(np.uint64)
        self._slot_top[slot[order]], self._slot_len[slot[order]] = top, self._code_len
        self._table: tuple[int, np.ndarray, list] | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_frequencies(cls, freqs: Mapping[int, int]) -> "HuffmanCodec":
        """Build a codec from symbol counts; EOF is added automatically.

        Ties break on (weight, creation order) with leaves ordered by
        symbol, so the code lengths are a pure function of the counts.
        """
        counts = {int(s): int(c) for s, c in freqs.items() if c > 0}
        counts[EOF_SYMBOL] = counts.get(EOF_SYMBOL, 0) + 1
        if len(counts) == 1:
            # Degenerate alphabet: give EOF a 1-bit code by adding a dummy.
            counts[0] = counts.get(0, 0) + 1
        symbols = sorted(counts)
        heap = [(counts[s], node) for node, s in enumerate(symbols)]
        heapq.heapify(heap)
        parent = [0] * (2 * len(symbols) - 1)
        for node in range(len(symbols), len(parent)):
            weight_a, a = heapq.heappop(heap)
            weight_b, b = heapq.heappop(heap)
            parent[a] = parent[b] = node
            heapq.heappush(heap, (weight_a + weight_b, node))
        depth = [0] * len(parent)
        for child in range(len(parent) - 2, -1, -1):  # parents come later
            depth[child] = depth[parent[child]] + 1
        return cls(dict(zip(symbols, depth)))

    # -- serialization of the codec itself -------------------------------
    def code_lengths(self) -> dict[int, int]:
        """The (symbol -> code length) table; enough to rebuild the codec."""
        return dict(self._lengths)

    # -- encode/decode ----------------------------------------------------
    def encode(self, symbols: np.ndarray | list[int]) -> bytes:
        """Encode symbols followed by EOF; zero-padded to a whole byte."""
        return self.encode_many([symbols])[0]

    def decode(self, blob: bytes) -> np.ndarray:
        """Decode until EOF; returns the symbol array (without EOF)."""
        return self.decode_many([blob])[0]

    def encode_many(self, arrays: Sequence[np.ndarray | list[int]]) -> list[bytes]:
        """``[self.encode(a) for a in arrays]``, in one pass over all of them."""
        parts = [np.asarray(a, dtype=np.int64).ravel() for a in arrays]
        counts = np.array([p.size for p in parts], dtype=np.int64)
        packed, nbytes = self.encode_concat(np.concatenate(parts) if parts else counts, counts)
        bounds = [0] + nbytes.cumsum().tolist()
        return [packed[a:b] for a, b in zip(bounds, bounds[1:])]

    def encode_concat(self, symbols: np.ndarray, counts: np.ndarray) -> tuple[bytes, np.ndarray]:
        """``len(counts)`` streams laid end to end, each encoded with its EOF:
        the streams' bytes back to back and each stream's byte length."""
        if counts.size == 0:
            return b"", counts
        if symbols.size and not _LOW <= symbols.min() <= symbols.max() <= _HIGH:
            raise ValueError(f"symbol {symbols[np.abs(symbols) > _HIGH][0]} not in codec alphabet")
        last = (counts + 1).cumsum() - 1  # each stream's EOF
        slot = np.full(last[-1] + 1, _EOF_SLOT, dtype=np.int16)
        slot[np.arange(symbols.size) + np.arange(counts.size).repeat(counts)] = symbols - _LOW
        length = self._slot_len[slot]
        if not length.all():
            raise ValueError(f"symbol {slot[length.argmin()] + _LOW} not in codec alphabet")
        # Each stream starts on a fresh byte: shift its codes past the
        # padding of the streams before it.
        start = length.cumsum()  # each code's end, for now
        first_bit = np.concatenate(([0], start[last[:-1]]))
        nbytes = (start[last] - first_bit + 7) >> 3
        byte_end = nbytes.cumsum()
        start -= length
        start += (8 * (byte_end - nbytes) - first_bit).repeat(counts + 1)
        # Codes never share a bit: OR each 64-bit word's codes together,
        # and carry the tail of a code that crosses into the next word.
        word, offset = start >> 6, start & 63
        head = self._slot_top[slot] >> offset.astype(np.uint64)
        words = np.zeros((int(byte_end[-1]) + 7) >> 3, dtype=np.uint64)
        firsts = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[firsts]] = np.bitwise_or.reduceat(head, firsts)
        cross = (offset + length > 64).nonzero()[0]
        tail = self._slot_top[slot[cross]] << (64 - offset[cross]).astype(np.uint64)
        words[word[cross] + 1] |= tail
        return words.astype(">u8").tobytes()[: int(byte_end[-1])], nbytes

    def decode_many(self, blobs: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """Decode one stream per blob: ``(all symbols, per-stream counts)``.

        The one-codec case of :func:`decode_streams`.
        """
        nbytes = np.fromiter(map(len, blobs), np.int64, len(blobs))
        return decode_streams([self], np.zeros(len(blobs), dtype=np.int64), b"".join(blobs), nbytes)

    def mean_bits_per_symbol(self, freqs: Mapping[int, int]) -> float:
        """Expected code length under the given symbol frequencies."""
        total = sum(freqs.values())
        bits = sum(self._lengths[s] * c for s, c in freqs.items() if s in self._lengths)
        return bits / total if total else 0.0

    # -- internals --------------------------------------------------------
    def _decode_table(self) -> tuple[int, np.ndarray, list]:
        """Built on first decode: ``table[w]`` is the entry of the code that
        begins the ``k``-bit window ``w`` (0: a longer code or none);
        ``long_codes`` has each longer length's first code, limit and
        first index.  An entry is ``index << 7 | eof << 6 | length``."""
        if self._table is None:
            lens, codes = self._code_len.tolist(), self._code.tolist()
            k = min(lens[-1], _TABLE_BITS)
            short = bisect.bisect_right(lens, k)
            spans = 1 << (k - self._code_len[:short])
            table = np.zeros(1 << k, dtype=np.int32)
            entries = _entry(np.arange(short), self._symbols, self._code_len[:short])
            table[: spans.sum()] = entries.repeat(spans)
            first = [i for i in range(short, len(lens))
                     if i == short or lens[i] > lens[i - 1]]
            long_codes = [
                (lens[i], codes[i], codes[j - 1] + 1, i)
                for i, j in zip(first, first[1:] + [len(lens)])
            ]
            self._table = (k, table, long_codes)
        return self._table

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HuffmanCodec) and self._lengths == other._lengths

    def __hash__(self) -> int:
        return hash(frozenset(self._lengths.items()))


def _entry(index: np.ndarray, symbols: np.ndarray, length) -> np.ndarray:
    """Decode-table entries of the codes at ``index`` (into ``symbols``)."""
    return (index << 7) | ((symbols[index] == EOF_SYMBOL) << 6) | length


@lru_cache(maxsize=16)
def _stack(codecs: tuple[HuffmanCodec, ...]) -> tuple:
    """Several codecs' decode tables as one: ``(k, table, symbols,
    long_codes)``.  Codec ``c`` owns windows ``[c << k, (c+1) << k)`` and
    a run of ``symbols``; an entry's index points into that run.  Each
    ``long_codes`` row is one code length past the table and, per codec,
    its first code, limit (0: no code of that length) and first index.
    Cached: the reduce tasks of one shuffle read the blocks of the same
    map tasks, so their passes stack the same tables."""
    k = max(codec._decode_table()[0] for codec in codecs)
    tables, longs, offset = [], {}, 0
    for c, codec in enumerate(codecs):
        own_k, table, long_codes = codec._decode_table()
        # A codec whose longest code is under k bits reads only the
        # first own_k bits of the k-bit window.
        table = table.repeat(1 << (k - own_k))
        tables.append(np.where(table != 0, table + (offset << 7), 0) if offset else table)
        for code_len, first_code, limit, first_index in long_codes:
            rows = longs.setdefault(code_len, np.zeros((3, len(codecs)), dtype=np.int64))
            rows[:, c] = first_code, limit, first_index + offset
        offset += codec._symbols.size
    symbols = np.concatenate([codec._symbols for codec in codecs])
    return k, np.concatenate(tables), symbols, sorted(longs.items())


def decode_streams(
    codecs: Sequence[HuffmanCodec], owner: np.ndarray, streams, nbytes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the streams laid back to back in the buffer ``streams``,
    stream ``i`` being ``nbytes[i]`` bytes coded with ``codecs[owner[i]]``:
    ``(all symbols, per-stream counts)``, in one pass over every stream.

    The codecs' tables are stacked and each bit position looks its window
    up in its own stream's table.  A stream that ends before its EOF, or
    holds a bit pattern that is no code, raises ``ValueError``.
    """
    if not nbytes.all():
        raise ValueError("bit stream ended before EOF symbol")
    if int(nbytes.sum()) != len(streams):
        raise ValueError("stream lengths do not add up to the buffer")
    data = np.frombuffer(b"".join((streams, bytes(8))), dtype=np.uint8)
    nbits = 8 * (data.size - 8)
    k, table, symbols, long_codes = _stack(tuple(codecs))
    # The k-bit window at bit p: from the 32-bit word at its byte, offset
    # into the table of the stream that byte belongs to.
    words = np.ndarray((data.size - 8,), ">u4", data, 0, (1,))
    window = (words[:, None] << _BIT_SHIFTS) >> np.uint32(32 - k)
    byte_owner = np.asarray(owner, dtype=np.uint32).repeat(nbytes)
    if len(codecs) > 1:
        window += (byte_owner << np.uint32(k))[:, None]
    entry = table[window.ravel()]
    del window
    length = entry & 63
    if long_codes:
        at = (length == 0).nonzero()[0]
        # The 64 bits from bit p on, left-aligned: >= 57 of them valid.
        top = np.ndarray((data.size - 8,), ">u8", data, 0, (1,))[at >> 3]
        top <<= (at & 7).astype(np.uint64)
        at_owner = byte_owner[at >> 3]
        # Shortest length first: a position takes the first length whose
        # canonical range holds its bits, under its own codec.
        for code_len, (first_code, limit, first_index) in long_codes:
            value = (top >> np.uint64(64 - code_len)).astype(np.int64)
            hit = (value < limit[at_owner]) & (length[at] == 0)
            mine = at_owner[hit]
            index = first_index[mine] + value[hit] - first_code[mine]
            entry[at[hit]] = _entry(index, symbols, code_len)
            length[at[hit]] = code_len
    # Successor of each bit position: the next code start, DONE after
    # an EOF, FAIL after a bit pattern that is no code.
    done, fail = nbits, nbits + 1
    jump = np.arange(nbits + 2)
    jump[:nbits] += length
    np.minimum(jump, fail, out=jump)
    jump[:nbits][(entry & 64) != 0] = done
    jump[:nbits][length == 0] = fail
    # Walk every stream's chain of code starts at once, one code per
    # step, dropping the chains that reached DONE/FAIL every 8 steps (a
    # finished chain stays put): `on` marks every position a chain visits.
    start = 8 * (nbytes.cumsum() - nbytes)
    on = np.zeros(nbits + 2, dtype=bool)
    on[start] = True
    heads = start
    while heads.size:
        for _ in range(8):
            heads = jump[heads]
            on[heads] = True
        heads = heads[heads < nbits]
    # A chain never crosses into the next stream if each stream's last
    # position on a chain is an EOF that ends inside the stream; so every
    # code on it was read with its own stream's table.
    marked = on[:nbits].nonzero()[0]
    end = start + 8 * nbytes
    # A stream's mark count (its first bit is one) indexes its last mark.
    last = np.add.reduceat(on[:nbits], start, dtype=np.int64).cumsum() - 1
    tail = marked[last]
    closed = ((entry[tail] & 64) != 0) & (tail + (entry[tail] & 63) <= end)
    if on[fail] or not closed.all():
        raise ValueError("invalid Huffman bit stream (no code, or no EOF)")
    chain = entry[marked]
    counts = np.diff(last, prepend=-1) - 1
    return symbols[chain[(chain & 64) == 0] >> 7], counts
