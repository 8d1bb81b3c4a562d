"""CIGAR strings: compact encodings of read-to-reference alignments.

A CIGAR is a list of ``(length, op)`` pairs.  Operations and whether they
consume query/reference bases (SAM spec §1.4.6)::

    op  consumes-query  consumes-ref   meaning
    M        yes            yes        alignment match (can be = or X)
    I        yes            no         insertion to the reference
    D        no             yes        deletion from the reference
    N        no             yes        skipped region (introns)
    S        yes            no         soft clip
    H        no             no         hard clip
    P        no             no         padding
    =        yes            yes        sequence match
    X        yes            yes        sequence mismatch
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

CONSUMES_QUERY = frozenset("MIS=X")
CONSUMES_REF = frozenset("MDN=X")
VALID_OPS = frozenset("MIDNSHP=X")

_CIGAR_RE = re.compile(r"(\d+)([MIDNSHP=X])")


@dataclass(frozen=True, slots=True)
class CigarOp:
    length: int
    op: str

    def __post_init__(self) -> None:
        if self.op not in VALID_OPS:
            raise ValueError(f"invalid CIGAR op {self.op!r}")
        if self.length <= 0:
            raise ValueError(f"CIGAR op length must be positive, got {self.length}")

    def __str__(self) -> str:
        return f"{self.length}{self.op}"


class Cigar:
    """An immutable sequence of CIGAR operations.

    Immutability is what makes sharing safe: :meth:`parse` interns one
    ``Cigar`` per distinct text, a record that changes its alignment is
    given a new ``Cigar``, and a ``Cigar`` pickles as its text (unpickling
    is an interned :meth:`parse`), so no :class:`CigarOp` crosses a pickle
    boundary on its own.
    """

    __slots__ = ("_ops", "_text")

    def __init__(self, ops: list[CigarOp] | tuple[CigarOp, ...] = ()):
        self._ops: tuple[CigarOp, ...] = tuple(ops)
        self._text = "".join([f"{op.length}{op.op}" for op in self._ops]) or "*"

    @staticmethod
    @lru_cache(maxsize=4096)
    def parse(text: str) -> "Cigar":
        """Parse a CIGAR string like ``"76M"`` or ``"10S30M2D36M"``.

        Interned: equal texts return the same ``Cigar`` object.
        """
        if text == "*" or text == "":
            return Cigar(())
        consumed = 0
        ops: list[CigarOp] = []
        for match in _CIGAR_RE.finditer(text):
            ops.append(CigarOp(int(match.group(1)), match.group(2)))
            consumed += len(match.group(0))
        if consumed != len(text):
            raise ValueError(f"malformed CIGAR string: {text!r}")
        return Cigar(ops)

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, str]]) -> "Cigar":
        return cls([CigarOp(length, op) for length, op in pairs])

    @property
    def ops(self) -> tuple[CigarOp, ...]:
        return self._ops

    def __reduce__(self):
        return (Cigar.parse, (self._text,))

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[CigarOp]:
        return iter(self._ops)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cigar) and self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Cigar.parse({self._text!r})"

    def query_length(self) -> int:
        """Number of read bases this alignment consumes (must equal SEQ length)."""
        return sum(op.length for op in self._ops if op.op in CONSUMES_QUERY)

    def reference_length(self) -> int:
        """Number of reference bases this alignment spans."""
        return sum(op.length for op in self._ops if op.op in CONSUMES_REF)

    def leading_clip(self) -> int:
        """Soft+hard clipped bases at the 5' end."""
        clip = 0
        for op in self._ops:
            if op.op in ("S", "H"):
                clip += op.length
            else:
                break
        return clip

    def trailing_clip(self) -> int:
        """Soft+hard clipped bases at the 3' end."""
        clip = 0
        for op in reversed(self._ops):
            if op.op in ("S", "H"):
                clip += op.length
            else:
                break
        return clip

    def has_indel(self) -> bool:
        return any(op.op in ("I", "D") for op in self._ops)

    def normalized(self) -> "Cigar":
        """Merge adjacent same-op runs (e.g. ``2M3M`` → ``5M``)."""
        merged: list[CigarOp] = []
        for op in self._ops:
            if merged and merged[-1].op == op.op:
                merged[-1] = CigarOp(merged[-1].length + op.length, op.op)
            else:
                merged.append(op)
        return Cigar(merged)

    def unclipped_start(self, pos: int) -> int:
        """Alignment start adjusted backwards past leading clips.

        Used by duplicate marking: duplicates of the same fragment share an
        unclipped 5' coordinate even when their clipping differs.
        """
        return pos - self.leading_clip()

    def unclipped_end(self, pos: int) -> int:
        """One past the final reference base, extended past trailing clips."""
        return pos + self.reference_length() + self.trailing_clip()

    def walk(self, pos: int) -> Iterator[tuple[int | None, int | None, str]]:
        """Yield ``(ref_pos, query_idx, op)`` for every base of the alignment.

        ``ref_pos`` is ``None`` for ops that do not consume reference
        (insertions/clips); ``query_idx`` is ``None`` for deletions.
        """
        ref = pos
        query = 0
        for op in self._ops:
            for _ in range(op.length):
                consumes_q = op.op in CONSUMES_QUERY
                consumes_r = op.op in CONSUMES_REF
                yield (ref if consumes_r else None, query if consumes_q else None, op.op)
                if consumes_q:
                    query += 1
                if consumes_r:
                    ref += 1
