"""FASTA reference genomes with contig indexing.

``Reference`` is the in-memory equivalent of an indexed ``.fa`` +
``.fai`` pair: O(1) contig lookup and slicing.  Sequences are stored as
``bytes``.  A region task holds only a :class:`ReferenceWindow`, the
slice of one contig its stages read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

VALID_BASES = frozenset(b"ACGTN")


@dataclass(frozen=True, slots=True)
class Contig:
    """One reference sequence (chromosome)."""

    name: str
    sequence: bytes

    def __post_init__(self) -> None:
        bad = set(self.sequence) - {ord(c) for c in "ACGTN"}
        if bad:
            raise ValueError(
                f"contig {self.name!r} contains invalid bases: "
                f"{sorted(chr(b) for b in bad)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)

    def fetch(self, start: int, end: int) -> str:
        """Sub-sequence [start, end) as text; clipped to contig bounds."""
        return self.sequence[max(0, start) : max(0, end)].decode("ascii")


class Reference:
    """A multi-contig reference genome with O(1) contig access."""

    def __init__(self, contigs: Iterable[Contig]):
        self._contigs: list[Contig] = list(contigs)
        self._by_name: dict[str, Contig] = {c.name: c for c in self._contigs}
        if len(self._by_name) != len(self._contigs):
            raise ValueError("duplicate contig names in reference")

    @property
    def contigs(self) -> list[Contig]:
        return list(self._contigs)

    @property
    def contig_names(self) -> list[str]:
        return [c.name for c in self._contigs]

    def contig_lengths(self) -> list[tuple[str, int]]:
        """(name, length) pairs, suitable for building a SAM header."""
        return [(c.name, len(c)) for c in self._contigs]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Contig:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._contigs)

    def total_length(self) -> int:
        return sum(len(c) for c in self._contigs)

    def fetch(self, contig: str, start: int, end: int) -> str:
        return self._by_name[contig].fetch(start, end)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reference) and self._contigs == other._contigs


class OutsideWindowError(LookupError):
    """A fetch reached past the bases a :class:`ReferenceWindow` holds."""


@dataclass(frozen=True, slots=True)
class ReferenceWindow:
    """The bases of one contig over ``[start, start + len(sequence))``.

    It answers :meth:`Reference.fetch` in the same absolute coordinates,
    clipped to the contig the same way, so a kernel that only fetches
    takes either.  A fetch the window cannot answer whole raises
    :class:`OutsideWindowError` instead of returning a short slice.
    """

    contig: str
    start: int
    sequence: str
    contig_length: int

    @classmethod
    def of(cls, reference: Reference, contig: str, start: int, end: int) -> "ReferenceWindow":
        """``reference``'s bases over ``[start, end)``, clipped to the contig."""
        start = max(0, start)
        return cls(contig, start, reference.fetch(contig, start, end), len(reference[contig]))

    @property
    def end(self) -> int:
        return self.start + len(self.sequence)

    def fetch(self, contig: str, start: int, end: int) -> str:
        lo, hi = max(0, start), min(max(0, end), self.contig_length)
        if contig != self.contig or (lo < hi and (lo < self.start or hi > self.end)):
            raise OutsideWindowError(
                f"fetch {contig}:[{start}, {end}) outside the window "
                f"{self.contig}:[{self.start}, {self.end})"
            )
        return self.sequence[lo - self.start : hi - self.start] if lo < hi else ""


#: What the Cleaner and Caller kernels read bases from, through ``fetch``.
Bases = Reference | ReferenceWindow


def parse_fasta(lines: Iterable[str]) -> Iterator[Contig]:
    """Parse FASTA text lines into Contig objects."""
    name: str | None = None
    chunks: list[str] = []
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith(">"):
            if name is not None:
                yield Contig(name, "".join(chunks).upper().encode("ascii"))
            name = line[1:].split()[0]
            chunks = []
        elif line:
            if name is None:
                raise ValueError("FASTA sequence data before any '>' header")
            chunks.append(line)
    if name is not None:
        yield Contig(name, "".join(chunks).upper().encode("ascii"))


def read_fasta(path: str) -> Reference:
    with open(path, "r", encoding="ascii") as fh:
        return Reference(parse_fasta(fh))


def write_fasta(
    reference: Reference, fh_or_path: IO[str] | str, width: int = 70
) -> None:
    """Write the reference as line-wrapped FASTA."""
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w", encoding="ascii") as fh:
            write_fasta(reference, fh, width)
        return
    fh = fh_or_path
    for contig in reference.contigs:
        fh.write(f">{contig.name}\n")
        seq = contig.sequence.decode("ascii")
        for i in range(0, len(seq), width):
            fh.write(seq[i : i + width])
            fh.write("\n")
