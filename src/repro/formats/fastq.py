"""FASTQ records and (paired-end) parsing.

A FASTQ record is four text lines::

    @name [description]
    SEQUENCE
    +
    QUALITY

Quality characters are Phred+33: ``chr(q + 33)`` for quality ``q`` in
``[0, 93]``.  GPF's compression engine (``repro.compression``) relies on the
record keeping its raw ``sequence`` / ``quality`` strings, which together
account for 80-90% of the record's bytes (paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from repro.formats.quarantine import QuarantineSink, check_policy, route_malformed

PHRED_OFFSET = 33
#: Highest Phred score representable in Phred+33 ASCII ('~' == 126).
MAX_PHRED = 93


@dataclass(frozen=True, slots=True)
class FastqRecord:
    """One sequencing read as it came off the machine."""

    name: str
    sequence: str
    quality: str

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.quality):
            raise ValueError(
                f"sequence/quality length mismatch for read {self.name!r}: "
                f"{len(self.sequence)} vs {len(self.quality)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def phred_scores(self) -> list[int]:
        """Quality as integer Phred scores."""
        return [ord(c) - PHRED_OFFSET for c in self.quality]

    def to_lines(self) -> list[str]:
        return [f"@{self.name}", self.sequence, "+", self.quality]

    def __reduce__(self):
        return (FastqRecord, (self.name, self.sequence, self.quality))


@dataclass(frozen=True, slots=True)
class FastqPair:
    """A paired-end read: two mates of the same DNA fragment."""

    read1: FastqRecord
    read2: FastqRecord

    @property
    def name(self) -> str:
        return self.read1.name

    def __iter__(self) -> Iterator[FastqRecord]:
        yield self.read1
        yield self.read2

    def __reduce__(self):
        return (FastqPair, (self.read1, self.read2))


def parse_fastq(
    lines: Iterable[str],
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> Iterator[FastqRecord]:
    """Parse an iterable of text lines into :class:`FastqRecord` objects.

    ``malformed`` selects the bad-record policy: ``"fail"`` raises (the
    default), ``"drop"`` skips, ``"quarantine"`` routes the offending raw
    text to ``sink`` and skips.  Under drop/quarantine the parser resyncs
    at the next line starting with ``@`` whose separator checks out.
    """
    check_policy(malformed)
    it = iter(lines)
    for header in it:
        header = header.rstrip("\n")
        if not header:
            continue
        if not header.startswith("@"):
            if malformed == "fail":
                raise ValueError(f"malformed FASTQ header line: {header!r}")
            route_malformed(sink, "fastq", header, "malformed header line")
            continue
        try:
            seq = next(it).rstrip("\n")
            plus = next(it).rstrip("\n")
            qual = next(it).rstrip("\n")
        except StopIteration:
            if malformed == "fail":
                raise ValueError(f"truncated FASTQ record at {header!r}") from None
            route_malformed(sink, "fastq", header, "truncated record quad")
            return
        if not plus.startswith("+"):
            if malformed == "fail":
                raise ValueError(f"malformed FASTQ separator line: {plus!r}")
            route_malformed(
                sink,
                "fastq",
                "\n".join((header, seq, plus, qual)),
                "malformed separator line",
            )
            continue
        # Header may carry a description after whitespace; the name is the
        # first token, matching how aligners treat read names.
        name = header[1:].split()[0] if header[1:] else ""
        try:
            yield FastqRecord(name=name, sequence=seq, quality=qual)
        except ValueError as exc:
            if malformed == "fail":
                raise
            route_malformed(
                sink, "fastq", "\n".join((header, seq, plus, qual)), str(exc)
            )


def read_fastq(
    path: str,
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> list[FastqRecord]:
    """Read a whole FASTQ file into memory."""
    with open(path, "r", encoding="ascii") as fh:
        return list(parse_fastq(fh, malformed=malformed, sink=sink))


def write_fastq(records: Iterable[FastqRecord], fh_or_path: IO[str] | str) -> None:
    """Write records in standard four-line FASTQ format."""
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w", encoding="ascii") as fh:
            write_fastq(records, fh)
        return
    fh = fh_or_path
    for rec in records:
        for line in rec.to_lines():
            fh.write(line)
            fh.write("\n")


def pair_reads(
    reads1: Iterable[FastqRecord],
    reads2: Iterable[FastqRecord],
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> Iterator[FastqPair]:
    """Zip the two mate files of a paired-end sample.

    Mates are matched positionally, as in real pair-end FASTQ files; a
    mismatch in stripped names (ignoring a trailing ``/1`` / ``/2``) or in
    file lengths is an error under ``malformed="fail"``, and routes the
    unmatched reads to quarantine under the other policies.
    """
    check_policy(malformed)
    it1, it2 = iter(reads1), iter(reads2)
    sentinel = object()
    while True:
        r1 = next(it1, sentinel)
        r2 = next(it2, sentinel)
        if r1 is sentinel and r2 is sentinel:
            return
        if r1 is sentinel or r2 is sentinel:
            if malformed == "fail":
                raise ValueError("paired FASTQ files have different read counts")
            # Quarantine the unmatched tail of the longer file.
            leftover = r2 if r1 is sentinel else r1
            tail = it2 if r1 is sentinel else it1
            while leftover is not sentinel:
                assert isinstance(leftover, FastqRecord)
                route_malformed(
                    sink, "fastq", f"@{leftover.name}", "unpaired mate (tail)"
                )
                leftover = next(tail, sentinel)
            return
        assert isinstance(r1, FastqRecord) and isinstance(r2, FastqRecord)
        if _strip_mate_suffix(r1.name) != _strip_mate_suffix(r2.name):
            if malformed == "fail":
                raise ValueError(
                    f"paired reads out of sync: {r1.name!r} vs {r2.name!r}"
                )
            route_malformed(
                sink,
                "fastq",
                f"@{r1.name} / @{r2.name}",
                "paired reads out of sync",
            )
            continue
        yield FastqPair(r1, r2)


def _strip_mate_suffix(name: str) -> str:
    if name.endswith("/1") or name.endswith("/2"):
        return name[:-2]
    return name
