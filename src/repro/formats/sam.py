"""SAM alignment records, headers, and text round-trip.

``SamRecord`` is deliberately a mutable dataclass: the Cleaner stage
(duplicate marking, realignment, BQSR) updates flags, positions, CIGARs and
qualities in place as the pipeline runs, exactly like the htsjdk records the
paper's implementation manipulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Iterator

from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.quarantine import QuarantineSink, check_policy, route_malformed

#: Sentinel position for unmapped records (SAM uses 0 in 1-based text form;
#: internally we use -1 with 0-based coordinates).
UNMAPPED_POS = -1


@dataclass(slots=True)
class SamRecord:
    """One alignment line.

    Coordinates are **0-based** internally and converted to/from the 1-based
    SAM text representation at parse/write time.
    """

    qname: str
    flag: int
    rname: str  # "*" if unmapped
    pos: int  # 0-based leftmost aligned base; UNMAPPED_POS if unmapped
    mapq: int
    cigar: Cigar
    rnext: str
    pnext: int
    tlen: int
    seq: str
    qual: str
    tags: dict[str, object] = field(default_factory=dict)

    # -- flag accessors ------------------------------------------------
    @property
    def is_paired(self) -> bool:
        return bool(self.flag & F.PAIRED)

    @property
    def is_unmapped(self) -> bool:
        return bool(self.flag & F.UNMAPPED)

    @property
    def is_reverse(self) -> bool:
        return bool(self.flag & F.REVERSE)

    @property
    def is_duplicate(self) -> bool:
        return bool(self.flag & F.DUPLICATE)

    @property
    def is_secondary(self) -> bool:
        return bool(self.flag & F.SECONDARY)

    @property
    def is_supplementary(self) -> bool:
        return bool(self.flag & F.SUPPLEMENTARY)

    @property
    def is_first_in_pair(self) -> bool:
        return bool(self.flag & F.FIRST_IN_PAIR)

    def set_duplicate(self, value: bool = True) -> None:
        if value:
            self.flag |= F.DUPLICATE
        else:
            self.flag &= ~F.DUPLICATE

    # -- coordinates ---------------------------------------------------
    @property
    def end(self) -> int:
        """One past the last reference base covered (0-based half-open)."""
        if self.is_unmapped:
            return UNMAPPED_POS
        return self.pos + self.cigar.reference_length()

    def unclipped_start(self) -> int:
        return self.cigar.unclipped_start(self.pos)

    def unclipped_end(self) -> int:
        return self.cigar.unclipped_end(self.pos)

    @property
    def phred_scores(self) -> list[int]:
        return [ord(c) - 33 for c in self.qual]

    def sum_of_base_qualities(self, threshold: int = 15) -> int:
        """Picard's duplicate-survivor score: sum of quals >= threshold."""
        return sum(q for q in self.phred_scores if q >= threshold)

    def copy(self) -> "SamRecord":
        return replace(self, tags=dict(self.tags))

    # -- text round trip -------------------------------------------------
    def to_line(self) -> str:
        """Render as one tab-separated SAM text line (1-based POS)."""
        fields = [
            self.qname,
            str(self.flag),
            self.rname,
            str(self.pos + 1 if self.pos != UNMAPPED_POS else 0),
            str(self.mapq),
            str(self.cigar),
            self.rnext,
            str(self.pnext + 1 if self.pnext != UNMAPPED_POS else 0),
            str(self.tlen),
            self.seq if self.seq else "*",
            self.qual if self.qual else "*",
        ]
        for key, value in sorted(self.tags.items()):
            fields.append(format_tag(key, value))
        return "\t".join(fields)

    @classmethod
    def from_line(cls, line: str) -> "SamRecord":
        """Parse one SAM text line (positions converted to 0-based)."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 11:
            raise ValueError(f"malformed SAM line ({len(parts)} fields): {line!r}")
        flag = int(parts[1])
        if not 0 <= flag < (1 << 16):
            raise ValueError(f"SAM flag out of range [0, 65536): {flag}")
        mapq = int(parts[4])
        if not 0 <= mapq <= 255:
            raise ValueError(f"SAM MAPQ out of range [0, 255]: {mapq}")
        pos = int(parts[3]) - 1
        pnext = int(parts[7]) - 1
        tags: dict[str, object] = {}
        for raw in parts[11:]:
            key, value = parse_tag(raw)
            tags[key] = value
        return cls(
            qname=parts[0],
            flag=flag,
            rname=parts[2],
            pos=pos if pos >= 0 else UNMAPPED_POS,
            mapq=mapq,
            cigar=Cigar.parse(parts[5]),
            rnext=parts[6],
            pnext=pnext if pnext >= 0 else UNMAPPED_POS,
            tlen=int(parts[8]),
            seq=parts[9] if parts[9] != "*" else "",
            qual=parts[10] if parts[10] != "*" else "",
            tags=tags,
        )


def with_qual(records: Iterable[SamRecord]) -> list[SamRecord]:
    """Records with QUAL (``*`` is skipped); a QUAL/SEQ length mismatch raises."""
    reads = [rec for rec in records if rec.qual]
    for rec in reads:
        if len(rec.qual) != len(rec.seq):
            raise ValueError(
                f"read {rec.qname!r}: QUAL has {len(rec.qual)} bases, SEQ has {len(rec.seq)}"
            )
    return reads


def format_tag(key: str, value: object) -> str:
    """Render one optional tag as SAM's TAG:TYPE:VALUE text."""
    if isinstance(value, bool):
        raise TypeError("SAM tags cannot be bool")
    if isinstance(value, int):
        return f"{key}:i:{value}"
    if isinstance(value, float):
        return f"{key}:f:{value}"
    return f"{key}:Z:{value}"


def parse_tag(raw: str) -> tuple[str, object]:
    """Parse SAM tag text into (key, typed value)."""
    try:
        key, typ, value = raw.split(":", 2)
    except ValueError:
        raise ValueError(f"malformed SAM tag: {raw!r}") from None
    if typ == "i":
        return key, int(value)
    if typ == "f":
        return key, float(value)
    return key, value


@dataclass(frozen=True, slots=True)
class SamHeader:
    """SAM header: an ordered mapping of contig name -> length, plus sort order."""

    contigs: tuple[tuple[str, int], ...] = ()
    sort_order: str = "unsorted"  # "unsorted" | "coordinate" | "queryname"

    @classmethod
    def unsorted(cls, contigs: Iterable[tuple[str, int]] = ()) -> "SamHeader":
        return cls(tuple(contigs), "unsorted")

    def sorted_by_coordinate(self) -> "SamHeader":
        return SamHeader(self.contigs, "coordinate")

    def contig_index(self, name: str) -> int:
        for i, (contig, _) in enumerate(self.contigs):
            if contig == name:
                return i
        raise KeyError(f"contig {name!r} not in header")

    def contig_length(self, name: str) -> int:
        for contig, length in self.contigs:
            if contig == name:
                return length
        raise KeyError(f"contig {name!r} not in header")

    def to_lines(self) -> list[str]:
        """Render @HD/@SQ header lines."""
        lines = [f"@HD\tVN:1.6\tSO:{self.sort_order}"]
        lines += [f"@SQ\tSN:{name}\tLN:{length}" for name, length in self.contigs]
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "SamHeader":
        """Parse @HD/@SQ header lines."""
        contigs: list[tuple[str, int]] = []
        sort_order = "unsorted"
        for line in lines:
            if line.startswith("@HD"):
                for token in line.split("\t")[1:]:
                    if token.startswith("SO:"):
                        sort_order = token[3:]
            elif line.startswith("@SQ"):
                name, length = "", 0
                for token in line.split("\t")[1:]:
                    if token.startswith("SN:"):
                        name = token[3:]
                    elif token.startswith("LN:"):
                        length = int(token[3:])
                contigs.append((name, length))
        return cls(tuple(contigs), sort_order)


def read_sam(
    path: str,
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> tuple[SamHeader, list[SamRecord]]:
    """Read a SAM text file into (header, records).

    ``malformed`` selects the bad-record policy (bad CIGARs, out-of-range
    flags/MAPQ, unparsable integer fields): ``"fail"`` raises, ``"drop"``
    skips, ``"quarantine"`` routes the raw line to ``sink`` and skips.
    """
    check_policy(malformed)
    header_lines: list[str] = []
    records: list[SamRecord] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("@"):
                header_lines.append(line.rstrip("\n"))
            elif line.strip():
                try:
                    records.append(SamRecord.from_line(line))
                except ValueError as exc:
                    if malformed == "fail":
                        raise
                    route_malformed(sink, "sam", line.rstrip("\n"), str(exc))
    return SamHeader.from_lines(header_lines), records


def write_sam(
    header: SamHeader, records: Iterable[SamRecord], fh_or_path: IO[str] | str
) -> None:
    """Write header lines then one record per line."""
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w", encoding="ascii") as fh:
            write_sam(header, records, fh)
        return
    fh = fh_or_path
    for line in header.to_lines():
        fh.write(line)
        fh.write("\n")
    for rec in records:
        fh.write(rec.to_line())
        fh.write("\n")


def coordinate_key(header: SamHeader) -> "callable":
    """Sort key for coordinate order: (contig index, position); unmapped last."""
    index = {name: i for i, (name, _) in enumerate(header.contigs)}

    def key(rec: SamRecord) -> tuple[int, int]:
        if rec.is_unmapped or rec.rname == "*":
            return (len(index), 0)
        return (index[rec.rname], rec.pos)

    return key


def iter_sam_lines(
    lines: Iterable[str],
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> Iterator[SamRecord]:
    check_policy(malformed)
    for line in lines:
        if not line.startswith("@") and line.strip():
            try:
                yield SamRecord.from_line(line)
            except ValueError as exc:
                if malformed == "fail":
                    raise
                route_malformed(sink, "sam", line.rstrip("\n"), str(exc))
