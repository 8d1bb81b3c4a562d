"""VCF variant records, headers, and text round-trip.

Positions are **0-based** internally (converted to the 1-based VCF text
coordinate at parse/write time).  The record model covers what the WGS
pipeline needs: SNVs and indels with genotype, quality, depth, and an
``INFO`` dictionary; known-sites databases (dbSNP substitutes) are plain
lists of these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from repro.formats.quarantine import QuarantineSink, check_policy, route_malformed


@dataclass(frozen=True, slots=True)
class VcfRecord:
    contig: str
    pos: int  # 0-based
    ref: str
    alt: str
    qual: float = 0.0
    id_: str = "."
    filter_: str = "PASS"
    info: dict[str, object] = field(default_factory=dict, hash=False, compare=False)
    genotype: str = "./."
    depth: int = 0

    def __post_init__(self) -> None:
        if not self.ref:
            raise ValueError("VCF REF allele cannot be empty")
        if not self.alt:
            raise ValueError("VCF ALT allele cannot be empty")

    @property
    def is_snv(self) -> bool:
        return len(self.ref) == 1 and len(self.alt) == 1

    @property
    def is_insertion(self) -> bool:
        return len(self.alt) > len(self.ref)

    @property
    def is_deletion(self) -> bool:
        return len(self.ref) > len(self.alt)

    @property
    def is_indel(self) -> bool:
        return not self.is_snv

    @property
    def end(self) -> int:
        """One past the last reference base the variant spans (0-based)."""
        return self.pos + len(self.ref)

    def key(self) -> tuple[str, int, str, str]:
        return (self.contig, self.pos, self.ref, self.alt)

    def __reduce__(self):
        return (VcfRecord, (
            self.contig, self.pos, self.ref, self.alt, self.qual, self.id_,
            self.filter_, self.info, self.genotype, self.depth,
        ))

    def to_line(self) -> str:
        info = ";".join(
            f"{k}={v}" if v is not True else k for k, v in sorted(self.info.items())
        )
        return "\t".join(
            [
                self.contig,
                str(self.pos + 1),
                self.id_,
                self.ref,
                self.alt,
                f"{self.qual:.2f}",
                self.filter_,
                info or ".",
                "GT:DP",
                f"{self.genotype}:{self.depth}",
            ]
        )

    @classmethod
    def from_line(cls, line: str) -> "VcfRecord":
        """Parse one VCF text line (POS converted to 0-based)."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 8:
            raise ValueError(f"malformed VCF line ({len(parts)} fields): {line!r}")
        info: dict[str, object] = {}
        if parts[7] != ".":
            for token in parts[7].split(";"):
                if "=" in token:
                    key, value = token.split("=", 1)
                    info[key] = _coerce(value)
                else:
                    info[token] = True
        genotype, depth = "./.", 0
        if len(parts) >= 10:
            keys = parts[8].split(":")
            values = parts[9].split(":")
            sample = dict(zip(keys, values))
            genotype = sample.get("GT", "./.")
            depth = int(sample.get("DP", 0))
        return cls(
            contig=parts[0],
            pos=int(parts[1]) - 1,
            id_=parts[2],
            ref=parts[3],
            alt=parts[4],
            qual=float(parts[5]) if parts[5] != "." else 0.0,
            filter_=parts[6],
            info=info,
            genotype=genotype,
            depth=depth,
        )


def _coerce(value: str) -> object:
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


@dataclass(frozen=True, slots=True)
class VcfHeader:
    contigs: tuple[tuple[str, int], ...] = ()
    sample: str = "SAMPLE"

    def to_lines(self) -> list[str]:
        """Render the ## meta lines and #CHROM column header."""
        lines = ["##fileformat=VCFv4.2"]
        lines += [
            f"##contig=<ID={name},length={length}>" for name, length in self.contigs
        ]
        lines.append('##INFO=<ID=DP,Number=1,Type=Integer,Description="Depth">')
        lines.append(
            "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t" + self.sample
        )
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "VcfHeader":
        """Parse ##contig/#CHROM header lines."""
        contigs: list[tuple[str, int]] = []
        sample = "SAMPLE"
        for line in lines:
            if line.startswith("##contig="):
                body = line[len("##contig=<") :].rstrip(">")
                fields = dict(kv.split("=", 1) for kv in body.split(","))
                contigs.append((fields["ID"], int(fields.get("length", 0))))
            elif line.startswith("#CHROM"):
                columns = line.split("\t")
                if len(columns) >= 10:
                    sample = columns[9]
        return cls(tuple(contigs), sample)


def parse_vcf_lines(
    lines: Iterable[str],
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> Iterator[VcfRecord]:
    """Parse non-header VCF text lines under a bad-record policy."""
    check_policy(malformed)
    for line in lines:
        if line.startswith("#") or not line.strip():
            continue
        try:
            yield VcfRecord.from_line(line)
        except ValueError as exc:
            if malformed == "fail":
                raise
            route_malformed(sink, "vcf", line.rstrip("\n"), str(exc))


def read_vcf(
    path: str,
    malformed: str = "fail",
    sink: QuarantineSink | None = None,
) -> tuple[VcfHeader, list[VcfRecord]]:
    """Read a VCF text file into (header, records).

    ``malformed`` selects the bad-record policy for unparsable data lines
    (bad POS/QUAL numbers, empty REF/ALT, short field counts): ``"fail"``
    raises, ``"drop"`` skips, ``"quarantine"`` routes to ``sink``.
    """
    check_policy(malformed)
    header_lines: list[str] = []
    records: list[VcfRecord] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                header_lines.append(line.rstrip("\n"))
            elif line.strip():
                try:
                    records.append(VcfRecord.from_line(line))
                except ValueError as exc:
                    if malformed == "fail":
                        raise
                    route_malformed(sink, "vcf", line.rstrip("\n"), str(exc))
    return VcfHeader.from_lines(header_lines), records


def write_vcf(
    header: VcfHeader, records: Iterable[VcfRecord], fh_or_path: IO[str] | str
) -> None:
    """Write header lines then one record per line."""
    if isinstance(fh_or_path, str):
        with open(fh_or_path, "w", encoding="ascii") as fh:
            write_vcf(header, records, fh)
        return
    fh = fh_or_path
    for line in header.to_lines():
        fh.write(line)
        fh.write("\n")
    for rec in records:
        fh.write(rec.to_line())
        fh.write("\n")


def sort_records(records: Iterable[VcfRecord], contigs: list[str]) -> list[VcfRecord]:
    """Sort by (contig order, position, ref, alt)."""
    order = {name: i for i, name in enumerate(contigs)}
    return sorted(records, key=lambda r: (order.get(r.contig, len(order)), r.pos, r.ref, r.alt))


def known_sites_mask(
    records: Iterable[VcfRecord],
    spans: Mapping[str, tuple[int, int]],
) -> dict[str, np.ndarray]:
    """Known variant positions inside each contig's window, as boolean masks.

    ``spans`` maps a contig to a half-open window ``[start, end)``; in the
    returned mask, index ``i`` is True when position ``start + i`` is a
    known site.  BQSR uses this mask to skip known polymorphic sites when
    counting mismatches (a mismatch at a dbSNP site is not sequencer
    error).  Indels mask every reference base they span.  Only the window
    is allocated, so a partition's mask stays small on a whole chromosome.
    """
    masks = {
        name: np.zeros(max(end - start, 0), dtype=bool) for name, (start, end) in spans.items()
    }
    for rec in records:
        if rec.contig in spans:
            start, end = spans[rec.contig]
            lo, hi = max(rec.pos, start), min(rec.end, end)
            if lo < hi:
                masks[rec.contig][lo - start : hi - start] = True
    return masks
