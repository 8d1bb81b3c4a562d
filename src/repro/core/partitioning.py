"""PartitionInfo: GPF's dynamic genomic partition map (paper §4.4).

The base map divides every contig into fixed-length segments (the paper
uses 1,000,000 bp) and records two per-contig tables (Fig. 8):

- the number of partitions each contig contains, and
- the starting partition id of each contig (their exclusive prefix sum).

``partition_id(contig, position) = start_id[contig] + position // length``.

Load balancing is dynamic (Fig. 9): after counting reads per partition,
partitions above a threshold are split into equal sub-ranges via a
*partition split table* ``{partition_id: (split_count, new_start_id)}``;
new ids are allocated after the base range so unsplit partitions keep
their ids.  The example of Fig. 9: position (contig 4, 12,345,678) maps
to base partition 705; if the split table says (4, 3510) the final id is
``3510 + (12,345,678 % 1,000,000) // 250,000 = 3511``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.formats.fasta import Reference


@dataclass(frozen=True)
class PartitionSplitTable:
    """partition_id -> (split_count, start_id of its sub-partitions)."""

    entries: dict[int, tuple[int, int]] = field(default_factory=dict)

    def lookup(self, partition_id: int) -> tuple[int, int] | None:
        return self.entries.get(partition_id)

    def __len__(self) -> int:
        return len(self.entries)


class PartitionInfo:
    """(contig, position) -> partition id, with optional dynamic splits."""

    def __init__(
        self,
        reference_lengths: list[tuple[str, int]],
        partition_length: int = 1_000_000,
        split_table: PartitionSplitTable | None = None,
        num_partitions_override: int | None = None,
        read_span: int = 0,
    ):
        if partition_length <= 0:
            raise ValueError("partition_length must be positive")
        self.partition_length = partition_length
        #: The longest reference span of a read placed by this map: how far
        #: a region's reads can run past its end (sizes the region halo).
        self.read_span = read_span
        self.contig_names = [name for name, _ in reference_lengths]
        self.contig_lengths = {name: length for name, length in reference_lengths}
        # Partitions per contig (ceil division), Fig. 8's first table.
        self.partitions_per_contig = {
            name: max(1, -(-length // partition_length))
            for name, length in reference_lengths
        }
        # Starting id per contig: exclusive prefix sum, Fig. 8's second table.
        self.start_ids: dict[str, int] = {}
        running = 0
        for name, _ in reference_lengths:
            self.start_ids[name] = running
            running += self.partitions_per_contig[name]
        self.base_partitions = running
        self.split_table = split_table or PartitionSplitTable()
        # Total partitions = base + all split sub-partitions beyond base ids.
        extra = sum(count for count, _ in self.split_table.entries.values())
        self._num_partitions = (
            num_partitions_override
            if num_partitions_override is not None
            else self.base_partitions + extra
        )

    @classmethod
    def from_reference(
        cls, reference: Reference, partition_length: int = 1_000_000
    ) -> "PartitionInfo":
        return cls(reference.contig_lengths(), partition_length)

    # -- mapping -----------------------------------------------------------
    def base_partition_id(self, contig: str, position: int) -> int:
        """Fig. 8: segment base address + offset."""
        try:
            start_id = self.start_ids[contig]
        except KeyError:
            raise KeyError(f"contig {contig!r} not in PartitionInfo") from None
        length = self.contig_lengths[contig]
        if not 0 <= position < max(1, length):
            raise ValueError(
                f"position {position} outside contig {contig!r} [0, {length})"
            )
        return start_id + position // self.partition_length

    def partition_id(self, contig: str, position: int) -> int:
        """Fig. 9: base id resolved through the split table."""
        base = self.base_partition_id(contig, position)
        split = self.split_table.lookup(base)
        if split is None:
            return base
        split_count, new_start = split
        sub_length = self.partition_length // split_count
        offset_in_partition = position % self.partition_length
        sub_index = min(split_count - 1, offset_in_partition // max(1, sub_length))
        return new_start + sub_index

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    # -- dynamic splitting --------------------------------------------------
    def with_splits(
        self, read_counts: dict[int, int], threshold: int, read_span: int = 0
    ) -> "PartitionInfo":
        """New PartitionInfo splitting every partition above ``threshold``.

        ``read_counts`` maps *base* partition id -> observed read count
        (the driver-side reduce of §4.4 step 2).  A partition with count c
        is split into ceil(c / threshold) pieces; new ids start after the
        base range.  ``read_span`` is the longest read span the count saw.
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        entries: dict[int, tuple[int, int]] = {}
        next_id = self.base_partitions
        for partition_id in sorted(read_counts):
            count = read_counts[partition_id]
            if count > threshold:
                pieces = -(-count // threshold)
                entries[partition_id] = (pieces, next_id)
                next_id += pieces
        return PartitionInfo(
            [(name, self.contig_lengths[name]) for name in self.contig_names],
            self.partition_length,
            PartitionSplitTable(entries),
            read_span=read_span,
        )

    # -- interop with the engine ------------------------------------------
    def partition_func(self):
        """Key function for :class:`repro.engine.rdd.FuncPartitioner`.

        Keys are ``(contig, position)`` tuples.
        """

        def func(key: tuple[str, int]) -> int:
            contig, position = key
            return self.partition_id(contig, position)

        return func

    def partition_span(self, partition_id: int) -> tuple[str, int, int]:
        """(contig, start, end) genomic interval of a *base* partition."""
        if not 0 <= partition_id < self.base_partitions:
            raise ValueError(f"{partition_id} is not a base partition id")
        for name in self.contig_names:
            start_id = self.start_ids[name]
            count = self.partitions_per_contig[name]
            if start_id <= partition_id < start_id + count:
                index = partition_id - start_id
                start = index * self.partition_length
                end = min(self.contig_lengths[name], start + self.partition_length)
                return (name, start, end)
        raise AssertionError("unreachable")

    def count_reads(self, keyed_positions: list[tuple[str, int]]) -> dict[int, int]:
        """Base-partition histogram of (contig, position) keys."""
        counts: dict[int, int] = {}
        for contig, position in keyed_positions:
            pid = self.base_partition_id(contig, position)
            counts[pid] = counts.get(pid, 0) + 1
        return counts

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionInfo)
            and self.partition_length == other.partition_length
            and self.contig_lengths == other.contig_lengths
            and self.split_table.entries == other.split_table.entries
            and self.read_span == other.read_span
        )


def paper_example() -> PartitionInfo:
    """The exact Fig. 8/9 worked example, used by docs and tests.

    Contigs sized to contain 250, 244, 199, 192, 181, 172, 160 partitions
    of 1 Mbp, so the start-id table is 0, 250, 494, 693, 885, 1066, 1238.
    The split table uses the paper's literal new-start ids: partition 705
    split 4 ways starting at 3510 (so position (4, 12,345,678) maps to
    3511) and partition 801 split 5 ways starting at 3514.  (The paper
    prints 3513 for the second entry, which would overlap 705's four
    sub-partitions; we treat that as a typo and use the next free id.)
    """
    sizes = [250, 244, 199, 192, 181, 172, 160]
    lengths = [(f"{i + 1}", s * 1_000_000) for i, s in enumerate(sizes)]
    table = PartitionSplitTable({705: (4, 3510), 801: (5, 3514)})
    return PartitionInfo(
        lengths, 1_000_000, table, num_partitions_override=3519
    )
