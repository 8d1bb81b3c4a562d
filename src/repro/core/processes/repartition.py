"""ReadRepartitioner: the dynamic partition Process of §4.4.

Three steps, as the paper describes:

1. Build the basic equal-length ``PartitionInfo`` from the reference.
2. Count reads per base partition: map each SAM record to
   ``(partition_id, (1, reference span))``, reduce to the count and the
   longest span, and ``collect()`` the histogram to the driver.  The
   longest span sizes every region's halo.
3. Split every partition whose count exceeds the segmentation threshold,
   producing the split table (Fig. 9) embedded in a new PartitionInfo.

Output: a defined :class:`PartitionInfoBundle` the partition Processes
share — which is also the resource identity the optimizer keys on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.bundles import PartitionInfoBundle, SAMBundle
from repro.core.partitioning import PartitionInfo
from repro.core.process import Process

if TYPE_CHECKING:
    from repro.engine.context import GPFContext


class ReadRepartitioner(Process):
    def __init__(
        self,
        name: str,
        input_sam_bundles: Sequence[SAMBundle],
        output_partition_info: PartitionInfoBundle,
        reference_lengths: list[tuple[str, int]],
        advised_partition_length: int = 1_000_000,
        segmentation_threshold: int | None = None,
    ):
        super().__init__(
            name,
            inputs=list(input_sam_bundles),
            outputs=[output_partition_info],
            input_types=[SAMBundle] * len(list(input_sam_bundles)),
            output_types=[PartitionInfoBundle],
        )
        self.input_sam_bundles = list(input_sam_bundles)
        self.output_partition_info = output_partition_info
        self.reference_lengths = reference_lengths
        self.advised_partition_length = advised_partition_length
        self.segmentation_threshold = segmentation_threshold

    def execute(self, ctx: "GPFContext") -> None:
        """Count reads per base partition, split the overloaded ones."""
        base = PartitionInfo(
            self.reference_lengths, self.advised_partition_length
        )
        shared = ctx.broadcast(base)

        def to_partition_count(rec) -> tuple[int, tuple[int, int]]:
            info: PartitionInfo = shared.value
            return (info.base_partition_id(rec.rname, rec.pos), (1, rec.end - rec.pos))

        counts: dict[int, int] = {}
        read_span = 0
        for bundle in self.input_sam_bundles:
            pairs = (
                bundle.rdd.filter(lambda r: not r.is_unmapped)
                .map(to_partition_count)
                .reduce_by_key(lambda a, b: (a[0] + b[0], max(a[1], b[1])))
                .collect()
            )
            for pid, (count, span) in pairs:
                counts[pid] = counts.get(pid, 0) + count
                read_span = max(read_span, span)

        threshold = self.segmentation_threshold
        if threshold is None:
            # Default: split anything above 2x the mean occupancy.
            occupied = [c for c in counts.values() if c > 0]
            mean = sum(occupied) / len(occupied) if occupied else 1.0
            threshold = max(1, int(2 * mean))

        info = base.with_splits(counts, threshold, read_span)
        self.output_partition_info.define(info)
