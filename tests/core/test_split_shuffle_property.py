"""Dynamic repartitioning never loses, duplicates or reorders a read.

A property net over the shuffle path GPF's repartitioner uses (paper
§4.3, Fig. 8-9): generated contigs, a partition length, read positions
with a coverage hotspot, and a split threshold fed through
``PartitionInfo.with_splits``.  The keyed reads go through
``partition_by(FuncPartitioner(n, info.partition_func()))`` on the serial
and threads backends with both serializers.  ``SamRecord`` values keep
the gpf serializer on its keyed-SAM codec path rather than the pickle
fallback.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitioning import PartitionInfo
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.rdd import FuncPartitioner
from repro.engine.serializers import get_serializer
from repro.formats.cigar import Cigar
from repro.formats.sam import UNMAPPED_POS, SamRecord


def read_at(index: int, contig: str, position: int) -> SamRecord:
    return SamRecord(
        qname=f"r{index}",
        flag=0,
        rname=contig,
        pos=position,
        mapq=60,
        cigar=Cigar.parse("8M"),
        rnext="*",
        pnext=UNMAPPED_POS,
        tlen=0,
        seq="ACGTACGT",
        qual="IIIIIIII",
    )


@st.composite
def layouts(draw):
    """(contigs, partition length, read keys, split threshold, map splits)."""
    lengths = draw(st.lists(st.integers(50, 3_000), min_size=1, max_size=3))
    contigs = [(f"chr{i + 1}", length) for i, length in enumerate(lengths)]
    partition_length = draw(st.integers(20, 1_500))
    hot = draw(st.integers(0, len(contigs) - 1))
    hot_start = draw(st.integers(0, lengths[hot] - 1))
    hot_width = draw(st.integers(1, 60))
    keys = []
    for _ in range(draw(st.integers(0, 80))):
        if draw(st.booleans()):  # a hotspot read
            offset = draw(st.integers(0, hot_width - 1))
            keys.append((contigs[hot][0], min(lengths[hot] - 1, hot_start + offset)))
        else:
            c = draw(st.integers(0, len(contigs) - 1))
            keys.append((contigs[c][0], draw(st.integers(0, lengths[c] - 1))))
    threshold = draw(st.integers(1, 30))
    map_partitions = draw(st.integers(1, 4))
    return contigs, partition_length, keys, threshold, map_partitions


def test_keyed_reads_take_the_gpf_codec_path():
    blob = get_serializer("gpf").dumps([(("chr1", 5), read_at(0, "chr1", 5))])
    assert blob[:1] == b"K"  # keyed SAM, not the pickle fallback


@pytest.mark.parametrize("serializer", ["gpf", "compact"])
@pytest.mark.parametrize("backend", ["serial", "threads"])
@settings(max_examples=20, deadline=None)
@given(layout=layouts())
def test_split_shuffle_preserves_reads_placement_and_order(
    tmp_path_factory, backend, serializer, layout
):
    contigs, partition_length, keys, threshold, map_partitions = layout
    base = PartitionInfo(contigs, partition_length)
    info = base.with_splits(base.count_reads(keys), threshold)
    keyed = [(key, read_at(i, *key)) for i, key in enumerate(keys)]
    config = EngineConfig(
        executor_backend=backend,
        num_workers=2,
        serializer=serializer,
        spill_dir=str(tmp_path_factory.mktemp("spill")),
    )
    with GPFContext(config) as ctx:
        shuffled = ctx.parallelize(keyed, map_partitions).partition_by(
            FuncPartitioner(info.num_partitions, info.partition_func())
        )
        parts = ctx.run_job(shuffled)

    assert len(parts) == info.num_partitions
    flat = [(key, rec.qname) for part in parts for key, rec in part]
    # The read multiset is preserved: nothing lost, nothing duplicated.
    assert Counter(flat) == Counter((key, f"r{i}") for i, key in enumerate(keys))
    for partition_id, part in enumerate(parts):
        for key, _ in part:
            # Every read lands where PartitionInfo (splits included) says,
            # and that is its base partition or one of its sub-partitions.
            assert info.partition_id(*key) == partition_id
            base_id = info.base_partition_id(*key)
            split = info.split_table.lookup(base_id)
            count, first = (1, base_id) if split is None else split
            assert first <= partition_id < first + count
        # parallelize slices are contiguous, so (map partition, input
        # position) order is input order.
        order = [int(rec.qname[1:]) for _, rec in part]
        assert order == sorted(order)
