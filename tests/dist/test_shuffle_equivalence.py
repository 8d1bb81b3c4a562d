"""DistShuffle *is* the engine's shuffle: a differential test.

The cluster transport's shuffle subclasses ``ShuffleManager`` and
overrides only where a block's bytes come from.  With every location its
own address it must therefore be indistinguishable from the plain
manager: same map-output files byte for byte (one per map task), same
records back, same ``shuffle.*`` counters, same per-task byte/record
metrics.
"""

import os

import pytest

from repro.dist.worker import DistShuffle
from repro.engine.metrics import TaskMetrics
from repro.engine.rdd import HashPartitioner
from repro.engine.serializers import get_serializer
from repro.engine.shuffle import ShuffleManager
from repro.formats.fastq import FastqRecord
from repro.engine.metrics import MetricsRegistry

NUM_MAP, NUM_REDUCE = 3, 4
TASK_FIELDS = (
    "shuffle_bytes_written",
    "records_written",
    "shuffle_bytes_read",
    "records_read",
)


def keyed_ints():
    return [[(f"k{i % 5}", i) for i in range(m, 90, NUM_MAP)] for m in range(NUM_MAP)]


def keyed_reads():
    return [
        [
            (i % 7, FastqRecord(f"r{i}", "ACGT" * 10, "I" * 40))
            for i in range(m, 60, NUM_MAP)
        ]
        for m in range(NUM_MAP)
    ]


def drive(manager, metrics, root, map_inputs, serializer):
    """One whole shuffle through ``manager``; everything observable."""
    shuffle_id = manager.register(NUM_MAP)
    tasks = []
    for map_partition, elements in enumerate(map_inputs):
        task = TaskMetrics(partition=map_partition)
        manager.write(
            shuffle_id, map_partition, elements,
            HashPartitioner(NUM_REDUCE), serializer, task,
        )
        tasks.append(task)
    records = []
    for reduce_partition in range(NUM_REDUCE):
        task = TaskMetrics(partition=reduce_partition)
        records.append(list(manager.read(shuffle_id, reduce_partition, serializer, task)))
        tasks.append(task)
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    counters = {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith("shuffle.")
    }
    metrics = [[getattr(t, f) for f in TASK_FIELDS] for t in tasks]
    return files, records, counters, metrics


@pytest.mark.parametrize(
    "serializer_name, make_input",
    [("gpf", keyed_reads), ("compact", keyed_ints)],
)
def test_single_node_dist_shuffle_equals_the_engine_shuffle(
    tmp_path, serializer_name, make_input
):
    serializer = get_serializer(serializer_name)
    plain_tel, dist_tel = MetricsRegistry(), MetricsRegistry()
    plain_root, dist_root = str(tmp_path / "plain"), str(tmp_path / "dist")
    plain = ShuffleManager(plain_root, metrics=plain_tel)
    dist = DistShuffle(dist_root, ("127.0.0.1", 1), metrics=dist_tel)

    expected = drive(plain, plain_tel, plain_root, make_input(), serializer)
    actual = drive(dist, dist_tel, dist_root, make_input(), serializer)

    files, records, counters, metrics = expected
    assert len(files) == NUM_MAP
    assert counters["shuffle.files_written"] == NUM_MAP
    assert sum(len(part) for part in records) == sum(len(p) for p in make_input())
    assert counters["shuffle.bytes_written"] == counters["shuffle.bytes_read"] > 0
    assert actual == expected
    # Every location is the node itself: nothing was fetched from a peer.
    assert dist_tel.counter("dist.fetches") == 0
