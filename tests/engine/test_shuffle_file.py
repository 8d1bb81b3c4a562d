"""One map-output file per map task: a generated net over the layout.

A map task writes ``shuffle_<id>/<map>.bin``: the non-empty buckets'
crc-framed blocks back to back, then an index (R+1 offsets, R, crc32).
Cases are drawn from a stdlib ``random.Random`` seed over partitioners
that leave whole map tasks empty, use a single reduce partition, or put
nearly every record in one bucket, under both serializers.  The local
reader and a live loopback block server must return the same bytes for
every (map, reduce); a reduce must get its records back in per-map order;
and a damaged file or an out-of-range reduce partition must surface as
the typed :class:`ShuffleFetchFailedError`, never as an ``IndexError``,
``ValueError`` or an ``OSError`` from a bad seek.
"""

from __future__ import annotations

import os
import random
import socket
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.chaos import ChaosInjector, ChaosPlan, ChaosRule
from repro.dist.worker import DistShuffle, fetch_block, run_block_server, stop_listener
from repro.engine.blockmanager import BlockCorruptionError
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import ShuffleFetchFailedError
from repro.engine.metrics import MetricsRegistry, TaskMetrics
from repro.engine.rdd import FuncPartitioner, HashPartitioner, Partitioner
from repro.engine.serializers import get_serializer
from repro.engine.shuffle import ShuffleManager, read_block
from repro.formats.fastq import FastqRecord

SEEDS = range(12)
KINDS = ("all_empty", "single_reduce", "mostly_empty", "hash")
#: Index bytes per map-output file besides its R+1 u64 offsets: u32 R, u32 crc.
TAIL = 8
#: Block-server namespace the tests serve their spill root under.
NS = 0


@dataclass
class Case:
    partitioner: Partitioner
    maps: list[list[tuple]]

    @property
    def num_reduce(self) -> int:
        return self.partitioner.num_partitions

    def expected(self, reduce_p: int) -> list[tuple]:
        """Records of one reduce partition: map 0's first, each in the
        order its map task saw them."""
        return [kv for elements in self.maps for kv in elements
                if self.partitioner(kv[0]) == reduce_p]


def gen_value(rng: random.Random, serializer: str, i: int):
    if serializer == "gpf":
        length = rng.randint(1, 60)
        seq = "".join(rng.choice("ACGT") for _ in range(length))
        qual = "".join(chr(rng.randint(35, 73)) for _ in range(length))
        return FastqRecord(f"r{i}", seq, qual)
    return rng.randint(-(10**6), 10**6)


def gen_case(seed: int, serializer: str) -> Case:
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    num_map = rng.randint(1, 4)
    if kind == "single_reduce":
        partitioner: Partitioner = HashPartitioner(1)
    elif kind == "mostly_empty":
        num_reduce, hot = rng.randint(4, 12), rng.randrange(4)
        partitioner = FuncPartitioner(
            num_reduce, lambda key: hot if key % 10 else key % num_reduce
        )
    else:
        partitioner = HashPartitioner(rng.randint(2, 9))
    maps = []
    for _ in range(num_map):
        # Some map tasks are empty in every kind; in "all_empty" all are.
        size = 0 if kind == "all_empty" or rng.random() < 0.25 else rng.randint(1, 40)
        maps.append(
            [(rng.randrange(50), gen_value(rng, serializer, i)) for i in range(size)]
        )
    return Case(partitioner, maps)


def write_case(manager: ShuffleManager, case: Case, serializer) -> int:
    shuffle_id = manager.register(len(case.maps))
    for map_p, elements in enumerate(case.maps):
        manager.write(
            shuffle_id, map_p, elements, case.partitioner, serializer,
            TaskMetrics(partition=map_p),
        )
    return shuffle_id


@pytest.fixture()
def served(tmp_path):
    """A spill root, a live loopback block server over it, and one open
    connection to that server."""
    root = str(tmp_path / "spill")
    listener, port, _ = run_block_server(
        "127.0.0.1", lambda ns: root if ns == NS else None
    )
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        yield root, port, sock
    finally:
        sock.close()
        stop_listener(listener)


@pytest.mark.parametrize("serializer_name", ["gpf", "compact"])
@pytest.mark.parametrize("seed", SEEDS)
def test_local_and_served_bytes_agree(served, tmp_path, seed, serializer_name):
    root, port, sock = served
    serializer = get_serializer(serializer_name)
    case = gen_case(seed, serializer_name)
    metrics = MetricsRegistry()
    manager = ShuffleManager(root, metrics=metrics)
    shuffle_id = write_case(manager, case, serializer)
    assert metrics.counter("shuffle.files_written") == len(case.maps)
    assert sorted(os.listdir(os.path.join(root, f"shuffle_{shuffle_id}"))) == sorted(
        f"{m}.bin" for m in range(len(case.maps))
    )

    for map_p, elements in enumerate(case.maps):
        blocks = []
        for reduce_p in range(case.num_reduce):
            local = read_block(root, shuffle_id, map_p, reduce_p)
            assert fetch_block(sock, NS, shuffle_id, map_p, reduce_p) == local
            # An empty bucket is an empty range, never an encoded block.
            has_records = any(case.partitioner(k) == reduce_p for k, _ in elements)
            assert bool(local) == has_records
            blocks.append(local)
        path = os.path.join(root, f"shuffle_{shuffle_id}", f"{map_p}.bin")
        index = (case.num_reduce + 1) * 8 + TAIL
        assert os.path.getsize(path) == sum(map(len, blocks)) + index

    # Records come back in per-map order, locally and through a peer.
    peer = DistShuffle(str(tmp_path / "peer"), ("127.0.0.1", 1), ns=NS)
    peer.set_locations({
        shuffle_id: {
            "num_map": len(case.maps),
            "maps": {m: ("127.0.0.1", port) for m in range(len(case.maps))},
        }
    })
    for reduce_p in range(case.num_reduce):
        local_task, peer_task = TaskMetrics(partition=reduce_p), TaskMetrics(partition=reduce_p)
        local = list(manager.read(shuffle_id, reduce_p, serializer, local_task))
        fetched = list(peer.read(shuffle_id, reduce_p, serializer, peer_task))
        assert local == fetched == case.expected(reduce_p)
        assert local_task.shuffle_bytes_read == peer_task.shuffle_bytes_read


def damages(seed: int, size: int, num_reduce: int):
    """Functions from a map-output file's bytes to the bytes a torn write
    or a flipped index bit would have left."""
    rng = random.Random(seed)
    index = (num_reduce + 1) * 8 + TAIL
    cut = rng.randrange(size)
    flip_at = size - index + rng.randrange(index)
    flip = rng.randrange(1, 256)
    return [
        lambda data: data[:cut],
        lambda data: b"",
        lambda data: data[:flip_at] + bytes([data[flip_at] ^ flip]) + data[flip_at + 1:],
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_damaged_map_output_is_a_typed_fetch_failure(served, seed):
    root, _, sock = served
    serializer = get_serializer("compact")
    case = gen_case(seed, "compact")
    manager = ShuffleManager(root)
    shuffle_id = write_case(manager, case, serializer)
    map_p = random.Random(seed).randrange(len(case.maps))
    path = os.path.join(root, f"shuffle_{shuffle_id}", f"{map_p}.bin")
    with open(path, "rb") as fh:
        intact = fh.read()

    def assert_fetch_fails(reduce_p: int) -> None:
        with pytest.raises(ShuffleFetchFailedError) as local:
            read_block(root, shuffle_id, map_p, reduce_p)
        assert (local.value.shuffle_id, local.value.map_partition) == (shuffle_id, map_p)
        with pytest.raises(ShuffleFetchFailedError) as served_error:
            fetch_block(sock, NS, shuffle_id, map_p, reduce_p)
        assert served_error.value.map_partition == map_p

    for reduce_p in (case.num_reduce, case.num_reduce + 7, -1, None):
        assert_fetch_fails(reduce_p)
    for damage in damages(seed, len(intact), case.num_reduce):
        with open(path, "wb") as fh:
            fh.write(damage(intact))
        for reduce_p in range(case.num_reduce):
            assert_fetch_fails(reduce_p)
        with pytest.raises(ShuffleFetchFailedError):
            manager.read(shuffle_id, 0, serializer, TaskMetrics(partition=0))
    os.remove(path)
    assert_fetch_fails(0)
    os.mkdir(path)  # any OSError on open is typed too
    assert_fetch_fails(0)
    # The server answered every failure in-band and still serves blocks.
    other = (map_p + 1) % len(case.maps)
    if other != map_p:
        assert fetch_block(sock, NS, shuffle_id, other, 0) == read_block(
            root, shuffle_id, other, 0
        )


def small_plan(ctx: GPFContext) -> list:
    """Two shuffles: 3 map tasks into 4 reduce partitions, then 4 into 2."""
    counts = (
        ctx.parallelize([(i % 7, 1) for i in range(60)], 3)
        .partition_by(HashPartitioner(4))
        .map_partitions(lambda pairs: Counter(k for k, _ in pairs).items())
    )
    swapped = counts.map(lambda kv: (kv[1], kv[0]))
    return sorted(swapped.partition_by(HashPartitioner(2)).collect())


def spill_files(root) -> dict[str, bytes]:
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                files[os.path.relpath(os.path.join(directory, name), root)] = fh.read()
    return files


def test_files_written_counts_one_file_per_map_task(tmp_path):
    spill = tmp_path / "spill"
    with GPFContext(EngineConfig(spill_dir=str(spill))) as ctx:
        small_plan(ctx)
        assert ctx.metrics.counter("shuffle.files_written") == 3 + 4
        assert len(spill_files(spill)) == 3 + 4


def test_shuffle_write_eio_retries_and_overwrites(tmp_path):
    def run(tag: str, rules: list) -> tuple:
        spill = tmp_path / tag
        config = EngineConfig(spill_dir=str(spill), chaos=ChaosPlan(rules=rules))
        with GPFContext(config) as ctx:
            out = small_plan(ctx)
            return out, spill_files(spill), ctx.metrics.failure_counts(), ctx.chaos.log

    clean, clean_files, clean_failures, _ = run("clean", [])
    # shuffle.write fires once per map-output file: the 2nd hit is map 1
    # of the first shuffle, whose attempt dies after creating its file.
    rule = ChaosRule(site="shuffle.write", fault="eio", nth=2)
    out, files, failures, log = run("faulted", [rule])
    assert clean_failures == {}
    assert failures == {("shuffle-map", 1): 1}
    assert [(e["shuffle"], e["map"]) for e in log] == [(0, 1)]
    assert out == clean
    # The retry overwrote the torn file: every spill file matches the
    # fault-free run's byte for byte.
    assert files == clean_files


def torn_to_nothing(site: str, block: bytes) -> ChaosPlan:
    """A plan whose one ``torn`` rule cuts ``block`` to b"" at the first
    hit of ``site``: the seed is searched, so it holds for any block size."""
    rule = ChaosRule(site=site, fault="torn", nth=1)
    for seed in range(10_000):
        plan = ChaosPlan(seed=seed, rules=[rule])
        if ChaosInjector(plan).mangle(site, block) == b"":
            return plan
    raise AssertionError(f"no seed tears a {len(block)}-byte block to nothing")


def one_record_plan(ctx: GPFContext) -> list:
    """One map task, one reduce partition, one record: a single block."""
    return ctx.parallelize([(0, "x")], 1).group_by_key().collect()


def test_shuffle_fetch_torn_to_nothing_fails_the_attempt(tmp_path):
    with GPFContext(EngineConfig(spill_dir=str(tmp_path / "clean"))) as ctx:
        clean = one_record_plan(ctx)
        block = read_block(str(tmp_path / "clean"), 0, 0, 0)
    assert clean == [(0, ["x"])]

    plan = torn_to_nothing("shuffle.fetch", block)
    config = EngineConfig(spill_dir=str(tmp_path / "torn"), chaos=plan)
    with GPFContext(config) as ctx:
        out = one_record_plan(ctx)
        failures = ctx.metrics.failures
        log = ctx.chaos.log
    # The emptied block failed its crc check instead of reading as an
    # empty bucket; the retried attempt re-read the intact file.
    assert [e["site"] for e in log] == ["shuffle.fetch"]
    assert [f.error_type for f in failures] == ["BlockCorruptionError"]
    assert out == clean


def test_dist_fetch_torn_to_nothing_fails_the_attempt(served, tmp_path):
    root, port, _ = served
    serializer = get_serializer("compact")
    manager = ShuffleManager(root)
    shuffle_id = manager.register(1)
    manager.write(
        shuffle_id, 0, [(0, 7)], HashPartitioner(1), serializer, TaskMetrics(partition=0)
    )
    peer = DistShuffle(str(tmp_path / "peer"), ("127.0.0.1", 1), ns=NS)
    peer.set_locations({shuffle_id: {"num_map": 1, "maps": {0: ("127.0.0.1", port)}}})
    clean = list(peer.read(shuffle_id, 0, serializer, TaskMetrics(partition=0)))
    assert clean == [(0, 7)]

    peer.chaos = ChaosInjector(
        torn_to_nothing("dist.fetch", read_block(root, shuffle_id, 0, 0))
    )
    with pytest.raises(BlockCorruptionError):
        peer.read(shuffle_id, 0, serializer, TaskMetrics(partition=0))
    assert [e["site"] for e in peer.chaos.log] == ["dist.fetch"]
    # The retry (the rule fired once) fetches the intact block.
    assert list(peer.read(shuffle_id, 0, serializer, TaskMetrics(partition=0))) == clean
