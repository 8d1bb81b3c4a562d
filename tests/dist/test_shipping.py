"""Closure shipping round-trips, including over a real socket.

Satellite coverage: serializer round-trips across a socketpair under
partial reads, ``ParallelCollectionRDD`` slices shipped as the
serializer's compressed bytes with worker-side lazy decode (a task's own
slice only), and the stage cut: a written shuffle ships as its id, not
its map side.
"""

import io
import os
import pickle
import socket

import pytest

from repro.dist import protocol
from repro.dist.shipping import (
    CTX_TOKEN,
    SliceNotShippedError,
    ship_dumps,
    ship_loads,
)
from repro.dist.spec import format_hostport
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.metrics import TaskMetrics
from repro.engine.rdd import RDD, HashPartitioner, ShuffleDependency
from repro.engine.scheduler import DAGScheduler

HELPER_CONSTANT = 7


@pytest.fixture()
def ctx(tmp_path):
    context = GPFContext(
        EngineConfig(default_parallelism=3, spill_dir=str(tmp_path / "spill"))
    )
    yield context
    context.stop()


@pytest.fixture()
def worker_ctx(ctx, tmp_path):
    from repro.dist.worker import WorkerContext

    wctx = WorkerContext(
        str(tmp_path / "worker"),
        0,
        ("127.0.0.1", 0),
        ctx.serializer,
    )
    return wctx


class TestFunctions:
    def test_importable_function_ships_by_reference(self, ctx):
        loaded = ship_loads(ship_dumps(format_hostport, ctx), ctx)
        assert loaded is format_hostport

    def test_lambda_ships_by_value(self, ctx):
        loaded = ship_loads(ship_dumps(lambda x: x * 3, ctx), ctx)
        assert loaded(14) == 42

    def test_closure_cells_travel(self, ctx):
        def make_adder(n):
            def add(x):
                return x + n

            return add

        loaded = ship_loads(ship_dumps(make_adder(10), ctx), ctx)
        assert loaded(5) == 15

    def test_referenced_globals_travel(self, ctx):
        def f(x):
            return x + HELPER_CONSTANT

        loaded = ship_loads(ship_dumps(f, ctx), ctx)
        assert loaded(1) == 8

    def test_globals_of_nested_lambdas_travel(self, ctx):
        # The constant is only named inside the *inner* code object; the
        # globals walk must recurse through nested co_consts.
        def f():
            return (lambda: HELPER_CONSTANT)()

        loaded = ship_loads(ship_dumps(f, ctx), ctx)
        assert loaded() == HELPER_CONSTANT

    def test_captured_module_reimports(self, ctx):
        def f(a, b):
            return os.path.join(a, b)

        loaded = ship_loads(ship_dumps(f, ctx), ctx)
        assert loaded("x", "y") == os.path.join("x", "y")

    def test_unresolved_closure_cell_is_a_pickling_error(self, ctx):
        def outer():
            def f():
                return late

            if False:
                late = 1  # noqa: F841 - makes `late` a (forever empty) cell
            return f

        with pytest.raises(pickle.PicklingError, match="unresolved closure"):
            ship_dumps(outer(), ctx)


class TestContextToken:
    def test_driver_context_swaps_for_the_worker_context(self, ctx, worker_ctx):
        blob = ship_dumps({"ctx": ctx, "n": 3}, ctx)
        assert CTX_TOKEN.encode() in blob  # the context itself never ships
        loaded = ship_loads(blob, worker_ctx)
        assert loaded["ctx"] is worker_ctx
        assert loaded["n"] == 3

    def test_unknown_persistent_id_is_rejected(self, ctx):
        import io

        from repro.dist.shipping import ShipPickler

        marker = object()

        class WrongPid(ShipPickler):
            def persistent_id(self, obj):
                return "gpf:wrong" if obj is marker else None

        buffer = io.BytesIO()
        WrongPid(buffer, ctx).dump(marker)
        with pytest.raises(pickle.UnpicklingError, match="gpf:wrong"):
            ship_loads(buffer.getvalue(), ctx)


class TestParallelCollectionBundles:
    def test_slices_ship_as_compressed_bundles(self, ctx, worker_ctx):
        data = [(f"k{i % 5}", i) for i in range(200)]
        rdd = ctx.parallelize(data, 4)
        blob = ship_dumps(rdd, ctx)
        loaded = ship_loads(blob, worker_ctx)
        assert loaded.ctx is worker_ctx
        # Slices decode lazily — they arrive as block views, not lists.
        assert all(not isinstance(s, list) for s in loaded._slices if s)
        restored = [kv for part in loaded._slices for kv in part]
        assert restored == data

    def test_empty_slices_survive(self, ctx, worker_ctx):
        rdd = ctx.parallelize([1], 3)  # two of three slices are empty
        loaded = ship_loads(ship_dumps(rdd, ctx), worker_ctx)
        slices = [list(s) for s in loaded._slices]
        assert len(slices) == 3
        assert sorted(sum(slices, [])) == [1]
        assert slices.count([]) == 2

    def test_a_task_ships_only_its_own_slice(self, ctx, worker_ctx):
        data = [(f"k{i % 5}", i) for i in range(400)]
        rdd = ctx.parallelize(data, 4)
        whole = ship_dumps(rdd, ctx)
        blob = ship_dumps(rdd, ctx, split=2)
        assert len(blob) < len(whole) / 2
        loaded = ship_loads(blob, worker_ctx)
        assert list(loaded._slices[2]) == data[200:300]
        for split in (0, 1, 3):
            with pytest.raises(SliceNotShippedError, match=f"slice {split} "):
                list(loaded._slices[split])

    def test_shipped_task_body_reads_its_split_through_a_narrow_chain(
        self, ctx, worker_ctx
    ):
        data = list(range(300))
        mapped = ctx.parallelize(data, 3).map(lambda x: x * 2).map_partitions(
            lambda part: [sum(part)]
        )
        for split in range(3):
            body, task = _result_body(mapped, split)
            loaded, loaded_task = ship_loads(ship_dumps((body, task), ctx, split), worker_ctx)
            assert list(loaded(loaded_task)) == [2 * sum(data[100 * split : 100 * (split + 1)])]

    def test_bundle_form_beats_pickled_lists(self, ctx, read_pairs):
        """The point of shipping codec bytes: ship traffic shrinks by
        the genomic codec's compression ratio (Table 3)."""
        rdd = ctx.parallelize(read_pairs, 2)
        shipped = len(ship_dumps(rdd, ctx))
        plain = len(pickle.dumps(read_pairs))
        assert shipped < plain

    def test_roundtrip_over_a_socket_in_small_chunks(self, ctx, worker_ctx):
        """A shipped task crossing a real socket under torn reads."""
        import threading

        data = list(range(500))
        payload = (ctx.parallelize(data, 2), lambda x: x + 1)
        blob = ship_dumps(payload, ctx)
        a, b = socket.socketpair()
        try:
            # Tiny send buffer forces many partial reads on the receiver.
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
            sender = threading.Thread(
                target=protocol.send_frame,
                args=(a, protocol.MSG_TASK, {"ns": 0}, blob),
            )
            sender.start()
            kind, header, body = protocol.recv_frame(b)
            sender.join()
        finally:
            a.close()
            b.close()
        assert kind == protocol.MSG_TASK
        rdd, func = ship_loads(body, worker_ctx)
        assert [func(x) for part in rdd._slices for x in part] == [
            x + 1 for x in data
        ]


def _reader_for(ctx, tmp_path, shuffle_ids):
    """A WorkerContext that reads the driver's spill files as its own:
    every map output of ``shuffle_ids`` is located at the worker."""
    from repro.dist.worker import WorkerContext

    here = ("127.0.0.1", 0)
    wctx = WorkerContext(str(tmp_path / "spill"), 0, here, ctx.serializer)
    locations = {}
    for shuffle_id in shuffle_ids:
        num_map, maps = ctx.shuffle_manager.locations(shuffle_id)
        locations[shuffle_id] = {
            "num_map": num_map,
            "maps": {m: here for m in maps},
        }
    wctx.shuffle_manager.set_locations(locations)
    return wctx


def _result_body(rdd, split):
    """The scheduler's result-task body shape, shipped as the cluster
    transport ships it: ``(body, task)``."""
    return (lambda task: rdd.iterator(split, task)), TaskMetrics(partition=split)


def _captured(body, name):
    """The value a shipped closure captured under ``name``."""
    cells = dict(zip(body.__code__.co_freevars, body.__closure__))
    return cells[name].cell_contents


def _types_pickled(obj, ctx) -> set:
    """Every type the ship pickler visits while pickling ``obj``."""
    from repro.dist.shipping import ShipPickler

    seen: set = set()

    class Recording(ShipPickler):
        def reducer_override(self, value):
            seen.add(type(value))
            return super().reducer_override(value)

    Recording(io.BytesIO(), ctx).dump(obj)
    return seen


class _CoGroupShaped(RDD):
    """Two shuffle dependencies side by side, the shape ``shuffle_deps``
    allows; no engine operator builds one, so the stage cut is pinned
    for it here."""

    def __init__(self, left, right, partitioner):
        deps = [ShuffleDependency(p, partitioner) for p in (left, right)]
        super().__init__(
            left.ctx,
            partitioner.num_partitions,
            parents=[left, right],
            shuffle_deps=deps,
        )

    def compute(self, split, task):
        out = []
        for dep in self.shuffle_deps:
            out.extend(
                self.ctx.shuffle_manager.read(
                    dep.shuffle_id, split, self.serializer, task
                )
            )
        return out


class TestStageCut:
    def test_written_shuffle_ships_its_id_not_its_lineage(
        self, ctx, tmp_path
    ):
        sizes = {}
        for n in (10, 10_000):
            data = [(i % 7, i) for i in range(n)]
            shuffled = ctx.parallelize(data, 4).partition_by(HashPartitioner(3))
            expected = ctx.run_job(shuffled, [1])[0]
            blob = ship_dumps(_result_body(shuffled, 1), ctx)
            sizes[n] = len(blob)
            shuffle_id = shuffled.shuffle_deps[0].shuffle_id
            wctx = _reader_for(ctx, tmp_path, [shuffle_id])
            body, task = ship_loads(blob, wctx)
            loaded = _captured(body, "rdd")
            assert loaded.parents == []
            assert loaded.shuffle_deps[0].parent is None
            assert loaded.shuffle_deps[0].shuffle_id == shuffle_id
            assert list(body(task)) == list(expected)
            # The driver's own lineage is untouched.
            assert shuffled.parents and shuffled.shuffle_deps[0].parent
        assert abs(sizes[10] - sizes[10_000]) <= 8, sizes

    def test_cogroup_with_two_written_deps_is_cut(self, ctx, tmp_path):
        left = ctx.parallelize([(i % 5, i) for i in range(3_000)], 3)
        right = ctx.parallelize([(i % 5, -i) for i in range(3_000)], 2)
        grouped = _CoGroupShaped(left, right, HashPartitioner(2))
        expected = ctx.run_job(grouped, [0])[0]
        blob = ship_dumps(_result_body(grouped, 0), ctx)
        assert len(blob) < 2_000  # 6,000 records would not fit
        ids = [dep.shuffle_id for dep in grouped.shuffle_deps]
        body, task = ship_loads(blob, _reader_for(ctx, tmp_path, ids))
        loaded = _captured(body, "rdd")
        assert loaded.parents == []
        assert [dep.shuffle_id for dep in loaded.shuffle_deps] == ids
        assert all(dep.parent is None for dep in loaded.shuffle_deps)
        assert sorted(body(task)) == sorted(expected)

    @pytest.mark.parametrize("written", [(), (0,)])
    def test_an_unwritten_dep_ships_the_map_side(self, ctx, worker_ctx, written):
        left = ctx.parallelize([(i, i) for i in range(50)], 2)
        right = ctx.parallelize([(i, -i) for i in range(50)], 2)
        grouped = _CoGroupShaped(left, right, HashPartitioner(2))
        for i in written:  # one dep written, the other not: still whole
            grouped.shuffle_deps[i].shuffle_id = 0
        loaded = ship_loads(ship_dumps(grouped, ctx), worker_ctx)
        assert len(loaded.parents) == 2
        for dep, source in zip(loaded.shuffle_deps, (left, right)):
            assert dep.parent is not None
            restored = [kv for part in dep.parent._slices for kv in part]
            assert restored == [kv for part in source._slices for kv in part]

    def test_map_task_body_carries_one_stage(self, ctx):
        """Map body of the k-th shuffle in a chain: no scheduler in the
        pickle, and the same size whatever k is."""
        sizes = {}
        rdd = ctx.parallelize([(i % 11, i) for i in range(2_000)], 3)
        for k in range(1, 6):
            shuffled = rdd.partition_by(HashPartitioner(3))
            dep = shuffled.shuffle_deps[0]
            body = ctx._scheduler._map_task_body(dep, 99, 0)
            payload = (body, TaskMetrics(partition=0))
            assert DAGScheduler not in _types_pickled(payload, ctx)
            sizes[k] = len(ship_dumps(payload, ctx))
            ctx.run_job(shuffled)  # write shuffle k; the next map reads it
            rdd = shuffled.map(lambda kv: (kv[0], kv[1] + 1))
        chained = [sizes[k] for k in (2, 3, 4, 5)]
        assert max(chained) - min(chained) <= 8, sizes
        assert sizes[2] < sizes[1]  # k=1 still ships the source slices
