"""In-process fleet tests: real sockets, real workers, loopback only.

Each test spins up a driver ``GPFContext`` with the cluster transport
(ephemeral listen port) plus one or two ``WorkerDaemon`` instances in
the same process — the full wire path (register, ship, P2P fetch,
loss) without subprocess overhead.
"""

import contextlib
import threading
import time

import pytest

from repro.dist.shipping import ship_dumps
from repro.dist.worker import WorkerDaemon
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import PartitionIndexError, TaskFailedError
from repro.engine.rdd import FuncPartitioner, HashPartitioner


@contextlib.contextmanager
def cluster(tmp_path, workers=1, slots=2, tag="c", **config_kwargs):
    config = EngineConfig(
        default_parallelism=4,
        executor_backend="cluster",
        cluster_min_workers=workers,
        cluster_wait=10.0,
        spill_dir=str(tmp_path / f"spill_{tag}"),
        **config_kwargs,
    )
    ctx = GPFContext(config)
    daemons = []
    try:
        port = ctx.executor.fleet.port
        for i in range(workers):
            daemon = WorkerDaemon(
                ("127.0.0.1", port),
                slots=slots,
                worker_id=f"{tag}-w{i}",
                root_dir=str(tmp_path / f"{tag}_worker{i}"),
            )
            daemon.start()
            daemons.append(daemon)
        assert ctx.executor.fleet.wait_for_workers(workers, 10.0)
        yield ctx, daemons
    finally:
        for daemon in daemons:
            daemon.stop()
        ctx.stop()


class TestBasicJobs:
    def test_map_collect_ships_tasks(self, tmp_path):
        with cluster(tmp_path, workers=1, tag="map") as (ctx, _):
            result = ctx.parallelize(range(100), 4).map(lambda x: x * 2).collect()
            assert result == [x * 2 for x in range(100)]
            assert ctx.metrics.counter("dist.tasks_shipped") >= 4
            assert ctx.metrics.counter("executor.fallbacks") == 0

    def test_each_task_ships_only_its_own_slice(self, tmp_path):
        data = [f"{i * 7919 % 100_003:06d}" * 8 for i in range(2_000)]
        with cluster(tmp_path, workers=1, tag="slice") as (ctx, _):
            rdd = ctx.parallelize(data, 4)
            assert rdd.map(len).collect() == [48] * len(data)
            assert ctx.metrics.counter("dist.tasks_shipped") == 4
            # Four tasks that each carried every slice would ship about
            # four times the whole source.
            whole = len(ship_dumps(rdd, ctx))
            assert ctx.metrics.counter("dist.bytes_shipped") < 2 * whole

    def test_shuffle_runs_peer_to_peer(self, tmp_path):
        with cluster(tmp_path, workers=2, tag="shuf") as (ctx, _):
            data = [(f"k{i % 7}", i) for i in range(140)]
            result = dict(
                ctx.parallelize(data, 4)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            expected: dict = {}
            for k, v in data:
                expected[k] = expected.get(k, 0) + v
            assert result == expected
            # Reduce tasks fetched map outputs over worker block servers.
            assert ctx.metrics.counter("dist.fetches") > 0
            assert ctx.metrics.counter("dist.fetch_bytes") > 0

    def test_remote_task_metrics_land_in_the_driver(self, tmp_path):
        with cluster(tmp_path, workers=1, tag="met") as (ctx, daemons):
            ctx.parallelize(range(40), 4).map(lambda x: x + 1).collect()
            job = ctx.metrics.job()
            assert job.core_seconds > 0  # worker-measured run times
            workers = {
                t.worker for s in job.stages for t in s.tasks if t.worker
            }
            assert workers == {daemons[0].worker_id}

    def test_out_of_range_partition_fails_on_the_first_attempt(self, tmp_path):
        """A partition function's out-of-range index comes home typed from
        the worker and fails the task once, without retries."""
        with cluster(tmp_path, workers=1, tag="idx") as (ctx, _):
            bad = ctx.parallelize([(5, 5)], 1).partition_by(FuncPartitioner(2, lambda k: 7))
            with pytest.raises(TaskFailedError) as excinfo:
                bad.collect()
            assert isinstance(excinfo.value.cause, PartitionIndexError)
            assert excinfo.value.attempts == 1
            assert [f.error_type for f in ctx.metrics.failures] == ["PartitionIndexError"]
            # Raised on the worker: the ERROR frame carried its traceback.
            assert "PartitionIndexError" in excinfo.value.cause.remote_traceback

    def test_worker_side_block_encode_time_lands_in_the_driver(self, tmp_path):
        """A partition persisted on a worker is encoded by the engine's
        shared, timed ``_cache_put``; the counter rides home in RESULT."""
        with cluster(tmp_path, workers=1, tag="enc") as (ctx, _):
            rdd = ctx.parallelize(range(400), 4).map(lambda x: (x, "v" * 20)).persist()
            assert len(rdd.collect()) == 400
            assert ctx.metrics.counter("executor.fallbacks") == 0
            assert ctx.metrics.counter("blockmanager.encode_seconds") > 0

    def test_worker_side_histograms_land_in_the_driver(self, tmp_path):
        """A shipped task's ``observe()`` calls travel home in RESULT with
        its counters: the same job samples as often on a fleet as serially."""

        def job(ctx):
            rdd = ctx.parallelize(range(400), 4).map(lambda x: (x, "v" * 20))
            rdd.persist()
            # The first job fills the cache; the second decodes from it.
            for _ in range(2):
                assert len(rdd.map(lambda kv: kv[0]).collect()) == 400
            counts = {
                name: h["count"]
                for name, h in ctx.metrics.snapshot()["histograms"].items()
            }
            return counts, ctx.metrics.counter("blockmanager.decoded_records")

        serial = GPFContext(
            EngineConfig(default_parallelism=4, spill_dir=str(tmp_path / "serial"))
        )
        try:
            expected = job(serial)
        finally:
            serial.stop()
        with cluster(tmp_path, workers=1, tag="hist") as (ctx, _):
            actual = job(ctx)
            assert ctx.metrics.counter("executor.fallbacks") == 0
        assert expected[0]["blockmanager.decode_batch_seconds"] > 0
        assert actual == expected

    def test_per_worker_telemetry_and_gauge(self, tmp_path):
        with cluster(tmp_path, workers=2, tag="tel") as (ctx, daemons):
            ctx.parallelize(range(80), 8).map(lambda x: x).collect()
            assert ctx.metrics.gauge("dist.workers") == 2
            per_worker = sum(
                ctx.metrics.counter(f"dist.worker.{d.worker_id}.tasks")
                for d in daemons
            )
            assert per_worker == ctx.metrics.counter("dist.tasks_shipped")

    def test_fleet_snapshot_rows(self, tmp_path):
        with cluster(tmp_path, workers=2, slots=3, tag="snap") as (ctx, daemons):
            # wait_for_workers returns on the first slot of each worker;
            # the remaining slot registrations may still be in flight.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                rows = {
                    r["worker"]: r for r in ctx.executor.fleet.fleet_snapshot()
                }
                if sum(r["slots"] for r in rows.values()) == 6:
                    break
                time.sleep(0.05)
            assert set(rows) == {d.worker_id for d in daemons}
            for row in rows.values():
                assert row["alive"] is True
                assert row["slots"] == 3
                assert ":" in row["fetch"]

    def test_no_listener_thread_outlives_its_fleet(self, tmp_path):
        """Closing a listening socket does not wake a thread parked in its
        accept(); every context used to leave one behind, port bound."""

        def listeners():
            return {
                t
                for t in threading.enumerate()
                if t.name in ("gpf-fleet-accept", "gpf-dist-blockserver")
            }

        before = listeners()
        with cluster(tmp_path, workers=1, tag="leak") as (ctx, _):
            assert ctx.parallelize(range(8), 2).map(lambda x: x + 1).collect()
            assert len(listeners() - before) == 2
        deadline = time.monotonic() + 5.0
        while listeners() - before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not listeners() - before


class TestWorkerLoss:
    @staticmethod
    def _await_slots(fleet, slots):
        """Wait until ``slots`` task channels are registered; no task has
        run, so each is parked in the pool."""
        deadline = time.monotonic() + 10.0
        while sum(r["slots"] for r in fleet.fleet_snapshot()) < slots:
            if time.monotonic() > deadline:
                pytest.fail("slots never registered")
            time.sleep(0.01)

    def test_a_closed_channel_drops_its_worker_from_the_live_set(self, tmp_path):
        with cluster(tmp_path, workers=2, tag="eof") as (ctx, daemons):
            fleet = ctx.executor.fleet
            self._await_slots(fleet, 4)
            daemons[0].stop()
            deadline = time.monotonic() + 1.0
            while daemons[0].worker_id in {w.id for w in fleet.live_workers()}:
                if time.monotonic() > deadline:
                    pytest.fail("a worker with closed channels stayed live")
                time.sleep(0.01)
            assert {w.id for w in fleet.live_workers()} == {daemons[1].worker_id}

    def test_wait_for_workers_counts_registrations_not_survivors(self, tmp_path):
        with cluster(tmp_path, workers=2, tag="reg") as (ctx, daemons):
            fleet = ctx.executor.fleet
            self._await_slots(fleet, 4)
            daemons[0].stop()
            started = time.monotonic()
            assert fleet.wait_for_workers(2, 10.0) == 1
            assert time.monotonic() - started < 1.0

    def test_job_survives_a_worker_killed_mid_run(self, tmp_path):
        with cluster(tmp_path, workers=2, tag="kill") as (ctx, daemons):
            victim = daemons[0]
            release = threading.Event()

            def slow(x):
                time.sleep(0.05)
                return x * 10

            # Warm run so both workers hold tasks, then kill one and
            # run again: its parked slots are dead sockets the driver
            # must detect, evict, and retry around.
            assert ctx.parallelize(range(8), 8).map(slow).collect() == [
                x * 10 for x in range(8)
            ]
            killer = threading.Timer(0.08, victim.stop)
            killer.start()
            try:
                result = ctx.parallelize(range(16), 16).map(slow).collect()
            finally:
                killer.cancel()
                release.set()
            assert result == [x * 10 for x in range(16)]
            assert ctx.metrics.counter("dist.workers_lost") >= 1
            assert ctx.metrics.counter("executor.worker_lost") >= 1
            live = ctx.executor.fleet.live_workers()
            assert victim.worker_id not in {w.id for w in live}

    def test_all_workers_dead_falls_back_inline(self, tmp_path):
        with cluster(tmp_path, workers=1, tag="dead") as (ctx, daemons):
            ctx.parallelize(range(4), 4).map(lambda x: x).collect()
            daemons[0].stop()
            deadline = time.monotonic() + 10.0
            while ctx.executor.fleet.live_workers():
                if time.monotonic() > deadline:
                    pytest.fail("fleet never noticed the dead worker")
                time.sleep(0.1)
            result = ctx.parallelize(range(12), 4).map(lambda x: -x).collect()
            assert result == [-x for x in range(12)]
            assert ctx.metrics.counter("executor.fallbacks.no_workers") > 0

    @staticmethod
    def _kill_between_collects(ctx, daemons, shuffled):
        """Collect, stop the first worker, wait for its eviction, collect
        again; returns both (sorted) results."""
        first = sorted(shuffled.collect())
        daemons[0].stop()
        deadline = time.monotonic() + 10.0
        while len(ctx.executor.fleet.live_workers()) > 1:
            if time.monotonic() > deadline:
                pytest.fail("fleet never evicted the dead worker")
            time.sleep(0.1)
        return first, sorted(shuffled.collect())

    def test_a_worker_stopped_between_jobs_counts_as_lost_once(self, tmp_path):
        """Evicted while its slots are parked (by the channel probe, not a
        failed ship): one alive->dead transition, one count, and the
        snapshot says why."""
        with cluster(tmp_path, workers=2, tag="lost") as (ctx, daemons):
            data = [(f"k{i % 5}", i) for i in range(100)]
            shuffled = ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b)
            first, second = self._kill_between_collects(ctx, daemons, shuffled)
            assert second == first
            ctx.executor.fleet.live_workers()  # probing again counts nothing
            assert ctx.metrics.counter("dist.workers_lost") == 1
            rows = {r["worker"]: r for r in ctx.executor.fleet.fleet_snapshot()}
            assert rows[daemons[0].worker_id]["alive"] is False
            assert rows[daemons[0].worker_id]["reason"] == "task channel closed"
            assert rows[daemons[1].worker_id]["reason"] == ""

    def test_an_eviction_is_claimed_once(self, tmp_path):
        """Contexts sharing a fleet each claim losses; one eviction is
        handed to one claimer, so a folded counter counts it once."""
        with cluster(tmp_path, workers=2, tag="claim") as (ctx, daemons):
            fleet = ctx.executor.fleet
            self._await_slots(fleet, 4)
            victim = next(h for h in fleet.live_workers() if h.id == daemons[0].worker_id)
            fleet.lose_worker(victim, reason="evicted by hand")
            fleet.lose_worker(victim, reason="again")
            assert [h.id for h in fleet.claim_losses()] == [victim.id]
            assert fleet.claim_losses() == []
            assert victim.lost_reason == "evicted by hand"

    def test_fetch_failure_recovers_lost_map_outputs(self, tmp_path):
        """Kill the worker holding half the map outputs *between* two
        collects of the same shuffled RDD: the reduce side hits dead
        block servers, raises ShuffleFetchFailedError, and the
        scheduler regenerates the missing maps."""
        with cluster(tmp_path, workers=2, tag="fetch") as (ctx, daemons):
            data = [(f"k{i % 5}", i) for i in range(100)]
            shuffled = ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b)
            first, second = self._kill_between_collects(ctx, daemons, shuffled)
            assert second == first
            kinds = {f.error_type for f in ctx.metrics.failures}
            assert "ShuffleFetchFailedError" in kinds

    @pytest.mark.parametrize(
        "faulted_ships, ledger",
        [
            # One recovery attempt fails; its own retry regenerates.
            (
                (7,),
                [
                    ("shuffle-map", "ConnectionResetError"),
                    ("result", "ShuffleFetchFailedError"),
                ],
            ),
            # All three recovery attempts fail: the exhausted recovery is
            # the reduce attempt's error; the next reduce attempt recovers.
            (
                (7, 8, 9),
                [("shuffle-map", "ConnectionResetError")] * 3
                + [
                    ("result", "TaskFailedError"),
                    ("result", "ShuffleFetchFailedError"),
                ],
            ),
        ],
        ids=["retried", "exhausted"],
    )
    def test_failed_shuffle_recovery_is_retried_and_ledgered(
        self, tmp_path, faulted_ships, ledger
    ):
        """The same kill, plus ship faults from the first recovery map on.
        Ships: 4 maps + 1 reduce (first collect), the reduce again (its
        fetch fails), then the 7th is the first recovery map.  The
        recovery runs under its own retries — ``shuffle-map`` entries in
        the ledger, not a swallowed error that burns a reduce attempt."""
        from repro.chaos import ChaosPlan

        plan = ChaosPlan(
            seed=3,
            rules=[
                {"site": "dist.ship", "fault": "conn_reset", "nth": nth}
                for nth in faulted_ships
            ],
        )
        with cluster(
            tmp_path, workers=2, tag="recover", chaos=plan, max_task_attempts=3
        ) as (ctx, daemons):
            data = [(f"k{i % 5}", i) for i in range(100)]
            # 4 map tasks into 1 reduce partition.
            shuffled = ctx.parallelize(data, 4).partition_by(HashPartitioner(1))
            first, second = self._kill_between_collects(ctx, daemons, shuffled)
            assert second == first
            # A recovery runs inside the reduce's failure handling, so its
            # failed attempts are ledgered before the reduce attempt's.
            failures = ctx.metrics.failures
            assert [(f.stage_kind, f.error_type) for f in failures] == ledger
            if len(ledger) > 2:
                assert "shuffle-map task" in failures[3].message

    def test_a_stopped_worker_takes_no_more_tasks(self, tmp_path):
        """stop() severs the task channels as a dying node's close: no
        parked slot of the stopped worker runs another task and reports
        map outputs behind its closed block server."""
        with cluster(tmp_path, workers=2, tag="stopped") as (ctx, daemons):
            victim = daemons[0]
            victim.stop()
            data = [(i % 5, 1) for i in range(100)]
            shuffled = ctx.parallelize(data, 6).reduce_by_key(lambda a, b: a + b)
            assert dict(shuffled.collect()) == {k: 20 for k in range(5)}
            assert ctx.metrics.counter(f"dist.worker.{victim.worker_id}.tasks") == 0


class TestChaosSites:
    def test_dist_ship_fault_is_retried(self, tmp_path):
        from repro.chaos import ChaosPlan

        plan = ChaosPlan(
            seed=3, rules=[{"site": "dist.ship", "fault": "conn_reset", "nth": 1}]
        )
        with cluster(tmp_path, workers=1, tag="ship", chaos=plan) as (ctx, _):
            result = ctx.parallelize(range(20), 4).map(lambda x: x + 5).collect()
            assert result == [x + 5 for x in range(20)]
            assert len(ctx.metrics.failures) >= 1

    def test_dist_slot_fault_evicts_the_worker(self, tmp_path):
        from repro.chaos import ChaosPlan

        plan = ChaosPlan(
            seed=3,
            rules=[{"site": "dist.slot", "fault": "conn_reset", "nth": 1}],
        )
        with cluster(tmp_path, workers=2, tag="slot", chaos=plan) as (ctx, _):
            result = ctx.parallelize(range(20), 4).map(lambda x: x).collect()
            assert result == list(range(20))
            assert ctx.metrics.counter("dist.workers_lost") == 1
            kinds = {f.error_type for f in ctx.metrics.failures}
            assert "WorkerLostError" in kinds

    @pytest.mark.parametrize(
        "site, fault, error_type",
        [
            # Every block a reduce reads, local or fetched: the engine's
            # own site, reached on workers because they run its read().
            ("shuffle.fetch", "eio", "OSError"),
            # Peer fetches only; typed so lineage recovery runs.
            ("dist.fetch", "conn_reset", "ShuffleFetchFailedError"),
        ],
    )
    def test_fetch_faults_fire_on_workers_and_are_retried(
        self, tmp_path, site, fault, error_type
    ):
        from repro.chaos import ChaosPlan

        plan = ChaosPlan(seed=3, rules=[{"site": site, "fault": fault, "nth": 1}])
        data = [(f"k{i % 7}", i) for i in range(140)]
        expected: dict = {}
        for k, v in data:
            expected[k] = expected.get(k, 0) + v
        with cluster(tmp_path, workers=2, tag="sf", chaos=plan) as (ctx, _):
            result = dict(
                ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).collect()
            )
            assert result == expected
            assert ctx.metrics.counter("executor.fallbacks") == 0
            injected = [f for f in ctx.metrics.failures if site in f.message]
            assert injected, "the fault never fired on a worker"
            assert {f.error_type for f in injected} == {error_type}
