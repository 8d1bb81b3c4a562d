"""Executor seam: runners, the shared pool helper, layering, stable hashing."""

import os
import subprocess
import sys
import time
from functools import partial

import pytest

from repro.dist.cluster import ClusterExecutor
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.executors import SerialExecutor, ThreadExecutor, make_executor
from repro.engine.rdd import HashPartitioner, stable_hash

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"task {x} failed")


#: Every runner; the cluster executor is unbound, so only its driver
#: pool (the part that shares ``run_in_pool`` with threads) is exercised.
RUNNERS = {
    "serial": SerialExecutor,
    "threads": lambda: ThreadExecutor(2),
    "cluster-driver-pool": lambda: ClusterExecutor(2),
}


@pytest.fixture(params=sorted(RUNNERS))
def runner(request):
    ex = RUNNERS[request.param]()
    yield ex
    ex.shutdown()


class TestRunAll:
    def test_results_in_submission_order(self, runner):
        tasks = [partial(_square, i) for i in range(25)]
        assert runner.run_all(tasks) == [i * i for i in range(25)]

    def test_local_closures_run(self, runner):
        captured = {"scale": 3}  # what the scheduler submits: unpicklable
        tasks = [lambda i=i: i * captured["scale"] for i in range(6)]
        assert runner.run_all(tasks) == [0, 3, 6, 9, 12, 15]

    def test_task_exception_propagates(self, runner):
        with pytest.raises(RuntimeError, match="task 1 failed"):
            runner.run_all([partial(_square, 0), partial(_boom, 1)])

    def test_empty_batch(self, runner):
        assert runner.run_all([]) == []


class TestProcessNameSelectsThreads:
    def test_process_is_the_thread_pool(self):
        ex = make_executor("process", 2)
        try:
            assert type(ex) is ThreadExecutor
            assert ex.num_workers == 2
        finally:
            ex.shutdown()

    def test_shuffle_job_never_falls_back(self):
        config = EngineConfig(executor_backend="process", num_workers=2)
        with GPFContext(config) as ctx:
            rdd = ctx.parallelize([(i % 5, i) for i in range(100)], 4)
            assert len(rdd.group_by_key().collect()) == 5
            # Read the way the performance ledger reads it.
            counters = ctx.telemetry_snapshot()["counters"]
            assert counters.get("executor.fallbacks", 0) == 0


@pytest.mark.parametrize(
    "make",
    [lambda: ThreadExecutor(1), lambda: ClusterExecutor(1)],
    ids=["threads", "cluster-driver-pool"],
)
def test_failure_cancels_not_yet_started_tasks(make):
    """Regression: a failing task must stop the batch, not let every
    queued task run to completion behind the raised exception."""
    ex = make()
    width = ex._pool._max_workers
    ran: list[int] = []

    def fail():
        raise RuntimeError("early failure")

    def slow_record(i):
        time.sleep(0.05)
        ran.append(i)

    tasks = [fail] + [partial(slow_record, i) for i in range(4 * width + 5)]
    try:
        with pytest.raises(RuntimeError, match="early failure"):
            ex.run_all(tasks)
    finally:
        ex.shutdown()
    # At most the tasks pool threads had already grabbed between the
    # failure and the cancellation sweep may have run: one per thread.
    assert len(ran) <= width


_LAYERING_PROBE = """
import sys
from repro.engine.context import EngineConfig, GPFContext

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro.dist"))

with GPFContext(EngineConfig(executor_backend="serial")) as ctx:
    rdd = ctx.parallelize([(i % 3, i) for i in range(30)], 3)
    assert len(rdd.group_by_key().collect()) == 3
print("serial", loaded())
with GPFContext(EngineConfig(executor_backend="cluster")):
    pass
print("cluster", "repro.dist.cluster" in loaded())
"""


def test_engine_loads_no_dist_code_unless_cluster_is_selected():
    """Layering: ``dist`` depends on ``engine``, never the reverse."""
    probe = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert probe.stdout.splitlines() == ["serial []", "cluster True"]


class TestStableHash:
    def test_equal_numerics_bucket_together(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)

    def test_distinct_keys_are_distinguished(self):
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(("a", 1)) != stable_hash(("a", "1"))
        assert stable_hash(("ab", "c")) != stable_hash(("a", "bc"))

    def test_tuple_and_list_keys_supported(self):
        assert stable_hash(("chr1", 1000)) == stable_hash(["chr1", 1000])
        part = HashPartitioner(8)
        assert 0 <= part(("chr1", 1000)) < 8

    def test_stable_across_interpreters(self):
        """The property builtin hash() lacks: the same key buckets the same
        way in a freshly spawned interpreter (different hash salt)."""
        keys = ["chr7", ("chr2", 1234), 99, None, b"raw"]
        local = [stable_hash(k) for k in keys]
        code = (
            "from repro.engine.rdd import stable_hash\n"
            "print([stable_hash(k) for k in "
            "['chr7', ('chr2', 1234), 99, None, b'raw']])"
        )
        remote = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "12345"},
        )
        assert eval(remote.stdout.strip()) == local

    def test_partitioner_equality_semantics_kept(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)


class TestBackendsAgree:
    def test_all_backends_agree_on_a_shuffle(self):
        results = {}
        for backend in ("serial", "threads", "process"):
            with GPFContext(
                EngineConfig(executor_backend=backend, num_workers=2)
            ) as ctx:
                rdd = ctx.parallelize([(i % 5, i) for i in range(100)], 4)
                grouped = sorted(
                    (k, sorted(v)) for k, v in rdd.group_by_key().collect()
                )
                results[backend] = grouped
        assert results["serial"] == results["threads"] == results["process"]
