"""The execution seam: where task thunks and task bodies run.

The scheduler is placement-agnostic: it builds per-partition thunks,
hands batches to :meth:`Transport.run_all`, and routes each measured
attempt through :meth:`Transport.execute` — the one method a remote
transport overrides to ship the body somewhere else.

Two local runners live here.  ``serial`` executes thunks in submission
order on the calling thread — deterministic, ideal for tests.
``threads`` uses a thread pool; the pipeline's hot kernels (pair-HMM,
Smith-Waterman, bit packing) are NumPy code that releases the GIL, so
threads overlap the stages that dominate run time.  The one remote
runner, ``cluster`` (``ClusterExecutor`` in the ``dist`` package),
subclasses :class:`Transport` from here — ``dist`` depends on ``engine``,
never the reverse — and is imported only when selected.

There is no local process pool.  Every thunk the scheduler submits is a
function defined inside ``DAGScheduler.make_task``, which ``pickle``
cannot serialize, so the pool this module used to carry fell back to
threads on every engine batch (the PR 11 ledger counted 9 of 9 batches
on ``wgs_process2``).  The backend name ``process`` is still accepted
and selects the thread pool it always ended up on; real process
parallelism is the cluster backend's closure shipper
(``dist/shipping.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class Transport:
    """Where task thunks and task bodies run.

    Lifecycle: built by :func:`make_executor`, then :meth:`bind` is
    called once by the owning context (after its shuffle manager and
    block manager exist), then ``run_all``/``execute`` during jobs, then
    :meth:`shutdown` at context stop.
    """

    def bind(self, ctx) -> None:
        """Attach the owning context (remote transports hook shuffle I/O
        and allocate their namespace here).  Local transports ignore it."""

    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run a batch of task thunks, returning results in order."""
        raise NotImplementedError

    def execute(self, body, task):
        """Run one measured task body; returns ``(task, value)``.

        The scheduler's retry/backoff machinery stays on the driver:
        this is only the *placement* decision.  Local transports run the
        body inline; the cluster transport ships it to a worker and
        returns the worker-mutated :class:`TaskMetrics` so blocked time
        measured remotely lands in the driver's accounting.
        """
        return task, body(task)

    def missing_map_outputs(self, shuffle_id: int) -> list[int]:
        """Map partitions of ``shuffle_id`` whose output is unreachable
        (the worker holding them died).  The scheduler re-runs these on
        a shuffle-fetch failure; local transports never lose outputs."""
        return []

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        pass


def run_in_pool(pool: ThreadPoolExecutor, tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Submit every thunk, collect results in submission order; on the
    first failure, cancel every future that has not started yet so a
    failed stage stops the batch instead of letting queued tasks run to
    completion."""
    futures = [pool.submit(task) for task in tasks]
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        raise


class SerialExecutor(Transport):
    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        return [task() for task in tasks]


class ThreadExecutor(Transport):
    def __init__(self, num_workers: int):
        if num_workers <= 0:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self._pool = ThreadPoolExecutor(max_workers=num_workers)

    def run_all(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        return run_in_pool(self._pool, tasks)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(backend: str, num_workers: int = 4) -> Transport:
    """Executor factory: 'serial', 'threads', 'process', or 'cluster'.

    A worker count is all any backend needs at construction; the cluster
    backend reads its listen address and fleet expectations from the
    owning context's config at :meth:`Transport.bind`.
    """
    if backend == "serial":
        return SerialExecutor()
    if backend in ("threads", "process"):
        # 'process' names the thread pool: see the module docstring.
        return ThreadExecutor(num_workers)
    if backend == "cluster":
        # Function-local: importing the engine never loads socket code.
        from repro.dist.cluster import ClusterExecutor

        return ClusterExecutor(num_workers)
    raise ValueError(
        f"unknown executor backend {backend!r}; "
        "options: serial, threads, process, cluster"
    )
