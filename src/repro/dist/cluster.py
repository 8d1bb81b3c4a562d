"""Driver side of the cluster transport: fleet server + ClusterExecutor.

The :class:`FleetServer` is the driver's single listening socket.  Every
inbound connection declares itself with its first frame: REGISTER parks
the connection as a task *slot* (one worker daemon opens one connection
per slot, so the slot pool is the fleet's admission control), FETCH
turns the connection into a block-serving channel for driver-held
shuffle outputs — the driver is a peer in the shuffle, so tasks that
fall back inline interoperate with remote ones.  A worker is live while
all of its task channels are open: a channel that reads EOF evicts it.

:class:`ClusterExecutor` implements the engine's
:class:`~repro.engine.executors.Transport` seam: ``execute`` ships one
measured task body to a worker slot and returns the worker-mutated
metrics; everything above it — retries, backoff, progress — stays in
the driver's scheduler.  Any failure to ship (no workers, unpicklable
closure) degrades to running the body inline, so the cluster backend is
*always safe to select*.

Fleets are shared per listen address and refcounted: a serve-layer
context pool reuses one fleet across many contexts, each isolated by a
namespace that scopes worker-side state (shuffle dirs, caches).
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.dist import protocol
from repro.dist.shipping import ship_dumps
from repro.dist.spec import parse_hostport
from repro.dist.worker import (
    DistShuffle,
    accept_connections,
    serve_fetch_connection,
    stop_listener,
)
from repro.engine.executors import Transport, run_in_pool
from repro.engine.faults import WorkerLostError


class WorkerHandle:
    """One registered worker daemon (possibly many slots)."""

    def __init__(self, worker_id: str, fetch_addr: tuple[str, int], pid: int = 0):
        self.id = worker_id
        self.fetch_addr = tuple(fetch_addr)
        self.pid = pid
        self.alive = True
        #: Why the fleet evicted this worker ("" while it is alive).
        self.lost_reason = ""
        self.slots: list[WorkerSlot] = []
        self.tasks_done = 0


class WorkerSlot:
    """A parked task channel to one worker slot."""

    def __init__(self, worker: WorkerHandle, slot: int, sock: socket.socket):
        self.worker = worker
        self.slot = slot
        self.sock = sock

    def is_open(self) -> bool:
        """Whether the worker end of this channel is still open.

        A non-blocking peek consumes nothing, and workers never write to
        a slot channel unprompted, so probing a slot with a task in
        flight is harmless: EOF or an error means closed, no data yet
        (or a reply waiting) means open.
        """
        try:
            return self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) != b""
        except BlockingIOError:
            return True
        except OSError:
            return False


class FleetServer:
    """Worker registry, slot pool, and block server."""

    def __init__(self, listen: tuple[str, int]):
        self.refs = 0
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerHandle] = {}
        self._slots: "queue.Queue[WorkerSlot]" = queue.Queue()
        self._ns_roots: dict[int, str] = {}
        self._next_ns = 0
        self._closed = False
        #: Evicted workers no context has counted yet (``claim_losses``).
        self._unclaimed_losses: list[WorkerHandle] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind(listen)
        except OSError:  # address in use: don't leave the socket to the GC
            self._listener.close()
            raise
        self._listener.listen(128)
        self.port: int = self._listener.getsockname()[1]
        host = listen[0]
        #: Address peers use to fetch driver-held blocks; an any-interface
        #: bind advertises loopback (the loopback-fleet case this repo's
        #: harness exercises; real deployments pass a routable host).
        self.advertise_addr = ("127.0.0.1" if host in ("0.0.0.0", "") else host, self.port)
        self._accept_thread = accept_connections(
            self._listener, self._dispatch, "gpf-fleet-accept"
        )

    # -- namespaces ------------------------------------------------------
    def allocate_ns(self) -> int:
        with self._lock:
            ns = self._next_ns
            self._next_ns += 1
            return ns

    def register_ns_root(self, ns: int, root: str) -> None:
        with self._lock:
            self._ns_roots[ns] = root

    def release_ns(self, ns: int) -> None:
        with self._lock:
            self._ns_roots.pop(ns, None)

    def _ns_root(self, ns: int) -> str | None:
        with self._lock:
            return self._ns_roots.get(ns)

    # -- connection dispatch ---------------------------------------------
    def _dispatch(self, conn: socket.socket) -> None:
        """Route one inbound connection by its first frame."""
        try:
            kind, header, _ = protocol.recv_frame(conn)
        except (OSError, protocol.ProtocolError):
            conn.close()
            return
        if kind == protocol.MSG_REGISTER:
            self._register(conn, header)
        elif kind == protocol.MSG_FETCH:
            serve_fetch_connection(conn, self._ns_root, initial=header)
        else:
            conn.close()

    def _register(self, conn: socket.socket, header: dict) -> None:
        worker_id = header.get("worker", "")
        if not worker_id:
            conn.close()
            return
        with self._lock:
            handle = self._workers.get(worker_id)
            if handle is None or not handle.alive:
                handle = WorkerHandle(
                    worker_id,
                    tuple(header.get("fetch", ("127.0.0.1", 0))),
                    pid=header.get("pid", 0),
                )
                self._workers[worker_id] = handle
            slot = WorkerSlot(handle, header.get("slot", 0), conn)
            handle.slots.append(slot)
        self._slots.put(slot)

    # -- fleet state -----------------------------------------------------
    def live_workers(self) -> list[WorkerHandle]:
        """Workers whose task channels are all open; evicts the rest."""
        with self._lock:
            fleet = [(h, list(h.slots)) for h in self._workers.values() if h.alive]
        live = []
        for handle, slots in fleet:
            if all(slot.is_open() for slot in slots):
                live.append(handle)
            else:
                self.lose_worker(handle, reason="task channel closed")
        return live

    def is_addr_live(self, addr: tuple[str, int]) -> bool:
        if tuple(addr) == self.advertise_addr:
            return True  # the driver itself never "dies" mid-job
        return any(h.fetch_addr == tuple(addr) for h in self.live_workers())

    def wait_for_workers(self, count: int, timeout: float) -> int:
        """Block until ``count`` workers registered (or timeout); returns
        how many are live."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                registered = len(self._workers)
            if registered >= count or time.monotonic() >= deadline:
                return len(self.live_workers())
            time.sleep(0.02)

    def acquire_slot(self, timeout: float) -> WorkerSlot | None:
        """Take one live slot from the pool; evicts a worker whose
        channel is found closed."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                slot = self._slots.get(timeout=remaining)
            except queue.Empty:
                return None
            handle = slot.worker
            if not handle.alive:
                continue  # lost after parking; its socket is closed
            if not slot.is_open():
                self.lose_worker(handle, reason="task channel closed")
                continue
            return slot

    def release_slot(self, slot: WorkerSlot) -> None:
        if slot.worker.alive:
            slot.worker.tasks_done += 1
            self._slots.put(slot)
        else:
            self._close_slot(slot)

    def lose_worker(self, handle: WorkerHandle, reason: str = "") -> None:
        """Evict a worker: mark dead, record why, sever its task channels.

        Idempotent; parked slots drain out of the pool on the next
        acquire.  Closing the sockets makes a *live-but-evicted* worker's
        slot loops exit too, so eviction is authoritative.  Each eviction
        waits in :meth:`claim_losses` for one context to count it.
        """
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
            handle.lost_reason = reason
            self._unclaimed_losses.append(handle)
            slots = list(handle.slots)
        for slot in slots:
            self._close_slot(slot)

    def claim_losses(self) -> list[WorkerHandle]:
        """Workers evicted since the last claim, handed out once: every
        alive→dead transition is counted by exactly one of the contexts
        sharing this fleet, whichever path (a failed ship, a closed
        parked channel) found it."""
        with self._lock:
            lost, self._unclaimed_losses = self._unclaimed_losses, []
        return lost

    @staticmethod
    def _close_slot(slot: WorkerSlot) -> None:
        try:
            protocol.send_frame(slot.sock, protocol.MSG_GOODBYE)
        except OSError:
            pass
        try:
            slot.sock.close()
        except OSError:
            pass

    def fleet_snapshot(self) -> list[dict]:
        """Per-worker rows for /metrics and ``gpf top``."""
        with self._lock:
            return [
                {
                    "worker": h.id,
                    "alive": h.alive,
                    "reason": h.lost_reason,
                    "slots": len(h.slots),
                    "tasks_done": h.tasks_done,
                    "fetch": f"{h.fetch_addr[0]}:{h.fetch_addr[1]}",
                }
                for h in self._workers.values()
            ]

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
        stop_listener(self._listener)
        self._accept_thread.join(timeout=1.0)
        for handle in workers:
            self.lose_worker(handle, reason="fleet shutdown")


#: Shared fleets keyed by requested listen address, refcounted so a
#: context pool reuses one listener.  Ephemeral-port requests (port 0)
#: are never shared — the caller cannot name what it would share.
_FLEETS: dict[tuple[str, int], FleetServer] = {}
_FLEETS_LOCK = threading.Lock()


def get_fleet(listen: tuple[str, int]) -> FleetServer:
    with _FLEETS_LOCK:
        if listen[1] != 0:
            fleet = _FLEETS.get(listen)
            if fleet is not None:
                fleet.refs += 1
                return fleet
        fleet = FleetServer(listen)
        fleet.refs = 1
        if listen[1] != 0:
            _FLEETS[listen] = fleet
        return fleet


def release_fleet(fleet: FleetServer) -> None:
    with _FLEETS_LOCK:
        fleet.refs -= 1
        if fleet.refs > 0:
            return
        for key, value in list(_FLEETS.items()):
            if value is fleet:
                del _FLEETS[key]
    fleet.shutdown()


class ClusterExecutor(Transport):
    """Ships measured task bodies to a socket-connected worker fleet."""

    def __init__(self, num_workers: int = 4):
        self.fleet: FleetServer | None = None
        self.ns: int | None = None
        self._ctx = None
        # Thunks block on slot acquisition (bounded by timeout, then
        # inline fallback), so the driver-side thread count only caps
        # concurrent in-flight ships, not fleet size.
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, num_workers),
            thread_name_prefix="gpf-cluster-driver",
        )
        self._waited = False
        self._wait_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def bind(self, ctx) -> None:
        self._ctx = ctx
        listen = parse_hostport(ctx.config.cluster_listen or "127.0.0.1:0")
        self.fleet = get_fleet(listen)
        self.ns = self.fleet.allocate_ns()
        root = os.path.join(ctx._spill_dir, "dist", f"ns{self.ns}")
        # The driver is a peer in the shuffle: a map task that runs inline
        # (ship fallback) spills here under the driver's advertised
        # address, where remote reduce tasks can fetch it.
        ctx.shuffle_manager = DistShuffle(
            root,
            self.fleet.advertise_addr,
            ns=self.ns,
            chaos=ctx.chaos,
            metrics=ctx.metrics,
        )
        self.fleet.register_ns_root(self.ns, root)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
        if self.fleet is not None:
            if self.ns is not None:
                self.fleet.release_ns(self.ns)
            release_fleet(self.fleet)
            self.fleet = None

    # -- scheduling ------------------------------------------------------
    def run_all(self, tasks):
        return run_in_pool(self._pool, tasks)

    # -- bookkeeping -----------------------------------------------------
    def missing_map_outputs(self, shuffle_id: int) -> list[int]:
        _, maps = self._ctx.shuffle_manager.locations(shuffle_id)
        return sorted(
            m for m, addr in maps.items() if not self.fleet.is_addr_live(addr)
        )

    def _note_fallback(self, reason: str) -> None:
        self._ctx.metrics.inc("executor.fallbacks")
        self._ctx.metrics.inc(f"executor.fallbacks.{reason}")
        self._ctx.events.publish(
            "executor.incident", incident="fallback_batch", reason=reason
        )

    def _count_losses(self) -> None:
        for handle in self.fleet.claim_losses():
            self._ctx.metrics.inc("dist.workers_lost")
            self._ctx.events.publish(
                "executor.incident", incident="worker_lost", worker=handle.id
            )

    def _lose(self, slot: WorkerSlot, cause: Exception) -> WorkerLostError:
        self.fleet.lose_worker(slot.worker, reason=str(cause))
        self._ctx.metrics.set_gauge("dist.workers", len(self.fleet.live_workers()))
        return WorkerLostError(slot.worker.id, cause)

    def _ensure_fleet_ready(self) -> bool:
        config = self._ctx.config
        with self._wait_lock:
            if not self._waited:
                self._waited = True
                self.fleet.wait_for_workers(
                    max(1, config.cluster_min_workers), config.cluster_wait
                )
        live = len(self.fleet.live_workers())
        self._ctx.metrics.set_gauge("dist.workers", live)
        return live > 0

    # -- the transport seam ----------------------------------------------
    def execute(self, body, task):
        try:
            return self._ship(body, task)
        finally:
            # Every eviction since the last task, found here or by any
            # other fleet call, counts once.
            self._count_losses()

    def _ship(self, body, task):
        ctx = self._ctx
        if not self._ensure_fleet_ready():
            self._note_fallback("no_workers")
            return task, body(task)
        chaos = ctx.chaos
        if chaos is not None:
            # dist.ship faults model a driver-side ship failure (e.g. a
            # send buffer error); the raised fault fails this attempt and
            # the scheduler's retry ships again.
            chaos.hit("dist.ship", partition=task.partition)
        try:
            blob = ship_dumps((body, task), ctx, task.partition)
        except Exception:  # noqa: BLE001 - unship-able => run it here
            self._note_fallback("unpicklable")
            return task, body(task)
        slot = self.fleet.acquire_slot(timeout=ctx.config.cluster_wait)
        if slot is None:
            self._note_fallback("no_slots")
            return task, body(task)
        worker = slot.worker
        if chaos is not None:
            # dist.slot faults simulate a dead task channel: the driver
            # evicts the assigned worker before the TASK is sent,
            # exercising the whole loss path deterministically.
            try:
                chaos.hit("dist.slot", worker=worker.id)
            except Exception as exc:  # noqa: BLE001 - typed below
                raise self._lose(slot, exc) from exc
        header = {
            "ns": self.ns,
            "locations": ctx.shuffle_manager.snapshot_locations(),
            "serializer": ctx.serializer,
            "chaos": chaos,
        }
        try:
            protocol.send_frame(slot.sock, protocol.MSG_TASK, header, blob)
            kind, rheader, rbody = protocol.recv_frame(slot.sock)
        except (OSError, protocol.ProtocolError) as exc:
            raise self._lose(slot, exc) from exc
        self.fleet.release_slot(slot)
        if kind == protocol.MSG_ERROR:
            raise protocol.decode_error(rheader)
        if kind != protocol.MSG_RESULT:
            raise protocol.ProtocolError(f"unexpected reply {kind!r} to TASK")
        remote_task = rheader["task"]
        remote_task.worker = rheader.get("worker", worker.id)
        for shuffle_id, map_partition in rheader.get("outputs", ()):
            ctx.shuffle_manager.add_location(
                shuffle_id, map_partition, worker.fetch_addr
            )
        ctx.metrics.merge(rheader.get("telemetry") or {})
        ctx.metrics.inc("dist.tasks_shipped")
        ctx.metrics.inc("dist.bytes_shipped", len(blob))
        ctx.metrics.inc("dist.bytes_returned", len(rbody))
        ctx.metrics.inc(f"dist.worker.{worker.id}.tasks")
        value = None
        if rheader.get("encoding", "none") == "block":
            value = ctx.serializer.loads(rbody)
        return remote_task, value
