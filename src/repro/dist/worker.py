"""Worker-side machinery: context stub, P2P shuffle, and the daemon.

A worker node runs the *same source tree* as the driver and receives
task bodies by value (:mod:`repro.dist.shipping`).  Everything a task
body reaches through ``ctx`` resolves to a :class:`WorkerContext`, and
the data plane behind it is the engine's own code, not a copy: cache
blocks go through :class:`~repro.engine.context.PartitionStore`
over a worker-local block manager, and shuffle blocks through
:class:`DistShuffle`, a :class:`~repro.engine.shuffle.ShuffleManager`
whose only data-path override fetches a block held by another node *from
that peer* (never through the driver).  Metrics — counters and
histograms, including the shared code's encode/decode timers — travel
home with each result frame.

The daemon (``gpf worker --connect HOST:PORT``) opens one task channel
per slot and serves shuffle blocks to peers on its own listener.  The
open task channels are its liveness signal: the driver takes a worker
whose channel reads EOF for lost.  It exits when the driver closes the
task channels (orderly shutdown) or on SIGTERM.
"""

from __future__ import annotations

import os
import socket
import sys
import tempfile
import threading
import time
import traceback

from repro.dist import protocol
from repro.dist.shipping import ship_loads
from repro.engine.blockmanager import BlockCorruptionError, BlockManager
from repro.engine.context import PartitionStore
from repro.engine.faults import ShuffleFetchFailedError
from repro.engine.metrics import MetricsRegistry, timed
from repro.engine.shuffle import ShuffleManager, read_block
from repro.obs import EventBus


#: Socket timeout for peer block fetches; a hung peer must fail the
#: task (-> retry + recovery) rather than wedge the reduce slot.
FETCH_TIMEOUT = 30.0
#: Timeout for a worker's connect to the driver, one per slot; the
#: connected task channel then blocks without one.
CONNECT_TIMEOUT = 10.0


class _TaskLocalMetrics:
    """Metrics facade routing to the running task's private registry.

    One WorkerContext is shared by every slot thread of a namespace;
    counters incremented during a task must travel home with *that*
    task's result frame, so each slot activates a thread-local registry
    for the duration of its task.  Increments outside any task (rare:
    daemon housekeeping) fall through to a base registry that stays on
    the worker.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._base = MetricsRegistry()

    def activate(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        self._tls.registry = registry
        return registry

    def deactivate(self) -> None:
        self._tls.registry = None

    def _target(self) -> MetricsRegistry:
        return getattr(self._tls, "registry", None) or self._base

    def inc(self, name: str, delta: float = 1) -> None:
        self._target().inc(name, delta)

    def observe(self, name: str, value: float) -> None:
        self._target().observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self._target().set_gauge(name, value)

    def counter(self, name: str) -> float:
        return self._target().counter(name)

    def snapshot(self) -> dict:
        return self._target().snapshot()


def fetch_block(
    sock: socket.socket, ns: int, shuffle_id: int, map_p: int, reduce_p: int
) -> bytes:
    """Fetch one shuffle block over an open peer connection."""
    protocol.send_frame(
        sock,
        protocol.MSG_FETCH,
        {"ns": ns, "shuffle": shuffle_id, "map": map_p, "reduce": reduce_p},
    )
    kind, header, body = protocol.recv_frame(sock)
    if kind == protocol.MSG_BLOCK:
        return body
    if kind == protocol.MSG_ERROR:
        raise protocol.decode_error(header)
    raise protocol.ProtocolError(f"unexpected reply {kind!r} to FETCH")


def serve_fetch_connection(conn: socket.socket, root_for, initial: dict | None = None) -> None:
    """Serve FETCH requests on one connection until the peer hangs up.

    ``root_for(ns)`` is the shuffle root of one namespace on this node
    (or None when the namespace is unknown).  A missing block
    answers with a pickled :class:`ShuffleFetchFailedError` so the
    fetching task fails with the *typed* error the scheduler's recovery
    path keys on.  ``initial`` is a FETCH header the caller already read
    off the socket (the fleet server dispatches on the first frame).
    """
    try:
        header = initial
        while True:
            if header is None:
                try:
                    kind, header, _ = protocol.recv_frame(conn)
                except protocol.ConnectionClosed:
                    return
                if kind == protocol.MSG_GOODBYE:
                    return
                if kind != protocol.MSG_FETCH:
                    protocol.send_error(
                        conn,
                        protocol.ProtocolError(f"unexpected {kind!r} on fetch channel"),
                    )
                    header = None
                    continue
            shuffle_id = header.get("shuffle", -1)
            map_p = header.get("map", -1)
            root = root_for(header.get("ns", -1))
            try:
                if root is None:
                    raise ShuffleFetchFailedError(
                        shuffle_id, map_p, where="block server: unknown namespace"
                    )
                blob = read_block(root, shuffle_id, map_p, header.get("reduce", -1))
            except ShuffleFetchFailedError as exc:
                protocol.send_error(conn, exc)
            else:
                protocol.send_frame(conn, protocol.MSG_BLOCK, {"ok": True}, blob)
            header = None
    except (OSError, protocol.ProtocolError):
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def run_block_server(
    bind_host: str, root_for
) -> tuple[socket.socket, int, threading.Thread]:
    """Start the shuffle block server on an ephemeral port; returns
    (listener, port, thread)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind_host, 0))
    listener.listen(64)

    thread = accept_connections(
        listener,
        lambda conn: serve_fetch_connection(conn, root_for),
        "gpf-dist-blockserver",
    )
    return listener, listener.getsockname()[1], thread


def accept_connections(listener: socket.socket, serve, name: str) -> threading.Thread:
    """Start a daemon thread called ``name`` that accepts on ``listener``
    until it is closed, running ``serve(conn)`` on a daemon thread per
    connection; returns the accept thread."""

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutdown
            threading.Thread(
                target=serve, args=(conn,), daemon=True, name=f"{name}-conn"
            ).start()

    thread = threading.Thread(target=accept_loop, daemon=True, name=name)
    thread.start()
    return thread


def stop_listener(listener: socket.socket) -> None:
    """Close a listening socket and wake the thread parked in its
    ``accept()``: ``close()`` alone leaves that thread, and the bound
    port, for the life of the process."""
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not every platform lets a listener be shut down
    listener.close()


class DistShuffle(ShuffleManager):
    """The engine's shuffle with peers: a location is a ``(host, port)``.

    Bucketing, encoding, framing, spilling, the ``shuffle.*`` chaos
    sites, crc checks and decode are the base class's.  This adds what a
    fleet needs on top: the wire-facing side of the location table
    (merged from each TASK frame on a worker, snapshotted into it on the
    driver), the per-task manifest of map outputs a worker reports home,
    and the one data-path override — a block whose location is another
    node is FETCHed from that peer's block server instead of read from
    disk.  Bytes cross the wire in their compressed resident form.

    Peer fetches are *measured* ``network_blocked`` time, so the base is
    built without a bandwidth model.  Used on both ends: each worker
    namespace has one, and :meth:`ClusterExecutor.bind` installs one as
    the driver's ``ctx.shuffle_manager``, so tasks that fall back inline
    interoperate with remote ones.
    """

    def __init__(
        self,
        root: str,
        self_addr: tuple[str, int],
        *,
        ns: int = 0,
        chaos=None,
        metrics=None,
    ):
        super().__init__(
            root, network_bandwidth=None, metrics=metrics, chaos=chaos
        )
        self._here = tuple(self_addr)
        self._ns = ns
        self._tls = threading.local()

    # -- locations on the wire -------------------------------------------
    def set_locations(self, locations: dict) -> None:
        """Merge a TASK frame's locations snapshot (worker side)."""
        with self._lock:
            for shuffle_id, entry in locations.items():
                current = self._locations.setdefault(
                    shuffle_id, {"num_map": entry["num_map"], "maps": {}}
                )
                current["maps"].update(entry["maps"])

    def add_location(self, shuffle_id: int, map_partition: int, addr) -> None:
        """Record which node holds one map output (driver side)."""
        with self._lock:
            self._locations[shuffle_id]["maps"][map_partition] = tuple(addr)

    def snapshot_locations(self) -> dict:
        """A picklable copy of the whole locations table (TASK header)."""
        with self._lock:
            return {
                shuffle_id: {"num_map": e["num_map"], "maps": dict(e["maps"])}
                for shuffle_id, e in self._locations.items()
            }

    # -- per-task output manifest (worker side) --------------------------
    def begin_task(self) -> list[tuple[int, int]]:
        """Start this slot thread's manifest: ``(shuffle, map partition)``
        of every map output the task goes on to write."""
        outputs = self._tls.outputs = []
        return outputs

    def write(
        self, shuffle_id, map_partition, elements, partitioner, serializer, task
    ) -> None:
        super().write(
            shuffle_id, map_partition, elements, partitioner, serializer, task
        )
        outputs = getattr(self._tls, "outputs", None)
        if outputs is not None:
            outputs.append((shuffle_id, map_partition))

    # -- reduce side -----------------------------------------------------
    def read(self, shuffle_id, reduce_partition, serializer, task):
        # One connection per peer for the whole read, closed with it.
        socks = self._tls.socks = {}
        try:
            return super().read(shuffle_id, reduce_partition, serializer, task)
        finally:
            self._tls.socks = None
            for sock in socks.values():
                try:
                    sock.close()
                except OSError:
                    pass

    def _fetch_block(
        self, shuffle_id, map_partition, reduce_partition, location, task
    ) -> bytes:
        addr = tuple(location)
        if addr == self._here:
            return super()._fetch_block(
                shuffle_id, map_partition, reduce_partition, location, task
            )
        if self.chaos is not None:
            # dist.fetch faults: a hit simulates a dead or refusing peer
            # (typed as a fetch failure so the scheduler's recovery path
            # exercises), a mangle corrupts the fetched bytes so the
            # base class's crc check fails the attempt.
            try:
                self.chaos.hit("dist.fetch", shuffle=shuffle_id, map=map_partition)
            except Exception as exc:  # noqa: BLE001 - typed below
                raise ShuffleFetchFailedError(
                    shuffle_id, map_partition, where=f"chaos: {exc}"
                ) from exc
        socks = self._tls.socks
        try:
            sock = socks.get(addr)
            if sock is None:
                sock = socks[addr] = socket.create_connection(
                    addr, timeout=FETCH_TIMEOUT
                )
            with timed(task, "network_blocked"):
                blob = fetch_block(
                    sock, self._ns, shuffle_id, map_partition, reduce_partition
                )
        except ShuffleFetchFailedError:
            raise
        except (OSError, protocol.ProtocolError) as exc:
            raise ShuffleFetchFailedError(
                shuffle_id, map_partition, where=f"{addr[0]}:{addr[1]}: {exc}"
            ) from exc
        if self.chaos is not None:
            mangled = self.chaos.mangle(
                "dist.fetch", blob, shuffle=shuffle_id, map=map_partition
            )
            if blob and not mangled:
                # Torn to nothing: the base class would take it for an
                # empty bucket and drop the map's records, so fail here.
                raise BlockCorruptionError(
                    f"fetched block torn to 0 bytes: shuffle {shuffle_id} "
                    f"map {map_partition} reduce {reduce_partition}"
                )
            blob = mangled
        if self._metrics is not None:
            self._metrics.inc("dist.fetch_bytes", len(blob))
            self._metrics.inc("dist.fetches")
        return blob


class WorkerContext(PartitionStore):
    """The ``ctx`` a shipped task body sees on a worker node.

    Implements exactly the context surface lineage code touches at
    *compute* time: serializer, cache block I/O (the engine's
    :class:`~repro.engine.context.PartitionStore` over a worker-local
    block manager — a partition cached by one task is reused by the next
    task of the same namespace), the P2P shuffle, metrics, and an
    inert event bus.  Driver-only machinery (scheduler, executor,
    tracer) is deliberately absent; a closure that calls
    ``ctx.run_job`` mid-task gets a clear error instead of a deadlock.
    """

    def __init__(
        self,
        root: str,
        ns: int,
        self_addr: tuple[str, int],
        serializer,
        *,
        chaos=None,
    ):
        self.ns = ns
        self.serializer = serializer
        self.metrics = _TaskLocalMetrics()
        self.events = EventBus()
        #: The namespace's fault stream on this node: the injector that
        #: rode in with the first TASK frame, kept for the namespace's
        #: life so hit counters advance across tasks and retries.
        self.chaos = chaos
        from repro.formats.quarantine import QuarantineSink

        self.quarantine = QuarantineSink(events=self.events)
        self.block_manager = BlockManager(root, events=self.events)
        self.shuffle_manager = DistShuffle(
            root, self_addr, ns=ns, chaos=chaos, metrics=self.metrics
        )

    # -- guards ----------------------------------------------------------
    def run_job(self, rdd, partitions=None):
        raise RuntimeError(
            "nested run_job inside a shipped task: actions must run on "
            "the driver, not inside lineage closures"
        )

    def _register_rdd(self, rdd) -> int:  # unpickled RDDs keep their ids
        raise RuntimeError("new RDDs cannot be created inside a shipped task")


class WorkerDaemon:
    """One worker node: task slots and a block server.

    ``slots`` is the worker's task parallelism: each slot is a dedicated
    socket connection to the driver's fleet server, so the driver's slot
    pool *is* the fleet's admission control and no frame multiplexing is
    needed.
    """

    def __init__(
        self,
        connect: tuple[str, int],
        *,
        slots: int | None = None,
        worker_id: str | None = None,
        root_dir: str | None = None,
        advertise_host: str | None = None,
    ):
        self.connect_addr = tuple(connect)
        self.slots = max(1, slots or (os.cpu_count() or 2))
        self.worker_id = worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
        self.root_dir = root_dir or tempfile.mkdtemp(prefix="gpf_worker_")
        self._owns_root = root_dir is None
        self.advertise_host = advertise_host or self.connect_addr[0]
        self._stop = threading.Event()
        self._contexts: dict[int, WorkerContext] = {}
        self._contexts_lock = threading.Lock()
        self._block_listener: socket.socket | None = None
        self.fetch_port: int | None = None
        #: Open task channels, severed by :meth:`stop`.
        self._slot_socks: set[socket.socket] = set()
        self._slot_socks_lock = threading.Lock()

    # -- namespace state -------------------------------------------------
    def _context_for(self, header: dict) -> WorkerContext:
        ns = header["ns"]
        with self._contexts_lock:
            wctx = self._contexts.get(ns)
            if wctx is None:
                wctx = WorkerContext(
                    self._ns_root(ns),
                    ns,
                    (self.advertise_host, self.fetch_port),
                    header["serializer"],
                    chaos=header.get("chaos"),
                )
                self._contexts[ns] = wctx
        return wctx

    def _ns_root(self, ns: int) -> str:
        return os.path.join(self.root_dir, f"ns{ns}")

    # -- task execution --------------------------------------------------
    def _run_task(self, header: dict, body_blob: bytes) -> tuple[dict, bytes]:
        wctx = self._context_for(header)
        wctx.shuffle_manager.set_locations(header.get("locations") or {})
        registry = wctx.metrics.activate()
        outputs = wctx.shuffle_manager.begin_task()
        try:
            body, task = ship_loads(body_blob, wctx)
            started = time.perf_counter()
            value = body(task)
            task.run_time = time.perf_counter() - started
            task.finalize()
            if value is None:
                encoding, result_blob = "none", b""
            else:
                encoding, result_blob = "block", wctx.serializer.dumps(value)
            reply = {
                "task": task,
                "outputs": outputs,
                "encoding": encoding,
                "telemetry": registry.snapshot(),
                "worker": self.worker_id,
            }
            return reply, result_blob
        finally:
            wctx.metrics.deactivate()

    def _slot_loop(self, slot: int) -> None:
        try:
            sock = socket.create_connection(
                self.connect_addr, timeout=CONNECT_TIMEOUT
            )
        except OSError:
            self._stop.set()
            return
        sock.settimeout(None)
        with self._slot_socks_lock:
            self._slot_socks.add(sock)
        try:
            if self._stop.is_set():
                return
            protocol.send_frame(
                sock,
                protocol.MSG_REGISTER,
                {
                    "worker": self.worker_id,
                    "slot": slot,
                    "slots": self.slots,
                    "pid": os.getpid(),
                    "fetch": (self.advertise_host, self.fetch_port),
                },
            )
            while not self._stop.is_set():
                try:
                    kind, header, body = protocol.recv_frame(sock)
                except protocol.ConnectionClosed:
                    return  # driver went away: orderly exit
                if kind == protocol.MSG_GOODBYE:
                    return
                if kind != protocol.MSG_TASK:
                    continue
                try:
                    reply, result_blob = self._run_task(header, body)
                except BaseException as exc:  # noqa: BLE001 - shipped home
                    protocol.send_error(sock, exc, traceback.format_exc())
                else:
                    protocol.send_frame(
                        sock, protocol.MSG_RESULT, reply, result_blob
                    )
        except (OSError, protocol.ProtocolError):
            return
        finally:
            with self._slot_socks_lock:
                self._slot_socks.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Start the block server and the slot threads."""
        os.makedirs(self.root_dir, exist_ok=True)
        self._block_listener, self.fetch_port, _ = run_block_server(
            "0.0.0.0", self._ns_root
        )
        self._threads = [
            threading.Thread(
                target=self._slot_loop, args=(i,), daemon=True,
                name=f"gpf-worker-slot-{i}",
            )
            for i in range(self.slots)
        ]
        for thread in self._threads:
            thread.start()

    def wait(self) -> None:
        """Block until every slot loop has exited (driver hung up)."""
        for thread in self._threads:
            while thread.is_alive():
                thread.join(0.2)
        self.stop()

    def stop(self) -> None:
        """Stop as a dying node does: every task channel and the block
        server close at once.  A slot parked on a channel would otherwise
        still accept one more task and report map outputs behind a block
        server that is already gone; severed channels read EOF, so the
        driver evicts this worker at its next slot acquire or live
        check."""
        self._stop.set()
        with self._slot_socks_lock:
            socks = list(self._slot_socks)
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its slot loop
        if self._block_listener is not None:
            stop_listener(self._block_listener)
            self._block_listener = None
        if self._owns_root:
            import shutil

            shutil.rmtree(self.root_dir, ignore_errors=True)

    def run(self) -> None:
        """start() + wait(); the ``gpf worker`` entry point."""
        self.start()
        print(
            f"gpf worker {self.worker_id}: {self.slots} slot(s), "
            f"fetch port {self.fetch_port}, driver "
            f"{self.connect_addr[0]}:{self.connect_addr[1]}",
            file=sys.stderr,
            flush=True,
        )
        self.wait()
