"""The acceptance bar: WGS over a 2-worker loopback fleet writes a VCF
byte-identical to the thread backend's, and survives losing a worker."""

import os
import threading
import time

import pytest

from repro.dist.worker import WorkerDaemon
from repro.engine import journal as journal_module
from repro.engine.context import EngineConfig, GPFContext
from repro.formats.vcf import sort_records, write_vcf
from repro.wgs import build_wgs_pipeline


def _run_wgs(tmp_path, inputs, backend, tag, workers=0, journal_dir=None):
    reference, known_sites, pairs = inputs
    config = EngineConfig(
        default_parallelism=3,
        executor_backend=backend,
        num_workers=4,
        cluster_min_workers=workers,
        cluster_wait=10.0,
        spill_dir=str(tmp_path / f"spill_{tag}"),
    )
    ctx = GPFContext(config)
    daemons = []
    try:
        if backend == "cluster":
            port = ctx.executor.fleet.port
            for i in range(workers):
                daemon = WorkerDaemon(
                    ("127.0.0.1", port),
                    slots=2,
                    worker_id=f"wgs-{tag}-w{i}",
                    root_dir=str(tmp_path / f"{tag}_worker{i}"),
                )
                daemon.start()
                daemons.append(daemon)
            assert ctx.executor.fleet.wait_for_workers(workers, 10.0)
        handles = build_wgs_pipeline(
            ctx,
            reference,
            ctx.parallelize(pairs, 3),
            known_sites,
            partition_length=4_000,
        )
        handles.pipeline.run(optimize=True, journal_dir=journal_dir)
        calls = handles.vcf.rdd.collect()
        out = str(tmp_path / f"{tag}.vcf")
        write_vcf(
            handles.vcf.header,
            sort_records(calls, reference.contig_names),
            out,
        )
        with open(out, "rb") as fh:
            return fh.read(), ctx.metrics.snapshot(), daemons
    finally:
        for daemon in daemons:
            daemon.stop()
        ctx.stop()


#: ``dist.bytes_shipped`` of the cluster run below when every task
#: pickled its whole lineage back to ``parallelize`` (38 tasks).
FULL_LINEAGE_BYTES_SHIPPED = 13_479_199


@pytest.fixture(scope="module")
def wgs_inputs(reference, known_sites, read_pairs):
    return reference, known_sites, read_pairs


@pytest.fixture(scope="module")
def thread_vcf(tmp_path_factory, wgs_inputs):
    """The threads backend's VCF: the bytes every cluster run must match."""
    vcf, _, _ = _run_wgs(
        tmp_path_factory.mktemp("threads"), wgs_inputs, "threads", "threads"
    )
    return vcf


def test_cluster_vcf_is_byte_identical_to_threads(tmp_path, wgs_inputs, thread_vcf):
    cluster_vcf, snapshot, _ = _run_wgs(
        tmp_path, wgs_inputs, "cluster", "cluster", workers=2
    )
    assert cluster_vcf == thread_vcf
    assert len(cluster_vcf) > 100
    assert snapshot["counters"].get("dist.tasks_shipped", 0) > 0
    # A task ships its stage only: written shuffles travel as ids.
    shipped = snapshot["counters"]["dist.bytes_shipped"]
    assert shipped <= FULL_LINEAGE_BYTES_SHIPPED // 2, shipped


def test_journaled_cluster_run_reads_its_checkpoints(
    tmp_path, wgs_inputs, thread_vcf
):
    """With a journal, each Process's RDD output becomes its checkpoint
    files, which the workers read by path: on a loopback fleet they
    share the driver's filesystem, and the VCF is the threads run's."""
    journal = tmp_path / "journal"
    cluster_vcf, snapshot, _ = _run_wgs(
        tmp_path, wgs_inputs, "cluster", "journaled", workers=2,
        journal_dir=str(journal),
    )
    assert cluster_vcf == thread_vcf
    assert snapshot["counters"]["journal.recorded"] >= 4
    assert snapshot["counters"].get("dist.tasks_shipped", 0) > 0
    assert snapshot["counters"].get("journal.checkpoint_fallbacks", 0) == 0
    assert any(name.endswith(".ckpt") for name in os.listdir(journal / "data"))


def test_journaled_run_on_workers_without_the_journal_dir(
    tmp_path, wgs_inputs, thread_vcf, monkeypatch
):
    """Workers on other hosts cannot open the driver's checkpoint paths:
    every worker-side read fails as a missing file.  Each such partition
    is recomputed from the checkpoint's lineage on the worker, and the
    VCF is still the threads run's."""
    read_block_file = journal_module.read_block_file

    def driver_only(path, *args, **kwargs):
        if threading.current_thread().name.startswith("gpf-worker-slot-"):
            raise FileNotFoundError(path)
        return read_block_file(path, *args, **kwargs)

    monkeypatch.setattr(journal_module, "read_block_file", driver_only)
    cluster_vcf, snapshot, _ = _run_wgs(
        tmp_path, wgs_inputs, "cluster", "remote", workers=2,
        journal_dir=str(tmp_path / "journal"),
    )
    assert cluster_vcf == thread_vcf
    assert snapshot["counters"]["journal.checkpoint_fallbacks"] > 0
    assert snapshot["counters"].get("dist.tasks_shipped", 0) > 0


def test_wgs_survives_worker_loss_mid_job(tmp_path, wgs_inputs, thread_vcf):
    """Kill one of two workers while the pipeline runs; the driver must
    requeue its tasks and finish with the same bytes — never hang."""
    reference, known_sites, pairs = wgs_inputs
    config = EngineConfig(
        default_parallelism=3,
        executor_backend="cluster",
        cluster_min_workers=2,
        cluster_wait=10.0,
        spill_dir=str(tmp_path / "spill_loss"),
    )
    ctx = GPFContext(config)
    daemons = []
    try:
        port = ctx.executor.fleet.port
        for i in range(2):
            daemon = WorkerDaemon(
                ("127.0.0.1", port),
                slots=2,
                worker_id=f"loss-w{i}",
                root_dir=str(tmp_path / f"loss_worker{i}"),
            )
            daemon.start()
            daemons.append(daemon)
        assert ctx.executor.fleet.wait_for_workers(2, 10.0)
        killer = threading.Timer(0.5, daemons[0].stop)
        killer.start()
        start = time.monotonic()
        handles = build_wgs_pipeline(
            ctx,
            reference,
            ctx.parallelize(pairs, 3),
            known_sites,
            partition_length=4_000,
        )
        handles.pipeline.run(optimize=True)
        calls = handles.vcf.rdd.collect()
        killer.cancel()
        assert time.monotonic() - start < 240  # finished, did not hang
        out = str(tmp_path / "loss.vcf")
        write_vcf(
            handles.vcf.header,
            sort_records(calls, reference.contig_names),
            out,
        )
        with open(out, "rb") as fh:
            assert fh.read() == thread_vcf
    finally:
        for daemon in daemons:
            daemon.stop()
        ctx.stop()
