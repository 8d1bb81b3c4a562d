"""Loopback fleet scaling: measured N-worker WGS wall time vs the
cluster simulator's prediction (§5.4's scaling methodology, in-process).

The same seeded workload as ``bench_pipeline.py`` runs through the
cluster transport against N = 1, 2, 4 ``gpf worker`` **subprocesses**
on loopback (separate interpreters — real sockets, real ship/fetch
traffic).  A serial-backend run calibrates the simulator job (one
:class:`~repro.cluster.simulator.Task` per measured task, uncontended
task times), and each fleet size is simulated with its *effective* core
budget — ``min(workers x slots, host cpus)`` — because loopback workers
share one machine: on a many-core host the model predicts near-linear
scaling until the cores saturate, and on a small host it predicts the
flat profile the measurement actually shows.  The N=1 measurement
calibrates a constant transport overhead (ship/serialize/IPC); N=2/4
must then agree with the simulator within ``TOLERANCE`` (documented in
DESIGN.md §15).  Every fleet size must write a VCF byte-identical to
the calibration run's.

Run directly (``python benchmarks/bench_dist_scaling.py``) to fold a
``dist_scaling`` entry into ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

try:
    from benchmarks.bench_pipeline import PARTITION_LENGTH, _workload
    from benchmarks.conftest import print_table
except ModuleNotFoundError:  # direct script run from benchmarks/
    from bench_pipeline import PARTITION_LENGTH, _workload
    from conftest import print_table
from repro.cluster.simulator import ClusterSimulator, Stage, Task
from repro.cluster.topology import ClusterSpec, NodeSpec
from repro.engine.context import EngineConfig, GPFContext
from repro.formats.vcf import sort_records, write_vcf
from repro.wgs import build_wgs_pipeline

FLEET_SIZES = (1, 2, 4)
SLOTS_PER_WORKER = 2
PARALLELISM = 8
#: Measured-vs-predicted agreement bar for N>1 (documented in DESIGN §15:
#: loopback workers share one machine's memory bus, GIL-holding stretches,
#: and OS scheduler, so the model's ideal-node assumption only holds
#: approximately).
TOLERANCE = 0.35


def _effective_cores(n_workers: int) -> int:
    """The parallelism a loopback fleet can actually realize."""
    host = os.cpu_count() or 1
    return max(1, min(n_workers * SLOTS_PER_WORKER, host))


def _run_serial_calibration(reference, known_sites, pairs, workdir: str):
    """Uncontended per-task times + the byte-identity reference VCF."""
    ctx = GPFContext(
        EngineConfig(
            default_parallelism=PARALLELISM,
            executor_backend="serial",
            spill_dir=os.path.join(workdir, "spill_serial"),
        )
    )
    try:
        vcf_path = os.path.join(workdir, "serial.vcf")
        _run_pipeline(ctx, reference, known_sites, pairs, vcf_path)
        with open(vcf_path, "rb") as fh:
            return ctx.metrics.job(), fh.read()
    finally:
        ctx.stop()


def _run_pipeline(ctx, reference, known_sites, pairs, vcf_path: str):
    handles = build_wgs_pipeline(
        ctx,
        reference,
        ctx.parallelize(pairs, PARALLELISM),
        known_sites,
        partition_length=PARTITION_LENGTH,
    )
    handles.pipeline.run(optimize=True)
    calls = handles.vcf.rdd.collect()
    write_vcf(
        handles.vcf.header, sort_records(calls, reference.contig_names), vcf_path
    )


def _spawn_workers(port: int, count: int, workdir: str) -> list[subprocess.Popen]:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = []
    for i in range(count):
        procs.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli.main",
                    "worker",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--slots",
                    str(SLOTS_PER_WORKER),
                    "--id",
                    f"bench-w{i}",
                    "--work-dir",
                    os.path.join(workdir, f"worker{i}"),
                ],
                env=env,
                stderr=subprocess.DEVNULL,
            )
        )
    return procs


def _run_cluster(reference, known_sites, pairs, workdir: str, n_workers: int):
    """One N-worker fleet run; returns (wall_seconds, vcf_bytes, shipped)."""
    ctx = GPFContext(
        EngineConfig(
            default_parallelism=PARALLELISM,
            executor_backend="cluster",
            cluster_min_workers=n_workers,
            cluster_wait=30.0,
            spill_dir=os.path.join(workdir, f"spill_n{n_workers}"),
        )
    )
    procs: list[subprocess.Popen] = []
    try:
        port = ctx.executor.fleet.port
        procs = _spawn_workers(port, n_workers, workdir)
        if not ctx.executor.fleet.wait_for_workers(n_workers, 30.0):
            raise RuntimeError(f"workers never registered (n={n_workers})")
        vcf_path = os.path.join(workdir, f"cluster_n{n_workers}.vcf")
        t0 = time.perf_counter()
        _run_pipeline(ctx, reference, known_sites, pairs, vcf_path)
        wall = time.perf_counter() - t0
        shipped = ctx.metrics.counter("dist.tasks_shipped")
        with open(vcf_path, "rb") as fh:
            return wall, fh.read(), shipped
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        ctx.stop()


def _simulated_makespan(job, cores: int) -> float:
    """Replay the calibrated task graph on a ``cores``-core node."""
    stages = [
        Stage(
            name=stage.name or f"stage{stage.stage_id}",
            tasks=[Task(cpu_seconds=t.run_time) for t in stage.tasks],
        )
        for stage in job.stages
        if stage.tasks
    ]
    spec = ClusterSpec(num_nodes=1, node=NodeSpec(cores=cores))
    return ClusterSimulator(spec).run_job(stages).makespan


def run_bench() -> dict:
    reference, known_sites, pairs = _workload()
    workdir = tempfile.mkdtemp(prefix="gpf_dist_scaling_")
    try:
        calibration_job, baseline_vcf = _run_serial_calibration(
            reference, known_sites, pairs, workdir
        )
        measured: dict[int, float] = {}
        identical: dict[int, bool] = {}
        shipped: dict[int, float] = {}
        for n in FLEET_SIZES:
            wall, vcf, n_shipped = _run_cluster(
                reference, known_sites, pairs, workdir, n
            )
            measured[n] = wall
            identical[n] = vcf == baseline_vcf
            shipped[n] = n_shipped
        # Constant transport overhead (ship/serialize/IPC, driver-side
        # collects) calibrated from the N=1 fleet against its simulation.
        overhead = max(
            0.0,
            measured[1]
            - _simulated_makespan(calibration_job, _effective_cores(1)),
        )
        rows = []
        fleet_entries = []
        for n in FLEET_SIZES:
            cores = _effective_cores(n)
            predicted = overhead + _simulated_makespan(calibration_job, cores)
            error = abs(measured[n] - predicted) / predicted
            fleet_entries.append(
                {
                    "workers": n,
                    "slots": n * SLOTS_PER_WORKER,
                    "effective_cores": cores,
                    "wall_seconds": measured[n],
                    "predicted_seconds": predicted,
                    "relative_error": error,
                    "within_tolerance": n == 1 or error <= TOLERANCE,
                    "speedup_vs_1": measured[1] / measured[n],
                    "tasks_shipped": shipped[n],
                    "vcf_byte_identical": identical[n],
                }
            )
            rows.append(
                [
                    n,
                    cores,
                    f"{measured[n]:.2f}s",
                    f"{predicted:.2f}s",
                    f"{100 * error:.1f}%",
                    f"{measured[1] / measured[n]:.2f}x",
                    identical[n],
                ]
            )
        print_table(
            "dist_scaling: loopback fleet vs simulator",
            ["workers", "cores", "measured", "predicted", "error", "speedup", "vcf=="],
            rows,
        )
        return {
            "workload": f"{len(pairs)} read pairs, {PARALLELISM}-way, "
            f"{SLOTS_PER_WORKER} slots/worker, loopback subprocess fleet",
            "host_cpus": os.cpu_count() or 1,
            "tolerance": TOLERANCE,
            "transport_overhead_seconds": overhead,
            "fleets": fleet_entries,
            "all_within_tolerance": all(
                e["within_tolerance"] for e in fleet_entries
            ),
            "all_byte_identical": all(identical.values()),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    summary = run_bench()
    try:
        from benchmarks.bench_history import append_history
    except ModuleNotFoundError:
        from bench_history import append_history

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_pipeline.json",
    )
    document: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            document = {
                k: v for k, v in json.load(fh).items() if k != "history"
            }
    document["dist_scaling"] = summary
    append_history(path, document)
    print(f"\nwrote dist_scaling entry to {path}")
    if not summary["all_byte_identical"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
