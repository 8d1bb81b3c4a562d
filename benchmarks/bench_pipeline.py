"""End-to-end WGS run with compressed-resident partitions (§4.1 + §5.2.4).

The paper keeps cached data in codec form and decodes it where a task reads it;
this bench runs the full Fig. 3 pipeline three ways on the same reads:

1. ``baseline``   — compact (Kryo-analogue) serializer, no memory budget:
   the pre-compression resident representation.
2. ``compressed`` — gpf codec serializer, no memory budget: measures the
   resident working-set reduction of the codec-form cache.
3. ``budgeted``   — gpf codec with ``memory_budget`` set far below the
   decoded working set (bigger-than-RAM regime): blocks must be evicted
   to disk and re-read, and the VCF output must stay byte-identical.

Run directly (``python benchmarks/bench_pipeline.py``) to write the
artifact ``BENCH_pipeline.json`` with the wall-time and working-set
numbers behind the PR's acceptance criteria.
"""

from __future__ import annotations

import json
import time

import pytest

try:
    from benchmarks.conftest import print_table
except ModuleNotFoundError:  # direct script run from benchmarks/
    from conftest import print_table
from repro.engine.context import EngineConfig, GPFContext
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    generate_known_sites,
    generate_reference,
    plant_variants,
)
from repro.wgs import build_wgs_pipeline

NUM_PAIRS = 150
PARALLELISM = 3
PARTITION_LENGTH = 4_000


def _workload():
    """Reference, known sites, and read pairs — all seeded."""
    reference = generate_reference([15_000, 8_000], seed=211)
    truth = plant_variants(
        reference, snp_rate=0.002, indel_rate=0.0003, seed=212
    )
    known_sites = generate_known_sites(truth, reference, seed=213)
    pairs = ReadSimulator(
        truth.donor, ReadSimConfig(coverage=6.0, seed=214, duplicate_fraction=0.05)
    ).simulate()[:NUM_PAIRS]
    return reference, known_sites, pairs


def run_once(
    reference,
    known_sites,
    pairs,
    spill_dir: str,
    serializer: str,
    memory_budget: int | None = None,
) -> dict:
    """One full pipeline run; returns VCF lines plus the memory gauges."""
    ctx = GPFContext(
        EngineConfig(
            default_parallelism=PARALLELISM,
            serializer=serializer,
            spill_dir=spill_dir,
            memory_budget=memory_budget,
        )
    )
    try:
        t0 = time.perf_counter()
        handles = build_wgs_pipeline(
            ctx,
            reference,
            ctx.parallelize(pairs, PARALLELISM),
            known_sites,
            partition_length=PARTITION_LENGTH,
        )
        handles.pipeline.run()
        vcf = handles.vcf.rdd.collect()
        wall = time.perf_counter() - t0
        stats = ctx.block_manager.stats
        counters = ctx.telemetry_snapshot()["counters"]
        return {
            "vcf_lines": [r.to_line() for r in vcf],
            "wall_seconds": wall,
            "resident_bytes": stats.memory_bytes,
            "disk_bytes": stats.disk_bytes,
            "logical_bytes": stats.logical_bytes,
            "evictions": stats.evictions,
            "disk_blocks": stats.disk_blocks,
            "decode_seconds": counters.get("blockmanager.decode_seconds", 0.0),
        }
    finally:
        ctx.stop()


def run_matrix(reference, known_sites, pairs, root_dir: str) -> dict:
    """The three runs; the budget is derived from the compressed run."""
    baseline = run_once(
        reference, known_sites, pairs, f"{root_dir}/baseline", "compact"
    )
    compressed = run_once(
        reference, known_sites, pairs, f"{root_dir}/compressed", "gpf"
    )
    # Bigger-than-RAM regime: budget at half the *compressed* resident
    # set, which is well under 50% of the decoded working set.
    budget = max(16 * 1024, compressed["resident_bytes"] // 2)
    budgeted = run_once(
        reference,
        known_sites,
        pairs,
        f"{root_dir}/budgeted",
        "gpf",
        memory_budget=budget,
    )
    return {
        "baseline": baseline,
        "compressed": compressed,
        "budgeted": budgeted,
        "memory_budget": budget,
    }


def summarize(runs: dict) -> dict:
    baseline, compressed, budgeted = (
        runs["baseline"],
        runs["compressed"],
        runs["budgeted"],
    )
    return {
        "workload": (
            f"{NUM_PAIRS} read pairs, 23kb reference, "
            f"{PARALLELISM}-way, partition_length={PARTITION_LENGTH}"
        ),
        "baseline_wall_seconds": baseline["wall_seconds"],
        "compressed_wall_seconds": compressed["wall_seconds"],
        "budgeted_wall_seconds": budgeted["wall_seconds"],
        "wall_time_ratio": compressed["wall_seconds"] / baseline["wall_seconds"],
        "budgeted_wall_time_ratio": (
            budgeted["wall_seconds"] / baseline["wall_seconds"]
        ),
        "baseline_resident_bytes": baseline["resident_bytes"],
        "compressed_resident_bytes": compressed["resident_bytes"],
        "decoded_working_set_bytes": compressed["logical_bytes"],
        "working_set_reduction_vs_baseline": (
            baseline["resident_bytes"] / compressed["resident_bytes"]
        ),
        "working_set_reduction_vs_decoded": (
            compressed["logical_bytes"] / compressed["resident_bytes"]
        ),
        "memory_budget": runs["memory_budget"],
        "budgeted_evictions": budgeted["evictions"],
        "budgeted_disk_blocks": budgeted["disk_blocks"],
        "decode_seconds": compressed["decode_seconds"],
        "vcf_byte_identical": (
            baseline["vcf_lines"]
            == compressed["vcf_lines"]
            == budgeted["vcf_lines"]
        ),
        "vcf_records": len(baseline["vcf_lines"]),
    }


def _report(summary: dict) -> None:
    print_table(
        "Compressed-resident pipeline — wall time",
        ["run", "wall (s)", "vs baseline"],
        [
            ["baseline (compact)", f"{summary['baseline_wall_seconds']:.2f}", "1.00x"],
            [
                "compressed (gpf)",
                f"{summary['compressed_wall_seconds']:.2f}",
                f"{summary['wall_time_ratio']:.2f}x",
            ],
            [
                "budgeted (gpf)",
                f"{summary['budgeted_wall_seconds']:.2f}",
                f"{summary['budgeted_wall_time_ratio']:.2f}x",
            ],
        ],
    )
    print_table(
        "Compressed-resident pipeline — working set",
        ["measure", "bytes", "reduction"],
        [
            ["baseline resident", summary["baseline_resident_bytes"], "1.00x"],
            [
                "compressed resident",
                summary["compressed_resident_bytes"],
                f"{summary['working_set_reduction_vs_baseline']:.2f}x",
            ],
            [
                "decoded working set",
                summary["decoded_working_set_bytes"],
                f"{summary['working_set_reduction_vs_decoded']:.2f}x vs resident",
            ],
        ],
    )


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    reference, known_sites, pairs = _workload()
    root = tmp_path_factory.mktemp("bench_pipeline")
    return run_matrix(reference, known_sites, pairs, str(root))


def test_pipeline_vcf_byte_identical(pipeline_runs):
    """Codec-resident caching and the memory budget must not change a
    single output byte."""
    summary = summarize(pipeline_runs)
    assert summary["vcf_records"] > 0
    assert summary["vcf_byte_identical"], "VCF output diverged between runs"


def test_pipeline_working_set_reduction(pipeline_runs):
    """Acceptance: >= 2x resident working-set reduction."""
    summary = summarize(pipeline_runs)
    _report(summary)
    assert summary["working_set_reduction_vs_baseline"] >= 2.0
    assert summary["working_set_reduction_vs_decoded"] >= 2.0


def test_pipeline_budget_forces_bigger_than_ram(pipeline_runs):
    """Under the budget the cache really does overflow to disk."""
    summary = summarize(pipeline_runs)
    assert summary["budgeted_evictions"] > 0
    assert summary["budgeted_disk_blocks"] > 0
    resident = pipeline_runs["budgeted"]["resident_bytes"]
    # The budget is enforced on compressed bytes (the largest single
    # block may straddle the line; allow one block of slack).
    assert resident <= summary["memory_budget"] * 2


def test_pipeline_wall_time_within_threshold(pipeline_runs):
    """Acceptance: wall time within 1.3x of baseline.  The CI smoke run
    shares cores with the rest of the suite, so assert a generous 2x
    here; BENCH_pipeline.json records the measured ratio."""
    summary = summarize(pipeline_runs)
    assert summary["wall_time_ratio"] < 2.0
    assert summary["budgeted_wall_time_ratio"] < 2.5


def main():
    reference, known_sites, pairs = _workload()
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_pipeline_") as root:
        runs = run_matrix(reference, known_sites, pairs, root)
    summary = summarize(runs)
    _report(summary)
    try:
        from benchmarks.bench_history import append_history
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from bench_history import append_history

    out = "BENCH_pipeline.json"
    append_history(out, summary)
    print(json.dumps(summary, indent=2))
    print(f"wrote {out} (history appended)")


if __name__ == "__main__":
    main()
