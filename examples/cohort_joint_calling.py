#!/usr/bin/env python
"""Cohort pipeline + fault tolerance + QC in one walkthrough.

Simulates three samples from one donor genome, runs the multi-sample
pipeline (per-sample Align/MarkDuplicate, one fused partition chain over
the whole cohort, joint calling) *under injected task failures*, then
prints QC metrics and the variant scorecard.

Run:  python examples/cohort_joint_calling.py
"""

from __future__ import annotations

import time

from repro.caller.filters import apply_hard_filters, filter_summary, passing
from repro.chaos import ChaosPlan, ChaosRule
from repro.cleaner.qc import flagstat, insert_size_metrics
from repro.engine import EngineConfig, GPFContext
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    generate_known_sites,
    generate_reference,
    plant_variants,
)
from repro.wgs import build_cohort_pipeline


def main() -> None:
    print("1. Simulating one donor, three sequencing runs (4x each)...")
    reference = generate_reference([20_000], seed=81)
    truth = plant_variants(reference, snp_rate=0.002, indel_rate=0.0003, seed=82)
    known = generate_known_sites(truth, reference, seed=83)
    samples = [
        ReadSimulator(truth.donor, ReadSimConfig(coverage=4.0, seed=84 + i)).simulate()
        for i in range(3)
    ]
    print(f"   samples: {[len(s) for s in samples]} pairs; truth: {len(truth.records)} variants")

    print("2. Building the cohort pipeline and injecting random task failures...")
    faults = ChaosPlan(
        seed=85,
        rules=[
            ChaosRule(
                site="task.attempt", fault="die", probability=0.08, max_faults=12
            )
        ],
    )
    ctx = GPFContext(
        EngineConfig(default_parallelism=3, max_task_attempts=6, chaos=faults)
    )
    handles = build_cohort_pipeline(
        ctx,
        reference,
        [ctx.parallelize(pairs, 3) for pairs in samples],
        known,
        partition_length=5_000,
    )
    print(handles.pipeline.describe())

    start = time.perf_counter()
    handles.pipeline.run()
    raw_calls = handles.vcf.rdd.collect()
    elapsed = time.perf_counter() - start
    print(f"\n3. Done in {elapsed:.1f}s despite {ctx.chaos.injected} injected task failures")

    print("\n4. Per-sample QC (flagstat + insert sizes):")
    for i in range(3):
        records = handles.recalibrated[i].rdd.collect()
        stats = flagstat(records)
        inserts = insert_size_metrics(records)
        print(
            f"   sample {i}: {stats.total} reads, "
            f"{100 * stats.mapped_fraction:.1f}% mapped, "
            f"{stats.duplicates} duplicates, "
            f"insert {inserts.mean:.0f}±{inserts.std:.0f}"
        )

    print("\n5. Hard-filtering and scoring the joint calls:")
    filtered = apply_hard_filters(raw_calls, reference)
    kept = passing(filtered)
    truth_keys = truth.truth_keys()
    tp = sum(1 for c in kept if c.key() in truth_keys)
    print(f"   filter summary: {filter_summary(filtered)}")
    print(f"   {len(kept)} PASS calls; recall {tp}/{len(truth_keys)}, "
          f"precision {tp}/{len(kept)}")
    ctx.stop()


if __name__ == "__main__":
    main()
