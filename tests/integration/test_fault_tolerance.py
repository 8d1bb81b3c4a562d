"""Fault-injected WGS runs: random task deaths plus a mid-run kill must
not change a single output byte.

This is the CI fault-smoke gate: the full pipeline runs with one task
attempt in five killed (a chaos ``task.attempt`` rule, probability 0.2,
seed 7), is killed after an early Process, and is resumed from its run
journal; the resumed VCF must be byte-identical to an uninterrupted
reference run under the same fault schedule.
"""

import os

import pytest

from repro.chaos import ChaosPlan, ChaosRule
from repro.engine.context import EngineConfig, GPFContext
from repro.formats.vcf import write_vcf
from repro.wgs import build_wgs_pipeline


def _make_ctx(tmp_path, tag):
    return GPFContext(
        EngineConfig(
            default_parallelism=3,
            spill_dir=str(tmp_path / f"spill_{tag}"),
            max_task_attempts=8,
            chaos=ChaosPlan(
                seed=7,
                rules=[ChaosRule(site="task.attempt", fault="die", probability=0.2)],
            ),
        )
    )


def _build(ctx, inputs):
    reference, known_sites, pairs = inputs
    return build_wgs_pipeline(
        ctx,
        reference,
        ctx.parallelize(pairs, 3),
        known_sites,
        partition_length=4_000,
    )


def _vcf_bytes(handles, path):
    records = sorted(handles.vcf.rdd.collect(), key=lambda r: r.key())
    write_vcf(handles.vcf.header, records, path)
    with open(path, "rb") as fh:
        return fh.read()


class TestKillAndResumeUnderFaults:
    def test_resumed_vcf_is_byte_identical(
        self, tmp_path, reference, known_sites, read_pairs
    ):
        inputs = (reference, known_sites, read_pairs[:60])
        journal_dir = str(tmp_path / "journal")

        # Uninterrupted reference run under fault injection.
        with _make_ctx(tmp_path, "ref") as ctx:
            handles = _build(ctx, inputs)
            handles.pipeline.run()
            assert ctx.chaos.injected > 0
            expected = _vcf_bytes(handles, str(tmp_path / "ref.vcf"))

        # Journaled run killed right after BwaMapping commits.
        with _make_ctx(tmp_path, "crash") as ctx:
            handles = _build(ctx, inputs)
            victim = handles.pipeline.processes[1]  # MarkDuplicate
            assert victim.name == "MarkDuplicate"
            victim.execute = lambda run_ctx: (_ for _ in ()).throw(
                RuntimeError("simulated mid-run kill")
            )
            with pytest.raises(RuntimeError, match="simulated mid-run kill"):
                handles.pipeline.run(journal_dir=journal_dir)
            assert [p.name for p in handles.pipeline.executed] == ["BwaMapping"]
        assert os.path.exists(os.path.join(journal_dir, "journal.jsonl"))

        # Resume: BwaMapping restores from the journal, the rest re-runs.
        with _make_ctx(tmp_path, "resume") as ctx:
            handles = _build(ctx, inputs)
            handles.pipeline.run(journal_dir=journal_dir)
            skipped = [p.name for p in handles.pipeline.skipped]
            executed = [p.name for p in handles.pipeline.executed]
            assert skipped == ["BwaMapping"]
            assert "BwaMapping" not in executed
            resumed = _vcf_bytes(handles, str(tmp_path / "resumed.vcf"))

        assert resumed == expected
