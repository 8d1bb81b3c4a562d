"""A journaled run reads its own checkpoints, but never depends on them.

``RunJournal.record`` redefines each RDD output as the checkpoint files
it just wrote, keeping the output's lineage as the checkpoint's parent.
A partition whose file is missing, unreadable or undecodable where its
task runs is recomputed from that lineage — the run's answer never
rests on the journal directory staying readable.  A resumed run's
checkpoint has no lineage, so there a failed read fails the task.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import ChaosPlan, ChaosRule
from repro.core.pipeline import Pipeline
from repro.core.process import Process
from repro.core.resource import Resource
from repro.engine.blockmanager import write_block_file
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import TaskFailedError
from repro.engine.journal import CheckpointFileRDD
from tests.engine.journaled import partition_files, run_journaled


def make_ctx(tmp_path, backend="serial", chaos=None):
    return GPFContext(
        EngineConfig(
            default_parallelism=2,
            executor_backend=backend,
            num_workers=2,
            max_task_attempts=2,
            spill_dir=str(tmp_path / f"spill_{backend}"),
            chaos=chaos,
        )
    )


def fallbacks(ctx) -> int:
    return ctx.metrics.snapshot()["counters"].get("journal.checkpoint_fallbacks", 0)


class TestRecordedCheckpoint:
    def test_output_is_the_checkpoint_over_its_lineage(self, tmp_path):
        with make_ctx(tmp_path) as ctx:
            executed, out = run_journaled(
                ctx, str(tmp_path / "j"), range(10), lambda x: x + 1
            )
            assert executed
            assert isinstance(out, CheckpointFileRDD)
            assert len(out.parents) == 1
            assert out.collect() == list(range(1, 11))
            assert fallbacks(ctx) == 0

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_missing_file_recomputes_from_lineage(self, tmp_path, backend):
        jdir = str(tmp_path / "j")
        with make_ctx(tmp_path, backend) as ctx:
            _, out = run_journaled(ctx, jdir, range(10), lambda x: x * 3)
            os.remove(partition_files(jdir)[1])
            assert out.collect() == [x * 3 for x in range(10)]
            assert fallbacks(ctx) == 1
            assert not ctx.metrics.failures

    def test_undecodable_file_recomputes_from_lineage(self, tmp_path):
        jdir = str(tmp_path / "j")
        with make_ctx(tmp_path) as ctx:
            _, out = run_journaled(ctx, jdir, range(10), lambda x: -x)
            # A crc-valid frame around garbage: only decoding can tell.
            write_block_file(partition_files(jdir)[0], b"\x00garbage")
            assert out.collect() == [-x for x in range(10)]
            assert fallbacks(ctx) == 1

    def test_resumed_checkpoint_has_no_lineage_to_fall_back_on(self, tmp_path):
        jdir = str(tmp_path / "j")
        with make_ctx(tmp_path) as ctx:
            run_journaled(ctx, jdir, range(10), lambda x: x)
            executed, out = run_journaled(ctx, jdir, range(10), lambda x: x)
            assert not executed
            assert out.parents == []
            os.remove(partition_files(jdir)[0])
            with pytest.raises(TaskFailedError):
                out.collect()


class _AddOne(Process):
    def __init__(self, name, src, dst):
        super().__init__(name, [src], [dst])

    def execute(self, ctx):
        self.outputs[0].define(self.inputs[0].value.map(lambda x: x + 1))


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_unreadable_journal_mid_run_keeps_the_output(tmp_path, backend):
    """Every read of a recorded checkpoint fails with EIO (a journal
    directory that went bad after the first Process committed): the
    second Process reads its input from lineage and the run's output is
    unchanged."""
    plan = ChaosPlan(
        seed=1,
        rules=[ChaosRule(site="journal.checkpoint.read", fault="eio", every=1)],
    )
    with make_ctx(tmp_path, backend, chaos=plan) as ctx:
        src, mid, out = Resource("src"), Resource("mid"), Resource("out")
        src.define(ctx.parallelize(range(12), 3))
        pipeline = Pipeline("two-step", ctx)
        pipeline.add_process(_AddOne("first", src, mid))
        pipeline.add_process(_AddOne("second", mid, out))
        pipeline.run(journal_dir=str(tmp_path / "j"))
        assert sorted(out.value.collect()) == [x + 2 for x in range(12)]
        # Recording "second" reads "first"'s 3 partitions from lineage;
        # the final collect falls back on each of "second"'s 3 files,
        # whose lineage reads "first"'s files, and falls back again.
        assert fallbacks(ctx) == 9
        assert ctx.chaos.site_hits("journal.checkpoint.read") == 9
        assert not ctx.metrics.failures
