"""A one-Process journaled pipeline for the durable-store tests.

The run journal is the engine's one durable store: a finished Process's
RDD outputs are written as crc-framed serializer payloads, one file
per partition, and a resumed run restores them instead of re-executing.
"""

from __future__ import annotations

import os

from repro.core.pipeline import Pipeline
from repro.core.process import Process
from repro.core.resource import Resource


class _Map(Process):
    """Maps ``func`` over its input RDD; logs each execution."""

    def __init__(self, src, dst, func, log):
        super().__init__("map", [src], [dst])
        self._func = func
        self._log = log

    def execute(self, ctx):
        self._log.append(self.name)
        self.outputs[0].define(self.inputs[0].value.map(self._func))


def run_journaled(ctx, journal_dir, data, func, partitions=2):
    """Run ``parallelize(data).map(func)`` as a journaled Process.

    Returns ``(executed, out)``: whether the Process ran (False when the
    journal restored it) and its output RDD.
    """
    log: list[str] = []
    src = Resource("src")
    src.define(ctx.parallelize(data, partitions))
    out = Resource("out")
    pipeline = Pipeline("journaled", ctx)
    pipeline.add_process(_Map(src, out, func, log))
    pipeline.run(journal_dir=journal_dir)
    return bool(log), out.value


def partition_files(journal_dir):
    """The journaled partition files of the Process's output, in order."""
    data_dir = os.path.join(journal_dir, "data")
    return [
        os.path.join(data_dir, name)
        for name in sorted(os.listdir(data_dir))
        if name.endswith(".ckpt")
    ]
