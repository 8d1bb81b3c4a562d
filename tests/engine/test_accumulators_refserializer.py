"""Accumulator tests.

The reference-based codec these once drove as an engine serializer is
tested at the codec level in ``tests/compression/test_refbased.py``.
"""

from repro.engine.accumulators import Accumulator, counter
from repro.engine.context import EngineConfig, GPFContext


class TestAccumulator:
    def test_counter_adds(self):
        acc = counter("reads")
        acc.add(3)
        acc += 4
        assert acc.value == 7

    def test_custom_op(self):
        acc = Accumulator(1.0, lambda a, b: a * b)
        acc.add(3.0)
        acc.add(4.0)
        assert acc.value == 12.0

    def test_reset(self):
        acc = counter()
        acc.add(5)
        acc.reset(0)
        assert acc.value == 0

    def test_tasks_update_accumulator(self, ctx):
        acc = ctx.accumulator(name="seen")
        ctx.run_job(ctx.parallelize(range(50), 4).map(lambda _x: acc.add(1)))
        assert acc.value == 50

    def test_threadsafe_updates(self, tmp_path):
        config = EngineConfig(
            executor_backend="threads",
            num_workers=4,
            spill_dir=str(tmp_path / "acc"),
        )
        with GPFContext(config) as ctx:
            acc = ctx.accumulator(name="n")

            def bump(x):
                acc.add(1)
                return x

            ctx.run_job(ctx.parallelize(range(500), 8).map(bump))
            assert acc.value == 500

