"""Resilience tests: task retry, lineage recomputation, fault injection.

Faults come from the chaos plane's ``task.attempt`` site.  Under the
serial backend attempts run in a fixed order (a retry runs right after
the attempt it replaces), so an ``nth`` rule kills one named attempt.
"""

import pytest

from repro.chaos import ChaosInjector, ChaosPlan, ChaosRule
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import InjectedFault, TaskFailedError


def kill_nth(nth):
    """Kill the run's nth task attempt (counted from 1, every stage)."""
    return ChaosRule(site="task.attempt", fault="die", nth=nth)


def kill_randomly(probability, max_faults=None):
    return ChaosRule(
        site="task.attempt", fault="die", probability=probability, max_faults=max_faults
    )


def chaos_ctx(tmp_path, rules, seed=0, **config):
    config.setdefault("default_parallelism", 3)
    return GPFContext(
        EngineConfig(
            spill_dir=str(tmp_path / "spill"),
            chaos=ChaosPlan(seed=seed, rules=rules),
            **config,
        )
    )


def attempt(injector, partition, attempt=0):
    """One task attempt as the scheduler reports it to the chaos plane."""
    injector.hit(
        "task.attempt", stage_kind="result", partition=partition, attempt=attempt
    )


def outcomes(injector, attempts=20):
    """Which of ``attempts`` first attempts the injector killed."""
    killed = []
    for partition in range(attempts):
        try:
            attempt(injector, partition)
            killed.append(False)
        except InjectedFault:
            killed.append(True)
    return killed


class TestFaultPlan:
    def test_planned_attempt_killed(self):
        injector = ChaosInjector(ChaosPlan(rules=[kill_nth(1)]))
        with pytest.raises(InjectedFault):
            attempt(injector, 0, 0)
        attempt(injector, 0, 1)  # next attempt survives
        attempt(injector, 1, 0)  # other partitions untouched

    def test_random_faults_deterministic(self):
        plan = ChaosPlan(seed=3, rules=[kill_randomly(0.5)])
        assert outcomes(ChaosInjector(plan)) == outcomes(ChaosInjector(plan))

    def test_max_failures_cap(self):
        injector = ChaosInjector(ChaosPlan(rules=[kill_randomly(1.0, max_faults=2)]))
        assert sum(outcomes(injector, 10)) == 2
        assert injector.injected == 2


class TestRetry:
    def test_single_failure_recovers(self, tmp_path):
        # Attempts run p0, p1 (killed), p1 retry, p2.
        with chaos_ctx(tmp_path, [kill_nth(2)]) as ctx:
            data = list(range(30))
            assert ctx.parallelize(data, 3).map(lambda x: x * 2).collect() == [
                x * 2 for x in data
            ]
            assert ctx.metrics.failure_counts() == {("result", 1): 1}

    def test_retry_recomputes_from_lineage(self, ctx):
        """The retried attempt re-runs the map function (recompute from
        lineage, not replay of stale state): a failure *after* part of the
        partition was computed forces those elements through again."""
        calls: list[int] = []
        failed_once = []

        def flaky(x):
            calls.append(x)
            if x == 2 and not failed_once:
                failed_once.append(True)
                raise RuntimeError("transient worker death")
            return x

        rdd = ctx.parallelize([1, 2, 3, 4], 2).map(flaky)
        assert rdd.collect() == [1, 2, 3, 4]
        # Partition 0 = [1, 2]: attempt 0 computed 1 then died at 2; the
        # retry recomputed both. Partition 1 ran once.
        assert sorted(calls) == [1, 1, 2, 2, 3, 4]

    def test_shuffle_map_retry(self, tmp_path):
        # Partition 0's first attempt and partition 2's first two, in the
        # map stage (attempts 1, 4, 5) and in the reduce stage (7, 10, 11).
        rules = [kill_nth(n) for n in (1, 4, 5, 7, 10, 11)]
        with chaos_ctx(tmp_path, rules) as ctx:
            rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 3)
            out = dict(rdd.reduce_by_key(lambda a, b: a + b).collect())
            assert ctx.metrics.failure_counts() == {
                ("shuffle-map", 0): 1,
                ("shuffle-map", 2): 2,
                ("result", 0): 1,
                ("result", 2): 2,
            }
        assert out == {0: 10, 1: 10, 2: 10}

    def test_budget_exhausted_raises(self, tmp_path):
        with chaos_ctx(tmp_path, [kill_nth(1), kill_nth(2)], max_task_attempts=2) as ctx:
            with pytest.raises(TaskFailedError) as excinfo:
                ctx.parallelize([1], 1).collect()
            assert isinstance(excinfo.value.cause, InjectedFault)

    def test_failed_attempts_not_counted_in_metrics(self, tmp_path):
        with chaos_ctx(tmp_path, [kill_nth(1)]) as ctx:
            ctx.parallelize([1, 2], 2).collect()
            job = ctx.metrics.job()
        # Only successful attempts are recorded; partition 0's survivor
        # carries attempt index 1.
        tasks = [t for s in job.stages for t in s.tasks]
        assert len(tasks) == 2
        assert {t.attempt for t in tasks} == {0, 1}

    def test_random_faults_full_pipeline_still_correct(self, tmp_path):
        with chaos_ctx(
            tmp_path, [kill_randomly(0.25)], seed=11, max_task_attempts=6,
            default_parallelism=4,
        ) as ctx:
            rdd = ctx.parallelize(range(200), 8)
            out = dict(
                rdd.key_by(lambda x: x % 7)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
        expected: dict = {}
        for x in range(200):
            expected[x % 7] = expected.get(x % 7, 0) + x
        assert out == expected

    def test_pipeline_survives_faults(self, tmp_path, reference, known_sites, read_pairs):
        """The whole WGS pipeline completes under random task failures."""
        from repro.wgs import build_wgs_pipeline

        rules = [kill_randomly(0.1, max_faults=10)]
        with chaos_ctx(tmp_path, rules, seed=5, max_task_attempts=6) as ctx:
            handles = build_wgs_pipeline(
                ctx,
                reference,
                ctx.parallelize(read_pairs[:60], 3),
                known_sites,
                partition_length=4_000,
            )
            handles.pipeline.run()
            calls = handles.vcf.rdd.collect()
            injected = ctx.chaos.injected
        assert injected > 0  # faults actually fired
        assert isinstance(calls, list)  # and the pipeline still finished
