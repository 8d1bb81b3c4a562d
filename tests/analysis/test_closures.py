"""gpfcheck closure analyzer (GPF2xx): nondeterminism, captured-state
mutation, large captures, and RDD-lineage walking."""

import random

import numpy as np
import pytest

from repro.analysis import analyze_closure, check_rdd_lineage, lint_plan
from repro.analysis.closures import (
    approx_size,
    find_captured_mutations,
    find_nondeterministic_calls,
    iter_lineage_functions,
)
from repro.core.bundles import SAMBundle
from repro.core.process import Process
from repro.core.resource import Resource
from repro.engine.broadcast import Broadcast


def codes(diags):
    return sorted({d.code for d in diags})


class TestNondeterminism:
    def test_unseeded_random_flagged(self):
        def task(x):
            return x + random.random()

        assert codes(analyze_closure(task)) == ["GPF201"]

    def test_unseeded_numpy_random_flagged(self):
        def task(part):
            return [np.random.randint(10) for _ in part]

        assert "GPF201" in codes(analyze_closure(task))

    def test_time_flagged(self):
        import time

        def task(x):
            return (x, time.time())

        assert "GPF201" in codes(analyze_closure(task))

    def test_seeded_default_rng_clean(self):
        def task(part):
            rng = np.random.default_rng(42)
            return [rng.random() for _ in part]

        assert analyze_closure(task) == []

    def test_random_seed_call_suppresses(self):
        def task(part):
            random.seed(7)
            return [random.random() for _ in part]

        assert analyze_closure(task) == []

    def test_lambda_flagged(self):
        task = lambda x: x * random.random()  # noqa: E731
        assert "GPF201" in codes(analyze_closure(task))

    def test_pure_function_clean(self):
        def task(x):
            return x * 2 + 1

        assert analyze_closure(task) == []


class TestCapturedMutation:
    def test_global_dict_mutation_flagged(self):
        hits = find_captured_mutations(_parse_func("def f(x):\n    counts[x] = 1\n"))
        assert hits and hits[0][0] == "counts"

    def test_freevar_append_flagged(self):
        captured = []

        def task(x):
            captured.append(x)
            return x

        assert codes(analyze_closure(task)) == ["GPF202"]

    def test_freevar_augassign_via_subscript_flagged(self):
        counts = {}

        def task(x):
            counts[x] = counts.get(x, 0) + 1
            return x

        assert codes(analyze_closure(task)) == ["GPF202"]

    def test_local_accumulator_clean(self):
        def task(part):
            acc = {}
            for x in part:
                acc[x] = acc.get(x, 0) + 1
            return list(acc.items())

        assert analyze_closure(task) == []

    def test_nested_function_locals_not_flagged(self):
        def task(part):
            def helper(items):
                inner = []
                inner.append(1)
                return items

            return helper(part)

        assert analyze_closure(task) == []

    def test_read_only_capture_clean(self):
        lookup = {1: "a"}

        def task(x):
            return lookup.get(x)

        assert analyze_closure(task) == []


class TestBigCaptures:
    def test_large_dict_capture_flagged(self):
        big = {i: "x" * 64 for i in range(5_000)}

        def task(x):
            return big.get(x)

        diags = analyze_closure(task, big_capture_bytes=64 * 1024)
        assert codes(diags) == ["GPF203"]
        assert "broadcast" in diags[0].fix_hint

    def test_broadcast_handle_is_fine(self):
        shared = Broadcast({i: "x" * 64 for i in range(5_000)})

        def task(x):
            return shared.value.get(x)

        assert analyze_closure(task, big_capture_bytes=64 * 1024) == []

    def test_small_capture_is_fine(self):
        small = {1: "a", 2: "b"}

        def task(x):
            return small.get(x)

        assert analyze_closure(task) == []

    def test_approx_size_scales_with_content(self):
        small = approx_size(["x" * 10] * 4)
        large = approx_size(["x" * 10] * 4_000)
        assert large > small * 100


class TestLineageWalking:
    def test_user_function_found_through_engine_wrapper(self, ctx):
        rdd = ctx.parallelize([1, 2, 3], 2).map(lambda x: x + random.random())
        diags = check_rdd_lineage(rdd)
        assert "GPF201" in codes(diags)

    def test_clean_lineage_has_no_diagnostics(self, ctx):
        rdd = (
            ctx.parallelize(range(10), 2)
            .map(lambda x: x * 2)
            .filter(lambda x: x > 4)
        )
        assert check_rdd_lineage(rdd) == []

    def test_lineage_spans_shuffles(self, ctx):
        rdd = (
            ctx.parallelize(range(10), 2)
            .key_by(lambda x: x % 2)
            .reduce_by_key(lambda a, b: a + b)
            .map_partitions(lambda part: [(k, v + random.random()) for k, v in part])
        )
        assert "GPF201" in codes(check_rdd_lineage(rdd))

    def test_iter_lineage_dedupe_safe_on_diamond(self, ctx):
        base = ctx.parallelize(range(4), 2).map(lambda x: x)
        zipped = base.map(lambda x: -x).zip_partitions(
            base.map(lambda x: x + 1), lambda left, right: left + right
        )
        names = [name for name, _ in iter_lineage_functions(zipped)]
        assert names  # walks both branches without blowing up


class TestPlanLevelClosureLint:
    def test_defined_input_rdd_is_linted(self, ctx):
        class Consume(Process):
            def execute(self, _ctx):
                self.outputs[0].define(1)

        rdd = ctx.parallelize([1, 2], 2).map(lambda x: x + random.random())
        bundle = SAMBundle("sam")
        bundle.define(rdd)
        out = Resource("out")
        report = lint_plan([Consume("c", [bundle], [out])], returned=[out])
        assert "GPF201" in report.codes()

    def test_closure_layer_can_be_disabled(self, ctx):
        from repro.analysis import LintOptions

        class Consume(Process):
            def execute(self, _ctx):
                self.outputs[0].define(1)

        rdd = ctx.parallelize([1, 2], 2).map(lambda x: x + random.random())
        bundle = SAMBundle("sam")
        bundle.define(rdd)
        out = Resource("out")
        report = lint_plan(
            [Consume("c", [bundle], [out])],
            returned=[out],
            options=LintOptions(check_closures=False),
        )
        assert "GPF201" not in report.codes()


def _parse_func(source: str):
    import ast

    tree = ast.parse(source)
    return tree.body[0]
