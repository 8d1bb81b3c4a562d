"""Process-DAG analysis tests."""

import os
import subprocess
import sys

import pytest

from repro.core.dag import (
    analyze,
    build_process_graph,
    critical_path,
    execution_levels,
    find_cycles,
    to_dot,
)
from repro.core.process import Process
from repro.core.resource import Resource


class Passthrough(Process):
    def __init__(self, name, inputs, outputs):
        super().__init__(name, inputs=inputs, outputs=outputs)

    def execute(self, ctx):
        for outp in self.outputs:
            outp.define(1)


def chain(n: int, prefix="p"):
    resources = [Resource(f"{prefix}-r{i}") for i in range(n + 1)]
    return [
        Passthrough(f"{prefix}{i}", [resources[i]], [resources[i + 1]])
        for i in range(n)
    ], resources


class TestGraphShape:
    def test_linear_chain(self):
        procs, _ = chain(4)
        report = analyze(procs)
        assert report.num_processes == 4
        assert report.num_edges == 3
        assert report.depth == 4
        assert report.width == 1
        assert report.roots == ("p0",)
        assert report.leaves == ("p3",)
        assert report.is_dag

    def test_diamond(self):
        a, b, c, d, e = (Resource(n) for n in "abcde")
        procs = [
            Passthrough("split", [a], [b, c]),
            Passthrough("left", [b], [d]),
            Passthrough("right", [c], [e]),
            Passthrough("join", [d, e], [Resource("out")]),
        ]
        report = analyze(procs)
        assert report.depth == 3
        assert report.width == 2
        assert report.components == 1

    def test_forest_components(self):
        p1, _ = chain(2, "x")
        p2, _ = chain(2, "y")
        report = analyze(p1 + p2)
        assert report.components == 2

    def test_empty(self):
        report = analyze([])
        assert report.num_processes == 0 and report.is_dag


class TestCycles:
    def test_cycle_detected(self):
        a, b = Resource("a"), Resource("b")
        procs = [Passthrough("p1", [a], [b]), Passthrough("p2", [b], [a])]
        cycles = find_cycles(procs)
        assert cycles and set(cycles[0]) == {"p1", "p2"}
        assert not analyze(procs).is_dag

    def test_no_cycles_in_chain(self):
        procs, _ = chain(3)
        assert find_cycles(procs) == []

    def test_self_feeding_process_is_a_cycle(self):
        s = Resource("s")
        selfy = Passthrough("selfy", [s], [s])
        cycles = find_cycles([selfy])
        assert cycles and cycles[0] == ["selfy"]
        assert not analyze([selfy]).is_dag

    def test_critical_path_rejects_cycle(self):
        a, b = Resource("a"), Resource("b")
        procs = [Passthrough("p1", [a], [b]), Passthrough("p2", [b], [a])]
        with pytest.raises(ValueError):
            critical_path(procs, lambda p: 1.0)


class TestCriticalPath:
    def test_chain_cost_sums(self):
        procs, _ = chain(3)
        path, total = critical_path(procs, lambda p: 2.0)
        assert path == ["p0", "p1", "p2"]
        assert total == 6.0

    def test_heavier_branch_wins(self):
        a = Resource("a")
        procs = [
            Passthrough("split", [a], [Resource("b"), Resource("c")]),
        ]
        b, c = procs[0].outputs
        procs.append(Passthrough("cheap", [b], [Resource("d")]))
        procs.append(Passthrough("heavy", [c], [Resource("e")]))
        costs = {"split": 1.0, "cheap": 1.0, "heavy": 10.0}
        path, total = critical_path(procs, lambda p: costs[p.name])
        assert path == ["split", "heavy"]
        assert total == 11.0

    def test_empty(self):
        assert critical_path([], lambda p: 1.0) == ([], 0.0)

    def test_tied_paths_pick_exactly_one(self):
        # Two equal-cost branches: the result must be ONE complete root-to-
        # leaf path with the shared total, not a merge of both branches.
        a = Resource("a")
        split = Passthrough("split", [a], [Resource("b"), Resource("c")])
        b, c = split.outputs
        procs = [
            split,
            Passthrough("left", [b], [Resource("d")]),
            Passthrough("right", [c], [Resource("e")]),
        ]
        path, total = critical_path(procs, lambda p: 1.0)
        assert total == 2.0
        assert path[0] == "split" and len(path) == 2
        assert path[1] in {"left", "right"}


class TestLevels:
    def test_generations_match_algorithm1_batches(self):
        a, b, c = Resource("a"), Resource("b"), Resource("c")
        procs = [
            Passthrough("first", [a], [b]),
            Passthrough("also-first", [Resource("x")], [c]),
            Passthrough("second", [b, c], [Resource("out")]),
        ]
        levels = execution_levels(procs)
        assert levels == [["also-first", "first"], ["second"]]

    def test_disconnected_components_share_levels(self):
        # Two independent chains interleave by depth: level k holds the
        # k-th process of every island, so islands run concurrently.
        x_procs, _ = chain(2, "x")
        y_procs, _ = chain(3, "y")
        levels = execution_levels(x_procs + y_procs)
        assert levels == [["x0", "y0"], ["x1", "y1"], ["y2"]]

    def test_empty_plan_has_no_levels(self):
        assert execution_levels([]) == []


class TestDot:
    def test_dot_contains_nodes_and_edges(self):
        procs, resources = chain(2)
        dot = to_dot(procs)
        assert "digraph pipeline" in dot
        assert 'label="p0"' in dot and 'label="p1"' in dot
        assert "->" in dot
        assert resources[1].name in dot  # edge labelled with the resource

    def test_partition_processes_highlighted(self, reference, known_sites):
        from repro.core.bundles import PartitionInfoBundle, SAMBundle
        from repro.core.processes import IndelRealignProcess

        info = PartitionInfoBundle.undefined("info")
        realign = IndelRealignProcess(
            "ir",
            reference,
            {"dbsnp": known_sites},
            info,
            [SAMBundle.undefined("in")],
            [SAMBundle.undefined("out")],
        )
        assert "fillcolor" in to_dot([realign])


class TestWgsPipelineDag:
    def test_wgs_plan_structure(self, ctx, reference, known_sites, read_pairs):
        from repro.wgs import build_wgs_pipeline

        handles = build_wgs_pipeline(
            ctx,
            reference,
            ctx.parallelize(read_pairs[:5], 1),
            known_sites,
        )
        procs = handles.pipeline.processes
        report = analyze(procs)
        assert report.is_dag
        assert report.num_processes == 6
        assert report.roots == ("BwaMapping",)
        assert "HaplotypeCaller" in report.leaves
        levels = execution_levels(procs)
        assert levels[0] == ["BwaMapping"]
        path, _ = critical_path(procs, lambda p: 1.0)
        assert path[0] == "BwaMapping" and path[-1] == "HaplotypeCaller"


def test_importing_core_leaves_networkx_unloaded():
    """networkx is paid for only by the plan-analysis helpers: importing
    the programming model (every ``gpf`` start, every worker) skips it,
    and the first DAG helper call loads it."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    probe = (
        "import sys, repro.core\n"
        "print('networkx' in sys.modules)\n"
        "repro.core.build_process_graph([])\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        timeout=120,
    )
    assert out.stdout.split() == ["False", "True"]
