"""Process-DAG analysis and visualization.

The Pipeline's execution DAG ("each Process is added to a dynamic DAG
one-by-one", paper §3.2) as a :mod:`networkx` graph, for:

- validation (cycles, unreachable Processes, undefined-input diagnosis),
- structural metrics (depth, width, the parallelism ceiling of the plan),
- critical-path analysis under a per-Process cost function,
- DOT export for visualization,
- an independent cross-check of the optimizer's fusable chains.

networkx is imported inside the functions that use it: it costs every
interpreter that imports :mod:`repro.core` a sizeable share of its start
time, and only plan analysis (``describe``, ``lint``) needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TYPE_CHECKING

from repro.core.process import Process

if TYPE_CHECKING:
    import networkx as nx


def build_process_graph(processes: Sequence[Process]) -> "nx.DiGraph":
    """Directed graph: edge A->B when an output Resource of A feeds B."""
    import networkx as nx

    graph = nx.DiGraph()
    for process in processes:
        graph.add_node(process, label=process.name)
    producers: dict[int, Process] = {}
    for process in processes:
        for resource in process.outputs:
            producers[id(resource)] = process
    for process in processes:
        for resource in process.inputs:
            producer = producers.get(id(resource))
            # A self-edge (a Process consuming its own output) is a real
            # one-Process cycle: it can never leave BLOCKED.
            if producer is not None:
                graph.add_edge(producer, process, resource=resource.name)
    return graph


@dataclass(frozen=True)
class DagReport:
    """Structural summary of a pipeline plan."""

    num_processes: int
    num_edges: int
    depth: int  # longest dependency chain
    width: int  # max antichain ≈ peak process-level parallelism
    roots: tuple[str, ...]
    leaves: tuple[str, ...]
    is_dag: bool
    components: int


def analyze(processes: Sequence[Process]) -> DagReport:
    """Structural report (depth, width, roots, leaves) of a plan."""
    import networkx as nx

    graph = build_process_graph(processes)
    is_dag = nx.is_directed_acyclic_graph(graph)
    if is_dag and len(graph) > 0:
        depth = nx.dag_longest_path_length(graph) + 1
        # Width: max level occupancy of the topological generations.
        width = max(len(gen) for gen in nx.topological_generations(graph))
    else:
        depth = 0
        width = 0
    return DagReport(
        num_processes=len(graph),
        num_edges=graph.number_of_edges(),
        depth=depth,
        width=width,
        roots=tuple(sorted(p.name for p in graph if graph.in_degree(p) == 0)),
        leaves=tuple(sorted(p.name for p in graph if graph.out_degree(p) == 0)),
        is_dag=is_dag,
        components=(
            nx.number_weakly_connected_components(graph) if len(graph) else 0
        ),
    )


def find_cycles(processes: Sequence[Process]) -> list[list[str]]:
    """Process-name cycles, empty when the plan is a valid DAG."""
    import networkx as nx

    graph = build_process_graph(processes)
    return [[p.name for p in cycle] for cycle in nx.simple_cycles(graph)]


def critical_path(
    processes: Sequence[Process],
    cost: Callable[[Process], float],
) -> tuple[list[str], float]:
    """Longest-cost chain through the DAG under ``cost`` per Process.

    The pipeline cannot finish faster than this chain no matter how many
    executors run — the Process-level Amdahl bound of the plan.
    """
    import networkx as nx

    graph = build_process_graph(processes)
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("critical path undefined: plan contains a cycle")
    best: dict[Process, tuple[float, list[Process]]] = {}
    for process in nx.topological_sort(graph):
        incoming = [
            best[pred] for pred in graph.predecessors(process)
        ]
        base_cost, base_path = max(
            incoming, key=lambda t: t[0], default=(0.0, [])
        )
        best[process] = (base_cost + cost(process), base_path + [process])
    if not best:
        return [], 0.0
    total, path = max(best.values(), key=lambda t: t[0])
    return [p.name for p in path], total


def to_dot(processes: Sequence[Process]) -> str:
    """GraphViz DOT text of the Process DAG (partition Processes shaded)."""
    graph = build_process_graph(processes)
    lines = ["digraph pipeline {", "  rankdir=LR;", "  node [shape=box];"]
    ids = {process: f"p{i}" for i, process in enumerate(graph.nodes)}
    for process, node_id in ids.items():
        style = ' style=filled fillcolor="#cfe8ff"' if process.is_partition_process else ""
        lines.append(f'  {node_id} [label="{process.name}"{style}];')
    for a, b, data in graph.edges(data=True):
        label = data.get("resource", "")
        lines.append(f'  {ids[a]} -> {ids[b]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def execution_levels(processes: Sequence[Process]) -> list[list[str]]:
    """Topological generations: Processes that may run concurrently.

    Matches Algorithm 1's iteration structure — each generation is one
    "processToBeFinished" batch when every input arrives on time.
    """
    import networkx as nx

    graph = build_process_graph(processes)
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("execution levels undefined: plan contains a cycle")
    return [
        sorted(p.name for p in generation)
        for generation in nx.topological_generations(graph)
    ]
