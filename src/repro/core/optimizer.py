"""Redundancy elimination: the Fig. 7 Process-graph rewrite.

Shuffles dominate partition Processes: each one groups the SAM RDD, the
FASTA contigs and the known-VCF RDD by genomic partition id and joins
them into a bundle RDD — and without optimization every Process in the
Indel-Realignment -> BQSR -> HaplotypeCaller sequence repeats all of it.

The rewrite finds paths in the Process DAG where

- every node is a partition Process (``Process.is_partition_process``),
- consecutive nodes are linked output->input,
- the link resource has no consumer outside the path (out-degree 1 of the
  start, in-degree 1 of the end, 1-1 for middle nodes), and
- all nodes share the same PartitionInfo resource,

and replaces each such path with one :class:`FusedPartitionChain` whose
execution builds the bundle RDD once, maps every member's per-region
transform over it, and finalizes member outputs as lazy views — so the
groupBy/join work runs once per chain instead of once per Process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.process import Process

if TYPE_CHECKING:
    from repro.engine.context import GPFContext


def _consumers(processes: list[Process]) -> dict[int, list[Process]]:
    """resource id -> consuming processes."""
    out: dict[int, list[Process]] = {}
    for process in processes:
        for resource in process.inputs:
            out.setdefault(id(resource), []).append(process)
    return out


def find_partition_chains(processes: list[Process]) -> list[list[Process]]:
    """Maximal fusable paths of partition Processes (Fig. 7 conditions)."""
    consumers = _consumers(processes)
    partition_procs = [p for p in processes if p.is_partition_process]
    successor: dict[int, Process] = {}
    predecessor_count: dict[int, int] = {id(p): 0 for p in partition_procs}
    for producer in partition_procs:
        # A fusable link: exactly one of the producer's outputs feeds
        # exactly one partition Process, and nothing else consumes it.
        links: list[Process] = []
        for resource in producer.outputs:
            for consumer in consumers.get(id(resource), []):
                links.append(consumer)
        unique = {id(c): c for c in links}
        if len(unique) != 1:
            continue
        consumer = next(iter(unique.values()))
        if not consumer.is_partition_process:
            continue
        if not _same_partition_info(producer, consumer):
            continue
        successor[id(producer)] = consumer
        predecessor_count[id(consumer)] = predecessor_count.get(id(consumer), 0) + 1

    chains: list[list[Process]] = []
    chained: set[int] = set()
    for process in partition_procs:
        if predecessor_count.get(id(process), 0) != 0 or id(process) in chained:
            continue
        chain = [process]
        chained.add(id(process))
        current = process
        while id(current) in successor:
            nxt = successor[id(current)]
            if predecessor_count.get(id(nxt), 0) != 1 or id(nxt) in chained:
                break
            chain.append(nxt)
            chained.add(id(nxt))
            current = nxt
        if len(chain) >= 2:
            chains.append(chain)
    return chains


def _same_partition_info(a: Process, b: Process) -> bool:
    info_a = getattr(a, "partition_info_bundle", None)
    info_b = getattr(b, "partition_info_bundle", None)
    return info_a is not None and info_a is info_b


def eliminate_redundancy(processes: list[Process]) -> list[Process]:
    """Rewrite the plan, replacing fusable chains with fused Processes."""
    chains = find_partition_chains(processes)
    if not chains:
        return list(processes)
    in_chain: dict[int, list[Process]] = {}
    for chain in chains:
        for process in chain:
            in_chain[id(process)] = chain
    plan: list[Process] = []
    emitted: set[int] = set()
    for process in processes:
        chain = in_chain.get(id(process))
        if chain is None:
            plan.append(process)
        elif id(chain[0]) not in emitted:
            plan.append(FusedPartitionChain(chain))
            emitted.add(id(chain[0]))
    return plan


class FusedPartitionChain(Process):
    """One Process standing in for a fused chain (Fig. 7b).

    Inputs: the union of member inputs minus intra-chain resources.
    Outputs: the union of member outputs (intermediate ones are defined as
    lazy RDD views over the shared bundle, so downstream consumers outside
    the chain — there are none by construction, but re-use is harmless —
    see exactly what they would have seen).
    """

    def __init__(self, members: list[Process]):
        internal = {
            id(resource)
            for producer in members
            for resource in producer.outputs
            if any(resource in consumer.inputs for consumer in members)
        }
        inputs = []
        seen: set[int] = set()
        for member in members:
            for resource in member.inputs:
                if id(resource) not in internal and id(resource) not in seen:
                    seen.add(id(resource))
                    inputs.append(resource)
        outputs = [r for member in members for r in member.outputs]
        super().__init__(
            name="fused(" + "+".join(m.name for m in members) + ")",
            inputs=inputs,
            outputs=outputs,
        )
        self.members = members

    @property
    def is_partition_process(self) -> bool:
        return True

    def execute(self, ctx: "GPFContext") -> None:
        """Build the bundle once, then apply and finalize each member."""
        first = self.members[0]
        bundle_rdd = first.build_bundle_rdd(ctx)  # type: ignore[attr-defined]
        for member in self.members:
            bundle_rdd = member.apply_to_bundle(bundle_rdd, ctx)  # type: ignore[attr-defined]
            member.finalize_outputs(bundle_rdd, ctx)  # type: ignore[attr-defined]
