"""GPF's programming model — the paper's primary contribution (§3-4).

Users describe a genomic pipeline as :class:`Process` instances connected
by :class:`Resource` instances (Bundles wrapping RDDs), add them to a
:class:`Pipeline`, and call ``run()``:

- ``resource`` / ``process`` — the two state machines of Fig. 2.
- ``bundles``  — FASTQPairBundle, SAMBundle, VCFBundle, PartitionInfoBundle.
- ``pipeline`` — Algorithm 1: resource-pool driven dependency resolution,
  topological execution, circular-dependency detection.
- ``optimizer`` — the Fig. 7 rewrite: chains of partition Processes share
  one groupBy/join, passing a fused bundle RDD instead of re-partitioning.
- ``partitioning`` — PartitionInfo: the (contig, position) -> partition-id
  map with per-contig segment tables and the dynamic split table
  (Fig. 8-9).
- ``processes`` — the algorithm-specific Processes of Table 2.
"""

from repro.core.resource import Resource, ResourceState
from repro.core.process import Process, ProcessState
from repro.core.bundles import (
    FASTQPairBundle,
    SAMBundle,
    VCFBundle,
    PartitionInfoBundle,
)
from repro.core.pipeline import (
    CircularDependencyError,
    Pipeline,
    PipelineCancelledError,
)
from repro.core.dag import analyze, build_process_graph, critical_path, to_dot
from repro.core.partitioning import PartitionInfo, PartitionSplitTable
from repro.core.processes import (
    BwaMemProcess,
    SortProcess,
    MarkDuplicateProcess,
    IndelRealignProcess,
    BaseRecalibrationProcess,
    HaplotypeCallerProcess,
    ReadRepartitioner,
    FileLoader,
)

__all__ = [
    "Resource",
    "ResourceState",
    "Process",
    "ProcessState",
    "FASTQPairBundle",
    "SAMBundle",
    "VCFBundle",
    "PartitionInfoBundle",
    "Pipeline",
    "PipelineCancelledError",
    "CircularDependencyError",
    "analyze",
    "build_process_graph",
    "critical_path",
    "to_dot",
    "PartitionInfo",
    "PartitionSplitTable",
    "BwaMemProcess",
    "SortProcess",
    "MarkDuplicateProcess",
    "IndelRealignProcess",
    "BaseRecalibrationProcess",
    "HaplotypeCallerProcess",
    "ReadRepartitioner",
    "FileLoader",
]
