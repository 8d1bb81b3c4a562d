"""Bundle resources: typed RDD handles (paper §3.2, Table 2).

A Bundle is a Resource whose value is an RDD of a specific genomic record
type, plus the format metadata the next stage needs (SAM header, VCF
header).  The constructors mirror the paper's API:
``SAMBundle.undefined("alignedSam", SamHeaderInfo.unsortedHeader())`` and
``FASTQPairBundle.defined("fastqPair", rdd)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.resource import Resource
from repro.formats.sam import SamHeader
from repro.formats.vcf import VcfHeader

if TYPE_CHECKING:
    from repro.engine.rdd import RDD


class FASTQPairBundle(Resource["RDD"]):
    """RDD of :class:`repro.formats.fastq.FastqPair`."""

    @classmethod
    def defined(cls, name: str, rdd: "RDD") -> "FASTQPairBundle":
        """Construct the bundle already holding its value."""
        bundle = cls(name)
        bundle.define(rdd)
        return bundle

    @classmethod
    def undefined(cls, name: str) -> "FASTQPairBundle":
        return cls(name)

    @property
    def rdd(self) -> "RDD":
        return self.value


class SAMBundle(Resource["RDD"]):
    """RDD of :class:`repro.formats.sam.SamRecord` plus its header."""

    def __init__(self, name: str, header: SamHeader | None = None):
        super().__init__(name)
        self.header = header or SamHeader.unsorted()

    @classmethod
    def defined(cls, name: str, rdd: "RDD", header: SamHeader) -> "SAMBundle":
        """Construct the bundle already holding its value."""
        bundle = cls(name, header)
        bundle.define(rdd)
        return bundle

    @classmethod
    def undefined(cls, name: str, header: SamHeader | None = None) -> "SAMBundle":
        return cls(name, header)

    @property
    def rdd(self) -> "RDD":
        return self.value


class VCFBundle(Resource["RDD"]):
    """RDD of :class:`repro.formats.vcf.VcfRecord` plus its header."""

    def __init__(self, name: str, header: VcfHeader | None = None):
        super().__init__(name)
        self.header = header or VcfHeader()

    @classmethod
    def defined(cls, name: str, rdd: "RDD", header: VcfHeader) -> "VCFBundle":
        """Construct the bundle already holding its value."""
        bundle = cls(name, header)
        bundle.define(rdd)
        return bundle

    @classmethod
    def undefined(cls, name: str, header: VcfHeader | None = None) -> "VCFBundle":
        return cls(name, header)

    @property
    def rdd(self) -> "RDD":
        return self.value


class PartitionInfoBundle(Resource):
    """Holds a :class:`repro.core.partitioning.PartitionInfo`."""

    @classmethod
    def undefined(cls, name: str) -> "PartitionInfoBundle":
        return cls(name)

