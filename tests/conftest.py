"""Shared fixtures: a small deterministic genome, reads, and contexts.

The fixtures are deliberately tiny (a few tens of kilobases, hundreds of
reads) so the whole suite runs in minutes while still exercising every
code path: planted SNPs and indels, duplicates, paired-end orientation,
coverage hot-spots.
"""

from __future__ import annotations

import pytest

from repro.engine.context import EngineConfig, GPFContext
from repro.formats.sam import SamHeader
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    generate_known_sites,
    generate_reference,
    plant_variants,
)
from repro.sim.reads import Hotspot


@pytest.fixture(scope="session")
def reference():
    return generate_reference([12_000, 6_000], seed=3)


@pytest.fixture(scope="session")
def truth(reference):
    return plant_variants(reference, snp_rate=0.002, indel_rate=0.0003, seed=4)


@pytest.fixture(scope="session")
def known_sites(truth, reference):
    return generate_known_sites(truth, reference, seed=5)


@pytest.fixture(scope="session")
def read_pairs(truth):
    config = ReadSimConfig(
        coverage=6.0,
        seed=9,
        duplicate_fraction=0.08,
        hotspots=[Hotspot("chr1", 2_000, 2_600, multiplier=8.0)],
    )
    return ReadSimulator(truth.donor, config).simulate()


@pytest.fixture(scope="session")
def aligned_records(reference, read_pairs):
    """Paired-end alignments of a coherent subset, coordinate sorted.

    The subset keeps whole duplicate groups together (copies share the
    fragment stem of their read name) and covers the chr1 hot-spot, so
    duplicate-marking and load-imbalance tests see the planted artifacts.
    """
    from repro.align.pairing import PairedEndAligner
    from repro.cleaner.sort import coordinate_sort

    def frag_key(pair):
        parts = pair.name.split("_")
        return (parts[1], int(parts[2]))

    subset = [p for p in read_pairs if frag_key(p) < ("chr1", 5_000)]
    subset.sort(key=lambda p: p.name)
    aligner = PairedEndAligner(reference)
    records = []
    for pair in subset:
        r1, r2 = aligner.align_pair(pair)
        records.extend((r1, r2))
    header = SamHeader.unsorted(reference.contig_lengths())
    return coordinate_sort(records, header)


@pytest.fixture(scope="session")
def sam_header(reference):
    return SamHeader.unsorted(reference.contig_lengths())


@pytest.fixture()
def ctx(tmp_path):
    context = GPFContext(
        EngineConfig(default_parallelism=3, spill_dir=str(tmp_path / "spill"))
    )
    yield context
    context.stop()


@pytest.fixture(params=["engine", "dist"])
def shuffle_ctx(request, tmp_path):
    """A serial context over each shuffle: the engine's ``ShuffleManager``,
    and the cluster transport's ``DistShuffle`` as a single node whose
    every location is its own address (no fleet, nothing fetched)."""
    spill = tmp_path / "spill"
    context = GPFContext(EngineConfig(default_parallelism=3, spill_dir=str(spill)))
    if request.param == "dist":
        from repro.dist.worker import DistShuffle

        context.shuffle_manager = DistShuffle(
            str(spill / "dist"), ("127.0.0.1", 1), metrics=context.metrics
        )
    yield context
    context.stop()
