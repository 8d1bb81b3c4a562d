"""Array BQSR against the per-base reference in ``reference_bqsr``.

The array passes must give the same totals, the same three covariate
tables, the same ``changed`` count and the same QUAL strings as the
scalar passes they replaced, on reads that exercise every CIGAR op,
both strands, N in the read and the reference, lowercase and IUPAC
bases, reads past the contig end, known SNPs and indels under reads,
duplicates, unmapped reads, empty QUAL, and empty and one-read
partitions.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.align.pairing import PairedEndAligner
from repro.cleaner.bqsr import (
    RecalibrationTable,
    apply_recalibration,
    build_recalibration_table,
)
from repro.formats.cigar import Cigar
from repro.formats.fasta import Contig, Reference
from repro.formats.sam import SamRecord
from repro.formats.vcf import VcfRecord
from repro.sim import (
    ReadSimConfig,
    ReadSimulator,
    generate_known_sites,
    generate_reference,
    plant_variants,
)

from tests.cleaner import reference_bqsr as ref

#: Most bases carry one of two qualities, so (quality, cycle) and
#: (quality, context) bins pass the 100-observation bar and the
#: conditional deltas fire; the rare ones exercise sparse bins.
QUALITIES = [25] * 6 + [35] * 6 + [2, 41, 12]
IUPAC = "RYKMSWBDHV"


def _reference(rng: np.random.Generator) -> Reference:
    contigs = []
    for name, length in (("chr1", 700), ("chr2", 260)):
        bases = rng.choice(list("ACGT"), size=length)
        for start in rng.integers(0, length - 5, size=4):
            bases[start : start + int(rng.integers(1, 5))] = "N"
        contigs.append(Contig(name, "".join(bases).encode()))
    return Reference(contigs)


def _known_sites(rng: np.random.Generator, reference: Reference) -> list[VcfRecord]:
    sites = []
    for contig in reference.contigs:
        for pos in rng.choice(len(contig) - 6, size=12, replace=False).tolist():
            base = contig.fetch(pos, pos + 1)
            kind = rng.integers(0, 3)
            if kind == 0:
                sites.append(VcfRecord(contig.name, pos, base, "T" if base != "T" else "A"))
            elif kind == 1:  # deletion: masks every reference base it spans
                sites.append(VcfRecord(contig.name, pos, contig.fetch(pos, pos + 4), base))
            else:
                sites.append(VcfRecord(contig.name, pos, base, base + "GG"))
    return sites


def _read_base(rng: np.random.Generator, truth: str) -> str:
    roll = rng.random()
    if roll < 0.05:
        return str(rng.choice([b for b in "ACGT" if b != truth]))
    if roll < 0.06:
        return "N"
    if roll < 0.065:
        return "n"
    if roll < 0.075:
        return truth.lower()
    if roll < 0.08:
        return str(rng.choice(list(IUPAC)))
    return truth if truth != "N" else str(rng.choice(list("ACGT")))


def _cigar(rng: np.random.Generator) -> list[tuple[int, str]]:
    ops: list[tuple[int, str]] = []
    if rng.random() < 0.1:
        ops.append((int(rng.integers(1, 6)), "H"))
    if rng.random() < 0.2:
        ops.append((int(rng.integers(1, 6)), "S"))
    for block in range(int(rng.integers(1, 4))):
        if block:
            gap = str(rng.choice(list("IDN")))
            ops.append((int(rng.integers(1, 4 if gap != "N" else 30)), gap))
        ops.append((int(rng.integers(8, 25)), str(rng.choice(list("MM=X")))))
    if rng.random() < 0.2:
        ops.append((int(rng.integers(1, 6)), "S"))
    if rng.random() < 0.1:
        ops.append((int(rng.integers(1, 6)), "H"))
    return ops


def _read(rng: np.random.Generator, reference: Reference, i: int) -> SamRecord:
    contig = reference.contigs[int(rng.integers(0, 2))]
    ops = _cigar(rng)
    ref_len = sum(n for n, op in ops if op in "MDN=X")
    if rng.random() < 0.08:  # runs past the contig end
        pos = len(contig) - int(rng.integers(1, max(2, ref_len)))
    else:
        pos = int(rng.integers(0, len(contig) - ref_len))
    seq, at = [], pos
    for n, op in ops:
        if op in "M=X":
            seq += [_read_base(rng, contig.fetch(at + k, at + k + 1) or "A") for k in range(n)]
        elif op in "IS":
            seq += [_read_base(rng, str(rng.choice(list("ACGT")))) for _ in range(n)]
        if op in "MDN=X":
            at += n
    flag = 16 if rng.random() < 0.5 else 0
    if rng.random() < 0.05:
        flag |= 1024
    qual = "".join(chr(int(rng.choice(QUALITIES)) + 33) for _ in seq)
    name, cigar = contig.name, Cigar.from_pairs(ops)
    if rng.random() < 0.04:
        flag, name, pos, cigar = flag | 4, "*", -1, Cigar.parse("*")
    if rng.random() < 0.03:
        qual = ""
    return SamRecord(f"r{i}", flag, name, pos, 60, cigar, "*", -1, 0, "".join(seq), qual)


def _scene(seed: int, n_reads: int = 700):
    rng = np.random.default_rng(seed)
    reference = _reference(rng)
    known = _known_sites(rng, reference)
    reads = [_read(rng, reference, i) for i in range(n_reads)]
    cuts = sorted(rng.choice(np.arange(2, n_reads), size=6, replace=False).tolist())
    partitions = [[], reads[:1]] + [
        reads[a:b] for a, b in zip([1] + cuts, cuts + [n_reads])
    ] + [[]]
    return reference, known, partitions


def _copies(partitions):
    return [[rec.copy() for rec in part] for part in partitions]


def assert_same_table(dense: RecalibrationTable, scalar: ref.RecalibrationTable) -> None:
    assert dense.total_observations == scalar.total_observations
    assert dense.total_errors == scalar.total_errors
    assert dense.by_quality == scalar.by_quality
    assert dense.by_cycle == scalar.by_cycle
    assert dense.by_context == scalar.by_context


def _build_both(reference, known, partitions):
    dense = [build_recalibration_table(part, reference, known) for part in partitions]
    # The reference raises IndexError on empty QUAL; the array pass skips
    # those reads, which is the reference on the rest.
    scalar = [
        ref.build_recalibration_table([r for r in part if r.qual], reference, known)
        for part in partitions
    ]
    return dense, scalar


@pytest.fixture(scope="module", params=[1, 2, 3])
def scene(request):
    """A scene, its per-partition tables both ways, and both merged tables."""
    reference, known, partitions = _scene(request.param)
    dense, scalar = _build_both(reference, known, partitions)
    merged, expected = RecalibrationTable(), ref.RecalibrationTable()
    for d, s in zip(dense, scalar):
        merged.merge(d)
        expected.merge(s)
    return partitions, dense, scalar, merged, expected


class TestDifferential:
    def test_partition_tables_match(self, scene):
        _, dense, scalar, _, _ = scene
        for d, s in zip(dense, scalar):
            assert_same_table(d, s)

    def test_merged_table_matches_and_deltas_fire(self, scene):
        *_, merged, expected = scene
        assert_same_table(merged, expected)
        # The scene reaches both conditional covariates.
        for cells in (expected.by_cycle, expected.by_context):
            assert any(obs >= 100 and err >= 2 for obs, err in cells.values())

    def test_apply_matches(self, scene):
        partitions, _, _, merged, expected = scene
        ours, theirs = _copies(partitions), _copies(partitions)
        for mine, other in zip(ours, theirs):
            changed = apply_recalibration(mine, merged)
            assert changed == ref.apply_recalibration(other, expected)
            assert [r.qual for r in mine] == [r.qual for r in other]
        assert any(
            r.qual != r0.qual for part, p0 in zip(ours, partitions) for r, r0 in zip(part, p0)
        )

    def test_pickled_table_applies_the_same(self, scene):
        partitions, _, _, merged, _ = scene
        blob = pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL)
        # Counts ship narrowed (the table rides in every apply task) ...
        assert len(blob) < len(pickle.dumps(vars(merged), protocol=pickle.HIGHEST_PROTOCOL)) / 2
        back = pickle.loads(blob)
        # ... and come back as int64, so merges cannot overflow.
        assert back.cycle_counts.dtype == np.int64
        assert_same_table(back, ref.RecalibrationTable(**_dicts(merged)))
        ours, theirs = _copies(partitions), _copies(partitions)
        for mine, other in zip(ours, theirs):
            assert apply_recalibration(mine, back) == apply_recalibration(other, merged)
            assert [r.qual for r in mine] == [r.qual for r in other]


def _dicts(table: RecalibrationTable) -> dict:
    return dict(
        total_observations=table.total_observations,
        total_errors=table.total_errors,
        by_quality=table.by_quality,
        by_cycle=table.by_cycle,
        by_context=table.by_context,
    )


def _dense(by_quality, by_cycle, by_context) -> RecalibrationTable:
    """An array table holding the given ``{key: [observations, errors]}`` cells."""
    qualities = sorted(by_quality)
    cycles = sorted({cycle for _, cycle in by_cycle})
    contexts = sorted({context for _, context in by_context})
    counts = [np.zeros((2, len(qualities)), dtype=np.int64)] + [
        np.zeros((2, len(qualities), len(axis)), dtype=np.int64) for axis in (cycles, contexts)
    ]
    for q, cell in by_quality.items():
        counts[0][:, qualities.index(q)] = cell
    for (q, cycle), cell in by_cycle.items():
        counts[1][:, qualities.index(q), cycles.index(cycle)] = cell
    for (q, context), cell in by_context.items():
        counts[2][:, qualities.index(q), contexts.index(context)] = cell
    codes = [ord(context[0]) << 8 | ord(context[1]) for context in contexts]
    return RecalibrationTable(
        np.array(qualities, dtype=np.int64),
        np.array(cycles, dtype=np.int64),
        np.array(codes, dtype=np.int64),
        *counts,
    )


def _scalar(by_quality, by_cycle, by_context) -> ref.RecalibrationTable:
    return ref.RecalibrationTable(
        total_observations=sum(obs for obs, _ in by_quality.values()),
        total_errors=sum(err for _, err in by_quality.values()),
        by_quality=by_quality,
        by_cycle=by_cycle,
        by_context=by_context,
    )


class TestEdges:
    def test_table_with_no_observations(self):
        reference, known, partitions = _scene(4, n_reads=120)
        reads = sum(partitions, [])
        for r in reads:
            r.set_duplicate(True)
        table = build_recalibration_table(reads, reference, known)
        assert table.total_observations == 0
        assert_same_table(table, ref.RecalibrationTable())
        for empty in (table, RecalibrationTable()):
            ours, theirs = [r.copy() for r in reads], [r.copy() for r in reads]
            changed = ref.apply_recalibration(theirs, ref.RecalibrationTable())
            assert apply_recalibration(ours, empty) == changed == 0
            assert [r.qual for r in ours] == [r.qual for r in theirs] == [r.qual for r in reads]

    def test_empty_partition(self):
        reference, known, _ = _scene(5, n_reads=10)
        table = build_recalibration_table([], reference, known)
        assert table.total_observations == 0
        assert apply_recalibration([], table) == 0

    def test_conditional_delta_thresholds(self):
        # Bins on each side of the 100-observation and 2-error bars, and a
        # quality with no errors (raw rate 0: no deltas at all).
        cells = (
            {30: [1_000, 20], 20: [1_000, 0]},
            {
                (30, 0): [99, 5], (30, 1): [100, 5], (30, 2): [100, 2],
                (30, 3): [100, 1], (30, 4): [500, 2], (30, 5): [500, 30], (20, 0): [500, 30],
            },
            {
                (30, "AC"): [100, 2], (30, "AG"): [99, 10], (30, "CA"): [100, 1],
                (20, "AC"): [200, 9],
            },
        )
        dense, scalar = _dense(*cells), _scalar(*cells)
        assert_same_table(dense, scalar)
        keys = [(q, c, x) for q in (20, 30, 31) for c in range(7) for x in ("AC", "AG", "CA", "TT")]
        expected = [scalar.recalibrate(*key) for key in keys]
        assert [dense.recalibrate(*key) for key in keys] == expected
        assert len(set(expected)) > 4

    @pytest.mark.parametrize(
        "errors, observations, value, rounded",
        [(4_003_459, 1_128_328_331, 24.5, 24), (4_003_798, 1_420_601_491, 25.5, 26)],
    )
    def test_half_way_value_rounds_half_to_even(self, errors, observations, value, rounded):
        # A quality bin whose empirical Phred is exactly x.5 in floating point.
        assert ref._phred(errors, observations) == value
        cells = ({30: [observations, errors]}, {}, {})
        dense, scalar = _dense(*cells), _scalar(*cells)
        assert dense.recalibrate(30, 3, "AC") == scalar.recalibrate(30, 3, "AC") == rounded
        read = SamRecord("x", 0, "chr1", 0, 60, Cigar.parse("4M"), "*", -1, 0, "ACGT", "????")
        ours, theirs = [read.copy()], [read.copy()]
        assert apply_recalibration(ours, dense) == ref.apply_recalibration(theirs, scalar) == 4
        assert ours[0].qual == theirs[0].qual == chr(rounded + 33) * 4


def _seed_211_clean_inputs():
    """The benchmark's seed-211 ``clean`` inputs: 400 simulated pairs
    aligned 100 pairs at a time."""
    reference = generate_reference([8_700, 4_600], seed=211)
    truth = plant_variants(reference, snp_rate=0.002, indel_rate=0.0003, seed=212)
    known = generate_known_sites(truth, reference, seed=213)
    pairs = ReadSimulator(
        truth.donor, ReadSimConfig(coverage=7.0, seed=214, duplicate_fraction=0.05)
    ).simulate()[:400]
    aligner = PairedEndAligner(reference)
    records = []
    for i in range(0, len(pairs), 100):
        for mates in aligner.align_pairs(pairs[i : i + 100]):
            records.extend(mates)
    return reference, known, records


def test_seed_211_recalibrated_qualities_pinned():
    """Digest of the per-base implementation's output on these inputs."""
    reference, known, records = _seed_211_clean_inputs()
    table = build_recalibration_table(records, reference, known)
    assert apply_recalibration(records, table) == 71_476
    digest = hashlib.sha256("\n".join(r.qual for r in records).encode()).hexdigest()
    assert digest == "b994878748fc009a76f805c0d4dd41485522d86eaf7821bab175164e524f04ef"
