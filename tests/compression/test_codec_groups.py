"""The codec's unit of work is the task: groups in, standalone batches out.

A map task's buckets cross the codec in one encode pass behind one shared
table (``encode_groups``, ``GpfSerializer.dumps_many``), and a reduce
task's blocks decode in one call whose passes run across block
boundaries, each block with its own table (``decode_many``,
``decode_streams``).
The oracle is ``reference_codec``: every grouped batch must be the
reference's batch of its group under the pass's shared table and decode
standalone with the reference reader, and a joint decode must equal the
per-block decodes, corrupt input included.
"""

from __future__ import annotations

import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.compression.records as records_module
from repro.compression.huffman import HuffmanCodec, decode_streams
from repro.compression.records import FastqCodec, SamCodec
from repro.engine.serializers import get_serializer
from repro.formats.fastq import FastqPair, FastqRecord
from tests.compression import reference_codec as ref
from tests.compression.test_codec_block import (
    _fibonacci,
    fastq_block,
    lenient_read,
    sam_block,
    watchdog,
)

GROUP_SIZES = st.lists(st.integers(0, 9), min_size=1, max_size=6)


def split(records: list, sizes: list[int]) -> list[list]:
    bounds = np.cumsum([0] + sizes).tolist()
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


def table_of(blob: bytes) -> bytes:
    """A batch's code-length table."""
    table_len = int.from_bytes(blob[4:8], "little")
    return blob[8 : 8 + table_len]


def skewed_block(seed: int, symbols: int) -> list[FastqRecord]:
    """Quality deltas with Fibonacci counts: codes far past the 12-bit
    decode table (see test_codec_block)."""
    rng = random.Random(seed)
    excursions = [
        d for d, count in enumerate(reversed(_fibonacci(symbols)), start=1) for _ in range(count)
    ]
    rng.shuffle(excursions)
    out, qual = [], [40]
    for i, d in enumerate(excursions):
        qual += range(40 + d, 39, -1)
        if len(qual) >= 100 or i == len(excursions) - 1:
            text = "".join(map(chr, qual))
            out.append(FastqRecord(f"s{seed}.{len(out)}", "".join(rng.choice("ACGT") for _ in text), text))
            qual = [40]
    return out


def flat_block(n: int) -> list[FastqRecord]:
    """One quality value throughout: a two-code table, far under 12 bits."""
    return [FastqRecord(f"flat{i}", "ACGT" * (i % 5), "I" * (4 * (i % 5))) for i in range(n)]


# -- encode: one pass, one table, standalone batches -----------------------------
@settings(max_examples=60, deadline=None)
@given(sizes=GROUP_SIZES, seed=st.integers(0, 10_000))
def test_fastq_groups_share_a_table_and_decode_standalone(sizes, seed):
    records = fastq_block(sum(sizes), seed=seed)
    groups = split(records, sizes)
    blobs = FastqCodec.encode_groups(groups, strict=True)
    whole = ref.fastq_encode(records, strict=True)
    assert FastqCodec.encode_groups([records], strict=True) == [whole]
    assert len(blobs) == len(groups)
    for blob, group in zip(blobs, groups):
        assert blob[:4] == len(group).to_bytes(4, "little")
        assert table_of(blob) == table_of(whole)
        assert blob == ref.fastq_encode(group, strict=True, shared=records)
        assert ref.fastq_decode(blob) == group
    assert FastqCodec.decode_many(blobs) == records


@settings(max_examples=40, deadline=None)
@given(sizes=GROUP_SIZES, seed=st.integers(0, 10_000))
def test_sam_groups_share_a_table_and_decode_standalone(sizes, seed):
    records = sam_block(sum(sizes), seed=seed)
    groups = split(records, sizes)
    blobs = SamCodec.encode_groups(groups, strict=True)
    whole = ref.sam_encode(records, strict=True)
    assert SamCodec.encode_groups([records], strict=True) == [whole]
    for blob, group in zip(blobs, groups):
        assert table_of(blob) == table_of(whole)
        assert blob == ref.sam_encode(group, strict=True, shared=records)
        assert ref.sam_decode(blob) == group
    assert SamCodec.decode_many(blobs) == records


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5), seed=st.integers(0, 10_000))
def test_keyed_sam_and_pair_groups_through_the_serializer(sizes, seed):
    gpf = get_serializer("gpf")
    sams = sam_block(sum(sizes), seed=seed)
    keyed = [((rec.rname, rec.pos, i), rec) for i, rec in enumerate(sams)]
    reads = fastq_block(2 * sum(sizes), seed=seed + 1)
    pairs = [FastqPair(a, b) for a, b in zip(reads[::2], reads[1::2])]
    for elements, tag in ((keyed, b"K"), (pairs, b"P")):
        groups = split(elements, sizes)
        payloads = gpf.dumps_many(groups)
        for payload, group in zip(payloads, groups):
            assert payload[:1] == tag
            assert gpf.loads(payload) == group  # standalone
        assert gpf.loads_many(payloads) == elements
    assert gpf.dumps_many([keyed]) == [gpf.dumps(keyed)]


def test_a_refused_record_falls_back_for_its_own_bucket_only():
    """The joint pass refuses, then each bucket gets its own codec pass:
    only the bucket holding the IUPAC read goes to pickle."""
    gpf = get_serializer("gpf")
    good = fastq_block(12, seed=4)
    bad = [lenient_read(random.Random(s), s) for s in range(40)]
    bad = [r for r in bad if not ref.roundtrip_safe(r.sequence, r.quality)][:1]
    assert bad
    groups = [good[:6], good[6:] + bad, good[:3]]
    payloads = gpf.dumps_many(groups)
    assert [p[:1] for p in payloads] == [b"Q", b"F", b"Q"]
    assert [gpf.loads(p) for p in payloads] == groups
    mixed = gpf.dumps_many([good[:2], [(1, "x")]])
    assert [p[:1] for p in mixed] == [b"Q", b"F"]


# -- decode: passes across blocks with different tables ---------------------------
def test_blocks_with_different_tables_decode_in_one_pass(monkeypatch):
    """A skewed table (codes over 12 bits), a two-code table and ordinary
    ones in one pass: the same records as decoding each block alone."""
    blocks = [fastq_block(30, seed=1), skewed_block(2, 15), flat_block(9), fastq_block(5, seed=3), skewed_block(4, 14)]
    blobs = [FastqCodec.encode(block, strict=True) for block in blocks]
    lengths = [ref._read_table(table_of(b)) for b in blobs]
    assert max(lengths[1].values()) > 12 and max(lengths[2].values()) < 12
    assert len({table_of(b) for b in blobs}) == len(blobs)
    passes = []
    monkeypatch.setattr(
        records_module, "decode_streams", lambda *a: passes.append(1) or decode_streams(*a)
    )
    expected = [r for blob in blobs for r in ref.fastq_decode(blob)]
    assert [r for block in blocks for r in block] == expected
    assert FastqCodec.decode_many(blobs) == expected
    assert len(passes) == 1


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
    skew=st.booleans(),
    data=st.data(),
)
def test_decode_streams_equals_each_codec_alone(seeds, skew, data):
    codecs = []
    for seed in seeds:
        rng = random.Random(seed)
        weights = _fibonacci(rng.randint(2, 24)) if skew else [rng.randint(1, 50) for _ in range(rng.randint(1, 30))]
        codecs.append(HuffmanCodec.from_frequencies({s - 10: w for s, w in enumerate(weights)}))
    owner = data.draw(st.lists(st.integers(0, len(codecs) - 1), max_size=20))
    streams = []
    for c in owner:
        alphabet = sorted(s for s in codecs[c].code_lengths() if s != 0x10000)
        streams.append(data.draw(st.lists(st.sampled_from(alphabet), max_size=30)))
    blobs = [codecs[c].encode(s) for c, s in zip(owner, streams)]
    nbytes = np.array([len(b) for b in blobs], dtype=np.int64)
    symbols, counts = decode_streams(codecs, np.array(owner, dtype=np.int64), b"".join(blobs), nbytes)
    assert counts.tolist() == [len(s) for s in streams]
    assert symbols.tolist() == [x for s in streams for x in s]


# -- corrupt input fails typed, exactly as per-block decoding does -------------
def _per_block(blobs: list[bytes]) -> list | None:
    try:
        return [r for blob in blobs for r in SamCodec.decode(blob)]
    except ValueError:
        return None


def test_a_torn_block_in_a_chain_raises():
    blobs = SamCodec.encode_groups([sam_block(4, seed=1), sam_block(5, seed=2), sam_block(3, seed=3)], strict=True)
    for cut in range(len(blobs[1])):
        chain = [blobs[0], blobs[1][:cut], blobs[2]]
        with watchdog(), pytest.raises(ValueError):
            SamCodec.decode_many(chain)


def test_flipped_bits_in_a_chain_match_per_block_decoding():
    blobs = SamCodec.encode_groups([sam_block(4, seed=5), sam_block(6, seed=6)], strict=True)
    blobs.insert(1, SamCodec.encode(sam_block(5, seed=7), strict=True))
    rng = random.Random(8)
    raised = 0
    for bit in rng.sample(range(8 * len(blobs[1])), 300):
        flipped = bytearray(blobs[1])
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        chain = [blobs[0], bytes(flipped), blobs[2]]
        expected = _per_block(chain)
        with watchdog():
            if expected is None:
                raised += 1
                with pytest.raises(ValueError):
                    SamCodec.decode_many(chain)
            else:
                assert SamCodec.decode_many(chain) == expected
    assert raised > 0


def test_a_torn_block_in_a_partition_chain_raises():
    gpf = get_serializer("gpf")
    groups = [sam_block(4, seed=9), sam_block(5, seed=10)]
    keyed = [[((r.rname, r.pos), r) for r in group] for group in groups]
    payloads = gpf.dumps_many(keyed)
    assert [p[:1] for p in payloads] == [b"K", b"K"]
    assert gpf.loads_many(payloads) == keyed[0] + keyed[1]
    torn = payloads[1][:-9]
    with watchdog(), pytest.raises(ValueError):
        gpf.loads_many([payloads[0], torn])


# -- the codec's unit of work on the seed-211 clean plan --------------------------
def test_clean_plan_builds_one_table_per_map_task_and_decodes_once_per_reduce(monkeypatch):
    """``clean_codec`` at seed 211: a table per map task with codec output
    (16, where a table per bucket built 172), one decode pass per reduce
    task reading codec blocks (22, where a pass per block ran 172)."""
    from benchmarks.ledger.harness import engine_session
    from benchmarks.ledger.spans import SpanLog
    from benchmarks.ledger.workloads import FULL, WORKLOADS, build_plan, fresh_records, make_inputs
    from repro.engine.shuffle import ShuffleManager

    state = {"in": None, "builds": [], "passes": []}

    def during(where, fn):
        def wrapped(*args, **kwargs):
            state["in"] = where
            try:
                return fn(*args, **kwargs)
            finally:
                state["in"] = None

        return wrapped

    build = HuffmanCodec.from_frequencies.__func__

    def counted_build(cls, freqs):
        if state["in"] == "write":
            state["builds"][-1] += 1
        return build(cls, freqs)

    write = ShuffleManager.write

    def counted_write(*args, **kwargs):
        state["builds"].append(0)
        return during("write", write)(*args, **kwargs)

    def counted_decode(*args):
        if state["in"] == "read":
            state["passes"].append(1)
        return decode_streams(*args)

    monkeypatch.setattr(HuffmanCodec, "from_frequencies", classmethod(counted_build))
    monkeypatch.setattr(ShuffleManager, "write", counted_write)
    monkeypatch.setattr(ShuffleManager, "read", during("read", ShuffleManager.read))
    monkeypatch.setattr(records_module, "decode_streams", counted_decode)

    workload = WORKLOADS["clean_codec"]
    spans = SpanLog()
    inputs = make_inputs(workload.inputs, 211, FULL, spans)
    with tempfile.TemporaryDirectory() as directory:
        with engine_session(workload, FULL, directory, spans) as ctx:
            plan = build_plan(workload, ctx, inputs, fresh_records(inputs))
            plan.pipeline.run()
            out = plan.output.rdd.collect()
    assert sorted(r.qname for r in out) == sorted(r.qname for r in inputs.aligned if not r.is_unmapped)
    assert max(state["builds"]) == 1
    assert sum(state["builds"]) == 16
    assert len(state["passes"]) == 22
