"""Corrupt/truncated GPB2 compressed checkpoints must recompute cleanly.

The block frame's crc32 catches bit flips, but a crc-valid blob can
still be undecodable: a mangled codec tag or a truncated or absent GPB2 header
passes the frame check and only explodes at decode time.  The context's
checkpoint read path decode-verifies eagerly and downgrades any failure
to discard + lineage recompute + rewrite, including under a thread pool.
"""

from __future__ import annotations

import pytest

from repro.engine.blockmanager import write_block_file
from repro.engine.bundle import BUNDLE_MAGIC, CompressedBundle
from repro.engine.context import EngineConfig, GPFContext


def make_ctx(tmp_path, backend):
    return GPFContext(
        EngineConfig(
            default_parallelism=2,
            executor_backend=backend,
            num_workers=2,
            spill_dir=str(tmp_path / f"spill_{backend}"),
        )
    )


def bad_codec_tag(blob: bytes) -> bytes:
    """Valid GPB2 header, payload tag byte zeroed: undecodable codec."""
    bundle = CompressedBundle.frombytes(blob)
    payload = b"\x00" + bundle.payload[1:]
    return CompressedBundle(
        bundle.codec, bundle.count, bundle.logical_bytes, payload
    ).tobytes()


def short_header(blob: bytes) -> bytes:
    """GPB2 magic but the header is cut short: frombytes refuses it."""
    return BUNDLE_MAGIC + b"\x02"


def no_header(blob: bytes) -> bytes:
    """The raw serializer payload with no GPB2 header in front — what a
    pre-GPB2 writer left behind.  Decodable bytes, but not a block."""
    return CompressedBundle.frombytes(blob).payload


CORRUPTIONS = {
    "bad_codec_tag": bad_codec_tag,
    "short_header": short_header,
    "no_header": no_header,
}


@pytest.mark.parametrize("backend", ["threads"])
class TestCheckpointCorruptionV2:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_crc_valid_but_undecodable_recomputes_and_rewrites(
        self, tmp_path, backend, corruption
    ):
        with make_ctx(tmp_path, backend) as ctx:
            rdd = ctx.parallelize(range(12), 2).map(lambda x: x * 5)
            rdd.checkpoint()
            expected = [x * 5 for x in range(12)]

            bm = ctx.block_manager
            key = (rdd.id, 0)
            blob = bm.get_checkpoint(key)
            assert blob is not None
            # Re-frame the corrupted blob: the crc is *valid*, only the
            # contents are garbage.
            write_block_file(bm._checkpoint_path(key), CORRUPTIONS[corruption](blob))

            assert rdd.collect() == expected
            assert ctx.block_manager.stats.corrupt_reads >= 1

            # The recompute rewrote the checkpoint: the next read is
            # clean and decodes without another discard.
            corrupt_before = ctx.block_manager.stats.corrupt_reads
            assert rdd.collect() == expected
            assert ctx.block_manager.stats.corrupt_reads == corrupt_before

    def test_crc_mismatch_recomputes_and_rewrites(self, tmp_path, backend):
        with make_ctx(tmp_path, backend) as ctx:
            rdd = ctx.parallelize(range(10), 2).map(lambda x: x + 100)
            rdd.checkpoint()
            expected = [x + 100 for x in range(10)]

            path = ctx.block_manager._checkpoint_path((rdd.id, 1))
            with open(path, "r+b") as fh:  # flip payload bytes in place
                fh.seek(12)
                fh.write(b"\x5a\x5a\x5a")

            assert rdd.collect() == expected
            assert ctx.block_manager.stats.corrupt_reads >= 1
            corrupt_before = ctx.block_manager.stats.corrupt_reads
            assert rdd.collect() == expected
            assert ctx.block_manager.stats.corrupt_reads == corrupt_before
