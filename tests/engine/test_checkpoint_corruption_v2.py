"""Corrupt/truncated GPB2 journal checkpoints must re-execute cleanly.

The block frame's crc32 catches bit flips, but a crc-valid blob can
still be undecodable: a mangled codec tag or a truncated or absent GPB2
header passes the frame check and only explodes at decode time.  The
run journal's restore path decode-verifies eagerly and downgrades any
failure to re-executing the Process, which rewrites its checkpoint,
including under a thread pool.
"""

from __future__ import annotations

import pytest

from repro.engine.blockmanager import read_block_file, write_block_file
from repro.engine.bundle import BUNDLE_MAGIC, CompressedBundle
from repro.engine.context import EngineConfig, GPFContext
from tests.engine.journaled import partition_files, run_journaled


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
        jdir = str(tmp_path / "journal")
        expected = [x * 5 for x in range(12)]
        with make_ctx(tmp_path, backend) as ctx:
            run_journaled(ctx, jdir, range(12), lambda x: x * 5)
            path = partition_files(jdir)[0]
            # Re-frame the corrupted blob: the crc is *valid*, only the
            # contents are garbage.
            write_block_file(path, CORRUPTIONS[corruption](read_block_file(path)))

            executed, out = run_journaled(ctx, jdir, range(12), lambda x: x * 5)
            assert executed
            assert out.collect() == expected

            # The re-execution rewrote the checkpoint: the next run
            # restores it without executing again.
            executed, out = run_journaled(ctx, jdir, range(12), lambda x: x * 5)
            assert not executed
            assert out.collect() == expected

    def test_crc_mismatch_recomputes_and_rewrites(self, tmp_path, backend):
        jdir = str(tmp_path / "journal")
        expected = [x + 100 for x in range(10)]
        with make_ctx(tmp_path, backend) as ctx:
            run_journaled(ctx, jdir, range(10), lambda x: x + 100)
            with open(partition_files(jdir)[1], "r+b") as fh:
                fh.seek(12)  # flip payload bytes in place
                fh.write(b"\x5a\x5a\x5a")

            executed, out = run_journaled(ctx, jdir, range(10), lambda x: x + 100)
            assert executed
            assert out.collect() == expected
            executed, out = run_journaled(ctx, jdir, range(10), lambda x: x + 100)
            assert not executed
            assert out.collect() == expected
