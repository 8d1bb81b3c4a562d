"""Corrupt, truncated or stale journal checkpoints must re-execute cleanly.

The block frame's crc32 catches bit flips, but a crc-valid blob can
still be undecodable: a mangled codec tag, a truncated payload, or a
checkpoint in the parent format (the serializer payload behind an
18-byte ``GPB2`` header) passes the frame check and only explodes at
decode time.  The run journal's restore path decode-verifies eagerly
and downgrades any failure to re-executing the Process, which rewrites
its checkpoint, including under a thread pool.
"""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.engine.blockmanager import read_block_file, write_block_file
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
    """The serializer payload with its codec tag byte zeroed."""
    return b"\x00" + blob[1:]


def truncated_payload(blob: bytes) -> bytes:
    """The payload cut short, as a torn write re-framed would leave it."""
    return blob[: len(blob) // 2]


def parent_format(blob: bytes) -> bytes:
    """The payload behind the parent's ``GPB2`` header: magic, version 2,
    codec tag, record count (6 per partition here), logical bytes."""
    return struct.pack("<4sBcIQ", b"GPB2", 2, blob[:1], 6, 0) + blob


CORRUPTIONS = {
    "bad_codec_tag": bad_codec_tag,
    "truncated_payload": truncated_payload,
    "parent_format": parent_format,
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
            blob = read_block_file(path)
            corrupted = CORRUPTIONS[corruption](blob)
            with pytest.raises((ValueError, pickle.UnpicklingError)):
                ctx.serializer.loads(corrupted)
            # Re-frame the corrupted blob: the crc is *valid*, only the
            # contents are garbage.
            write_block_file(path, corrupted)

            executed, out = run_journaled(ctx, jdir, range(12), lambda x: x * 5)
            assert executed
            assert out.collect() == expected
            assert read_block_file(path) == blob

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
