"""``stable_hash`` against the recursive key encoder it replaced.

``reference_key_bytes`` is the original one-function encoder (every item
of a container encoded by a recursive call), kept here as the oracle:
the type-dispatched encoder in ``repro.engine.rdd`` must produce the same
bytes, so every key keeps its shuffle bucket.
"""

from __future__ import annotations

import enum
import zlib
from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rdd import _canonical_key_bytes, stable_hash


def reference_key_bytes(key: object) -> bytes:
    if key is None:
        return b"z"
    if isinstance(key, bool):
        key = int(key)
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    if isinstance(key, int):
        return b"i" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"f" + repr(key).encode("ascii")
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, (tuple, list)):
        parts = [reference_key_bytes(item) for item in key]
        return b"t" + b"".join(len(part).to_bytes(4, "big") + part for part in parts)
    return b"o" + repr(key).encode("utf-8", "backslashreplace")


class Strand(enum.IntEnum):
    FORWARD = 0
    REVERSE = 1


Locus = namedtuple("Locus", "contig pos")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.integers(-5, 5).map(float)
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.sampled_from(list(Strand))
    | st.builds(Locus, st.text(max_size=4), st.integers())
)
keys = st.recursive(
    scalars,
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=4) | st.tuples(inner, inner, inner),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(keys)
def test_stable_hash_matches_the_recursive_encoder(key):
    assert _canonical_key_bytes(key) == reference_key_bytes(key)
    assert stable_hash(key) == zlib.crc32(reference_key_bytes(key))


def test_shuffle_key_shapes_encode_as_before():
    """The shapes the Cleaner shuffles: contigs, positions, and pairs of
    (contig, position, strand) tuples."""
    for key in ("chr1", 1234, (("chr1", 10, False), ("chr2", -5, True)), [], ()):
        assert _canonical_key_bytes(key) == reference_key_bytes(key)
