"""Delta transform of quality strings.

Paper Fig. 5: adjacent quality-score differences concentrate near zero far
more than the raw scores do, so the quality field is converted to the
sequence ``[q0, q1-q0, q2-q1, ...]`` with values in [-127, 127] before
entropy coding.  The first element is the absolute first score (the paper's
example ``CCCB(SOH)FFFF -> 67 0 0 -1 -65 -69 0 0 0`` encodes the first raw
ASCII value 67 followed by differences).
"""

from __future__ import annotations

import numpy as np


def delta_encode_block(qual: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`delta_encode` of records laid end to end in ``qual`` (ASCII
    ``uint8``): one int64 array, each record's deltas restarting at its
    absolute first score."""
    deltas = qual.astype(np.int64)
    deltas[1:] -= qual[:-1]
    first = (lengths.cumsum() - lengths)[lengths > 0]
    deltas[first] = qual[first]
    return deltas


def delta_decode_block(deltas: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_encode_block`: the ``uint8`` scores."""
    raw = deltas.astype(np.int64).cumsum()
    raw -= np.concatenate(([0], raw))[lengths.cumsum() - lengths].repeat(lengths)
    if raw.size and (raw.min() < 0 or raw.max() > 255):
        raise ValueError("delta stream decodes outside byte range")
    return raw.astype(np.uint8)


def delta_encode(quality: str) -> np.ndarray:
    """Quality string -> int16 array [first_ascii, diffs...]."""
    raw = np.frombuffer(quality.encode("ascii"), dtype=np.uint8)
    return delta_encode_block(raw, np.array([raw.size])).astype(np.int16)


def delta_decode(deltas: np.ndarray) -> str:
    """Inverse of :func:`delta_encode`."""
    deltas = np.asarray(deltas, dtype=np.int16)
    return delta_decode_block(deltas, np.array([deltas.size])).tobytes().decode("ascii")
