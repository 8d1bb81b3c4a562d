import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.delta import delta_decode, delta_encode
from repro.compression.huffman import EOF_SYMBOL, HuffmanCodec


class TestDelta:
    def test_paper_example(self):
        # Fig. 6: "CCCB\x01FFFF" -> 67 0 0 -1 -65 69 0 0 0 (first element is
        # the absolute ASCII of 'C' = 67).
        deltas = delta_encode("CCCB\x01FFFF")
        assert deltas.tolist() == [67, 0, 0, -1, -65, 69, 0, 0, 0]

    def test_roundtrip(self):
        qual = "IIIIJJJJ!#%>"
        assert delta_decode(delta_encode(qual)) == qual

    def test_empty(self):
        assert delta_decode(delta_encode("")) == ""

    def test_out_of_range_rejected(self):
        bad = np.array([300], dtype=np.int16)
        with pytest.raises(ValueError):
            delta_decode(bad)


class TestHuffman:
    def test_roundtrip_simple(self):
        codec = HuffmanCodec.from_frequencies({0: 100, 1: 10, -1: 10, 5: 1})
        data = [0, 0, 1, -1, 5, 0]
        assert codec.decode(codec.encode(data)).tolist() == data

    def test_empty_stream(self):
        codec = HuffmanCodec.from_frequencies({0: 1})
        assert codec.decode(codec.encode([])).tolist() == []

    def test_degenerate_single_symbol(self):
        codec = HuffmanCodec.from_frequencies({7: 1000})
        assert codec.decode(codec.encode([7] * 20)).tolist() == [7] * 20

    def test_unknown_symbol_rejected(self):
        codec = HuffmanCodec.from_frequencies({0: 1})
        with pytest.raises(ValueError, match="not in codec alphabet"):
            codec.encode([42])

    @pytest.mark.parametrize("symbol", [-256, 256, 1000])
    def test_symbol_outside_the_delta_alphabet_refused(self, symbol):
        with pytest.raises(ValueError, match="-255, 255"):
            HuffmanCodec({EOF_SYMBOL: 1, 0: 2, symbol: 2})
        with pytest.raises(ValueError, match="-255, 255"):
            HuffmanCodec.from_frequencies({symbol: 5, 3: 1})
        codec = HuffmanCodec.from_frequencies({-255: 1, 255: 1})
        with pytest.raises(ValueError, match="not in codec alphabet"):
            codec.encode([255, symbol])

    def test_frequent_symbols_get_shorter_codes(self):
        codec = HuffmanCodec.from_frequencies({0: 10_000, 9: 1})
        lengths = codec.code_lengths()
        assert lengths[0] < lengths[9]

    def test_codec_rebuilds_from_lengths(self):
        codec = HuffmanCodec.from_frequencies({0: 50, 1: 20, 2: 5})
        clone = HuffmanCodec(codec.code_lengths())
        data = [0, 1, 2, 0, 0]
        assert clone.decode(codec.encode(data)).tolist() == data
        assert clone == codec

    def test_requires_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            HuffmanCodec({0: 1})

    def test_kraft_violating_lengths_rejected(self):
        # Three 1-bit codes: sum 2^-l = 1.5.  Such a table used to be
        # accepted and decoded the stream for [5, 7, 5] as [7].
        with pytest.raises(ValueError, match="Kraft"):
            HuffmanCodec({EOF_SYMBOL: 1, 5: 1, 7: 1})

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_length_rejected(self, bad):
        with pytest.raises(ValueError):
            HuffmanCodec({EOF_SYMBOL: 1, 5: bad})

    def test_encode_many_is_encode_per_stream(self):
        codec = HuffmanCodec.from_frequencies({0: 40, 1: 9, -3: 2, 8: 1})
        streams = [[], [0, 0, 1], [-3, 8, 0], [8] * 9]
        assert codec.encode_many(streams) == [codec.encode(s) for s in streams]
        symbols, counts = codec.decode_many(codec.encode_many(streams))
        assert counts.tolist() == [0, 3, 3, 9]
        assert symbols.tolist() == [0, 0, 1, -3, 8, 0] + [8] * 9
        assert codec.encode_many([]) == []
        assert [a.tolist() for a in codec.decode_many([])] == [[], []]

    def test_mean_bits_reflects_skew(self):
        freqs = {0: 1000, 1: 100, 2: 10, 3: 1}
        codec = HuffmanCodec.from_frequencies(freqs)
        assert codec.mean_bits_per_symbol(freqs) < 2.0

    def test_truncated_stream_rejected(self):
        codec = HuffmanCodec.from_frequencies({0: 3, 1: 3})
        blob = codec.encode([0, 1, 0, 1, 0, 1, 0, 1])
        with pytest.raises(ValueError):
            codec.decode(blob[: max(1, len(blob) - 2)])


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.integers(-127, 127), st.integers(1, 500), min_size=1, max_size=50
    ),
    st.data(),
)
def test_roundtrip_property(freqs, data):
    codec = HuffmanCodec.from_frequencies(freqs)
    symbols = data.draw(
        st.lists(st.sampled_from(sorted(freqs)), min_size=0, max_size=100)
    )
    assert codec.decode(codec.encode(symbols)).tolist() == symbols


@settings(max_examples=60)
@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=200))
def test_delta_roundtrip_property(qual):
    assert delta_decode(delta_encode(qual)) == qual


@given(
    st.dictionaries(st.integers(-50, 50), st.integers(1, 100), min_size=2, max_size=30)
)
def test_kraft_inequality(freqs):
    codec = HuffmanCodec.from_frequencies(freqs)
    kraft = sum(2.0 ** -length for length in codec.code_lengths().values())
    assert kraft <= 1.0 + 1e-9
