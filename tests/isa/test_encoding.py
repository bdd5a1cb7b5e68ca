"""Unit tests for the opcode pattern compiler and the pattern oracles."""

import pytest

from repro.isa.encoding import EncodingError, compile_pattern
from tests.oracles import pattern_encode, pattern_match


class TestCompile:
    def test_fixed_bits(self):
        pattern = compile_pattern(["0000 0000 0000 0000"])
        assert pattern.fixed_mask == (0xFFFF,)
        assert pattern.fixed_value == (0x0000,)
        assert pattern.fixed_bit_count == 16

    def test_field_positions_msb_first(self):
        pattern = compile_pattern(["0001 11rd dddd rrrr"])
        assert pattern.field_width("d") == 5
        assert pattern.field_width("r") == 5
        # d's MSB is bit 8 (position 7 from the left)
        assert pattern.fields["d"][0] == (0, 8)
        assert pattern.fields["r"][0] == (0, 9)

    def test_rejects_bad_length(self):
        with pytest.raises(EncodingError):
            compile_pattern(["0101"])

    def test_two_word_pattern(self):
        pattern = compile_pattern(
            ["1001 010k kkkk 110k", "kkkk kkkk kkkk kkkk"]
        )
        assert pattern.n_words == 2
        assert pattern.field_width("k") == 22


class TestEncodeDecode:
    def test_encode_known_adc(self):
        pattern = compile_pattern(["0001 11rd dddd rrrr"])
        words = pattern_encode(pattern, {"d": 1, "r": 2})
        assert words == (0x1C12,)

    def test_encode_rejects_overflow(self):
        pattern = compile_pattern(["0001 11rd dddd rrrr"])
        with pytest.raises(EncodingError):
            pattern_encode(pattern, {"d": 32, "r": 0})

    def test_encode_rejects_missing_field(self):
        pattern = compile_pattern(["0001 11rd dddd rrrr"])
        with pytest.raises(EncodingError):
            pattern_encode(pattern, {"d": 1})

    def test_match_round_trip(self):
        pattern = compile_pattern(["0001 11rd dddd rrrr"])
        fields = {"d": 19, "r": 7}
        words = pattern_encode(pattern, fields)
        assert pattern_match(pattern, words) == fields

    def test_match_rejects_wrong_fixed_bits(self):
        pattern = compile_pattern(["0001 11rd dddd rrrr"])
        assert pattern_match(pattern, [0x0C12]) is None  # ADD, not ADC

    def test_match_needs_enough_words(self):
        pattern = compile_pattern(
            ["1001 010k kkkk 110k", "kkkk kkkk kkkk kkkk"]
        )
        assert pattern_match(pattern, [0x940C]) is None

    def test_two_word_field_collection(self):
        pattern = compile_pattern(
            ["1001 010k kkkk 110k", "kkkk kkkk kkkk kkkk"]
        )
        words = pattern_encode(pattern, {"k": 0x1234})
        assert words == (0x940C, 0x1234)
        assert pattern_match(pattern, words) == {"k": 0x1234}
        # high bits of k land in word 0
        words_high = pattern_encode(pattern, {"k": 0x30000})
        assert words_high[0] != 0x940C
        assert pattern_match(pattern, words_high) == {"k": 0x30000}

    def test_adiw_split_immediate(self):
        pattern = compile_pattern(["1001 0110 KKdd KKKK"])
        words = pattern_encode(pattern, {"K": 0x3F, "d": 2})
        assert pattern_match(pattern, words) == {"K": 0x3F, "d": 2}
