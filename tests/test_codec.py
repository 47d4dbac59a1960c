import pytest
from hypothesis import given
from hypothesis import strategies as st

from ascon_aead.codec import (
    HexError,
    hex_decode,
    hex_encode,
    pad_10star,
    xor_bytes,
)

from oracles import unpad_10star

HEX_DIGITS = "0123456789abcdefABCDEF"
# hex text of either case, including mixed, as the KAT files and the CLI take it
canonical_hex = st.text(HEX_DIGITS, max_size=80).map(lambda t: t[: len(t) - len(t) % 2])
# whitespace, which bytes.fromhex would skip, and any other non-hex character
not_hex = st.one_of(
    st.sampled_from(" \t\n\r\x0b\x0c"), st.characters().filter(lambda c: c not in HEX_DIGITS)
)


class TestPad10Star:
    def test_empty_input(self):
        assert pad_10star(b"", 8) == bytes.fromhex("8000000000000000")

    def test_partial_block(self):
        assert pad_10star(bytes.fromhex("AABBCC"), 8) == bytes.fromhex("AABBCC8000000000")

    def test_full_block_grows_a_block(self):
        padded = pad_10star(bytes(8), 8)
        assert len(padded) == 16
        assert padded[8:] == bytes.fromhex("8000000000000000")

    @pytest.mark.parametrize("rate", [0, 4, 7, 9, 32])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            pad_10star(b"", rate)

    @given(st.binary(max_size=64), st.sampled_from([8, 16]))
    def test_padding_invariants(self, data, rate):
        padded = pad_10star(data, rate)
        assert len(padded) % rate == 0
        assert len(padded) > len(data)
        assert len(padded) - len(data) <= rate
        assert padded.startswith(data)
        assert unpad_10star(padded) == data


class TestXorBytes:
    def test_identity(self):
        assert xor_bytes(b"\x12\x34", b"\x00\x00") == b"\x12\x34"

    def test_self_inverse(self):
        assert xor_bytes(b"\xAA\x55", b"\xAA\x55") == b"\x00\x00"

    def test_nibble_complement(self):
        assert xor_bytes(b"\xF0\x0F", b"\x0F\xF0") == b"\xFF\xFF"

    def test_empty(self):
        assert xor_bytes(b"", b"") == b""

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    @given(st.binary(max_size=64))
    def test_xor_with_self_is_zero(self, data):
        assert xor_bytes(data, data) == bytes(len(data))


class TestHex:
    def test_empty(self):
        assert hex_decode("") == b""
        assert hex_encode(b"") == ""

    def test_simple(self):
        assert hex_decode("00FF") == b"\x00\xFF"
        assert hex_decode("00ff") == b"\x00\xFF"
        assert hex_encode(b"\x00\xFF") == "00FF"

    def test_odd_length_names_position(self):
        with pytest.raises(HexError) as info:
            hex_decode("ABC")
        assert info.value.position == 2
        assert "position 2" in str(info.value)

    def test_invalid_character_names_position(self):
        with pytest.raises(HexError) as info:
            hex_decode("00G0")
        assert info.value.position == 2
        assert "'G'" in str(info.value)

    @pytest.mark.parametrize(
        "text, position", [("00 FF", 2), (" 00", 0), ("00\n", 2), ("0\t0", 1), ("0G0", 1)]
    )
    def test_whitespace_and_bad_characters_are_rejected(self, text, position):
        # bytes.fromhex would skip the whitespace
        with pytest.raises(HexError) as info:
            hex_decode(text)
        assert info.value.position == position
        assert "invalid hex character" in str(info.value)

    @given(canonical_hex, st.data())
    def test_agrees_with_fromhex_and_names_the_inserted_character(self, text, data):
        assert hex_decode(text) == bytes.fromhex(text)
        position = data.draw(st.integers(min_value=0, max_value=len(text)))
        bad = data.draw(not_hex)
        with pytest.raises(HexError) as info:
            hex_decode(text[:position] + bad + text[position:])
        assert info.value.position == position
        assert "invalid hex character" in str(info.value)

    def test_hex_error_is_value_error(self):
        with pytest.raises(ValueError):
            hex_decode("zz")

    @given(st.binary(max_size=64))
    def test_round_trip(self, data):
        assert hex_decode(hex_encode(data)) == data

    @given(st.binary(max_size=32))
    def test_encode_is_uppercase(self, data):
        text = hex_encode(data)
        assert text == text.upper()
