"""Byte/word packing, sponge padding, and hex text helpers.

All multi-byte values in the cipher are big-endian: the first byte of a
block lands in the most significant byte of the state word.  Hex text is
decoded case-insensitively and emitted uppercase, matching the KAT file
convention.
"""

from __future__ import annotations


class HexError(ValueError):
    """Malformed hex text; `position` is the 0-based index of the offending character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


def word_from_bytes(b: bytes) -> int:
    """Interpret exactly 8 bytes as a big-endian 64-bit word."""
    if len(b) != 8:
        raise ValueError(f"expected exactly 8 bytes, got {len(b)}")
    return int.from_bytes(b, "big")


def bytes_from_word(w: int) -> bytes:
    """Emit a 64-bit word as 8 big-endian bytes; inverse of word_from_bytes."""
    return w.to_bytes(8, "big")


def pad_10star(data: bytes, rate_bytes: int) -> bytes:
    """Append 0x80 then zero bytes up to the next multiple of rate_bytes.

    At least one byte is always appended, so input that exactly fills its
    final block grows by a whole new block.
    """
    if rate_bytes not in (8, 16):
        raise ValueError(f"rate must be 8 or 16 bytes, got {rate_bytes}")
    return data + b"\x80" + bytes(rate_bytes - len(data) % rate_bytes - 1)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two byte strings of equal length."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def hex_decode(text: str) -> bytes:
    """Decode hex text (case-insensitive, empty allowed) to bytes."""
    try:
        out = bytes.fromhex(text)
    except ValueError:
        pass
    else:
        # fromhex skips whitespace, which then shows as a length mismatch
        if 2 * len(out) == len(text):
            return out
    for i, ch in enumerate(text):
        if ch not in _HEX_DIGITS:
            raise HexError(f"invalid hex character {ch!r}", i)
    raise HexError("odd-length hex string ends", len(text) - 1)


def hex_encode(data: bytes) -> str:
    """Encode bytes as uppercase hex; inverse of hex_decode."""
    return data.hex().upper()
