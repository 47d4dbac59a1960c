"""Sponge padding, byte XOR, and hex text helpers.

Hex text is decoded strictly (`binascii.a2b_hex`: ASCII hex digits in pairs,
either case, no whitespace) and emitted uppercase, as KAT files write it.
"""

from binascii import a2b_hex


class HexError(ValueError):
    """Malformed hex text; `position` is the 0-based index of the offending character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


# pad_10star and xor_bytes have no caller in the package: aead pads and XORs
# the rate as one integer.  They stay only because bench/run.py times them,
# and go when its rows for them do.
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
    """Decode hex text (either case, empty allowed) to bytes, strictly.

    Whitespace or any other non-hex character, or an odd length, raises
    HexError at the first bad position.
    """
    try:
        return a2b_hex(text)
    except ValueError:  # binascii.Error, or a str that is not ASCII
        pass
    for i, ch in enumerate(text):
        if ch not in _HEX_DIGITS:
            raise HexError(f"invalid hex character {ch!r}", i)
    raise HexError("odd-length hex string ends", len(text) - 1)


def hex_encode(data: bytes) -> str:
    """Encode bytes as uppercase hex; inverse of hex_decode."""
    return data.hex().upper()
