"""Independent test-side oracles: everything here deliberately avoids the
production code paths it is used to check."""

from ascon_aead.codec import hex_encode
from ascon_aead.kat import KatRecord
from ascon_aead.permutation import (
    ROTATIONS, ROUND_CONSTANTS, State, permute, substitution_layer,
)

# The 5-bit S-box as a lookup table, transcribed from the cipher's reference
# specification (input x0..x4 with x0 the most significant bit).  The
# production path never uses a table; tests compare it against the circuit.
REFERENCE_SBOX = (
    0x04, 0x0B, 0x1F, 0x14, 0x1A, 0x15, 0x09, 0x02,
    0x1B, 0x05, 0x08, 0x12, 0x1D, 0x03, 0x06, 0x1C,
    0x1E, 0x13, 0x07, 0x0E, 0x00, 0x0D, 0x11, 0x18,
    0x10, 0x0C, 0x01, 0x19, 0x16, 0x0A, 0x0F, 0x17,
)


def sbox_slicewise(state: State) -> State:
    """Brute-force oracle: pull out each of the 64 slices, apply the
    reference table, and re-pack."""
    words = [0, 0, 0, 0, 0]
    for j in range(64):
        value = 0
        for i in range(5):
            value = (value << 1) | ((state[i] >> j) & 1)
        image = REFERENCE_SBOX[value]
        for i in range(5):
            words[i] |= ((image >> (4 - i)) & 1) << j
    return State(*words)


def rotate_right(word: int, amount: int) -> int:
    """Rotate a 64-bit word right by `amount` (0..64) as a string of its bits."""
    bits = f"{word:064b}"
    return int(bits[64 - amount :] + bits[: 64 - amount], 2)


def linear_from_table(state: State) -> State:
    """The linear layer straight from the ROTATIONS table: each word XORed
    with its two right rotations."""
    return State(*(w ^ rotate_right(w, r1) ^ rotate_right(w, r2)
                   for w, (r1, r2) in zip(state, ROTATIONS)))


def round_steps(state: State, rounds: int):
    """Yield (round index, step, state) after each step of `rounds` rounds,
    built from ROUND_CONSTANTS and the two layer oracles."""
    for index in range(12 - rounds, 12):
        state = state._replace(s2=state.s2 ^ ROUND_CONSTANTS[index])
        yield index, "post-constant", state
        state = sbox_slicewise(state)
        yield index, "post-sbox", state
        state = linear_from_table(state)
        yield index, "post-linear", state


def induced_sbox_table() -> list[int]:
    """Evaluate the production circuit on all 32 broadcast inputs and read
    back the 5-bit images; every slice must agree."""
    table = []
    for value in range(32):
        words = [0xFFFFFFFFFFFFFFFF if (value >> (4 - i)) & 1 else 0 for i in range(5)]
        image = substitution_layer(State(*words))
        out = 0
        for i, word in enumerate(image):
            assert word in (0, 0xFFFFFFFFFFFFFFFF), "slices disagree on a broadcast input"
            out |= (word & 1) << (4 - i)
        table.append(out)
    return table


def gf2_rank(vectors: list[int]) -> int:
    """Rank of a set of GF(2) vectors encoded as integers (Gaussian elimination)."""
    basis: dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                rank += 1
                break
            v ^= basis[top]
    return rank


def duplex_from_spec(state: State, rate: int, rounds: int, data: bytes, mode: str):
    """The duplex as the specification draws it, over bytes: (state, output).

    `data` is padded with 10* to whole blocks of `rate` bytes.  Each block
    meets the rate, the first `rate` bytes of the 40-byte state, and a
    `rounds`-round permutation runs between blocks.  In mode "absorb" and
    "encrypt" the block is XORed into the rate, and "encrypt" emits the
    rate's first m bytes, m being the message bytes in the block: all of a
    whole block, none of the padding.  "decrypt" emits the first m bytes
    of rate XOR block as plaintext, and the rate becomes the block's first
    m bytes, then its own remaining bytes XOR the padding.
    """
    padded = data + b"\x80" + bytes(rate - 1 - len(data) % rate)
    output = b""
    for start in range(0, len(padded), rate):
        if start:
            state = permute(state, rounds)
        block = padded[start : start + rate]
        m = min(rate, len(data) - start)
        serial = state.to_bytes()
        mixed = bytes(a ^ b for a, b in zip(serial[:rate], block))
        if mode == "encrypt":
            output += mixed[:m]
        elif mode == "decrypt":
            output += mixed[:m]
            mixed = block[:m] + mixed[m:]
        state = State.from_bytes(mixed + serial[rate:])
    return state, output


def unpad_10star(padded: bytes) -> bytes:
    """Recover the original message from a padded one (test-side inverse)."""
    trimmed = padded.rstrip(b"\x00")
    assert trimmed and trimmed[-1] == 0x80, "padding must end in 0x80 0x00*"
    return trimmed[:-1]


def serialize_records(records: list[KatRecord]) -> str:
    """Test-only writer for the KAT file format (the package never generates
    vector files)."""
    blocks = []
    for r in records:
        blocks.append(
            f"Count = {r.count}\n"
            f"Key = {hex_encode(r.key)}\n"
            f"Nonce = {hex_encode(r.nonce)}\n"
            f"PT = {hex_encode(r.pt)}\n"
            f"AD = {hex_encode(r.ad)}\n"
            f"CT = {hex_encode(r.ct_and_tag)}\n"
        )
    return "\n".join(blocks) + "\n"
