"""The 320-bit core permutation: round constants, bitsliced S-box, linear diffusion.

The state is five unsigned 64-bit words s0..s4.  Bit j of the words
(s0..s4) forms slice j, a 5-bit S-box input with the s0 bit as x0, so every
word-wide Boolean operation below acts on all 64 S-box instances at once.
No function here branches on, or indexes memory by, state-derived values;
the S-box is evaluated purely as XOR/AND/NOT word operations.
"""

from __future__ import annotations

from collections import namedtuple

MASK64 = 0xFFFFFFFFFFFFFFFF

#: Constants for rounds 0..11 of the full 12-round schedule, c_i = ((0xF - i) << 4) | i.
#: An n-round permutation uses the *last* n entries (e.g. 6 rounds start at index 6).
ROUND_CONSTANTS = tuple(((0xF - i) << 4) | i for i in range(12))

#: (r1, r2) right-rotation pairs applied to s0..s4 by the linear diffusion layer.
ROTATIONS = ((19, 28), (61, 39), (1, 6), (10, 17), (7, 41))

#: Round counts used by the cipher: 12 for init/final, 6 or 8 for the data phases.
VALID_ROUNDS = (6, 8, 12)


class State(namedtuple("State", "s0 s1 s2 s3 s4")):
    """The permutation state as five 64-bit words s0..s4; a plain immutable value.

    All word arithmetic is modulo 2**64 and strictly unsigned; functions in
    this module keep every word in 0..2**64-1.
    """

    __slots__ = ()

    @classmethod
    def from_bytes(cls, data: bytes) -> "State":
        """Unpack a 40-byte big-endian serialization (s0 first)."""
        if len(data) != 40:
            raise ValueError(f"state must be 40 bytes, got {len(data)}")
        return cls(*(int.from_bytes(data[i : i + 8], "big") for i in range(0, 40, 8)))

    def to_bytes(self) -> bytes:
        """Serialize to 40 big-endian bytes; inverse of from_bytes."""
        return b"".join(w.to_bytes(8, "big") for w in self)


def rotr64(x: int, r: int) -> int:
    """Rotate the 64-bit word x right by r bit positions, wrapping.

    r outside 0..63 is a caller bug and raises ValueError.
    """
    if not 0 <= r <= 63:
        raise ValueError(f"rotation amount must be in 0..63, got {r}")
    return ((x >> r) | (x << (64 - r))) & MASK64


def substitution_layer(state: State) -> State:
    """Apply the 5-bit S-box to all 64 bit-slices simultaneously.

    This is the circuit form of the S-box: the same Boolean ops a hardware
    implementation would use, lifted to 64-bit words.  Equivalent to looking
    up each slice in the 32-entry S-box table, but with no table and no
    secret-dependent memory access.
    """
    x0, x1, x2, x3, x4 = state
    x0 ^= x4
    x4 ^= x3
    x2 ^= x1
    t0 = (x0 ^ MASK64) & x1
    t1 = (x1 ^ MASK64) & x2
    t2 = (x2 ^ MASK64) & x3
    t3 = (x3 ^ MASK64) & x4
    t4 = (x4 ^ MASK64) & x0
    x0 ^= t1
    x1 ^= t2
    x2 ^= t3
    x3 ^= t4
    x4 ^= t0
    x1 ^= x0
    x0 ^= x4
    x3 ^= x2
    x2 ^= MASK64
    return State(x0, x1, x2, x3, x4)


def linear_layer(state: State) -> State:
    """Diffuse each word: s_i ^= rotr64(s_i, r1) ^ rotr64(s_i, r2), pairs per ROTATIONS."""
    s0, s1, s2, s3, s4 = state
    return State(
        s0 ^ rotr64(s0, 19) ^ rotr64(s0, 28),
        s1 ^ rotr64(s1, 61) ^ rotr64(s1, 39),
        s2 ^ rotr64(s2, 1) ^ rotr64(s2, 6),
        s3 ^ rotr64(s3, 10) ^ rotr64(s3, 17),
        s4 ^ rotr64(s4, 7) ^ rotr64(s4, 41),
    )


def permute(state: State, rounds: int = 12, observe=None) -> State:
    """Run `rounds` rounds (6, 8, or 12): add constant, S-box, linear diffusion.

    Reduced-round permutations use the tail of the 12-round constant
    schedule, so the 6-round permutation runs rounds 6..11.  When `observe`
    is given, it is called as observe(round_index, step, state) after each
    step, with step "post-constant", "post-sbox" or "post-linear" and
    round_index the position in the 12-round schedule.
    """
    if rounds not in VALID_ROUNDS:
        raise ValueError(f"round count must be one of {VALID_ROUNDS}, got {rounds}")
    s = state
    for index in range(12 - rounds, 12):
        s = State(s.s0, s.s1, s.s2 ^ ROUND_CONSTANTS[index], s.s3, s.s4)
        if observe is not None:
            observe(index, "post-constant", s)
        s = substitution_layer(s)
        if observe is not None:
            observe(index, "post-sbox", s)
        s = linear_layer(s)
        if observe is not None:
            observe(index, "post-linear", s)
    return s
