"""The 320-bit core permutation: round constants, bitsliced S-box, linear diffusion.

The state is five unsigned 64-bit words s0..s4.  Bit j of the words
(s0..s4) forms slice j, a 5-bit S-box input with the s0 bit as x0, so every
word-wide Boolean operation below acts on all 64 S-box instances at once.
The round is defined once, by `_sbox` and `_linear` over five int words;
`permute` keeps the state in five locals, and the layer functions wrap them.
No function here branches on, or indexes memory by, state-derived values;
the S-box is evaluated purely as XOR/AND/NOT word operations.  That holds
at the source level only: CPython's int operations cost more as the words'
digit counts grow, so timing here depends on the state.  The compiled
kernel, _accel.c, is the constant-time path.
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

    All word arithmetic is modulo 2**64 and strictly unsigned.  `permute`
    and the two layer functions refuse a state that is not five int words
    in 0..2**64-1; given words in it, every function in this module returns
    words in it.
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


def _checked_words(state: State) -> State:
    """`state`, or TypeError unless it is five int words, or ValueError when
    a word is outside 0..2**64-1.  No error prints a word: words can be secret."""
    try:
        x0, x1, x2, x3, x4 = state
        words = x0 | x1 | x2 | x3 | x4  # an int only if every word is one
    except (TypeError, ValueError):  # not five words, or a word with no int `|`
        words = None
    if not isinstance(words, int):
        raise TypeError("state must be five int words")
    if not 0 <= words <= MASK64:
        raise ValueError("state words must be in 0..2**64-1")
    return state


def _sbox(x0: int, x1: int, x2: int, x3: int, x4: int) -> tuple[int, int, int, int, int]:
    """The 5-bit S-box on all 64 bit-slices at once, as a Boolean circuit on words (no table)."""
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
    return x0 ^ x4, x1 ^ x0, x2 ^ MASK64, x3 ^ x2, x4


def _linear(x0: int, x1: int, x2: int, x3: int, x4: int) -> tuple[int, int, int, int, int]:
    """Diffuse each word: x ^ rotr(x, r1) ^ rotr(x, r2), pairs per ROTATIONS.

    rotr(x, r) is written x >> r | x << (64 - r), and each word is masked once.
    """
    return (
        (x0 ^ (x0 >> 19 | x0 << (64 - 19)) ^ (x0 >> 28 | x0 << (64 - 28))) & MASK64,
        (x1 ^ (x1 >> 61 | x1 << (64 - 61)) ^ (x1 >> 39 | x1 << (64 - 39))) & MASK64,
        (x2 ^ (x2 >> 1 | x2 << (64 - 1)) ^ (x2 >> 6 | x2 << (64 - 6))) & MASK64,
        (x3 ^ (x3 >> 10 | x3 << (64 - 10)) ^ (x3 >> 17 | x3 << (64 - 17))) & MASK64,
        (x4 ^ (x4 >> 7 | x4 << (64 - 7)) ^ (x4 >> 41 | x4 << (64 - 41))) & MASK64,
    )


def substitution_layer(state: State) -> State:
    """Apply the 5-bit S-box to all 64 bit-slices of `state` simultaneously."""
    return State(*_sbox(*_checked_words(state)))


def linear_layer(state: State) -> State:
    """Diffuse each word of `state` by its two right rotations per ROTATIONS."""
    return State(*_linear(*_checked_words(state)))


def permute(state: State, rounds: int = 12, observe=None) -> State:
    """Run `rounds` rounds (6, 8, or 12): add constant, S-box, linear diffusion.

    Reduced-round permutations use the tail of the 12-round constant
    schedule, so the 6-round permutation runs rounds 6..11.  When `observe`
    is given, it is called as observe(round_index, step, state) after each
    step, with step "post-constant", "post-sbox" or "post-linear" and
    round_index the position in the 12-round schedule.  A round count that
    is not an int, or a state that is not five int words, raises TypeError,
    and a round count not in VALID_ROUNDS, or a word outside 0..2**64-1,
    raises ValueError.
    """
    if not isinstance(rounds, int):
        raise TypeError(f"rounds must be an int, not {type(rounds).__name__}")
    if rounds not in VALID_ROUNDS:
        raise ValueError(f"round count must be one of {VALID_ROUNDS}, got {rounds}")
    x0, x1, x2, x3, x4 = _checked_words(state)
    for index in range(12 - rounds, 12):
        x2 ^= ROUND_CONSTANTS[index]
        if observe is not None:
            observe(index, "post-constant", State(x0, x1, x2, x3, x4))
        x0, x1, x2, x3, x4 = _sbox(x0, x1, x2, x3, x4)
        if observe is not None:
            observe(index, "post-sbox", State(x0, x1, x2, x3, x4))
        x0, x1, x2, x3, x4 = _linear(x0, x1, x2, x3, x4)
        if observe is not None:
            observe(index, "post-linear", State(x0, x1, x2, x3, x4))
    return State(x0, x1, x2, x3, x4)
