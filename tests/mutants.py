"""The implementation-bug catalogue as injectable mutants.

Each BUG_MUTANTS entry patches one deliberate bug into the live Python
modules (monkeypatch style) so tests can prove the KAT suite catches that
whole bug class on the reference path.  The `detected_by` count is the
earliest KAT record whose CT field must diverge: 1 for bugs visible with
empty inputs, 2 (the first record with non-empty associated data) for the
AD-phase bug.

KERNEL_MUTANTS carries the same seven bug classes into the compiled kernel
as edits of its C source, which a test builds and loads; each must be
caught by the same earliest record as its Python twin.
"""

from __future__ import annotations

from ascon_aead import aead
from ascon_aead import permutation
from ascon_aead.codec import pad_10star, word_from_bytes
from ascon_aead.permutation import MASK64, State, permute


def _wrong_round_constants(monkeypatch):
    monkeypatch.setattr(permutation, "ROUND_CONSTANTS", tuple(range(1, 13)))


def _left_rotation(monkeypatch):
    def rotl64(x, r):
        return ((x << r) | (x >> (64 - r))) & MASK64 if r else x

    monkeypatch.setattr(permutation, "rotr64", rotl64)


def _missing_linear_xor(monkeypatch):
    def linear_no_input_xor(state):
        s0, s1, s2, s3, s4 = state
        rotr64 = permutation.rotr64
        return State(
            rotr64(s0, 19) ^ rotr64(s0, 28),
            rotr64(s1, 61) ^ rotr64(s1, 39),
            rotr64(s2, 1) ^ rotr64(s2, 6),
            rotr64(s3, 10) ^ rotr64(s3, 17),
            rotr64(s4, 7) ^ rotr64(s4, 41),
        )

    monkeypatch.setattr(permutation, "linear_layer", linear_no_input_xor)


def _missing_init_key_xor(monkeypatch):
    def initialize_without_key_xor(params, key, nonce):
        state = State(
            params.iv_word,
            word_from_bytes(key[:8]),
            word_from_bytes(key[8:]),
            word_from_bytes(nonce[:8]),
            word_from_bytes(nonce[8:]),
        )
        return permute(state, params.rounds_a)

    monkeypatch.setattr(aead, "initialize", initialize_without_key_xor)


def _extra_last_block_permutation(monkeypatch):
    def encrypt_data_overpermuted(state, params, plaintext):
        rate, rounds = params.rate_bytes, params.rounds_b
        padded = pad_10star(plaintext, rate)
        out = bytearray()
        for off in range(0, len(padded), rate):
            state = aead._absorb(state, padded[off : off + rate], rate)
            out += aead._rate_of(state, rate)
            state = permute(state, rounds)  # bug: also after the final block
        return state, bytes(out[: len(plaintext)])

    monkeypatch.setattr(aead, "encrypt_data", encrypt_data_overpermuted)


def _missing_final_ad_permutation(monkeypatch):
    def ad_without_final_permutation(state, params, ad):
        if ad:
            rate, rounds = params.rate_bytes, params.rounds_b
            padded = pad_10star(ad, rate)
            for off in range(0, len(padded), rate):
                if off:
                    state = permute(state, rounds)  # bug: between blocks only
                state = aead._absorb(state, padded[off : off + rate], rate)
        return state._replace(s4=state.s4 ^ 1)

    monkeypatch.setattr(aead, "process_associated_data", ad_without_final_permutation)


def _missing_domain_separator(monkeypatch):
    def ad_without_domain_bit(state, params, ad):
        if ad:
            rate, rounds = params.rate_bytes, params.rounds_b
            padded = pad_10star(ad, rate)
            for off in range(0, len(padded), rate):
                state = aead._absorb(state, padded[off : off + rate], rate)
                state = permute(state, rounds)
        return state  # bug: s4's low bit never flipped

    monkeypatch.setattr(aead, "process_associated_data", ad_without_domain_bit)


#: name -> (apply(monkeypatch), earliest KAT count whose CT must diverge)
BUG_MUTANTS = {
    "wrong round constants": (_wrong_round_constants, 1),
    "left instead of right rotation": (_left_rotation, 1),
    "missing linear-layer input XOR": (_missing_linear_xor, 1),
    "missing 0*||K initialization XOR": (_missing_init_key_xor, 1),
    "extra permutation on last data block": (_extra_last_block_permutation, 1),
    "missing permutation after final AD block": (_missing_final_ad_permutation, 2),
    "missing domain separator": (_missing_domain_separator, 1),
}


#: name -> (text in _accel.c, its replacement); every match is replaced.
KERNEL_MUTANTS = {
    "wrong round constants": (
        "x2 ^= (uint64_t)(((0xF - r) << 4) | r);",
        "x2 ^= (uint64_t)(r + 1);",
    ),
    "left instead of right rotation": (
        "#define ROTR(x, n) (((x) >> (n)) | ((x) << (64 - (n))))",
        "#define ROTR(x, n) (((x) << (n)) | ((x) >> (64 - (n))))",
    ),
    "missing linear-layer input XOR": ("^= ROTR(", "= ROTR("),
    "missing 0*||K initialization XOR": ("    s[3] ^= k1;\n    s[4] ^= k2;\n", ""),
    "extra permutation on last data block": (
        "duplex_tail(s, in + split, out + split, len - split, rate, mode);",
        "duplex_tail(s, in + split, out + split, len - split, rate, mode);\n"
        "    permute(s, rounds_b);",
    ),
    "missing permutation after final AD block": (
        "ABSORB);\n        permute(s, rounds_b);",
        "ABSORB);",
    ),
    "missing domain separator": ("s[4] ^= 1;", ""),
}
