import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascon_aead.permutation import (
    MASK64,
    ROTATIONS,
    ROUND_CONSTANTS,
    State,
    linear_layer,
    permute,
    rotr64,
    substitution_layer,
)

from oracles import REFERENCE_SBOX, gf2_rank, induced_sbox_table, sbox_slicewise

word = st.integers(min_value=0, max_value=MASK64)
states = st.builds(State, word, word, word, word, word)

# 12-round permutation of (ASCON-128 IV, 0, 0, 0, 0), pinned once from the
# reference-implementation oracle.
PERMUTE12_FIXTURE = State(
    0xB8DFF46B0DB421F8,
    0xED0232A7C68DED74,
    0x138A46B172B225F9,
    0xFA8EAAAAC685D26A,
    0xF044217FBE57E755,
)


class TestRotr64:
    def test_identity(self):
        assert rotr64(0x0123456789ABCDEF, 0) == 0x0123456789ABCDEF
        assert rotr64(0x0123456789ABCDEF, 64) == 0x0123456789ABCDEF  # one full turn

    def test_single_bit_wraparound(self):
        assert rotr64(0x0000000000000001, 1) == 0x8000000000000000

    def test_nibble_shift(self):
        assert rotr64(0x0123456789ABCDEF, 4) == 0xF0123456789ABCDE

    @pytest.mark.parametrize("amount", [-1, 65, 100])
    def test_rejects_out_of_range(self, amount):
        with pytest.raises(ValueError):
            rotr64(1, amount)

    @given(word, st.integers(min_value=1, max_value=63))
    def test_matches_left_rotation_by_complement(self, x, r):
        rotl = ((x << (64 - r)) | (x >> r)) & MASK64
        assert rotr64(x, r) == rotl

    @given(word, st.integers(min_value=0, max_value=63))
    def test_stays_in_word_range(self, x, r):
        assert 0 <= rotr64(x, r) <= MASK64


class TestRoundConstant:
    def test_schedule_is_pinned(self):
        assert ROUND_CONSTANTS == (
            0xF0, 0xE1, 0xD2, 0xC3, 0xB4, 0xA5, 0x96, 0x87, 0x78, 0x69, 0x5A, 0x4B,
        )

    @pytest.mark.parametrize("index,expected", [(0, 0xF0), (6, 0x96), (11, 0x4B)])
    def test_known_values(self, index, expected):
        assert ROUND_CONSTANTS[index] == expected

    def test_closed_form(self):
        assert ROUND_CONSTANTS == tuple(((0xF - i) << 4) | i for i in range(12))


class TestSubstitutionLayer:
    def test_zero_state(self):
        # every slice maps 00000 -> S(0) = 00100, so only s2 lights up
        assert substitution_layer(State(0, 0, 0, 0, 0)) == State(0, 0, MASK64, 0, 0)

    def test_circuit_table_matches_reference(self):
        assert induced_sbox_table() == list(REFERENCE_SBOX)

    def test_bijective_over_5_bits(self):
        assert sorted(induced_sbox_table()) == list(range(32))

    @given(states)
    def test_equals_slicewise_table_application(self, state):
        assert substitution_layer(state) == sbox_slicewise(state)

    def test_equals_slicewise_on_seeded_sample(self):
        rng = random.Random(0xA5C0)
        for _ in range(200):
            state = State(*(rng.getrandbits(64) for _ in range(5)))
            assert substitution_layer(state) == sbox_slicewise(state)


class TestLinearLayer:
    def test_zero_is_fixed_point(self):
        assert linear_layer(State(0, 0, 0, 0, 0)) == State(0, 0, 0, 0, 0)

    def test_single_bit_spread(self):
        # bit 63 of s0 lands on bits 63, 63-19, 63-28
        out = linear_layer(State(0x8000000000000000, 0, 0, 0, 0))
        assert out == State(0x8000100800000000, 0, 0, 0, 0)

    @given(states, states)
    @settings(max_examples=50)
    def test_linearity_over_gf2(self, a, b):
        both = State(*(x ^ y for x, y in zip(a, b)))
        expected = State(*(x ^ y for x, y in zip(linear_layer(a), linear_layer(b))))
        assert linear_layer(both) == expected

    def test_full_rank_per_word(self):
        for i, (r1, r2) in enumerate(ROTATIONS):
            columns = []
            for k in range(64):
                unit = 1 << k
                columns.append(unit ^ rotr64(unit, r1) ^ rotr64(unit, r2))
            assert gf2_rank(columns) == 64, f"word s{i} transform is singular"

    def test_matches_rotation_table(self):
        rng = random.Random(0x11ED)
        state = State(*(rng.getrandbits(64) for _ in range(5)))
        expected = State(
            *(w ^ rotr64(w, r1) ^ rotr64(w, r2) for w, (r1, r2) in zip(state, ROTATIONS))
        )
        assert linear_layer(state) == expected


class TestPermute:
    def test_pinned_12_round_fixture(self):
        assert permute(State(0x80400C0600000000, 0, 0, 0, 0), 12) == PERMUTE12_FIXTURE

    def test_deterministic(self):
        state = State(1, 2, 3, 4, 5)
        assert permute(state, 8) == permute(state, 8)

    def test_reduced_rounds_use_schedule_tail(self):
        state = PERMUTE12_FIXTURE
        for rounds in (6, 8, 12):
            expected = state
            for index in range(12 - rounds, 12):
                expected = expected._replace(s2=expected.s2 ^ ROUND_CONSTANTS[index])
                expected = linear_layer(substitution_layer(expected))
            assert permute(state, rounds) == expected

    @given(states, st.sampled_from((6, 8, 12)))
    @settings(max_examples=40)
    def test_composes_the_spec_layers_and_shows_each_step(self, state, rounds):
        calls = []
        result = permute(state, rounds, lambda *call: calls.append(call))
        assert result == permute(state, rounds)
        steps = ("post-constant", "post-sbox", "post-linear")
        assert [call[:2] for call in calls] == [
            (index, step) for index in range(12 - rounds, 12) for step in steps
        ]
        expected = state
        for index, step, seen in calls:
            if step == "post-constant":
                expected = expected._replace(s2=expected.s2 ^ ROUND_CONSTANTS[index])
            elif step == "post-sbox":
                expected = substitution_layer(expected)
            else:
                expected = linear_layer(expected)
            assert seen == expected, (index, step)
        # the calls come in schedule order, so this is the layers' composition
        assert expected == result

    def test_six_plus_six_differs_from_twelve(self):
        # both 6-round runs use constants 6..11, so the schedules differ
        state = State(0xDEADBEEF, 0x1234, 0x5678, 0x9ABC, 0xDEF0)
        assert permute(permute(state, 6), 6) != permute(state, 12)

    @pytest.mark.parametrize("rounds", [-1, 0, 5, 7, 11, 13])
    def test_rejects_invalid_round_count(self, rounds):
        with pytest.raises(ValueError):
            permute(State(0, 0, 0, 0, 0), rounds)

    @given(states)
    @settings(max_examples=25)
    def test_words_stay_in_range(self, state):
        assert all(0 <= w <= MASK64 for w in permute(state, 12))


class TestState:
    def test_bytes_round_trip(self):
        state = State(0x0123456789ABCDEF, 1, 2, 3, 0xFFFFFFFFFFFFFFFF)
        assert State.from_bytes(state.to_bytes()) == state

    def test_from_bytes_is_big_endian(self):
        data = bytes([0x80] + [0] * 39)
        assert State.from_bytes(data) == State(0x8000000000000000, 0, 0, 0, 0)

    @pytest.mark.parametrize("size", [0, 39, 41])
    def test_from_bytes_rejects_wrong_length(self, size):
        with pytest.raises(ValueError):
            State.from_bytes(bytes(size))

    def test_value_semantics(self):
        state = State(1, 2, 3, 4, 5)
        other = state._replace(s2=9)
        assert state.s2 == 3 and other.s2 == 9
