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
    substitution_layer,
)

from oracles import (
    REFERENCE_SBOX,
    gf2_rank,
    induced_sbox_table,
    linear_from_table,
    rotate_right,
    round_steps,
    sbox_slicewise,
)

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
                columns.append(unit ^ rotate_right(unit, r1) ^ rotate_right(unit, r2))
            assert gf2_rank(columns) == 64, f"word s{i} transform is singular"

    def test_rotation_table_is_pinned(self):
        assert ROTATIONS == ((19, 28), (61, 39), (1, 6), (10, 17), (7, 41))

    def test_matches_rotation_table(self):
        rng = random.Random(0x11ED)
        for _ in range(200):
            state = State(*(rng.getrandbits(64) for _ in range(5)))
            assert linear_layer(state) == linear_from_table(state)


class TestPermute:
    def test_pinned_12_round_fixture(self):
        assert permute(State(0x80400C0600000000, 0, 0, 0, 0), 12) == PERMUTE12_FIXTURE

    def test_deterministic(self):
        state = State(1, 2, 3, 4, 5)
        assert permute(state, 8) == permute(state, 8)

    def test_reduced_rounds_use_schedule_tail(self):
        state = PERMUTE12_FIXTURE
        for rounds in (6, 8, 12):
            *_, (_, _, expected) = round_steps(state, rounds)
            assert permute(state, rounds) == expected

    @given(states, st.sampled_from((6, 8, 12)))
    @settings(max_examples=40)
    def test_composes_the_spec_layers_and_shows_each_step(self, state, rounds):
        calls = []
        result = permute(state, rounds, lambda *call: calls.append(call))
        assert result == permute(state, rounds)
        # the oracles' steps in schedule order, so the last is the layers' composition
        assert calls == list(round_steps(state, rounds))
        assert calls[-1][2] == result

    def test_six_plus_six_differs_from_twelve(self):
        # both 6-round runs use constants 6..11, so the schedules differ
        state = State(0xDEADBEEF, 0x1234, 0x5678, 0x9ABC, 0xDEF0)
        assert permute(permute(state, 6), 6) != permute(state, 12)

    @pytest.mark.parametrize("rounds", [-1, 0, 5, 7, 11, 13])
    def test_rejects_invalid_round_count(self, rounds):
        with pytest.raises(ValueError):
            permute(State(0, 0, 0, 0, 0), rounds)

    @pytest.mark.parametrize("rounds", [12.0, "12", None])
    def test_rejects_a_round_count_that_is_not_an_int(self, rounds):
        with pytest.raises(TypeError, match=f"^rounds must be an int, not {type(rounds).__name__}$"):
            permute(State(0, 0, 0, 0, 0), rounds)

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("value", [-1, MASK64 + 1])
    def test_rejects_a_word_out_of_range_without_printing_it(self, position, value):
        words = [0x0123456789ABCDEF] * 5
        words[position] = value
        # permute and both public layers share the one check
        for run in (lambda state: permute(state, 6), substitution_layer, linear_layer):
            with pytest.raises(ValueError, match=r"^state words must be in 0\.\.2\*\*64-1$"):
                run(State(*words))

    @pytest.mark.parametrize("word", [0, MASK64])
    def test_accepts_the_word_range_ends(self, word):
        assert all(0 <= w <= MASK64 for w in permute(State(*[word] * 5), 6))

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
