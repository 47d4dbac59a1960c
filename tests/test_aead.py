import copy
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ascon_aead import aead
from ascon_aead.aead import (
    ASCON_128,
    ASCON_128A,
    AuthenticationFailure,
    decrypt,
    decrypt_data,
    encrypt,
    encrypt_data,
    finalize,
    initialize,
    process_associated_data,
)
from ascon_aead.permutation import State, permute

from binding_driver import VALID_KINDS, WRONG_LENGTHS, WRONG_TYPES, outcome
from conftest import PORTABLE_BODY, accel_available, build_kernel_driver, variant_like
from mutants import FORGERY_MUTANTS, SHARED_STATE, use_kernel_mutant

KEY = bytes(range(16))
NONCE = bytes(range(16))

BOTH = pytest.mark.parametrize("params", [ASCON_128, ASCON_128A], ids=lambda p: p.name)

# initialize() output for key = nonce = 000102..0F, pinned from the
# reference-implementation oracle.
INIT_FIXTURES = {
    "ASCON-128": State(
        0xBC830FBEF3A1651B,
        0x487A66865036B909,
        0xA031B0C5810C1CD6,
        0xDD7CE72083702217,
        0x9B17156EDE557CE7,
    ),
    "ASCON-128a": State(
        0x6E480EFDD1B65260,
        0x6F3C06D33047C1B2,
        0x63A829BEB8AAD370,
        0xA282E964B4B757EC,
        0x03BF3B375A49AE6D,
    ),
}

KAT1_TAGS = {
    "ASCON-128": bytes.fromhex("E355159F292911F794CB1432A0103A8A"),
    "ASCON-128a": bytes.fromhex("7A834E6F09210957067B10FD831F0078"),
}

#: (rate_bytes, rounds_b) of every variant the constructor accepts
PAIRS = [(rate, rounds_b) for rate in (8, 16) for rounds_b in (6, 8, 12)]

keys = st.binary(min_size=16, max_size=16)
small = st.binary(max_size=96)


class TestVariantParams:
    def test_parameter_table(self):
        assert (ASCON_128.rate_bytes, ASCON_128.rounds_a, ASCON_128.rounds_b) == (8, 12, 6)
        assert (ASCON_128A.rate_bytes, ASCON_128A.rounds_a, ASCON_128A.rounds_b) == (16, 12, 8)
        assert aead.KEY_BYTES == aead.NONCE_BYTES == aead.TAG_BYTES == 16

    def test_iv_words_pinned(self):
        assert ASCON_128.iv_word == 0x80400C0600000000
        assert ASCON_128A.iv_word == 0x80800C0800000000

    @pytest.mark.parametrize(
        "field, value",
        [("rate_bytes", 32), ("rate_bytes", 0), ("rounds_b", 4), ("rounds_b", 13),
         # a = 12, the 16-byte sizes and the derived IV are not parameters
         ("rounds_a", 13), ("key_bytes", 8), ("iv_word", 1 << 64), ("iv_word", -1)],
    )
    def test_rejects_parameters_the_cipher_does_not_use(self, field, value):
        error = ValueError if field in aead.VariantParams._fields else TypeError
        with pytest.raises(error):
            variant_like(ASCON_128, **{field: value})

    @pytest.mark.parametrize("field, value", [("rate_bytes", 8.0), ("rate_bytes", "8"),
                                              ("rounds_b", 6.0), ("rounds_b", None)])
    def test_rejects_a_field_that_is_not_an_int_by_name(self, field, value):
        # 8.0 == 8, and "8" prints as 8: the type is checked first, by name
        with pytest.raises(TypeError) as info:
            variant_like(ASCON_128, **{field: value})
        assert str(info.value) == f"{field} must be an int, not {type(value).__name__}"

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            ASCON_128.rounds_b = 8
        with pytest.raises(AttributeError):
            ASCON_128._iv = bytes(8)
        with pytest.raises(AttributeError):
            del ASCON_128.iv_word
        with pytest.raises(AttributeError):
            ASCON_128.extra = 1  # no per-instance attributes
        with pytest.raises(AttributeError):
            ASCON_128.__init__("ASCON-128", 16, 8)
        assert (ASCON_128.rate_bytes, ASCON_128.rounds_b, ASCON_128.iv_word) == (
            8, 6, 0x80400C0600000000
        )

    def test_equality_hash_and_repr_go_by_the_fields(self):
        twin = variant_like(ASCON_128)
        assert twin is not ASCON_128
        assert twin == ASCON_128
        assert hash(twin) == hash(ASCON_128)
        assert twin._iv == ASCON_128._iv
        assert variant_like(ASCON_128, name="other") != ASCON_128
        assert ASCON_128 != ASCON_128A
        assert len({ASCON_128, twin, ASCON_128A}) == 2
        assert repr(ASCON_128) == "VariantParams(name='ASCON-128', rate_bytes=8, rounds_b=6)"

    @BOTH
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_are_equal(self, params, clone):
        twin = clone(params)
        assert type(twin) is aead.VariantParams
        assert twin == params
        assert twin._iv == params._iv
        assert encrypt(twin, KEY, NONCE, b"ad", b"pt") == encrypt(params, KEY, NONCE, b"ad", b"pt")

    def test_unpickling_invalid_fields_is_rejected(self):
        # protocol 0 writes each int field as text; rate_bytes is the only 8
        blob = pickle.dumps(ASCON_128, protocol=0)
        assert blob.count(b"I8\n") == 1
        with pytest.raises(ValueError, match="rate must be 8 or 16"):
            pickle.loads(blob.replace(b"I8\n", b"I32\n"))

    @pytest.mark.parametrize(
        "rate, rounds_b", PAIRS, ids=[f"rounds_b-{b}-rate-{rate}" for rate, b in PAIRS]
    )
    def test_every_parameter_field_reaches_the_backend(self, backend, rate, rounds_b):
        # The kernel decodes the rate and rounds_b from the IV alone.  All
        # six variants share one name, so a parameter block cached per name
        # or per class would give another pair's output.
        params = aead.VariantParams("same", rate, rounds_b)
        others = [aead.VariantParams("same", *pair) for pair in PAIRS if pair != (rate, rounds_b)]
        lengths = (0, rate - 1, rate, rate + 1, 2 * rate + 1)
        for ad_len in lengths:
            for pt_len in lengths:
                ad, pt = bytes(range(ad_len)), bytes(range(100, 100 + pt_len))
                ct, tag = encrypt(params, KEY, NONCE, ad, pt)
                assert decrypt(params, KEY, NONCE, ad, ct, tag) == pt
                for other in others:
                    assert encrypt(other, KEY, NONCE, ad, pt) != (ct, tag)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(aead, "_accel_backend", False)
                    assert encrypt(params, KEY, NONCE, ad, pt) == (ct, tag)


class TestInitialize:
    @BOTH
    def test_pinned_fixture(self, params):
        assert initialize(params, KEY, NONCE) == INIT_FIXTURES[params.name]

    def test_zero_key_nonce_reduces_to_bare_permutation(self):
        # with K = N = 0 the pre-permutation state is (IV, 0, 0, 0, 0) and
        # the trailing key XOR is a no-op
        state = initialize(ASCON_128, bytes(16), bytes(16))
        assert state == permute(State(ASCON_128.iv_word, 0, 0, 0, 0), 12)

    @BOTH
    def test_deterministic(self, params):
        assert initialize(params, KEY, NONCE) == initialize(params, KEY, NONCE)

    @BOTH
    @pytest.mark.parametrize("bad", [b"", bytes(15), bytes(17)])
    def test_rejects_bad_lengths(self, params, bad):
        with pytest.raises(ValueError):
            initialize(params, bad, NONCE)
        with pytest.raises(ValueError):
            initialize(params, KEY, bad)

    def test_error_messages_never_carry_key_bytes(self):
        odd_key = b"\xAB" * 17
        try:
            initialize(ASCON_128, odd_key, NONCE)
        except ValueError as exc:
            assert "ab" not in str(exc).lower()


class TestAssociatedData:
    @BOTH
    def test_empty_ad_only_flips_domain_bit(self, params):
        state = initialize(params, KEY, NONCE)
        out = process_associated_data(state, params, b"")
        assert out == state._replace(s4=state.s4 ^ 1)

    def test_full_block_ad_permutes_twice(self, monkeypatch, pure_path):
        calls = []
        real = permute

        def counting(state, rounds=12):
            calls.append(rounds)
            return real(state, rounds)

        monkeypatch.setattr(aead, "permute", counting)
        state = initialize(ASCON_128, KEY, NONCE)
        calls.clear()
        process_associated_data(state, ASCON_128, bytes(8))
        assert calls == [6, 6]  # data block plus the forced padding block

    @BOTH
    def test_single_byte_ad_changes_more_than_domain_bit(self, params):
        state = initialize(params, KEY, NONCE)
        assert process_associated_data(state, params, b"\x00") != process_associated_data(
            state, params, b""
        )


class TestDataPhase:
    @BOTH
    def test_empty_plaintext_absorbs_padding_without_permuting(self, params):
        state = initialize(params, KEY, NONCE)
        out, ct = encrypt_data(state, params, b"")
        assert ct == b""
        assert out == state._replace(s0=state.s0 ^ 0x8000000000000000)

    @BOTH
    def test_empty_ciphertext_mirrors_empty_plaintext(self, params):
        state = initialize(params, KEY, NONCE)
        out, pt = decrypt_data(state, params, b"")
        assert pt == b""
        assert out == state._replace(s0=state.s0 ^ 0x8000000000000000)

    @BOTH
    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 16, 63])
    def test_ciphertext_length_equals_plaintext_length(self, params, size):
        state = initialize(params, KEY, NONCE)
        _, ct = encrypt_data(state, params, bytes(size))
        assert len(ct) == size

    @BOTH
    def test_decrypt_data_inverts_encrypt_data(self, params):
        rng = random.Random(0xD0C)
        start = initialize(params, KEY, NONCE)
        for size in list(range(0, 40)) + [63, 64, 65, 128]:
            pt = rng.randbytes(size)
            state_e, ct = encrypt_data(start, params, pt)
            state_d, back = decrypt_data(start, params, ct)
            assert back == pt
            assert state_d == state_e
            assert aead._duplex(start, params, pt, aead.ABSORB) == (state_e, b"")

    @BOTH
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, params, data):
        pt = data.draw(small)
        state = initialize(params, KEY, NONCE)
        state_e, ct = encrypt_data(state, params, pt)
        state_d, back = decrypt_data(state, params, ct)
        assert (back, state_d) == (pt, state_e)


class TestFinalize:
    @BOTH
    def test_reproduces_record_1_tag(self, params):
        state = initialize(params, KEY, NONCE)
        state = process_associated_data(state, params, b"")
        state, _ = encrypt_data(state, params, b"")
        assert finalize(state, params, KEY) == KAT1_TAGS[params.name]

    @BOTH
    def test_deterministic(self, params):
        state = initialize(params, KEY, NONCE)
        assert finalize(state, params, KEY) == finalize(state, params, KEY)

    @BOTH
    def test_every_key_bit_matters(self, params):
        state = initialize(params, KEY, NONCE)
        baseline = finalize(state, params, KEY)
        changed = 0
        for bit in range(128):
            flipped = bytearray(KEY)
            flipped[bit // 8] ^= 1 << (bit % 8)
            if finalize(state, params, bytes(flipped)) != baseline:
                changed += 1
        assert changed == 128

    def test_rejects_bad_key_length(self):
        state = initialize(ASCON_128, KEY, NONCE)
        with pytest.raises(ValueError):
            finalize(state, ASCON_128, bytes(15))


def accepted_forgeries(params) -> list:
    """Which of four tampered messages decrypt: ciphertext, tag, AD or nonce changed."""
    ad, pt = b"header", b"payload bytes"
    ct, tag = aead.encrypt(params, KEY, NONCE, ad, pt)  # as patched, if it is
    cases = {
        "ciphertext": (NONCE, ad, bytes([ct[0] ^ 1]) + ct[1:], tag),
        "tag": (NONCE, ad, ct, bytes([tag[0] ^ 1]) + tag[1:]),
        "associated_data": (NONCE, ad + b"!", ct, tag),
        "nonce": (bytes([NONCE[0] ^ 1]) + NONCE[1:], ad, ct, tag),
    }
    accepted = []
    for name, (nonce, ad2, ct2, tag2) in cases.items():
        try:
            aead.decrypt(params, KEY, nonce, ad2, ct2, tag2)
        except AuthenticationFailure:
            continue
        accepted.append(name)
    return accepted


@pytest.mark.parametrize("name", sorted(FORGERY_MUTANTS))
def test_forgery_mutant_is_caught(name, monkeypatch, tmp_path, fresh_loader):
    """A tag check broken on one backend lets the tamper test's forgeries through."""
    backend, edit = FORGERY_MUTANTS[name]
    if backend == "kernel":
        use_kernel_mutant(monkeypatch, tmp_path, edit)
        if not accel_available():
            pytest.skip("the compiled C kernel could not be built or loaded")
    else:
        monkeypatch.setattr(aead, "_accel_backend", False)
        edit(monkeypatch)
    assert accepted_forgeries(ASCON_128) == ["ciphertext", "tag", "associated_data", "nonce"]
    assert aead.backend_info()["backend"] == backend


class TestEncryptDecrypt:
    @BOTH
    def test_record_1(self, params):
        ct, tag = encrypt(params, KEY, NONCE, b"", b"")
        assert ct == b""
        assert tag == KAT1_TAGS[params.name]
        assert decrypt(params, KEY, NONCE, b"", ct, tag) == b""

    @BOTH
    def test_deterministic(self, params):
        first = encrypt(params, KEY, NONCE, b"ad", b"message")
        assert encrypt(params, KEY, NONCE, b"ad", b"message") == first

    @BOTH
    @given(key=keys, nonce=keys, ad=small, pt=small)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, params, key, nonce, ad, pt):
        ct, tag = encrypt(params, key, nonce, ad, pt)
        assert len(ct) == len(pt)
        assert decrypt(params, key, nonce, ad, ct, tag) == pt

    @BOTH
    def test_tampering_is_rejected(self, params, backend):
        assert accepted_forgeries(params) == []

    def test_failure_carries_no_plaintext(self):
        pt = b"super secret payload"
        ct, tag = encrypt(ASCON_128, KEY, NONCE, b"", pt)
        bad_tag = bytes([tag[0] ^ 1]) + tag[1:]
        with pytest.raises(AuthenticationFailure) as info:
            decrypt(ASCON_128, KEY, NONCE, b"", ct, bad_tag)
        assert str(info.value) == "authentication failed"
        assert pt not in repr(info.value).encode()
        assert pt not in b"".join(
            arg if isinstance(arg, bytes) else str(arg).encode() for arg in info.value.args
        )

    @BOTH
    def test_wrong_key_is_rejected(self, params):
        ct, tag = encrypt(params, KEY, NONCE, b"", b"data")
        with pytest.raises(AuthenticationFailure):
            decrypt(params, bytes(16), NONCE, b"", ct, tag)

    def test_rejects_bad_tag_length(self):
        ct, tag = encrypt(ASCON_128, KEY, NONCE, b"", b"")
        with pytest.raises(ValueError):
            decrypt(ASCON_128, KEY, NONCE, b"", ct, tag[:-1])

    @BOTH
    def test_variants_disagree(self, params):
        other = ASCON_128A if params is ASCON_128 else ASCON_128
        assert encrypt(params, KEY, NONCE, b"", b"x") != encrypt(other, KEY, NONCE, b"", b"x")

    def test_concurrent_callers_agree(self):
        # everything is a pure function on values; hammer it from threads
        from concurrent.futures import ThreadPoolExecutor

        expected = encrypt(ASCON_128, KEY, NONCE, b"ad", b"shared payload")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(
                    lambda _: encrypt(ASCON_128, KEY, NONCE, b"ad", b"shared payload"),
                    range(64),
                )
            )
        assert results == [expected] * 64


BYTES_LIKE = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}


def _chain(error: BaseException) -> list:
    """`error` and every exception chained to it as its cause or context."""
    chain = [error]
    while chain[-1].__cause__ or chain[-1].__context__:
        chain.append(chain[-1].__cause__ or chain[-1].__context__)
    return chain


@pytest.fixture
def binding_calls(backend, monkeypatch):
    """What each call of the kernel binding returned or raised, in order.

    Empty on the pure path.  On the kernel path, spies that forward to the
    real binding's encrypt and decrypt record each outcome.
    """
    calls = []
    if backend == "kernel":
        kernel = aead._get_accel()
        for direction in ("encrypt", "decrypt"):
            def spy(*args, forward=getattr(kernel, direction)):
                try:
                    calls.append(forward(*args))
                except Exception as exc:
                    calls.append(exc)
                    raise
                return calls[-1]

            monkeypatch.setattr(kernel, direction, spy)
    return calls


class TestInputContract:
    @BOTH
    @given(data=st.data())
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_bytes_like_input_gives_the_bytes_result(self, params, backend, data):
        # and a mix with wrongly typed or sized arguments the error that the
        # pure path raises for it, which names the first fault
        key, nonce, ad, pt = data.draw(keys), data.draw(keys), data.draw(small), data.draw(small)
        ct, tag = encrypt(params, key, nonce, ad, pt)
        values = (key, nonce, ad, pt, ct, tag)
        wrapped = [VALID_KINDS[data.draw(st.sampled_from(sorted(VALID_KINDS)))](value)
                   for value in values]
        faults = data.draw(st.lists(st.integers(0, 5), max_size=2))
        for position in faults:
            sized = position in (0, 1, 5)  # the key, the nonce, the tag
            wrong = {**WRONG_TYPES, **(WRONG_LENGTHS if sized else {})}
            wrapped[position] = wrong[data.draw(st.sampled_from(sorted(wrong)))](values[position])
        for call, args in ((encrypt, wrapped[:4]), (decrypt, wrapped[:3] + wrapped[4:])):
            got = outcome(lambda: call(params, *args))
            if not faults:
                assert got == ((ct, tag) if call is encrypt else pt)
                assert all(type(part) is bytes for part in (got if call is encrypt else [got]))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(aead, "_accel_backend", False)
                assert outcome(lambda: call(params, *args)) == got

    def test_plain_bytes_make_one_binding_call_each(self, backend, binding_calls, monkeypatch):
        # and so does every other bytes-like kind; on the kernel path no check
        # in Python: the binding's is the only one; and on either path the
        # resolved backend is read without calling _get_accel
        checked, lookups = [], []
        check, get_accel = aead._checked, aead._get_accel
        monkeypatch.setattr(aead, "_checked", lambda *args: checked.append(args) or check(*args))
        monkeypatch.setattr(aead, "_get_accel", lambda: lookups.append(1) or get_accel())
        ct, tag = encrypt(ASCON_128, KEY, NONCE, b"ad", b"message")
        for kind in BYTES_LIKE.values():
            assert encrypt(ASCON_128, *map(kind, (KEY, NONCE, b"ad", b"message"))) == (ct, tag)
            assert decrypt(ASCON_128, *map(kind, (KEY, NONCE, b"ad", ct, tag))) == b"message"
        calls = 1 + 2 * len(BYTES_LIKE)
        assert binding_calls == ([(ct, tag)] + [(ct, tag), b"message"] * len(BYTES_LIKE)
                                 if backend == "kernel" else [])
        assert len(checked) == (0 if backend == "kernel" else calls)
        assert lookups == []

    @pytest.mark.parametrize("position", range(6))
    def test_str_is_rejected_by_name_without_key_bytes(self, backend, binding_calls, position):
        names = ("key", "nonce", "associated_data", "ciphertext", "tag")
        secret = "k" * 16
        args = [KEY, NONCE, b"", b"", bytes(16)]
        if position == 5:  # encrypt's plaintext
            args[3] = secret
            call, name = lambda: encrypt(ASCON_128, *args[:4]), "plaintext"
        else:
            args[position] = secret
            call, name = lambda: decrypt(ASCON_128, *args), names[position]
        with pytest.raises(TypeError) as info:
            call()
        assert name in str(info.value)
        assert secret not in str(info.value)
        assert all(link is not call for link in _chain(info.value) for call in binding_calls)
        assert len(binding_calls) == (backend == "kernel")

    @pytest.mark.parametrize("short", ["key", "nonce", "tag"])
    def test_short_inputs_never_reach_the_kernel(self, backend, binding_calls, short):
        # On the kernel path the binding refuses a short input before the
        # kernel runs; the caller then sees aead's own error, not the binding's.
        inputs = {"key": KEY, "nonce": NONCE, "tag": bytes(16)}
        inputs[short] = bytes(15)
        errors = []
        with pytest.raises(ValueError) as info:
            decrypt(ASCON_128, inputs["key"], inputs["nonce"], b"", b"", inputs["tag"])
        errors.append(info.value)
        if short != "tag":
            with pytest.raises(ValueError) as info:
                encrypt(ASCON_128, inputs["key"], inputs["nonce"], b"", b"")
            errors.append(info.value)
        for error in errors:
            assert str(error) == f"{short} must be 16 bytes, got 15"
            assert all(link is not call for link in _chain(error) for call in binding_calls)
        # each call went into the binding once, which raised and returned nothing
        assert len(binding_calls) == (len(errors) if backend == "kernel" else 0)
        assert all(isinstance(call, ValueError) for call in binding_calls)

    @pytest.mark.parametrize("faults, message", [
        pytest.param({"key": bytes(15), "nonce": "n" * 16},
                     "nonce must be a bytes-like object, not str", id="short-key-str-nonce"),
        pytest.param({"tag": bytes(15), "associated_data": [0]},
                     "associated_data must be a bytes-like object, not list",
                     id="short-tag-list-ad"),
        pytest.param({"key": bytes(15), "nonce": bytes(17)},
                     "key must be 16 bytes, got 15", id="short-key-long-nonce"),
        pytest.param({"nonce": bytes(15), "tag": bytes(17)},
                     "nonce must be 16 bytes, got 15", id="short-nonce-long-tag"),
        # the binding copies the bytearray, and must still refuse the list
        pytest.param({"key": bytearray(KEY), "associated_data": [0] * 16},
                     "associated_data must be a bytes-like object, not list",
                     id="bytearray-key-list-ad"),
        pytest.param({"key": bytearray(KEY), "nonce": bytes(15), "associated_data": [0] * 16},
                     "associated_data must be a bytes-like object, not list",
                     id="bytearray-key-short-nonce-list-ad"),
    ])
    def test_every_type_is_checked_before_any_length(self, backend, faults, message):
        args = {"key": KEY, "nonce": NONCE, "associated_data": b"", "ciphertext": b"",
                "tag": bytes(16), **faults}
        with pytest.raises((TypeError, ValueError)) as info:
            decrypt(ASCON_128, **args)
        assert str(info.value) == message
        if backend == "kernel":  # the binding on its own keeps the same order
            with pytest.raises((TypeError, ValueError)) as direct:
                aead._get_accel().decrypt(ASCON_128._iv, *args.values())
            assert type(direct.value) is type(info.value), direct.value

    def test_params_must_be_a_variant(self, backend):
        for call in (lambda: encrypt("ascon128", KEY, NONCE, b"", b""),
                     lambda: decrypt("ascon128", KEY, NONCE, b"", b"", bytes(16))):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == "params must be a VariantParams, not str"
            assert _chain(info.value) == [info.value]


_IV = ASCON_128._iv  # the kernel's whole parameter block


def _iv_with(index: int, value: int) -> bytes:
    """ASCON-128's IV with one byte replaced."""
    iv = bytearray(_IV)
    iv[index] = value
    return bytes(iv)


#: case -> (argument position, value, error, the text that names its reason)
#: for a direct call of the kernel module.  An error of None marks a value the
#: module takes: a bytes-like kind that it reads as the bytes the argument holds.
KERNEL_ARGS = {
    # every refused type at every position; PyBytes_FromObject alone would take the list
    **{f"{arg}-{kind}": (position, value, TypeError, f"{arg} must be bytes-like, not {name}")
       for position, arg in enumerate(("params", "key", "nonce", "ad", "data", "tag"))
       for kind, name, value in (("str", "str", "s" * 16), ("list", "list", [0] * 16),
                                 ("none", "NoneType", None))},
    "key-bytearray": (1, bytearray, None, None),
    "nonce-memoryview": (2, memoryview, None, None),
    "data-bytearray": (4, bytearray, None, None),
    "tag-bytearray": (5, bytearray, None, None),
    # a valid IV cut short or run on, so only the length is wrong
    "params-7-bytes": (0, _IV[:7], ValueError, "params must be 8 bytes, got 7"),
    "params-9-bytes": (0, _IV + bytes(1), ValueError, "params must be 8 bytes, got 9"),
    "params-10-bytes": (0, _IV + bytes(2), ValueError, "params must be 8 bytes, got 10"),
    "params-12-bytes": (0, _IV + bytes(4), ValueError, "params must be 8 bytes, got 12"),
    "key-15-bytes": (1, bytes(15), ValueError, "key must be 16 bytes, got 15"),
    "key-17-bytes": (1, bytes(17), ValueError, "key must be 16 bytes, got 17"),
    "nonce-15-bytes": (2, bytes(15), ValueError, "nonce must be 16 bytes, got 15"),
    "nonce-empty": (2, b"", ValueError, "nonce must be 16 bytes, got 0"),
    # IV byte 1 is the rate in bits, byte 3 the data-phase rounds
    "rate-0": (0, _iv_with(1, 0), ValueError, "rate 64 or 128 bits"),
    "rate-8": (0, _iv_with(1, 8), ValueError, "rate 64 or 128 bits"),
    "rate-200": (0, _iv_with(1, 200), ValueError, "rate 64 or 128 bits"),
    "rounds-b-13": (0, _iv_with(3, 13), ValueError, "rounds_b 6, 8 or 12"),
    "rounds-b-255": (0, _iv_with(3, 255), ValueError, "rounds_b 6, 8 or 12"),
    # decrypt's sixth argument, the received tag
    "tag-15-bytes": (5, bytes(15), ValueError, "tag must be 16 bytes, got 15"),
    "tag-17-bytes": (5, bytes(17), ValueError, "tag must be 16 bytes, got 17"),
}
#: (direction, case) for every case an entry point has an argument for: the
#: tag cases for decrypt alone
KERNEL_ARG_CASES = [
    pytest.param(direction, case, id=f"{case}-{direction}")
    for case in sorted(KERNEL_ARGS)
    for direction in ("encrypt", "decrypt")
    if direction == "decrypt" or KERNEL_ARGS[case][0] < 5
]


#: The thread test's plaintext: 4 KiB, above GIL_MINSIZE in _kernelmodule.c
THREAD_TEST_PT = bytes(range(256)) * 16


def _lost_round_trips(pt: bytes, count: int = 2000) -> int:
    """How many of `count` round trips of `pt`, run from 8 threads, go wrong.

    A round trip goes wrong when its ciphertext or tag differs from the one
    the same backend gives for its nonce in one thread, or when it does not
    decrypt to `pt`.  The switch interval is shortened so that threads
    interleave as often as they can.
    """
    import sys
    from concurrent.futures import ThreadPoolExecutor

    nonces = [i.to_bytes(16, "big") for i in range(count)]

    def round_trip(nonce):
        ct, tag = encrypt(ASCON_128A, KEY, nonce, b"ad", pt)
        try:
            return ct, tag, decrypt(ASCON_128A, KEY, nonce, b"ad", ct, tag)
        except AuthenticationFailure:
            return ct, tag, None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(round_trip, nonces, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    single = [(*encrypt(ASCON_128A, KEY, nonce, b"ad", pt), pt) for nonce in nonces]
    return sum(got != want for got, want in zip(threaded, single))


@pytest.mark.skipif(
    not accel_available(), reason="the compiled C kernel could not be built or loaded"
)
class TestAcceleratedPath:
    @BOTH
    def test_matches_pure_path_across_sizes(self, params):
        rng = random.Random(0xACCE1)
        key, nonce = rng.randbytes(16), rng.randbytes(16)
        sizes = [0, 1, params.rate_bytes, 255, 256, 257, 1024, 4096]
        for size in sizes:
            pt, ad = rng.randbytes(size), rng.randbytes(size // 2)
            fast = encrypt(params, key, nonce, ad, pt)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(aead, "_accel_backend", False)
                slow = encrypt(params, key, nonce, ad, pt)
            assert fast == slow, f"paths diverge at size {size}"
            assert decrypt(params, key, nonce, ad, *fast) == pt

    @BOTH
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_aead_matches_reference_around_block_edges(self, params, data):
        # AD and PT lengths of 0-4 blocks, and one byte either side
        r = params.rate_bytes
        lengths = sorted({max(0, n * r + d) for n in range(5) for d in (-1, 0, 1)})
        sized = st.sampled_from(lengths).flatmap(lambda n: st.binary(min_size=n, max_size=n))
        key, nonce, ad, pt = data.draw(keys), data.draw(keys), data.draw(sized), data.draw(sized)
        fast = encrypt(params, key, nonce, ad, pt)
        assert decrypt(params, key, nonce, ad, *fast) == pt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aead, "_accel_backend", False)
            assert encrypt(params, key, nonce, ad, pt) == fast
            assert decrypt(params, key, nonce, ad, *fast) == pt

    def test_threads_get_their_own_state_buffers(self):
        # the kernel module releases the GIL for messages of 2 KiB or more
        # (GIL_MINSIZE in _kernelmodule.c), so such calls from threads overlap
        # in C; a buffer shared between calls would hand one thread another's
        # output.  test_shared_state_mutant_is_caught is its negative control.
        assert _lost_round_trips(THREAD_TEST_PT) == 0

    def test_bytearray_resized_by_another_thread_gives_one_of_its_contents(self):
        # The binding copies a bytearray before it releases the GIL, so a
        # resize in another thread cannot change what the kernel reads: each
        # result is the encryption of the buffer before or after some resize.
        import sys
        import threading

        contents = (THREAD_TEST_PT, THREAD_TEST_PT[::-1] + bytes(8))  # 4 KiB and 4 KiB + 8
        expected = {encrypt(ASCON_128A, KEY, NONCE, b"ad", pt) for pt in contents}
        buffer, stop = bytearray(contents[0]), threading.Event()

        def resize():
            while not stop.is_set():
                for pt in contents:
                    buffer[:] = pt

        resizer = threading.Thread(target=resize)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        resizer.start()
        try:
            results = [encrypt(ASCON_128A, KEY, NONCE, b"ad", buffer) for _ in range(3000)]
        finally:
            stop.set()
            resizer.join()
            sys.setswitchinterval(interval)
        assert set(results) == expected

    def test_shared_state_mutant_is_caught(self, monkeypatch, tmp_path, fresh_loader):
        import os

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            pytest.skip("calls overlap in C only rarely on one CPU")
        use_kernel_mutant(monkeypatch, tmp_path, SHARED_STATE)
        assert accel_available(), "the mutant kernel could not be built or loaded"
        assert _lost_round_trips(THREAD_TEST_PT) > 0
        # below GIL_MINSIZE a call holds the GIL, so it cannot overlap
        # another and the shared state does no harm
        assert _lost_round_trips(bytes(range(256)) * 4) == 0

    def test_backend_info_names_the_loaded_library(self):
        import json
        from pathlib import Path

        import ascon_aead

        encrypt(ASCON_128, KEY, NONCE, b"ad", b"message")
        info = ascon_aead.backend_info()
        assert info["backend"] == "kernel"
        assert Path(info["library"]).is_file()
        assert info["unavailable_reason"] is None
        text = json.dumps(info)  # bench/run.py writes it into its JSON record
        assert json.loads(text) == info
        assert KEY.hex() not in text.lower() and b"message".hex() not in text

    @BOTH
    def test_kernels_pass_kat_subset(self, params, kat_records):
        from ascon_aead.kat import run_kat

        name = "ascon128" if params is ASCON_128 else "ascon128a"
        subset = kat_records[name][::37]
        report = run_kat(subset, params)
        assert report.failed == 0
        assert report.passed == 2 * len(subset)

    def test_unwritable_cache_falls_back_to_private_temp_dir(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        import os
        import tempfile

        from ascon_aead import _accel

        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        monkeypatch.setattr(_accel, "_CACHE_DIR", blocker / "__pycache__")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        kernel = _accel.load()
        assert kernel, _accel.UNAVAILABLE_REASON
        private = tmp_path / f"ascon-aead-{os.getuid()}"
        assert [p.suffix for p in private.iterdir()] == [".so"]
        assert aead.backend_info()["library"] == str(next(private.iterdir()))
        assert private.stat().st_mode & 0o777 == 0o700
        fast = kernel.encrypt(ASCON_128._iv, KEY, NONCE, b"ad", b"message")
        monkeypatch.setattr(aead, "_accel_backend", False)
        assert fast == encrypt(ASCON_128, KEY, NONCE, b"ad", b"message")

    def test_compile_prunes_superseded_builds_only(self, monkeypatch, tmp_path, fresh_loader):
        from ascon_aead import _accel

        cache = tmp_path / "cache"
        cache.mkdir()
        old = "_accel-0123456789abcdef"
        superseded = cache / f"{old}{_accel._EXT_SUFFIX}"
        kept = [
            cache / f"{old}.so",  # a bare .so, not this interpreter's suffix
            cache / f"{old}.cpython-399-x86_64-linux-gnu.so",  # another interpreter's build
            cache / f"{old}{_accel._EXT_SUFFIX[:-3]}-k3x9q2.tmp",  # another process compiling
            cache / "_accel-0123.so",
            cache / "notes.txt",
        ]
        for path in [superseded, *kept]:
            path.write_bytes(b"")
        # unlink fails on a directory; the error is ignored and the kernel loads
        blocked = cache / f"_accel-fedcba9876543210{_accel._EXT_SUFFIX}"
        blocked.mkdir()
        monkeypatch.setattr(_accel, "_CACHE_DIR", cache)
        assert _accel.load(), _accel.UNAVAILABLE_REASON
        library = Path(_accel.LIBRARY)
        assert library.parent == cache
        assert sorted(cache.iterdir()) == sorted([library, blocked, *kept])
        # loading a cached build deletes nothing
        superseded.write_bytes(b"")
        for name in ("_kernel", "LIBRARY"):
            monkeypatch.setattr(_accel, name, None)
        assert _accel.load()
        assert _accel.LIBRARY == str(library)
        assert superseded.exists()

    def test_interpreters_with_one_abi_tag_share_one_build(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        # another interpreter with this ABI tag whose headers lie elsewhere,
        # or are not installed, loads the build already in the cache
        import sysconfig

        from ascon_aead import _accel

        cache = tmp_path / "cache"
        monkeypatch.setattr(_accel, "_CACHE_DIR", cache)
        assert _accel.load(), _accel.UNAVAILABLE_REASON
        library = _accel.LIBRARY
        (tmp_path / "headers").mkdir()
        monkeypatch.setattr(sysconfig, "get_paths",
                            lambda *args, **kw: {"include": str(tmp_path / "headers")})
        for name in ("_kernel", "LIBRARY"):
            monkeypatch.setattr(_accel, name, None)
        assert _accel.load(), _accel.UNAVAILABLE_REASON
        assert _accel.LIBRARY == library
        assert [str(path) for path in cache.iterdir()] == [library]

    @pytest.mark.parametrize("direction, case", KERNEL_ARG_CASES)
    def test_kernel_module_checks_its_own_arguments(self, direction, case):
        # Called directly, past aead's checks, the module must refuse what
        # would make the kernel read or write outside its buffers, and read
        # any other bytes-like argument as the bytes it holds.
        position, value, error, reason = KERNEL_ARGS[case]
        kernel = aead._get_accel()
        ct, tag = kernel.encrypt(ASCON_128._iv, KEY, NONCE, b"ad", bytes(40))
        args = [ASCON_128._iv, KEY, NONCE, b"ad", bytes(40)]
        if direction == "decrypt":
            args[4:] = [ct, tag]
        call = getattr(kernel, direction)
        expected = call(*args)
        if error is None:
            args[position] = value(args[position])
            assert call(*args) == expected
        else:
            args[position] = value
            with pytest.raises(error) as info:
                call(*args)
            assert reason in str(info.value)
            assert KEY.hex() not in str(info.value)
        with pytest.raises(TypeError, match="expected"):
            call(*args[:-1])
        with pytest.raises(TypeError, match="expected"):
            call(*args, b"")


def test_round_trips_leak_no_memory(backend):
    # One bytes object or tuple left unreleased per message would add 50k
    # allocated blocks on the kernel path (1.2k on the slower pure path), and
    # one per forged tag, which makes the binding return None, 6k.  Two in
    # three messages pass bytearray or memoryview arguments, which the binding
    # copies; one copy left unreleased per such message would add 33k.  Every
    # eighth message also makes two calls that are refused after the binding
    # has copied the arguments before the fault: 6k more per copy kept.  On
    # the kernel, every eighth also calls the module with the IV as a
    # bytearray, the one argument aead always passes as bytes: 6k more.
    import gc
    import sys

    count = 25_000 if backend == "kernel" else 600
    messages = [bytes(range(n % 70)) for n in range(count)]
    kinds = list(BYTES_LIKE.values())
    kernel = aead._get_accel() if backend == "kernel" else None

    def run():
        for i, pt in enumerate(messages):
            kind = kinds[i % len(kinds)]
            nonce = (i & 0xFF).to_bytes(16, "big")
            ct, tag = encrypt(ASCON_128A, kind(KEY), kind(nonce), kind(pt[:7]), kind(pt))
            if i % 8 == 0:
                with pytest.raises(AuthenticationFailure):
                    decrypt(ASCON_128A, KEY, nonce, pt[:7], kind(ct), bytes(16))
            else:
                decrypt(ASCON_128A, KEY, kind(nonce), pt[:7], ct, kind(tag))
            if i % 8 == 1:
                copied = (bytearray(KEY), memoryview(nonce), bytearray(pt[:7]))
                with pytest.raises(TypeError):
                    encrypt(ASCON_128A, *copied, "not bytes")
                with pytest.raises(ValueError):
                    decrypt(ASCON_128A, *copied, bytearray(ct), bytearray(15))
            if i % 8 == 2 and kernel is not None:
                iv = bytearray(ASCON_128A._iv)
                assert kernel.encrypt(iv, KEY, nonce, pt[:7], pt) == (ct, tag)

    run()  # warm up the caches a first run may fill
    gc.collect()
    before = sys.getallocatedblocks()
    run()
    run()
    gc.collect()
    assert sys.getallocatedblocks() - before < 1000


def test_library_name_covers_sources_flags_and_abi_not_headers(tmp_path, monkeypatch):
    import sysconfig

    from ascon_aead import _accel

    base = _accel._library_name()
    assert base == _accel._library_name()
    assert base.endswith(_accel._EXT_SUFFIX)
    for name in ("_SOURCE", "_BINDING"):
        edited = tmp_path / f"{name}.c"
        edited.write_bytes(Path(getattr(_accel, name)).read_bytes() + b"\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_accel, name, edited)
            assert _accel._library_name() != base, name
    for name, value in [
        ("_COMPILER", "gcc"),
        ("_CFLAGS", (*_accel._CFLAGS, "-g")),
        ("_EXT_SUFFIX", ".cpython-399-x86_64-linux-gnu.so"),
    ]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_accel, name, value)
            assert _accel._library_name() != base, name
    # the ABI tag names the headers; where they lie is asked only to compile
    monkeypatch.setattr(sysconfig, "get_paths", lambda *args, **kw: {"include": str(tmp_path)})
    assert _accel._library_name() == base


@pytest.mark.parametrize(
    "setting, value, reason",
    [
        ("_COMPILER", "no-such-cc", "'no-such-cc' not found on PATH"),
        ("_COMPILER", "false", "false failed with exit"),
        ("include", "headers", "Python.h"),  # a header directory without Python.h
    ],
)
def test_kernel_fallback_keeps_pure_path_and_reason(
    setting, value, reason, kat_records, monkeypatch, tmp_path, fresh_loader
):
    from ascon_aead import _accel
    from ascon_aead.kat import run_kat

    # an empty cache, a compiler that is missing or fails or no CPython
    # headers, and no load tried yet
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(_accel, "_CACHE_DIR", cache)
    if setting == "include":
        import sysconfig

        (tmp_path / value).mkdir()
        monkeypatch.setattr(sysconfig, "get_paths",
                            lambda *args, **kw: {"include": str(tmp_path / value)})
    else:
        monkeypatch.setattr(_accel, setting, value)
    subset = kat_records["ascon128"][::37]
    report = run_kat(subset, ASCON_128)
    assert report.failed == 0
    assert report.passed == 2 * len(subset)
    assert aead._accel_backend is False
    assert reason in _accel.UNAVAILABLE_REASON
    assert aead.backend_info() == {
        "backend": "pure", "library": None, "unavailable_reason": _accel.UNAVAILABLE_REASON
    }
    assert list(cache.iterdir()) == [], "a failed build must leave no file behind"


@pytest.mark.parametrize("planted", ["world-writable", "symlink"])
def test_private_temp_dir_refuses_a_directory_others_control(
    planted, monkeypatch, tmp_path, fresh_loader
):
    # A library planted in the fallback cache would run in this process.  A
    # directory owned by another user needs a second uid, so it is not tested.
    import os
    import tempfile

    from ascon_aead import _accel

    private = tmp_path / f"ascon-aead-{os.getuid()}"
    if planted == "world-writable":
        private.mkdir()
        private.chmod(0o777)
        target = private
    else:
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        private.symlink_to(target)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(OSError, match="not a private directory"):
        _accel._private_temp_dir()
    # with the package cache unwritable too, no cache directory is left
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"")
    monkeypatch.setattr(_accel, "_CACHE_DIR", blocker / "__pycache__")
    assert _accel.load() is None
    reason = _accel.UNAVAILABLE_REASON
    assert f"{private} is not a private directory" in reason
    assert aead.backend_info() == {"backend": "pure", "library": None, "unavailable_reason": reason}
    assert list(target.iterdir()) == []


def test_kernel_source_compiles_without_warnings(tmp_path):
    import shutil
    import subprocess
    import sysconfig

    from ascon_aead import _accel

    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    # the command that ships, with every warning an error
    flags = [*_accel._CFLAGS, "-Wall", "-Wextra", "-Wpedantic", "-Wconversion", "-Werror"]
    # the core on its own, without Python's headers, then with its binding,
    # then with the tests' C driver; each with both bodies where the
    # toolchain makes two, and with one
    driver = str(Path(__file__).with_name("kernel_driver.c"))
    include = sysconfig.get_paths()["include"]
    for body in ([], [PORTABLE_BODY]):
        for extra in ([], [f"-I{include}", str(_accel._BINDING)], [driver]):
            proc = subprocess.run(
                [compiler, *flags, *body, "-o", str(tmp_path / "kernel.so"),
                 str(_accel._SOURCE), *extra],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, (body, proc.stderr)


def _sanitizer_flags(tmp_path) -> tuple[str, list[str]]:
    """cc and its flags for AddressSanitizer and UBSan; skips where they do not link."""
    import shutil
    import subprocess

    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    flags = ["-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run([compiler, *flags, "-o", str(tmp_path / "probe"), str(probe)],
                      capture_output=True, timeout=120).returncode != 0:
        pytest.skip("the sanitizer runtimes do not link here")
    return compiler, flags


def test_kernel_entry_points_stay_inside_their_buffers(tmp_path):
    # The KAT gate cannot see a write one byte past the output or the tag,
    # so kernel_driver.c runs every block edge on exact-size heap buffers
    # under AddressSanitizer and UndefinedBehaviorSanitizer.
    import subprocess

    _, sanitize = _sanitizer_flags(tmp_path)
    cases = sum((3 * rate + 2) ** 2 for rate in (8, 16))  # lengths 0 to 3 blocks + 1, squared
    # the body the loader picks on this CPU, then the baseline body
    for body in ([], [PORTABLE_BODY]):
        directory = tmp_path / ("portable" if body else "picked")
        directory.mkdir()
        driver = build_kernel_driver(directory, *sanitize, *body)
        proc = subprocess.run([str(driver)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (body, proc.stderr[-2000:])
        assert proc.stdout.strip() == f"{cases} cases passed"


def test_kernel_driver_times_the_kat_inputs_in_both_directions(tmp_path):
    # the kernel's timing harness: one pass, checked for its shape and for
    # every right tag accepted; the times themselves are not gated
    import re
    import subprocess

    driver = build_kernel_driver(tmp_path, "-O2", "-DNDEBUG")
    proc = subprocess.run([str(driver), "time", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"2178 inputs, fastest of 1 passes\n"
                        r"encrypt \d+\.\d ns per call\n"
                        r"decrypt \d+\.\d ns per call, 0 rejected\n", proc.stdout), proc.stdout


def test_kernel_driver_time_refuses_fewer_than_one_pass(tmp_path):
    import subprocess

    driver = build_kernel_driver(tmp_path, "-O2", "-DNDEBUG")
    for passes in ("0", "-1", "many"):
        proc = subprocess.run([str(driver), "time", passes], capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), passes
        assert proc.stderr == "PASSES must be at least 1\n", passes


def test_binding_stays_inside_its_buffers_and_references(tmp_path):
    # binding_driver.py calls both entry points of a module built under
    # AddressSanitizer and UndefinedBehaviorSanitizer with every bytes-like
    # kind and every refused value at every position.  The child allocates
    # with malloc, so the sanitizer sees each bytes object's exact size.
    import os
    import subprocess
    import sys
    import sysconfig

    from ascon_aead import _accel

    compiler, flags = _sanitizer_flags(tmp_path)
    runtimes = [subprocess.run([compiler, f"-print-file-name={name}"], capture_output=True,
                               text=True, timeout=60).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    if not all(os.path.isabs(path) for path in runtimes):
        pytest.skip("cc does not name the sanitizer runtimes' paths")
    module = tmp_path / f"_kernel{_accel._EXT_SUFFIX}"
    build = subprocess.run(
        [compiler, *_accel._CFLAGS, *flags, f"-I{sysconfig.get_paths()['include']}",
         "-o", str(module), str(_accel._SOURCE), str(_accel._BINDING)],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    src = str(Path(aead.__file__).parents[1])
    env = {**os.environ, "LD_PRELOAD": " ".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONMALLOC": "malloc",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("binding_driver.py")),
                           str(module)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # 2 variants x 3 lengths x (56 encrypt + 68 decrypt) argument values
    assert proc.stdout.strip() == "744 cases passed"


def _objdump(*options: str) -> str:
    """`objdump` of the loaded kernel with `options`; skips but for gcc 12+ on x86-64 glibc."""
    import os
    import platform
    import re
    import shutil
    import subprocess

    from ascon_aead import _accel

    compiler, objdump = shutil.which("cc"), shutil.which("objdump")
    if (platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc"
            or compiler is None or objdump is None):
        pytest.skip("needs x86-64 with glibc, and cc and objdump on PATH")
    macros = subprocess.run([compiler, "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True, timeout=60).stdout
    gnuc = re.search(r"#define __GNUC__ (\d+)", macros)
    if "__clang__" in macros or gnuc is None or int(gnuc[1]) < 12:
        pytest.skip("cc is not gcc 12 or later, so _accel.c builds one body")
    assert accel_available(), _accel.UNAVAILABLE_REASON
    return subprocess.run([objdump, *options, _accel.LIBRARY],
                          capture_output=True, text=True, timeout=60, check=True).stdout


def test_module_exports_only_its_init_and_calls_the_kernel_directly():
    # -fvisibility=hidden in _accel._CFLAGS: the entry points are no dynamic
    # symbols, so the binding reaches them without the PLT and no other
    # library can interpose them
    import re

    defined = [line.split()[-1] for line in _objdump("-T").splitlines()
               if re.match(r"[0-9a-f]+ ", line) and "*UND*" not in line]
    assert defined == ["PyInit__kernel"]
    listing = _objdump("-d", "--no-show-raw-insn")
    for name in ("ascon_encrypt", "ascon_decrypt"):
        assert re.search(rf"call\s+[0-9a-f]+ <{name}>", listing), name
    assert not re.search(r"<ascon_\w*@plt>", listing)


def test_both_bodies_start_on_a_64_byte_boundary():
    # aligned(64) in TWO_BODIES: the binding's PLT grows by 16 bytes per
    # C-API import and sits ahead of the kernel, and without the alignment
    # each import moved both bodies within their cache lines.
    import re

    starts = {name: int(address, 16) for address, name in
              re.findall(r"^([0-9a-f]+) .*\s(ascon_aead\.\S+)$", _objdump("-t"), re.M)}
    bodies = ("ascon_aead.default", "ascon_aead.arch_x86_64_v3")
    assert set(bodies) <= starts.keys()
    assert {name: starts[name] % 64 for name in bodies} == dict.fromkeys(bodies, 0)


def test_one_body_build_starts_on_a_64_byte_boundary(monkeypatch, tmp_path, fresh_loader):
    # noinline in TWO_BODIES' one-body branch: inlined into both entry
    # points, the body would start wherever they do, not on a cache line
    import re

    from ascon_aead import _accel

    monkeypatch.setattr(_accel, "_CFLAGS", (*_accel._CFLAGS, PORTABLE_BODY))
    monkeypatch.setattr(_accel, "_CACHE_DIR", tmp_path / "cache")
    starts = [int(address, 16) for address in
              re.findall(r"^([0-9a-f]+) .*\sascon_aead$", _objdump("-t"), re.M)]
    assert _accel.LIBRARY.startswith(str(tmp_path / "cache"))
    assert len(starts) == 1 and starts[0] % 64 == 0, [hex(start) for start in starts]


def _functions() -> dict:
    """The loaded kernel's functions: name -> its (address, "mnemonic operands") pairs."""
    import re

    bodies = {}
    for block in _objdump("-d", "--no-show-raw-insn").split("\n\n"):
        head, _, text = block.strip().partition("\n")
        name = re.fullmatch(r"[0-9a-f]+ <(.+)>:", head)
        if name:
            bodies[name[1]] = [(int(address, 16), insn) for address, insn in
                               (line.split(":\t", 1) for line in text.splitlines() if ":\t" in line)]
    return bodies


def test_each_entry_point_calls_only_its_own_direction():
    # run is inlined into encrypt and decrypt with `decrypting` a constant,
    # so neither entry point tests the direction at run time
    import re

    bodies = _functions()
    calls = {name: {callee for _, insn in bodies[name]
                    for callee in re.findall(r"call\s+[0-9a-f]+ <(ascon_\w+)>", insn)}
             for name in ("encrypt", "decrypt")}
    assert calls == {"encrypt": {"ascon_encrypt"}, "decrypt": {"ascon_decrypt"}}


def test_v3_body_uses_andn_and_rorx_and_inlines_every_call():
    # The x86-64-v3 body is the whole speed-up: andn and rorx in the round,
    # and, through `flatten`, duplex and permute compiled into it rather
    # than called as baseline functions.  Dropping either attribute fails here.
    bodies = _functions()
    assert {"ascon_aead.arch_x86_64_v3", "ascon_aead.default"} <= bodies.keys()
    v3 = [insn for _, insn in bodies["ascon_aead.arch_x86_64_v3"]]
    assert {"andn", "rorx"} <= {insn.split()[0] for insn in v3}
    # a compiler that adds stack canaries by default calls its abort, and only on failure
    calls = [insn for insn in v3 if "call" in insn.split()[:2] and "<__stack_chk_fail" not in insn]
    assert calls == []


def test_bodies_divide_nowhere_and_the_v3_round_loop_has_no_not():
    # Whole blocks are found by a mask, not len / rate * rate.  x2 is held
    # complemented and the loop walks the complemented round constant, so
    # the S-box's final NOT is gone: no `not` in any loop of the v3 body
    # that holds one pass of two rounds, 20 rorx.
    import re

    bodies = _functions()
    for name in ("ascon_aead.arch_x86_64_v3", "ascon_aead.default"):
        divisions = [insn for _, insn in bodies[name] if insn.split()[0] in ("div", "idiv")]
        assert divisions == [], name
    v3 = bodies["ascon_aead.arch_x86_64_v3"]
    passes = []
    for address, insn in v3:
        jump = re.match(r"j\w+\s+([0-9a-f]+) ", insn)
        if jump and int(jump[1], 16) <= address:  # a backward jump closes a loop
            loop = [text.split()[0] for at, text in v3 if int(jump[1], 16) <= at <= address]
            if loop.count("rorx") == 20:
                passes.append(loop)
    assert passes, "no two-round loop in the v3 body"
    assert [loop.count("not") for loop in passes] == [0] * len(passes)
