"""Authenticated encryption with associated data over the core permutation.

Both parameter sets, which differ only in their rate and their data-phase
rounds, drive the same four-phase duplex flow:

    initialize -> process_associated_data -> encrypt_data/decrypt_data -> finalize

The phase functions are exposed individually (they are pure State -> State
transformers) so the trace tooling and tests can pin intermediate states.
They are the reference definition of the cipher.  They handle the rate as
one big-endian integer (s0, or s0 || s1), move blocks in and out of it
with int.from_bytes/int.to_bytes, and run every permutation through
`permute` below.  When the optional compiled kernel (`_accel`) loads,
`encrypt` and `decrypt` run each message through it in one call, a
compiled copy of these phases that takes the variant's IV as its only
parameter; otherwise they compose the phases here.
`backend_info` says which of the two runs.

Both check every argument.  Inputs that are already `bytes` with a key and
nonce of the right length pass one combined test; anything else goes
through the checks one by one, which convert other bytes-like objects and
raise the error that names the argument at fault.

Nonces must never repeat under the same key: encryption is deterministic,
and a repeated (key, nonce) pair forfeits confidentiality.  The library
does not and cannot detect reuse.

Keys are accepted as plain bytes and never stored on objects, logged, or
formatted into error messages.  (CPython offers no reliable way to zero
immutable buffers, so transient copies live until garbage collection.)
"""

from __future__ import annotations

import hmac

from . import permutation
from .codec import pad_10star
from .permutation import MASK64, VALID_ROUNDS, State

KEY_BYTES = 16
NONCE_BYTES = 16
TAG_BYTES = 16
ROUNDS_A = 12  # initialization and finalization rounds, in every variant

_accel_backend = None  # not probed yet; becomes the kernel module or False


class AuthenticationFailure(Exception):
    """Tag verification failed: tampering or wrong key/nonce/AD.

    Deliberately carries no detail about where verification diverged and
    no plaintext.
    """


class VariantParams:
    """One row of the cipher's parameter table: an immutable value.

    A variant is its rate and its data-phase rounds b.  The key, nonce and
    tag are 16 bytes and a = 12 (`ROUNDS_A`, also readable as `rounds_a`)
    in every variant, and `iv_word` is derived from all four as the
    specification lays it out: k || r || a || b || 0*.  The constructor
    rejects values the cipher does not use, and copies and pickles are
    rebuilt through it.  Equality, hashing and repr go by `_fields`.
    """

    _fields = ("name", "rate_bytes", "rounds_b")
    __slots__ = _fields + ("iv_word", "_kernel_params")
    rounds_a = ROUNDS_A

    def __init__(self, name: str, rate_bytes: int, rounds_b: int) -> None:
        if hasattr(self, "_kernel_params"):  # __init__ called again on a built one
            raise AttributeError("cannot re-initialize an immutable VariantParams")
        # The compiled kernel relies on these; reject anything else up front.
        if rate_bytes not in (8, 16):
            raise ValueError(f"rate must be 8 or 16 bytes, got {rate_bytes}")
        if rounds_b not in VALID_ROUNDS:
            raise ValueError(f"rounds_b must be in {VALID_ROUNDS}, got {rounds_b}")
        # The IV in bits and rounds; it is also the kernel's whole parameter block.
        iv = bytes((8 * KEY_BYTES, 8 * rate_bytes, ROUNDS_A, rounds_b, 0, 0, 0, 0))
        values = (name, rate_bytes, rounds_b, int.from_bytes(iv, "big"), iv)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable VariantParams")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable VariantParams")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, checks included
        return type(self), self._astuple()


ASCON_128 = VariantParams("ASCON-128", rate_bytes=8, rounds_b=6)
ASCON_128A = VariantParams("ASCON-128a", rate_bytes=16, rounds_b=8)

#: CLI-facing variant names.
VARIANTS = {"ascon128": ASCON_128, "ascon128a": ASCON_128A}


def _check_length(name: str, value: bytes, size: int) -> None:
    if len(value) != size:
        raise ValueError(f"{name} must be {size} bytes, got {len(value)}")


def _as_bytes(name: str, value) -> bytes:
    """`value` as bytes when it is bytes-like; TypeError naming `name` otherwise."""
    if type(value) is bytes:
        return value
    try:
        return memoryview(value).tobytes()
    except TypeError:
        kind = type(value).__name__
        raise TypeError(f"{name} must be a bytes-like object, not {kind}") from None


def _get_accel():
    """Resolve the compiled-kernel backend once: its extension module, or None.

    Why the kernel could not be built or loaded is kept in
    `_accel.UNAVAILABLE_REASON`.
    """
    global _accel_backend
    if _accel_backend is None:
        from . import _accel

        _accel_backend = _accel.load() or False
    return _accel_backend or None


def backend_info() -> dict:
    """Which backend runs encrypt and decrypt, as JSON-ready strings.

    "backend" is "kernel" or "pure"; "library" is the path of the loaded
    kernel, or None on the pure path; "unavailable_reason" is why the kernel
    could not be built or loaded, or None.  Resolves the backend, so the
    first call may build the kernel.
    """
    from . import _accel

    accel = _get_accel()
    return {
        "backend": "pure" if accel is None else "kernel",
        "library": None if accel is None else _accel.LIBRARY,
        "unavailable_reason": _accel.UNAVAILABLE_REASON,
    }


def permute(state: State, rounds: int = 12) -> State:
    """The permutation every phase calls.

    Phases look this name up at call time, so a stand-in set on the module
    (a counter, a tracer) sees every permutation they run.
    """
    return permutation.permute(state, rounds)


def _rate_of(state: State, rate: int) -> int:
    """The rate portion of the state as one big-endian integer: s0, or s0 || s1."""
    return state.s0 if rate == 8 else state.s0 << 64 | state.s1


def _with_rate(state: State, value: int, rate: int) -> State:
    """The state with its rate portion replaced by `value`; inverse of _rate_of."""
    if rate == 8:
        return state._replace(s0=value)
    return state._replace(s0=value >> 64, s1=value & MASK64)


def initialize(params: VariantParams, key: bytes, nonce: bytes) -> State:
    """Pack IV || K || N, run the a-round permutation, then XOR 0* || K in."""
    _check_length("key", key, KEY_BYTES)
    _check_length("nonce", nonce, NONCE_BYTES)
    state = State.from_bytes(params.iv_word.to_bytes(8, "big") + key + nonce)
    state = permute(state, ROUNDS_A)
    k1, k2 = int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")
    return state._replace(s3=state.s3 ^ k1, s4=state.s4 ^ k2)


def process_associated_data(state: State, params: VariantParams, ad: bytes) -> State:
    """Absorb padded AD, permuting after every block, then flip the domain bit.

    Empty AD absorbs nothing and runs no permutation; the domain-separation
    XOR of 1 into the last bit of s4 happens unconditionally, fencing the AD
    phase off from the data phase.
    """
    if ad:
        rate, rounds = params.rate_bytes, params.rounds_b
        padded = pad_10star(ad, rate)
        for off in range(0, len(padded), rate):
            block = int.from_bytes(padded[off : off + rate], "big")
            state = _with_rate(state, _rate_of(state, rate) ^ block, rate)
            state = permute(state, rounds)
    return state._replace(s4=state.s4 ^ 1)


def encrypt_data(
    state: State, params: VariantParams, plaintext: bytes
) -> tuple[State, bytes]:
    """Duplex-encrypt: absorb each padded block, emit the rate as ciphertext.

    A permutation runs between blocks but not after the last one, and the
    output is cut to |plaintext|, so the padding never reaches the wire.
    Only the final, partial (possibly empty) block is padded.
    """
    rate, rounds = params.rate_bytes, params.rounds_b
    split = len(plaintext) - len(plaintext) % rate  # whole blocks, each permuted after
    out = bytearray()
    for off in range(0, split, rate):
        value = _rate_of(state, rate) ^ int.from_bytes(plaintext[off : off + rate], "big")
        out += value.to_bytes(rate, "big")
        state = permute(_with_rate(state, value, rate), rounds)
    tail = plaintext[split:]
    value = _rate_of(state, rate) ^ int.from_bytes(pad_10star(tail, rate), "big")
    out += (value >> 8 * (rate - len(tail))).to_bytes(len(tail), "big")
    return _with_rate(state, value, rate), bytes(out)


def decrypt_data(
    state: State, params: VariantParams, ciphertext: bytes
) -> tuple[State, bytes]:
    """Duplex-decrypt; exact inverse of encrypt_data on state and data.

    Full blocks: plaintext = rate XOR ciphertext block, then the ciphertext
    block becomes the rate and a permutation runs.  The final partial block
    (possibly empty) yields the top bytes of the rate XOR the tail; the rate
    then absorbs that padded plaintext tail, as encrypt_data absorbed it,
    which leaves the ciphertext tail in its top bytes.
    """
    rate, rounds = params.rate_bytes, params.rounds_b
    split = len(ciphertext) - len(ciphertext) % rate
    out = bytearray()
    for off in range(0, split, rate):
        block = int.from_bytes(ciphertext[off : off + rate], "big")
        out += (_rate_of(state, rate) ^ block).to_bytes(rate, "big")
        state = permute(_with_rate(state, block, rate), rounds)
    tail = ciphertext[split:]
    value = _rate_of(state, rate)
    plain = value >> 8 * (rate - len(tail)) ^ int.from_bytes(tail, "big")
    plaintext_tail = plain.to_bytes(len(tail), "big")
    out += plaintext_tail
    value ^= int.from_bytes(pad_10star(plaintext_tail, rate), "big")
    return _with_rate(state, value, rate), bytes(out)


def finalize(state: State, params: VariantParams, key: bytes) -> bytes:
    """XOR the key in just past the rate, permute, and squeeze the 16-byte tag.

    The tag is the last two state words XORed with the key, emitted
    big-endian.
    """
    _check_length("key", key, KEY_BYTES)
    k1, k2 = int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")
    words = list(state)
    w = params.rate_bytes // 8
    words[w] ^= k1
    words[w + 1] ^= k2
    state = permute(State(*words), ROUNDS_A)
    return (state.s3 ^ k1).to_bytes(8, "big") + (state.s4 ^ k2).to_bytes(8, "big")


def encrypt(
    params: VariantParams,
    key: bytes,
    nonce: bytes,
    associated_data: bytes,
    plaintext: bytes,
) -> tuple[bytes, bytes]:
    """Encrypt and authenticate; returns (ciphertext, tag).

    key: 16 secret bytes.
    nonce: 16 public bytes, unique per (key, message).
    associated_data: authenticated but not encrypted; may be empty.
    plaintext: arbitrary length; the ciphertext has the same length.

    Every input may be any bytes-like object; anything else (a str, say)
    raises TypeError, and a key or nonce of the wrong length ValueError.
    """
    if not (
        type(key) is type(nonce) is type(associated_data) is type(plaintext) is bytes
        and len(key) == KEY_BYTES
        and len(nonce) == NONCE_BYTES
    ):
        key, nonce = _as_bytes("key", key), _as_bytes("nonce", nonce)
        associated_data = _as_bytes("associated_data", associated_data)
        plaintext = _as_bytes("plaintext", plaintext)
        _check_length("key", key, KEY_BYTES)
        _check_length("nonce", nonce, NONCE_BYTES)
    accel = _get_accel()
    if accel is not None:
        return accel.encrypt(params._kernel_params, key, nonce, associated_data, plaintext)
    state = initialize(params, key, nonce)
    state = process_associated_data(state, params, associated_data)
    state, ciphertext = encrypt_data(state, params, plaintext)
    tag = finalize(state, params, key)
    return ciphertext, tag


def decrypt(
    params: VariantParams,
    key: bytes,
    nonce: bytes,
    associated_data: bytes,
    ciphertext: bytes,
    tag: bytes,
) -> bytes:
    """Verify and decrypt; returns the plaintext.

    The recomputed tag is compared to `tag` in constant time.  On mismatch
    AuthenticationFailure is raised and no plaintext leaves this function.
    Inputs are checked as in `encrypt`, and so is the tag's length.
    """
    if not (
        type(key) is type(nonce) is type(associated_data) is type(ciphertext) is type(tag)
        is bytes
        and len(key) == KEY_BYTES
        and len(nonce) == NONCE_BYTES
        and len(tag) == TAG_BYTES
    ):
        key, nonce = _as_bytes("key", key), _as_bytes("nonce", nonce)
        associated_data = _as_bytes("associated_data", associated_data)
        ciphertext, tag = _as_bytes("ciphertext", ciphertext), _as_bytes("tag", tag)
        _check_length("key", key, KEY_BYTES)
        _check_length("nonce", nonce, NONCE_BYTES)
        _check_length("tag", tag, TAG_BYTES)
    accel = _get_accel()
    if accel is not None:
        plaintext, expected = accel.decrypt(
            params._kernel_params, key, nonce, associated_data, ciphertext
        )
    else:
        state = initialize(params, key, nonce)
        state = process_associated_data(state, params, associated_data)
        state, plaintext = decrypt_data(state, params, ciphertext)
        expected = finalize(state, params, key)
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationFailure("authentication failed")
    return plaintext
