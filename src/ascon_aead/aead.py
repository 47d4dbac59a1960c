"""Authenticated encryption with associated data over the core permutation.

Both parameter sets, which differ only in their rate and their data-phase
rounds, drive the same four-phase duplex flow:

    initialize -> process_associated_data -> encrypt_data/decrypt_data -> finalize

The phase functions are exposed individually (they are pure State -> State
transformers) so the trace tooling and tests can pin intermediate states.
They are the reference definition of the cipher.  The AD and data phases
share one duplex routine, `_duplex`, of which the kernel's `duplex` is a
copy.  It handles the rate as one big-endian integer (s0, or s0 || s1),
moves blocks in and out of it with int.from_bytes/int.to_bytes, and runs
every permutation through `permute` below.  When the optional compiled
kernel (`_accel`) loads, `encrypt` and `decrypt` run each message through
it in one call, a compiled copy of these phases that takes the variant's
IV as its only parameter; otherwise they compose the phases here.
`backend_info` says which of the two runs.

Both check every argument.  On the kernel path a call meets one check, the
binding's, which copies once a bytes-like argument that is not `bytes`; only
when it refuses one does `_checked` run, to raise the error that names it.
The kernel verifies the tag and zeroes failed plaintext.

Neither path branches on, or indexes memory by, secret values in its
source, but only the kernel is constant-time: the phases here compute on
CPython ints, whose operations cost more as their digit counts grow, so on
the pure path timing depends on the key and the data.

Nonces must never repeat under the same key: encryption is deterministic,
and a repeated (key, nonce) pair forfeits confidentiality.  The library
does not and cannot detect reuse.

Keys are accepted as plain bytes and never stored on objects, logged, or
formatted into error messages.
"""

from __future__ import annotations

from . import permutation
from .permutation import MASK64, VALID_ROUNDS, State

KEY_BYTES = 16
NONCE_BYTES = 16
TAG_BYTES = 16
ROUNDS_A = 12  # initialization and finalization rounds, in every variant
ABSORB, ENCRYPT, DECRYPT = 0, 1, 2  # _duplex modes, numbered as in _accel.c

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
    __slots__ = _fields + ("iv_word", "_iv")
    rounds_a = ROUNDS_A

    def __init__(self, name: str, rate_bytes: int, rounds_b: int) -> None:
        if hasattr(self, "_iv"):  # __init__ called again on a built one
            raise AttributeError("cannot re-initialize an immutable VariantParams")
        # The compiled kernel relies on these; reject anything else up front.
        for field, value in (("rate_bytes", rate_bytes), ("rounds_b", rounds_b)):
            if not isinstance(value, int):
                raise TypeError(f"{field} must be an int, not {type(value).__name__}")
        if rate_bytes not in (8, 16):
            raise ValueError(f"rate must be 8 or 16 bytes, got {rate_bytes!r}")
        if rounds_b not in VALID_ROUNDS:
            raise ValueError(f"rounds_b must be in {VALID_ROUNDS}, got {rounds_b!r}")
        # The IV in bits and rounds; initialize packs it, and it is the kernel's parameter block.
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


#: Each argument after params, in order: its name and its length (0: any).
_ENCRYPT_ARGS = (("key", KEY_BYTES), ("nonce", NONCE_BYTES), ("associated_data", 0),
                 ("plaintext", 0))
_DECRYPT_ARGS = _ENCRYPT_ARGS[:3] + (("ciphertext", 0), ("tag", TAG_BYTES))


def _checked(table, params, *args) -> list:
    """`args` as bytes, or the error that names the first fault: types, then lengths."""
    if not isinstance(params, VariantParams):
        raise TypeError(f"params must be a VariantParams, not {type(params).__name__}")
    converted = []
    for (name, _), value in zip(table, args):
        try:
            converted.append(value if type(value) is bytes else memoryview(value).tobytes())
        except TypeError:
            kind = type(value).__name__
            raise TypeError(f"{name} must be a bytes-like object, not {kind}") from None
    for (name, size), value in zip(table, converted):
        if size:
            _check_length(name, value, size)
    return converted


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
    state = State.from_bytes(params._iv + key + nonce)
    state = permute(state, ROUNDS_A)
    k1, k2 = int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")
    return state._replace(s3=state.s3 ^ k1, s4=state.s4 ^ k2)


def _duplex(state: State, params: VariantParams, data: bytes, mode: int) -> tuple[State, bytes]:
    """Absorb, encrypt or decrypt `data`; the new state and the output.

    Step for step as its twin, `duplex` in _accel.c, which holds the rate as
    the word x0 and, at rate 16, x1: a rounds_b permutation after each whole
    block, none after the last 0 <= n < rate bytes and their padding.
    ENCRYPT emits the rate after absorbing, DECRYPT the rate XOR the input,
    which then becomes the rate (in the last block, its top n bytes).
    """
    rate, rounds = params.rate_bytes, params.rounds_b
    last = len(data) - len(data) % rate  # whole blocks, each permuted after
    out = bytearray()
    for off in range(0, last, rate):
        block = int.from_bytes(data[off : off + rate], "big")
        value = _rate_of(state, rate)
        if mode == DECRYPT:
            out += (value ^ block).to_bytes(rate, "big")
            value = block
        else:
            value ^= block
            if mode == ENCRYPT:
                out += value.to_bytes(rate, "big")
        state = permute(_with_rate(state, value, rate), rounds)
    n = len(data) - last
    low = 8 * (rate - n)  # the rate's bits below the last n bytes
    tail = int.from_bytes(data[last:], "big") << low
    value = _rate_of(state, rate)
    if mode == DECRYPT:
        out += ((value ^ tail) >> low).to_bytes(n, "big")
        value = tail | value & ((1 << low) - 1)
    else:
        value ^= tail
        if mode == ENCRYPT:
            out += (value >> low).to_bytes(n, "big")
    value ^= 0x80 << 8 * (rate - n - 1)
    return _with_rate(state, value, rate), bytes(out)


def process_associated_data(state: State, params: VariantParams, ad: bytes) -> State:
    """Absorb padded AD, permuting after every block, then flip the domain bit.

    Empty AD absorbs nothing and runs no permutation; the domain-separation
    XOR of 1 into the last bit of s4 happens unconditionally, fencing the AD
    phase off from the data phase.
    """
    if ad:
        state = permute(_duplex(state, params, ad, ABSORB)[0], params.rounds_b)
    return state._replace(s4=state.s4 ^ 1)


def encrypt_data(
    state: State, params: VariantParams, plaintext: bytes
) -> tuple[State, bytes]:
    """Duplex-encrypt each padded block; the ciphertext is as long as the plaintext."""
    return _duplex(state, params, plaintext, ENCRYPT)


def decrypt_data(
    state: State, params: VariantParams, ciphertext: bytes
) -> tuple[State, bytes]:
    """Duplex-decrypt; exact inverse of encrypt_data on state and data."""
    return _duplex(state, params, ciphertext, DECRYPT)


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
    if _accel_backend or (_accel_backend is None and _get_accel()):  # resolved once
        try:
            return _accel_backend.encrypt(params._iv, key, nonce, associated_data, plaintext)
        except (AttributeError, TypeError, ValueError):  # AttributeError: not a VariantParams
            pass  # _checked raises the error that names the argument at fault
    key, nonce, associated_data, plaintext = _checked(
        _ENCRYPT_ARGS, params, key, nonce, associated_data, plaintext
    )
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
    if _accel_backend or (_accel_backend is None and _get_accel()):
        try:
            plaintext = _accel_backend.decrypt(params._iv, key, nonce, associated_data,
                                               ciphertext, tag)
            if plaintext is None:
                raise AuthenticationFailure("authentication failed")
            return plaintext
        except (AttributeError, TypeError, ValueError):  # AttributeError: not a VariantParams
            pass  # _checked raises the error that names the argument at fault
    key, nonce, associated_data, ciphertext, tag = _checked(
        _DECRYPT_ARGS, params, key, nonce, associated_data, ciphertext, tag
    )
    import hmac  # only the pure path compares tags in Python
    state = initialize(params, key, nonce)
    state = process_associated_data(state, params, associated_data)
    state, plaintext = decrypt_data(state, params, ciphertext)
    if not hmac.compare_digest(finalize(state, params, key), tag):
        raise AuthenticationFailure("authentication failed")
    return plaintext
