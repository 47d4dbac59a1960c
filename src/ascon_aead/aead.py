"""Authenticated encryption with associated data over the core permutation.

Both parameter sets, which differ only in their rate and their data-phase
rounds, drive the same four-phase duplex flow:

    initialize -> process_associated_data -> encrypt_data/decrypt_data -> finalize

The phase functions are exposed individually (they are pure State -> State
transformers) so the trace tooling and tests can pin intermediate states.
They are the reference definition of the cipher.  The AD and data phases
share one duplex routine, `_duplex`: one loop over the 10*-padded blocks,
the last one included, with the state in five int locals and the rate as
one big-endian int (s0, or s0 || s1).  The kernel's `duplex` runs the same
steps, with the last block split off as a byte loop.  Every permutation
runs through `permute`, imported from `permutation` by name.
When the optional compiled kernel (`_accel`) loads, `encrypt` and `decrypt`
run each message through it in one call, a compiled copy of these phases
that takes the variant's IV as its only parameter; otherwise they compose
the phases here.  `_get_accel` picks the backend once, under `_accel_lock`,
and keeps it and any fallback's reason here, for `backend_info` to report.

Each backend checks every argument of `encrypt` and `decrypt` before any
work, and both raise the same errors, which name the first argument at
fault.  Each phase function checks its params and bytes arguments with
the same words, through the pure path's check, `_checked`, and its state
as `permute` does.  A `params` that is not a VariantParams never reaches
the kernel: `_checked` refuses it on either.  The kernel verifies the tag
and zeroes failed plaintext; its binding copies once a bytes-like argument
that is not `bytes`, and zeroes that copy before freeing it.  CPython's
own objects cannot be wiped: the caller's `bytes`, and the pure path's
copies and ints, stay in freed memory until it is reused.

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

import _thread

# The phases look `permute` up here at call time, so a stand-in set on this
# module (a counter, a tracer) sees every permutation they run.
from .permutation import MASK64, State, _checked_words, permute

KEY_BYTES = 16
NONCE_BYTES = 16
TAG_BYTES = 16
ROUNDS_A = 12  # initialization and finalization rounds, in every variant
ABSORB, ENCRYPT, DECRYPT = 0, 1, 2  # _duplex modes, numbered as in _accel.c
_ROWS = ((8, 6), (16, 8))  # (rate_bytes, rounds_b) of ASCON-128 and ASCON-128a

_accel_backend = None  # not resolved yet; then the kernel module, or False
_accel_reason = None  # why the kernel could not be built or loaded
_accel_lock = _thread.allocate_lock()


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
    takes only the two rows that bundled vectors check, (rate_bytes,
    rounds_b) = (8, 6) and (16, 8), under any name, so the kernel is only
    ever passed the IV of ASCON-128 or ASCON-128a.  Copies and pickles are
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
        if (rate_bytes, rounds_b) not in _ROWS:
            raise ValueError(f"(rate_bytes, rounds_b) must be one of {_ROWS}, "
                             f"got {(rate_bytes, rounds_b)!r}")
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


#: Each argument after params, in order: its name and its length (0: any).
_ENCRYPT_ARGS = (("key", KEY_BYTES), ("nonce", NONCE_BYTES), ("associated_data", 0),
                 ("plaintext", 0))
_DECRYPT_ARGS = _ENCRYPT_ARGS[:3] + (("ciphertext", 0), ("tag", TAG_BYTES))


def _checked(table, params, *args) -> list:
    """`args` as bytes, or the error that names the first fault: params, types, then lengths."""
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
        if size and len(value) != size:
            raise ValueError(f"{name} must be {size} bytes, got {len(value)}")
    return converted


def _get_accel():
    """Resolve the compiled-kernel backend once: its extension module, or None.

    The first call runs `_accel.load` under `_accel_lock`, so first calls
    that race load the kernel once.  Why the kernel could not be built or
    loaded is kept in `_accel_reason`.
    """
    global _accel_backend, _accel_reason
    with _accel_lock:
        if _accel_backend is None:
            from . import _accel

            try:
                _accel_backend = _accel.load()
                _accel_reason = None
            except _accel.Unavailable as exc:
                _accel_backend, _accel_reason = False, str(exc)
    return _accel_backend or None


def backend_info() -> dict:
    """Which backend runs encrypt and decrypt, as JSON-ready strings.

    "backend" is "kernel" or "pure"; "library" is the path of the loaded
    kernel, or None on the pure path; "unavailable_reason" is why the kernel
    could not be built or loaded, or None.  Resolves the backend, so the
    first call may build the kernel.
    """
    accel = _get_accel()
    return {
        "backend": "pure" if accel is None else "kernel",
        "library": None if accel is None else accel.__file__,
        "unavailable_reason": _accel_reason,
    }


def initialize(params: VariantParams, key: bytes, nonce: bytes) -> State:
    """Pack IV || K || N, run the a-round permutation, then XOR 0* || K in."""
    key, nonce = _checked(_ENCRYPT_ARGS[:2], params, key, nonce)
    state = State.from_bytes(params._iv + key + nonce)
    state = permute(state, ROUNDS_A)
    k1, k2 = int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")
    return state._replace(s3=state.s3 ^ k1, s4=state.s4 ^ k2)


def _duplex(state, params: VariantParams, data: bytes, mode: int) -> tuple[State, bytes]:
    """Absorb, encrypt or decrypt `data`; the new state and the output.

    One loop over the blocks of `data` padded with 10* to whole rates, the
    last block included, with a rounds_b permutation between blocks and
    none after the last.  The rate is one big-endian int (x0, or x0 || x1),
    and a block of n bytes meets its top n bytes; only the last block is
    short, so only it takes the padding.  ENCRYPT emits the rate after
    absorbing, DECRYPT the rate XOR the input, which then becomes the top
    n bytes of the rate.  The kernel's `duplex` in _accel.c runs the same
    steps, with the last block split off as a byte loop.
    """
    rate, rounds = params.rate_bytes, params.rounds_b
    x0, x1, x2, x3, x4 = state
    out = bytearray()
    for off in range(0, len(data) + 1, rate):
        if off:
            x0, x1, x2, x3, x4 = permute((x0, x1, x2, x3, x4), rounds)
        block = data[off : off + rate]
        n = len(block)
        low = 8 * (rate - n)  # the rate's bits below the block
        bits = int.from_bytes(block, "big") << low
        value = x0 if rate == 8 else x0 << 64 | x1
        if mode == DECRYPT:
            out += ((value ^ bits) >> low).to_bytes(n, "big")
            value = bits | value & ((1 << low) - 1)
        else:
            value ^= bits
            if mode == ENCRYPT:
                out += (value >> low).to_bytes(n, "big")
        if low:
            value ^= 0x80 << low - 8
        if rate == 8:
            x0 = value
        else:
            x0, x1 = value >> 64, value & MASK64
    return State(x0, x1, x2, x3, x4), bytes(out)


def process_associated_data(state: State, params: VariantParams, ad: bytes) -> State:
    """Absorb padded AD, permuting after every block, then flip the domain bit.

    Empty AD absorbs nothing and runs no permutation; the domain-separation
    XOR of 1 into the last bit of s4 happens unconditionally, fencing the AD
    phase off from the data phase.
    """
    state = State(*_checked_words(state))
    ad, = _checked(_ENCRYPT_ARGS[2:3], params, ad)
    if ad:
        state = permute(_duplex(state, params, ad, ABSORB)[0], params.rounds_b)
    return state._replace(s4=state.s4 ^ 1)


def encrypt_data(
    state: State, params: VariantParams, plaintext: bytes
) -> tuple[State, bytes]:
    """Duplex-encrypt each padded block; the ciphertext is as long as the plaintext."""
    state = _checked_words(state)
    plaintext, = _checked(_ENCRYPT_ARGS[3:4], params, plaintext)
    return _duplex(state, params, plaintext, ENCRYPT)


def decrypt_data(
    state: State, params: VariantParams, ciphertext: bytes
) -> tuple[State, bytes]:
    """Duplex-decrypt; exact inverse of encrypt_data on state and data."""
    state = _checked_words(state)
    ciphertext, = _checked(_DECRYPT_ARGS[3:4], params, ciphertext)
    return _duplex(state, params, ciphertext, DECRYPT)


def finalize(state: State, params: VariantParams, key: bytes) -> bytes:
    """XOR the key in just past the rate, permute, and squeeze the 16-byte tag.

    The tag is the last two state words XORed with the key, emitted
    big-endian.
    """
    words = list(_checked_words(state))
    key, = _checked(_ENCRYPT_ARGS[:1], params, key)
    k1, k2 = int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")
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
    A `params` that is not a VariantParams raises TypeError on either backend.
    """
    if isinstance(params, VariantParams) and (
        _accel_backend or (_accel_backend is None and _get_accel())  # resolved once
    ):
        return _accel_backend.encrypt(params._iv, key, nonce, associated_data, plaintext)
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
    if isinstance(params, VariantParams) and (
        _accel_backend or (_accel_backend is None and _get_accel())
    ):
        plaintext = _accel_backend.decrypt(params._iv, key, nonce, associated_data, ciphertext, tag)
        if plaintext is None:
            raise AuthenticationFailure("authentication failed")
        return plaintext
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
