"""The reference path's control flow does not depend on secret values.

A `sys.settrace` recorder notes each (function, line, event) that runs in
the ascon_aead package while one message is encrypted and decrypted on the
pure path.  For both variants and every pair of AD and PT lengths drawn
from {0, 1, r, r + 1, 2r + 1}, r the rate in bytes, different random keys,
nonces and data must give the same sequence.

Limit: this checks source lines only.  It cannot see time that CPython's
integer arithmetic itself spends depending on the values it works on.
"""

import random
import sys

import pytest

from ascon_aead import aead
from ascon_aead.aead import ASCON_128, ASCON_128A

from mutants import KEY_BIT_BRANCH

BOTH = pytest.mark.parametrize("params", [ASCON_128, ASCON_128A], ids=lambda p: p.name)
SECRETS_PER_PAIR = 3


def control_flow(params, key, nonce, ad, pt):
    """Each (function, line, event) in the package of one encrypt and decrypt, in order."""
    events = []

    def record(frame, event, arg):
        events.append((frame.f_code.co_name, frame.f_lineno, event))
        return record

    def on_call(frame, event, arg):
        # by module name, so a mutant compiled from edited source counts too
        if frame.f_globals.get("__name__", "").startswith("ascon_aead."):
            return record(frame, event, arg)
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        ct, tag = aead.encrypt(params, key, nonce, ad, pt)
        plaintext = aead.decrypt(params, key, nonce, ad, ct, tag)
    finally:
        sys.settrace(previous)
    assert plaintext == pt
    return events


def divergent_pairs(params):
    """Yield each (AD length, PT length) whose random secrets take different paths."""
    rng = random.Random(0xF10)
    r = params.rate_bytes
    lengths = (0, 1, r, r + 1, 2 * r + 1)
    for ad_len in lengths:
        for pt_len in lengths:
            flows = {
                tuple(control_flow(params, rng.randbytes(16), rng.randbytes(16),
                                   rng.randbytes(ad_len), rng.randbytes(pt_len)))
                for _ in range(SECRETS_PER_PAIR)
            }
            if len(flows) > 1:
                yield ad_len, pt_len


def test_recorder_sees_every_phase(pure_path):
    key = nonce = bytes(range(16))
    names = {name for name, _, _ in control_flow(ASCON_128, key, nonce, b"ad", b"message")}
    assert {"encrypt", "decrypt", "initialize", "_duplex", "permute", "finalize"} <= names


@BOTH
def test_secrets_do_not_change_the_control_flow(params, pure_path):
    assert list(divergent_pairs(params)) == []


@BOTH
def test_key_bit_branch_is_caught(params, pure_path, monkeypatch):
    KEY_BIT_BRANCH(monkeypatch)
    assert next(divergent_pairs(params), None) is not None
