"""Neither backend's control flow depends on secret values.

Reference path: a `sys.settrace` recorder notes each (function, line,
event) that runs in the ascon_aead package while one message is encrypted
and decrypted on the pure path.  For both variants and every pair of AD and
PT lengths drawn from {0, 1, r, r + 1, 2r + 1}, r the rate in bytes,
different random keys, nonces and data must give the same sequence.

Kernel: control_flow_driver.c and _accel.c are built with `cc -O0
--coverage`, and each run encrypts and decrypts one message.  For both
variants and every pair of AD and PT lengths of 0 to 3 blocks plus or minus
one byte (0, 1, r - 1, r, r + 1, ..., 3r + 1), the coverage counters for
_accel.c, from which gcov computes its line and branch counts, must be the
same across random keys, nonces and data with the right tag, and the same
across wrong tags that differ from it in byte 0, 8 or 15.  Right and wrong
tags are not compared with each other: they part at the verdict.  Both
bodies of ascon_aead are checked: the one the loader picks on this CPU, and
the baseline body, built with conftest.PORTABLE_BODY.  The first build also
holds the resolver that picks the body.  It runs once per process, and its
path depends only on the CPU, never on a message, so it cannot make two
runs on one machine count differently.

Limits: this checks source lines only.  It cannot see time that CPython's
integer arithmetic itself spends depending on the values it works on, nor
the machine code that `-O2` makes of _accel.c.
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ascon_aead import _accel, aead
from ascon_aead.aead import ASCON_128, ASCON_128A

from conftest import PORTABLE_BODY
from mutants import EARLY_EXIT_COMPARE, KERNEL_KEY_BIT_BRANCH, KEY_BIT_BRANCH

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


def build_counted_kernel(directory: Path, edit=None, flags=()) -> Path:
    """control_flow_driver.c and _accel.c, with `edit` applied, built for gcov in `directory`."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    source = Path(_accel._SOURCE).read_text()
    if edit is not None:
        assert edit[0] in source, f"mutant {edit!r} no longer matches _accel.c"
        source = source.replace(*edit)
    (directory / "_accel.c").write_text(source)
    driver = Path(__file__).with_name("control_flow_driver.c")
    build = subprocess.run(
        [compiler, "-std=c99", "-O0", "--coverage", *flags, "-o", "driver", str(driver),
         "_accel.c"],
        cwd=directory, capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    return directory


def kernel_counts(directory: Path, variant: int, ad_len: int, pt_len: int, seed: int,
                  forge: int) -> bytes:
    """The coverage counters of _accel.c after one run of the driver, as gcov reads them.

    The data file holds the counters and nothing that differs between runs
    of one build, so equal files mean equal line and branch counts.
    """
    for data in directory.glob("*.gcda"):
        data.unlink()
    run = subprocess.run(
        ["./driver", str(variant), str(ad_len), str(pt_len), str(seed), str(forge)],
        cwd=directory, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    (data,) = directory.glob("*_accel.gcda")
    return data.read_bytes()


#: the tag bytes that a wrong tag differs in
FORGED_BYTES = (0, 8, 15)


def divergent_triples(directory: Path, variants=(0, 1)):
    """Yield each (variant, AD length, PT length, tag) whose runs count differently.

    `tag` is "right" for random secrets with the right tag and "wrong" for
    random secrets with a tag wrong in each of FORGED_BYTES.
    """
    rng = random.Random(0xC0F10)
    for variant in variants:
        r = (ASCON_128, ASCON_128A)[variant].rate_bytes
        # every length of 0 to 3 blocks, plus or minus one byte
        lengths = sorted({0, 1, *(k * r + d for k in (1, 2, 3) for d in (-1, 0, 1))})
        for ad_len in lengths:
            for pt_len in lengths:
                for tag, forges in (("right", (-1, -1, -1)), ("wrong", FORGED_BYTES)):
                    counts = {
                        kernel_counts(directory, variant, ad_len, pt_len,
                                      rng.getrandbits(63), forge)
                        for forge in forges
                    }
                    if len(counts) > 1:
                        yield variant, ad_len, pt_len, tag


def test_kernel_counts_do_not_depend_on_secrets_or_the_tag(tmp_path):
    for body, flags in (("picked", ()), ("portable", (PORTABLE_BODY,))):
        directory = tmp_path / body
        directory.mkdir()
        assert list(divergent_triples(build_counted_kernel(directory, flags=flags))) == [], body


@pytest.mark.parametrize(
    "edit, tag",
    [(KERNEL_KEY_BIT_BRANCH, "right"), (EARLY_EXIT_COMPARE, "wrong")],
    ids=["key-bit-branch", "early-exit-compare"],
)
def test_kernel_negative_control_is_caught(tmp_path, edit, tag):
    directory = build_counted_kernel(tmp_path, edit)
    assert any(found[3] == tag for found in divergent_triples(directory, variants=(0,)))
