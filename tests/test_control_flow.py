"""Neither backend's control flow depends on secret values.

Reference path: a `sys.settrace` recorder notes each (function, line,
event) that runs in the ascon_aead package while one message is encrypted
and decrypted on the pure path.  For both variants and every pair of AD and
PT lengths drawn from {0, 1, r, r + 1, 2r + 1}, r the rate in bytes,
different random keys, nonces and data must give the same sequence.

Kernel: tests/kernel_driver.c is the kernel's one C driver.  With no
arguments it runs the sanitizer sweep of tests/test_aead.py; with VARIANT
ADLEN LEN SEED FORGE it runs one case, which encrypts and decrypts one
message.  Here conftest.build_kernel_driver builds it and _accel.c with
`cc -O0 --coverage`, and each run is one case.  For both variants and
every pair of AD and PT lengths of 0 to 3 blocks plus or minus one byte
(0, 1, r - 1, r, r + 1, ..., 3r + 1), the coverage counters for
_accel.c, from which gcov computes its line and branch counts, must be the
same across random keys, nonces and data with the right tag, and the same
across wrong tags that differ from it in byte 0, 8 or 15.  A run with the
right tag and one with a wrong tag must part at the verdict and only there:
gcov's line and branch counts may differ on the lines of ascon_decrypt's
verdict branch and its wipe loop, must differ on at least one of them, and
must match on every other line.  Both bodies of ascon_aead are checked:
the one the loader picks on this CPU, and the baseline body, built with
conftest.PORTABLE_BODY.  The first build also
holds the resolver that picks the body.  It runs once per process, and its
path depends only on the CPU, never on a message, so it cannot make two
runs on one machine count differently.

Limits: this checks source lines only.  It cannot see time that CPython's
integer arithmetic itself spends depending on the values it works on, nor
the machine code that `-O2` makes of _accel.c.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ascon_aead import aead
from ascon_aead.aead import ASCON_128, ASCON_128A

from conftest import PORTABLE_BODY, build_kernel_driver
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


def build_counted_kernel(directory: Path, *flags: str, edit=None) -> Path:
    """kernel_driver.c and _accel.c, with `edit` applied, built for gcov in `directory`."""
    if shutil.which("gcov") is None:
        pytest.skip("needs gcov on PATH")
    build_kernel_driver(directory, "-O0", "--coverage", *flags, edit=edit)
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


def gcov_lines(directory: Path) -> dict:
    """(function, line) -> (count, branch counts) for _accel.c, from the last run's data file."""
    (data,) = directory.glob("*_accel.gcda")
    report = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--branch-probabilities",
         data.name],
        cwd=directory, capture_output=True, text=True, timeout=60,
    )
    assert report.returncode == 0, report.stderr
    (source,) = (f for f in json.loads(report.stdout)["files"] if f["file"].endswith("_accel.c"))
    return {
        (line["function_name"], line["line_number"]):
            (line["count"], tuple(branch["count"] for branch in line["branches"]))
        for line in source["lines"]
    }


def verdict_lines(directory: Path) -> set:
    """The lines of ascon_decrypt's verdict branch and wipe loop: `if (diff) {` to its `}`."""
    lines = (directory / "_accel.c").read_text().splitlines()
    first = lines.index("    if (diff) {")
    last = lines.index("    }", first)
    return set(range(first + 1, last + 2))  # gcov numbers lines from 1


#: the tag bytes that a wrong tag differs in
FORGED_BYTES = (0, 8, 15)


def divergent_triples(directory: Path, variants=(0, 1)):
    """Yield each (variant, AD length, PT length, tag) whose runs count differently.

    `tag` is "right" for random secrets with the right tag and "wrong" for
    random secrets with a tag wrong in each of FORGED_BYTES.  It is "right
    vs wrong" when a run with the right tag and one with a wrong tag differ
    on a line outside verdict_lines, or on none of them.
    """
    rng = random.Random(0xC0F10)
    verdict = verdict_lines(directory)
    lines_of = {}  # data file -> gcov_lines; equal files give equal counts
    for variant in variants:
        r = (ASCON_128, ASCON_128A)[variant].rate_bytes
        # every length of 0 to 3 blocks, plus or minus one byte
        lengths = sorted({0, 1, *(k * r + d for k in (1, 2, 3) for d in (-1, 0, 1))})
        for ad_len in lengths:
            for pt_len in lengths:
                runs = {}
                for tag, forges in (("right", (-1, -1, -1)), ("wrong", FORGED_BYTES)):
                    runs[tag] = set()
                    for forge in forges:
                        data = kernel_counts(directory, variant, ad_len, pt_len,
                                             rng.getrandbits(63), forge)
                        if data not in lines_of:
                            lines_of[data] = gcov_lines(directory)
                        runs[tag].add(data)
                    if len(runs[tag]) > 1:
                        yield variant, ad_len, pt_len, tag
                for right, wrong in itertools.product(runs["right"], runs["wrong"]):
                    right, wrong = lines_of[right], lines_of[wrong]
                    parted = {line for key in right.keys() | wrong.keys()
                              if right.get(key) != wrong.get(key) for line in key[1:]}
                    if not parted or not parted <= verdict:
                        yield variant, ad_len, pt_len, "right vs wrong"
                        break


def test_kernel_counts_do_not_depend_on_secrets_or_the_tag(tmp_path):
    for body, flags in (("picked", ()), ("portable", (PORTABLE_BODY,))):
        directory = tmp_path / body
        directory.mkdir()
        assert list(divergent_triples(build_counted_kernel(directory, *flags))) == [], body


@pytest.mark.parametrize(
    "edit, tags",
    [(KERNEL_KEY_BIT_BRANCH, {"right"}), (EARLY_EXIT_COMPARE, {"wrong", "right vs wrong"})],
    ids=["key-bit-branch", "early-exit-compare"],
)
def test_kernel_negative_control_is_caught(tmp_path, edit, tags):
    directory = build_counted_kernel(tmp_path, edit=edit)
    assert tags <= {found[3] for found in divergent_triples(directory, variants=(0,))}
