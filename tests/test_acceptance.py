"""The acceptance gate: one test per release criterion, each printing a
PASS line with its measured numbers.  Run with `pytest -s tests/test_acceptance.py`
to watch the lines scroll by; `pytest` alone still enforces everything.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ascon_aead import aead
from ascon_aead.aead import ASCON_128, ASCON_128A, AuthenticationFailure, decrypt, encrypt
from ascon_aead.kat import run_kat
from ascon_aead.permutation import State, substitution_layer

from conftest import kat_path
from mutants import BUG_MUTANTS
from oracles import REFERENCE_SBOX, sbox_slicewise

PARAMS = {"ascon128": ASCON_128, "ascon128a": ASCON_128A}
SRC = Path(__file__).resolve().parent.parent / "src"


def _ok(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_1_kat_equivalence(kat_records, backend):
    """Both official vector files, both directions, bit-exact, on each backend."""
    start = time.perf_counter()
    totals = []
    for name, params in PARAMS.items():
        report = run_kat(kat_records[name], params)
        assert report.failed == 0, f"{name}: {report.lines()}"
        assert report.passed == 2 * report.total == 2178
        totals.append(report.passed)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"KAT runtime {elapsed:.1f}s exceeds 10s budget"
    _ok("1 KAT equivalence", f"{sum(totals)} checks on {backend}, {elapsed:.2f}s")


def test_2_randomized_round_trip():
    """500 random (key, nonce, ad, pt) cases per variant, lengths 0..1024."""
    rng = random.Random(0x0C0FFEE)
    start = time.perf_counter()
    for name, params in PARAMS.items():
        for _ in range(500):
            key, nonce = rng.randbytes(16), rng.randbytes(16)
            pt = rng.randbytes(rng.randint(0, 1024))
            ad = rng.randbytes(rng.randint(0, 1024))
            ct, tag = encrypt(params, key, nonce, ad, pt)
            assert len(ct) == len(pt)
            assert decrypt(params, key, nonce, ad, ct, tag) == pt
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"round-trip runtime {elapsed:.1f}s exceeds 30s budget"
    _ok("2 randomized round trip", f"1000 cases, {elapsed:.2f}s")


def test_3_sbox_oracle():
    """Bitsliced layer == brute-force table on 1000 random states; bijectivity."""
    start = time.perf_counter()
    assert sorted(REFERENCE_SBOX) == list(range(32)), "reference table is a bijection"
    rng = random.Random(0x5B0C)
    for _ in range(1000):
        state = State(*(rng.getrandbits(64) for _ in range(5)))
        assert substitution_layer(state) == sbox_slicewise(state)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"S-box oracle runtime {elapsed:.1f}s exceeds 5s budget"
    _ok("3 S-box oracle", f"1000 states, {elapsed:.2f}s")


def test_4_forgery_sweep(backend):
    """Every single-bit flip across nonce, ad, ciphertext, and tag is rejected,
    on each backend."""
    rng = random.Random(0xF046E)
    start = time.perf_counter()
    grand_total = 0
    for name, params in PARAMS.items():
        key, nonce = rng.randbytes(16), rng.randbytes(16)
        ad, pt = rng.randbytes(13), rng.randbytes(24)
        ct, tag = encrypt(params, key, nonce, ad, pt)
        rejected = 0
        total = 0
        for field_index, field in enumerate((nonce, ad, ct, tag)):
            for bit in range(len(field) * 8):
                flipped = bytearray(field)
                flipped[bit // 8] ^= 1 << (bit % 8)
                args = [nonce, ad, ct, tag]
                args[field_index] = bytes(flipped)
                total += 1
                try:
                    decrypt(params, key, args[0], args[1], args[2], args[3])
                except AuthenticationFailure as exc:
                    rejected += 1
                    assert pt not in repr(exc).encode()
        assert total == (16 + 13 + 24 + 16) * 8 == 552
        assert rejected == total, f"{name}: {total - rejected} forgeries accepted"
        grand_total += total
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"forgery sweep runtime {elapsed:.1f}s exceeds 10s budget"
    _ok("4 forgery sweep", f"{grand_total} flips rejected on {backend}, {elapsed:.2f}s")


def test_5_bug_ledger_mutants(kat_records, pure_path):
    """All seven catalogued bug classes are caught by record 1 or the first
    non-empty-AD record.  The mutants patch the Python modules, so they run
    on the reference path; the kernel's own mutants are in test_kat.py."""
    head = kat_records["ascon128"][:2]
    detected = 0
    for name, (apply_bug, earliest) in sorted(BUG_MUTANTS.items()):
        with pytest.MonkeyPatch.context() as patch:
            apply_bug(patch)
            report = run_kat(head, ASCON_128)
        assert any(
            f.count == earliest and f.direction == "encrypt" for f in report.failures
        ), f"mutant not detected by record {earliest}: {name}"
        detected += 1
    assert run_kat(head, ASCON_128).failed == 0, "patches must not leak"
    assert detected == 7
    _ok("5 bug-ledger mutants", "7/7 detected")


def test_6_phase_fixtures(phase_fixtures):
    """Pinned post-init, post-AD, and post-data states for KAT record 545."""
    for name, params in PARAMS.items():
        fx = phase_fixtures[name]
        key = bytes.fromhex(fx["key"])
        nonce = bytes.fromhex(fx["nonce"])
        pt = bytes.fromhex(fx["pt"])
        ad = bytes.fromhex(fx["ad"])
        assert pt and ad, "record must have non-empty PT and AD"

        expected = {k: State(*(int(w, 16) for w in fx[k]))
                    for k in ("post_init", "post_ad", "post_data")}
        state = aead.initialize(params, key, nonce)
        assert state == expected["post_init"], f"{name}: post-initialization state"
        state = aead.process_associated_data(state, params, ad)
        assert state == expected["post_ad"], f"{name}: post-AD state"
        state, ct = aead.encrypt_data(state, params, pt)
        assert state == expected["post_data"], f"{name}: post-data state"
        assert ct == bytes.fromhex(fx["ct"])
        assert aead.finalize(state, params, key) == bytes.fromhex(fx["tag"])

        # the decrypt path must march through the same states
        state = aead.process_associated_data(expected["post_init"], params, ad)
        state, back = aead.decrypt_data(state, params, ct)
        assert state == expected["post_data"] and back == pt
    _ok("6 phase fixtures", "3 states x 2 variants pinned")


def test_7_cli_contract(tmp_path):
    """Scripted end-to-end pass over exit codes 0/2/3/4/5 and the
    hex/file byte-equivalence invariant."""

    def cli(*argv, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "ascon_aead.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), **kwargs,
        )

    key = "000102030405060708090A0B0C0D0E0F"
    nonce = "000102030405060708090A0B0C0D0E0F"
    payload = bytes(range(64))
    src = tmp_path / "src.bin"
    src.write_bytes(payload)
    enc = tmp_path / "sealed.bin"
    dec = tmp_path / "restored.bin"

    # exit 0: file-mode encrypt and decrypt round trip
    assert cli("encrypt", "--key", key, "--nonce", nonce, "--in", str(src),
               "--out", str(enc)).returncode == 0
    assert cli("decrypt", "--key", key, "--nonce", nonce, "--in", str(enc),
               "--out", str(dec)).returncode == 0
    assert dec.read_bytes() == payload

    # hex/file equivalence: hex mode emits the same bytes the file holds
    run = cli("encrypt", "--key", key, "--nonce", nonce, "--pt", payload.hex())
    assert run.returncode == 0
    hex_ct = run.stdout.split("CT=")[1].splitlines()[0]
    hex_tag = run.stdout.split("TAG=")[1].splitlines()[0]
    assert bytes.fromhex(hex_ct + hex_tag) == enc.read_bytes()

    # exit 0: selftest and the bundled KAT file
    assert cli("selftest").returncode == 0
    assert cli("kat", str(kat_path("ascon128"))).returncode == 0

    # exit 2: usage errors
    assert cli("encrypt", "--nonce", nonce, "--pt", "00").returncode == 2
    assert cli("trace", "--state", "0" * 80, "--rounds", "5").returncode == 2
    short = tmp_path / "short.bin"
    short.write_bytes(b"tiny")
    assert cli("decrypt", "--key", key, "--nonce", nonce,
               "--in", str(short)).returncode == 2

    # exit 3: I/O failures
    assert cli("encrypt", "--key", key, "--nonce", nonce,
               "--in", str(tmp_path / "missing.bin")).returncode == 3
    assert cli("kat", str(tmp_path / "missing.txt")).returncode == 3

    # exit 4: authentication failure, and nothing written
    blob = bytearray(enc.read_bytes())
    blob[-1] ^= 1
    forged = tmp_path / "forged.bin"
    forged.write_bytes(bytes(blob))
    gone = tmp_path / "must-not-exist.bin"
    run = cli("decrypt", "--key", key, "--nonce", nonce, "--in", str(forged),
              "--out", str(gone))
    assert run.returncode == 4
    assert "authentication failed" in run.stderr
    assert not gone.exists()

    # exit 5: KAT verification failure
    text = kat_path("ascon128").read_text()
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text(text.replace(
        "CT = E355159F292911F794CB1432A0103A8A",
        "CT = 0355159F292911F794CB1432A0103A8A", 1))
    run = cli("kat", str(corrupt))
    assert run.returncode == 5
    assert "FAIL count=1" in run.stdout

    _ok("7 CLI contract", "exit codes 0/2/3/4/5 and hex/file equivalence")


def test_8_throughput_smoke():
    """Encrypt 1 MiB in under a second (guards against gross regressions)."""
    rng = random.Random(0x1B)
    key, nonce = rng.randbytes(16), rng.randbytes(16)
    data = rng.randbytes(1 << 20)
    encrypt(ASCON_128, key, nonce, b"", rng.randbytes(4096))  # build or load the compiled kernel
    start = time.perf_counter()
    ct, tag = encrypt(ASCON_128, key, nonce, b"", data)
    elapsed = time.perf_counter() - start
    assert len(ct) == 1 << 20
    assert decrypt(ASCON_128, key, nonce, b"", ct, tag) == data
    assert elapsed < 1.0, f"1 MiB took {elapsed:.2f}s (budget 1.0s)"
    _ok("8 throughput smoke", f"1 MiB in {elapsed * 1000:.0f} ms")
