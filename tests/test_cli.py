import hashlib
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ascon_aead import aead, cli
from ascon_aead.codec import hex_decode
from ascon_aead.permutation import State

from conftest import VARIANT_NAMES, accel_available, kat_path, variant_like
from oracles import round_steps

KEY_HEX = "000102030405060708090A0B0C0D0E0F"
NONCE_HEX = "000102030405060708090A0B0C0D0E0F"
KAT1_TAG = "E355159F292911F794CB1432A0103A8A"
# Pieces of KAT text, with bytes that are not UTF-8 and control characters.
KAT_TOKENS = [
    *(name.encode() for name in ("Count", "Key", "Nonce", "PT", "AD", "CT")),
    b"=", b" = ", b"0", b"1", b"2", b"9", b"00", b"0F", b"E3", b"a",
    b" ", b"\t", b"\n", b"\n\n", b"\r", b"\r\n", b"\x0c", b"\x00", b"\xff", b"_",
]


def run_cli(*argv):
    return cli.main(list(argv))


def _peak_rss_kib(tmp_path, size, command="encrypt"):
    """The peak RSS of `encrypt --in --out` of a `size`-byte file, in its own process.

    With `command` "decrypt", that of `decrypt --in --out` of the file encrypt wrote.
    """
    pt, ct, back = tmp_path / "pt.bin", tmp_path / "ct.bin", tmp_path / "back.bin"
    pt.write_bytes(bytes(range(256)) * (size // 256))
    # a fresh parent, so RUSAGE_CHILDREN sees the one CLI process and no earlier child
    parent = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))

    def peak(name, source, target):
        argv = [sys.executable, "-m", "ascon_aead.cli", name, "--key", KEY_HEX,
                "--nonce", NONCE_HEX, "--in", str(source), "--out", str(target)]
        proc = subprocess.run([sys.executable, "-c", parent, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return int(proc.stdout)

    kib = peak("encrypt", pt, ct)
    assert ct.stat().st_size == size + aead.TAG_BYTES
    if command == "decrypt":
        kib = peak("decrypt", ct, back)
        assert back.read_bytes() == pt.read_bytes()
    return kib


def trace_line(label, state):
    return f"{label:<22}: " + " ".join(f"{w:016X}" for w in state)


def expected_trace(state, rounds, verbose):
    """The lines `trace` must print, rebuilt from the layer oracles, and the end state."""
    lines = [trace_line("initial", state)]
    for index, step, state in round_steps(state, rounds):
        if verbose or step == "post-linear":
            lines.append(trace_line(f"round {index:2} {step}", state))
    return lines, state


class TestEncrypt:
    def test_hex_mode_record_1(self, capsys):
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--pt", "")
        out = capsys.readouterr().out
        assert rc == 0
        assert out == f"CT=\nTAG={KAT1_TAG}\n"

    def test_missing_key_exits_2_naming_key(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("encrypt", "--nonce", NONCE_HEX, "--pt", "00")
        assert info.value.code == 2
        assert "one of the arguments --key --key-file is required" in capsys.readouterr().err

    def test_missing_nonce_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("encrypt", "--key", KEY_HEX, "--pt", "00")
        assert info.value.code == 2
        assert "one of the arguments --nonce --gen-nonce is required" in capsys.readouterr().err

    def test_missing_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX)
        assert info.value.code == 2
        assert "one of the arguments --in --pt is required" in capsys.readouterr().err

    def test_bad_key_hex_exits_2(self, capsys):
        rc = run_cli("encrypt", "--key", "xyz", "--nonce", NONCE_HEX, "--pt", "")
        assert rc == 2
        assert "--key" in capsys.readouterr().err

    def test_wrong_key_length_exits_2(self, capsys):
        rc = run_cli("encrypt", "--key", "00", "--nonce", NONCE_HEX, "--pt", "")
        assert rc == 2
        err = capsys.readouterr().err
        assert "--key" in err and "16" in err

    def test_mutually_exclusive_inputs_exit_2(self, tmp_path):
        f = tmp_path / "pt.bin"
        f.write_bytes(b"x")
        with pytest.raises(SystemExit) as info:
            run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                    "--pt", "00", "--in", str(f))
        assert info.value.code == 2

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--in", str(tmp_path / "absent.bin"))
        assert rc == 3

    def test_unreadable_ad_file_exits_3_naming_it(self, tmp_path, capsys):
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--pt", "00",
                     "--ad-file", str(tmp_path / "absent.bin"))
        assert rc == 3
        assert f"--ad-file: cannot read {tmp_path / 'absent.bin'}" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--pt", "00", "--out", str(tmp_path / "no" / "dir" / "f.bin"))
        assert rc == 3

    def test_directory_as_output_exits_3_and_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "a-directory"
        target.mkdir()
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--pt", "00", "--out", str(target))
        assert rc == 3
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_failed_write_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch):
        import errno
        import io

        class WriteHalfThenFail(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        out = tmp_path / "ct.bin"
        out.write_bytes(b"earlier contents")
        # the CLI opens its temporary output file with the builtin open()
        monkeypatch.setattr(cli, "open", WriteHalfThenFail, raising=False)
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--pt", "00" * 64, "--out", str(out))
        assert rc == 3
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier contents"
        assert list(tmp_path.iterdir()) == [out]

    def test_output_data_is_fsynced_before_the_rename(self, tmp_path, capsys, monkeypatch):
        # POSIX does not order a file's data before its rename, so without the
        # fsync a crash could leave the name on an empty or short file
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        out = tmp_path / "ct.bin"
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--pt", "00" * 64, "--out", str(out))
        assert rc == 0
        assert [step for step, _ in calls] == ["fsync", "replace"]
        assert calls[0][1] == calls[1][1] == out.stat().st_ino

    def test_failed_fsync_exits_3_and_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch):
        import errno

        def fail(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", fail)
        out = tmp_path / "ct.bin"
        out.write_bytes(b"earlier contents")
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--pt", "00" * 64, "--out", str(out))
        assert rc == 3
        assert f"--out: cannot write {out}: Input/output error" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier contents"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_file_encrypt_peaks_at_two_copies_of_the_file(self, tmp_path):
        # The plaintext read and the ciphertext are two copies; writing the
        # tag after the ciphertext, not `ciphertext + tag`, saves a third.
        if not accel_available():  # the pure path takes seconds per MiB
            pytest.skip("the compiled C kernel could not be built or loaded")
        size = 8 << 20
        extra = _peak_rss_kib(tmp_path, size) - _peak_rss_kib(tmp_path, 0)
        assert extra <= 2.5 * size / 1024, f"{extra} KiB over the peak for an empty file"

    def test_gen_nonce_echoes_once_and_round_trips(self, capsys, tmp_path):
        pt = tmp_path / "pt.bin"
        ct = tmp_path / "ct.bin"
        back = tmp_path / "back.bin"
        pt.write_bytes(b"generated-nonce round trip")
        rc = run_cli("encrypt", "--key", KEY_HEX, "--gen-nonce",
                     "--in", str(pt), "--out", str(ct))
        assert rc == 0
        err = capsys.readouterr().err
        nonces = re.findall(r"NONCE=([0-9A-F]{32})$", err, re.M)
        assert len(nonces) == 1
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", nonces[0],
                     "--in", str(ct), "--out", str(back))
        assert rc == 0
        assert back.read_bytes() == pt.read_bytes()

    def test_key_file_source(self, tmp_path, capsys):
        key_file = tmp_path / "key.bin"
        key_file.write_bytes(bytes.fromhex(KEY_HEX))
        rc = run_cli("encrypt", "--key-file", str(key_file), "--nonce", NONCE_HEX, "--pt", "")
        assert rc == 0
        assert f"TAG={KAT1_TAG}" in capsys.readouterr().out

    @pytest.mark.parametrize("size", [17, 1 << 20])
    def test_key_file_longer_than_a_key_is_not_read_whole(self, tmp_path, capsys, size):
        import tracemalloc

        key_file = tmp_path / "key.bin"
        key_file.write_bytes(bytes(size))
        tracemalloc.start()
        try:
            rc = run_cli("encrypt", "--key-file", str(key_file), "--nonce", NONCE_HEX, "--pt", "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "--key-file: holds more than 16 bytes" in capsys.readouterr().err
        assert peak < 1 << 19, f"{peak} B allocated for a {size}-byte key file"

    def test_key_file_round_trip(self, tmp_path, capsys):
        key = bytes(range(0xF0, 0x100))
        key_file = tmp_path / "key.bin"
        key_file.write_bytes(key)
        flags = ("--key-file", str(key_file), "--nonce", NONCE_HEX)
        assert run_cli("encrypt", *flags, "--pt", "0011") == 0
        ct, tag = aead.encrypt(aead.ASCON_128, key, hex_decode(NONCE_HEX), b"", b"\x00\x11")
        assert capsys.readouterr().out.split() == [f"CT={ct.hex().upper()}",
                                                   f"TAG={tag.hex().upper()}"]
        assert run_cli("decrypt", *flags, "--ct", ct.hex(), "--tag", tag.hex()) == 0
        assert capsys.readouterr().out.split() == ["PT=0011"]


class TestDecrypt:
    def _encrypt_file(self, tmp_path, payload=b"round trip payload"):
        src = tmp_path / "plain.bin"
        enc = tmp_path / "sealed.bin"
        src.write_bytes(payload)
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--in", str(src), "--out", str(enc))
        assert rc == 0
        return src, enc

    def test_file_round_trip(self, tmp_path):
        src, enc = self._encrypt_file(tmp_path)
        out = tmp_path / "restored.bin"
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--in", str(enc), "--out", str(out))
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_file_decrypt_peaks_at_two_copies_of_the_file(self, tmp_path):
        # The ciphertext read and the plaintext are two copies; reading the
        # ciphertext and the tag apart, not slicing `blob[:-16]`, saves a third.
        if not accel_available():  # the pure path takes seconds per MiB
            pytest.skip("the compiled C kernel could not be built or loaded")
        size = 8 << 20
        extra = (_peak_rss_kib(tmp_path, size, "decrypt")
                 - _peak_rss_kib(tmp_path, 0, "decrypt"))
        assert extra <= 2.5 * size / 1024, f"{extra} KiB over the peak for an empty file"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_round_trip(self, tmp_path):
        # a pipe has no size to split the read by, so it is read whole
        import threading

        src, enc = self._encrypt_file(tmp_path)
        pipe, out = tmp_path / "sealed.fifo", tmp_path / "restored.bin"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(enc.read_bytes(),),
                                  daemon=True)
        writer.start()
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--in", str(pipe), "--out", str(out))
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()

    def test_flipped_tag_byte_exits_4_with_no_output(self, tmp_path, capsys):
        _, enc = self._encrypt_file(tmp_path)
        blob = bytearray(enc.read_bytes())
        blob[-1] ^= 0x01
        enc.write_bytes(bytes(blob))
        out = tmp_path / "should-not-exist.bin"
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--in", str(enc), "--out", str(out))
        assert rc == 4
        assert "authentication failed" in capsys.readouterr().err
        assert not out.exists()

    def test_hex_mode_auth_failure_prints_no_pt(self, capsys):
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--ct", "", "--tag", "0" * 32)
        assert rc == 4
        captured = capsys.readouterr()
        assert "PT=" not in captured.out
        assert captured.err.strip() == "authentication failed"

    @pytest.mark.parametrize("name", ["absent.bin", "."])
    def test_unreadable_input_exits_3_naming_it(self, tmp_path, capsys, name):
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--in", str(tmp_path / name))
        assert rc == 3
        assert f"--in: cannot read {tmp_path / name}" in capsys.readouterr().err

    def test_short_input_file_exits_2(self, tmp_path, capsys):
        stub = tmp_path / "short.bin"
        stub.write_bytes(b"12345")
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--in", str(stub))
        assert rc == 2
        assert "input shorter than tag" in capsys.readouterr().err

    def test_ct_without_tag_exits_2(self, capsys):
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--ct", "00")
        assert rc == 2
        assert "--tag" in capsys.readouterr().err

    def test_tag_with_in_exits_2(self, tmp_path, capsys):
        _, enc = self._encrypt_file(tmp_path)
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--in", str(enc),
                     "--tag", "0" * 32)
        assert rc == 2
        assert "--tag only applies to --ct" in capsys.readouterr().err

    def test_missing_nonce_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("decrypt", "--key", KEY_HEX, "--ct", "00", "--tag", "0" * 32)
        assert info.value.code == 2
        assert "the following arguments are required: --nonce" in capsys.readouterr().err

    def test_missing_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--tag", "0" * 32)
        assert info.value.code == 2
        assert "one of the arguments --in --ct is required" in capsys.readouterr().err

    def test_hex_mode_round_trip(self, capsys):
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--ad", "AABB", "--pt", "DEADBEEF")
        assert rc == 0
        out = capsys.readouterr().out
        ct = re.search(r"CT=([0-9A-F]*)", out).group(1)
        tag = re.search(r"TAG=([0-9A-F]{32})", out).group(1)
        rc = run_cli("decrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--ad", "AABB", "--ct", ct, "--tag", tag)
        assert rc == 0
        assert "PT=DEADBEEF" in capsys.readouterr().out

    def test_gen_nonce_not_available(self):
        with pytest.raises(SystemExit) as info:
            run_cli("decrypt", "--key", KEY_HEX, "--gen-nonce", "--ct", "", "--tag", "0" * 32)
        assert info.value.code == 2


class TestHexFileEquivalence:
    def test_same_bytes_both_modes(self, tmp_path, capsys):
        payload = bytes(range(48))
        src = tmp_path / "payload.bin"
        src.write_bytes(payload)
        enc = tmp_path / "payload.enc"
        ad = tmp_path / "ad.bin"
        ad.write_bytes(bytes.fromhex("00112233"))
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--ad-file", str(ad), "--in", str(src), "--out", str(enc))
        assert rc == 0
        rc = run_cli("encrypt", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--ad", "00112233", "--pt", payload.hex())
        assert rc == 0
        out = capsys.readouterr().out
        ct = re.search(r"CT=([0-9A-F]*)", out).group(1)
        tag = re.search(r"TAG=([0-9A-F]{32})", out).group(1)
        assert hex_decode(ct) + hex_decode(tag) == enc.read_bytes()


class TestKatCommand:
    def test_official_file_passes(self, capsys):
        rc = run_cli("kat", "--variant", "ascon128", str(kat_path("ascon128")))
        assert rc == 0
        out = capsys.readouterr().out
        assert "total=1089 passed=2178 failed=0" in out
        assert "FAIL" not in out

    def test_corrupted_file_exits_5(self, tmp_path, capsys):
        text = kat_path("ascon128").read_text()
        first_ct = "CT = E355159F292911F794CB1432A0103A8A"
        assert first_ct in text
        tmp = tmp_path / "corrupt.txt"
        tmp.write_text(text.replace(first_ct, first_ct[:-1] + "B", 1))
        rc = run_cli("kat", str(tmp))
        assert rc == 5
        out = capsys.readouterr().out
        assert "FAIL count=1" in out
        assert "failed=2" in out  # both directions of record 1

    def test_byte_order_mark_at_the_start_is_skipped(self, tmp_path, capsys):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + kat_path("ascon128").read_bytes())
        rc = run_cli("kat", "--variant", "ascon128", str(bom))
        assert rc == 0
        assert "total=1089 passed=2178 failed=0" in capsys.readouterr().out

    def test_byte_order_mark_after_line_1_is_refused(self, tmp_path, capsys):
        bom = tmp_path / "bom.txt"
        bom.write_text(kat_path("ascon128").read_text().replace("Key", "\ufeffKey", 1))
        rc = run_cli("kat", str(bom))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bom}: line 2: unknown field '\\ufeffKey'\n"

    def test_empty_file_is_vacuously_ok(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = run_cli("kat", str(empty))
        assert rc == 0
        assert "total=0" in capsys.readouterr().out

    def test_malformed_file_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("Count = 1\nKey = zz\n")
        rc = run_cli("kat", str(bad))
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_count_too_long_for_int_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("Count = 1" + "0" * 5000 + "\n")
        rc = run_cli("kat", str(bad))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 1: invalid count of 5001 digits\n"

    def test_missing_file_exits_3(self, tmp_path):
        rc = run_cli("kat", str(tmp_path / "nope.txt"))
        assert rc == 3

    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"Count = 1\n\xff\n")
        rc = run_cli("kat", str(bad))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @given(data=st.lists(st.sampled_from(KAT_TOKENS), max_size=40).map(b"".join))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_short_file_keeps_the_exit_contract(self, data, tmp_path, capsys):
        path = tmp_path / "fuzz.txt"
        # unlink first: ext4 flushes a file that is truncated and rewritten
        # (auto_da_alloc), at tens of milliseconds per example
        path.unlink(missing_ok=True)
        path.write_bytes(data)
        assert run_cli("kat", str(path)) in (0, 2, 5)
        capsys.readouterr()

    def test_wrong_variant_exits_5(self, capsys):
        rc = run_cli("kat", "--variant", "ascon128a", str(kat_path("ascon128")))
        assert rc == 5


class TestTrace:
    def test_zero_state_first_constant_line(self, capsys):
        rc = run_cli("trace", "--state", "0" * 80, "--rounds", "12", "-v")
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            "round  0 post-constant: 0000000000000000 0000000000000000"
            " 00000000000000F0 0000000000000000 0000000000000000"
        )

    def test_round_count_lines(self, capsys):
        rc = run_cli("trace", "--state", "0" * 80, "--rounds", "6")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("post-linear") == 6
        assert "round  6 post-linear" in out  # reduced schedule starts at index 6

    def test_invalid_rounds_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("trace", "--state", "0" * 80, "--rounds", "5")
        assert info.value.code == 2
        assert "argument --rounds: invalid choice: 5 (choose from 6, 8, 12)" in (
            capsys.readouterr().err
        )

    def test_bad_state_length_exits_2(self, capsys):
        rc = run_cli("trace", "--state", "00")
        assert rc == 2
        assert "--state" in capsys.readouterr().err

    def test_key_nonce_requires_unsafe_flag(self, capsys):
        rc = run_cli("trace", "--key", KEY_HEX, "--nonce", NONCE_HEX)
        assert rc == 2
        assert "--unsafe-trace" in capsys.readouterr().err

    def test_key_nonce_trace_ends_at_post_init_fixture(self, capsys):
        rc = run_cli("trace", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--unsafe-trace")
        assert rc == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            "post-initialization   : BC830FBEF3A1651B 487A66865036B909"
            " A031B0C5810C1CD6 DD7CE72083702217 9B17156EDE557CE7"
        )

    @pytest.mark.parametrize("rounds", [6, 8, 12])
    @pytest.mark.parametrize("verbose", [False, True])
    def test_every_line_follows_the_spec_layers(self, capsys, rounds, verbose):
        start = State(0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0011223344556677,
                      0xDEADBEEFCAFEBABE, 0x8899AABBCCDDEEFF)
        flags = ["-v"] if verbose else []
        rc = run_cli("trace", "--state", start.to_bytes().hex(), "--rounds", str(rounds), *flags)
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == expected_trace(start, rounds, verbose)[0]

    @pytest.mark.parametrize("rounds", [6, 8])
    def test_key_nonce_trace_refuses_reduced_rounds(self, capsys, rounds):
        # initialization always runs a = 12 rounds, so a shorter key trace
        # would end at a "post-initialization" state aead.initialize never gives
        rc = run_cli("trace", "--key", KEY_HEX, "--nonce", NONCE_HEX, "--unsafe-trace",
                     "--rounds", str(rounds))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--rounds" in captured.err

    def test_every_key_nonce_line_follows_the_spec_layers(self, capsys):
        k1, k2, n1, n2 = (int(text[i : i + 16], 16)
                          for text in (KEY_HEX, NONCE_HEX) for i in (0, 16))
        start = State(aead.VARIANTS["ascon128a"].iv_word, k1, k2, n1, n2)
        rc = run_cli("trace", "--variant", "ascon128a", "--key", KEY_HEX, "--nonce", NONCE_HEX,
                     "--unsafe-trace", "-v")
        assert rc == 0
        lines, final = expected_trace(start, 12, verbose=True)
        lines.append(trace_line("post-initialization",
                                final._replace(s3=final.s3 ^ k1, s4=final.s4 ^ k2)))
        assert capsys.readouterr().out.splitlines() == lines

    def test_state_and_key_are_exclusive(self, capsys):
        rc = run_cli("trace", "--state", "0" * 80, "--key", KEY_HEX,
                     "--nonce", NONCE_HEX, "--unsafe-trace")
        assert rc == 2

    def test_missing_source_exits_2(self, capsys):
        rc = run_cli("trace")
        assert rc == 2


class TestSelftest:
    CHECKS = [
        "sbox bijective on all 32 inputs",
        "12-round permutation fixture",
        *(f"{name} {check}" for name in VARIANT_NAMES
          for check in ("KAT digest (1089 records)", "KAT decrypts, and refuses each flipped tag")),
    ]

    def test_passes_with_at_least_six_checks(self, capsys):
        rc = run_cli("selftest")
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"ok   {name}" for name in self.CHECKS] + ["selftest: 6 checks, 0 failures"]

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_digests_pin_the_bundled_kat_files(self, name, kat_records):
        """The self-test's inputs are each file's, and its digest is that of the file's CT fields."""
        records = kat_records[name]
        rule = [(bytes(range(p)), bytes(range(a))) for p in range(33) for a in range(33)]
        assert [r.count for r in records] == list(range(1, len(rule) + 1))
        assert all(r.key == r.nonce == bytes(range(16)) for r in records)
        assert [(r.pt, r.ad) for r in records] == rule
        digest = hashlib.sha256(b"".join(r.ct_and_tag for r in records)).hexdigest()
        assert digest == cli._KAT_DIGESTS[name]

    def test_no_key_material_in_output(self, capsys):
        run_cli("selftest")
        captured = capsys.readouterr()
        for stream in (captured.out, captured.err):
            assert KEY_HEX not in stream.upper().replace(" ", "")

    def test_verbose_reports_the_backend(self, capsys):
        rc = run_cli("selftest", "-v")
        assert rc == 0
        err = capsys.readouterr().err
        for key, value in aead.backend_info().items():
            assert f"{key}: {value}" in err.splitlines()
        assert KEY_HEX not in err.upper()

    def test_mutant_iv_exits_5(self, capsys, monkeypatch):
        broken = variant_like(aead.ASCON_128A, name="ASCON-128")  # another IV and rate
        monkeypatch.setitem(aead.VARIANTS, "ascon128", broken)
        rc = run_cli("selftest")
        assert rc == 5
        assert "FAIL" in capsys.readouterr().out


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("frobnicate")
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("encrypt", "--frob")
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("--version")
        assert info.value.code == 0
