"""Command-line front end: encrypt/decrypt, KAT verification, trace, self-test.

Exit codes are a stable contract:

    0  success
    2  usage error (bad flags, bad hex, wrong lengths)
    3  I/O failure
    4  authentication failure on decrypt
    5  verification failure (KAT mismatches, failed self-test)

Keys ride in on flags or files, which is demo-grade handling: anything in
argv is visible to other local processes.  No environment variables are
read.  No key material is ever written to any output stream.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import __version__, aead, kat
from .codec import HexError, hex_decode, hex_encode
from .permutation import State, VALID_ROUNDS, permute, substitution_layer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_AUTH = 4
EXIT_VERIFY = 5

# Record-1 vectors (empty PT and AD, key = nonce = 000102..0F): with no
# ciphertext the CT field is the bare tag.  Used by the self-test.
_SMOKE_KEY = bytes(range(16))
_SMOKE_NONCE = bytes(range(16))
_SMOKE_TAGS = {
    "ascon128": "E355159F292911F794CB1432A0103A8A",
    "ascon128a": "7A834E6F09210957067B10FD831F0078",
}
# 12-round permutation of (ASCON-128 IV, 0, 0, 0, 0).
_SMOKE_PERMUTE12 = State(
    0xB8DFF46B0DB421F8,
    0xED0232A7C68DED74,
    0x138A46B172B225F9,
    0xFA8EAAAAC685D26A,
    0xF044217FBE57E755,
)


class UsageError(Exception):
    """Bad invocation detected after argparse; maps to exit code 2."""


def _add_variant(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant",
        choices=sorted(aead.VARIANTS),
        default="ascon128",
        help="parameter set (default: ascon128)",
    )


def _add_verbose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--verbose", action="store_true", help="diagnostics on stderr")


def _add_key_nonce_ad(parser: argparse.ArgumentParser, gen_nonce: bool) -> None:
    key = parser.add_mutually_exclusive_group()
    key.add_argument("--key", metavar="HEX", help="16-byte key as 32 hex chars")
    key.add_argument("--key-file", metavar="PATH", help="file holding the raw 16-byte key")
    nonce = parser.add_mutually_exclusive_group()
    nonce.add_argument("--nonce", metavar="HEX", help="16-byte nonce as 32 hex chars")
    if gen_nonce:
        nonce.add_argument(
            "--gen-nonce",
            action="store_true",
            help="draw a random nonce and echo it on stderr (encrypt only)",
        )
    ad = parser.add_mutually_exclusive_group()
    ad.add_argument("--ad", metavar="HEX", help="associated data as hex (default: empty)")
    ad.add_argument("--ad-file", metavar="PATH", help="file holding raw associated data")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascon-aead",
        description="ASCON-128/128a authenticated encryption, KAT runner, and trace tool",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    enc = sub.add_parser("encrypt", help="encrypt and authenticate")
    _add_variant(enc)
    _add_key_nonce_ad(enc, gen_nonce=True)
    src = enc.add_mutually_exclusive_group()
    src.add_argument("--in", dest="in_path", metavar="PATH", help="plaintext file")
    src.add_argument("--pt", metavar="HEX", help="plaintext as hex")
    enc.add_argument(
        "--out",
        metavar="PATH",
        help="write ciphertext||tag here; without it, print CT=/TAG= hex lines",
    )
    _add_verbose(enc)
    enc.set_defaults(func=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="verify and decrypt")
    _add_variant(dec)
    _add_key_nonce_ad(dec, gen_nonce=False)
    src = dec.add_mutually_exclusive_group()
    src.add_argument(
        "--in", dest="in_path", metavar="PATH", help="file holding ciphertext||tag"
    )
    src.add_argument("--ct", metavar="HEX", help="ciphertext as hex (with --tag)")
    dec.add_argument("--tag", metavar="HEX", help="16-byte tag as 32 hex chars")
    dec.add_argument(
        "--out",
        metavar="PATH",
        help="write recovered plaintext here; without it, print a PT= hex line",
    )
    _add_verbose(dec)
    dec.set_defaults(func=cmd_decrypt)

    katp = sub.add_parser("kat", help="run a known-answer-test file")
    _add_variant(katp)
    katp.add_argument("path", metavar="KAT_FILE", help="NIST LWC AEAD vector file")
    _add_verbose(katp)
    katp.set_defaults(func=cmd_kat)

    tr = sub.add_parser("trace", help="print the state round by round")
    _add_variant(tr)
    tr.add_argument("--state", metavar="HEX", help="start state as 80 hex chars")
    tr.add_argument("--key", metavar="HEX", help="16-byte key (needs --unsafe-trace)")
    tr.add_argument("--nonce", metavar="HEX", help="16-byte nonce (needs --unsafe-trace)")
    tr.add_argument("--rounds", type=int, default=12, help="6, 8, or 12 (default: 12)")
    tr.add_argument(
        "--unsafe-trace",
        action="store_true",
        help="allow tracing key-derived state (prints secret-dependent words)",
    )
    _add_verbose(tr)
    tr.set_defaults(func=cmd_trace)

    st = sub.add_parser("selftest", help="run the embedded smoke checks")
    _add_verbose(st)
    st.set_defaults(func=cmd_selftest)
    return parser


def _decode_flag(flag: str, text: str, expect_len: int | None = None) -> bytes:
    try:
        data = hex_decode(text)
    except HexError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    return data if expect_len is None else _check_len(flag, data, expect_len)


def _check_len(flag: str, data: bytes, expect_len: int) -> bytes:
    if len(data) != expect_len:
        raise UsageError(f"{flag}: expected {expect_len} bytes, got {len(data)}")
    return data


def _read_file(flag: str | None, path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        where = f"{flag}: " if flag else ""
        raise _IoFailure(f"{where}cannot read {path}: {exc.strerror}") from exc


class _IoFailure(Exception):
    """I/O problem; maps to exit code 3."""


def _resolve_key(args) -> bytes:
    if args.key is not None:
        return _decode_flag("--key", args.key, aead.KEY_BYTES)
    if args.key_file is not None:
        data = _read_file("--key-file", args.key_file)
        return _check_len("--key-file", data, aead.KEY_BYTES)
    raise UsageError("a key is required: pass --key or --key-file")


def _resolve_nonce(args) -> bytes:
    if args.nonce is not None:
        return _decode_flag("--nonce", args.nonce, aead.NONCE_BYTES)
    # only the encrypt parser defines gen_nonce
    if getattr(args, "gen_nonce", False):
        nonce = os.urandom(aead.NONCE_BYTES)
        print(f"NONCE={hex_encode(nonce)}", file=sys.stderr)
        return nonce
    flags = "--nonce or --gen-nonce" if hasattr(args, "gen_nonce") else "--nonce"
    raise UsageError(f"a nonce is required: pass {flags}")


def _resolve_ad(args) -> bytes:
    if args.ad is not None:
        return _decode_flag("--ad", args.ad)
    if args.ad_file is not None:
        return _read_file("--ad-file", args.ad_file)
    return b""


def _write_out(path: str, *chunks: bytes) -> None:
    """Write the chunks to `path`, whole or not at all, by way of a temporary file beside it.

    The file is created readable and writable by its owner only.  Writing the
    chunks one after another saves joining them into one more copy.
    """
    import tempfile

    directory, name = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}-", suffix=".tmp", dir=directory or ".")
        with open(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise _IoFailure(f"--out: cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _note(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def cmd_encrypt(args) -> int:
    params = aead.VARIANTS[args.variant]
    key = _resolve_key(args)
    nonce = _resolve_nonce(args)
    ad = _resolve_ad(args)
    if args.pt is not None:
        plaintext = _decode_flag("--pt", args.pt)
    elif args.in_path is not None:
        plaintext = _read_file("--in", args.in_path)
    else:
        raise UsageError("an input is required: pass --pt or --in")
    _note(args, f"{params.name}: encrypting {len(plaintext)} bytes, ad {len(ad)} bytes")
    ciphertext, tag = aead.encrypt(params, key, nonce, ad, plaintext)
    if args.out is not None:
        _write_out(args.out, ciphertext, tag)
        _note(args, f"wrote {len(ciphertext) + len(tag)} bytes to {args.out}")
    else:
        print(f"CT={hex_encode(ciphertext)}")
        print(f"TAG={hex_encode(tag)}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    params = aead.VARIANTS[args.variant]
    key = _resolve_key(args)
    nonce = _resolve_nonce(args)
    ad = _resolve_ad(args)
    if args.ct is not None:
        ciphertext = _decode_flag("--ct", args.ct)
        if args.tag is None:
            raise UsageError("--ct needs --tag")
        tag = _decode_flag("--tag", args.tag, aead.TAG_BYTES)
    elif args.in_path is not None:
        if args.tag is not None:
            raise UsageError("--tag only applies to --ct; --in carries the tag inline")
        blob = _read_file("--in", args.in_path)
        if len(blob) < aead.TAG_BYTES:
            raise UsageError(
                f"--in: input shorter than tag ({len(blob)} < {aead.TAG_BYTES} bytes)"
            )
        ciphertext, tag = blob[: -aead.TAG_BYTES], blob[-aead.TAG_BYTES :]
    else:
        raise UsageError("an input is required: pass --in, or --ct with --tag")
    _note(args, f"{params.name}: decrypting {len(ciphertext)} bytes, ad {len(ad)} bytes")
    try:
        plaintext = aead.decrypt(params, key, nonce, ad, ciphertext, tag)
    except aead.AuthenticationFailure:
        print("authentication failed", file=sys.stderr)
        return EXIT_AUTH
    if args.out is not None:
        _write_out(args.out, plaintext)
        _note(args, f"wrote {len(plaintext)} bytes to {args.out}")
    else:
        print(f"PT={hex_encode(plaintext)}")
    return EXIT_OK


def cmd_kat(args) -> int:
    params = aead.VARIANTS[args.variant]
    try:
        records = kat.parse_kat_file(_read_file(None, args.path).decode("utf-8"))
    except (UnicodeDecodeError, kat.KatParseError) as exc:
        raise UsageError(f"{args.path}: {exc}") from None
    _note(args, f"{params.name}: {len(records)} records from {args.path}")
    report = kat.run_kat(records, params)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.failed == 0 else EXIT_VERIFY


def _format_state(state: State) -> str:
    return " ".join(f"{w:016X}" for w in state)


def cmd_trace(args) -> int:
    if args.rounds not in VALID_ROUNDS:
        raise UsageError(f"--rounds must be 6, 8, or 12, got {args.rounds}")
    key = None
    if args.state is not None:
        if args.key is not None or args.nonce is not None:
            raise UsageError("--state and --key/--nonce are mutually exclusive")
        blob = _decode_flag("--state", args.state, 40)
        state = State.from_bytes(blob)
    elif args.key is not None and args.nonce is not None:
        if args.rounds != aead.ROUNDS_A:  # initialization always runs a = 12 rounds
            raise UsageError(f"--rounds must be {aead.ROUNDS_A} with --key, got {args.rounds}")
        if not args.unsafe_trace:
            raise UsageError(
                "tracing key-derived state prints secret-dependent words;"
                " pass --unsafe-trace to accept that"
            )
        params = aead.VARIANTS[args.variant]
        key = _decode_flag("--key", args.key, aead.KEY_BYTES)
        nonce = _decode_flag("--nonce", args.nonce, aead.NONCE_BYTES)
        state = State.from_bytes(params._iv + key + nonce)
    else:
        raise UsageError("a start state is required: pass --state, or --key with --nonce")

    def emit(label: str, state: State) -> None:
        print(f"{label:<22}: {_format_state(state)}")

    def observe(index: int, step: str, state: State) -> None:
        if args.verbose or step == "post-linear":
            emit(f"round {index:2} {step}", state)

    emit("initial", state)
    state = permute(state, args.rounds, observe)
    if key is not None:
        # complete the initialization flow: XOR 0* || K into the last words
        k1, k2 = int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")
        state = state._replace(s3=state.s3 ^ k1, s4=state.s4 ^ k2)
        emit("post-initialization", state)
    return EXIT_OK


def _selftest_checks():
    """Yield (name, callable) smoke checks; callables return True on pass."""

    def sbox_bijective() -> bool:
        seen = set()
        for value in range(32):
            # broadcast one 5-bit input to all 64 slices, read back slice 0
            words = [(0xFFFFFFFFFFFFFFFF if (value >> (4 - i)) & 1 else 0) for i in range(5)]
            image = substitution_layer(State(*words))
            out = 0
            for i, word in enumerate(image):
                if word not in (0, 0xFFFFFFFFFFFFFFFF):
                    return False  # parallel lanes must agree
                out |= (word & 1) << (4 - i)
            seen.add(out)
        return len(seen) == 32

    def permute12_pinned() -> bool:
        start = State(aead.VARIANTS["ascon128"].iv_word, 0, 0, 0, 0)
        return permute(start, 12) == _SMOKE_PERMUTE12

    yield "sbox bijective on all 32 inputs", sbox_bijective
    yield "12-round permutation fixture", permute12_pinned
    for name in sorted(_SMOKE_TAGS):
        def known_answer(name=name) -> bool:
            params = aead.VARIANTS[name]
            ct, tag = aead.encrypt(params, _SMOKE_KEY, _SMOKE_NONCE, b"", b"")
            return ct == b"" and hex_encode(tag) == _SMOKE_TAGS[name]

        def round_trip(name=name) -> bool:
            params = aead.VARIANTS[name]
            pt = b"self-test payload, neither secret nor random"
            ad = b"header"
            ct, tag = aead.encrypt(params, _SMOKE_KEY, _SMOKE_NONCE, ad, pt)
            try:
                back = aead.decrypt(params, _SMOKE_KEY, _SMOKE_NONCE, ad, ct, tag)
            except aead.AuthenticationFailure:
                return False
            return back == pt and len(ct) == len(pt)

        yield f"{name} known answer (record 1)", known_answer
        yield f"{name} encrypt/decrypt round trip", round_trip


def cmd_selftest(args) -> int:
    for key, value in aead.backend_info().items():
        _note(args, f"{key}: {value}")
    failures = 0
    total = 0
    for name, check in _selftest_checks():
        total += 1
        ok = check()
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"selftest: {total} checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
