"""Optional compiled kernel (C through ctypes); resolved lazily by aead.

When it loads, aead.encrypt and aead.decrypt run each whole message through
it in one call (`encrypt`, `decrypt`).  The four phase functions of aead
stay the reference path and handle every input when the kernel cannot be
built or loaded.  The kernel, `_accel.c`, is a compiled copy of those
phases over the same round function on machine words, and is pinned to the
reference path bit-for-bit by the test suite.  Like the reference path it
never branches on or indexes by secret values.

A call crosses into C once, through `ascon_encrypt` or `ascon_decrypt`.
Each takes six pointers and two lengths, since ctypes spends time on every
argument it converts: the public parameters travel as the block that
VariantParams packs once (`_kernel_params`, laid out in `_accel.c`), and
the output and the tag come back in one buffer of len + 16 bytes.

Only the standard library and the system C compiler (`cc`) are needed.  On
first use the source is compiled into a cache keyed by a hash of the
source, the compile command and the platform: the `__pycache__` directory
next to this file, or, when that is not writable, a private per-user
directory under the system temporary directory.  Later processes load the
cached library without compiling.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import stat
import sysconfig
import tempfile
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("_accel.c")
_COMPILER = "cc"
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_COMPILE_TIMEOUT_S = 120

#: Why the kernel could not be built or loaded; None until load() fails.
UNAVAILABLE_REASON: str | None = None
#: The path of the loaded library; None until load() succeeds.
LIBRARY: str | None = None

_encrypt = _decrypt = None  # the bound C functions, once load() has succeeded
_TAG_BYTES = 16
_lock = threading.Lock()


class _Unavailable(Exception):
    """The kernel cannot be built or loaded here; the message says why."""


def load() -> bool:
    """Build or load the kernel once per process; True when it can be used.

    Only the expected failures fall back to the pure path: no compiler on
    PATH, a failed compile, no usable cache directory, or a library the
    dynamic loader rejects.  Their reason is kept in UNAVAILABLE_REASON.
    Anything else is a fault and propagates.
    """
    global _encrypt, _decrypt, LIBRARY, UNAVAILABLE_REASON
    with _lock:
        if _encrypt is None and UNAVAILABLE_REASON is None:
            try:
                path = _library()
                _encrypt, _decrypt = _bind(path)
                LIBRARY = str(path)
            except _Unavailable as exc:
                UNAVAILABLE_REASON = str(exc)
        return _encrypt is not None


def _bind(path: Path):
    """(ascon_encrypt, ascon_decrypt) from the library at `path`, with their signature."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from exc
    buf, size = ctypes.c_char_p, ctypes.c_size_t
    fns = lib.ascon_encrypt, lib.ascon_decrypt
    for fn in fns:
        # params, key, nonce, ad, adlen, in, len, out
        fn.argtypes = (buf, buf, buf, buf, size, buf, size, buf)
        fn.restype = None
    return fns


def _library() -> Path:
    """The built kernel, from the first usable cache directory; compiled there if absent."""
    key = hashlib.sha256(
        repr((_COMPILER, _CFLAGS, sysconfig.get_platform())).encode() + _SOURCE.read_bytes()
    ).hexdigest()[:16]
    name = f"_accel-{key}.so"
    problems = []
    for directory in (_package_cache, _private_temp_dir):
        try:
            path = directory() / name
            if not path.is_file():
                _compile(path)
            return path
        except OSError as exc:  # the directory cannot be created or written
            problems.append(str(exc))
    raise _Unavailable(f"no writable cache directory: {'; '.join(problems)}")


def _package_cache() -> Path:
    _CACHE_DIR.mkdir(exist_ok=True)
    return _CACHE_DIR


def _private_temp_dir() -> Path:
    """A directory under the system temp directory that only this user can write.

    A library planted there by someone else would run in this process, so
    one that belongs to another user or that others can write is refused.
    """
    if not hasattr(os, "getuid"):
        raise OSError("no per-user temporary directory on this platform")
    uid = os.getuid()
    path = Path(tempfile.gettempdir()) / f"ascon-aead-{uid}"
    path.mkdir(mode=0o700, exist_ok=True)
    st = path.lstat()
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != uid or st.st_mode & 0o022:
        raise OSError(f"{path} is not a private directory")
    return path


def _compile(target: Path) -> None:
    """Compile the source to `target` by way of a temporary file beside it.

    os.replace makes the finished library appear at once, so a process
    racing this one never loads a half-written file.  Raises OSError when
    the directory is not writable and _Unavailable when there is no
    compiler or the compile fails.
    """
    import subprocess  # only a compile needs it; loading a cached library does not

    fd, tmp = tempfile.mkstemp(prefix=f"{target.stem}-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        compiler = shutil.which(_COMPILER)
        if compiler is None:
            raise _Unavailable(f"C compiler {_COMPILER!r} not found on PATH")
        try:
            proc = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE)],
                capture_output=True,
                text=True,
                timeout=_COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(f"C compiler {compiler} did not run: {exc}") from exc
        if proc.returncode != 0:
            raise _Unavailable(
                f"{compiler} failed with exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def encrypt(params, key: bytes, nonce: bytes, ad: bytes, plaintext: bytes):
    """aead.encrypt in one C call: (ciphertext, tag).

    Like decrypt, this relies on load() having returned True and on the
    caller's checks: every input is `bytes`, key and nonce are 16 bytes, and
    `params` is a VariantParams.  The buffer is fresh per call: ctypes
    releases the GIL, so threads run this at once.
    """
    n = len(plaintext)
    out = (ctypes.c_char * (n + _TAG_BYTES))()
    _encrypt(params._kernel_params, key, nonce, ad, len(ad), plaintext, n, out)
    return out[:n], out[n:]


def decrypt(params, key: bytes, nonce: bytes, ad: bytes, ciphertext: bytes):
    """aead.decrypt in one C call, without the tag check: (output buffer, expected tag).

    The buffer holds the plaintext in its first len(ciphertext) bytes; the
    caller compares the tags and reads the plaintext only when they match.
    """
    n = len(ciphertext)
    out = (ctypes.c_char * (n + _TAG_BYTES))()
    _decrypt(params._kernel_params, key, nonce, ad, len(ad), ciphertext, n, out)
    return out, out[n:]
