"""Optional compiled kernel (C through ctypes); resolved lazily by aead.

When it loads, aead runs every permutation and every whole AD or data
block through it.  The plain-Python permutation stays the reference path
and handles every input when the kernel cannot be built or loaded.  The
kernel, `_accel.c`, is the same round function on machine words, alone
(`permute`) and fused across whole blocks (`absorb_blocks`,
`encrypt_blocks`, `decrypt_blocks`), and is pinned to the reference path
bit-for-bit by the test suite.  Like the reference path it never branches
on or indexes by state-derived values.

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

from .permutation import VALID_ROUNDS, State

_ABSORB, _ENCRYPT, _DECRYPT = 0, 1, 2

_SOURCE = Path(__file__).with_name("_accel.c")
_COMPILER = "cc"
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_COMPILE_TIMEOUT_S = 120

#: Why the kernel could not be built or loaded; None until load() fails.
UNAVAILABLE_REASON: str | None = None

_duplex = _permute = None  # the bound C functions, once load() has succeeded
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
    global _duplex, _permute, UNAVAILABLE_REASON
    with _lock:
        if _duplex is None and UNAVAILABLE_REASON is None:
            try:
                _duplex, _permute = _bind(_library())
            except _Unavailable as exc:
                UNAVAILABLE_REASON = str(exc)
        return _duplex is not None


def _bind(path: Path):
    """(ascon_duplex, ascon_permute) from the library at `path`, with their signatures."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from exc
    duplex, permute_ = lib.ascon_duplex, lib.ascon_permute
    words = ctypes.POINTER(ctypes.c_uint64)
    duplex.argtypes = (
        words,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_uint,
        ctypes.c_uint,
        ctypes.c_uint,
    )
    permute_.argtypes = (words, ctypes.c_uint)
    duplex.restype = permute_.restype = None
    return duplex, permute_


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


def _require_kernel() -> None:
    if _duplex is None and not load():
        raise RuntimeError(f"compiled kernel unavailable: {UNAVAILABLE_REASON}")


def permute(state: State, rounds: int = 12) -> State:
    """permutation.permute on the kernel: `rounds` (6, 8 or 12) rounds of `state`."""
    if rounds not in VALID_ROUNDS:
        raise ValueError(f"round count must be one of {VALID_ROUNDS}, got {rounds}")
    _require_kernel()
    # A fresh buffer per call: ctypes releases the GIL, so threads run this at once.
    words = (ctypes.c_uint64 * 5)(*state)
    _permute(words, rounds)
    return State(*words)


def _run(state: State, data: bytes, rate: int, rounds: int, mode: int):
    """Run the C loop over the whole blocks at the front of `data`.

    Returns (new state, output buffer or None).  A trailing partial block
    is left to the caller: it does not touch the state, and its bytes in
    the output buffer, which is len(data) bytes long, stay zero.
    """
    if rate not in (8, 16) or rounds not in VALID_ROUNDS:
        raise ValueError(
            f"need rate 8 or 16 and rounds in {VALID_ROUNDS}; got rate {rate}, rounds {rounds}"
        )
    _require_kernel()
    out = None if mode == _ABSORB else ctypes.create_string_buffer(len(data))
    blocks = len(data) // rate
    if not blocks:  # nothing to run; spare the state's trip through ctypes
        return state, out
    if not isinstance(data, bytes):
        data = bytes(data)
    words = (ctypes.c_uint64 * 5)(*state)
    _duplex(words, data, out, blocks, rate, rounds, mode)
    return State(*words), out


def absorb_blocks(state: State, data: bytes, rate: int, rounds: int) -> State:
    """Absorb each whole block of `data`, permuting after every one."""
    return _run(state, data, rate, rounds, _ABSORB)[0]


def encrypt_blocks(state: State, data: bytes, rate: int, rounds: int):
    """Encrypt the whole blocks of `data`; returns (state, writable ctypes buffer of len(data))."""
    return _run(state, data, rate, rounds, _ENCRYPT)


def decrypt_blocks(state: State, data: bytes, rate: int, rounds: int):
    """Decrypt the whole blocks of `data`; returns (state, writable ctypes buffer of len(data))."""
    return _run(state, data, rate, rounds, _DECRYPT)
