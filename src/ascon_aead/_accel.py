"""Optional compiled kernel (a C extension module): its builder and loader.

load() returns the extension module, whose `__file__` is its library, or
raises Unavailable with the reason.  This module keeps no state: each call
builds or loads anew, and aead resolves the backend once and remembers and
reports it.  When the kernel loads, aead.encrypt and aead.decrypt run each
whole message through it in one call: the module's `encrypt` or `decrypt`.
The four phase functions of aead stay the reference path and handle every
input when the kernel cannot be built or loaded.  The kernel, `_accel.c`,
is a compiled copy of those phases over the same round function on machine
words, and is pinned to the reference path bit-for-bit by the test suite.
Like the reference path it never branches on or indexes by secret values,
and it is the constant-time path: the reference path holds to that in its
source only, as CPython's int operations cost more as digit counts grow.

`_accel.c` is plain C.  `_kernelmodule.c` is its CPython binding, the
module `ascon_aead._kernel`, with one function per direction; its header
says what it checks and in which order, how it takes arguments, and when
it releases the GIL.  Its checks are a kernel-path call's only ones: it
refuses an argument with the error that aead's pure path raises for it, and
aead passes that on.  decrypt takes the received tag: the kernel compares
it in constant time and, when it fails, zeroes the plaintext, and decrypt
returns None.  The kernel's only parameter is the variant's 8-byte IV
(VariantParams `_iv`), and the binding takes only those of ASCON-128 and
ASCON-128a; the kernel reads the rate and data rounds from it (`_accel.c`).

The one source gives two bodies of the kernel where the toolchain can make
them (x86-64 ELF with glibc, and gcc 12 or later): one for baseline x86-64
and one for x86-64-v3.  The dynamic loader picks one when it loads the
library, by the CPU it runs on.  So the compile command carries no
CPU-specific flag, and one cached build serves every x86-64 CPU; an older
CPU gets the baseline body rather than an illegal instruction.  Anywhere
else the file falls back to the one baseline body.  Each body holds the
state in registers through the data loop, with one copy of the loop per
direction and two rounds per pass, which makes the first compile take
about 0.5 s.

The loop walks the round constant, and x2 is held complemented through
the whole message, which drops the S-box's NOT from every round; x2 is
never output, so it is never restored.  Whole blocks are found with a
mask, so the kernel uses no division, and decrypt compares the tag as two
64-bit words in registers.

Only the standard library, the CPython headers and the system C compiler
(`cc`) are needed.  On first use the two files are compiled into a cache
keyed by a hash of both sources, the compile command, the interpreter's
extension suffix (its ABI tag) and the platform: the `__pycache__`
directory next to this file, or, when that is not writable, a private
per-user directory under the system temporary directory.  Interpreters
with one ABI tag share one build, and only a compile looks up where the
CPython headers are.  Later processes load the cached module without
compiling, and compile over one that is cut short or fails to load.  Right
after a compile, the superseded builds for this ABI tag in the same
directory are deleted, so a process of an older source revision in the
same checkout may then have to compile its own build again.
"""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, source_hash, spec_from_file_location

# Paths are str.  Tests may set any os.PathLike, so they are only ever
# passed to open() and os.* functions.
_HERE = os.path.dirname(__file__)
_SOURCE = os.path.join(_HERE, "_accel.c")
_BINDING = os.path.join(_HERE, "_kernelmodule.c")
_MODULE = "ascon_aead._kernel"  # the name its PyInit function is looked up by
_COMPILER = "cc"
# Hidden visibility leaves PyInit__kernel (PyMODINIT_FUNC) the one exported
# symbol, so the binding calls the kernel's entry points directly, not
# through the PLT, and no other library can interpose them.
_CFLAGS = ("-O2", "-DNDEBUG", "-std=c99", "-shared", "-fPIC", "-fvisibility=hidden")
_EXT_SUFFIX = EXTENSION_SUFFIXES[0]  # the interpreter's ABI tag
_PLATFORM = f"{sys.platform}-{os.uname().machine}" if hasattr(os, "uname") else sys.platform
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
_COMPILE_TIMEOUT_S = 120


class Unavailable(Exception):
    """The kernel cannot be built or loaded here; the message says why."""


def _import(path: str):
    """The extension module in the library at `path`; its `__file__` is `path`.

    An ELF file cut inside its header, or whose section header table ends
    past its end, is refused unloaded: dlopen would map segments the file
    no longer holds, and the first touch of one kills the process with SIGBUS.
    """
    try:
        with open(path, "rb") as f:
            header, size = f.read(64), os.fstat(f.fileno()).st_size
    except OSError:
        header = b""
    if header[:4] == b"\x7fELF":
        order = "little" if header[5:6] == b"\x01" else "big"
        # e_shoff, e_shentsize and e_shnum, in a 64-bit or a 32-bit header
        wide = header[4:5] == b"\x02"
        fields = ((0x28, 8), (0x3A, 2), (0x3C, 2)) if wide else ((0x20, 4), (0x2E, 2), (0x30, 2))
        shoff, shentsize, shnum = (int.from_bytes(header[i:i + n], order) for i, n in fields)
        if len(header) < 64 or shoff + shentsize * shnum > size:
            raise Unavailable(f"cannot load {path}: the build is cut short ({size} bytes)")
    spec = spec_from_file_location(_MODULE, path, loader=ExtensionFileLoader(_MODULE, path))
    try:
        module = module_from_spec(spec)
    except ImportError as exc:
        raise Unavailable(f"cannot load {path}: {exc}") from exc
    spec.loader.exec_module(module)
    return module


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _library_name() -> str:
    """The cache file name: a hash of everything the built library depends on.

    The hash is CPython's own 64-bit hash for hash-based .pyc files, which
    is the same in every process of one interpreter version; it saves
    loading hashlib at start-up.
    """
    key = repr((_COMPILER, _CFLAGS, _EXT_SUFFIX, _PLATFORM, _read(_SOURCE), _read(_BINDING)))
    return f"_accel-{source_hash(key.encode()).hex()}{_EXT_SUFFIX}"


def load():
    """The kernel, from the first usable cache; compiled if absent or unloadable.

    Raises Unavailable on the expected failures, which leave the pure path
    to run: no compiler on PATH, a failed compile (no CPython headers, say),
    no usable cache directory, or a fresh build the interpreter cannot load.
    Anything else is a fault and propagates.
    """
    name = _library_name()
    problems = []
    for directory in (_package_cache, _private_temp_dir):
        try:
            path = os.path.join(directory(), name)
            try:
                return _import(path)
            except Unavailable:  # absent, truncated, or built against another libc
                pass
            _compile(path)
            return _import(path)
        except OSError as exc:  # the directory cannot be created or written
            problems.append(str(exc))
    raise Unavailable(f"no writable cache directory: {'; '.join(problems)}")


def _package_cache():
    os.makedirs(_CACHE_DIR, exist_ok=True)
    return _CACHE_DIR


def _private_temp_dir() -> str:
    """A directory under the system temp directory that only this user can write.

    A library planted there by someone else would run in this process, so
    one that belongs to another user or that others can write is refused.
    """
    import stat
    import tempfile

    if not hasattr(os, "getuid"):
        raise OSError("no per-user temporary directory on this platform")
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"ascon-aead-{uid}")
    os.makedirs(path, 0o700, exist_ok=True)
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != uid or st.st_mode & 0o022:
        raise OSError(f"{path} is not a private directory")
    return path


def _compile(target: str) -> None:
    """Compile the source to `target` by way of a temporary file beside it.

    os.replace makes the finished library appear at once, so a process
    racing this one never loads a half-written file.  Raises OSError when
    the directory is not writable and Unavailable when there is no
    compiler or the compile fails.  Then deletes the builds it supersedes.
    """
    # only a compile needs these; loading a cached library does not
    import contextlib
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    include = sysconfig.get_paths()["include"]  # where Python.h is
    directory, name = os.path.split(target)
    stem = os.path.splitext(name)[0]
    fd, tmp = tempfile.mkstemp(prefix=f"{stem}-", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        compiler = shutil.which(_COMPILER)
        if compiler is None:
            raise Unavailable(f"C compiler {_COMPILER!r} not found on PATH")
        try:
            proc = subprocess.run(
                [compiler, *_CFLAGS, f"-I{include}", "-o", tmp, _SOURCE, _BINDING],
                capture_output=True,
                text=True,
                timeout=_COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise Unavailable(f"C compiler {compiler} did not run: {exc}") from exc
        if proc.returncode != 0:
            raise Unavailable(
                f"{compiler} failed with exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    _prune(directory, name)


def _prune(directory: str, keep: str) -> None:
    """Delete the kernel builds in `directory` that `keep` supersedes.

    A build is `_accel-<16 hex digits>` followed by this interpreter's
    extension suffix.  Builds for other ABI tags and in-flight `.tmp` files
    stay.  Any error is ignored: the new build is already in place.
    """
    import contextlib
    import re

    build = re.compile(rf"_accel-[0-9a-f]{{16}}{re.escape(_EXT_SUFFIX)}")
    with contextlib.suppress(OSError):
        for entry in os.listdir(directory):
            if entry != keep and build.fullmatch(entry):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, entry))
