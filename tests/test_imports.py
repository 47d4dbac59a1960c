"""Which modules the library path and the CLI load: a guard on start-up cost.

Each child runs under `python -S`, so no site hook preloads anything, and it
reports which of the modules the package is meant to do without are in
sys.modules after an import (and, for the library, one round trip).  It
checks what loads, not how long it takes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
AVOIDED = ("dataclasses", "inspect", "typing", "pathlib", "threading", "hashlib")

CHILD = f"""
import sys

import ascon_aead

key, nonce = bytes(16), bytes(range(16))
ct, tag = ascon_aead.encrypt(ascon_aead.ASCON_128, key, nonce, b"ad", b"message")
assert ascon_aead.decrypt(ascon_aead.ASCON_128, key, nonce, b"ad", ct, tag) == b"message"
print(ascon_aead.backend_info()["backend"])
print(" ".join(name for name in {AVOIDED!r} if name in sys.modules))
print("hmac" in sys.modules)
print("sysconfig" in sys.modules)
"""


def run_child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_library_path_loads_no_dataclasses_typing_or_pathlib():
    backend, loaded, hmac_loaded = run_child(CHILD).split("\n")[:3]
    assert backend in ("kernel", "pure")
    # the pure path verifies the tag with hmac, which imports hashlib
    allowed = set() if backend == "kernel" else {"hashlib"}
    assert set(loaded.split()) <= allowed, f"loaded on the {backend} path: {loaded}"
    if backend == "kernel":  # the kernel verifies the tag itself
        assert hmac_loaded == "False"


def test_cached_kernel_loads_without_sysconfig():
    # The loader looks for Python.h under sys.base_prefix first; importing
    # sysconfig to find it would cost every process a millisecond or more.
    version = f"python{sys.version_info[0]}.{sys.version_info[1]}{getattr(sys, 'abiflags', '')}"
    if not (Path(sys.base_prefix) / "include" / version / "Python.h").is_file():
        pytest.skip("Python.h is not at the standard path, so the loader asks sysconfig")
    from ascon_aead import aead

    if aead.backend_info()["backend"] != "kernel":  # builds the kernel into the cache
        pytest.skip("the compiled C kernel could not be built or loaded")
    backend, _, _, sysconfig_loaded = run_child(CHILD).split("\n")[:4]
    assert (backend, sysconfig_loaded) == ("kernel", "False")


def test_cli_import_loads_no_pathlib_or_tempfile():
    loaded = run_child(
        "import sys, ascon_aead.cli; "
        "print(' '.join(m for m in ('pathlib', 'tempfile') if m in sys.modules))"
    ).strip()
    assert loaded == "", f"loaded by the CLI import: {loaded}"
