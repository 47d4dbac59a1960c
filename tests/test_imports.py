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

SRC = Path(__file__).resolve().parent.parent / "src"
AVOIDED = ("dataclasses", "inspect", "typing", "pathlib", "threading", "hashlib", "sysconfig")

CHILD = f"""
import sys

import ascon_aead

key, nonce = bytes(16), bytes(range(16))
ct, tag = ascon_aead.encrypt(ascon_aead.ASCON_128, key, nonce, b"ad", b"message")
assert ascon_aead.decrypt(ascon_aead.ASCON_128, key, nonce, b"ad", ct, tag) == b"message"
print(ascon_aead.backend_info()["backend"])
print(" ".join(name for name in {AVOIDED!r} if name in sys.modules))
print("hmac" in sys.modules)
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
    from ascon_aead import aead

    aead.backend_info()  # builds the kernel into the cache, so the child loads it
    backend, loaded, hmac_loaded = run_child(CHILD).split("\n")[:3]
    assert backend in ("kernel", "pure")
    # the pure path verifies the tag with hmac, which imports hashlib, and
    # the failed compile asked sysconfig where the CPython headers are
    allowed = set() if backend == "kernel" else {"hashlib", "sysconfig"}
    assert set(loaded.split()) <= allowed, f"loaded on the {backend} path: {loaded}"
    if backend == "kernel":  # the kernel verifies the tag itself
        assert hmac_loaded == "False"


def test_cli_import_loads_no_pathlib_or_tempfile():
    loaded = run_child(
        "import sys, ascon_aead.cli; "
        "print(' '.join(m for m in ('pathlib', 'tempfile') if m in sys.modules))"
    ).strip()
    assert loaded == "", f"loaded by the CLI import: {loaded}"
