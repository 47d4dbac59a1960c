"""Which modules the library path and the CLI load: a guard on start-up cost.

Each child runs under `python -S`, so no site hook preloads anything, and it
reports which of the modules the package is meant to do without are in
sys.modules after an import (and, for the library, one round trip; for the
CLI, one `kat` pass).  It checks what loads, not how long it takes.
"""

import os
import subprocess
import sys
from pathlib import Path

from conftest import kat_path

SRC = Path(__file__).resolve().parent.parent / "src"
AVOIDED = (
    "dataclasses", "inspect", "typing", "pathlib", "threading", "hashlib", "sysconfig", "__future__"
)

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
    # hashlib is the self-test's alone: the `kat` command must not pay for its digest
    loaded = run_child(
        "import sys, ascon_aead.cli; "
        f"print(' '.join(m for m in {AVOIDED + ('tempfile',)!r} if m in sys.modules))"
    ).strip()
    assert loaded == "", f"loaded by the CLI import: {loaded}"


def test_kat_pass_loads_nothing_avoided():
    from ascon_aead import aead

    backend = aead.backend_info()["backend"]
    if backend == "kernel":  # it checks the tag itself, and a cached build needs no compile
        checked = AVOIDED + ("subprocess", "tempfile", "hmac")
    else:  # as on the library path: hmac loads hashlib, and the failed compile sysconfig
        checked = tuple(m for m in AVOIDED if m not in ("hashlib", "sysconfig"))
    argv = ["ascon-aead", "kat", "--variant", "ascon128", str(kat_path("ascon128"))]
    out = run_child(
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('ascon_aead.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(' '.join(m for m in {checked!r} if m in sys.modules))\n"
    ).splitlines()
    assert "total=1089 passed=2178 failed=0" in out
    assert out[-1] == "", f"loaded by a kat pass on the {backend} path: {out[-1]}"
