"""Which modules the library path loads: a guard on start-up cost.

The child runs under `python -S`, so no site hook preloads anything, and it
reports which of the modules the package is meant to do without are in
sys.modules after an import and one round trip.  It checks what loads, not
how long it takes.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
AVOIDED = ("dataclasses", "inspect", "typing", "pathlib")

CHILD = f"""
import sys

import ascon_aead

key, nonce = bytes(16), bytes(range(16))
ct, tag = ascon_aead.encrypt(ascon_aead.ASCON_128, key, nonce, b"ad", b"message")
assert ascon_aead.decrypt(ascon_aead.ASCON_128, key, nonce, b"ad", ct, tag) == b"message"
print(ascon_aead.backend_info()["backend"])
print(" ".join(name for name in {AVOIDED!r} if name in sys.modules))
"""


def test_library_path_loads_no_dataclasses_typing_or_pathlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    backend, loaded = proc.stdout.split("\n")[:2]
    assert backend in ("kernel", "pure")
    assert loaded == "", f"loaded on the {backend} path: {loaded}"
