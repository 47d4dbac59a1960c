import json
import shutil
import subprocess
from pathlib import Path

import pytest

from ascon_aead import aead
from ascon_aead.kat import parse_kat_file

from mutants import kernel_copy

VECTOR_DIR = Path(__file__).parent / "vectors"
VARIANT_NAMES = ("ascon128", "ascon128a")
#: A compiler flag that builds _accel.c with the one baseline body: where the
#: loader would pick the x86-64-v3 body, only this flag lets a test run the other.
PORTABLE_BODY = "-DASCON_NO_TARGET_CLONES"


def build_kernel_driver(directory: Path, *flags: str, edit=None) -> Path:
    """Build kernel_driver.c with `flags` in `directory`; the path of the program.

    It links the copy of _accel.c that mutants.kernel_copy writes there,
    with `edit` applied.  Skips where there is no C compiler.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    kernel_copy(directory, edit)
    build = subprocess.run(
        [compiler, "-std=c99", *flags, "-o", "driver",
         str(Path(__file__).with_name("kernel_driver.c")), "_accel.c"],
        cwd=directory, capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    return directory / "driver"


def kat_path(variant: str) -> Path:
    return VECTOR_DIR / variant / "LWC_AEAD_KAT_128_128.txt"


@pytest.fixture(scope="session")
def kat_records():
    """Parsed official vectors, keyed by variant name."""
    return {name: parse_kat_file(kat_path(name).read_text()) for name in VARIANT_NAMES}


@pytest.fixture(scope="session")
def phase_fixtures():
    """Pinned intermediate states for KAT record 545 (non-empty PT and AD)."""
    return json.loads((VECTOR_DIR / "phase_fixtures.json").read_text())


@pytest.fixture
def pure_path(monkeypatch):
    """Force the reference path (the Python phases) even where the compiled kernel loads."""
    monkeypatch.setattr(aead, "_accel_backend", False)


@pytest.fixture
def fresh_loader(monkeypatch):
    """Forget aead's resolved backend for one test, so the next call resolves it anew.

    aead alone remembers the backend; `_accel.load` builds or loads on every call.
    """
    for name in ("_accel_backend", "_accel_library", "_accel_reason"):
        monkeypatch.setattr(aead, name, None)


def run_selftest(capsys) -> tuple[int, list[str]]:
    """The exit code of `ascon-aead selftest` on the code and backend as they stand,
    and the lines it printed for the checks that failed."""
    from ascon_aead import cli

    rc = cli.main(["selftest"])
    return rc, [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]


def accel_available() -> bool:
    return aead._get_accel() is not None


def variant_like(base: aead.VariantParams, **changes) -> aead.VariantParams:
    """A variant with `base`'s fields and `changes`, built through the validating constructor."""
    fields = {name: getattr(base, name) for name in aead.VariantParams._fields}
    return aead.VariantParams(**{**fields, **changes})


@pytest.fixture(params=["pure", "kernel"])
def backend(request, monkeypatch):
    """Run the test once on the reference path and once on the compiled kernel."""
    if request.param == "pure":
        monkeypatch.setattr(aead, "_accel_backend", False)
    elif not accel_available():
        pytest.skip("the compiled C kernel could not be built or loaded")
    return request.param
