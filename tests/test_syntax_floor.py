"""The package's source parses at the oldest Python that pyproject.toml admits.

This checks grammar only, through `ast.parse(..., feature_version=...)`: it
does not check that each standard-library name the package uses exists in
that version, and it runs on whatever interpreter runs the tests.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ascon_aead").glob("*.py"))


def syntax_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=syntax_floor())


def test_the_floor_refuses_newer_grammar():
    # except* came in 3.11, so at a 3.10 floor the check has teeth
    if syntax_floor() >= (3, 11):
        pytest.skip("the floor admits except*")
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=syntax_floor())
