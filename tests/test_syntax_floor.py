"""The package and its tests hold to the oldest Python that pyproject.toml admits.

Grammar is checked through `ast.parse(..., feature_version=...)`, on the
package's source and the tests' alike.  One standard-library default is
checked too, because the interpreter that runs the tests may be newer than
the floor and would hide a break: since 3.11, `int.from_bytes` and
`int.to_bytes` default to big-endian and `to_bytes` to length 1, while 3.10
requires both arguments.  No other standard-library name is checked against
the floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ascon_aead").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def syntax_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def short_byte_conversions(tree: ast.AST) -> list[int]:
    """Lines of the `int.from_bytes` and `.to_bytes` calls in `tree` with under two arguments."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        on_int = isinstance(func.value, ast.Name) and func.value.id == "int"
        if (func.attr == "to_bytes" or (on_int and func.attr == "from_bytes")) and (
            len(node.args) + len(node.keywords) < 2
        ):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path",
    SOURCES + TESTS,
    ids=[path.name for path in SOURCES] + [f"tests/{path.name}" for path in TESTS],
)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=syntax_floor())


def test_the_floor_refuses_newer_grammar():
    # except* came in 3.11, so at a 3.10 floor the check has teeth
    if syntax_floor() >= (3, 11):
        pytest.skip("the floor admits except*")
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=syntax_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_byte_conversions_pass_length_and_byte_order(path):
    assert short_byte_conversions(ast.parse(path.read_text())) == []


def test_byte_conversion_check_flags_the_3_11_defaults():
    flagged = ["int.from_bytes(b'x')", "(1).to_bytes(2)", "(1).to_bytes()"]
    passing = ["int.from_bytes(b'x', 'big')", "(1).to_bytes(2, byteorder='big')",
               "State.from_bytes(data)"]
    assert short_byte_conversions(ast.parse("\n".join(flagged + passing))) == [1, 2, 3]
