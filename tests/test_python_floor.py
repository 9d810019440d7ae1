"""The package parses under the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _floor() -> tuple:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def test_feature_version_is_enforced():
    # the check below means something only if an older grammar rejects
    # newer syntax on the running interpreter
    with pytest.raises(SyntaxError):
        ast.parse("(x := 1)", feature_version=(3, 7))


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "treelayout").glob("*.py")))
def test_module_parses_at_the_python_floor(module):
    path = ROOT / "src" / "treelayout" / module
    ast.parse(path.read_text(), filename=str(path), feature_version=_floor())
