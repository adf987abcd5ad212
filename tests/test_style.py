"""Source style: no line of the package runs past 100 characters, and no stale export."""

from pathlib import Path

import pytest

import fpmine

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "fpmine").glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_line_over_100_characters(path):
    long = [f"{path.name}:{i}: {len(line)} characters"
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, long


def test_public_names_resolve():
    # a stale name in __all__ would otherwise fail only at `from fpmine import *`
    missing = [name for name in fpmine.__all__ if not hasattr(fpmine, name)]
    assert not missing, missing
