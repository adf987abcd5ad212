"""Source style: no line of the package runs past 100 characters."""

from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "fpmine").glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_line_over_100_characters(path):
    long = [f"{path.name}:{i}: {len(line)} characters"
            for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, long
