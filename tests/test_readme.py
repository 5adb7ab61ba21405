"""The README's library quick tour runs as written, so every name it promises exists."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.slow
def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
