"""The README's library quick tour runs as written, so every name it promises exists."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.slow
def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


MODULES = ("boundary", "spectra", "states", "finitediff", "zeros", "cli", "errors")


def test_named_module_attributes_exist():
    # every backticked `module.NAME` of the package's modules, such as `zeros.CLUSTER`
    pattern = rf"(?<![\w.])({'|'.join(MODULES)})\.([A-Za-z_]\w*)"
    spans = re.findall(r"`([^`]*)`", README.read_text(encoding="utf-8"))
    names = sorted({name for span in spans for name in re.findall(pattern, span)})
    assert len(names) >= 19
    assert [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(f"ptpoint.{m}"), n)] == []
