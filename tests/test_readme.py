"""The README's library quick tour runs as written, so every name it promises exists."""

import importlib
import re
from pathlib import Path

import pytest

from ptpoint import cli

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


def test_models_table_lists_the_model_file_types():
    section = README.read_text(encoding="utf-8").split("## Models\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert [re.match(r"\| `(\w+)`", row).group(1) for row in rows] == list(cli.MODEL_FILE_TYPES)
