"""Every example script imports and runs against the current package.

Importing an example resolves the ``repro`` names it imports; running its
``main()`` (stdout captured, default arguments) also resolves every
attribute it calls, so deleting or renaming anything an example needs
fails this test instead of breaking the example silently.  All six run in
about 6 s together on a 2-vCPU host.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path)])  # default options only
    module.main()
    assert capsys.readouterr().out.strip()
