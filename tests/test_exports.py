"""Export drift: every exported name resolves, and the README's Library
example uses only names the package exports."""

import importlib
import re
from pathlib import Path

import pytest

import dettree

MODULES = ["dettree", "dettree.build", "dettree.cli", "dettree.core", "dettree.io", "dettree.reference",
           "dettree.sampling", "dettree.validation"]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_readme_library_block_uses_exported_names():
    text = README.read_text()
    block = re.search(r"## Library\s+```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Library code block"
    used = set(re.findall(r"\bdt\.(\w+)", block.group(1)))
    assert used, "Library block uses no dt.<name>"
    assert sorted(used - set(dettree.__all__)) == []
