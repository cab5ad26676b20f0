"""Export drift: every exported name resolves, and the README's Library
example uses only names the package exports."""

import importlib
import os
import re
import subprocess
import sys
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


def test_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded already by other tests
    code = ("import sys, dettree, dettree.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(dettree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scipy_imported_only_by_reference_module():
    package = Path(dettree.__file__).resolve().parent
    users = sorted(p.name for p in package.glob("*.py") if re.search(r"^\s*(from|import) scipy", p.read_text(), re.M))
    assert users == ["reference.py"]
