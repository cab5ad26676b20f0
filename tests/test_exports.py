"""Export drift: every exported name resolves, and the README's Library
example uses only names the package exports and runs as written."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _library_block() -> str:
    block = re.search(r"## Library\s+```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no Library code block"
    return block.group(1)


def test_readme_library_block_uses_exported_names():
    used = set(re.findall(r"\bdt\.(\w+)", _library_block()))
    assert used, "Library block uses no dt.<name>"
    assert sorted(used - set(dettree.__all__)) == []


def test_readme_library_block_runs(tmp_path, monkeypatch):
    cov = np.array([[0.35, 0.25, 0.5], [0.25, 0.4, 0.6], [0.5, 0.6, 1.0]])
    data = dettree.sample_gaussian(dettree.GaussianSpec(mu=np.zeros(3), cov=cov), 3, 2000)
    dettree.write_csv(tmp_path / "data.csv", data, ["x1", "x2", "x3"])
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_block(), str(README), "exec"), {})
    assert dettree.read_tree(tmp_path / "tree.json").n == 2000


def _fresh_interpreter(code: str, cwd=None) -> str:
    """What ``code`` prints in a fresh interpreter: this one has every module
    loaded already by other tests."""
    src = str(Path(dettree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('dettree', 'scipy'))"


def test_import_loads_no_scipy():
    # import dettree loads no submodule; import dettree.cli loads no library module
    assert _fresh_interpreter(f"import sys, dettree; print({LOADED})") == "['dettree']"
    assert _fresh_interpreter(f"import sys, dettree.cli; print({LOADED})") == "['dettree', 'dettree.cli']"


def test_build_and_density_load_no_reference_validation_or_scipy(tmp_path):
    rng = np.random.default_rng(8)
    dettree.write_csv(tmp_path / "data.csv", rng.standard_normal((500, 2)), ["x1", "x2"])
    code = ("import sys; from dettree.cli import main; "
            "assert main(['build', '--in', 'data.csv', '--out', 'tree.json']) == 0; "
            "assert main(['density', '--tree', 'tree.json', '--grid', '1:-1:1:5', '--fix', '2=0', "
            f"'--out', 'slice.csv']) == 0; print({LOADED})")
    loaded = ast.literal_eval(_fresh_interpreter(code, cwd=tmp_path))
    assert not [m for m in loaded if m in ("dettree.reference", "dettree.validation") or m.startswith("scipy")]
    assert "dettree.io" in loaded  # the commands did run in that interpreter


def test_scipy_imported_only_by_reference_module():
    package = Path(dettree.__file__).resolve().parent
    users = sorted(p.name for p in package.glob("*.py") if re.search(r"^\s*(from|import) scipy", p.read_text(), re.M))
    assert users == ["reference.py"]
