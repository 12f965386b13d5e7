"""The public surface: each submodule's ``__all__`` and the README Quick start.

The package root exports only ``__version__``, so the submodules' ``__all__``
lists are the API; they must name exactly what each module defines publicly.
"""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ffep

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(ffep.__path__))


def test_package_root_exports_only_the_version():
    public = {n for n in vars(ffep) if not n.startswith("_")}
    assert public <= set(MODULES)  # submodules bound by imports elsewhere
    assert isinstance(ffep.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"ffep.{name}")
    listed = module.__all__
    assert len(listed) == len(set(listed)), "duplicate names in __all__"
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(listed)) == []


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1, "README should hold exactly one python block"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
